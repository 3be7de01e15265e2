"""Single-approval perturbations of elections and their observable effect.

Three operation kinds on a vote: adding an approval, removing one, and
swapping one (removing ``source`` and adding ``target`` in the same vote).
Each operation addresses a voter by index; elections are immutable, so
applying an operation returns a new election.  Displacement and the level
score the perturbed ballot counts instead, in O(groups), building no election.
"""
from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from .core import Election, _Profile, _profile_after
from .rules import DEFAULT_CAP, RuleSpec, winner_set

__all__ = [
    "OP_KINDS",
    "Add",
    "Operation",
    "Remove",
    "Swap",
    "apply",
    "apply_sequence",
    "displacement",
    "feasible_operations",
    "is_feasible",
    "level_argmax",
    "op_kind",
]


@dataclass(frozen=True)
class Add:
    voter: int
    candidate: int


@dataclass(frozen=True)
class Remove:
    voter: int
    candidate: int


@dataclass(frozen=True)
class Swap:
    voter: int
    source: int
    target: int


Operation = Add | Remove | Swap
_OP_TYPES = {"add": Add, "remove": Remove, "swap": Swap}
OP_KINDS = tuple(_OP_TYPES)
_KIND_OF = {op_type: kind for kind, op_type in _OP_TYPES.items()}


def _check_kind(kind: str) -> None:
    if kind not in _OP_TYPES:
        raise ValueError(f"unknown operation kind {kind!r}")


def op_kind(op: Operation) -> str:
    return _KIND_OF[type(op)]


def is_feasible(e: Election, op: Operation) -> bool:
    """Whether ``op`` addresses a valid voter and respects ballot membership."""
    if not 0 <= op.voter < e.n:
        return False
    ballot = e.ballots[op.voter]
    if isinstance(op, Add):
        return 0 <= op.candidate < e.m and op.candidate not in ballot
    if isinstance(op, Remove):
        return 0 <= op.candidate < e.m and op.candidate in ballot
    return (
        0 <= op.source < e.m
        and 0 <= op.target < e.m
        and op.source in ballot
        and op.target not in ballot
    )


def apply(e: Election, op: Operation) -> Election:
    """The election after ``op``; raises on an infeasible operation."""
    ballots = list(e.ballots)
    ballots[op.voter] = _change(e, op)[1]
    return Election(e.num_candidates, tuple(ballots), e.tiebreak)


def _change(e: Election, op: Operation) -> tuple[frozenset[int], frozenset[int]]:
    """The ballot of ``op``'s voter before and after ``op``; raises on an infeasible operation."""
    if not is_feasible(e, op):
        raise ValueError(f"operation {op} is not feasible")
    ballot = e.ballots[op.voter]
    return ballot, _after(ballot, op)


def _after(ballot: frozenset[int], op: Operation) -> frozenset[int]:
    """``ballot`` after ``op``, which must be feasible on it."""
    if isinstance(op, Add):
        return ballot | {op.candidate}
    if isinstance(op, Remove):
        return ballot - {op.candidate}
    return (ballot - {op.source}) | {op.target}


def _perturbed(e: Election, op: Operation) -> _Profile:
    """The ballot counts after ``op``, in O(groups), for scoring; raises on an infeasible operation."""
    return _profile_after(e, [_change(e, op)])


def apply_sequence(e: Election, ops: Iterable[Operation]) -> Election:
    """Apply operations left to right; every prefix must stay feasible."""
    for op in ops:
        e = apply(e, op)
    return e


def feasible_operations(e: Election, kind: str) -> Sequence[Operation]:
    """All feasible operations of one kind, in (voter, candidate) order.

    The result is a read-only sequence built on demand from one move table per
    ballot type and per-voter cumulative counts, in O(groups·m + n) memory: an
    operation object exists only once it is indexed or iterated.
    ``random.sample(feasible_operations(e, kind), B)`` draws a uniform bundle of
    ``B`` distinct operations, the random-perturbation model; the exact chance
    that such a bundle leaves the winners unchanged is ``count_unchanged``.
    """
    return _Operations(e, kind)


class _Operations(Sequence):
    """The feasible operations of one kind on an election, read from its move tables.

    ``_moves[ballot]`` holds the candidate columns of the operations of a voter
    casting ``ballot``, in candidate order; ``_ends[v]`` counts the operations of
    voters ``0..v``.  Indexing bisects ``_ends`` for the voter.
    """

    def __init__(self, e: Election, kind: str) -> None:
        _check_kind(kind)
        self._kind, self._m, self._ballots = kind, e.m, e.ballots
        self._moves = {ballot: _moves(kind, ballot, e.m) for ballot in e.groups}
        sizes = {ballot: len(columns[0]) for ballot, columns in self._moves.items()}
        self._ends = list(accumulate(map(sizes.__getitem__, self._ballots)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("operation index out of range")
        v = bisect_right(self._ends, i)
        offset = i - (self._ends[v - 1] if v else 0)
        return _OP_TYPES[self._kind](v, *(column[offset] for column in self._moves[self._ballots[v]]))

    def __iter__(self) -> Iterator[Operation]:
        ops = (_voter_ops(self._kind, v, ballot, self._m, self._moves) for v, ballot in enumerate(self._ballots))
        return chain.from_iterable(ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def _voter_ops(kind: str, v: int, ballot: frozenset[int], m: int, tables: dict) -> Iterator[Operation]:
    """Voter ``v``'s operations of ``kind`` on ``ballot`` in candidate order; ``tables`` caches move tables."""
    if ballot not in tables:
        tables[ballot] = _moves(kind, ballot, m)
    return map(_OP_TYPES[kind], repeat(v), *tables[ballot])


def _moves(kind: str, ballot: frozenset[int], m: int) -> tuple[list[int], ...]:
    """The candidate columns of ``kind``'s operations on one ballot, in candidate order."""
    if kind == "remove":
        return (sorted(ballot),)
    outside = [c for c in range(m) if c not in ballot]
    if kind == "add":
        return (outside,)
    inside = sorted(ballot)
    return [s for s in inside for _ in outside], outside * len(inside)


def displacement(e: Election, k: int, rule: RuleSpec, op: Operation, cap: int = DEFAULT_CAP) -> int:
    """How far the perturbed winner set can drift from the original one.

    This is ``max_{W in R(E)} min_{W' in R(E')} (k - |W ∩ W'|)``: the
    adversary picks a pre-perturbation winning committee, and the distance
    to the best-matching post-perturbation winning committee is measured in
    replaced seats.  Both families are expanded explicitly (subject to
    ``cap``).  ``e``'s own winners are the last answer ``winner_set`` keeps on
    ``e``, so a sweep with one ``(k, rule, cap)`` runs one kernel per operation.
    """
    before = winner_set(e, k, rule, cap).committees(cap)
    return _drift(before, _perturbed(e, op), k, rule, cap)


def _drift(before: Sequence[Sequence[int]], after: _Profile, k: int, rule: RuleSpec, cap: int) -> int:
    """``displacement`` from the committees ``before`` to the winners of ``after``."""
    after_sets = [frozenset(w) for w in winner_set(after, k, rule, cap).committees(cap)]
    return max(min(k - len(w2.intersection(w)) for w2 in after_sets) for w in before)


def level_argmax(
    e: Election, k: int, rule: RuleSpec, kind: str, cap: int = DEFAULT_CAP
) -> tuple[int, Operation | None]:
    """Empirical robustness level together with an operation attaining it.

    The level is the largest displacement any single operation of ``kind``
    can cause (0 if none is feasible, in which case the operation is ``None``).
    The operation is the first maximiser in (voter, candidate) order; voters with
    equal ballots cause equal displacements, so only the first of them is tried.
    """
    _check_kind(kind)
    # walking the voters backwards, each ballot's last write is its first voter
    first = dict(zip(reversed(e.ballots), reversed(range(e.n))))
    before = winner_set(e, k, rule, cap).committees(cap)
    level, argmax, tables = 0, None, {}
    for op in chain.from_iterable(_voter_ops(kind, v, e.ballots[v], e.m, tables) for v in sorted(first.values())):
        d = _drift(before, _perturbed(e, op), k, rule, cap)
        if d > level or argmax is None:
            level, argmax = d, op
    return level, argmax
