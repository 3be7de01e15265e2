"""Single-approval perturbations of elections and their observable effect.

Three operation kinds on a vote: adding an approval, removing one, and
swapping one (removing ``source`` and adding ``target`` in the same vote).
Each operation addresses a voter by index; elections are immutable, so
applying an operation returns a new election.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Election
from .rules import DEFAULT_CAP, RuleSpec, winner_set

OP_KINDS = ("add", "remove", "swap")


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


def op_kind(op: Operation) -> str:
    if isinstance(op, Add):
        return "add"
    if isinstance(op, Remove):
        return "remove"
    return "swap"


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
    if not is_feasible(e, op):
        raise ValueError(f"operation {op} is not feasible")
    ballot = e.ballots[op.voter]
    if isinstance(op, Add):
        new = ballot | {op.candidate}
    elif isinstance(op, Remove):
        new = ballot - {op.candidate}
    else:
        new = (ballot - {op.source}) | {op.target}
    # the parent is valid and ``op`` is feasible, so no ballot needs re-checking
    return e._with_ballot(op.voter, new)


def apply_sequence(e: Election, ops: Iterable[Operation]) -> Election:
    """Apply operations left to right; every prefix must stay feasible."""
    for op in ops:
        e = apply(e, op)
    return e


def feasible_operations(e: Election, kind: str) -> list[Operation]:
    """All feasible operations of one kind, in (voter, candidate) order."""
    return _operations(e, kind, range(e.n))


def _operations(e: Election, kind: str, voters: Iterable[int]) -> list[Operation]:
    """The feasible operations of one kind on ``voters``, in (voter, candidate) order."""
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
    ops: list[Operation] = []
    for v in voters:
        ballot = e.ballots[v]
        if kind == "add":
            ops.extend(Add(v, c) for c in range(e.m) if c not in ballot)
        elif kind == "remove":
            ops.extend(Remove(v, c) for c in sorted(ballot))
        else:
            outside = [c for c in range(e.m) if c not in ballot]
            ops.extend(Swap(v, s, t) for s in sorted(ballot) for t in outside)
    return ops


def displacement(e: Election, k: int, rule: RuleSpec, op: Operation, cap: int = DEFAULT_CAP) -> int:
    """How far the perturbed winner set can drift from the original one.

    This is ``max_{W in R(E)} min_{W' in R(E')} (k - |W ∩ W'|)``: the
    adversary picks a pre-perturbation winning committee, and the distance
    to the best-matching post-perturbation winning committee is measured in
    replaced seats.  Both families are expanded explicitly (subject to
    ``cap``).
    """
    before = winner_set(e, k, rule, cap).committees(cap)
    return _drift(before, apply(e, op), k, rule, cap)


def _drift(before: Sequence[Sequence[int]], after: Election, k: int, rule: RuleSpec, cap: int) -> int:
    """``displacement`` from the committees ``before`` to the winners of ``after``."""
    after_sets = [frozenset(w) for w in winner_set(after, k, rule, cap).committees(cap)]
    return max(min(k - len(frozenset(w) & w2) for w2 in after_sets) for w in before)


def level_argmax(
    e: Election, k: int, rule: RuleSpec, kind: str, cap: int = DEFAULT_CAP
) -> tuple[int, Operation | None]:
    """Empirical robustness level together with an operation attaining it.

    The level is the largest displacement any single operation of ``kind``
    can cause (0 if none is feasible, in which case the operation is ``None``).
    The operation is the first maximiser in (voter, candidate) order; voters with
    equal ballots cause equal displacements, so only the first of them is tried.
    """
    level, argmax, before = 0, None, None
    for op in _operations(e, kind, sorted(map(e.ballots.index, e.groups))):
        if before is None:
            before = winner_set(e, k, rule, cap).committees(cap)
        d = _drift(before, apply(e, op), k, rule, cap)
        if d > level or argmax is None:
            level, argmax = d, op
    return level, argmax
