"""Generators for witness elections and hardness-reduction gadgets.

Witness builders produce small elections together with one concrete
operation whose effect is extreme (maximal displacement).  Reduction
builders translate combinatorial instances (exact cover, perfect matchings)
into elections whose robustness behaviour encodes the instance's answer;
each bundle records its voter-group cardinalities so they can be audited.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from .core import CapExceeded, Election
from .perturb import Add, Operation, Remove, Swap, _check_kind
from .rules import DEFAULT_CAP, ThieleVector, greedy_thiele

__all__ = [
    "DEFAULT_MAX_VOTERS",
    "BipartiteGraph",
    "GadgetBundle",
    "PhragmenTimepoints",
    "RX3CInstance",
    "X3CInstance",
    "count_perfect_matchings",
    "covered_x3c_example",
    "matching_to_sav_counting",
    "no_cover_rx3c_n2",
    "parse_graph",
    "parse_x3c",
    "phragmen_reduction_timepoints",
    "rx3c_to_greedy",
    "rx3c_to_phragmen",
    "sav_add_witness",
    "sav_remove_witness",
    "serialize_graph",
    "serialize_x3c",
    "solve_exact_cover",
    "thiele_witness",
    "triple_cover_rx3c",
    "uncoverable_x3c_example",
    "x3c_to_thiele",
]

#: Refuse to materialise gadget elections with more voters (or candidates) than this.
DEFAULT_MAX_VOTERS = 2_000_000


# ---------------------------------------------------------------------------
# Combinatorial instance types


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: a universe of size 3k and a family of 3-element subsets."""

    universe_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.universe_size <= 0 or self.universe_size % 3:
            raise ValueError(f"universe size must be a positive multiple of 3, got {self.universe_size}")
        for i, s in enumerate(self.sets):
            if len(s) != 3:
                raise ValueError(f"set {i} has {len(s)} elements, expected 3")
            if not all(0 <= x < self.universe_size for x in s):
                raise ValueError(f"set {i} leaves the universe: {sorted(s)}")

    @property
    def cover_size(self) -> int:
        return self.universe_size // 3


@dataclass(frozen=True)
class RX3CInstance(X3CInstance):
    """Restricted X3C: exactly as many sets as universe elements, every element in exactly 3 sets."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.sets) != self.universe_size:
            raise ValueError(f"restricted instance needs {self.universe_size} sets, got {len(self.sets)}")
        bad = [x for x, holders in enumerate(_containing(self)) if len(holders) != 3]
        if bad:
            raise ValueError(f"elements {bad} are not in exactly 3 sets")


@dataclass(frozen=True)
class BipartiteGraph:
    left: int
    right: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.left < 1 or self.right < 1:
            raise ValueError("both vertex classes must be nonempty")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.left and 0 <= v < self.right):
                raise ValueError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    def degree(self, side: str, x: int) -> int:
        idx = 0 if side == "left" else 1
        return sum(1 for edge in self.edges if edge[idx] == x)


def _containing(inst: X3CInstance) -> list[list[int]]:
    """For each universe element, the indices of the sets holding it, in increasing order."""
    containing: list[list[int]] = [[] for _ in range(inst.universe_size)]
    for i, s in enumerate(inst.sets):
        for x in s:
            containing[x].append(i)
    return containing


# ---------------------------------------------------------------------------
# Instance file formats


def parse_x3c(text: str) -> X3CInstance:
    """Parse ``universe <3k>`` followed by ``set e1 e2 e3`` lines ('#' comments allowed)."""
    universe: int | None = None
    sets: list[frozenset[int]] = []
    for lineno, fields in _records(text):
        if fields[0] == "universe":
            if universe is not None:
                raise ValueError(f"line {lineno}: duplicate universe declaration")
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected 'universe <size>'")
            universe = _ints(fields[1:], lineno)[0]
        elif fields[0] == "set":
            sets.append(frozenset(_ints(fields[1:], lineno)))
        else:
            raise ValueError(f"line {lineno}: expected 'universe' or 'set', got {fields[0]!r}")
    if universe is None:
        raise ValueError("missing universe declaration")
    return X3CInstance(universe, tuple(sets))


def serialize_x3c(inst: X3CInstance) -> str:
    lines = [f"universe {inst.universe_size}"]
    lines.extend("set " + " ".join(str(x) for x in sorted(s)) for s in inst.sets)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> BipartiteGraph:
    """Parse ``left <n>`` / ``right <n>`` followed by ``edge u v`` lines."""
    sides: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, fields in _records(text):
        if fields[0] not in ("left", "right", "edge"):
            raise ValueError(f"line {lineno}: expected 'left', 'right' or 'edge', got {fields[0]!r}")
        if len(fields) != (3 if fields[0] == "edge" else 2):
            raise ValueError(f"line {lineno}: expected 'left <n>', 'right <n>' or 'edge <u> <v>'")
        if fields[0] == "edge":
            edges.append(tuple(_ints(fields[1:], lineno)))
        elif fields[0] in sides:
            raise ValueError(f"line {lineno}: duplicate {fields[0]} declaration")
        else:
            sides[fields[0]] = _ints(fields[1:], lineno)[0]
    if len(sides) < 2:
        raise ValueError("missing left/right declarations")
    return BipartiteGraph(sides["left"], sides["right"], tuple(edges))


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and whitespace-separated fields of each line of ``text`` that holds any before a '#'."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _ints(tokens: list[str], lineno: int) -> list[int]:
    """``tokens`` as integers: ASCII decimal digits, optionally after a ``-``.

    A token that is not one is reported with its line; ``int()`` alone would
    also read ``+1``, ``1_0`` and non-ASCII digits.
    """
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):  # some token is negative or malformed
        for token in tokens:
            if not _INT_TOKEN.fullmatch(token):
                raise ValueError(f"line {lineno}: expected an integer, got {token!r}")
    return list(map(int, tokens))


def serialize_graph(g: BipartiteGraph) -> str:
    lines = [f"left {g.left}", f"right {g.right}"]
    lines.extend(f"edge {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference solvers


def solve_exact_cover(inst: X3CInstance) -> tuple[int, ...] | None:
    """Indices of pairwise-disjoint sets partitioning the universe, or ``None``.

    Backtracking on the lowest uncovered element; fine for the instance
    sizes the gadgets use.
    """
    containing = _containing(inst)

    def extend(covered: frozenset[int], chosen: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(covered) == inst.universe_size:
            return chosen
        pivot = min(x for x in range(inst.universe_size) if x not in covered)
        for i in containing[pivot]:
            if inst.sets[i] & covered:
                continue
            found = extend(covered | inst.sets[i], chosen + (i,))
            if found is not None:
                return found
        return None

    return extend(frozenset(), ())


def count_perfect_matchings(g: BipartiteGraph) -> int:
    """Number of perfect matchings, by dynamic programming over right-side subsets.

    Raises ``CapExceeded`` once its rows have held more than ``DEFAULT_CAP`` subsets in all.
    """
    if g.left != g.right:
        raise ValueError("perfect matchings need equal-size vertex classes")
    n = g.left
    adjacency = [0] * n
    for u, v in g.edges:
        adjacency[u] |= 1 << v
    ways, held = {0: 1}, 0
    for u in range(n):
        nxt: dict[int, int] = {}
        for used, cnt in ways.items():
            free = adjacency[u] & ~used
            while free:
                bit = free & -free
                free ^= bit
                nxt[used | bit] = nxt.get(used | bit, 0) + cnt
        ways = nxt
        held += len(ways)
        if held > DEFAULT_CAP:
            raise CapExceeded(f"holding {held} subsets to count perfect matchings exceeds cap {DEFAULT_CAP}")
    return ways.get((1 << n) - 1, 0)


# ---------------------------------------------------------------------------
# Bundles


@dataclass
class GadgetBundle:
    """A generated election plus everything needed to interpret it."""

    election: Election
    k: int
    op_kind: str
    budget: int
    note: str
    labels: tuple[str, ...]
    voter_groups: tuple[tuple[str, int], ...]
    op: Operation | None = None
    info: dict = field(default_factory=dict)

    def group_count(self, label: str) -> int:
        return sum(count for name, count in self.voter_groups if name == label)


def _check_voter_count(voters: int, max_voters: int, candidates: int = 0) -> None:
    """Refuse a gadget with more voters, or more candidates, than ``max_voters``, before building it."""
    for total, what in ((voters, "voters"), (candidates, "candidates")):
        if total > max_voters:
            raise ValueError(f"instance would materialise {total} {what}, above the limit of {max_voters}")


Block = tuple[str, list[int], int]  # a voter-group label, a ballot and the number of voters casting it


def _bundle(
    labels: tuple[str, ...], blocks: Iterable[Block], tiebreak: tuple[int, ...] | None = None, **fields
) -> GadgetBundle:
    """The gadget over ``labels`` whose voters are ``blocks`` in order, equal ballots sharing a frozenset.

    ``voter_groups`` totals each block label in first-seen order, a label of zero voters included; ``fields`` are
    the bundle's other fields.
    """
    shared: dict[frozenset[int], frozenset[int]] = {}
    voters: list[frozenset[int]] = []
    groups: dict[str, int] = {}
    for label, ballot, count in blocks:
        ballot = frozenset(ballot)
        voters += [shared.setdefault(ballot, ballot)] * count
        groups[label] = groups.get(label, 0) + count
    e = Election(len(labels), tuple(voters), tiebreak)
    return GadgetBundle(election=e, labels=labels, voter_groups=tuple(groups.items()), **fields)


def _labels(*runs: tuple[str, int | None]) -> tuple[str, ...]:
    """Candidate labels in index order: ``("S", 3)`` names ``S1, S2, S3`` and ``("p", None)`` names ``p``."""
    labels: list[str] = []
    for name, size in runs:
        labels += [name] if size is None else [f"{name}{i + 1}" for i in range(size)]
    return tuple(labels)


# ---------------------------------------------------------------------------
# Witness elections


def sav_add_witness(k: int) -> GadgetBundle:
    """Two complementary size-k ballots; one added approval displaces SAV by k seats.

    Candidates ``a_1..a_k`` then ``b_1..b_k``.  Initially every candidate
    scores 1/k and every size-k committee wins; adding ``b_1`` to the first
    vote dilutes all ``a_i`` below 1/k while every ``b_j`` stays at least
    1/k, so the unique new winner is the b-block.
    """
    _check_witness(k, voters=2, candidates=2 * k)
    a = list(range(k))
    b = list(range(k, 2 * k))
    return _bundle(
        _labels(("a", k), ("b", k)),
        [("a-block", a, 1), ("b-block", b, 1)],
        k=k,
        op_kind="add",
        budget=1,
        note="a single added approval moves the SAV winner family a full k seats",
        op=Add(0, b[0]),
        info={"expected_displacement": k},
    )


def sav_remove_witness(k: int) -> GadgetBundle:
    """Removing one approval collapses a 2k-candidate SAV tie onto one committee.

    Candidates: ``s``, blocks ``A`` (k), ``B`` (k-1), ``C`` and ``D`` (k+3
    each).  Votes ``{s} ∪ A``, ``B ∪ C`` and ``B ∪ D`` put s, A and B in a
    2k-way tie at 1/(k+1); removing s from the first vote lifts exactly the
    A-block to 1/k.
    """
    _check_witness(k, voters=3, candidates=4 * k + 6)
    s = 0
    a = list(range(1, k + 1))
    b = list(range(k + 1, 2 * k))
    c = list(range(2 * k, 3 * k + 3))
    d = list(range(3 * k + 3, 4 * k + 6))
    return _bundle(
        _labels(("s", None), ("a", k), ("b", k - 1), ("c", k + 3), ("d", k + 3)),
        [("s-and-a", [s] + a, 1), ("b-and-c", b + c, 1), ("b-and-d", b + d, 1)],
        k=k,
        op_kind="remove",
        budget=1,
        note="a single removed approval moves the SAV winner family a full k seats",
        op=Remove(0, s),
        info={"expected_displacement": k},
    )


def thiele_witness(k: int, kind: str) -> GadgetBundle:
    """A k-by-k approval grid where one operation flips the winner block.

    Candidates ``a_1..a_k`` (indices 0..k-1) and ``b_1..b_k``; one voter per
    pair (i, j) approves ``{a_i, b_j}``, plus a pivot voter whose ballot
    depends on ``kind``.  Under any unit-decreasing Thiele rule both blocks
    score k^2 and every mixed committee scores less; candidate priority
    prefers the b-block, and the pivot operation hands the a-block one extra
    point, making it the unique winner.
    """
    _check_witness(k, voters=k * k + 1, candidates=2 * k)
    _check_kind(kind)
    a = list(range(k))
    b = list(range(k, 2 * k))
    blocks: list[Block] = [("grid", [a[i], b[j]], 1) for i in range(k) for j in range(k)]
    pivot = len(blocks)
    if kind == "add":
        blocks.append(("pivot", [], 1))
        op: Operation = Add(pivot, a[0])
    elif kind == "remove":
        blocks.append(("pivot", [a[0], b[0]], 1))
        op = Remove(pivot, b[0])
    else:
        blocks.append(("pivot", [b[0]], 1))
        op = Swap(pivot, b[0], a[0])
    return _bundle(
        _labels(("a", k), ("b", k)),
        blocks,
        (*b, *a),  # prefer b-candidates, then a-candidates
        k=k,
        op_kind=kind,
        budget=1,
        note="one operation moves every Thiele-optimal committee from the b-block to the a-block",
        op=op,
        info={"a_block": tuple(a), "b_block": tuple(b)},
    )


def _check_witness(k: int, voters: int, candidates: int) -> None:
    if k < 2:
        raise ValueError(f"witness constructions need k >= 2, got {k}")
    _check_voter_count(voters, DEFAULT_MAX_VOTERS, candidates)


# ---------------------------------------------------------------------------
# Exact cover -> Thiele (optimisation variant)


def x3c_to_thiele(inst: X3CInstance, alpha: Fraction, kind: str, max_voters: int = DEFAULT_MAX_VOTERS) -> GadgetBundle:
    """Election whose Thiele winner set moves under one operation iff a cover exists.

    Works for every unit-decreasing weight vector with second weight
    ``alpha``.  Candidates: one ``a_j`` per set, one ``b_i`` per cover slot;
    the committee of all ``b_i`` wins initially, and a single operation can
    promote a set-candidate committee exactly when the sets admit an exact
    cover.  The voter blocks (``ell`` copies each keep ties one-sided):

    * one voter per universe element: its slot candidate plus the sets containing it,
    * ``ell`` voters per (set, slot) pair approving both,
    * ``ell`` voters per set and per non-slot "filler" approving the set only,
    * one pivot voter (two for swaps) approving the first slot candidate.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {alpha}")
    _check_kind(kind)
    m_sets = len(inst.sets)
    k = inst.cover_size
    if m_sets < k:
        raise ValueError("fewer sets than cover slots")
    ell = math.ceil(Fraction(3) / (1 - alpha))
    pivots = 2 if kind == "swap" else 1
    _check_voter_count(inst.universe_size + m_sets * m_sets * ell + pivots, max_voters)
    set_cand = list(range(m_sets))
    slot_cand = list(range(m_sets, m_sets + k))
    blocks: list[Block] = [("element", [slot_cand[x // 3], *holders], 1) for x, holders in enumerate(_containing(inst))]
    blocks += [("set-slot", [j, i], ell) for j in set_cand for i in slot_cand]
    blocks += [("set-filler", [j], (m_sets - k) * ell) for j in set_cand]
    blocks.append(("pivot", [slot_cand[0]], pivots))
    return _bundle(
        _labels(("A", m_sets), ("B", k)),
        blocks,
        k=k,
        op_kind=kind,
        budget=1,
        note="one operation changes the Thiele winner set iff the 3-set family has an exact cover",
        info={"alpha": alpha, "ell": ell, "slot_candidates": tuple(slot_cand), "set_candidates": tuple(set_cand)},
    )


def covered_x3c_example() -> X3CInstance:
    """Six elements, four sets, exact cover {S1, S3}."""
    return X3CInstance(6, (frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({3, 4, 5}), frozenset({1, 2, 3})))


def uncoverable_x3c_example() -> X3CInstance:
    """The covered example with its third set bent so no two sets partition the universe."""
    return X3CInstance(6, (frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({2, 4, 5}), frozenset({1, 2, 3})))


# ---------------------------------------------------------------------------
# Restricted exact cover -> greedy Thiele


def rx3c_to_greedy(
    inst: RX3CInstance, variant: str, kind: str = "add", max_voters: int = DEFAULT_MAX_VOTERS
) -> GadgetBundle:
    """Election where a budget of operations makes greedy Thiele select ``p`` iff a cover exists.

    ``variant`` is ``"cc"`` or ``"pav"``.  Candidates: one per set, then
    ``p``, then ``d`` (and one dummy per padding voter for the swap
    variant); priority order is sets, then p, then d.  Weight magnitudes
    ``T = 10 n^5`` and ``t = 10 n^3`` separate the voter blocks.
    """
    if variant not in ("cc", "pav"):
        raise ValueError(f"variant must be 'cc' or 'pav', got {variant!r}")
    n = inst.cover_size
    nsets = 3 * n
    T = 10 * n**5
    t = 10 * n**3
    p = nsets
    d = nsets + 1
    pd_count = 2 * n * T + 4 * n * t
    if variant == "pav":
        pd_count += n * T // 2
    p_only = 3 * n * t // 2 if variant == "pav" else 0
    dummies, padding, budget = _reduction_padding(kind, n, nsets)
    total = nsets * T + math.comb(nsets, 2) * T + pd_count + 3 * n * t + p_only + sum(c for _, _, c in padding)
    _check_voter_count(total, max_voters)
    blocks: list[Block] = [("set-singleton", [i], T) for i in range(nsets)]
    blocks += [("set-pair", [i, j], T) for i in range(nsets) for j in range(i + 1, nsets)]
    blocks.append(("p-and-d", [p, d], pd_count))
    blocks += [("element", [d, *holders], t) for holders in _containing(inst)]
    if p_only:
        blocks.append(("p-only", [p], p_only))
    k = nsets + 1
    omega = ThieleVector.cc(k) if variant == "cc" else ThieleVector.pav(k)
    bundle = _bundle(
        _labels(("S", nsets), ("p", None), ("d", None), ("x", dummies)),
        blocks + padding,
        k=k,
        op_kind=kind,
        budget=budget,
        note=f"{budget} operations make greedy-{variant} select p iff the instance has an exact cover",
        info={
            "variant": variant,
            "T": T,
            "t": t,
            "n": n,
            "p": p,
            "d": d,
            "omega": omega,
        },
    )
    baseline = greedy_thiele(bundle.election, k, omega)
    bundle.info.update(baseline=baseline, selects_p=p in baseline, shortcut=p in baseline)
    return bundle


def rx3c_to_phragmen(inst: RX3CInstance, kind: str = "add", max_voters: int = DEFAULT_MAX_VOTERS) -> GadgetBundle:
    """Election where a budget of operations makes Phragmén select ``p`` iff a cover exists.

    Weight magnitudes ``T = 900 n^12`` and ``t = 30 n^5``; candidate
    priority is sets, then ``d``, then ``p`` (note the reversal relative to
    the greedy gadget).  Voter blocks: per set ``T`` singleton voters; per
    universe element ``t^2`` voters for the sets containing it, of which
    ``t/(3n)`` also approve ``d``; ``T + 3t^2 - 2t`` voters for ``{p, d}``;
    ``t/(6n)`` voters for ``p`` alone; plus operation padding.
    """
    n = inst.cover_size
    nsets = 3 * n
    T, t, pd_count, p_only, with_d = _phragmen_sizes(n)
    d = nsets
    p = nsets + 1
    dummies, padding, budget = _reduction_padding(kind, n, nsets)
    total = nsets * T + inst.universe_size * t * t + pd_count + p_only + sum(c for _, _, c in padding)
    _check_voter_count(total, max_voters)
    blocks: list[Block] = [("set-singleton", [i], T) for i in range(nsets)]
    for holders in _containing(inst):
        blocks += [("element", holders, t * t - with_d), ("element", [d, *holders], with_d)]
    blocks += [("p-and-d", [p, d], pd_count), ("p-only", [p], p_only)]
    return _bundle(
        _labels(("S", nsets), ("d", None), ("p", None), ("x", dummies)),
        blocks + padding,
        k=nsets + 1,
        op_kind=kind,
        budget=budget,
        note=f"{budget} operations make Phragmén select p iff the instance has an exact cover",
        info={"T": T, "t": t, "n": n, "p": p, "d": d},
    )


def _reduction_padding(kind: str, n: int, nsets: int) -> tuple[int, list[Block], int]:
    """Dummy candidates, padding voter blocks and budget for the three operation kinds; any other is refused.

    Additions use ``n`` empty voters (budget n); removals use one extra
    approval per set candidate (budget 2n); swaps use ``n`` voters approving
    throwaway dummy candidates (budget n), so each swap can both donate an
    approval and discard one.  Dummies follow the sets, ``p`` and ``d``.
    """
    _check_kind(kind)
    if kind == "add":
        return 0, [("padding", [], n)], n
    if kind == "remove":
        return 0, [("padding", [i], 1) for i in range(nsets)], 2 * n
    return n, [("padding", [nsets + 2 + i], 1) for i in range(n)], n


def _phragmen_sizes(n: int) -> tuple[int, int, int, int, int]:
    """The Phragmén gadget's ``T``, ``t``, ``{p, d}`` block, ``{p}`` block and per-element ``d`` block."""
    T, t = 900 * n**12, 30 * n**5
    return T, t, T + 3 * t * t - 2 * t, t // (6 * n), t // (3 * n)


@dataclass(frozen=True)
class PhragmenTimepoints:
    """Exact purchase-time landmarks of the Phragmén gadget.

    ``a``: a set candidate's earliest affordable time 1/(T + 3t^2); ``b_pd``
    1/(T + 3t^2 - 2t), the reciprocal of the {p, d} block; ``b_p`` the
    reciprocal of p's approval count, 1/(T + 3t^2 - 2t + t/(6n)); ``b_d`` =
    1/(T + 3t^2 - 2t + t/(3n)), the {p, d} block plus one element's d-voters
    (d itself has T + 3t^2 - t approvals); ``c`` = a + a^2 t^2 bounds the
    drift from element voters; ``d_point`` = 1/T; ``x`` is p's total price
    in the cover-assisted run and must stay below one unit.
    """

    a: Fraction
    b_pd: Fraction
    b_p: Fraction
    b_d: Fraction
    c: Fraction
    d_point: Fraction
    x: Fraction


def phragmen_reduction_timepoints(n: int) -> PhragmenTimepoints:
    if n < 1:
        raise ValueError("n must be positive")
    T, t, pd_count, p_only, with_d = _phragmen_sizes(n)
    a = Fraction(1, T + 3 * t * t)
    b_pd = Fraction(1, pd_count)
    b_p = Fraction(1, pd_count + p_only)
    b_d = Fraction(1, pd_count + with_d)
    c = a + a * a * t * t
    d_point = Fraction(1, T)
    x = pd_count * b_p + t * (b_p - a)
    return PhragmenTimepoints(a=a, b_pd=b_pd, b_p=b_p, b_d=b_d, c=c, d_point=d_point, x=x)


# ---------------------------------------------------------------------------
# Perfect matchings -> SAV counting


def matching_to_sav_counting(g: BipartiteGraph, mode: str, max_voters: int = DEFAULT_MAX_VOTERS) -> GadgetBundle:
    """Election whose unchanged-bundle count encodes the number of perfect matchings.

    All 2n vertex candidates score exactly 2 (edge voters contribute via
    their endpoints, per-vertex filler voters pad the score), dummies score
    one ballot-share each, and ``k = 1`` makes every vertex singleton a
    winning committee.  A budget-n bundle preserves that family iff it
    touches only dummies of edge voters along a perfect matching, shifting
    every vertex score uniformly; hence exactly ``M * choices^n`` bundles
    stay quiet, with ``M`` the number of perfect matchings.
    """
    if mode not in ("add", "remove"):
        raise ValueError(f"mode must be 'add' or 'remove', got {mode!r}")
    if g.left != g.right:
        raise ValueError("the counting gadget needs equal-size vertex classes")
    n = g.left
    if n < 2:
        raise ValueError("need at least two vertices per side")
    size = n if mode == "add" else n * n
    edges = len(g.edges)
    fillers = 4 * n * size - 2 * edges  # pads each of the 2n vertices to 2 * size ballots
    dummy_count = edges * (size - 2) + fillers * (size - 1)
    _check_voter_count(edges + fillers, max_voters, candidates=2 * n + dummy_count)
    matchings = count_perfect_matchings(g)
    labels = _labels(("u", n), ("w", n), ("z", dummy_count))
    unused = iter(range(2 * n, len(labels)))  # each ballot takes the next unused dummies
    blocks: list[Block] = [("edge", [], 0)]  # keeps ("edge", 0) in voter_groups when the graph has no edges
    blocks += [("edge", [u, n + v, *islice(unused, size - 2)], 1) for u, v in g.edges]
    for side, offset in (("left", 0), ("right", n)):
        for x in range(n):
            for _ in range(2 * size - g.degree(side, x)):
                blocks.append(("filler", [offset + x, *islice(unused, size - 1)], 1))
    choices = dummy_count - (size - 2) if mode == "add" else size - 2
    return _bundle(
        labels,
        blocks,
        k=1,
        op_kind=mode,
        budget=n,
        note="the number of unchanged budget-n bundles equals (#perfect matchings) * (dummy choices)^n",
        info={
            "mode": mode,
            "n": n,
            "ballot_size": size,
            "dummy_count": dummy_count,
            "matchings": matchings,
            "per_edge_choices": choices,
            "expected_unchanged": matchings * choices**n,
        },
    )


# ---------------------------------------------------------------------------
# Fixed instances


def triple_cover_rx3c(n: int = 1) -> RX3CInstance:
    """The smallest restricted instances with a cover: each block of 3 elements in 3 copies of one set."""
    sets = []
    for b in range(n):
        block = frozenset({3 * b, 3 * b + 1, 3 * b + 2})
        sets.extend([block] * 3)
    return RX3CInstance(3 * n, tuple(sets))


def no_cover_rx3c_n2() -> RX3CInstance:
    """A 6-element restricted instance without an exact cover.

    The circulant family {i, i+1, i+3} mod 6 is 3-regular, and an exact
    cover of 6 elements by 3-sets would need two complementary sets, which
    the family avoids.
    """
    sets = tuple(frozenset({i % 6, (i + 1) % 6, (i + 3) % 6}) for i in range(6))
    return RX3CInstance(6, sets)

