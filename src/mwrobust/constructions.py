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
from typing import Iterable

from .core import Election, election
from .perturb import OP_KINDS, Add, Operation, Remove, Swap
from .rules import ThieleVector, greedy_thiele

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
        degree = [0] * self.universe_size
        for s in self.sets:
            for x in s:
                degree[x] += 1
        bad = [x for x, dd in enumerate(degree) if dd != 3]
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


# ---------------------------------------------------------------------------
# Instance file formats


def parse_x3c(text: str) -> X3CInstance:
    """Parse ``universe <3k>`` followed by ``set e1 e2 e3`` lines ('#' comments allowed)."""
    universe: int | None = None
    sets: list[frozenset[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
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
    left = right = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] not in ("left", "right", "edge"):
            raise ValueError(f"line {lineno}: expected 'left', 'right' or 'edge', got {fields[0]!r}")
        if len(fields) != (3 if fields[0] == "edge" else 2):
            raise ValueError(f"line {lineno}: expected 'left <n>', 'right <n>' or 'edge <u> <v>'")
        if fields[0] == "left":
            left = _ints(fields[1:], lineno)[0]
        elif fields[0] == "right":
            right = _ints(fields[1:], lineno)[0]
        else:
            edges.append(tuple(_ints(fields[1:], lineno)))
    if left is None or right is None:
        raise ValueError("missing left/right declarations")
    return BipartiteGraph(left, right, tuple(edges))


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
    containing: list[list[int]] = [[] for _ in range(inst.universe_size)]
    for i, s in enumerate(inst.sets):
        for x in s:
            containing[x].append(i)

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
    """Number of perfect matchings, by dynamic programming over right-side subsets."""
    if g.left != g.right:
        raise ValueError("perfect matchings need equal-size vertex classes")
    n = g.left
    adjacency = [0] * n
    for u, v in g.edges:
        adjacency[u] |= 1 << v
    ways = {0: 1}
    for u in range(n):
        nxt: dict[int, int] = {}
        for used, cnt in ways.items():
            free = adjacency[u] & ~used
            while free:
                bit = free & -free
                free ^= bit
                nxt[used | bit] = nxt.get(used | bit, 0) + cnt
        ways = nxt
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


Block = tuple[list[int], int]  # a ballot and the number of voters casting it


def _voters(blocks: Iterable[Block]) -> list[frozenset[int]]:
    """The ballots of ``blocks`` in order, one voter per count; equal ballots share one frozenset."""
    shared: dict[frozenset[int], frozenset[int]] = {}
    voters: list[frozenset[int]] = []
    for ballot, count in blocks:
        ballot = frozenset(ballot)
        voters += [shared.setdefault(ballot, ballot)] * count
    return voters


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
    e = election(2 * k, [a, b])
    return GadgetBundle(
        election=e,
        k=k,
        op_kind="add",
        budget=1,
        note="a single added approval moves the SAV winner family a full k seats",
        labels=tuple(f"a{i + 1}" for i in range(k)) + tuple(f"b{i + 1}" for i in range(k)),
        voter_groups=(("a-block", 1), ("b-block", 1)),
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
    e = election(4 * k + 6, [[s] + a, b + c, b + d])
    labels = (
        ("s",)
        + tuple(f"a{i + 1}" for i in range(k))
        + tuple(f"b{i + 1}" for i in range(k - 1))
        + tuple(f"c{i + 1}" for i in range(k + 3))
        + tuple(f"d{i + 1}" for i in range(k + 3))
    )
    return GadgetBundle(
        election=e,
        k=k,
        op_kind="remove",
        budget=1,
        note="a single removed approval moves the SAV winner family a full k seats",
        labels=labels,
        voter_groups=(("s-and-a", 1), ("b-and-c", 1), ("b-and-d", 1)),
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
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
    a = list(range(k))
    b = list(range(k, 2 * k))
    blocks: list[Block] = [([a[i], b[j]], 1) for i in range(k) for j in range(k)]
    pivot = len(blocks)
    if kind == "add":
        blocks.append(([], 1))
        op: Operation = Add(pivot, a[0])
    elif kind == "remove":
        blocks.append(([a[0], b[0]], 1))
        op = Remove(pivot, b[0])
    else:
        blocks.append(([b[0]], 1))
        op = Swap(pivot, b[0], a[0])
    tiebreak = b + a  # prefer b-candidates, then a-candidates
    e = election(2 * k, _voters(blocks), tiebreak=tiebreak)
    return GadgetBundle(
        election=e,
        k=k,
        op_kind=kind,
        budget=1,
        note="one operation moves every Thiele-optimal committee from the b-block to the a-block",
        labels=tuple(f"a{i + 1}" for i in range(k)) + tuple(f"b{i + 1}" for i in range(k)),
        voter_groups=(("grid", k * k), ("pivot", 1)),
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
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
    m_sets = len(inst.sets)
    k = inst.cover_size
    if m_sets < k:
        raise ValueError("fewer sets than cover slots")
    ell = math.ceil(Fraction(3) / (1 - alpha))
    n_pairs = m_sets * k * ell
    n_single = m_sets * (m_sets - k) * ell
    pivots = 2 if kind == "swap" else 1
    _check_voter_count(inst.universe_size + n_pairs + n_single + pivots, max_voters)
    set_cand = list(range(m_sets))
    slot_cand = list(range(m_sets, m_sets + k))
    blocks: list[Block] = [
        ([slot_cand[x // 3]] + [j for j in set_cand if x in inst.sets[j]], 1) for x in range(inst.universe_size)
    ]
    blocks += [([j, i], ell) for j in set_cand for i in slot_cand]
    blocks += [([j], (m_sets - k) * ell) for j in set_cand]
    blocks.append(([slot_cand[0]], pivots))
    e = election(m_sets + k, _voters(blocks))
    labels = tuple(f"A{j + 1}" for j in range(m_sets)) + tuple(f"B{i + 1}" for i in range(k))
    return GadgetBundle(
        election=e,
        k=k,
        op_kind=kind,
        budget=1,
        note="one operation changes the Thiele winner set iff the 3-set family has an exact cover",
        labels=labels,
        voter_groups=(
            ("element", inst.universe_size),
            ("set-slot", n_pairs),
            ("set-filler", n_single),
            ("pivot", pivots),
        ),
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
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
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
    padding_size = nsets if kind == "remove" else n
    total = nsets * T + math.comb(nsets, 2) * T + pd_count + 3 * n * t + p_only + padding_size
    _check_voter_count(total, max_voters)
    groups: list[tuple[str, int]] = []
    blocks: list[Block] = [([i], T) for i in range(nsets)]
    groups.append(("set-singleton", nsets * T))
    blocks += [([i, j], T) for i in range(nsets) for j in range(i + 1, nsets)]
    groups.append(("set-pair", math.comb(nsets, 2) * T))
    blocks.append(([p, d], pd_count))
    groups.append(("p-and-d", pd_count))
    blocks += [([d] + [i for i in range(nsets) if x in inst.sets[i]], t) for x in range(inst.universe_size)]
    groups.append(("element", inst.universe_size * t))
    if p_only:
        blocks.append(([p], p_only))
        groups.append(("p-only", p_only))

    dummies, padding, budget = _reduction_padding(kind, n, nsets, first_dummy=nsets + 2)
    blocks += padding
    groups.append(("padding", padding_size))
    ballots = _voters(blocks)
    _check_voter_count(len(ballots), max_voters)
    e = election(nsets + 2 + dummies, ballots)
    k = nsets + 1
    omega = ThieleVector.cc(k) if variant == "cc" else ThieleVector.pav(k)
    baseline = greedy_thiele(e, k, omega)
    labels = (
        tuple(f"S{i + 1}" for i in range(nsets))
        + ("p", "d")
        + tuple(f"x{i + 1}" for i in range(dummies))
    )
    return GadgetBundle(
        election=e,
        k=k,
        op_kind=kind,
        budget=budget,
        note=f"{budget} operations make greedy-{variant} select p iff the instance has an exact cover",
        labels=labels,
        voter_groups=tuple(groups),
        info={
            "variant": variant,
            "T": T,
            "t": t,
            "n": n,
            "p": p,
            "d": d,
            "omega": omega,
            "baseline": baseline,
            "selects_p": p in baseline,
            "shortcut": p in baseline,
        },
    )


def rx3c_to_phragmen(inst: RX3CInstance, kind: str = "add", max_voters: int = DEFAULT_MAX_VOTERS) -> GadgetBundle:
    """Election where a budget of operations makes Phragmén select ``p`` iff a cover exists.

    Weight magnitudes ``T = 900 n^12`` and ``t = 30 n^5``; candidate
    priority is sets, then ``d``, then ``p`` (note the reversal relative to
    the greedy gadget).  Voter blocks: per set ``T`` singleton voters; per
    universe element ``t^2`` voters for the sets containing it, of which
    ``t/(3n)`` also approve ``d``; ``T + 3t^2 - 2t`` voters for ``{p, d}``;
    ``t/(6n)`` voters for ``p`` alone; plus operation padding.
    """
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
    n = inst.cover_size
    nsets = 3 * n
    T = 900 * n**12
    t = 30 * n**5
    d = nsets
    p = nsets + 1
    padding_size = nsets if kind == "remove" else n
    total = nsets * T + inst.universe_size * t * t + (T + 3 * t * t - 2 * t) + t // (6 * n) + padding_size
    _check_voter_count(total, max_voters)
    groups: list[tuple[str, int]] = []
    blocks: list[Block] = [([i], T) for i in range(nsets)]
    groups.append(("set-singleton", nsets * T))
    with_d = t // (3 * n)
    for x in range(inst.universe_size):
        containing = [i for i in range(nsets) if x in inst.sets[i]]
        blocks += [(containing, t * t - with_d), ([d] + containing, with_d)]
    groups.append(("element", inst.universe_size * t * t))
    pd_count = T + 3 * t * t - 2 * t
    blocks.append(([p, d], pd_count))
    groups.append(("p-and-d", pd_count))
    p_only = t // (6 * n)
    blocks.append(([p], p_only))
    groups.append(("p-only", p_only))

    dummies, padding, budget = _reduction_padding(kind, n, nsets, first_dummy=nsets + 2)
    blocks += padding
    groups.append(("padding", padding_size))
    ballots = _voters(blocks)
    _check_voter_count(len(ballots), max_voters)
    e = election(nsets + 2 + dummies, ballots)
    labels = (
        tuple(f"S{i + 1}" for i in range(nsets))
        + ("d", "p")
        + tuple(f"x{i + 1}" for i in range(dummies))
    )
    return GadgetBundle(
        election=e,
        k=nsets + 1,
        op_kind=kind,
        budget=budget,
        note=f"{budget} operations make Phragmén select p iff the instance has an exact cover",
        labels=labels,
        voter_groups=tuple(groups),
        info={"T": T, "t": t, "n": n, "p": p, "d": d},
    )


def _reduction_padding(kind: str, n: int, nsets: int, first_dummy: int) -> tuple[int, list[Block], int]:
    """Dummy candidates, padding voter blocks and budget for the three operation kinds.

    Additions use ``n`` empty voters (budget n); removals use one extra
    approval per set candidate (budget 2n); swaps use ``n`` voters approving
    throwaway dummy candidates (budget n), so each swap can both donate an
    approval and discard one.
    """
    if kind == "add":
        return 0, [([], n)], n
    if kind == "remove":
        return 0, [([i], 1) for i in range(nsets)], 2 * n
    return n, [([first_dummy + i], 1) for i in range(n)], n


@dataclass(frozen=True)
class PhragmenTimepoints:
    """Exact purchase-time landmarks of the Phragmén gadget.

    ``a``: a set candidate's earliest affordable time 1/(T + 3t^2); ``b_pd``
    1/(T + 3t^2 - 2t), ``b_p`` and ``b_d`` the analogous reciprocals of the
    approval counts of p and d; ``c`` = a + a^2 t^2 bounds the drift from
    element voters; ``d_point`` = 1/T; ``x`` is p's total price in the
    cover-assisted run and must stay below one unit.
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
    T = Fraction(900 * n**12)
    t = Fraction(30 * n**5)
    a = 1 / (T + 3 * t * t)
    b_pd = 1 / (T + 3 * t * t - 2 * t)
    b_p = 1 / (T + 3 * t * t - 2 * t + t / (6 * n))
    b_d = 1 / (T + 3 * t * t - 2 * t + t / (3 * n))
    c = a + a * a * t * t
    d_point = 1 / T
    x = (T + 3 * t * t - 2 * t) * b_p + t * (b_p - a)
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
    _check_voter_count(edges + fillers, max_voters, candidates=2 * n + edges * (size - 2) + fillers * (size - 1))
    ballots: list[list[int]] = []
    next_dummy = 2 * n
    for u, v in g.edges:
        ballots.append([u, n + v] + list(range(next_dummy, next_dummy + size - 2)))
        next_dummy += size - 2
    for side, offset in (("left", 0), ("right", n)):
        for x in range(n):
            for _ in range(2 * size - g.degree(side, x)):
                ballots.append([offset + x] + list(range(next_dummy, next_dummy + size - 1)))
                next_dummy += size - 1
    dummy_count = next_dummy - 2 * n
    e = election(next_dummy, ballots)
    choices = dummy_count - (size - 2) if mode == "add" else size - 2
    matchings = count_perfect_matchings(g)
    labels = (
        tuple(f"u{x + 1}" for x in range(n))
        + tuple(f"w{x + 1}" for x in range(n))
        + tuple(f"z{i + 1}" for i in range(dummy_count))
    )
    return GadgetBundle(
        election=e,
        k=1,
        op_kind=mode,
        budget=n,
        note="the number of unchanged budget-n bundles equals (#perfect matchings) * (dummy choices)^n",
        labels=labels,
        voter_groups=(("edge", len(g.edges)), ("filler", fillers)),
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


def shortcut_yes_instance() -> GadgetBundle:
    """Trivial decision gadget with answer "yes": one add flips a zero-approval tie.

    A caller may use it in place of a greedy reduction gadget whose baseline
    run already selects ``p`` (``rx3c_to_greedy`` marks those with
    ``info["shortcut"]``), as that gadget's answer is "yes" without any
    operations; no function here makes that substitution.
    """
    e = election(2, [[]])
    return GadgetBundle(
        election=e,
        k=1,
        op_kind="add",
        budget=1,
        note="adding one approval for the low-priority candidate changes any sensible rule's committee",
        labels=("a", "b"),
        voter_groups=(("empty", 1),),
        op=Add(0, 1),
        info={"always_changes": True},
    )
