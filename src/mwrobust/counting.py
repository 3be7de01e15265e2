"""Counting perturbation bundles that leave the AV winner set unchanged.

A bundle is an unordered set of exactly ``B`` distinct approval cells to add
(respectively remove); the election has ``slots`` many addable (removable)
cells, so ``C(slots, B)`` bundles exist in total.  ``av_count_unchanged``
counts, via dynamic programming over per-candidate score changes, how many
bundles leave the family of AV-winning committees exactly as it was;
``oracle_count_unchanged`` does the same by enumeration, for any rule, with one
winner set per orbit of bundles under permutations of equal-ballot voters,
each scored from the ballot counts the orbit leaves; ``count_unchanged``
chooses between them.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from .core import CapExceeded, Election, _profile_after, approval_scores
from .perturb import _moves
from .rules import DEFAULT_CAP, RuleSpec, winner_set, winner_sets_equal

COUNT_KINDS = ("add", "remove")


@dataclass(frozen=True)
class CountOutcome:
    unchanged: int
    total: int

    @property
    def probability(self) -> Fraction:
        return Fraction(self.unchanged, self.total)


def av_count_unchanged(e: Election, k: int, kind: str, budget: int) -> CountOutcome:
    """Exact number of B-element add (remove) bundles preserving the AV winner set.

    With ``z`` the scores sorted descending, the resolute case (``z[k-1] >
    z[k]``) conditions on the minimum final winner score ``l``: bundles with
    every winner ending >= l and every loser <= l-1, minus those with every
    winner ending >= l+1, keep the top k strictly on top with minimum exactly
    l.  A score moves by at most B, so only levels within B of ``z[k-1]``
    are summed.  Adding, a level above ``z[k-1] + B`` leaves both counts 0.
    Removing, every winner ends >= ``z[k-1] - B``, so at a level below that
    ">= l" and ">= l+1" count the same bundles and cancel.

    In the tied case the winner family is unchanged iff the tied block
    ends uniformly at some value ``q`` with every forced candidate strictly
    above and every loser strictly below.  Moving the whole block to ``q``
    costs ``|block| * |q - z[k-1]|`` cells with independent per-candidate
    choices.  Summed over every forced minimum ``l > q``, the forced part is
    just "every forced candidate ends >= q+1", so one bounded count per ``q``
    covers the rest of the budget.
    """
    if kind not in COUNT_KINDS:
        raise ValueError(f"counting supports kinds {COUNT_KINDS}, got {kind!r}")
    if not 1 <= k <= e.m:
        raise ValueError(f"committee size k={k} must satisfy 1 <= k <= m={e.m}")
    n, adds = e.n, kind == "add"
    scores = approval_scores(e)
    slots = n * e.m - sum(scores) if adds else sum(scores)
    if not 0 <= budget <= slots:
        raise ValueError(f"budget {budget} not in [0, {slots}]")
    total = math.comb(slots, budget)
    if k == e.m:
        # the only committee is the full candidate set, whatever the scores
        return CountOutcome(total, total)
    z = tuple(sorted(scores, reverse=True))
    unchanged = 0
    if z[k - 1] > z[k]:
        winners, losers = z[:k], z[k:]
        low = z[k - 1]
        for level in range(low, min(n, low + budget) + 1) if adds else range(max(1, low - budget), low + 1):
            unchanged += _bounded_ways(adds, n, winners, losers, level, level - 1, budget)
            unchanged -= _bounded_ways(adds, n, winners, losers, level + 1, level - 1, budget)
        return CountOutcome(unchanged, total)
    ztied = z[k - 1]
    s, block = z.index(ztied), z.count(ztied)
    forced, losers = z[:s], z[s + block :]
    room = n - ztied if adds else ztied
    for q in range(ztied, n + 1) if adds else range(0, ztied + 1):
        step = q - ztied if adds else ztied - q
        if block * step > budget:
            continue
        rest = _bounded_ways(adds, n, forced, losers, q + 1, q - 1, budget - block * step)
        unchanged += math.comb(room, step) ** block * rest
    return CountOutcome(unchanged, total)


def _bounded_ways(
    adds: bool, n: int, winners: tuple[int, ...], losers: tuple[int, ...], floor: int, ceiling: int, budget: int
) -> int:
    """Bundles of exactly ``budget`` cells with every winner ending >= floor, every loser <= ceiling.

    Per candidate with current score ``z_c``, spending ``d`` cells on it has
    ``C(n - z_c, d)`` (adds) or ``C(z_c, d)`` (removals) realisations; the
    convolution over candidates restricted to the per-candidate ranges below
    is a knapsack over the budget.
    """
    bounds: list[tuple[int, int, int]] = []  # (pool, min_d, max_d)
    for zc in winners:
        pool = n - zc if adds else zc
        bounds.append((pool, max(0, floor - zc) if adds else 0, pool if adds else zc - floor))
    for zc in losers:
        pool = n - zc if adds else zc
        bounds.append((pool, 0 if adds else max(0, zc - ceiling), ceiling - zc if adds else zc))
    rows: list[tuple[int, list[int]]] = []  # (min_d, realisations of min_d, min_d + 1, ... cells)
    least = 0
    for pool, lo, hi in bounds:
        least += lo
        if hi < lo or least > budget:
            return 0
        rows.append((lo, [math.comb(pool, d) for d in range(lo, min(hi, pool, budget) + 1)]))
    ways = [0] * (budget + 1)
    ways[0] = 1
    for lo, row in rows:
        nxt = [0] * (budget + 1)
        for spent, w in enumerate(ways[: budget - lo + 1]):
            if w:
                for total, realisations in enumerate(row[: budget - spent - lo + 1], start=spent + lo):
                    nxt[total] += w * realisations
        ways = nxt
    return ways[budget]


# ---------------------------------------------------------------------------
# Enumeration


def oracle_count_unchanged(
    e: Election, k: int, rule: RuleSpec, kind: str, budget: int, cap: int = DEFAULT_CAP
) -> CountOutcome:
    """Count unchanged bundles by enumeration, if there are at most ``cap`` B-subsets of cells.

    Every rule here is anonymous: its winners depend on the multiset of
    ballots (and the tie-break), not on which voter casts which.  So bundles
    that differ only by a permutation of voters with equal ballots leave the
    same winners, and one winner set per orbit of that permutation group
    answers for the whole orbit.  A bundle gives each voter of ballot type g
    a subset of g's moves (the cells of one voter, as in
    ``feasible_operations``); its orbit is, per type, the multiset of
    nonempty subsets {S_i with multiplicity a_i}, t = sum a_i <= n_g of
    them.  The type's n_g voters take such a multiset in
    ``n_g! / ((n_g - t)! * prod a_i!)`` ways, and an orbit's weight is the
    product over the types.  The weights sum to ``C(cells, B)``, which is
    checked once the enumeration ends.  Each orbit is scored from the ballot
    counts it leaves, in O(groups), with no voter tuple.

    See ``_orbits`` for the enumeration: every partial choice it makes
    completes to at least one orbit, so it does O(min(B, n)) steps per orbit,
    and orbits <= bundles <= ``cap``.  The bundle count is still what ``cap``
    bounds; it is checked before any winner set exists.
    """
    if kind not in COUNT_KINDS:
        raise ValueError(f"counting supports kinds {COUNT_KINDS}, got {kind!r}")
    # (ballot, its voter count, its moves) per ballot type; a type without moves takes no cell
    types = [(ballot, count, moves) for ballot, count in e.groups.items() if (moves := _moves(kind, ballot, e.m)[0])]
    cells = sum(count * len(moves) for _, count, moves in types)
    if not 0 <= budget <= cells:
        raise ValueError(f"budget {budget} not in [0, {cells}]")
    total = math.comb(cells, budget)
    if total > cap:
        raise CapExceeded(f"enumerating C({cells},{budget}) bundles exceeds cap {cap}")
    base = winner_set(e, k, rule, cap)
    edit = frozenset.union if kind == "add" else frozenset.difference
    unchanged = covered = 0
    for changes, weight in _orbits(types, budget):
        after = _profile_after(e, [(ballot, edit(ballot, subset)) for ballot, subset in changes])
        if winner_sets_equal(base, winner_set(after, k, rule, cap), cap):
            unchanged += weight
        covered += weight
    if covered != total:
        raise RuntimeError(f"orbit weights sum to {covered}, not C({cells},{budget}) = {total}")
    return CountOutcome(unchanged, total)


def _orbits(types: list[tuple[frozenset[int], int, list[int]]], budget: int) -> Iterator[tuple[list, int]]:
    """One representative of each voter-symmetry orbit of ``budget``-cell bundles, with the orbit's size.

    ``types`` lists ``(ballot, voter count, moves)`` per type with moves.  A
    representative is a list of ``(ballot, subset)`` changes, one per changed
    voter: that voter's ``ballot`` gains (or loses) the cells ``subset``.
    Within a type the chosen subsets come in non-increasing (size, rank among
    ``combinations`` of that size) order.  A choice is made only if the rest
    can still reach ``budget``: after a subset of size s, the type's
    remaining voters can add any cost in [0, free * s] and the later types
    any cost in [0, their cells], so the test is one comparison per size.
    Each partial choice therefore extends to an orbit; the search keeps its
    path on an explicit stack (one frame per chosen subset, at most
    min(B, n)), never recurses over the types and holds no list of orbits.
    """
    if not budget:
        yield [], 1  # the empty bundle
        return
    after = [0] * len(types)  # after[h]: the cells of types h+1, h+2, ...
    for h in range(len(types) - 2, -1, -1):
        _, count, moves = types[h + 1]
        after[h] = after[h + 1] + count * len(moves)
    root = (-1, 0, 0, 0, budget)  # (type, size, rank, voters of the type served, cost left)
    stack = [(_choices(types, after, *root), root, 0, 1)]  # and the run of equal subsets, the weight
    path: list[tuple[frozenset[int], tuple[int, ...]]] = []
    while stack:
        choices, (g, size, rank, served, left), run, weight = stack[-1]
        choice = next(choices, None)
        if choice is None:
            stack.pop()
            del path[-1:]
            continue
        h, s, r, subset = choice
        if h != g:
            served = 0
        run = run + 1 if (h, s, r) == (g, size, rank) else 1
        ballot, count, _ = types[h]
        weight = weight * (count - served) // run
        if left == s:
            yield [*path, (ballot, subset)], weight
            continue
        path.append((ballot, subset))
        node = (h, s, r, served + 1, left - s)
        stack.append((_choices(types, after, *node), node, run, weight))


def _choices(
    types: list[tuple[frozenset[int], int, list[int]]],
    after: list[int],
    g: int,
    size: int,
    rank: int,
    served: int,
    left: int,
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """The subsets ``(type, size, rank, subset)`` that may follow type ``g``'s ``(size, rank)``.

    Each still completes to ``left`` more cells, so each extends to an orbit.
    """
    for h in range(max(g, 0), len(types)):
        _, count, moves = types[h]
        free, top = (count - served, size) if h == g else (count, len(moves))
        if free * top + after[h] < left:
            break  # neither this type nor any later one can still take ``left`` cells
        if not free:
            continue
        # the smallest size s with left - s <= (free - 1) * s + after[h]
        for s in range(min(top, left), max(1, -(-(left - after[h]) // free)) - 1, -1):
            subsets = combinations(moves, s)
            if h == g and s == size:
                subsets = islice(subsets, rank + 1)
            for r, subset in enumerate(subsets):
                yield h, s, r, subset


def count_unchanged(
    e: Election, k: int, rule: RuleSpec, kind: str, budget: int, *, method: str | None = None, cap: int = DEFAULT_CAP
) -> tuple[CountOutcome, str, str]:
    """Unchanged budget-B bundles of ``e``, as ``(outcome, method, provenance)``.

    ``method`` is ``"exact"`` (the AV counting DP, AV only), ``"oracle"``
    (enumeration, any rule) or ``None`` for ``"exact"``.
    ``outcome.probability`` is the chance that a uniformly random bundle
    leaves the winner set unchanged.
    """
    method = method or "exact"
    if method == "exact":
        if rule.kind != "av":
            raise ValueError("exact counting covers approval voting only; use method 'oracle'")
        return av_count_unchanged(e, k, kind, budget), method, "counting-dp"
    if method != "oracle":
        raise ValueError(f"unknown counting method {method!r}; expected 'exact' or 'oracle'")
    return oracle_count_unchanged(e, k, rule, kind, budget, cap), method, "brute-force-enumeration"
