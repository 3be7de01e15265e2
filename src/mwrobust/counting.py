"""Counting perturbation bundles that leave the AV winner set unchanged.

A bundle is an unordered set of exactly ``B`` distinct approval cells to add
(respectively remove); the election has ``slots`` many addable (removable)
cells, so ``C(slots, B)`` bundles exist in total.  ``av_count_unchanged``
counts, via dynamic programming over per-candidate score changes, how many
bundles leave the family of AV-winning committees exactly as it was;
``oracle_count_unchanged`` does the same by brute-force enumeration, for any
rule; ``count_unchanged`` chooses between them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import CapExceeded, Election, approval_scores
from .perturb import apply_sequence, feasible_operations
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
    l.  In the tied case the winner family is unchanged iff the tied block
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
        for level in range(z[k - 1], n + 1) if adds else range(1, z[k - 1] + 1):
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
    ranges: list[tuple[int, int, int]] = []  # (pool, min_d, max_d)
    for zc in winners:
        pool = n - zc if adds else zc
        lo = max(0, floor - zc) if adds else 0
        hi = pool if adds else zc - floor
        if hi < lo:
            return 0
        ranges.append((pool, lo, min(hi, pool)))
    for zc in losers:
        pool = n - zc if adds else zc
        lo = 0 if adds else max(0, zc - ceiling)
        hi = ceiling - zc if adds else zc
        if hi < lo:
            return 0
        ranges.append((pool, lo, min(hi, pool)))
    ways = [0] * (budget + 1)
    ways[0] = 1
    for pool, lo, hi in ranges:
        nxt = [0] * (budget + 1)
        for spent in range(budget + 1):
            if not ways[spent]:
                continue
            for d in range(lo, min(hi, budget - spent) + 1):
                nxt[spent + d] += ways[spent] * math.comb(pool, d)
        ways = nxt
    return ways[budget]


# ---------------------------------------------------------------------------
# Brute force


def oracle_count_unchanged(
    e: Election, k: int, rule: RuleSpec, kind: str, budget: int, cap: int = DEFAULT_CAP
) -> CountOutcome:
    """Count unchanged bundles by enumerating every B-subset of cells, if there are at most ``cap``."""
    if kind not in COUNT_KINDS:
        raise ValueError(f"counting supports kinds {COUNT_KINDS}, got {kind!r}")
    cells = feasible_operations(e, kind)
    if not 0 <= budget <= len(cells):
        raise ValueError(f"budget {budget} not in [0, {len(cells)}]")
    total = math.comb(len(cells), budget)
    if total > cap:
        raise CapExceeded(f"enumerating C({len(cells)},{budget}) bundles exceeds cap {cap}")
    base = winner_set(e, k, rule, cap)
    unchanged = 0
    # combinations(cells, 0) would copy every cell into its pool to yield the one empty bundle
    for combo in itertools.combinations(cells, budget) if budget else [()]:
        # distinct cells of one kind never block each other, so every prefix is feasible
        if winner_sets_equal(base, winner_set(apply_sequence(e, combo), k, rule, cap), cap):
            unchanged += 1
    return CountOutcome(unchanged, total)


def count_unchanged(
    e: Election, k: int, rule: RuleSpec, kind: str, budget: int, *, method: str | None = None, cap: int = DEFAULT_CAP
) -> tuple[CountOutcome, str, str]:
    """Unchanged budget-B bundles of ``e``, as ``(outcome, method, provenance)``.

    ``method`` is ``"exact"`` or its alias ``"dp"`` (the AV counting DP, AV
    only), ``"oracle"`` (enumeration, any rule) or ``None`` for ``"exact"``.
    ``outcome.probability`` is the chance that a uniformly random bundle
    leaves the winner set unchanged.
    """
    method = method or "exact"
    if method in ("exact", "dp"):
        if rule.kind != "av":
            raise ValueError("exact counting covers approval voting only; use method 'oracle'")
        return av_count_unchanged(e, k, kind, budget), method, "counting-dp"
    if method != "oracle":
        raise ValueError(f"unknown counting method {method!r}; expected 'exact', 'dp' or 'oracle'")
    return oracle_count_unchanged(e, k, rule, kind, budget, cap), method, "brute-force-enumeration"
