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
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Election, approval_scores
from .perturb import feasible_operations
from .rules import DEFAULT_CAP, RuleSpec, winner_set, winner_sets_equal

COUNT_KINDS = ("add", "remove")


@dataclass(frozen=True)
class CountOutcome:
    unchanged: int
    total: int

    @property
    def probability(self) -> Fraction:
        return Fraction(self.unchanged, self.total)


@dataclass
class DPState:
    """Intermediate tables of the AV counting DP, exposed for auditing.

    ``z`` is the score vector sorted descending.  In the resolute case
    (``tied is None``) the count is ``sum_l g[(l, l-1)]`` where ``l`` runs
    over the possible minimum final winner scores and ``g = f(l,u) -
    f(l+1,u)`` pins that minimum exactly.  In the tied case ``gprime[(l,
    q)]`` (or ``gprime[(q,)]`` when there are no forced candidates) is the
    number of bundles with the tied block moved to exactly ``q``, forced
    minimum exactly ``l`` and losers below ``q``.
    """

    kind: str
    budget: int
    k: int
    n: int
    z: tuple[int, ...]
    tied: tuple[int, int] | None  # (s, t): sorted index range of the tied block
    f: dict[tuple[int, int], int] = field(default_factory=dict)
    g: dict[tuple[int, int], int] = field(default_factory=dict)
    gprime: dict[tuple, int] = field(default_factory=dict)
    unchanged: int = 0
    total: int = 0


def av_count_unchanged(e: Election, k: int, kind: str, budget: int) -> CountOutcome:
    """Exact number of B-element add (remove) bundles preserving the AV winner set."""
    state = av_count_state(e, k, kind, budget)
    return CountOutcome(state.unchanged, state.total)


def av_count_state(e: Election, k: int, kind: str, budget: int) -> DPState:
    if kind not in COUNT_KINDS:
        raise ValueError(f"counting supports kinds {COUNT_KINDS}, got {kind!r}")
    if not 1 <= k <= e.m:
        raise ValueError(f"committee size k={k} must satisfy 1 <= k <= m={e.m}")
    n = e.n
    scores = approval_scores(e)
    slots = n * e.m - sum(scores) if kind == "add" else sum(scores)
    if not 0 <= budget <= slots:
        raise ValueError(f"budget {budget} not in [0, {slots}]")
    z = tuple(sorted(scores, reverse=True))
    total = math.comb(slots, budget)
    state = DPState(kind=kind, budget=budget, k=k, n=n, z=z, tied=None, total=total)

    if k == e.m:
        # the only committee is the full candidate set, whatever the scores
        state.unchanged = total
        return state

    if z[k - 1] > z[k]:
        _count_resolute(state)
    else:
        ztied = z[k - 1]
        s = z.index(ztied)
        t = max(i for i in range(e.m) if z[i] == ztied)
        state.tied = (s, t)
        _count_tied(state)
    return state


def _count_resolute(state: DPState) -> None:
    """Winners are the top-k candidates; they must all stay strictly above the rest.

    Condition on the minimum final winner score ``l``: bundles with all
    winners ending >= l and all losers ending <= l-1, minus those with all
    winners ending >= l+1, leave the boundary intact with minimum exactly l.
    """
    k, z, n = state.k, state.z, state.n
    lo, hi = (z[k - 1], n) if state.kind == "add" else (1, z[k - 1])
    for level in range(lo, hi + 1):
        for shift in (0, 1):
            key = (level + shift, level - 1)
            if key not in state.f:
                state.f[key] = _bounded_ways(state, z[: k], z[k:], key[0], key[1], state.budget)
        g = state.f[(level, level - 1)] - state.f[(level + 1, level - 1)]
        state.g[(level, level - 1)] = g
        state.unchanged += g


def _count_tied(state: DPState) -> None:
    """The k-th score is tied: the pool must stay exactly tied, in place.

    The winner family is unchanged iff the tied block ends uniformly at some
    value ``q`` with every forced candidate strictly above and every loser
    strictly below.  Moving the whole block to ``q`` costs ``|block| *
    |q - z_tied|`` operations with independent per-candidate choices, and the
    forced/loser parts are counted by the same bounded DP on the remaining
    budget (with the forced minimum pinned by differencing when forced
    candidates exist).
    """
    s, t = state.tied
    z, n, budget = state.z, state.n, state.budget
    ztied = z[s]
    block = t - s + 1
    forced, losers = z[:s], z[t + 1 :]
    q_range = range(ztied, n + 1) if state.kind == "add" else range(0, ztied + 1)
    for q in q_range:
        step = q - ztied if state.kind == "add" else ztied - q
        room = n - ztied if state.kind == "add" else ztied
        per_candidate = math.comb(room, step)
        spent = block * step
        if per_candidate == 0 or spent > budget:
            continue
        tied_ways = per_candidate**block
        rest = budget - spent
        if not forced:
            ways = tied_ways * _bounded_ways(state, (), losers, 0, q - 1, rest)
            if ways:
                state.gprime[(q,)] = state.gprime.get((q,), 0) + ways
                state.unchanged += ways
            continue
        level_lo = max(forced[-1], q + 1) if state.kind == "add" else q + 1
        level_hi = n if state.kind == "add" else forced[-1]
        for level in range(level_lo, level_hi + 1):
            at_least = _bounded_ways(state, forced, losers, level, q - 1, rest)
            above = _bounded_ways(state, forced, losers, level + 1, q - 1, rest)
            ways = tied_ways * (at_least - above)
            if ways:
                state.gprime[(level, q)] = ways
                state.unchanged += ways


def _bounded_ways(
    state: DPState, winners: tuple[int, ...], losers: tuple[int, ...], floor: int, ceiling: int, budget: int
) -> int:
    """Bundles of exactly ``budget`` cells with every winner ending >= floor, every loser <= ceiling.

    Per candidate with current score ``z_c``, spending ``d`` cells on it has
    ``C(n - z_c, d)`` (adds) or ``C(z_c, d)`` (removals) realisations; the
    convolution over candidates restricted to the per-candidate ranges below
    is a knapsack over the budget.
    """
    n, adds = state.n, state.kind == "add"
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
    """Count unchanged bundles by enumerating every B-subset of cells."""
    if kind not in COUNT_KINDS:
        raise ValueError(f"counting supports kinds {COUNT_KINDS}, got {kind!r}")
    cells = feasible_operations(e, kind)
    if not 0 <= budget <= len(cells):
        raise ValueError(f"budget {budget} not in [0, {len(cells)}]")
    base = winner_set(e, k, rule, cap)
    unchanged = 0
    for combo in itertools.combinations(cells, budget):
        ballots = [set(b) for b in e.ballots]
        for op in combo:
            if kind == "add":
                ballots[op.voter].add(op.candidate)
            else:
                ballots[op.voter].discard(op.candidate)
        e2 = Election(e.num_candidates, tuple(frozenset(b) for b in ballots), e.tiebreak)
        if winner_sets_equal(base, winner_set(e2, k, rule, cap), cap):
            unchanged += 1
    return CountOutcome(unchanged, math.comb(len(cells), budget))


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
