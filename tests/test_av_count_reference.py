"""The AV counting DP against the per-level differencing loops it replaced.

``counting.av_count_unchanged`` runs one bounded knapsack per tied value
``q``.  The reference below is the earlier formulation: in the tied case it
pins the forced minimum to exactly ``l`` for every ``l > q`` by differencing
two knapsacks, and it treats "no forced candidates" as a branch of its own.
Elections are built from planted score vectors, because the count depends on
the scores, ``n`` and ``m`` only.
"""
from __future__ import annotations

import math
import random

from mwrobust import approval_scores, av_count_unchanged, election


def ref_bounded_ways(adds, n, winners, losers, floor, ceiling, budget):
    ranges = []
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
            if ways[spent]:
                for d in range(lo, min(hi, budget - spent) + 1):
                    nxt[spent + d] += ways[spent] * math.comb(pool, d)
        ways = nxt
    return ways[budget]


def ref_count(e, k, kind, budget):
    """(unchanged, total) by the earlier resolute and tied loops."""
    n, adds = e.n, kind == "add"
    scores = approval_scores(e)
    slots = n * e.m - sum(scores) if adds else sum(scores)
    total = math.comb(slots, budget)
    if k == e.m:
        return total, total
    z = tuple(sorted(scores, reverse=True))
    unchanged = 0
    if z[k - 1] > z[k]:
        lo, hi = (z[k - 1], n) if adds else (1, z[k - 1])
        for level in range(lo, hi + 1):
            at_least = ref_bounded_ways(adds, n, z[:k], z[k:], level, level - 1, budget)
            above = ref_bounded_ways(adds, n, z[:k], z[k:], level + 1, level - 1, budget)
            unchanged += at_least - above
        return unchanged, total
    ztied = z[k - 1]
    s = z.index(ztied)
    t = max(i for i in range(e.m) if z[i] == ztied)
    forced, losers, block = z[:s], z[t + 1 :], t - s + 1
    for q in range(ztied, n + 1) if adds else range(0, ztied + 1):
        step = q - ztied if adds else ztied - q
        per_candidate = math.comb(n - ztied if adds else ztied, step)
        spent = block * step
        if per_candidate == 0 or spent > budget:
            continue
        tied_ways, rest = per_candidate**block, budget - spent
        if not forced:
            unchanged += tied_ways * ref_bounded_ways(adds, n, (), losers, 0, q - 1, rest)
            continue
        level_lo = max(forced[-1], q + 1) if adds else q + 1
        level_hi = n if adds else forced[-1]
        for level in range(level_lo, level_hi + 1):
            at_least = ref_bounded_ways(adds, n, forced, losers, level, q - 1, rest)
            above = ref_bounded_ways(adds, n, forced, losers, level + 1, q - 1, rest)
            unchanged += tied_ways * (at_least - above)
    return unchanged, total


def election_with_scores(rng, n, scores):
    """An election whose candidate c is approved by a random ``scores[c]``-subset of the n voters."""
    ballots = [[] for _ in range(n)]
    for c, score in enumerate(scores):
        for v in rng.sample(range(n), score):
            ballots[v].append(c)
    return election(len(scores), ballots)


def planted_scores(rng, m, n, k, shape):
    """Scores with a resolute boundary, or a tied k-th score with or without forced candidates above it.

    A ``"forced-tied"`` draw needs ``2 <= k < m`` and ``n >= 1``.
    """
    if shape == "resolute":
        while True:
            scores = [rng.randint(0, n) for _ in range(m)]
            z = sorted(scores, reverse=True)
            if z[k - 1] > z[k]:
                return scores
    if shape == "tied":
        tied, forced = rng.randint(0, n), 0
    else:
        tied, forced = rng.randint(0, n - 1), rng.randint(1, k - 1)
    block = rng.randint(k - forced + 1, m - forced)
    scores = [rng.randint(tied + 1, n) for _ in range(forced)] + [tied] * block
    scores += [rng.randint(0, tied - 1) if tied else 0 for _ in range(m - forced - block)]
    rng.shuffle(scores)
    return scores


def budgets(rng, slots):
    picks = {0, slots, rng.randint(0, min(slots, 6))}
    if slots:
        picks.add(rng.randint(1, slots))
    return sorted(picks)


def check(e, k, kind, budget):
    out = av_count_unchanged(e, k, kind, budget)
    assert (out.unchanged, out.total) == ref_count(e, k, kind, budget), (e.m, e.n, approval_scores(e), k, kind, budget)


def test_planted_boundaries_match_reference():
    rng = random.Random(6150)
    for i in range(120):
        shape = ("resolute", "tied", "forced-tied")[i % 3]
        m = rng.randint(3 if shape == "forced-tied" else 2, 8)
        n = rng.randint(1, rng.choice((8, 20, 40)))
        k = rng.randint(2 if shape == "forced-tied" else 1, m - 1)
        e = election_with_scores(rng, n, planted_scores(rng, m, n, k, shape))
        z = sorted(approval_scores(e), reverse=True)
        assert (z[k - 1] == z[k]) == (shape != "resolute")
        assert (z[0] > z[k - 1]) == (shape == "forced-tied") or shape == "resolute"
        for kind in ("add", "remove"):
            slots = n * m - sum(z) if kind == "add" else sum(z)
            for budget in budgets(rng, slots):
                check(e, k, kind, budget)


def test_full_committee_matches_reference():
    rng = random.Random(6151)
    for _ in range(40):
        m = rng.randint(1, 8)
        n = rng.randint(0, 40)
        e = election_with_scores(rng, n, [rng.randint(0, n) for _ in range(m)])
        for kind in ("add", "remove"):
            slots = n * m - sum(approval_scores(e)) if kind == "add" else sum(approval_scores(e))
            for budget in budgets(rng, slots):
                check(e, m, kind, budget)


def test_forced_tie_at_the_top_of_the_range():
    # forced candidates at n and the tied block one below: under adds only q = n - 1 can keep
    # the forced strictly above, and under removes every q below the tie is open
    rng = random.Random(6152)
    for n in (1, 5, 12, 30):
        for forced in (1, 3):
            scores = [n] * forced + [n - 1] * 3 + [0, max(0, n - 3)]
            e = election_with_scores(rng, n, scores)
            for k in range(forced + 1, forced + 3):
                for kind in ("add", "remove"):
                    z = approval_scores(e)
                    slots = n * len(z) - sum(z) if kind == "add" else sum(z)
                    for budget in sorted({0, min(slots, 3), slots}):
                        check(e, k, kind, budget)


def test_level_window_edges_match_reference():
    # the resolute case sums only the levels within B of z[k-1]; these budgets put the
    # window's far end just inside, at and just past the last level of the full range
    # (n when adding, 1 when removing), and around the gap to the best loser
    rng = random.Random(6153)
    for _ in range(60):
        m = rng.randint(2, 6)
        n = rng.randint(1, 40)
        k = rng.randint(1, m - 1)
        e = election_with_scores(rng, n, planted_scores(rng, m, n, k, "resolute"))
        z = sorted(approval_scores(e), reverse=True)
        gap = z[k - 1] - z[k]
        for kind, far in (("add", n - z[k - 1]), ("remove", z[k - 1] - 1)):
            slots = n * m - sum(z) if kind == "add" else sum(z)
            edges = {far - 1, far, far + 1, gap - 1, gap, gap + 1}
            for budget in sorted(b for b in edges if 0 <= b <= slots):
                check(e, k, kind, budget)
