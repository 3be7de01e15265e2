"""The grouped SAV pair costs against the per-voter gain lists and dig heap they replaced.

``radius._sav_pair_cost`` counts votes by (size, approves x, approves y) and
covers the gap greedily over (gain, count) pairs; removals count digs in
closed form.  The reference below walks every voter, builds one gain per
vote, and digs y-votes through a heap, one removal at a time.
"""
from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

from mwrobust import election, sav_scores
from mwrobust.radius import _dig_count, _sav_pair_cost


def ref_add_gains(e, x, y):
    return [Fraction(1, len(b)) if x in b else Fraction(1, len(b) + 1) for b in e.ballots if y not in b]


def ref_swap_gains(e, x, y):
    gains = []
    for b in e.ballots:
        a = len(b)
        if x in b and y not in b:
            gains.append(Fraction(2, a))
        elif x in b and y in b:
            if a < e.m:
                gains.append(Fraction(1, a))
        elif x not in b and y not in b:
            if a >= 1:
                gains.append(Fraction(1, a))
    return gains


def ref_greedy_cover(gains, delta):
    total = Fraction(0)
    for count, g in enumerate(sorted(gains, reverse=True), start=1):
        total += g
        if total >= delta:
            return count
    return None


def ref_dig_reductions(sizes):
    """Cumulative gains of digging the smallest y-vote, one removal at a time."""
    heap = list(sizes)
    heapq.heapify(heap)
    cums = []
    total = Fraction(0)
    while heap:
        a = heapq.heappop(heap)
        total += Fraction(1, a * (a - 1))
        cums.append(total)
        if a - 1 >= 2:
            heapq.heappush(heap, a - 1)
    return cums


def ref_remove_cost(e, x, y, delta):
    both = sorted(len(b) for b in e.ballots if x in b and y in b)
    x_only = sorted(len(b) for b in e.ballots if x in b and y not in b)
    y_only = sorted(len(b) for b in e.ballots if y in b and x not in b)
    conv_prefix = [Fraction(0)]
    for a in both:
        conv_prefix.append(conv_prefix[-1] + Fraction(1, a - 1))
    xonly_prefix = [Fraction(0)]
    for a in x_only:
        xonly_prefix.append(xonly_prefix[-1] + Fraction(1, a))
    best = None
    for b_both in range(len(both) + 1):
        if best is not None and b_both >= best:
            break
        chains = [a for a in y_only if a >= 2] + [both[i] - 1 for i in range(b_both) if both[i] - 1 >= 2]
        dig_cum = ref_dig_reductions(chains)
        for b_x in range(len(x_only) + 1):
            base_ops = b_both + b_x
            if best is not None and base_ops >= best:
                break
            remaining = delta - conv_prefix[b_both] - xonly_prefix[b_x]
            if remaining <= 0:
                best = base_ops
                break
            idx = bisect_left(dig_cum, remaining)
            if idx < len(dig_cum) and (best is None or base_ops + idx + 1 < best):
                best = base_ops + idx + 1
    return best


def ref_pair_cost(e, kind, x, y, delta):
    if delta <= 0:
        return 0
    if kind == "add":
        return ref_greedy_cover(ref_add_gains(e, x, y), delta)
    if kind == "swap":
        return ref_greedy_cover(ref_swap_gains(e, x, y), delta)
    return ref_remove_cost(e, x, y, delta)


def mixed_election(rng):
    """m 2-8, n 1-30; ballots from 2-4 types, or all drawn independently; 30% with a tie-break."""
    m = rng.randint(2, 8)
    n = rng.randint(1, 30)
    density = rng.choice((0.2, 0.5, 0.8))

    def draw():
        return [c for c in range(m) if rng.random() < density]

    if rng.random() < 0.5:
        types = [draw() for _ in range(rng.randint(2, 4))]
        ballots = [rng.choice(types) for _ in range(n)]
    else:
        ballots = [draw() for _ in range(n)]
    tiebreak = rng.sample(range(m), m) if rng.random() < 0.3 else None
    return election(m, ballots, tiebreak=tiebreak)


def test_every_pair_cost_matches_the_per_voter_reference():
    rng = random.Random(8108)
    pairs = 0
    for _ in range(300):
        e = mixed_election(rng)
        scores = sav_scores(e)
        for x in range(e.m):
            for y in range(e.m):
                if x == y:
                    continue
                delta = scores[x] - scores[y]
                for kind in ("add", "remove", "swap"):
                    got = _sav_pair_cost(e, kind, x, y, delta)
                    assert got == ref_pair_cost(e, kind, x, y, delta), (e, kind, x, y)
                    pairs += 1
    assert pairs > 20_000


def test_every_pair_cost_is_bounded_by_the_votes_holding_x():
    """Removing x from every vote, or adding y to (swapping x for y in) every vote with x but not y, closes the gap."""
    rng = random.Random(8116)
    pairs = 0
    for _ in range(600):
        e = mixed_election(rng)
        scores = sav_scores(e)
        for x in range(e.m):
            holding_x = sum(count for ballot, count in e.groups.items() if x in ballot)
            for y in range(e.m):
                delta = scores[x] - scores[y]
                if delta <= 0:
                    continue
                x_not_y = sum(count for ballot, count in e.groups.items() if x in ballot and y not in ballot)
                assert 1 <= _sav_pair_cost(e, "remove", x, y, delta) <= holding_x, (e, x, y)
                for kind in ("add", "swap"):
                    assert 1 <= _sav_pair_cost(e, kind, x, y, delta) <= x_not_y, (e, kind, x, y)
                pairs += 1
    assert pairs > 5_000


def test_remove_costs_on_large_dense_ballots():
    """m 9-14 and dense ballots, so converted both-votes join the y-votes at several sizes."""
    rng = random.Random(8117)
    pairs = joined = 0
    for _ in range(40):
        m = rng.randint(9, 14)
        density = rng.choice((0.6, 0.75, 0.9))

        def draw():
            return [c for c in range(m) if rng.random() < density]

        n = rng.randint(4, 16)
        types = [draw() for _ in range(rng.randint(2, 4))]
        ballots = [rng.choice(types) for _ in range(n)] if rng.random() < 0.5 else [draw() for _ in range(n)]
        e = election(m, ballots)
        scores = sav_scores(e)
        for x in range(m):
            for y in range(m):
                delta = scores[x] - scores[y]
                if delta <= 0:
                    continue
                assert _sav_pair_cost(e, "remove", x, y, delta) == ref_remove_cost(e, x, y, delta), (e, x, y)
                pairs += 1
                joined += len({len(b) for b in e.ballots if x in b and y in b and len(b) >= 3}) >= 2
    assert pairs > 1_000 and joined > 500, (pairs, joined)


def test_closed_form_dig_count_matches_the_heap():
    rng = random.Random(8109)
    for _ in range(1500):
        histogram = {a: rng.randint(1, 4) for a in rng.sample(range(2, 10), rng.randint(0, 4))}
        cums = ref_dig_reductions([a for a, c in histogram.items() for _ in range(c)])
        capacity = cums[-1] if cums else Fraction(0)
        # random targets inside and just beyond the capacity, and each cumulative gain exactly
        needs = [Fraction(rng.randint(1, 400), 360) * (capacity or 1) for _ in range(4)] + cums[:3]
        for need in needs:
            idx = bisect_left(cums, need)
            if idx < len(cums):
                assert _dig_count(Counter(histogram), need) == idx + 1, (histogram, need)
            else:
                assert need > capacity
