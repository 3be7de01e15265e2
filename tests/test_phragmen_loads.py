"""Sequential Phragmén by voter loads against the continuous money-earning simulation."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mwrobust import election, phragmen, phragmen_trace


def approvers(e, candidate):
    return [v for v, ballot in enumerate(e.ballots) if candidate in ballot]


def reference_trace(e, k):
    """The money-earning definition, voter by voter: a clock, every voter's balance, and per-candidate waits."""
    balance = [Fraction(0)] * e.n
    rank = {c: pos for pos, c in enumerate(e.priority())}
    chosen: list[int] = []
    clock = Fraction(0)
    purchases = []
    while len(chosen) < k:
        best_c = best_wait = None
        for c in range(e.m):
            voters = approvers(e, c)
            if c in chosen or not voters:
                continue
            wait = (1 - sum(balance[v] for v in voters)) / len(voters)
            if best_wait is None or wait < best_wait or (wait == best_wait and rank[c] < rank[best_c]):
                best_c, best_wait = c, wait
        if best_c is None:  # only approval-less candidates remain
            chosen += [c for c in e.priority() if c not in chosen][: k - len(chosen)]
            break
        balance = [b + best_wait for b in balance]
        clock += best_wait
        for v in approvers(e, best_c):
            balance[v] = Fraction(0)
        chosen.append(best_c)
        purchases.append((best_c, clock))
    return tuple(sorted(chosen)), tuple(purchases)


def random_election(rng: random.Random):
    """Few ballot types over few candidates, so ties, empty ballots and unapproved candidates are common."""
    m = rng.randint(1, 7)
    density = rng.choice((0.2, 0.5, 0.8))
    types = [[c for c in range(m) if rng.random() < density] for _ in range(rng.randint(1, 4))]
    ballots = [rng.choice(types) for _ in range(rng.randint(0, 9))]
    tiebreak = rng.sample(range(m), m) if rng.random() < 0.5 else None
    return election(m, ballots, tiebreak=tiebreak)


@pytest.mark.parametrize("seed", [5101, 5102, 5103, 5104])
def test_loads_match_money_earning(seed):
    rng = random.Random(seed)
    for _ in range(500):
        e = random_election(rng)
        for k in range(1, e.m + 1):  # up to k = m, which buys every approved candidate
            trace = phragmen_trace(e, k)
            assert trace == reference_trace(e, k), (e, k)
            assert all(isinstance(t, Fraction) for _, t in trace[1])
            assert phragmen(e, k) == trace[0]


class TestCases:
    def test_tie_goes_to_priority(self):
        e = election(3, [[0, 1, 2]] * 2, tiebreak=[2, 0, 1])
        assert phragmen_trace(e, 1) == ((2,), ((2, Fraction(1, 2)),))
        assert phragmen_trace(e, 3) == reference_trace(e, 3)

    def test_loads_reset_and_times_accumulate(self):
        # 0 and 1 tie at 1/2; 0 wins on priority and resets voter 0, so 1 is bought at (1 + 1/2) / 2
        e = election(2, [[0, 1], [1], [0]])
        assert phragmen_trace(e, 2) == ((0, 1), ((0, Fraction(1, 2)), (1, Fraction(3, 4))))

    def test_approval_less_candidates_fill_in_priority_order(self):
        e = election(4, [[1], [], [1]], tiebreak=[3, 2, 1, 0])
        assert phragmen_trace(e, 3) == ((1, 2, 3), ((1, Fraction(1, 2)),))
        assert phragmen_trace(election(3, [[], []]), 2) == ((0, 1), ())
