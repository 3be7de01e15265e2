"""Integer rule kernels against test-local Fraction references.

Sequential Phragmén keeps its loads as integers over one common scale,
``ThieleVector`` scales its weights to integers once, by the lcm of all its
denominators, and greedy Thiele keeps its integer marginals across picks.
These tests hold all three against straightforward ``Fraction``
computations, on random elections and on the reduction gadgets.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from mwrobust import (
    ThieleVector,
    election,
    greedy_thiele,
    no_cover_rx3c_n2,
    phragmen_trace,
    rx3c_to_greedy,
    rx3c_to_phragmen,
    triple_cover_rx3c,
    winners_thiele,
)


def fraction_load_trace(e, k):
    """Sequential Phragmén with every group's load a ``Fraction`` (the kernel this module replaced)."""
    counts = list(e.groups.values())
    supporters = [[] for _ in range(e.m)]
    approvals = [0] * e.m
    for gi, (ballot, cnt) in enumerate(e.groups.items()):
        for c in ballot:
            supporters[c].append(gi)
            approvals[c] += cnt
    load = [Fraction(0)] * len(counts)
    unbought = [c for c in e.priority() if approvals[c]]
    purchases = []
    while unbought and len(purchases) < k:
        time, best = min(
            (((1 + sum(counts[gi] * load[gi] for gi in supporters[c])) / approvals[c], c) for c in unbought),
            key=lambda pair: pair[0],
        )
        for gi in supporters[best]:
            load[gi] = time
        unbought.remove(best)
        purchases.append((best, time))
    chosen = [c for c, _ in purchases]
    chosen += [c for c in e.priority() if c not in chosen][: k - len(chosen)]
    return tuple(sorted(chosen)), tuple(purchases)


def assert_same_trace(e, k):
    got, want = phragmen_trace(e, k), fraction_load_trace(e, k)
    assert got == want, (e, k)
    assert [type(t) for _, t in got[1]] == [Fraction] * len(want[1])


def random_profile(rng: random.Random, m_range=(2, 7), n_range=(1, 12)):
    """Few or many ballot types; low densities leave candidates without approvals and ballots empty."""
    m = rng.randint(*m_range)
    density = rng.choice((0.1, 0.3, 0.5, 0.8))
    types = [[c for c in range(m) if rng.random() < density] for _ in range(rng.randint(1, 6))]
    ballots = [rng.choice(types) for _ in range(rng.randint(*n_range))]
    tiebreak = rng.sample(range(m), m) if rng.random() < 0.5 else None
    return election(m, ballots, tiebreak=tiebreak)


class TestPhragmenLoads:
    @pytest.mark.parametrize("seed", [6201, 6202, 6203])
    def test_matches_fraction_loads(self, seed):
        rng = random.Random(seed)
        seen = {"tiebreak": 0, "empty ballot": 0, "unapproved": 0}
        for _ in range(400):
            e = random_profile(rng)
            seen["tiebreak"] += e.tiebreak is not None
            seen["empty ballot"] += frozenset() in e.groups
            seen["unapproved"] += len(set().union(*e.groups)) < e.m
            for k in range(1, e.m + 1):
                assert_same_trace(e, k)
        assert all(seen.values()), seen

    def test_every_shape(self):
        rng = random.Random(6204)
        for m, n in itertools.product(range(2, 8), range(1, 13)):
            for _ in range(3):
                e = random_profile(rng, (m, m), (n, n))
                for k in range(1, m + 1):
                    assert_same_trace(e, k)

    def test_large_counts_keep_the_scale_exact(self):
        # approval counts 7, 11 and 13 are pairwise coprime, so every purchase grows the scale
        e = election(4, [[0, 1]] * 7 + [[1, 2]] * 11 + [[2, 3]] * 13 + [[0, 3]] * 5)
        assert_same_trace(e, 4)
        assert phragmen_trace(e, 4)[1][-1][1].denominator > 1

    @pytest.mark.parametrize(
        "build",
        (
            lambda: rx3c_to_phragmen(triple_cover_rx3c(1)),
            lambda: rx3c_to_greedy(no_cover_rx3c_n2(), "cc"),
            lambda: rx3c_to_greedy(no_cover_rx3c_n2(), "pav"),
        ),
        ids=("phragmen", "greedy-cc", "greedy-pav"),
    )
    def test_gadgets(self, build):
        bundle = build()
        for k in sorted({1, bundle.k, bundle.election.m}):
            assert_same_trace(bundle.election, k)


def fraction_thiele_winners(e, k, weights):
    """Every committee of maximum ``Fraction`` Thiele score."""
    prefix = [Fraction(0)]
    for w in weights[:k]:
        prefix.append(prefix[-1] + w)
    scores = {s: sum(prefix[len(b & frozenset(s))] for b in e.ballots) for s in itertools.combinations(range(e.m), k)}
    best = max(scores.values())
    return tuple(s for s, score in scores.items() if score == best)


def fraction_greedy(e, k, weights, initial=()):
    """Sequential Thiele on ``Fraction`` marginals recomputed per voter each round; ties go to the priority order."""
    chosen = list(dict.fromkeys(initial))
    while len(chosen) < k:
        def marginal(c):
            return sum(weights[len(b & frozenset(chosen))] for b in e.ballots if c in b)

        best = max((c for c in e.priority() if c not in chosen), key=marginal)
        chosen.append(best)
    return tuple(sorted(chosen))


#: The lcm of the first k denominators differs from that of the whole vector.
UNEVEN = (
    (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)),
    (1, Fraction(2, 5), Fraction(1, 3), Fraction(1, 4), Fraction(1, 9)),
    (1, 0, Fraction(0), Fraction(1, 11)),
    (1, Fraction(1, 2), Fraction(1, 2), Fraction(3, 13), Fraction(1, 5), Fraction(1, 17)),
)


class TestThieleWeights:
    def test_integer_weights_scale_by_the_full_lcm(self):
        omega = ThieleVector((1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
        assert omega.integer_weights == (42, 21, 14, 6)
        assert ThieleVector.cc(3).integer_weights == (1, 0, 0)
        assert ThieleVector.pav(4).integer_weights == (12, 6, 4, 3)

    @pytest.mark.parametrize("seed", [6301, 6302])
    def test_match_fraction_references(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            weights = tuple(map(Fraction, rng.choice(UNEVEN)))
            omega = ThieleVector(weights)
            e = random_profile(rng, (2, 6), (0, 10))
            for k in range(1, min(e.m, 3) + 1):
                assert winners_thiele(e, k, omega).committee_list == fraction_thiele_winners(e, k, weights), (e, k)
                assert greedy_thiele(e, k, omega) == fraction_greedy(e, k, weights), (e, k)

    @pytest.mark.parametrize("seed", [6303, 6304])
    def test_greedy_keeps_marginals_for_every_k_and_seed_committee(self, seed):
        rng = random.Random(seed)
        seeded = 0
        for _ in range(300):
            weights = tuple(map(Fraction, rng.choice(UNEVEN)))
            omega = ThieleVector(weights)
            # up to 30 voters over at most 6 ballot types: most groups hold several voters
            e = random_profile(rng, (2, len(weights)), (0, 30))
            for k in range(1, e.m + 1):
                initial = rng.choices(range(e.m), k=rng.randint(0, k))  # may repeat a candidate
                seeded += bool(initial)
                assert greedy_thiele(e, k, omega, initial) == fraction_greedy(e, k, weights, initial), (e, k, initial)
        assert seeded > 500

    @pytest.mark.parametrize("name", ("cc", "pav"))
    def test_greedy_gadgets(self, name):
        bundle = rx3c_to_greedy(no_cover_rx3c_n2(), name)
        e = bundle.election
        for k in sorted({1, bundle.k, e.m}):
            omega = getattr(ThieleVector, name)(k)
            assert greedy_thiele(e, k, omega) == fraction_greedy(e, k, omega.weights), k

    def test_dataclass_behaviour_unaffected(self):
        omega = ThieleVector((1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
        twin = ThieleVector(tuple(omega.weights))
        assert omega == twin and hash(omega) == hash(twin)
        assert omega != ThieleVector.pav(4) and omega != ThieleVector((2, 1, Fraction(2, 3), Fraction(2, 7)))
        assert repr(omega) == f"ThieleVector(weights={omega.weights!r})"
        assert [f.name for f in dataclasses.fields(omega)] == ["weights"]
        assert dataclasses.asdict(omega) == {"weights": omega.weights}
        for clone in (pickle.loads(pickle.dumps(omega)), copy.deepcopy(omega), dataclasses.replace(omega)):
            assert clone == omega and hash(clone) == hash(omega)
            assert clone.integer_weights == omega.integer_weights
        with pytest.raises(dataclasses.FrozenInstanceError):
            omega.weights = (Fraction(1),)
