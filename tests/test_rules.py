"""Winner-set computation: separable scores, Thiele, greedy Thiele, Phragmén."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mwrobust import (
    CapExceeded,
    ExplicitWinners,
    RuleSpec,
    ThieleVector,
    ThresholdWinners,
    committee_score,
    election,
    greedy_thiele,
    phragmen,
    phragmen_trace,
    preset_rule,
    winner_set,
    winner_sets_equal,
    winners_separable,
    winners_thiele,
)

from common import random_election


class TestThieleVector:
    def test_presets(self):
        assert ThieleVector.av(3).weights == (1, 1, 1)
        assert ThieleVector.cc(3).weights == (1, 0, 0)
        assert ThieleVector.pav(3).weights == (1, Fraction(1, 2), Fraction(1, 3))

    def test_unit_decreasing(self):
        assert ThieleVector.cc(3).is_unit_decreasing
        assert ThieleVector.pav(4).is_unit_decreasing
        assert not ThieleVector.av(3).is_unit_decreasing  # second weight not below 1
        assert not ThieleVector((1, Fraction(1, 2), Fraction(2, 3))).is_unit_decreasing
        assert not ThieleVector((Fraction(1, 2),)).is_unit_decreasing
        assert ThieleVector((1,)).is_unit_decreasing

    def test_validation(self):
        with pytest.raises(ValueError):
            ThieleVector(())
        with pytest.raises(ValueError):
            ThieleVector((1, Fraction(-1, 2)))
        with pytest.raises(ValueError):
            ThieleVector(["x"])

    def test_weights_converted_to_fractions(self):
        omega = ThieleVector([1, "1/2"])
        assert omega == ThieleVector.pav(2) and hash(omega) == hash(ThieleVector.pav(2))
        assert all(type(w) is Fraction for w in omega.weights)
        assert omega.integer_weights == (2, 1)


class TestRuleSpec:
    @pytest.mark.parametrize("name", ["av", "sav", "cc", "pav", "greedy-cc", "greedy-pav", "phragmen"])
    def test_presets_build(self, name):
        rule = preset_rule(name, 3)
        family = name.removeprefix("greedy-")
        if family in ("cc", "pav"):
            assert rule.kind == ("greedy" if name.startswith("greedy-") else "thiele")
            assert rule.omega == getattr(ThieleVector, family)(3)
        else:
            assert (rule.kind, rule.omega) == (name, None)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_rule("borda", 2)

    def test_greedy_requires_unit_decreasing(self):
        with pytest.raises(ValueError):
            RuleSpec(kind="greedy", omega=ThieleVector.av(3))

    def test_thiele_requires_weights(self):
        with pytest.raises(ValueError):
            RuleSpec(kind="thiele")


class TestWinnerSets:
    def test_threshold_count_and_expansion(self):
        ws = ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({1, 2}), slots=1)
        assert ws.count() == 2
        assert ws.committees() == ((0, 1), (0, 2))

    def test_expansion_cap(self):
        ws = ThresholdWinners(k=3, forced=frozenset(), pool=frozenset(range(6)), slots=3)
        with pytest.raises(CapExceeded):
            ws.committees(cap=10)

    def test_explicit_normalises(self):
        ws = ExplicitWinners(((1, 0), (0, 1), (2, 0)))
        assert ws.committee_list == ((0, 1), (0, 2))

    def test_explicit_committees_bounded_by_cap(self):
        ws = ExplicitWinners(((0, 1), (0, 2), (1, 2)))
        assert ws.committees(cap=3) == ((0, 1), (0, 2), (1, 2))
        with pytest.raises(CapExceeded, match="3 committees exceed cap 2"):
            ws.committees(cap=2)

    def test_explicit_nonempty(self):
        with pytest.raises(ValueError):
            ExplicitWinners(())

    def test_threshold_invariants_enforced(self):
        with pytest.raises(ValueError):
            ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({0, 1}), slots=1)
        with pytest.raises(ValueError):
            ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({1}), slots=0)


class TestWinnerSetsEqual:
    def test_threshold_vs_explicit(self):
        thr = ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({1, 2}), slots=1)
        assert winner_sets_equal(thr, ExplicitWinners(((0, 1), (0, 2))))
        assert not winner_sets_equal(thr, ExplicitWinners(((0, 1),)))

    def test_degenerate_threshold_is_one_committee(self):
        thr = ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({1}), slots=1)
        assert winner_sets_equal(thr, ExplicitWinners(((0, 1),)))

    def test_distinct_nondegenerate_thresholds_differ(self):
        a = ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({1, 2}), slots=1)
        b = ThresholdWinners(k=2, forced=frozenset({1}), pool=frozenset({0, 2}), slots=1)
        assert not winner_sets_equal(a, b)
        assert winner_sets_equal(a, ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({1, 2}), slots=1))


class TestSeparable:
    def test_av_threshold_structure(self):
        # approvals 3, 2, 2, 0
        e = election(4, [[0, 1], [0, 2], [0, 1, 2]])
        ws = winners_separable(e, 2, "av")
        assert ws == ThresholdWinners(k=2, forced=frozenset({0}), pool=frozenset({1, 2}), slots=1)

    def test_av_resolute_when_gap(self):
        e = election(3, [[0], [0], [1]])
        ws = winners_separable(e, 1, "av")
        assert ws.forced == frozenset() and ws.pool == frozenset({0})

    def test_sav_fractional_threshold(self):
        # SAV scores: 1/2+1/3, 1/2+1/3, 1/3
        e = election(3, [[0, 1], [0, 1, 2]])
        ws = winners_separable(e, 1, "sav")
        assert ws.pool == frozenset({0, 1}) and ws.slots == 1

    def test_all_zero_scores(self):
        e = election(3, [[], []])
        ws = winners_separable(e, 2, "sav")
        assert ws.pool == frozenset({0, 1, 2}) and ws.slots == 2

    def test_k_bounds(self):
        e = election(2, [[0]])
        with pytest.raises(ValueError):
            winners_separable(e, 0, "av")
        with pytest.raises(ValueError):
            winners_separable(e, 3, "av")


class TestThiele:
    def test_cc_maximises_coverage(self):
        e = election(4, [[0], [1], [2], [0, 1]])
        ws = winners_thiele(e, 2, ThieleVector.cc(2))
        # covering pairs: any committee covering 3 voters
        for committee in ws.committee_list:
            assert committee_score(e, ThieleVector.cc(2), committee) == 3
        assert (0, 1) not in ws.committee_list or True

    def test_pav_small_example(self):
        e = election(3, [[0, 1], [0, 1], [2]])
        ws = winners_thiele(e, 2, ThieleVector.pav(2))
        # {0,2} and {1,2} score 3; {0,1} scores 2·(3/2) = 3 as well
        assert ws.committee_list == ((0, 1), (0, 2), (1, 2))

    def test_cap_guard(self):
        e = election(25, [[0]])
        with pytest.raises(CapExceeded):
            winners_thiele(e, 12, ThieleVector.pav(12), cap=1000)

    def test_av_weights_match_separable(self):
        rng = random.Random(11)
        for _ in range(60):
            e = random_election(rng, max_m=5, max_n=4, min_m=1)
            k = rng.randint(1, e.m)
            thr = winners_separable(e, k, "av")
            brute = winners_thiele(e, k, ThieleVector.av(k))
            assert winner_sets_equal(thr, brute)


class TestGreedy:
    def test_marginal_selection(self):
        # CC greedy: first pick covers most voters, second the best remainder
        e = election(3, [[0], [0], [1], [2]])
        assert greedy_thiele(e, 2, ThieleVector.cc(2)) == (0, 1)

    def test_tiebreak_uses_priority(self):
        e = election(2, [[0], [1]])
        assert greedy_thiele(e, 1, ThieleVector.cc(1)) == (0,)
        e2 = election(2, [[0], [1]], tiebreak=(1, 0))
        assert greedy_thiele(e2, 1, ThieleVector.cc(1)) == (1,)

    def test_seeding(self):
        e = election(3, [[0], [0], [1], [2]])
        assert greedy_thiele(e, 2, ThieleVector.cc(2), initial=[2]) == (0, 2)
        assert greedy_thiele(e, 2, ThieleVector.cc(2), initial=[2, 2]) == (0, 2)

    def test_seed_validation(self):
        e = election(3, [[0]])
        with pytest.raises(ValueError):
            greedy_thiele(e, 1, ThieleVector.cc(1), initial=[0, 1])
        with pytest.raises(ValueError):
            greedy_thiele(e, 1, ThieleVector.cc(1), initial=[3])

    def test_weight_vector_length_checked(self):
        e = election(3, [[0]])
        with pytest.raises(ValueError):
            greedy_thiele(e, 3, ThieleVector.cc(2))


class TestPhragmen:
    def test_proportionality_shape(self):
        # 4 voters for {0,1}, 3 voters for {2}: the second camp affords its
        # candidate (1/3) before the first camp's exhausted voters refill (1/2)
        e = election(3, [[0, 1]] * 4 + [[2]] * 3)
        assert phragmen(e, 2) == (0, 2)

    def test_zero_approval_fill(self):
        e = election(3, [[], []])
        assert phragmen(e, 2) == (0, 1)
        e2 = election(3, [[], []], tiebreak=(2, 1, 0))
        assert phragmen(e2, 2) == (1, 2)

    def test_partial_fill_after_purchases(self):
        e = election(3, [[0], [0]])
        assert phragmen(e, 2) == (0, 1)

    def test_trace_times(self):
        e = election(2, [[0], [0], [1]])
        committee, purchases = phragmen_trace(e, 2)
        assert committee == (0, 1)
        assert purchases[0] == (0, Fraction(1, 2))
        assert purchases[1] == (1, Fraction(1))

    def test_trace_of_fill_is_empty(self):
        _, purchases = phragmen_trace(election(2, [[], []]), 1)
        assert purchases == ()

    def test_balances_reset_on_purchase(self):
        # voters {0,1},{0,1}: candidate 0 bought at 1/2; supporters reset, so
        # candidate 1 needs another full 1/2 of earning
        _, purchases = phragmen_trace(election(2, [[0, 1], [0, 1]]), 2)
        assert purchases == ((0, Fraction(1, 2)), (1, Fraction(1)))


class TestDispatch:
    def test_separable_vs_explicit_forms(self):
        e = election(3, [[0], [0], [1]])
        assert isinstance(winner_set(e, 1, preset_rule("av", 1)), ThresholdWinners)
        assert isinstance(winner_set(e, 1, preset_rule("sav", 1)), ThresholdWinners)
        assert isinstance(winner_set(e, 1, preset_rule("pav", 1)), ExplicitWinners)
        assert isinstance(winner_set(e, 1, preset_rule("greedy-cc", 1)), ExplicitWinners)
        assert isinstance(winner_set(e, 1, preset_rule("phragmen", 1)), ExplicitWinners)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_thiele_winners_are_score_maximisers(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(0, 4))
    ballots = [sorted(data.draw(st.sets(st.integers(0, m - 1)))) for _ in range(n)]
    e = election(m, ballots)
    k = data.draw(st.integers(1, m))
    omega = ThieleVector.pav(k)
    ws = winners_thiele(e, k, omega)
    best = max(committee_score(e, omega, c) for c in combinations(range(m), k))
    for committee in ws.committee_list:
        assert committee_score(e, omega, committee) == best
    assert ws.count() == sum(1 for c in combinations(range(m), k) if committee_score(e, omega, c) == best)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_resolute_rules_produce_valid_committees(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(0, 4))
    ballots = [sorted(data.draw(st.sets(st.integers(0, m - 1)))) for _ in range(n)]
    e = election(m, ballots)
    k = data.draw(st.integers(1, m))
    for committee in (greedy_thiele(e, k, ThieleVector.pav(k)), phragmen(e, k)):
        assert len(committee) == k
        assert committee == tuple(sorted(set(committee)))
        assert all(0 <= c < m for c in committee)
