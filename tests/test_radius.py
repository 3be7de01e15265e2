"""Robustness radius: closed forms for AV and SAV against the search oracle."""
from __future__ import annotations

import random
from math import comb

import pytest

from mwrobust import (
    CapExceeded,
    ExceedsBound,
    Finite,
    Impossible,
    apply_sequence,
    av_radius,
    election,
    oracle_radius,
    preset_rule,
    robustness_radius,
    sav_radius,
    winner_set,
    winner_sets_equal,
)

from common import random_election


def total_approvals(e):
    return sum(len(b) for b in e.ballots)


class TestAvRadius:
    def test_add_gap(self):
        # scores (4, 2), n = 5: adds must lift candidate 1 to 4
        e = election(2, [[0], [0], [0], [0, 1], [1]])
        assert av_radius(e, 1, "add") == Finite(2)

    def test_add_tie_below_n(self):
        e = election(2, [[0], [0, 1]])
        assert av_radius(e, 1, "add") == Finite(1)

    def test_add_everyone_approves_everyone(self):
        e = election(2, [[0, 1], [0, 1]])
        assert av_radius(e, 1, "add") == Impossible()

    def test_add_tie_at_n(self):
        # both candidates at score n = 2; breaking the tie needs removing one
        # candidate entirely from the committee — only possible via the
        # third candidate climbing: here adds can lift candidate 2 to 2
        e = election(3, [[0, 1], [0, 1]])
        assert av_radius(e, 1, "add") == Finite(2)

    def test_remove_gap(self):
        e = election(2, [[0], [0], [0], [1]])
        assert av_radius(e, 1, "remove") == Finite(2)

    def test_remove_empty(self):
        e = election(2, [[], []])
        assert av_radius(e, 1, "remove") == Impossible()

    def test_swap_half_gap(self):
        # scores (4, 0), n = 4: each swap closes the gap by 2
        e = election(2, [[0], [0], [0], [0]])
        assert av_radius(e, 1, "swap") == Finite(2)

    def test_swap_needs_proper_ballot(self):
        # scores (2, 2, 0): winners tied; a single swap inside a proper
        # ballot changes the committee
        e = election(3, [[0, 1], [0, 1]])
        assert av_radius(e, 1, "swap") == Finite(1)

    def test_k_validation(self):
        e = election(2, [[0]])
        with pytest.raises(ValueError):
            av_radius(e, 0, "add")
        assert av_radius(e, 2, "add") == Impossible()
        with pytest.raises(ValueError):
            av_radius(e, 1, "flip")


class TestSavRadius:
    def test_saturated_add_multiwinner(self):
        # every ballot already holds the two leaders; adds must pour weight
        # onto an outside candidate through dilution — two adds suffice
        e = election(3, [[0, 1], [0, 1]])
        assert sav_radius(e, 1, "add") == Finite(2)

    def test_saturated_add_no_outside_candidate(self):
        e = election(2, [[0, 1], [0, 1]])
        assert sav_radius(e, 1, "add") == Impossible()

    def test_irresolute_single_op(self):
        e = election(2, [[0], [1]])
        assert sav_radius(e, 1, "add") == Finite(1)

    def test_remove_everything_gone(self):
        e = election(2, [[], []])
        assert sav_radius(e, 1, "remove") == Impossible()

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(11)
        rule = None
        for _ in range(200):
            e = random_election(rng, max_m=4, max_n=3, min_m=2, min_n=1)
            k = rng.randint(1, e.m - 1)
            kind = rng.choice(("add", "remove", "swap"))
            rule = preset_rule("sav", k)
            exact = sav_radius(e, k, kind)
            budget = e.n if kind in ("add", "swap") else total_approvals(e)
            brute = oracle_radius(e, k, rule, kind, max_budget=max(budget, 1))
            assert exact == brute, (e, k, kind)

    def test_matches_oracle_on_repeated_ballots(self):
        # many voters share few ballot types, so each pair's votes fall into few (size, x, y) buckets
        rng = random.Random(8110)
        certified = 0
        for _ in range(300):
            m = rng.randint(3, 4)
            types = [[c for c in range(m) if rng.random() < 0.5] for _ in range(rng.randint(2, 3))]
            e = election(m, [rng.choice(types) for _ in range(rng.randint(6, 12))])
            k = rng.randint(1, m - 1)
            kind = rng.choice(("add", "remove", "swap"))
            exact = sav_radius(e, k, kind)
            if isinstance(exact, Finite) and exact.value <= 3:
                assert oracle_radius(e, k, preset_rule("sav", k), kind, max_budget=exact.value) == exact, (e, k, kind)
                certified += 1
            else:  # nothing changes within 3 operations
                assert oracle_radius(e, k, preset_rule("sav", k), kind, max_budget=3) in (ExceedsBound(3), Impossible())
        assert certified >= 180


class TestOracle:
    def test_budget_zero(self):
        e = election(2, [[0]])
        rule = preset_rule("av", 1)
        assert oracle_radius(e, 1, rule, "add", max_budget=0) == ExceedsBound(0)

    def test_refuses_unknown_kind_and_negative_budget(self):
        e = election(2, [[0]])
        rule = preset_rule("av", 1)
        with pytest.raises(ValueError, match="unknown operation kind 'flip'"):
            oracle_radius(e, 1, rule, "flip", max_budget=1)
        with pytest.raises(ValueError, match="max_budget must be nonnegative"):
            oracle_radius(e, 1, rule, "add", max_budget=-1)

    def test_exhaustion_reports_impossible(self):
        e = election(2, [[0, 1], [0, 1]])
        rule = preset_rule("av", 1)
        assert oracle_radius(e, 1, rule, "add", max_budget=5) == Impossible()

    def test_witness_is_replayable(self):
        rng = random.Random(13)
        rule_names = ("av", "sav", "pav", "greedy-cc", "phragmen")
        for _ in range(60):
            e = random_election(rng, max_m=4, max_n=3, min_m=2, min_n=1)
            k = rng.randint(1, e.m - 1)
            kind = rng.choice(("add", "remove", "swap"))
            rule = preset_rule(rng.choice(rule_names), k)
            out = oracle_radius(e, k, rule, kind, max_budget=2)
            if not isinstance(out, Finite):
                continue
            assert out.witness is not None
            assert len(out.witness) == out.value
            after = apply_sequence(e, out.witness)
            assert not winner_sets_equal(
                winner_set(e, k, rule), winner_set(after, k, rule)
            )

    def test_finite_is_minimal(self):
        # at budget r - 1 the oracle must not find a change
        rng = random.Random(17)
        for _ in range(40):
            e = random_election(rng, max_m=3, max_n=3, min_m=2, min_n=1)
            k = rng.randint(1, e.m - 1)
            kind = rng.choice(("add", "remove", "swap"))
            rule = preset_rule("av", k)
            out = oracle_radius(e, k, rule, kind, max_budget=3)
            if not isinstance(out, Finite) or out.value == 0:
                continue
            below = oracle_radius(e, k, rule, kind, max_budget=out.value - 1)
            assert below == ExceedsBound(out.value - 1)

    def test_states_bounded_by_cap(self):
        # AV add radius 3, so budget 2 visits the input and every set of at most two of its 6 add cells
        e = election(3, [[0], [0], [0]])
        rule = preset_rule("pav", 1)
        states = sum(comb(6, d) for d in range(3))
        assert oracle_radius(e, 1, rule, "add", max_budget=2, cap=states) == ExceedsBound(2)
        with pytest.raises(CapExceeded, match=rf"^visiting {states} elections exceeds cap {states - 1}$"):
            oracle_radius(e, 1, rule, "add", max_budget=2, cap=states - 1)


class TestAvAgainstOracle:
    def test_exhaustive_tiny(self):
        from common import all_elections

        rule_cache = {}
        for m in (2, 3):
            for n in (1, 2):
                for e in all_elections(m, n):
                    for k in range(1, m):
                        rule = rule_cache.setdefault(k, preset_rule("av", k))
                        for kind in ("add", "remove", "swap"):
                            exact = av_radius(e, k, kind)
                            brute = oracle_radius(e, k, rule, kind, max_budget=4)
                            if isinstance(exact, Finite) and exact.value <= 4:
                                assert brute == exact, (e, k, kind)
                            elif isinstance(exact, Impossible):
                                assert brute in (Impossible(), ExceedsBound(4))
                            else:
                                assert brute == ExceedsBound(4), (e, k, kind)


class TestSavAgainstOracle:
    def test_every_tiny_election(self):
        """The SAV pair and tie analysis equals a budget-4 search on every election with m <= 4, n <= 3."""
        from common import all_elections

        budget = 4
        checked = 0
        for m in (2, 3, 4):
            rules = {k: preset_rule("sav", k) for k in range(1, m)}
            for n in (0, 1, 2, 3):
                for e in all_elections(m, n):
                    for k in range(1, m):
                        for kind in ("add", "remove", "swap"):
                            exact = sav_radius(e, k, kind)
                            brute = oracle_radius(e, k, rules[k], kind, max_budget=budget)
                            if isinstance(exact, Finite) and exact.value <= budget:
                                assert brute == exact, (e, k, kind)
                            elif isinstance(exact, Impossible):
                                assert brute in (Impossible(), ExceedsBound(budget)), (e, k, kind)
                            else:
                                assert brute == ExceedsBound(budget), (e, k, kind)
                            checked += 1
        assert checked == 43_086


class TestOneCommitteeSizeRule:
    """The radii take the 1 <= k <= m that every question takes; at k = m no operation changes the one committee."""

    TINY = [(m, n) for m in (1, 2, 3) for n in (0, 1, 2, 3)] + [(4, n) for n in (0, 1, 2)]

    @pytest.mark.parametrize("kind", ("add", "remove", "swap"))
    def test_every_candidate_elected_is_impossible(self, kind):
        from common import all_elections

        for m, n in self.TINY:
            rules = [preset_rule(name, m) for name in ("av", "sav")]
            for e in all_elections(m, n):
                assert av_radius(e, m, kind) == Impossible(), e
                assert sav_radius(e, m, kind) == Impossible(), e
                for rule in rules:
                    assert oracle_radius(e, m, rule, kind, max_budget=3) in (Impossible(), ExceedsBound(3)), e

    @pytest.mark.parametrize("kind", ("add", "remove", "swap"))
    def test_k_outside_one_to_m_is_refused(self, kind):
        from common import all_elections

        for m, n in self.TINY:
            for e in all_elections(m, n):
                for k in (0, m + 1):
                    message = rf"^committee size k={k} must satisfy 1 <= k <= m={m}$"
                    for radius in (av_radius, sav_radius):
                        with pytest.raises(ValueError, match=message):
                            radius(e, k, kind)
                    with pytest.raises(ValueError, match=message):
                        oracle_radius(e, k, preset_rule("av", 1), kind, max_budget=3)


def radius_decision(e, k, rule, kind, budget):
    """Whether at most ``budget`` operations of ``kind`` can change the winner set."""
    outcome, _, _ = robustness_radius(e, k, rule, kind, budget=budget)
    return isinstance(outcome, Finite) and outcome.value <= budget


class TestDecision:
    def test_threshold_semantics(self):
        e = election(2, [[0], [0], [0], [0, 1], [1]])  # AV add radius 2
        rule = preset_rule("av", 1)
        assert not radius_decision(e, 1, rule, "add", 0)
        assert not radius_decision(e, 1, rule, "add", 1)
        assert radius_decision(e, 1, rule, "add", 2)
        assert radius_decision(e, 1, rule, "add", 3)

    def test_impossible_is_never_within_budget(self):
        e = election(2, [[0, 1], [0, 1]])
        rule = preset_rule("av", 1)
        assert not radius_decision(e, 1, rule, "add", 100)

    @pytest.mark.parametrize("method", (None, "exact", "oracle"))
    def test_negative_budget_rejected(self, method):
        e = election(2, [[0], [0], [1]])
        with pytest.raises(ValueError, match="budget"):
            robustness_radius(e, 1, preset_rule("av", 1), "add", method=method, budget=-1)

    def test_unknown_method(self):
        e = election(2, [[0], [0], [1]])
        with pytest.raises(ValueError, match="method"):
            robustness_radius(e, 1, preset_rule("av", 1), "add", method="guess", budget=1)
