"""Counting perturbation multisets that keep the AV outcome unchanged."""
from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from mwrobust import (
    av_count_state,
    av_count_unchanged,
    count_unchanged,
    election,
    oracle_count_unchanged,
    preset_rule,
)

from common import all_elections, random_election


class TestExamples:
    def test_add_resolute_survives(self):
        # scores (2, 0, 0), n = 2: a single add can lift c1 or c2 to 1 < 2,
        # so all four add-positions keep the winner
        e = election(3, [[0], [0]])
        out = av_count_unchanged(e, 1, "add", 1)
        assert out.unchanged == 4
        assert out.total == comb(4, 1)
        assert out.probability == Fraction(1)

    def test_add_resolute_budget_two(self):
        # with two adds, lifting both missing approvals of one challenger
        # creates a tie at 2 — only pairs split across c1/c2 survive
        e = election(3, [[0], [0]])
        out = av_count_unchanged(e, 1, "add", 2)
        assert out.unchanged == 4
        assert out.total == comb(4, 2)

    def test_tied_add(self):
        # winners tied (1, 1): any single add breaks the tie or promotes c2
        e = election(3, [[0], [1]])
        assert av_count_unchanged(e, 1, "add", 1).unchanged == 0

    def test_remove(self):
        # scores (2, 1): removals from c0 create a tie; removing c1's
        # approval is the only safe pick
        e = election(2, [[0], [0], [1]])
        out = av_count_unchanged(e, 1, "remove", 1)
        assert out.unchanged == 1
        assert out.total == 3

    def test_full_committee_never_changes(self):
        e = election(3, [[0], [1]])
        out = av_count_unchanged(e, 3, "add", 2)
        assert out.unchanged == out.total == comb(4, 2)

    def test_budget_zero(self):
        e = election(3, [[0], [0]])
        out = av_count_unchanged(e, 1, "add", 0)
        assert out.unchanged == out.total == 1


class TestValidation:
    def test_budget_out_of_range(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError):
            av_count_unchanged(e, 1, "add", -1)
        with pytest.raises(ValueError):
            av_count_unchanged(e, 1, "add", 5)  # only 4 empty slots
        with pytest.raises(ValueError):
            av_count_unchanged(e, 1, "remove", 3)  # only 2 approvals

    def test_bad_kind(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError):
            av_count_unchanged(e, 1, "swap", 1)

    def test_k_range(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError):
            av_count_unchanged(e, 0, "add", 1)
        with pytest.raises(ValueError):
            av_count_unchanged(e, 4, "add", 1)


class TestStateInternals:
    def test_difference_tables_are_consistent(self):
        e = election(3, [[0, 1], [0], [2]])
        state = av_count_state(e, 1, "add", 2)
        for (level, used), ways in state.g.items():
            upper = state.f.get((level + 1, used), 0)
            assert ways == state.f[(level, used)] - upper

    def test_probability(self):
        e = election(3, [[0], [0]])
        rule = preset_rule("av", 1)
        assert count_unchanged(e, 1, rule, "add", 1, method="dp")[0].probability == Fraction(1)
        assert count_unchanged(e, 1, rule, "add", 2, method="dp")[0].probability == Fraction(4, 6)

    def test_probability_oracle_matches(self):
        e = election(3, [[0], [0]])
        rule = preset_rule("av", 1)
        assert count_unchanged(e, 1, rule, "add", 2, method="oracle")[0].probability == Fraction(4, 6)

    def test_dp_requires_av(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError):
            count_unchanged(e, 1, preset_rule("sav", 1), "add", 1, method="dp")

    def test_probability_bad_method(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError):
            count_unchanged(e, 1, preset_rule("av", 1), "add", 1, method="guess")


class TestAgainstOracle:
    def test_exhaustive_small(self):
        for m in (2, 3):
            for n in (1, 2):
                for e in all_elections(m, n):
                    approvals = sum(len(b) for b in e.ballots)
                    for k in range(1, m + 1):
                        for kind in ("add", "remove"):
                            slots = (m * e.n - approvals) if kind == "add" else approvals
                            for budget in range(0, min(slots, 3) + 1):
                                dp = av_count_unchanged(e, k, kind, budget)
                                brute = oracle_count_unchanged(
                                    e, k, preset_rule("av", k), kind, budget
                                )
                                assert dp == brute, (e, k, kind, budget)
                                assert dp.total == comb(slots, budget)

    def test_random_spot_checks(self):
        rng = random.Random(23)
        for _ in range(60):
            e = random_election(rng, max_m=4, max_n=4, min_m=2, min_n=1)
            kind = rng.choice(("add", "remove"))
            approvals = sum(len(b) for b in e.ballots)
            slots = (e.m * e.n - approvals) if kind == "add" else approvals
            if slots == 0:
                continue
            budget = rng.randint(1, min(slots, 3))
            k = rng.randint(1, e.m)
            dp = av_count_unchanged(e, k, kind, budget)
            brute = oracle_count_unchanged(e, k, preset_rule("av", k), kind, budget)
            assert dp == brute, (e, k, kind, budget)
