"""Counting perturbation multisets that keep the AV outcome unchanged."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

import mwrobust.counting
from mwrobust import (
    CapExceeded,
    CountOutcome,
    av_count_unchanged,
    count_unchanged,
    election,
    no_cover_rx3c_n2,
    oracle_count_unchanged,
    preset_rule,
    rx3c_to_greedy,
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
        with pytest.raises(ValueError, match=r"^counting supports kinds \('add', 'remove'\), got 'swap'$"):
            oracle_count_unchanged(e, 1, preset_rule("av", 1), "swap", 1)

    def test_k_range(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError):
            av_count_unchanged(e, 0, "add", 1)
        with pytest.raises(ValueError):
            av_count_unchanged(e, 4, "add", 1)


class TestStateInternals:
    def test_probability(self):
        e = election(3, [[0], [0]])
        rule = preset_rule("av", 1)
        assert count_unchanged(e, 1, rule, "add", 1, method="exact")[0].probability == Fraction(1)
        assert count_unchanged(e, 1, rule, "add", 2, method="exact")[0].probability == Fraction(4, 6)

    def test_probability_oracle_matches(self):
        e = election(3, [[0], [0]])
        rule = preset_rule("av", 1)
        assert count_unchanged(e, 1, rule, "add", 2, method="oracle")[0].probability == Fraction(4, 6)

    def test_dp_requires_av(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError):
            count_unchanged(e, 1, preset_rule("sav", 1), "add", 1, method="exact")

    def test_dp_is_not_a_method_name(self):
        e = election(3, [[0], [0]])
        with pytest.raises(ValueError, match="expected 'exact' or 'oracle'"):
            count_unchanged(e, 1, preset_rule("av", 1), "add", 1, method="dp")

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


class TestOracleCap:
    # 14 approvals over 6 candidates and 10 voters: 46 addable cells, C(46, 20) ~ 5.6e12 bundles
    WIDE = election(6, [[0, 1], [0, 1], [0, 2], [1, 3], [0], [1], [2], [4], [5], [5]])

    def test_bundle_count_checked_before_enumerating(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("winner_set called before the bundle count was checked")

        monkeypatch.setattr(mwrobust.counting, "winner_set", no_enumeration)
        rule = preset_rule("pav", 2)
        with pytest.raises(CapExceeded, match=r"^enumerating C\(46,20\) bundles exceeds cap 1000$"):
            oracle_count_unchanged(self.WIDE, 2, rule, "add", 20, cap=1000)
        with pytest.raises(CapExceeded):
            count_unchanged(self.WIDE, 2, rule, "add", 20, method="oracle", cap=1000)
        with pytest.raises(CapExceeded):
            oracle_count_unchanged(self.WIDE, 2, rule, "add", 20)  # the default cap, 10^6, is exceeded too

    @pytest.mark.parametrize("k", (0, 7))
    def test_committee_size_checked_before_the_bundle_count(self, k):
        with pytest.raises(ValueError, match=rf"^committee size k={k} must satisfy 1 <= k <= m=6$"):
            oracle_count_unchanged(self.WIDE, k, preset_rule("pav", 2), "add", 20, cap=1000)

    @pytest.mark.parametrize("budget", (-1, 5))
    def test_budget_outside_the_cells_refused(self, budget):
        e = election(3, [[0], [0]])  # 4 addable cells
        with pytest.raises(ValueError, match=rf"budget {budget} not in \[0, 4\]"):
            oracle_count_unchanged(e, 1, preset_rule("av", 1), "add", budget)

    def test_cap_bounds_the_bundles_inclusively(self):
        e = election(3, [[0], [0]])  # 4 addable cells, C(4, 2) = 6 bundles
        rule = preset_rule("av", 1)
        assert oracle_count_unchanged(e, 1, rule, "add", 2, cap=6) == CountOutcome(4, 6)
        with pytest.raises(CapExceeded, match=r"C\(4,2\) bundles exceeds cap 5"):
            oracle_count_unchanged(e, 1, rule, "add", 2, cap=5)

    def test_cap_checked_before_any_cell_exists(self):
        # the greedy-PAV gadget has 59,296 addable cells: C(59296, 2) ~ 1.8e9 bundles exceed the
        # default cap, and the refusal reads only the cell count, not one object per cell
        gadget = rx3c_to_greedy(no_cover_rx3c_n2(), "pav")
        e, rule = gadget.election, preset_rule("greedy-pav", gadget.k)
        e.ballots
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=r"^enumerating C\(59296,2\) bundles exceeds cap 1000000$"):
                oracle_count_unchanged(e, gadget.k, rule, "add", 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_empty_budget_reads_no_cell(self):
        # one bundle, the empty one: the enumeration must not copy the 59,296 cells to yield it
        gadget = rx3c_to_greedy(no_cover_rx3c_n2(), "pav")
        e, rule = gadget.election, preset_rule("greedy-pav", gadget.k)
        e.ballots
        tracemalloc.start()
        try:
            out = oracle_count_unchanged(e, gadget.k, rule, "add", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == CountOutcome(1, 1)
        assert peak < 1_000_000

    def test_empty_budget_still_bounds_the_base_winner_set(self):
        # C(12, 6) = 924 committees exceed a cap of 100 for an exact Thiele rule, bundles or not
        e = election(12, [[c] for c in range(12)])
        with pytest.raises(CapExceeded):
            oracle_count_unchanged(e, 6, preset_rule("pav", 6), "add", 0, cap=100)
