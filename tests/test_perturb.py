"""Ballot operations, displacement, and the empirical robustness level."""
from __future__ import annotations

import random

import pytest

from mwrobust import (
    Add,
    CapExceeded,
    Remove,
    Swap,
    apply,
    apply_sequence,
    displacement,
    election,
    feasible_operations,
    is_feasible,
    level_argmax,
    op_kind,
    preset_rule,
)

from common import random_election, random_feasible_op


class TestFeasibility:
    def test_membership_rules(self):
        e = election(3, [[0]])
        assert is_feasible(e, Add(0, 1))
        assert not is_feasible(e, Add(0, 0))  # already approved
        assert is_feasible(e, Remove(0, 0))
        assert not is_feasible(e, Remove(0, 1))
        assert is_feasible(e, Swap(0, 0, 2))
        assert not is_feasible(e, Swap(0, 1, 2))  # source not approved
        assert not is_feasible(e, Swap(0, 0, 0))  # target already approved

    def test_range_checks(self):
        e = election(2, [[0]])
        assert not is_feasible(e, Add(1, 1))
        assert not is_feasible(e, Add(0, 2))
        assert not is_feasible(e, Remove(-1, 0))

    def test_op_kind(self):
        assert op_kind(Add(0, 0)) == "add"
        assert op_kind(Remove(0, 0)) == "remove"
        assert op_kind(Swap(0, 0, 1)) == "swap"


class TestApply:
    def test_add(self):
        e = election(3, [[0]])
        assert apply(e, Add(0, 2)).ballots == (frozenset({0, 2}),)

    def test_remove(self):
        e = election(3, [[0, 2]])
        assert apply(e, Remove(0, 2)).ballots == (frozenset({0}),)

    def test_swap_is_remove_plus_add(self):
        rng = random.Random(3)
        for _ in range(200):
            e = random_election(rng, max_m=4, max_n=3, min_m=2, min_n=1)
            swaps = feasible_operations(e, "swap")
            if not swaps:
                continue
            op = swaps[rng.randrange(len(swaps))]
            via_swap = apply(e, op)
            via_two = apply(apply(e, Remove(op.voter, op.source)), Add(op.voter, op.target))
            assert via_swap == via_two

    def test_infeasible_raises(self):
        e = election(2, [[0]])
        with pytest.raises(ValueError):
            apply(e, Add(0, 0))
        with pytest.raises(ValueError):
            apply(e, Remove(0, 1))

    def test_tiebreak_preserved(self):
        e = election(3, [[0]], tiebreak=(2, 1, 0))
        assert apply(e, Add(0, 1)).tiebreak == (2, 1, 0)

    def test_original_untouched(self):
        e = election(2, [[0]])
        apply(e, Add(0, 1))
        assert e.ballots == (frozenset({0}),)

    def test_apply_sequence(self):
        e = election(3, [[]])
        e2 = apply_sequence(e, [Add(0, 0), Add(0, 1), Remove(0, 0)])
        assert e2.ballots == (frozenset({1}),)


class TestFeasibleOperations:
    def test_counts(self):
        e = election(3, [[0], [0, 1, 2], []])
        assert len(feasible_operations(e, "add")) == 2 + 0 + 3
        assert len(feasible_operations(e, "remove")) == 1 + 3 + 0
        assert len(feasible_operations(e, "swap")) == 1 * 2 + 0 + 0

    def test_deterministic_order(self):
        e = election(3, [[1]])
        assert feasible_operations(e, "add") == [Add(0, 0), Add(0, 2)]
        assert feasible_operations(e, "swap") == [Swap(0, 1, 0), Swap(0, 1, 2)]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            feasible_operations(election(2, [[0]]), "flip")


class TestDisplacement:
    def test_no_change_is_zero(self):
        e = election(3, [[0], [0]])
        assert displacement(e, 1, preset_rule("av", 1), Add(0, 1)) == 0

    def test_full_swing(self):
        # one add moves the AV winner from a tie {0},{1} to {1} alone:
        # the displaced committee {0} is one full seat away
        e = election(2, [[0], [1]])
        assert displacement(e, 1, preset_rule("av", 1), Add(0, 1)) == 1

    def test_value_bounded_by_k(self):
        rng = random.Random(5)
        for _ in range(300):
            e = random_election(rng, max_m=5, max_n=4, min_m=1, min_n=0)
            k = rng.randint(1, e.m)
            op = random_feasible_op(rng, e)
            if op is None:
                continue
            rule = preset_rule(rng.choice(("av", "sav", "pav", "greedy-cc", "phragmen")), k)
            assert 0 <= displacement(e, k, rule, op) <= k

    def test_cap_bounds_the_winner_set_enumeration(self):
        # exhaustive PAV enumerates all C(6,3) = 20 committees, above a cap of 5
        e = election(6, [[0, 1, 2]] * 3)
        rule = preset_rule("pav", 3)
        with pytest.raises(CapExceeded):
            displacement(e, 3, rule, Add(0, 3), cap=5)
        with pytest.raises(CapExceeded):
            level_argmax(e, 3, rule, "add", cap=5)
        assert displacement(e, 3, rule, Add(0, 3), cap=20) == 0


class TestLevel:
    def test_level_and_argmax(self):
        e = election(2, [[0], [1]])
        level, op = level_argmax(e, 1, preset_rule("av", 1), "add")
        assert level == 1
        assert op is not None and displacement(e, 1, preset_rule("av", 1), op) == 1
        assert level_argmax(e, 1, preset_rule("av", 1), "add")[0] == 1

    def test_no_feasible_ops(self):
        e = election(2, [[0, 1]])
        assert level_argmax(e, 1, preset_rule("av", 1), "add") == (0, None)
        assert level_argmax(e, 1, preset_rule("av", 1), "add")[0] == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operation kind 'flip'"):
            level_argmax(election(2, [[0]]), 1, preset_rule("av", 1), "flip")
