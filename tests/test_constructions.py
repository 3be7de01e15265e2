"""Witness elections, reduction gadgets, and their reference solvers."""
from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from mwrobust import (
    BipartiteGraph,
    RX3CInstance,
    X3CInstance,
    apply,
    count_perfect_matchings,
    covered_x3c_example,
    displacement,
    matching_to_sav_counting,
    no_cover_rx3c_n2,
    parse_graph,
    parse_x3c,
    phragmen_reduction_timepoints,
    preset_rule,
    rx3c_to_greedy,
    rx3c_to_phragmen,
    sav_add_witness,
    sav_remove_witness,
    sav_scores,
    serialize_graph,
    serialize_x3c,
    shortcut_yes_instance,
    solve_exact_cover,
    thiele_witness,
    triple_cover_rx3c,
    uncoverable_x3c_example,
    winner_set,
    winner_sets_equal,
    x3c_to_thiele,
)


class TestInstanceTypes:
    def test_x3c_validation(self):
        X3CInstance(3, (frozenset({0, 1, 2}),))
        with pytest.raises(ValueError):
            X3CInstance(4, ())
        with pytest.raises(ValueError):
            X3CInstance(3, (frozenset({0, 1}),))
        with pytest.raises(ValueError):
            X3CInstance(3, (frozenset({0, 1, 3}),))

    def test_rx3c_validation(self):
        triple_cover_rx3c(1)
        with pytest.raises(ValueError):  # wrong set count
            RX3CInstance(3, (frozenset({0, 1, 2}),))
        with pytest.raises(ValueError):  # element degrees not all 3
            RX3CInstance(
                6,
                (
                    frozenset({0, 1, 2}),
                    frozenset({0, 1, 2}),
                    frozenset({0, 1, 2}),
                    frozenset({3, 4, 5}),
                    frozenset({3, 4, 5}),
                    frozenset({0, 4, 5}),
                ),
            )

    def test_graph_validation(self):
        g = BipartiteGraph(2, 2, ((0, 0), (1, 1)))
        assert g.degree("left", 0) == 1
        with pytest.raises(ValueError):
            BipartiteGraph(0, 1, ())
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, ((0, 2),))
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, ((0, 0), (0, 0)))


class TestFileFormats:
    def test_x3c_round_trip(self):
        inst = covered_x3c_example()
        assert parse_x3c(serialize_x3c(inst)) == inst

    def test_x3c_comments_and_errors(self):
        inst = parse_x3c("# header\nuniverse 3\nset 0 1 2  # the only set\n")
        assert inst.universe_size == 3
        with pytest.raises(ValueError):
            parse_x3c("set 0 1 2\n")  # no universe line
        with pytest.raises(ValueError):
            parse_x3c("universe 3\nuniverse 3\n")
        with pytest.raises(ValueError):
            parse_x3c("universe 3\ncover 0 1 2\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_x3c("universe\nset 0 1 2\n")  # size missing
        with pytest.raises(ValueError, match="line 2: expected an integer, got 'x'"):
            parse_x3c("universe 3\nset 0 1 x\n")
        with pytest.raises(ValueError, match="^line 1: expected an integer, got '\\+6'$"):
            parse_x3c("universe +6\nset 0 1 2\n")
        with pytest.raises(ValueError, match="^line 2: expected an integer, got '\u0665'$"):
            parse_x3c("universe 6\nset 3 4 \u0665\n")

    def test_graph_round_trip(self):
        g = BipartiteGraph(2, 3, ((0, 0), (0, 2), (1, 1)))
        assert parse_graph(serialize_graph(g)) == g

    def test_graph_errors(self):
        with pytest.raises(ValueError):
            parse_graph("left 2\nedge 0 0\n")
        with pytest.raises(ValueError):
            parse_graph("left 2\nright 2\nvertex 0\n")
        for text, lineno in (("left\nright 2\n", 1), ("left 2\nright\n", 2), ("left 2\nright 2\nedge 1\n", 3)):
            with pytest.raises(ValueError, match=f"line {lineno}"):
                parse_graph(text)
        with pytest.raises(ValueError, match="line 3: expected an integer, got 'x'"):
            parse_graph("left 2\nright 2\nedge 0 x\n")
        with pytest.raises(ValueError, match="^line 1: expected an integer, got '0_2'$"):
            parse_graph("left 0_2\nright 2\n")


class TestExactCoverSolver:
    def test_covered_example(self):
        inst = covered_x3c_example()
        cover = solve_exact_cover(inst)
        assert cover is not None
        chosen = [inst.sets[j] for j in cover]
        assert len(cover) == inst.cover_size
        assert frozenset().union(*chosen) == frozenset(range(inst.universe_size))
        assert sum(len(s) for s in chosen) == inst.universe_size  # pairwise disjoint

    def test_uncoverable_example(self):
        assert solve_exact_cover(uncoverable_x3c_example()) is None

    def test_triple_cover(self):
        assert solve_exact_cover(triple_cover_rx3c(1)) == (0,)
        cover = solve_exact_cover(triple_cover_rx3c(2))
        assert cover is not None and len(cover) == 2

    def test_no_cover_fixture_is_certified(self):
        inst = no_cover_rx3c_n2()
        assert isinstance(inst, RX3CInstance)
        assert solve_exact_cover(inst) is None


class TestMatchingCounter:
    def test_cycle(self):
        g = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert count_perfect_matchings(g) == 2

    def test_complete_3_3(self):
        g = BipartiteGraph(3, 3, tuple((u, v) for u in range(3) for v in range(3)))
        assert count_perfect_matchings(g) == 6

    def test_no_matching(self):
        g = BipartiteGraph(2, 2, ((0, 0), (1, 0)))
        assert count_perfect_matchings(g) == 0

    def test_unbalanced(self):
        with pytest.raises(ValueError):
            count_perfect_matchings(BipartiteGraph(2, 3, ()))


class TestSavWitnesses:
    def test_add_structure(self):
        bundle = sav_add_witness(3)
        assert bundle.election.m == 6
        assert bundle.election.n == 2
        assert len(bundle.labels) == bundle.election.m
        assert bundle.op is not None

    def test_add_displacement(self):
        bundle = sav_add_witness(2)
        rule = preset_rule("sav", bundle.k)
        assert displacement(bundle.election, bundle.k, rule, bundle.op) == 2

    def test_remove_structure(self):
        bundle = sav_remove_witness(2)
        assert bundle.election.m == 14
        assert bundle.election.n == 3

    def test_remove_displacement(self):
        bundle = sav_remove_witness(2)
        rule = preset_rule("sav", bundle.k)
        assert displacement(bundle.election, bundle.k, rule, bundle.op) == 2

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            sav_add_witness(1)
        with pytest.raises(ValueError):
            sav_remove_witness(0)


class TestThieleWitness:
    def test_structure(self):
        bundle = thiele_witness(3, "add")
        assert bundle.election.m == 6
        assert bundle.election.n == 10  # 3x3 grid plus pivot
        assert bundle.group_count("grid") == 9
        assert bundle.election.tiebreak == (3, 4, 5, 0, 1, 2)

    def test_all_kinds_land_on_the_same_election(self):
        panels = [thiele_witness(3, kind) for kind in ("add", "remove", "swap")]
        after = [apply(b.election, b.op) for b in panels]
        assert after[0] == after[1] == after[2]

    def test_pav_flip(self):
        bundle = thiele_witness(2, "swap")
        rule = preset_rule("pav", 2)
        before = winner_set(bundle.election, 2, rule)
        after = winner_set(apply(bundle.election, bundle.op), 2, rule)
        assert not winner_sets_equal(before, after)

    def test_validation(self):
        with pytest.raises(ValueError):
            thiele_witness(1, "add")
        with pytest.raises(ValueError, match="^instance would materialise 9000001 voters"):
            thiele_witness(3000, "add")  # k^2 + 1 voters
        with pytest.raises(ValueError, match="^instance would materialise 2000002 candidates"):
            sav_add_witness(1_000_001)
        with pytest.raises(ValueError):
            thiele_witness(3, "flip")


class TestX3CToThiele:
    def test_shape(self):
        inst = covered_x3c_example()
        bundle = x3c_to_thiele(inst, Fraction(1, 2), "swap")
        assert bundle.info["ell"] == 6
        assert bundle.election.m == 6
        assert bundle.election.n == 104
        assert bundle.k == 2
        assert bundle.group_count("pivot") == 2
        assert x3c_to_thiele(inst, Fraction(1, 2), "add").group_count("pivot") == 1

    def test_alpha_validation(self):
        inst = covered_x3c_example()
        with pytest.raises(ValueError):
            x3c_to_thiele(inst, Fraction(1), "add")
        with pytest.raises(ValueError):
            x3c_to_thiele(inst, Fraction(-1, 2), "add")

    def test_fewer_sets_than_cover_slots(self):
        inst = X3CInstance(6, (frozenset({0, 1, 2}),))  # a cover of 6 elements needs 2 sets
        with pytest.raises(ValueError, match="fewer sets than cover slots"):
            x3c_to_thiele(inst, Fraction(1, 2), "add")

    def test_voter_limit(self):
        inst = covered_x3c_example()
        assert x3c_to_thiele(inst, Fraction(1, 2), "swap", max_voters=104).election.n == 104
        with pytest.raises(ValueError, match="103"):
            x3c_to_thiele(inst, Fraction(1, 2), "add", max_voters=102)


def greedy_group_audit(bundle, inst, variant):
    n = inst.cover_size
    T, t = bundle.info["T"], bundle.info["t"]
    assert T == 10 * n**5 and t == 10 * n**3
    assert bundle.group_count("set-singleton") == 3 * n * T
    assert bundle.group_count("set-pair") == comb(3 * n, 2) * T
    expected_pd = 2 * n * T + 4 * n * t
    if variant == "pav":
        expected_pd += n * T // 2
    assert bundle.group_count("p-and-d") == expected_pd
    assert bundle.group_count("element") == 3 * n * t
    if variant == "pav":
        assert bundle.group_count("p-only") == 3 * n * t // 2


class TestGreedyReduction:
    def test_n1_audits(self):
        inst = triple_cover_rx3c(1)
        for variant in ("cc", "pav"):
            bundle = rx3c_to_greedy(inst, variant)
            greedy_group_audit(bundle, inst, variant)
            assert bundle.k == 4
            assert bundle.budget == 1
            assert bundle.group_count("padding") == 1

    def test_n1_totals(self):
        inst = triple_cover_rx3c(1)
        assert rx3c_to_greedy(inst, "cc").election.n == 151
        assert rx3c_to_greedy(inst, "pav").election.n == 171

    def test_n2_audits(self):
        inst = no_cover_rx3c_n2()
        cc = rx3c_to_greedy(inst, "cc")
        pav = rx3c_to_greedy(inst, "pav")
        greedy_group_audit(cc, inst, "cc")
        greedy_group_audit(pav, inst, "pav")
        assert cc.election.n == 9122
        assert pav.election.n == 9682
        assert not cc.info["selects_p"]

    def test_padding_variants(self):
        inst = triple_cover_rx3c(1)
        rem = rx3c_to_greedy(inst, "cc", kind="remove")
        assert rem.group_count("padding") == 3
        assert rem.budget == 2
        swap = rx3c_to_greedy(inst, "cc", kind="swap")
        assert swap.group_count("padding") == 1
        assert swap.budget == 1
        assert swap.election.m == 6  # three sets, p, d, one dummy

    def test_voter_limit(self):
        with pytest.raises(ValueError):
            rx3c_to_greedy(no_cover_rx3c_n2(), "cc", max_voters=100)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            rx3c_to_greedy(triple_cover_rx3c(1), "chamberlin")


class TestPhragmenReduction:
    def test_n1_groups(self):
        bundle = rx3c_to_phragmen(triple_cover_rx3c(1))
        assert bundle.group_count("set-singleton") == 2700
        assert bundle.group_count("element") == 2700
        assert bundle.group_count("p-and-d") == 3540
        assert bundle.group_count("p-only") == 5
        assert bundle.group_count("padding") == 1
        assert bundle.election.n == 8946
        assert bundle.k == 4

    def test_n2_exceeds_default_limit(self):
        with pytest.raises(ValueError):
            rx3c_to_phragmen(no_cover_rx3c_n2())

    def test_timepoints_n1(self):
        tp = phragmen_reduction_timepoints(1)
        assert tp.a == Fraction(1, 3600)
        assert tp.b_pd == Fraction(1, 3540)
        assert tp.b_p == Fraction(1, 3545)
        assert tp.b_d == Fraction(1, 3550)
        assert tp.d_point == Fraction(1, 900)

    def test_timepoint_order(self):
        for n in range(1, 5):
            tp = phragmen_reduction_timepoints(n)
            assert tp.a < tp.b_pd < tp.c < tp.d_point
            assert tp.b_d < tp.b_p
            assert tp.x < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            phragmen_reduction_timepoints(0)


class TestMatchingGadget:
    def setup_method(self):
        self.cycle = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))

    def test_add_shape(self):
        bundle = matching_to_sav_counting(self.cycle, "add")
        assert bundle.election.m == 12
        assert bundle.election.n == 12
        assert bundle.info["dummy_count"] == 8
        assert bundle.info["expected_unchanged"] == 128
        assert bundle.info["matchings"] == 2

    def test_remove_shape(self):
        bundle = matching_to_sav_counting(self.cycle, "remove")
        assert bundle.election.m == 84
        assert bundle.election.n == 28
        assert bundle.info["dummy_count"] == 80
        assert bundle.info["expected_unchanged"] == 8

    def test_vertex_scores_are_uniform(self):
        for mode in ("add", "remove"):
            e = matching_to_sav_counting(self.cycle, mode).election
            scores = sav_scores(e)
            assert all(scores[c] == 2 for c in range(4))
            assert all(scores[c] < 2 for c in range(4, e.m))

    def test_validation(self):
        with pytest.raises(ValueError):
            matching_to_sav_counting(self.cycle, "swap")
        with pytest.raises(ValueError):
            matching_to_sav_counting(BipartiteGraph(2, 3, ()), "add")
        with pytest.raises(ValueError):
            matching_to_sav_counting(BipartiteGraph(1, 1, ((0, 0),)), "add")

    @pytest.mark.parametrize("mode", ["add", "remove"])
    @pytest.mark.parametrize("graph", [
        BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1))),
        BipartiteGraph(3, 3, ((0, 1), (1, 2), (2, 0))),
        BipartiteGraph(3, 3, ()),
    ])
    def test_size_limit_is_exact(self, graph, mode):
        e = matching_to_sav_counting(graph, mode).election
        assert matching_to_sav_counting(graph, mode, max_voters=max(e.n, e.m)).election == e
        with pytest.raises(ValueError, match=f"^instance would materialise {e.n} voters"):
            matching_to_sav_counting(graph, mode, max_voters=e.n - 1)
        if e.m > e.n:
            with pytest.raises(ValueError, match=f"^instance would materialise {e.m} candidates"):
                matching_to_sav_counting(graph, mode, max_voters=e.m - 1)

    def test_size_checked_before_building(self):
        # 55,296 voters, under the default limit, but about 32 million dummy candidates
        with pytest.raises(ValueError, match="candidates, above the limit of 2000000$"):
            matching_to_sav_counting(BipartiteGraph(24, 24, ()), "remove")


class TestShortcut:
    def test_op_always_changes_the_committee(self):
        bundle = shortcut_yes_instance()
        after = apply(bundle.election, bundle.op)
        for name in ("av", "sav", "pav", "greedy-cc", "phragmen"):
            rule = preset_rule(name, 1)
            assert not winner_sets_equal(
                winner_set(bundle.election, 1, rule), winner_set(after, 1, rule)
            )
