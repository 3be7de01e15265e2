"""An election's last winner set: ``winner_set`` keeps one answer per ``Election``, and nothing else sees it."""
from __future__ import annotations

import copy
import pickle
import random

import pytest

from mwrobust import (
    OP_KINDS,
    CapExceeded,
    apply,
    displacement,
    election,
    feasible_operations,
    level_argmax,
    no_cover_rx3c_n2,
    preset_rule,
    rx3c_to_greedy,
    rx3c_to_phragmen,
    triple_cover_rx3c,
    winner_set,
)
from mwrobust import rules

from common import all_elections, random_election, random_feasible_op

KERNELS = ("winners_separable", "winners_thiele", "greedy_thiele", "phragmen")


def fresh(e):
    """The same election built anew, so it has asked no question yet."""
    return election(e.m, e.ballots, e.tiebreak)


def reference_displacement(e, k, rule, op, before=None):
    """Displacement from the winners ``before`` (by default those of a fresh copy of ``e``) to those of ``apply(e, op)``."""
    before = before or winner_set(fresh(e), k, rule).committees()
    after = [set(w) for w in winner_set(apply(e, op), k, rule).committees()]
    return max(min(k - len(set(w) & w2) for w2 in after) for w in before)


def outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except (CapExceeded, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def kernel_runs(monkeypatch):
    """A list that gets one entry per rule kernel run."""
    runs = []
    for name in KERNELS:
        kernel = getattr(rules, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            runs.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(rules, name, counted)
    return runs


def tiny_elections():
    for m, max_n in ((1, 3), (2, 3), (3, 3), (4, 2)):
        for n in range(max_n + 1):
            yield from all_elections(m, n)


class TestExhaustive:
    def test_displacement_and_level_match_fresh_elections(self):
        cases = 0
        for e in tiny_elections():
            for name in rules.PRESETS:
                for k in range(1, e.m + 1):
                    rule = preset_rule(name, k)
                    before = winner_set(fresh(e), k, rule).committees()
                    for kind in OP_KINDS:
                        ops = list(feasible_operations(e, kind))
                        expected = [reference_displacement(e, k, rule, op, before) for op in ops]
                        assert [displacement(e, k, rule, op) for op in ops] == expected, (e, name, k, kind)
                        level = max(expected, default=0)
                        argmax = next((op for op, d in zip(ops, expected) if d == level), None)
                        assert level_argmax(e, k, rule, kind) == (level, argmax), (e, name, k, kind)
                        cases += len(ops)
        assert cases > 100_000


class TestQuestionOrder:
    def test_random_sequences_answer_as_fresh_elections(self):
        rng = random.Random(24_001)
        for _ in range(60):
            e = random_election(rng, max_m=5, max_n=6, min_m=2, min_n=1)
            for _ in range(40):
                k = rng.randint(0, e.m + 1)
                name = rng.choice(tuple(rules.PRESETS))
                rule = preset_rule(name, max(k, 1))
                cap = rng.choice((1, 3, 10, rules.DEFAULT_CAP))
                if rng.random() < 0.3 and 1 <= k <= e.m and (op := random_feasible_op(rng, e)) is not None:
                    got = outcome(lambda: displacement(e, k, rule, op, cap))
                    assert got == outcome(lambda: displacement(fresh(e), k, rule, op, cap)), (e, name, k, cap, op)
                else:
                    got = outcome(lambda: winner_set(e, k, rule, cap))
                    assert got == outcome(lambda: winner_set(fresh(e), k, rule, cap)), (e, name, k, cap)

    def test_cap_is_part_of_the_question(self):
        e = election(4, [[0, 1], [2], [1, 3]])
        pav = preset_rule("pav", 2)  # C(4, 2) = 6 committees
        assert winner_set(e, 2, pav, cap=6).count() >= 1
        with pytest.raises(CapExceeded, match="C\\(4,2\\)"):
            winner_set(e, 2, pav, cap=5)
        assert winner_set(e, 2, pav, cap=6) == winner_set(fresh(e), 2, pav)
        with pytest.raises(CapExceeded, match="C\\(4,2\\)"):
            winner_set(e, 2, pav, cap=5)

    def test_a_bad_k_raises_after_a_success(self):
        e = election(3, [[0], [1, 2]])
        for name in rules.PRESETS:
            rule = preset_rule(name, 2)
            winner_set(e, 2, rule)
            for k in (0, 4):
                with pytest.raises(ValueError, match=f"k={k} must satisfy"):
                    winner_set(e, k, rule)
            winner_set(e, 2, rule)
            with pytest.raises(ValueError, match="k=0 must satisfy"):
                displacement(e, 0, rule, next(iter(feasible_operations(e, "add"))))

    def test_a_float_k_is_not_the_int_asked_before(self):
        e = election(3, [[0], [1, 2]])
        av = preset_rule("av", 2)
        winner_set(e, 2, av)
        with pytest.raises(ValueError, match=r"^committee size k=2\.0 must be an integer$"):
            winner_set(e, 2.0, av)


class TestKernelRuns:
    @pytest.mark.parametrize("name", ["phragmen", "pav", "greedy-cc", "sav"])
    def test_a_sweep_runs_one_kernel_per_operation(self, kernel_runs, name):
        e = election(4, [[0, 1], [1], [2, 3], [0, 3], []])
        rule = preset_rule(name, 2)
        ops = list(feasible_operations(e, "add"))
        winner_set(e, 2, rule)
        for op in ops:
            displacement(e, 2, rule, op)
        assert len(kernel_runs) == len(ops) + 1

    def test_one_slot(self, kernel_runs):
        e = election(4, [[0, 1], [1], [2, 3]])
        a, b = preset_rule("pav", 2), preset_rule("phragmen", 2)
        for rule in (a, a, b, a):
            winner_set(e, 2, rule)
        assert kernel_runs == ["winners_thiele", "phragmen", "winners_thiele"]

    def test_an_equal_rule_hits_the_slot(self, kernel_runs):
        e = election(3, [[0, 1], [2]])
        first = winner_set(e, 2, preset_rule("pav", 2))
        assert winner_set(e, 2, preset_rule("pav", 2)) is first
        assert kernel_runs == ["winners_thiele"]

    def test_a_failed_call_keeps_the_slot(self, kernel_runs):
        e = election(4, [[0, 1], [2]])
        pav = preset_rule("pav", 2)
        first = winner_set(e, 2, pav)
        with pytest.raises(CapExceeded):
            winner_set(e, 2, pav, cap=1)
        assert winner_set(e, 2, pav) is first
        assert kernel_runs == ["winners_thiele", "winners_thiele"]


class TestNotState:
    def test_equality_hash_repr_copy_and_pickle_ignore_the_slot(self):
        rng = random.Random(24_002)
        for _ in range(100):
            e = random_election(rng, max_m=5, max_n=5, min_m=2)
            other = fresh(e)
            before = (hash(e), repr(e), pickle.dumps(e), pickle.dumps(copy.copy(e)))
            rule = preset_rule(rng.choice(tuple(rules.PRESETS)), 2)
            ws = winner_set(e, 2, rule)
            assert e == other and other == e
            assert (hash(e), repr(e), pickle.dumps(e), pickle.dumps(copy.copy(e))) == before
            assert pickle.dumps(e) == pickle.dumps(other)
            for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
                assert clone == e and winner_set(clone, 2, rule) == ws


GADGETS = {
    "phragmen": lambda: rx3c_to_phragmen(triple_cover_rx3c(1)),
    "greedy-cc": lambda: rx3c_to_greedy(no_cover_rx3c_n2(), "cc"),
    "greedy-pav": lambda: rx3c_to_greedy(no_cover_rx3c_n2(), "pav"),
}


class TestBenchScale:
    @pytest.mark.parametrize("name", GADGETS)
    def test_gadget_displacements(self, name):
        bundle = GADGETS[name]()
        e, k = bundle.election, bundle.k
        rule = preset_rule(name, k)
        ops = random.Random(24_003).sample(feasible_operations(e, "add"), 30)
        assert [displacement(e, k, rule, op) for op in ops] == [reference_displacement(e, k, rule, op) for op in ops]
