"""The grouped ballot profile: differential checks against voter-indexed rebuilds."""
from __future__ import annotations

import dataclasses
import pickle
import random
import tracemalloc
from collections import Counter
from copy import deepcopy
from fractions import Fraction

import pytest

from mwrobust import (
    Add,
    Election,
    Remove,
    ThieleVector,
    apply,
    apply_sequence,
    approval_score,
    committee_score,
    displacement,
    election,
    feasible_operations,
    is_feasible,
    level_argmax,
    oracle_count_unchanged,
    oracle_radius,
    preset_rule,
    render_diff_matrix,
    sav_score,
    winner_set,
)
from mwrobust import perturb
from mwrobust.core import _Profile

from common import random_feasible_op

PRESETS = ("av", "sav", "cc", "pav", "greedy-cc", "greedy-pav", "phragmen")


def duplicated_election(rng: random.Random, with_tiebreak: bool) -> Election:
    """A small election drawing its ballots from a few types, so groups have several voters."""
    m = rng.randint(2, 5)
    types = [[c for c in range(m) if rng.random() < 0.5] for _ in range(rng.randint(1, 3))]
    ballots = [rng.choice(types) for _ in range(rng.randint(1, 7))]
    tiebreak = rng.sample(range(m), m) if with_tiebreak else None
    return election(m, ballots, tiebreak=tiebreak)


def edited_ballots(e: Election, op) -> list[set[int]]:
    ballots = [set(b) for b in e.ballots]
    ballot = ballots[op.voter]
    if isinstance(op, Add):
        ballot.add(op.candidate)
    elif isinstance(op, Remove):
        ballot.discard(op.candidate)
    else:
        ballot.discard(op.source)
        ballot.add(op.target)
    return ballots


def reference_displacement(e: Election, k: int, rule, op) -> int:
    """The displacement definition, with the perturbed election built from scratch."""
    after_election = Election(e.num_candidates, tuple(frozenset(b) for b in edited_ballots(e, op)), e.tiebreak)
    before = winner_set(e, k, rule).committees()
    after = winner_set(after_election, k, rule).committees()
    return max(min(k - len(set(w) & set(w2)) for w2 in after) for w in before)


def reference_level(e: Election, k: int, rule, kind: str):
    """First maximiser in (voter, candidate) order over every feasible operation."""
    level, argmax = 0, None
    for op in feasible_operations(e, kind):
        d = reference_displacement(e, k, rule, op)
        if d > level or argmax is None:
            level, argmax = d, op
    return level, argmax


@pytest.mark.parametrize("with_tiebreak", (False, True))
class TestAgainstRebuilds:
    def test_groups_count_ballots(self, with_tiebreak):
        rng = random.Random(3001 + with_tiebreak)
        for _ in range(200):
            e = duplicated_election(rng, with_tiebreak)
            assert e.groups == Counter(e.ballots)

    def test_apply_matches_rebuild(self, with_tiebreak):
        rng = random.Random(3011 + with_tiebreak)
        for _ in range(300):
            e = duplicated_election(rng, with_tiebreak)
            for _ in range(4):  # chains compose the group deltas
                op = random_feasible_op(rng, e)
                if op is None:
                    break
                child = apply(e, op)
                assert child == election(e.m, edited_ballots(e, op), tiebreak=e.tiebreak)
                assert child.groups == Counter(child.ballots)
                assert e.groups == Counter(e.ballots)  # the parent is untouched
                e = child

    def test_displacement_matches_definition(self, with_tiebreak):
        rng = random.Random(3021 + with_tiebreak)
        for _ in range(150):
            e = duplicated_election(rng, with_tiebreak)
            op = random_feasible_op(rng, e)
            if op is None:
                continue
            k = rng.randint(1, e.m)
            rule = preset_rule(rng.choice(PRESETS), k)
            assert displacement(e, k, rule, op) == reference_displacement(e, k, rule, op)

    def test_level_argmax_matches_voter_loop(self, with_tiebreak):
        rng = random.Random(3031 + with_tiebreak)
        for _ in range(60):
            e = duplicated_election(rng, with_tiebreak)
            k = rng.randint(1, e.m)
            for name in PRESETS:
                rule = preset_rule(name, k)
                for kind in ("add", "remove", "swap"):
                    assert level_argmax(e, k, rule, kind) == reference_level(e, k, rule, kind)


def test_level_argmax_evaluates_each_ballot_type_once(monkeypatch):
    e = election(4, [[0], [1, 2], [0], [0], [1, 2], [3]])
    calls = []
    monkeypatch.setattr(perturb, "winner_set", lambda *args: calls.append(args[0]) or winner_set(*args))
    level_argmax(e, 2, preset_rule("pav", 2), "add")
    distinct_pairs = 3 + 2 + 3  # add cells of {0}, {1, 2} and {3}
    assert len(calls) == 1 + distinct_pairs


class TestGroupsAreDerived:
    def test_invalid_ballot_names_first_voter_and_candidate(self):
        with pytest.raises(ValueError, match=r"^ballot of voter 1 mentions candidate 5, not in \[0, 3\)$"):
            election(3, [[0], [1, 5], [0], [5, 1]])
        with pytest.raises(ValueError, match="ballot of voter 2 mentions candidate -1"):
            election(2, [[0], [0], [-1]])

    def test_not_part_of_equality_hash_or_repr(self):
        e = election(3, [[0, 1], [2], [0, 1]], tiebreak=(2, 0, 1))
        same = election(3, [[1, 0], [2], [0, 1]], tiebreak=(2, 0, 1))
        assert e == same and hash(e) == hash(same)
        assert "groups" not in repr(e)
        assert [f.name for f in dataclasses.fields(Election)] == ["num_candidates", "ballots", "tiebreak"]

    def test_survives_replace_and_pickle(self):
        e = election(3, [[0, 1], [2], [0, 1]])
        replaced = dataclasses.replace(e, ballots=(frozenset({2}),))
        assert replaced.groups == {frozenset({2}): 1}
        child = apply_sequence(e, [Add(1, 0), Remove(0, 1)])
        copy = pickle.loads(pickle.dumps(child))
        assert copy == child and copy.groups == Counter(child.ballots)


class TestUnreadChildren:
    """A fresh ``apply`` child, first read through the attribute under test, matches the rebuilt election."""

    @staticmethod
    def cases(seed: int, count: int = 150):
        """(parent, feasible op, the child rebuilt by ``election``, rng) for small random elections."""
        rng = random.Random(seed)
        for _ in range(count):
            e = duplicated_election(rng, with_tiebreak=rng.random() < 0.5)
            op = random_feasible_op(rng, e)
            if op is not None:
                yield e, op, election(e.m, edited_ballots(e, op), tiebreak=e.tiebreak), rng

    def test_equality_hash_repr_and_fields(self):
        for e, op, rebuilt, _ in self.cases(3061):
            assert apply(e, op) == rebuilt
            assert rebuilt == apply(e, op)
            assert hash(apply(e, op)) == hash(rebuilt)
            assert repr(apply(e, op)) == repr(rebuilt)
            child = apply(e, op)
            assert [getattr(child, f.name) for f in dataclasses.fields(child)] == [
                rebuilt.num_candidates,
                rebuilt.ballots,
                rebuilt.tiebreak,
            ]
            assert child.groups == rebuilt.groups

    def test_replace_pickle_and_deepcopy(self):
        for e, op, rebuilt, _ in self.cases(3071):
            for copied in (
                dataclasses.replace(apply(e, op)),
                pickle.loads(pickle.dumps(apply(e, op))),
                deepcopy(apply(e, op)),
            ):
                assert copied == rebuilt and copied.groups == rebuilt.groups
            replaced = dataclasses.replace(apply(e, op), tiebreak=None)
            assert replaced == dataclasses.replace(rebuilt, tiebreak=None)

    def test_readers_see_the_edited_tuple(self):
        for e, op, rebuilt, rng in self.cases(3081):
            assert apply(e, op).n == rebuilt.n
            probe = random_feasible_op(rng, rebuilt)
            if probe is not None:
                assert is_feasible(apply(e, op), probe)
                grandchild = apply(apply(e, op), probe)
                assert grandchild == apply(rebuilt, probe) and grandchild.groups == Counter(grandchild.ballots)
            assert is_feasible(apply(e, op), op) == is_feasible(rebuilt, op)
            assert render_diff_matrix(e, apply(e, op)) == render_diff_matrix(e, rebuilt)
            assert render_diff_matrix(apply(e, op), e) == render_diff_matrix(rebuilt, e)


def no_election(self):
    raise AssertionError("a search built a child election")


class TestScoredFromCounts:
    """Displacement, level, the radius search and the counting oracle score ballot counts, never a child election."""

    def test_profiles_score_like_rebuilt_elections(self):
        rng = random.Random(3101)
        for _ in range(150):
            e = duplicated_election(rng, with_tiebreak=rng.random() < 0.5)
            op = random_feasible_op(rng, e)
            k = rng.randint(1, e.m)
            for name in PRESETS:
                rule = preset_rule(name, k)
                assert winner_set(_Profile(e.m, e.groups, e.tiebreak), k, rule) == winner_set(e, k, rule)
                if op is not None:
                    rebuilt = election(e.m, edited_ballots(e, op), tiebreak=e.tiebreak)
                    assert winner_set(perturb._perturbed(e, op), k, rule) == winner_set(rebuilt, k, rule)

    def test_counting_oracle_builds_no_child(self, monkeypatch):
        e = election(4, [[0], [1, 2], [0], [0, 3], [1, 2], [3]], tiebreak=(3, 1, 0, 2))
        cases = [(name, kind) for name in PRESETS for kind in ("add", "remove")]
        expected = [oracle_count_unchanged(e, 2, preset_rule(name, 2), kind, 2) for name, kind in cases]

        monkeypatch.setattr(Election, "__post_init__", no_election)
        assert [oracle_count_unchanged(e, 2, preset_rule(name, 2), kind, 2) for name, kind in cases] == expected

    def test_searches_build_no_child(self, monkeypatch):
        e = election(4, [[0], [1, 2], [0], [0, 3], [1, 2], [3]], tiebreak=(3, 1, 0, 2))
        searches = [
            (search, preset_rule(name, 2), kind)
            for search in (
                lambda rule, kind: oracle_radius(e, 2, rule, kind, 2),
                lambda rule, kind: displacement(e, 2, rule, feasible_operations(e, kind)[0]),
                lambda rule, kind: level_argmax(e, 2, rule, kind),
            )
            for name in PRESETS
            for kind in ("add", "remove", "swap")
        ]
        expected = [search(rule, kind) for search, rule, kind in searches]
        monkeypatch.setattr(Election, "__post_init__", no_election)
        assert [search(rule, kind) for search, rule, kind in searches] == expected

    def test_displacement_and_level_copy_no_voter_tuple(self):
        halves = (frozenset({0}), frozenset({1, 2}))
        e = Election(3, (halves[0],) * 100_000 + (halves[1],) * 100_000)
        rule = preset_rule("av", 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            drift = displacement(e, 1, rule, Add(0, 1))
            level = level_argmax(e, 1, rule, "add")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # a copy of the tuple alone is 1.6 MB
        assert drift == 1 and level == (1, Add(0, 1))  # all three candidates tie at 100,000 approvals


def reference_committee_score(e: Election, scoring, committee) -> Fraction:
    """``committee_score`` summed voter by voter."""
    members = set(committee)
    if scoring == "av":
        return sum(len(ballot & members) for ballot in e.ballots)
    if scoring == "sav":
        return sum((Fraction(len(ballot & members), len(ballot)) for ballot in e.ballots if ballot), Fraction(0))
    weights = scoring.weights
    return sum((sum(weights[: len(ballot & members)], Fraction(0)) for ballot in e.ballots), Fraction(0))


def reference_diff_row(before: Election, after: Election, v: int) -> str:
    """One voter's row of ``render_diff_matrix``, rendered cell by cell."""
    old, new = before.ballots[v], after.ballots[v]
    width = max(2, len(str(before.m - 1)) + 1)
    cells = ("o" if c in old and c in new else "-" if c in old else "+" if c in new else " " for c in range(before.m))
    return f"v{v} ".ljust(len(str(max(before.n - 1, 0))) + 2) + "".join(cell.rjust(width) for cell in cells)


class TestPerVoterDefinitions:
    def test_scores_weight_each_ballot_type_by_its_count(self):
        rng = random.Random(3041)
        for _ in range(200):
            e = duplicated_election(rng, with_tiebreak=False)
            for c in range(e.m):
                assert approval_score(e, c) == sum(1 for ballot in e.ballots if c in ballot)
                assert sav_score(e, c) == sum(
                    (Fraction(1, len(ballot)) for ballot in e.ballots if c in ballot), Fraction(0)
                )
            committee = rng.sample(range(e.m), rng.randint(1, e.m))
            for scoring in ("av", "sav", ThieleVector.pav(e.m), ThieleVector.cc(e.m)):
                assert committee_score(e, scoring, committee) == reference_committee_score(e, scoring, committee)

    def test_diff_rows_rendered_once_per_ballot_pair(self):
        rng = random.Random(3051)
        for _ in range(200):
            before = duplicated_election(rng, with_tiebreak=False)
            after = before
            for _ in range(rng.randint(0, 3)):
                op = random_feasible_op(rng, after)
                if op is not None:
                    after = apply(after, op)
            lines = render_diff_matrix(before, after).split("\n")
            assert lines[1:] == [reference_diff_row(before, after, v) for v in range(before.n)]
