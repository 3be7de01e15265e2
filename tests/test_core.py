"""Election data model, scores, and the diff matrix."""
from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mwrobust import (
    Election,
    approval_scores,
    committee_score,
    election,
    render_diff_matrix,
    sav_scores,
)
from mwrobust.rules import ThieleVector

from common import random_election


class TestElection:
    def test_basic_shape(self):
        e = election(3, [[0], [0, 2]])
        assert e.m == 3 and e.n == 2
        assert e.ballots == (frozenset({0}), frozenset({0, 2}))

    def test_empty_ballots_and_zero_voters(self):
        assert election(2, [[], []]).n == 2
        assert election(1, []).n == 0

    def test_needs_a_candidate(self):
        with pytest.raises(ValueError):
            election(0, [])

    def test_ballot_out_of_range(self):
        with pytest.raises(ValueError):
            election(2, [[2]])
        with pytest.raises(ValueError):
            election(2, [[-1]])

    def test_tiebreak_must_be_permutation(self):
        election(3, [], tiebreak=(2, 0, 1))
        with pytest.raises(ValueError):
            election(3, [], tiebreak=(0, 1))
        with pytest.raises(ValueError):
            election(3, [], tiebreak=(0, 0, 1))

    def test_priority_defaults_to_index_order(self):
        assert election(3, []).priority() == (0, 1, 2)
        assert election(3, [], tiebreak=(2, 0, 1)).priority() == (2, 0, 1)


class TestElectionNormalisesBallots:
    """``election()`` against its per-voter form: the same ballots, groups order, tie-break and errors."""

    @staticmethod
    def per_voter(m, ballots, tiebreak=None):
        return Election(m, tuple(frozenset(b) for b in ballots), None if tiebreak is None else tuple(tiebreak))

    def test_frozenset_ballot_is_kept(self):
        shared = frozenset({0, 2})
        e = election(3, [shared, [1], shared])
        assert e.ballots[0] is shared and e.ballots[2] is shared

    def test_every_container_gives_the_per_voter_election(self):
        rng = random.Random(2207)
        for _ in range(300):
            m = rng.randint(1, 5)
            ballots = [[c for c in range(m) if rng.random() < 0.5] for _ in range(rng.randint(0, 6))]
            tiebreak = rng.sample(range(m), m) if rng.random() < 0.5 else None
            expected = self.per_voter(m, ballots, tiebreak)
            for form in (list, tuple, set, frozenset):
                e = election(m, [form(b) for b in ballots], tiebreak)
                assert e == expected and list(e.groups.items()) == list(expected.groups.items())
            e = election(m, ((c for c in b) for b in ballots), None if tiebreak is None else iter(tiebreak))
            assert e == expected and list(e.groups.items()) == list(expected.groups.items())

    def test_out_of_range_names_the_first_voter_and_candidate(self):
        message = "ballot of voter 1 mentions candidate 7, not in [0, 3)"
        for ballots in ([[0], [1, 7], [7]], [frozenset({0}), frozenset({7}), frozenset({7, 9})]):
            with pytest.raises(ValueError, match=re.escape(message)):
                election(3, ballots)
            with pytest.raises(ValueError, match=re.escape(message)):
                self.per_voter(3, ballots)


class TestScores:
    def test_approval_scores(self):
        e = election(3, [[0], [0]])
        assert approval_scores(e) == [2, 0, 0]

    def test_sav_splits_each_ballot_equally(self):
        e = election(3, [[0, 1], [0], []])
        assert sav_scores(e) == [Fraction(3, 2), Fraction(1, 2), Fraction(0)]

    def test_empty_ballot_contributes_nothing(self):
        assert sav_scores(election(2, [[]])) == [Fraction(0), Fraction(0)]

    def test_candidate_range_checked(self):
        # scores are read by list index; committee_score refuses what would wrap around or overrun
        e = election(2, [[0]])
        with pytest.raises(ValueError):
            committee_score(e, "av", (2,))
        with pytest.raises(ValueError):
            committee_score(e, "sav", (-1,))


class TestCommitteeScore:
    def test_av_committee_score_sums_approvals(self):
        e = election(3, [[0, 1], [0], [2]])
        assert committee_score(e, "av", (0, 1)) == 3

    def test_sav_committee_score(self):
        e = election(3, [[0, 1], [0], [2]])
        assert committee_score(e, "sav", (0, 2)) == Fraction(1, 2) + 1 + 1

    def test_pav_committee_score(self):
        e = election(2, [[0, 1], [0]])
        assert committee_score(e, ThieleVector.pav(2), (0, 1)) == Fraction(3, 2) + 1

    def test_cc_counts_covered_voters(self):
        e = election(3, [[0], [1], [0, 1], []])
        assert committee_score(e, ThieleVector.cc(2), (0, 1)) == 3

    def test_weight_sequence_accepted(self):
        e = election(2, [[0, 1]])
        assert committee_score(e, (Fraction(1), Fraction(1, 3)), (0, 1)) == Fraction(4, 3)

    def test_av_equals_sum_of_scores(self):
        rng = random.Random(7)
        for _ in range(50):
            e = random_election(rng)
            committee = tuple(sorted(rng.sample(range(e.m), rng.randint(1, e.m))))
            assert committee_score(e, "av", committee) == sum(approval_scores(e)[c] for c in committee)

    def test_weight_vector_covers_the_committee(self):
        e = election(3, [[0, 1]])
        assert committee_score(e, (1, Fraction(1, 2)), (0, 1)) == Fraction(3, 2)
        with pytest.raises(ValueError, match="^weight vector has 1 entries, committee has 2$"):
            committee_score(e, (1,), (0, 1))

    def test_committee_members_validated(self):
        e = election(2, [[0]])
        with pytest.raises(ValueError):
            committee_score(e, "av", (2,))


class TestDiffMatrix:
    def test_golden_small(self):
        before = election(3, [[0], [1, 2]])
        after = election(3, [[0, 1], [1, 2]])
        assert render_diff_matrix(before, after) == "   c0c1c2\nv0  o +  \nv1    o o"

    def test_removal_marked(self):
        before = election(2, [[0, 1]])
        after = election(2, [[1]])
        assert "-" in render_diff_matrix(before, after)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            render_diff_matrix(election(2, [[0]]), election(3, [[0]]))
        with pytest.raises(ValueError):
            render_diff_matrix(election(2, [[0]]), election(2, [[0], [1]]))


@given(st.integers(1, 5), st.data())
def test_scores_are_consistent(m, data):
    n = data.draw(st.integers(0, 4))
    ballots = [data.draw(st.sets(st.integers(0, m - 1))) for _ in range(n)]
    e = election(m, [sorted(b) for b in ballots])
    avs = approval_scores(e)
    savs = sav_scores(e)
    assert sum(avs) == sum(len(b) for b in ballots)
    # SAV total mass equals the number of nonempty ballots
    assert sum(savs) == sum(1 for b in ballots if b)
    for c in range(m):
        assert (avs[c] == 0) == (savs[c] == 0)
