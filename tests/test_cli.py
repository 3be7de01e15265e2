"""The command-line interface: file formats, JSON contracts, exit codes."""
from __future__ import annotations

import argparse
import json
import tracemalloc

import pytest

from mwrobust import (
    DEFAULT_MAX_VOTERS,
    covered_x3c_example,
    election,
    rx3c_to_phragmen,
    serialize_graph,
    serialize_x3c,
    triple_cover_rx3c,
    BipartiteGraph,
    ThieleVector,
)
from mwrobust import cli, rules
from mwrobust.cli import (
    INLINE_VOTER_LIMIT,
    _int_json,
    _jsonable,
    build_parser,
    main,
    parse_election,
    run,
    serialize_election,
)

SMALL = "m 3 n 2\n# leading comment\n0: 0 2\n1:\n"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip().startswith("{") else captured.out
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, payload, err


@pytest.fixture
def small_path(tmp_path):
    path = tmp_path / "small.elec"
    path.write_text(SMALL)
    return str(path)


class TestElectionFormat:
    def test_parse(self):
        e = parse_election(SMALL)
        assert e.m == 3
        assert e.ballots == (frozenset({0, 2}), frozenset())

    def test_round_trip_with_tiebreak(self):
        e = election(3, [[0, 2], []], tiebreak=(2, 0, 1))
        assert parse_election(serialize_election(e)) == e

    def test_voter_lines_any_order(self):
        e = parse_election("m 2 n 2\n1: 1\n0: 0\n")
        assert e.ballots == (frozenset({0}), frozenset({1}))

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_election("0: 1\n")  # header missing
        with pytest.raises(ValueError):
            parse_election("m 2 n 1\n0: 0\n0: 1\n")  # duplicate voter
        with pytest.raises(ValueError):
            parse_election("m 2 n 2\n0: 0\n")  # voter 1 missing
        with pytest.raises(ValueError):
            parse_election("m 2 n 1\n0: 1 0\n")  # not increasing
        with pytest.raises(ValueError):
            parse_election("m 2 n 1\n0: 0\ntiebreak: 0 1\ntiebreak: 1 0\n")
        with pytest.raises(ValueError):
            parse_election("m 2 n 1\n0 0\n")  # ballot line without colon
        with pytest.raises(ValueError):
            parse_election("m 3 n -1\n")  # negative voter count
        with pytest.raises(ValueError, match="line 1: expected an integer, got 'x'"):
            parse_election("m x n 2\n")
        with pytest.raises(ValueError, match="line 2: expected an integer, got 'x'"):
            parse_election("m 2 n 1\nx: 0\n")
        # int() alone would read these as voter 0 approving candidate 10, resp. 1
        with pytest.raises(ValueError, match="^line 2: expected an integer, got '0_0'$"):
            parse_election("m 11 n 1\n0_0: 1_0\n")
        with pytest.raises(ValueError, match="^line 2: expected an integer, got '\u0660'$"):
            parse_election("m 2 n 1\n\u0660: +1\n")
        with pytest.raises(ValueError, match="^line 2: expected an integer, got '\\+1'$"):
            parse_election("m 2 n 1\n0: +1\n")
        with pytest.raises(ValueError, match="^line 1: expected an integer, got '\\+2'$"):
            parse_election("m +2 n 1\n0: 1\n")
        with pytest.raises(ValueError, match="^line 3: expected '<voter>: <candidates>'$"):
            parse_election("m 3 n 1\n0: 0\ntiebreak\n")  # a tiebreak line needs its colon
        with pytest.raises(ValueError, match="^line 4: expected '<voter>: <candidates>'$"):
            parse_election("m 3 n 1\n0: 0\ntiebreak: 0 1 2\ntiebreak\n")

    def test_repeated_bad_line_reported_at_first_occurrence(self):
        with pytest.raises(ValueError, match="^line 3: candidate indices must be strictly increasing$"):
            parse_election("m 3 n 3\n0: 0 1\n1: 2 1\n2: 2 1\n")
        with pytest.raises(ValueError, match="^line 2: expected an integer, got 'y'$"):
            parse_election("m 3 n 2\n0: 0 y\n1: 0 y\n")

    def test_duplicate_voter_with_cached_ballot(self):
        with pytest.raises(ValueError, match="^line 4: duplicate ballot for voter 1$"):
            parse_election("m 3 n 3\n0: 0 1\n1: 0 1\n1: 0 1\n")

    def test_duplicate_voter_named_before_unsorted_ballot(self):
        with pytest.raises(ValueError, match="^line 3: duplicate ballot for voter 0$"):
            parse_election("m 3 n 2\n0: 0 1\n0: 1 0\n")

    def test_bad_voter_token_on_cached_ballot(self):
        with pytest.raises(ValueError, match="^line 3: expected an integer, got 'v1'$"):
            parse_election("m 3 n 2\n0: 0 2\nv1: 0 2\n")
        with pytest.raises(ValueError, match="^line 2: expected an integer, got 'v0'$"):
            parse_election("m 3 n 1\nv0: 0 y\n")  # the voter token is named first

    def test_spacing_does_not_split_ballot_types(self):
        e = parse_election("m 3 n 3\n0:1 2\n1: 1 2\n2:  1   2  # same\n")
        assert e.ballots == (frozenset({1, 2}),) * 3
        assert e.groups == {frozenset({1, 2}): 3}
        assert parse_election("m 3 n 1\n0 : 1 2\n") == election(3, [[1, 2]])  # space before the colon

    def test_cached_ballots_in_any_voter_order(self):
        e = parse_election("m 3 n 4\n3: 0\n1: 2\n0: 0\n2: 2\n")
        assert e.ballots == (frozenset({0}), frozenset({2}), frozenset({2}), frozenset({0}))
        assert serialize_election(e) == "m 3 n 4\n0: 0\n1: 2\n2: 2\n3: 0\n"

    def test_voter_count_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="one ballot line for each voter"):
                parse_election("m 3 n 10000000\n0: 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestJsonHelpers:
    def test_big_integers_become_strings(self):
        assert _int_json(2**53 - 1) == 2**53 - 1
        assert _int_json(2**53) == str(2**53)
        assert _int_json(-(2**60)) == str(-(2**60))

    def test_fractions_and_nesting(self):
        from fractions import Fraction

        out = _jsonable({"p": Fraction(1, 3), "flags": (True, 2**54), "omega": ThieleVector.pav(2)})
        assert out == {"p": "1/3", "flags": [True, str(2**54)], "omega": ["1", "1/2"]}
        assert out["flags"][0] is True


class TestWinners:
    def test_av_fields(self, capsys, small_path):
        code, payload, _ = invoke(capsys, "winners", small_path, "--rule", "av", "--k", "1")
        assert code == 0
        assert payload["command"] == "winners"
        assert payload["rule"] == "av"
        assert payload["k"] == 1
        assert payload["provenance"] == "score-threshold"
        assert payload["scores"] == [1, 0, 1]
        winners = payload["winners"]
        assert winners["form"] == "threshold"
        assert winners["pool"] == [0, 2]
        assert winners["slots"] == 1
        assert winners["count"] == 2

    def test_pav_explicit(self, capsys, small_path):
        code, payload, _ = invoke(capsys, "winners", small_path, "--rule", "pav", "--k", "2")
        assert code == 0
        assert payload["winners"]["form"] == "explicit"
        assert payload["winners"]["committees"] == [[0, 2]]


class TestRadius:
    @pytest.fixture
    def gap_path(self, tmp_path):
        # approval scores (4, 2): the add radius is 2
        path = tmp_path / "gap.elec"
        path.write_text("m 2 n 5\n0: 0\n1: 0\n2: 0\n3: 0 1\n4: 1\n")
        return str(path)

    def test_exact(self, capsys, gap_path):
        code, payload, _ = invoke(capsys, "radius", gap_path, "--rule", "av", "--k", "1", "--op", "add")
        assert code == 0
        assert payload["method"] == "exact"
        assert payload["provenance"] == "av-case-analysis"
        assert payload["radius"] == {"outcome": "finite", "value": 2}

    def test_decision_flag(self, capsys, gap_path):
        code, payload, _ = invoke(
            capsys, "radius", gap_path, "--rule", "av", "--k", "1", "--op", "add", "--budget", "1"
        )
        assert payload["decision"] is False
        code, payload, _ = invoke(
            capsys, "radius", gap_path, "--rule", "av", "--k", "1", "--op", "add", "--budget", "2"
        )
        assert payload["decision"] is True

    def test_oracle_with_witness(self, capsys, gap_path):
        code, payload, _ = invoke(
            capsys,
            "radius", gap_path, "--rule", "av", "--k", "1", "--op", "add",
            "--method", "oracle", "--budget", "3",
        )
        assert code == 0
        assert payload["provenance"] == "bfs-oracle"
        assert payload["radius"]["value"] == 2
        assert len(payload["radius"]["witness"]) == 2

    def test_oracle_needs_budget(self, capsys, gap_path):
        code, _, err = invoke(
            capsys, "radius", gap_path, "--rule", "pav", "--k", "1", "--op", "add"
        )
        assert code == 2
        assert err["exit_code"] == 2
        assert "budget" in err["error"]

    @pytest.mark.parametrize("budget", ([], ["--budget", "1"]), ids=("no-budget", "budget"))
    def test_impossible(self, capsys, tmp_path, budget):
        # the only voter approves everything: no add is feasible, so no sequence changes the winners
        path = tmp_path / "full.elec"
        path.write_text("m 2 n 1\n0: 0 1\n")
        code, payload, _ = invoke(capsys, "radius", str(path), "--rule", "av", "--k", "1", "--op", "add", *budget)
        assert code == 0
        assert payload["radius"] == {"outcome": "impossible"}
        if budget:
            assert payload["decision"] is False
        else:
            assert "decision" not in payload

    def test_no_exact_algorithm_for_greedy(self, capsys, gap_path):
        code, _, err = invoke(
            capsys,
            "radius", gap_path, "--rule", "greedy-cc", "--k", "1", "--op", "add",
            "--method", "exact",
        )
        assert code == 2


class TestCount:
    @pytest.fixture
    def two_path(self, tmp_path):
        path = tmp_path / "two.elec"
        path.write_text("m 3 n 2\n0: 0\n1: 0\n")
        return str(path)

    def test_dp_example(self, capsys, two_path):
        code, payload, _ = invoke(
            capsys, "count", two_path, "--rule", "av", "--k", "1", "--op", "add", "--budget", "1"
        )
        assert code == 0
        assert payload["unchanged"] == 4
        assert payload["total"] == 4
        assert payload["probability"] == "1"
        assert payload["provenance"] == "counting-dp"

    def test_oracle_any_rule(self, capsys, two_path):
        code, payload, _ = invoke(
            capsys,
            "count", two_path, "--rule", "pav", "--k", "1", "--op", "add", "--budget", "1",
            "--method", "oracle",
        )
        assert code == 0
        assert payload["provenance"] == "brute-force-enumeration"
        assert payload["total"] == 4

    def test_exact_rejects_other_rules(self, capsys, two_path):
        code, _, err = invoke(
            capsys, "count", two_path, "--rule", "sav", "--k", "1", "--op", "add", "--budget", "1"
        )
        assert code == 2

    def test_oracle_bundles_bounded_by_cap(self, capsys, tmp_path, monkeypatch):
        # 46 addable cells: C(46, 20) ~ 5.6e12 bundles, refused before the first winner set
        path = tmp_path / "wide.elec"
        path.write_text("m 6 n 10\n0: 0 1\n1: 0 1\n2: 0 2\n3: 1 3\n4: 0\n5: 1\n6: 2\n7: 4\n8: 5\n9: 5\n")
        monkeypatch.setattr("mwrobust.counting.winner_set", None)  # an enumeration would raise TypeError
        argv = ("count", str(path), "--rule", "pav", "--k", "2", "--op", "add", "--budget", "20", "--method", "oracle")
        for cap in (("--cap", "1000"), ()):
            code, payload, err = invoke(capsys, *argv, *cap)
            assert code == 3
            assert payload == ""
            assert err["exit_code"] == 3
            assert "C(46,20) bundles exceeds cap" in err["error"]

    @pytest.mark.parametrize("k", ("0", "5"))
    def test_oracle_refuses_bad_k_before_the_bundle_cap(self, capsys, tmp_path, k):
        # 16 addable cells: C(16, 8) = 12,870 bundles exceed the cap, but k is refused first
        path = tmp_path / "six.elec"
        path.write_text("m 4 n 6\n0: 0\n1: 1\n2: 2\n3: 0 1\n4: 2 3\n5: 3\n")
        code, payload, err = invoke(
            capsys,
            "count", str(path), "--rule", "phragmen", "--k", k, "--op", "add", "--budget", "8",
            "--method", "oracle", "--cap", "1000",
        )
        assert (code, payload) == (2, "")
        assert err == {"error": f"committee size k={k} must satisfy 1 <= k <= m=4", "exit_code": 2}


class TestCommitteeSizeRule:
    """Every question takes the same committee sizes, 1 <= k <= m; k = m is answered, not refused."""

    QUESTIONS = {
        "radius-exact-av": ("radius", "--rule", "av", "--method", "exact"),
        "radius-exact-sav": ("radius", "--rule", "sav", "--method", "exact"),
        "radius-oracle": ("radius", "--rule", "av", "--method", "oracle", "--budget", "2"),
        "count": ("count", "--rule", "av", "--budget", "2"),
        "level": ("level", "--rule", "av"),
    }

    @pytest.fixture
    def six_path(self, tmp_path):
        path = tmp_path / "six.elec"
        path.write_text("m 4 n 6\n0: 0\n1: 1\n2: 2\n3: 0 1\n4: 2 3\n5: 3\n")
        return str(path)

    @pytest.mark.parametrize("question", QUESTIONS)
    def test_k_equals_m_is_answered(self, capsys, six_path, question):
        command, *options = self.QUESTIONS[question]
        code, payload, err = invoke(capsys, command, six_path, "--k", "4", "--op", "add", *options)
        assert (code, err) == (0, None)
        if question.startswith("radius-exact"):
            assert payload["radius"] == {"outcome": "impossible"}

    @pytest.mark.parametrize("k", ("0", "5"))
    @pytest.mark.parametrize("question", QUESTIONS)
    def test_k_outside_one_to_m_is_refused(self, capsys, six_path, question, k):
        command, *options = self.QUESTIONS[question]
        code, payload, err = invoke(capsys, command, six_path, "--k", k, "--op", "add", *options)
        assert (code, payload) == (2, "")
        assert err == {"error": f"committee size k={k} must satisfy 1 <= k <= m=4", "exit_code": 2}

    OPTIONS = {
        "winners": (),
        "radius": ("--op", "add", "--budget", "2"),
        "count": ("--op", "add", "--budget", "2"),
        "level": ("--op", "add"),
    }

    @pytest.mark.parametrize("k", ("0", "5"))
    @pytest.mark.parametrize("command", OPTIONS)
    @pytest.mark.parametrize("preset", rules.PRESETS)
    def test_every_preset_refuses_k_outside_one_to_m(self, capsys, six_path, preset, command, k):
        code, payload, err = invoke(capsys, command, six_path, "--rule", preset, "--k", k, *self.OPTIONS[command])
        assert (code, payload) == (2, "")
        assert err == {"error": f"committee size k={k} must satisfy 1 <= k <= m=4", "exit_code": 2}

    def test_k_checked_before_a_preset_sizes_its_weights(self, capsys, tmp_path):
        # pav sized to k = 10^7 would build ten million Fractions, over a gigabyte
        path = tmp_path / "two.elec"
        path.write_text("m 2 n 1\n0: 0\n")
        tracemalloc.start()
        try:
            code, payload, err = invoke(capsys, "winners", str(path), "--rule", "pav", "--k", "10000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, payload) == (2, "")
        assert err == {"error": "committee size k=10000000 must satisfy 1 <= k <= m=2", "exit_code": 2}
        assert peak < 10_000_000


class TestLevel:
    def test_split_vote(self, capsys, tmp_path):
        path = tmp_path / "split.elec"
        path.write_text("m 2 n 2\n0: 0\n1: 1\n")
        code, payload, _ = invoke(capsys, "level", str(path), "--rule", "av", "--k", "1", "--op", "add")
        assert code == 0
        assert payload["level"] == 1
        assert payload["argmax_op"]["kind"] == "add"

    def test_no_feasible_ops(self, capsys, tmp_path):
        path = tmp_path / "full.elec"
        path.write_text("m 2 n 1\n0: 0 1\n")
        code, payload, _ = invoke(capsys, "level", str(path), "--rule", "av", "--k", "1", "--op", "add")
        assert payload["level"] == 0
        assert payload["argmax_op"] is None

    @pytest.mark.parametrize("k", ("0", "5"))
    @pytest.mark.parametrize("op", ("remove", "swap"))
    def test_bad_k_is_refused_without_feasible_ops(self, capsys, tmp_path, op, k):
        path = tmp_path / "empty-ballot.elec"
        path.write_text("m 2 n 1\n0:\n")
        code, payload, err = invoke(capsys, "level", str(path), "--rule", "av", "--k", k, "--op", op)
        assert (code, payload) == (2, "")
        assert err == {"error": f"committee size k={k} must satisfy 1 <= k <= m=2", "exit_code": 2}


class TestWitness:
    def test_thiele_add(self, capsys):
        code, payload, _ = invoke(capsys, "witness", "--which", "thiele-add", "--k", "3")
        assert code == 0
        assert payload["family"] == "thiele-add"
        assert payload["voters"] == 10
        assert payload["op"] == "add"
        assert payload["operation"] == {"kind": "add", "voter": 9, "candidate": 0}
        e = parse_election(payload["election"])
        assert e.m == 6

    def test_sav_add(self, capsys):
        code, payload, _ = invoke(capsys, "witness", "--which", "sav-add", "--k", "2")
        assert code == 0
        assert payload["info"]["expected_displacement"] == 2

    def test_election_out(self, capsys, tmp_path):
        out = tmp_path / "witness.elec"
        code, payload, _ = invoke(
            capsys, "witness", "--which", "sav-remove", "--k", "2", "--election-out", str(out)
        )
        assert code == 0
        assert payload["election_file"] == str(out)
        assert "election" not in payload
        assert parse_election(out.read_text()).m == 14

    @pytest.mark.parametrize("argv", (
        ["witness", "--which", "sav-add", "--k", "2"],
        ["reduce", "greedy-cc", "INSTANCE"],
    ), ids=("witness", "reduce"))
    def test_inline_limit_needs_election_out(self, capsys, tmp_path, monkeypatch, argv):
        inst = tmp_path / "triple.x3c"
        inst.write_text(serialize_x3c(triple_cover_rx3c(1)))
        argv = [str(inst) if arg == "INSTANCE" else arg for arg in argv]
        code, payload, _ = invoke(capsys, *argv)
        assert code == 0 and 1 < payload["voters"] <= INLINE_VOTER_LIMIT
        inline = payload["election"]
        monkeypatch.setattr(cli, "INLINE_VOTER_LIMIT", 1)
        code, payload, err = invoke(capsys, *argv)
        assert code == 2 and payload == ""
        assert err["exit_code"] == 2 and "--election-out" in err["error"]
        out = tmp_path / "gadget.elec"
        code, payload, _ = invoke(capsys, *argv, "--election-out", str(out))
        assert code == 0 and "election" not in payload
        assert out.read_text() == inline


class TestReduce:
    def test_thiele(self, capsys, tmp_path):
        inst = tmp_path / "covered.x3c"
        inst.write_text(serialize_x3c(covered_x3c_example()))
        code, payload, _ = invoke(capsys, "reduce", "thiele", str(inst), "--op", "swap")
        assert code == 0
        assert payload["target"] == "thiele"
        assert payload["voters"] == 104
        assert payload["info"]["ell"] == 6
        assert payload["info"]["alpha"] == "1/2"

    def test_greedy_cc(self, capsys, tmp_path):
        inst = tmp_path / "triple.x3c"
        inst.write_text(serialize_x3c(triple_cover_rx3c(1)))
        code, payload, _ = invoke(capsys, "reduce", "greedy-cc", str(inst))
        assert code == 0
        assert payload["voters"] == 151
        assert payload["k"] == 4
        assert payload["info"]["variant"] == "cc"

    def test_phragmen(self, capsys, tmp_path):
        inst = tmp_path / "triple.x3c"
        inst.write_text(serialize_x3c(triple_cover_rx3c(1)))
        code, payload, _ = invoke(capsys, "reduce", "phragmen", str(inst))
        assert code == 0
        bundle = rx3c_to_phragmen(triple_cover_rx3c(1))
        assert payload["target"] == "phragmen"
        assert (payload["k"], payload["op"], payload["budget"]) == (bundle.k, bundle.op_kind, bundle.budget)
        assert payload["labels"] == list(bundle.labels)
        assert payload["voter_groups"] == [list(group) for group in bundle.voter_groups]
        assert payload["info"] == _jsonable(bundle.info)
        assert parse_election(payload["election"]) == bundle.election

    def test_sav_count(self, capsys, tmp_path):
        graph = tmp_path / "cycle.graph"
        cycle = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        graph.write_text(serialize_graph(cycle))
        code, payload, _ = invoke(capsys, "reduce", "sav-count", str(graph), "--op", "add")
        assert code == 0
        assert payload["info"]["expected_unchanged"] == 128
        assert payload["budget"] == 2

    def test_voter_limit_flag(self, capsys, tmp_path):
        inst = tmp_path / "triple.x3c"
        inst.write_text(serialize_x3c(triple_cover_rx3c(1)))
        code, _, err = invoke(
            capsys, "reduce", "greedy-cc", str(inst), "--max-voters", "100"
        )
        assert code == 2
        assert "100" in err["error"]
        covered = tmp_path / "covered.x3c"
        covered.write_text(serialize_x3c(covered_x3c_example()))
        code, _, err = invoke(capsys, "reduce", "thiele", str(covered), "--alpha", "99/100", "--max-voters", "100")
        assert code == 2
        assert "4807 voters" in err["error"]
        graph = tmp_path / "cycle.graph"
        graph.write_text(serialize_graph(BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))))
        code, _, err = invoke(capsys, "reduce", "sav-count", str(graph), "--max-voters", "11")
        assert code == 2
        assert "12 voters" in err["error"]

    @pytest.mark.parametrize("argv, count", [
        (["witness", "--which", "thiele-add", "--k", "3000"], "9000001 voters"),
        (["reduce", "sav-count", "GRAPH", "--op", "remove"], "31795248 candidates"),
    ])
    def test_unbounded_builds_refused_before_allocating(self, capsys, tmp_path, argv, count):
        graph = tmp_path / "empty24.graph"
        graph.write_text(serialize_graph(BipartiteGraph(24, 24, ())))
        argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
        tracemalloc.start()
        try:
            code, _, err = invoke(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert count in err["error"] and err["exit_code"] == 2
        assert peak < 1_000_000


class TestDiff:
    def test_renders_matrix(self, capsys, tmp_path):
        before = tmp_path / "before.elec"
        after = tmp_path / "after.elec"
        before.write_text("m 3 n 2\n0: 0\n1: 0 2\n")
        after.write_text("m 3 n 2\n0: 0 1\n1: 2\n")
        code, text, _ = invoke(capsys, "diff", str(before), str(after))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "   c0c1c2"
        assert len(lines) == 3
        assert "+" in lines[1] and "-" in lines[2]


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "winners", "/nonexistent.elec", "--rule", "av", "--k", "1")
        assert code == 2
        assert err["exit_code"] == 2

    def test_bad_k(self, capsys, small_path):
        code, _, err = invoke(capsys, "winners", small_path, "--rule", "av", "--k", "0")
        assert code == 2

    def test_cap_exceeded(self, capsys, small_path):
        code, _, err = invoke(capsys, "winners", small_path, "--rule", "pav", "--k", "1", "--cap", "1")
        assert code == 3
        assert err["exit_code"] == 3

    def test_level_respects_cap(self, capsys, tmp_path):
        path = tmp_path / "tied.elec"
        path.write_text("m 6 n 3\n0: 0 1 2\n1: 0 1 2\n2: 0 1 2\n")
        for command, extra in (("winners", ()), ("level", ("--op", "add"))):
            code, _, err = invoke(capsys, command, str(path), "--rule", "pav", "--k", "3", "--cap", "5", *extra)
            assert code == 3
            assert err["exit_code"] == 3

    def test_oracle_radius_states_bounded_by_cap(self, capsys, tmp_path):
        path = tmp_path / "clear.elec"
        path.write_text("m 3 n 3\n0: 0\n1: 0\n2: 0\n")
        argv = ("radius", str(path), "--rule", "pav", "--k", "1", "--op", "add", "--method", "oracle", "--budget", "2")
        code, payload, _ = invoke(capsys, *argv, "--cap", "22")  # the input plus 6 + 15 perturbed elections
        assert code == 0 and payload["decision"] is False
        code, payload, err = invoke(capsys, *argv, "--cap", "21")
        assert code == 3
        assert payload == ""
        assert err["exit_code"] == 3
        assert err["error"] == "visiting 22 elections exceeds cap 21"

    def test_cap_env_var(self, capsys, small_path, monkeypatch):
        # only --cap bounds: the environment has no say
        monkeypatch.setenv("MWROBUST_CAP", "1")
        code, payload, _ = invoke(capsys, "winners", small_path, "--rule", "pav", "--k", "1")
        assert code == 0 and payload["winners"]["count"] == 2
        code, _, err = invoke(capsys, "winners", small_path, "--rule", "pav", "--k", "1", "--cap", "1")
        assert code == 3

    def test_cap_env_var_not_an_integer(self, capsys, small_path, monkeypatch):
        monkeypatch.setenv("MWROBUST_CAP", "abc")
        code, _, _ = invoke(capsys, "winners", small_path, "--rule", "av", "--k", "1")
        assert code == 0
        code, _, _ = invoke(capsys, "diff", small_path, small_path)
        assert code == 0

    @pytest.mark.parametrize("cap", ("0", "-5"))
    def test_cap_not_positive(self, capsys, small_path, cap):
        code, _, err = invoke(capsys, "winners", small_path, "--rule", "pav", "--k", "1", "--cap", cap)
        assert code == 2
        assert err["exit_code"] == 2
        assert "cap" in err["error"]

    @pytest.mark.parametrize(
        "method", ([], ["--method", "exact"], ["--method", "oracle"]), ids=("auto", "exact", "oracle")
    )
    def test_negative_budget(self, capsys, small_path, method):
        code, _, err = invoke(
            capsys, "radius", small_path, "--rule", "av", "--k", "1", "--op", "add", "--budget", "-1", *method
        )
        assert code == 2
        assert "budget" in err["error"]

    def test_reduce_alpha_zero_denominator(self, capsys, tmp_path):
        inst = tmp_path / "covered.x3c"
        inst.write_text(serialize_x3c(covered_x3c_example()))
        code, _, err = invoke(capsys, "reduce", "thiele", str(inst), "--alpha", "1/0")
        assert code == 2
        assert "alpha" in err["error"]


class TestRunRequests:
    def test_programmatic_use(self, small_path):
        payload = run(build_parser().parse_args(["winners", small_path, "--rule", "av", "--k", "1"]))
        assert payload["winners"]["pool"] == [0, 2]

    def test_diff_returns_none(self, tmp_path, capsys):
        path = tmp_path / "e.elec"
        path.write_text("m 2 n 1\n0: 0\n")
        assert run(build_parser().parse_args(["diff", str(path), str(path)])) is None
        capsys.readouterr()

    def test_parser_carries_every_default(self, small_path):
        args = build_parser().parse_args(["winners", small_path, "--rule", "av", "--k", "1"])
        assert (args.op, args.method, args.cap) == (None, None, rules.DEFAULT_CAP)
        args = build_parser().parse_args(["reduce", "thiele", small_path])
        assert (args.rule, args.k, args.op, args.alpha, args.max_voters, args.election_out) == (
            None, None, "add", "1/2", DEFAULT_MAX_VOTERS, None
        )
        args = build_parser().parse_args(["diff", small_path, small_path])
        assert (args.rule, args.k, args.op, args.method, args.cap) == (None, None, None, None, rules.DEFAULT_CAP)

    def test_cap_checked_by_run(self, small_path):
        args = build_parser().parse_args(["winners", small_path, "--rule", "av", "--k", "1", "--cap", "0"])
        with pytest.raises(ValueError, match="cap must be a positive integer"):
            run(args)

    @pytest.mark.parametrize("command", ("winners", "radius", "count", "level"))
    def test_rule_choices_are_the_presets(self, command):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        rule = next(a for a in subparsers.choices[command]._actions if a.dest == "rule")
        assert rule.choices == tuple(rules.PRESETS)


PRESETS = ("av", "sav", "cc", "pav", "greedy-cc", "greedy-pav", "phragmen")
WINNERS_PROVENANCE = {
    "av": "score-threshold",
    "sav": "score-threshold",
    "cc": "exhaustive-thiele",
    "pav": "exhaustive-thiele",
    "greedy-cc": "greedy-thiele",
    "greedy-pav": "greedy-thiele",
    "phragmen": "phragmen-sequential",
}
EXACT_RADIUS = {"av": ("exact", "av-case-analysis"), "sav": ("exact", "sav-pair-analysis")}
#: (subcommand, extra arguments, rule preset -> (method, provenance)); a
#: preset missing from the map must be refused with exit code 2, and ``None``
#: in place of the map means the parser refuses the arguments themselves.
DISPATCH_CASES = (
    ("winners", (), {rule: (None, provenance) for rule, provenance in WINNERS_PROVENANCE.items()}),
    ("radius", (), EXACT_RADIUS),
    ("radius", ("--method", "exact"), EXACT_RADIUS),
    ("radius", ("--method", "oracle", "--budget", "3"), dict.fromkeys(PRESETS, ("oracle", "bfs-oracle"))),
    ("count", (), {"av": ("exact", "counting-dp")}),
    ("count", ("--method", "exact"), {"av": ("exact", "counting-dp")}),
    ("count", ("--method", "dp"), None),
    ("count", ("--method", "oracle"), dict.fromkeys(PRESETS, ("oracle", "brute-force-enumeration"))),
)


class TestDispatch:
    """Which algorithm answers each question, pinned for every rule preset."""

    @pytest.mark.parametrize("rule", PRESETS)
    @pytest.mark.parametrize(
        "command,extra,expected", DISPATCH_CASES, ids=[" ".join((c[0],) + c[1]) for c in DISPATCH_CASES]
    )
    def test_method_and_provenance(self, capsys, tmp_path, rule, command, extra, expected):
        path = tmp_path / "e.elec"
        path.write_text("m 3 n 3\n0: 0\n1: 0 1\n2: 2\n")
        argv = [command, str(path), "--rule", rule, "--k", "1"]
        if command != "winners":
            argv += ["--op", "add"]
        if command == "count":
            argv += ["--budget", "1"]
        if expected is None:
            with pytest.raises(SystemExit) as exc:
                main([*argv, *extra])
            assert exc.value.code == 2
            assert "invalid choice: 'dp'" in capsys.readouterr().err
            return
        code, payload, err = invoke(capsys, *argv, *extra)
        if rule not in expected:
            assert code == 2
            assert err["exit_code"] == 2
            return
        assert code == 0
        assert (payload["method"], payload["provenance"]) == expected[rule]


REGRESSION_FIXTURES = (
    "m 3 n 3\n0: 0\n1: 0 1\n2: 2\n",
    "m 3 n 2\n0: 0\n1: 0\n",
    "m 2 n 4\n0: 0\n1: 0\n2: 1\n3:\n",
    "m 4 n 3\n0: 0 1\n1: 1 2\n2: 3\ntiebreak: 3 2 1 0\n",
    "m 3 n 3\n0: 0 1 2\n1: 0 1\n2: 2\n",
)


class TestMethodsAgree:
    """--method oracle and --method exact agree on the bundled fixtures."""

    @pytest.mark.parametrize("fixture", REGRESSION_FIXTURES)
    @pytest.mark.parametrize("rule", ("av", "sav"))
    @pytest.mark.parametrize("op", ("add", "remove", "swap"))
    def test_radius(self, capsys, tmp_path, fixture, rule, op):
        path = tmp_path / "fixture.elec"
        path.write_text(fixture)
        k = 1
        code, exact, _ = invoke(
            capsys, "radius", str(path), "--rule", rule, "--k", str(k), "--op", op
        )
        assert code == 0
        code, oracle, _ = invoke(
            capsys,
            "radius", str(path), "--rule", rule, "--k", str(k), "--op", op,
            "--method", "oracle", "--budget", "6",
        )
        assert code == 0
        if exact["radius"]["outcome"] == "finite":
            assert oracle["radius"]["outcome"] == "finite"
            assert oracle["radius"]["value"] == exact["radius"]["value"]
        elif exact["radius"]["outcome"] == "impossible":
            assert oracle["radius"]["outcome"] in ("impossible", "exceeds-bound")

    @pytest.mark.parametrize("fixture", REGRESSION_FIXTURES)
    @pytest.mark.parametrize("op", ("add", "remove"))
    @pytest.mark.parametrize("budget", (1, 2))
    def test_count(self, capsys, tmp_path, fixture, op, budget):
        path = tmp_path / "fixture.elec"
        path.write_text(fixture)
        args = ("count", str(path), "--rule", "av", "--k", "1", "--op", op, "--budget", str(budget))
        code_dp, dp, err = invoke(capsys, *args)
        code_or, oracle, err2 = invoke(capsys, *args, "--method", "oracle")
        if code_dp == 2:
            # budget exceeds the fixture's slot count; both methods must refuse
            assert code_or == 2
            return
        assert (dp["unchanged"], dp["total"]) == (oracle["unchanged"], oracle["total"])
