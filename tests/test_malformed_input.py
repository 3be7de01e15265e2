"""Malformed election, X3C and graph files exit 2 with a JSON error, never a traceback.

Each example starts from a valid file and applies one corruption that the
format forbids, then runs the file through ``cli.main`` on stdin.  A last
property feeds arbitrary short text, which may happen to be valid: it must
exit 0 or 2, and never raise.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys

from hypothesis import given, settings, strategies as st

from mwrobust import DEFAULT_MAX_VOTERS, BipartiteGraph, X3CInstance, election, serialize_graph, serialize_x3c
from mwrobust.cli import main, serialize_election

#: Tokens that are never a valid number in any field: not ASCII decimal, or negative.
BAD_NUMBERS = ("+1", "1_0", "٣", "x", "1.0", "0x1", "--1", "-1", "1e3", "１")

#: Lines that are never valid in any of the three formats (no colon, no comment, unknown keyword).
JUNK_LINES = ("junk", "m", "set", "edge 0", "universe", "left", "tiebreak", "0 1 2")

SETTINGS = settings(max_examples=150, deadline=None)


def run_cli(text: str, *argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def assert_rejected(text: str, *argv: str) -> None:
    code, out, err = run_cli(text, *argv)
    assert code == 2, (text, out, err)
    assert out == ""
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["exit_code"] == 2 and isinstance(payload["error"], str) and payload["error"], text


def replace_number(draw, text: str) -> str:
    numbers = list(re.finditer(r"-?[0-9]+", text))
    match = numbers[draw(st.integers(0, len(numbers) - 1))]
    return text[: match.start()] + draw(st.sampled_from(BAD_NUMBERS)) + text[match.end() :]


def insert_line(draw, lines: list[str], line: str) -> list[str]:
    at = draw(st.integers(0, len(lines)))
    return lines[:at] + [line] + lines[at:]


@st.composite
def valid_election(draw):
    m = draw(st.integers(1, 5))
    ballots = draw(st.lists(st.sets(st.integers(0, m - 1)), max_size=5))
    tiebreak = draw(st.none() | st.permutations(range(m)))
    return election(m, ballots, tiebreak=tiebreak)


@st.composite
def malformed_election(draw):
    e = draw(valid_election())
    lines = serialize_election(e).splitlines()
    voter_lines = list(range(1, 1 + e.n))
    options = ["number", "junk", "drop header", "extra voter"]
    if e.n:
        options += ["drop voter", "duplicate voter", "no colon", "out of range"]
    if any(e.ballots):
        options.append("repeated candidate")
    if any(len(b) >= 2 for b in e.ballots):
        options.append("unsorted")
    if e.tiebreak is not None:
        options += ["short tiebreak", "second tiebreak"]
    kind = draw(st.sampled_from(options))
    if kind == "number":
        return replace_number(draw, "\n".join(lines) + "\n")
    if kind == "junk":
        return "\n".join(insert_line(draw, lines, draw(st.sampled_from(JUNK_LINES)))) + "\n"
    if kind == "drop header":
        lines = lines[1:]
    elif kind == "extra voter":
        lines.insert(1 + e.n, f"{e.n}: 0")
    elif kind == "drop voter":
        del lines[draw(st.sampled_from(voter_lines))]
    elif kind == "duplicate voter":
        lines.insert(draw(st.integers(1, len(lines))), lines[draw(st.sampled_from(voter_lines))])
    elif kind == "no colon":
        at = draw(st.sampled_from(voter_lines))
        lines[at] = lines[at].replace(":", " ", 1)
    elif kind == "out of range":
        at = draw(st.sampled_from(voter_lines))
        lines[at] += f" {e.m}"
    elif kind == "repeated candidate":
        at = draw(st.sampled_from([1 + v for v, b in enumerate(e.ballots) if b]))
        lines[at] += " " + lines[at].split()[-1]
    elif kind == "unsorted":
        at = draw(st.sampled_from([1 + v for v, b in enumerate(e.ballots) if len(b) >= 2]))
        voter, _, cands = lines[at].partition(": ")
        lines[at] = f"{voter}: " + " ".join(reversed(cands.split()))
    elif kind == "short tiebreak":
        lines[-1] = lines[-1].rsplit(" ", 1)[0] if e.m > 1 else "tiebreak:"
    else:
        lines.append(lines[-1])
    return "\n".join(lines) + "\n"


@st.composite
def malformed_x3c(draw):
    size = 3 * draw(st.integers(1, 3))
    sets = draw(st.lists(st.sets(st.integers(0, size - 1), min_size=3, max_size=3), max_size=5))
    lines = serialize_x3c(X3CInstance(size, tuple(map(frozenset, sets)))).splitlines()
    options = ["number", "junk", "universe size", "drop universe", "second universe", "element out of range"]
    if sets:
        options.append("set size")
    kind = draw(st.sampled_from(options))
    if kind == "number":
        return replace_number(draw, "\n".join(lines) + "\n")
    if kind == "junk":
        lines = insert_line(draw, lines, draw(st.sampled_from(JUNK_LINES)))
    elif kind == "universe size":
        lines[0] = f"universe {draw(st.sampled_from([0, size - 1, size + 1, size + 2]))}"
    elif kind == "drop universe":
        lines = lines[1:]
    elif kind == "second universe":
        lines = insert_line(draw, lines, lines[0])
    elif kind == "element out of range":
        lines = insert_line(draw, lines, f"set 0 1 {size}")
    else:
        at = draw(st.integers(1, len(sets)))
        elements = lines[at].split()[1:]
        lines[at] = "set " + " ".join(elements[:2] + ([] if draw(st.booleans()) else elements[:1]))
    return "\n".join(lines) + "\n"


@st.composite
def malformed_graph(draw):
    left, right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(0, left - 1), st.integers(0, right - 1)), unique=True, max_size=5))
    lines = serialize_graph(BipartiteGraph(left, right, tuple(edges))).splitlines()
    options = ["number", "junk", "empty side", "drop side", "second side", "edge out of range", "field count"]
    if edges:
        options.append("duplicate edge")
    kind = draw(st.sampled_from(options))
    if kind == "number":
        return replace_number(draw, "\n".join(lines) + "\n")
    if kind == "junk":
        lines = insert_line(draw, lines, draw(st.sampled_from(JUNK_LINES)))
    elif kind == "empty side":
        side = draw(st.integers(0, 1))
        lines[side] = lines[side].split()[0] + " 0"
    elif kind == "drop side":
        del lines[draw(st.integers(0, 1))]
    elif kind == "second side":
        lines = insert_line(draw, lines, lines[draw(st.integers(0, 1))])
    elif kind == "edge out of range":
        lines = insert_line(draw, lines, draw(st.sampled_from([f"edge {left} 0", f"edge 0 {right}"])))
    elif kind == "field count":
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split()
        lines[at] = " ".join(fields[:-1] if draw(st.booleans()) else fields + ["0"])
    else:
        lines.append(lines[2 + draw(st.integers(0, len(edges) - 1))])
    return "\n".join(lines) + "\n"


@SETTINGS
@given(malformed_election())
def test_malformed_election_exits_2(text):
    assert_rejected(text, "winners", "-", "--rule", "av", "--k", "1")


@SETTINGS
@given(malformed_x3c())
def test_malformed_x3c_exits_2(text):
    assert_rejected(text, "reduce", "thiele", "-", "--op", "add")


@SETTINGS
@given(malformed_graph())
def test_malformed_graph_exits_2(text):
    assert_rejected(text, "reduce", "sav-count", "-", "--op", "add")


# one-digit numbers only: a valid header such as "m 99999999 n 0" would ask for a huge election
ARBITRARY = st.text(st.sampled_from("mn:#-+_ \n0123456789tiebreakusetlfgdr٣"), max_size=40).filter(
    lambda t: not re.search(r"[0-9]{2}", t)
)


@SETTINGS
@given(ARBITRARY, st.sampled_from((("winners", "-", "--rule", "pav", "--k", "1"), ("reduce", "thiele", "-"))))
def test_arbitrary_text_never_raises(text, argv):
    code, _, err = run_cli(text, *argv)
    assert code in (0, 2), (text, err)
    if code == 2:
        assert json.loads(err)["exit_code"] == 2


def test_candidate_count_above_the_limit_exits_2():
    # rejected at the header, before any work or memory proportional to m
    for m in (DEFAULT_MAX_VOTERS + 1, 10**9):
        text = f"m {m} n 1\n0: 0\n"
        assert_rejected(text, "winners", "-", "--rule", "av", "--k", "1")
        assert_rejected(text, "radius", "-", "--rule", "av", "--k", "1", "--op", "add")
