"""The bulk reading of election text against the line loop it stands in for.

``parse_election`` reads text in the shape ``serialize_election`` writes with
a few list-level passes and hands any other text, or any defect, to
``_parse_lines``.  Each text here, valid or mutated, must give on both the
same election and tie-break with the same frozenset sharing, or the same
``ValueError`` text.
"""
from __future__ import annotations

import random

import pytest

from mwrobust import cli, election, no_cover_rx3c_n2, rx3c_to_greedy, rx3c_to_phragmen, triple_cover_rx3c
from mwrobust.cli import parse_election, serialize_election

SEED = 2626


def sharing(e) -> list[int]:
    """Each voter's ballot object, numbered in order of first appearance."""
    first: dict[int, int] = {}
    return [first.setdefault(id(ballot), len(first)) for ballot in e.ballots]


def outcome(parse, text: str):
    try:
        e = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("election", e, e.tiebreak, sharing(e))


def random_election(rng: random.Random):
    m = rng.choice((1, 2, 3, 5, 12))
    n = rng.choice((0, 1, 2, rng.randint(3, 9), rng.randint(10, 25)))
    kinds = [sorted(rng.sample(range(m), rng.randint(0, min(m, 4)))) for _ in range(rng.randint(1, 4))]
    ballots = [rng.choice(kinds) for _ in range(n)]
    tiebreak = rng.sample(range(m), m) if rng.random() < 0.4 else None
    return election(m, ballots, tiebreak)


# ---------------------------------------------------------------------------
# Mutations of the text of election ``e``: each changes its lines (header first) or the whole text


def _voter_rows(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if i and not line.startswith("tiebreak:")]


def _pick(rng, rows):
    return rng.choice(rows) if rows else 0


def id_leading_zero(rng, lines, e):
    row = _pick(rng, _voter_rows(lines))
    lines[row] = "0" + lines[row]
    return lines


def id_ten_for_one(rng, lines, e):
    for row in _voter_rows(lines):
        if lines[row].startswith("1:"):
            lines[row] = "10:" + lines[row][2:]
    return lines


def swap_lines(rng, lines, e):
    rows = _voter_rows(lines)
    if len(rows) >= 2:
        a, b = rng.sample(rows, 2)
        lines[a], lines[b] = lines[b], lines[a]
    return lines


def duplicate_line(rng, lines, e):
    row = _pick(rng, _voter_rows(lines))
    lines.insert(row + rng.randint(0, 1), lines[row])
    return lines


def drop_line(rng, lines, e):
    del lines[rng.randrange(len(lines))]
    return lines


def blank_line(rng, lines, e):
    lines.insert(rng.randint(0, len(lines)), rng.choice(("", " ", "\t")))
    return lines


def trailing_blank(rng, lines, e):
    row = rng.randrange(len(lines))
    lines[row] += rng.choice((" ", "\t", "\x1f", "  "))
    return lines


def break_chars(rng, text, e):
    if rng.random() < 0.4:
        return text.replace("\n", "\r\n")
    sep = rng.choice(("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", " \r\n"))
    cut = [i for i, ch in enumerate(text) if ch == "\n"] or [len(text)]
    i = rng.choice(cut)
    return text[:i] + sep + text[i + 1:]


def no_final_newline(rng, text, e):
    return text.rstrip("\n")


def non_ascii_digit(rng, text, e):
    digits = [i for i, ch in enumerate(text) if ch.isdigit()] or [0]
    i = rng.choice(digits)
    return text[:i] + rng.choice(("١", "１", "²", "०")) + text[i + 1:]


def comment(rng, lines, e):
    row = rng.randrange(len(lines))
    if rng.random() < 0.5:
        lines.insert(row, "# a comment")
    else:
        lines[row] += rng.choice(("#", " # note", "# 3"))
    return lines


def bad_token(rng, lines, e):
    row = _pick(rng, _voter_rows(lines))
    voter, _, tokens = lines[row].partition(":")
    tokens = tokens.split()
    token = rng.choice(("+1", "1_0", "-1", "01", "00", "1.0", "x"))
    tokens.insert(rng.randint(0, len(tokens)), token)
    lines[row] = f"{voter}: " + " ".join(tokens)
    return lines


def unsorted_candidates(rng, lines, e):
    rows = [row for row in _voter_rows(lines) if len(lines[row].split()) >= 3]
    if rows:
        row = rng.choice(rows)
        voter, _, tokens = lines[row].partition(":")
        lines[row] = f"{voter}: " + " ".join(reversed(tokens.split()))
    return lines


def out_of_range(rng, lines, e):
    m = e.m
    row = _pick(rng, _voter_rows(lines))
    lines[row] += f" {m + rng.randint(0, 2)}"
    return lines


def inner_spacing(rng, lines, e):
    row = _pick(rng, _voter_rows(lines))
    lines[row] = lines[row].replace(":", ":  ", 1)
    return lines


def empty_tiebreak(rng, lines, e):
    if lines[-1].startswith("tiebreak:"):
        lines[-1] = "tiebreak:"
    else:
        lines.append("tiebreak:")
    return lines


def tiebreak_in_body(rng, lines, e):
    m = e.m
    lines.insert(rng.randint(1, len(lines)), "tiebreak: " + " ".join(map(str, range(m))))
    return lines


def tiebreak_spacing(rng, lines, e):
    m = e.m
    line = rng.choice((" tiebreak: ", "tiebreak :", "tiebreak:", "Tiebreak: ")) + "  ".join(map(str, range(m)))
    if lines[-1].startswith("tiebreak:"):
        lines[-1] = line
    else:
        lines.append(line)
    return lines


def header_change(rng, lines, e):
    m, n = e.m, e.n
    lines[0] = rng.choice(
        (f"m {m} n {n + 1}", f"m {m} n {max(n - 1, 0)}", f"m {m} n -1", f"m 0 n {n}", f" m  {m} n {n}", f"m {m} n")
    )
    return lines


LINE_MUTATIONS = (
    id_leading_zero,
    id_ten_for_one,
    swap_lines,
    duplicate_line,
    drop_line,
    blank_line,
    trailing_blank,
    comment,
    bad_token,
    unsorted_candidates,
    out_of_range,
    inner_spacing,
    empty_tiebreak,
    tiebreak_in_body,
    tiebreak_spacing,
    header_change,
)
TEXT_MUTATIONS = (break_chars, no_final_newline, non_ascii_digit)


def mutate(rng: random.Random, e) -> str:
    """``e``'s text after one or two mutations."""
    text = serialize_election(e)
    for _ in range(rng.choice((1, 1, 1, 2))):
        mutation = rng.choice(LINE_MUTATIONS + TEXT_MUTATIONS)
        if mutation in TEXT_MUTATIONS:
            text = mutation(rng, text, e)
        else:
            text = "\n".join(mutation(rng, text.splitlines() or [""], e)) + "\n"
    return text


# ---------------------------------------------------------------------------


def test_serialized_texts_take_the_bulk_path():
    rng = random.Random(SEED)
    for _ in range(500):
        e = random_election(rng)
        text = serialize_election(e)
        bulk = cli._parse_serialized(text)
        assert bulk == e, text
        assert sharing(bulk) == sharing(cli._parse_lines(text))
        assert outcome(parse_election, text) == outcome(cli._parse_lines, text)


def test_mutated_texts_match_the_line_loop():
    rng = random.Random(SEED + 1)
    bulk_taken = 0
    for _ in range(4000):
        text = mutate(rng, random_election(rng))
        assert outcome(parse_election, text) == outcome(cli._parse_lines, text), repr(text)
        bulk_taken += cli._parse_serialized(text) is not None
    # both kinds of text are exercised: some mutations keep the shape, most break it
    assert 200 < bulk_taken < 3000, bulk_taken


@pytest.mark.parametrize(
    "text",
    (
        "m 3 n 0\n",
        "m 3 n 0\ntiebreak: 2 0 1\n",
        "m 2 n 2\n0:\n1:\n",
        "m 3 n 3\n0: 0 1\n1:0 1\n2: 0 1\n",
        "m 3 n 2\n0:  0  1\n1: 0 1\n",
        " m 3  n 1\n0: 2\n",
    ),
)
def test_edge_shapes_take_the_bulk_path(text):
    assert cli._parse_serialized(text) is not None
    assert outcome(parse_election, text) == outcome(cli._parse_lines, text)


@pytest.mark.parametrize(
    "text",
    (
        "",
        "\n",
        "m 3 n 1\n0: 1",  # no final newline
        "m 3 n 1\n0: 1 \n",
        "m 3 n 1\r\n0: 1\r\n",
        "m 3 n 1\n0: 1\v",
        "m 3 n 1\n0: 1 # c\n",
        "m 3 n 1\n0:\t1\n",
        "m 3 n 1\n0: ١\n",
        "m 3 n 2\n1: 1\n0: 1\n",
        "m 3 n 1\n00: 1\n",
        "m 3 n 1\n0: 1\n\n",
        "m 3 n 1\n\n0: 1\n",
        "m 3 n 1\ntiebreak: 0 1 2\n0: 1\n",
        "m 3 n 1\n0: 1\ntiebreak: 0 1 2\ntiebreak: 0 1 2\n",
        "m 3 n 1\n0: 2 1\n",
        "m 3 n 1\n0: 3\n",
        "m 3 n 1\n0: +1\n",
        "m 3 n 1\n0: 1\ntiebreak:\n",
        "m 0 n 0\n",
        f"m {10**7} n 0\n",
    ),
)
def test_other_texts_fall_back_to_the_line_loop(text):
    assert cli._parse_serialized(text) is None
    assert outcome(parse_election, text) == outcome(cli._parse_lines, text)


@pytest.mark.parametrize(
    "bundle",
    (
        rx3c_to_phragmen(triple_cover_rx3c(1)),
        rx3c_to_greedy(no_cover_rx3c_n2(), "pav"),
    ),
    ids=("phragmen", "greedy-pav"),
)
def test_gadget_texts_take_the_bulk_path(bundle):
    text = serialize_election(bundle.election)
    bulk = cli._parse_serialized(text)
    assert bulk == bundle.election
    assert sharing(bulk) == sharing(cli._parse_lines(text))
    assert len(set(map(id, bulk.ballots))) == len(bulk.groups)
