"""The election text format per ballot type: differential checks against per-voter references."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mwrobust import (
    Election,
    covered_x3c_example,
    election,
    matching_to_sav_counting,
    no_cover_rx3c_n2,
    rx3c_to_greedy,
    rx3c_to_phragmen,
    sav_add_witness,
    sav_remove_witness,
    thiele_witness,
    triple_cover_rx3c,
    uncoverable_x3c_example,
    x3c_to_thiele,
    BipartiteGraph,
)
from mwrobust.cli import parse_election, serialize_election


def _reference_ints(tokens: list[str], lineno: int) -> list[int]:
    """Each token must be ASCII decimal digits, optionally after one ``-``."""
    numbers = []
    for token in tokens:
        digits = token[1:] if token.startswith("-") else token
        if not digits or any(ch not in "0123456789" for ch in digits):
            raise ValueError(f"line {lineno}: expected an integer, got {token!r}")
        numbers.append(int(token))
    return numbers


def reference_parse(text: str) -> Election:
    """The per-voter parser: every line converted and checked on its own."""
    header = None
    ballots_by_voter: dict[int, list[int]] = {}
    tiebreak = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            fields = line.split()
            if len(fields) != 4 or fields[0] != "m" or fields[2] != "n":
                raise ValueError(f"line {lineno}: expected header 'm <count> n <count>'")
            header = tuple(_reference_ints([fields[1], fields[3]], lineno))
            if header[1] < 0:
                raise ValueError(f"line {lineno}: voter count must be nonnegative, got {header[1]}")
            continue
        if line.startswith("tiebreak:"):
            if tiebreak is not None:
                raise ValueError(f"line {lineno}: duplicate tiebreak line")
            tiebreak = _reference_ints(line[len("tiebreak:"):].split(), lineno)
            continue
        left, colon, right = line.partition(":")
        if not colon:
            raise ValueError(f"line {lineno}: expected '<voter>: <candidates>'")
        voter, *candidates = _reference_ints([left.rstrip(), *right.split()], lineno)
        if voter in ballots_by_voter:
            raise ValueError(f"line {lineno}: duplicate ballot for voter {voter}")
        if any(b <= a for a, b in zip(candidates, candidates[1:])):
            raise ValueError(f"line {lineno}: candidate indices must be strictly increasing")
        ballots_by_voter[voter] = candidates
    if header is None:
        raise ValueError("missing header line 'm <count> n <count>'")
    m, n = header
    if sorted(ballots_by_voter) != list(range(n)):
        raise ValueError(f"expected one ballot line for each voter 0..{n - 1}")
    ballots = [ballots_by_voter[i] for i in range(n)]
    return election(m, ballots, tiebreak=tuple(tiebreak) if tiebreak is not None else None)


def reference_serialize(e: Election) -> str:
    """The per-voter serializer: each voter's candidate list rendered on its own."""
    lines = [f"m {e.m} n {e.n}"]
    for i, ballot in enumerate(e.ballots):
        body = " ".join(str(c) for c in sorted(ballot))
        lines.append(f"{i}: {body}".rstrip())
    if e.tiebreak is not None:
        lines.append("tiebreak: " + " ".join(str(c) for c in e.tiebreak))
    return "\n".join(lines) + "\n"


def outcome(parse, text: str):
    """An election with its ballots, or the error a parser raises."""
    try:
        e = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return e, e.ballots, e.groups


def random_text(rng: random.Random) -> str:
    """A valid election text drawn from a few ballot types, with the format's optional liberties."""
    m = rng.randint(1, 6)
    types = [sorted(c for c in range(m) if rng.random() < 0.5) for _ in range(rng.randint(1, 4))]
    n = rng.randint(0, 12)
    lines = []
    for voter in range(n):
        ballot = rng.choice(types)
        sep = rng.choice((" ", "  ", "\t"))
        body = sep.join(map(str, ballot))
        line = f"{voter}:{rng.choice(('', ' ', '  '))}{body}{rng.choice(('', ' ', ' # note'))}"
        lines.append(rng.choice(("", " ")) + line)
    if rng.random() < 0.5:
        rng.shuffle(lines)
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), "tiebreak: " + " ".join(map(str, rng.sample(range(m), m))))
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "   ", "# comment", "  # 1: 2")))
    return "\n".join([f"m {m} n {n}", *lines]) + rng.choice(("", "\n"))


def mutate(rng: random.Random, text: str) -> str:
    """The text with one defect: a bad token, a repeated or missing voter, unsorted or out-of-range
    candidates, or a tiebreak line without its colon."""
    lines = text.split("\n")
    body = [i for i, line in enumerate(lines) if ":" in line and not line.lstrip().startswith(("#", "tiebreak"))]
    if not body:
        return text + "0: 0\n"
    i = rng.choice(body)
    voter, _, rest = lines[i].partition(":")
    kind = rng.randrange(8)
    if kind == 0:
        lines.append(lines[i])  # the same line again: duplicate voter on a cached ballot
    elif kind == 1:
        lines.append(f"{voter}: {rng.randint(0, 3)} {rng.randint(0, 3)}")  # duplicate voter, maybe unsorted
    elif kind == 2:
        lines[i] = f"v{voter.strip()}:{rest}"  # bad voter token
    elif kind == 3:
        lines[i] = f"{voter}:{rest} x"  # bad candidate token, repeated on a later line
        lines.append(lines[i])
    elif kind == 4:
        lines[i] = f"{voter}: 3 1"  # unsorted candidates
    elif kind == 5:
        lines[i] = f"{voter}: 0 99"  # a candidate out of range, caught by the election
    elif kind == 6:
        lines.insert(i, rng.choice(("tiebreak", "tiebreak 0", "tiebreak : 0", "tiebreak#: 0")))  # no tiebreak colon
    else:
        del lines[i]  # a voter without a line
    return "\n".join(lines)


class TestParseMatchesPerVoterParser:
    def test_valid_texts(self):
        rng = random.Random(4101)
        for _ in range(400):
            text = random_text(rng)
            assert outcome(parse_election, text) == outcome(reference_parse, text), text

    def test_malformed_texts_give_the_same_error(self):
        rng = random.Random(4111)
        for _ in range(600):
            text = mutate(rng, random_text(rng))
            assert outcome(parse_election, text) == outcome(reference_parse, text), text


class TestSerializeMatchesPerVoterSerializer:
    def test_random_elections(self):
        rng = random.Random(4121)
        for _ in range(300):
            e = parse_election(random_text(rng))
            assert serialize_election(e) == reference_serialize(e)

    def test_gadgets(self):
        for _, bundle in builders():
            assert serialize_election(bundle.election) == reference_serialize(bundle.election)


@given(st.integers(1, 6), st.data())
def test_parse_inverts_serialize(m, data):
    n = data.draw(st.integers(0, 8))
    ballots = [sorted(data.draw(st.sets(st.integers(0, m - 1)))) for _ in range(n)]
    tiebreak = data.draw(st.none() | st.permutations(range(m)))
    e = election(m, ballots, tiebreak=tiebreak)
    parsed = parse_election(serialize_election(e))
    assert parsed == e
    assert parsed.groups == e.groups


def builders():
    """Every witness and gadget builder, by name, over each operation kind it takes."""
    graph = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    yield "sav-add", sav_add_witness(3)
    yield "sav-remove", sav_remove_witness(3)
    for kind in ("add", "remove", "swap"):
        yield f"thiele-witness-{kind}", thiele_witness(3, kind)
        yield f"x3c-thiele-covered-{kind}", x3c_to_thiele(covered_x3c_example(), Fraction(1, 2), kind)
        yield f"x3c-thiele-uncoverable-{kind}", x3c_to_thiele(uncoverable_x3c_example(), Fraction(2, 3), kind)
        yield f"phragmen-{kind}", rx3c_to_phragmen(triple_cover_rx3c(1), kind=kind)
        for variant in ("cc", "pav"):
            yield f"greedy-{variant}-{kind}", rx3c_to_greedy(no_cover_rx3c_n2(), variant, kind=kind)
    for mode in ("add", "remove"):
        yield f"sav-count-{mode}", matching_to_sav_counting(graph, mode)


class TestOneObjectPerBallotType:
    """Equal ballots share one frozenset, so grouping and rendering cost O(ballot types).

    The parser shares one object per distinct candidate text, so a parsed text
    written as ``serialize_election`` writes it has one object per ballot type.
    """

    @pytest.mark.parametrize("name, bundle", builders(), ids=[name for name, _ in builders()])
    def test_builders(self, name, bundle):
        e = bundle.election
        assert len({id(ballot) for ballot in e.ballots}) == len(e.groups)

    def test_parsed_elections(self):
        rng = random.Random(4131)
        for _ in range(200):
            e = parse_election(serialize_election(parse_election(random_text(rng))))
            assert len({id(ballot) for ballot in e.ballots}) == len(e.groups)

    @pytest.mark.parametrize(
        "bundle, voters",
        [
            (rx3c_to_phragmen(triple_cover_rx3c(1)), 8946),
            (rx3c_to_greedy(no_cover_rx3c_n2(), "cc"), 9122),
            (rx3c_to_greedy(no_cover_rx3c_n2(), "pav"), 9682),
        ],
        ids=["phragmen", "greedy-cc", "greedy-pav"],
    )
    def test_parsed_gadgets_at_bench_size(self, bundle, voters):
        text = serialize_election(bundle.election)
        e = parse_election(text)
        assert e == bundle.election and e.n == voters
        texts = [line.partition(":")[2] for line in text.splitlines()[1:] if not line.startswith("tiebreak:")]
        ballot_ids = {}
        for candidates, ballot in zip(texts, e.ballots, strict=True):
            assert ballot_ids.setdefault(candidates, id(ballot)) == id(ballot)
        assert len(set(ballot_ids.values())) == len(ballot_ids) == len(e.groups)

    def test_parsed_gadget(self):
        e = parse_election(serialize_election(rx3c_to_phragmen(triple_cover_rx3c(1)).election))
        assert len({id(ballot) for ballot in e.ballots}) == len(e.groups) == 8
