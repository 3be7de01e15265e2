"""The orbit-counting oracle against the per-bundle enumeration it replaced.

``counting.oracle_count_unchanged`` evaluates one winner set per orbit of
bundles under permutations of voters with equal ballots, weighted by the
orbit's size.  The reference below evaluates every B-subset of cells, one
winner set each.  ``orbit_count`` counts the orbits independently, as the
distinct multisets of (ballot, changed cells) over the reference's bundles.
"""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import mwrobust.counting
from mwrobust import (
    BipartiteGraph,
    CountOutcome,
    apply_sequence,
    election,
    feasible_operations,
    matching_to_sav_counting,
    no_cover_rx3c_n2,
    oracle_count_unchanged,
    preset_rule,
    rx3c_to_greedy,
    winner_set,
    winner_sets_equal,
)
from mwrobust.rules import DEFAULT_CAP

from common import all_elections

PRESETS = ("av", "sav", "cc", "pav", "greedy-cc", "greedy-pav", "phragmen")


def reference_count(e, k, rule, kind, budget, cap=DEFAULT_CAP) -> CountOutcome:
    """One winner set per B-subset of cells."""
    cells = feasible_operations(e, kind)
    base = winner_set(e, k, rule, cap)
    unchanged = 0
    for combo in combinations(cells, budget):
        if winner_sets_equal(base, winner_set(apply_sequence(e, combo), k, rule, cap), cap):
            unchanged += 1
    return CountOutcome(unchanged, comb(len(cells), budget))


def orbit_count(e, kind, budget) -> int:
    """Bundles up to permuting equal-ballot voters: one multiset of (ballot, changed cells) each."""
    orbits = set()
    for combo in combinations(feasible_operations(e, kind), budget):
        changed: dict[int, list[int]] = {}
        for op in combo:
            changed.setdefault(op.voter, []).append(op.candidate)
        orbits.add(frozenset(Counter((e.ballots[v], tuple(cs)) for v, cs in changed.items()).items()))
    return len(orbits)


@pytest.fixture
def evaluations(monkeypatch):
    """The number of ``winner_set`` calls ``oracle_count_unchanged`` has made so far."""
    calls = [0]
    inner = mwrobust.counting.winner_set

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(mwrobust.counting, "winner_set", counted)
    return calls


def check(e, k, preset, kind, budget, evaluations) -> CountOutcome:
    """The oracle's count equals the reference's, with one winner set for the base and one per orbit."""
    rule = preset_rule(preset, k)
    before = evaluations[0]
    out = oracle_count_unchanged(e, k, rule, kind, budget)
    assert out == reference_count(e, k, rule, kind, budget), (e, k, preset, kind, budget)
    assert evaluations[0] - before == 1 + orbit_count(e, kind, budget), (e, k, preset, kind, budget)
    return out


def few_types(rng: random.Random):
    """A small election whose voters share one to three ballots, without a tie-break."""
    m = rng.randint(2, 4)
    types = [[c for c in range(m) if rng.random() < 0.5] for _ in range(rng.randint(1, 3))]
    return election(m, [rng.choice(types) for _ in range(rng.randint(1, 5))])


def test_every_preset_kind_and_budget(evaluations):
    rng = random.Random(11_401)
    for _ in range(4):
        plain = few_types(rng)
        tied = election(plain.m, plain.ballots, tiebreak=rng.sample(range(plain.m), plain.m))
        k = rng.randint(1, plain.m)
        for e in (plain, tied):
            for kind in ("add", "remove"):
                for budget in range(min(3, len(feasible_operations(e, kind))) + 1):
                    for preset in PRESETS:
                        check(e, k, preset, kind, budget, evaluations)


def test_every_budget_of_every_tiny_election(evaluations):
    # budgets up to every cell: several voters of a type take equal subsets, and the last orbit takes all
    for e in (*all_elections(2, 3), *all_elections(3, 2)):
        for kind in ("add", "remove"):
            for budget in range(len(feasible_operations(e, kind)) + 1):
                check(e, 1, "greedy-pav", kind, budget, evaluations)


def test_distinct_ballots_have_one_bundle_per_orbit(evaluations):
    e = election(4, [[0], [1], [0, 1], [2, 3], [], [0, 2, 3]], tiebreak=(2, 0, 3, 1))
    for kind in ("add", "remove"):
        cells = len(feasible_operations(e, kind))
        for budget in range(4):
            for preset in ("av", "pav", "phragmen"):
                before = evaluations[0]
                check(e, 2, preset, kind, budget, evaluations)
                assert evaluations[0] - before == 1 + comb(cells, budget)


def test_one_type_holding_every_voter(evaluations):
    e = election(5, [[0, 3]] * 6)
    for kind, budgets in (("add", range(4)), ("remove", range(13))):
        for budget in budgets:
            for preset in ("sav", "cc", "greedy-cc"):
                check(e, 2, preset, kind, budget, evaluations)
    # three removals from {0, 3}: {0, 3} with {0} or {3}, or three singletons, 0 to 3 of them {3}
    assert orbit_count(e, "remove", 3) == 6


def test_matching_gadgets_at_their_budget(evaluations):
    cycle = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    for mode, expected in (("add", 128), ("remove", 8)):
        bundle = matching_to_sav_counting(cycle, mode)
        out = check(bundle.election, bundle.k, "sav", mode, bundle.budget, evaluations)
        assert out.unchanged == expected


@pytest.mark.parametrize(
    "name, kind, expected",
    [
        ("cc", "add", CountOutcome(55696, 55696)),
        ("cc", "remove", CountOutcome(17280, 17280)),
        ("pav", "add", CountOutcome(28734, 59296)),
        ("pav", "remove", CountOutcome(7120, 18160)),
    ],
)
def test_greedy_gadgets_single_operation(name, kind, expected, evaluations):
    # values of the per-bundle enumeration, which took seconds per call on these ~9k-voter gadgets
    gadget = rx3c_to_greedy(no_cover_rx3c_n2(), name)
    e = gadget.election
    assert oracle_count_unchanged(e, gadget.k, preset_rule(f"greedy-{name}", gadget.k), kind, 1) == expected
    # at B=1 an orbit is a ballot type and one of its moves
    moves = sum(e.m - len(ballot) if kind == "add" else len(ballot) for ballot in e.groups)
    assert evaluations[0] == 1 + moves


def test_weights_must_cover_every_bundle(monkeypatch):
    full = mwrobust.counting._orbits

    def one_short(*args):
        orbits = full(*args)
        next(orbits)
        return orbits

    monkeypatch.setattr(mwrobust.counting, "_orbits", one_short)
    e = election(3, [[0], [0], [1]])
    with pytest.raises(RuntimeError, match=r"^orbit weights sum to 4, not C\(6,1\) = 6$"):
        oracle_count_unchanged(e, 1, preset_rule("av", 1), "add", 1)
