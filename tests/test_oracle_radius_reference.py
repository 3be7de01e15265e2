"""``oracle_radius`` against the voter-tuple breadth-first search it replaces.

The reference below builds every child with ``apply``, lists its operations
with ``feasible_operations`` and keys ``visited`` by the child's voter tuple.
The library search holds each state as its edited voters instead; outcomes,
witnesses, cap messages and the number of states visited must all agree.
"""
from __future__ import annotations

import random
import tracemalloc

import pytest

from mwrobust import (
    CapExceeded,
    Election,
    ExceedsBound,
    Finite,
    Impossible,
    apply,
    election,
    feasible_operations,
    oracle_radius,
    preset_rule,
    winner_set,
    winner_sets_equal,
)
from mwrobust.rules import DEFAULT_CAP

PRESETS = ("av", "sav", "cc", "pav", "greedy-cc", "greedy-pav", "phragmen")
KINDS = ("add", "remove", "swap")
CAPS = (4, 40, DEFAULT_CAP)


def reference_oracle_radius(e: Election, k: int, rule, kind: str, max_budget: int, cap: int = DEFAULT_CAP):
    """The voter-tuple search, as ``(outcome, elections visited)``; raises ``CapExceeded`` like the library."""
    base = winner_set(e, k, rule, cap)
    visited = {e.ballots}
    frontier = [(e, ())]
    for depth in range(1, max_budget + 1):
        next_frontier = []
        for elec, ops in frontier:
            for op in feasible_operations(elec, kind):
                child = apply(elec, op)
                if child.ballots in visited:
                    continue
                if len(visited) >= cap:
                    raise CapExceeded(f"visiting {len(visited) + 1} elections exceeds cap {cap}")
                visited.add(child.ballots)
                if not winner_sets_equal(base, winner_set(child, k, rule, cap), cap):
                    return Finite(depth, witness=ops + (op,)), len(visited)
                next_frontier.append((child, ops + (op,)))
        if not next_frontier:
            return Impossible(), len(visited)
        frontier = next_frontier
    return ExceedsBound(max_budget), len(visited)


def answer(search, *args):
    """What a search returns, comparable across searches: outcome, witness repr or cap message."""
    try:
        outcome = search(*args)
    except CapExceeded as exc:
        return "cap", str(exc)
    if isinstance(outcome, tuple):
        outcome = outcome[0]
    return outcome, repr(getattr(outcome, "witness", None))


def assert_same(e: Election, k: int, name: str, kind: str, budget: int, cap: int) -> None:
    args = (e, k, preset_rule(name, k), kind, budget, cap)
    assert answer(oracle_radius, *args) == answer(reference_oracle_radius, *args), (e, k, name, kind, budget, cap)


def small_election(rng: random.Random, with_tiebreak: bool) -> Election:
    m = rng.randint(2, 4)
    ballots = [[c for c in range(m) if rng.random() < 0.5] for _ in range(rng.randint(1, 4))]
    return election(m, ballots, tiebreak=rng.sample(range(m), m) if with_tiebreak else None)


@pytest.mark.parametrize("with_tiebreak", (False, True))
def test_every_preset_kind_budget_and_cap(with_tiebreak):
    rng = random.Random(5201 + with_tiebreak)
    for _ in range(10):
        e = small_election(rng, with_tiebreak)
        k = rng.randint(1, e.m - 1)
        for name in PRESETS:
            for kind in KINDS:
                for budget in range(4):
                    for cap in CAPS:
                        assert_same(e, k, name, kind, budget, cap)


def test_duplicate_heavy_elections():
    rng = random.Random(5211)
    for _ in range(40):
        m = rng.randint(2, 5)
        types = [[c for c in range(m) if rng.random() < 0.5] for _ in range(rng.randint(1, 2))]
        ballots = [rng.choice(types) for _ in range(rng.randint(3, 8))]
        e = election(m, ballots, tiebreak=rng.sample(range(m), m) if rng.random() < 0.5 else None)
        k = rng.randint(1, m - 1)
        assert_same(e, k, rng.choice(PRESETS), rng.choice(KINDS), rng.randint(1, 3), rng.choice(CAPS))


def test_swap_round_trips_revisit_their_start():
    """A swap and its inverse give a voter back its ballot: that election is already visited."""
    rng = random.Random(5221)
    checked = 0
    while checked < 30:
        e = small_election(rng, rng.random() < 0.5)
        k = rng.randint(1, e.m - 1)
        rule = preset_rule(rng.choice(PRESETS), k)
        budget = rng.randint(2, 3)
        outcome, states = reference_oracle_radius(e, k, rule, "swap", budget)
        if isinstance(outcome, Finite) or states <= 7:
            continue  # m <= 4, so a cap of 7 never bounds a winner set's C(m, k) committees
        # the search holds exactly the reference's elections: it finishes at that cap and not one below
        assert oracle_radius(e, k, rule, "swap", budget, cap=states) == outcome
        with pytest.raises(CapExceeded, match=f"^visiting {states} elections exceeds cap {states - 1}$"):
            oracle_radius(e, k, rule, "swap", budget, cap=states - 1)
        checked += 1


def test_search_holds_no_voter_tuple():
    e = Election(3, (frozenset({0}),) * 1000 + (frozenset({1}),) * 500)
    for name in ("av", "greedy-pav"):
        tracemalloc.start()
        try:
            outcome = oracle_radius(e, 1, preset_rule(name, 1), "remove", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == ExceedsBound(1)  # one removal leaves 0 ahead, 999 to 500
        assert peak < 4 * 2**20, peak  # a 1,500-voter tuple per state alone is 18 MB
