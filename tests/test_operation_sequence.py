"""``feasible_operations`` as a sequence built on demand, against a per-voter list loop."""
from __future__ import annotations

import random

import pytest

import mwrobust.perturb
from mwrobust import Add, Remove, Swap, election, feasible_operations, level_argmax, preset_rule

KINDS = ("add", "remove", "swap")


def reference_operations(e, kind: str, voters) -> list:
    """The feasible operations of one kind on ``voters``, built as one list, voter by voter."""
    ops = []
    for v in voters:
        ballot = e.ballots[v]
        if kind == "add":
            ops.extend(Add(v, c) for c in range(e.m) if c not in ballot)
        elif kind == "remove":
            ops.extend(Remove(v, c) for c in sorted(ballot))
        else:
            outside = [c for c in range(e.m) if c not in ballot]
            ops.extend(Swap(v, s, t) for s in sorted(ballot) for t in outside)
    return ops


def mixed_election(rng: random.Random, max_m: int = 7, max_n: int = 30):
    """A random election whose voters draw their own density, so empty and complete ballots occur."""
    m = rng.randint(1, max_m)
    n = rng.randint(0, max_n)
    ballots = []
    for _ in range(n):
        density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        ballots.append([c for c in range(m) if rng.random() < density])
    return election(m, ballots)


def cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        e = mixed_election(rng)
        for kind in KINDS:
            yield e, kind, feasible_operations(e, kind), reference_operations(e, kind, range(e.n))


def test_no_voters_means_no_operations():
    for kind in KINDS:
        ops = feasible_operations(election(3, []), kind)
        assert len(ops) == 0 and not ops and list(ops) == [] and ops == []
        with pytest.raises(IndexError):
            ops[0]


def test_length_indices_and_iteration():
    for e, kind, ops, ref in cases(9101, 120):
        assert len(ops) == len(ref)
        assert list(ops) == ref
        assert [ops[i] for i in range(len(ref))] == ref
        assert [ops[-i] for i in range(1, len(ref) + 1)] == [ref[-i] for i in range(1, len(ref) + 1)]
        for bad in (len(ref), len(ref) + 7, -len(ref) - 1):
            with pytest.raises(IndexError):
                ops[bad]


def test_slices():
    slices = [slice(None), slice(None, None, 2), slice(1, None, 3), slice(None, None, -1), slice(-3, None),
              slice(5, 2, -1), slice(2, -2, 4), slice(40, 10, -7), slice(1000, None)]
    for e, kind, ops, ref in cases(9102, 80):
        for s in slices:
            assert ops[s] == ref[s]
            assert isinstance(ops[s], list)


def test_equality_both_ways():
    for e, kind, ops, ref in cases(9103, 80):
        assert ops == ref and ref == ops
        assert ops == tuple(ref) and tuple(ref) == ops
        assert ops == feasible_operations(e, kind)
        assert not ops != ref
        if ref:
            assert ops != ref[:-1] and ref[:-1] != ops
            changed = ref[:-1] + [Add(e.n, 0)]
            assert ops != changed and changed != ops
        assert ops != {"not": "a sequence"}


def test_random_sample_matches_the_list():
    # k runs over 0..len, so both of ``sample``'s branches (pool copy and index set) are taken
    rng = random.Random(9104)
    longest = 0
    for e, kind, ops, ref in cases(9105, 40):
        longest = max(longest, len(ref))
        for k in range(len(ref) + 1):
            s = rng.randrange(1 << 30)
            assert random.Random(s).sample(ops, k) == random.Random(s).sample(ref, k)
    assert longest > 21  # ``sample`` indexes rather than copies a population this long for small k


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match=r"^unknown operation kind 'flip'$"):
        feasible_operations(election(2, [[0]]), "flip")


def test_level_argmax_tries_first_holders_in_voter_order(monkeypatch):
    """The operations ``level_argmax`` tries are those of each ballot type's first voter, in voter order."""
    real_perturbed = mwrobust.perturb._perturbed
    tried = []

    def recording_perturbed(e, op):
        tried.append(op)
        return real_perturbed(e, op)

    monkeypatch.setattr(mwrobust.perturb, "_perturbed", recording_perturbed)
    rng = random.Random(9106)
    for _ in range(60):
        m = rng.randint(2, 5)
        e = election(m, [rng.choice([[], [0], [0, 1], [1, m - 1], list(range(m))]) for _ in range(rng.randint(0, 12))])
        k = rng.randint(1, m - 1)
        for kind in KINDS:
            tried.clear()
            level_argmax(e, k, preset_rule("av", k), kind)
            assert tried == reference_operations(e, kind, sorted(map(e.ballots.index, e.groups)))
