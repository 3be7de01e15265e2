"""Robustness radius: fewest single-approval operations that change the winner set.

``av_radius`` and ``sav_radius`` are exact closed-form/greedy algorithms for
the two separable rules; they read the ballot groups ``e.groups``, never the
voter tuple (SAV counts, per candidate pair, the votes of each size that
approve x, y, both or neither).  ``oracle_radius`` is a rule-agnostic
breadth-first search over perturbed elections held as their edited voters,
usable as an independent check and for the sequential rules;
``robustness_radius`` chooses between them.  All radii are with respect to one
operation kind applied repeatedly (``add``, ``remove`` or ``swap``).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat

from .core import CapExceeded, Election, _profile_after, approval_scores, sav_scores
from .perturb import Operation, _after, _check_kind, _voter_ops
from .rules import DEFAULT_CAP, RuleSpec, _check_k, winner_set, winner_sets_equal, winners_separable

__all__ = [
    "ExceedsBound",
    "Finite",
    "Impossible",
    "RadiusOutcome",
    "av_radius",
    "oracle_radius",
    "robustness_radius",
    "sav_radius",
]


@dataclass(frozen=True)
class Finite:
    """The winner set can be changed, and ``value`` operations are necessary and sufficient."""

    value: int
    witness: tuple[Operation, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Impossible:
    """No number of operations of this kind ever changes the winner set."""


@dataclass(frozen=True)
class ExceedsBound:
    """The search proved nothing changes within ``bound`` operations, and stopped there."""

    bound: int


RadiusOutcome = Finite | Impossible | ExceedsBound


def _tied_radius(e: Election, pool, scores, kind: str) -> Finite | Impossible | None:
    """The radius of AV or SAV when ``pool``, the candidates at the k-th score, is tied across the boundary.

    One operation on a tied candidate splits the pool, except when the pool
    is saturated.  Returns ``None`` only for adds on a pool that every
    ballot approves, where each rule has its own escape.
    """
    if kind == "swap":
        # a swap never changes a ballot's size, so moving one approval onto (or off) a
        # tied candidate splits the pool whenever any swap exists: some ballot is partial
        return Finite(1) if any(0 < len(ballot) < e.m for ballot in e.groups) else Impossible()
    if kind == "add":
        if any(c not in ballot for ballot in e.groups for c in pool):
            return Finite(1)  # adding a tied candidate to that vote splits the pool
        return None
    if any(scores[c] > 0 for c in pool):
        return Finite(1)  # removing an approval of a tied candidate drops it out of the pool
    # The pool consists of zero-score candidates (so all positive candidates
    # are forced).  Score shifts among positive candidates never change the
    # forced/pool split; only erasing some positive candidate entirely does.
    positive = [a for a in approval_scores(e) if a > 0]  # approved exactly when SAV-positive
    return Finite(min(positive)) if positive else Impossible()


# ---------------------------------------------------------------------------
# Approval voting


def av_radius(e: Election, k: int, kind: str) -> Finite | Impossible:
    """Exact AV robustness radius, by case analysis on the sorted score vector.

    With scores ``z_1 >= ... >= z_m``, the winner family changes exactly when
    the (sorted) boundary between positions k and k+1 moves.  Additions can
    only raise scores, removals only lower them, and one swap moves one unit
    from one candidate to another, which gives closed forms:

    * tie at the boundary: one operation on a tied candidate splits the pool,
      feasibility permitting (``_tied_radius``);
    * otherwise, or for adds on a pool every ballot approves, the family
      changes once the best score below ``z_k`` meets it: the gap closes
      against that candidate (adds), against ``c_k`` (removals), or from both
      ends (swaps, so ``ceil(gap/2)``).  With nothing below ``z_k`` (k = m, or
      every candidate tied and in every ballot) nothing changes the family.
    """
    _check_kind(kind)
    _check_k(e, k)
    scores = approval_scores(e)
    z = sorted(scores, reverse=True)
    zk = z[k - 1]
    if z[k : k + 1] == [zk]:
        tied = _tied_radius(e, {c for c in range(e.m) if scores[c] == zk}, scores, kind)
        if tied is not None:
            return tied
    below = [s for s in z if s < zk]
    if not below:
        return Impossible()
    gap = zk - below[0]
    return Finite((gap + 1) // 2 if kind == "swap" else gap)


# ---------------------------------------------------------------------------
# Satisfaction approval voting


def sav_radius(e: Election, k: int, kind: str) -> Finite | Impossible:
    """Exact SAV robustness radius.

    If the election has several winning committees, the k-th score is tied
    and a single operation touching a tied candidate already splits the tie
    (``_tied_radius``; the exceptions are a tied pool approved by everybody,
    handled below, and a tied pool at score zero).  Otherwise there is a
    unique winning committee ``X``, and the family changes exactly when some
    outsider ``y`` catches up with some ``x in X``; for each pair the
    cheapest schedule of operations is greedy in the per-vote score
    transfer, and the radius is the best pair (``Impossible`` at k = m: no outsider).
    """
    _check_kind(kind)
    ws = winners_separable(e, k, "sav")
    scores = sav_scores(e)
    if ws.slots < len(ws.pool):
        tied = _tied_radius(e, ws.pool, scores, kind)
        if tied is not None:
            return tied
        # Saturated pool: every tied candidate sits in every ballot, so no
        # add ever breaks their tie; the family changes only once some
        # outsider is approved in every vote as well.  That is the same
        # pair-greedy as in the resolute case, with any pool member as x.
        return _min_pair_cost(e, "add", scores, [(min(ws.pool), y) for y in range(e.m) if y not in ws.pool])
    winners = sorted(ws.forced | ws.pool)
    losers = [c for c in range(e.m) if c not in ws.forced and c not in ws.pool]
    return _min_pair_cost(e, kind, scores, [(x, y) for x in winners for y in losers])


def _min_pair_cost(e: Election, kind: str, scores, pairs) -> Finite | Impossible:
    """Fewest ops of ``kind`` making some y's SAV score reach its x's over ``pairs``; ``Impossible`` if none."""
    cost = min((_sav_pair_cost(e, kind, x, y, scores[x] - scores[y]) for x, y in pairs), default=None)
    return Impossible() if cost is None else Finite(cost)


def _sav_pair_cost(e: Election, kind: str, x: int, y: int, delta: Fraction) -> int:
    """Fewest ops of ``kind`` making y's SAV score reach x's.

    An operation's effect on the pair depends only on its vote's size ``a``
    and on whether the vote approves x and y, so the votes are counted by
    ``(a, x in vote, y in vote)`` once.  Some count always suffices: removing
    x from every vote, or adding y to (or swapping x for y in) every vote
    with x but not y, closes the gap, since those votes hold at least
    ``delta`` of x's score.
    """
    if delta <= 0:
        return 0
    votes: Counter[tuple[int, bool, bool]] = Counter()
    for ballot, count in e.groups.items():
        votes[len(ballot), x in ballot, y in ballot] += count
    if kind == "remove":
        return _pair_remove_cost(votes, delta)
    # One add or swap per vote is optimal, so each vote offers one gain.
    # Add y to a vote of size a: y gets 1/(a+1), and x, if approved there,
    # drops from 1/a to 1/(a+1), for a combined 1/a.  Swaps keep sizes: x out
    # for y transfers 2/a; x out for anything (y already there) or anything
    # out for y (x absent) transfers 1/a; a second swap in the same vote
    # cannot touch x or y again.
    gains: list[tuple[Fraction, int]] = []
    for (a, has_x, has_y), count in votes.items():
        if kind == "add":
            if not has_y:
                gains.append((Fraction(1, a) if has_x else Fraction(1, a + 1), count))
        elif has_x and not has_y:
            gains.append((Fraction(2, a), count))
        elif has_x == has_y and 0 < a < e.m:
            gains.append((Fraction(1, a), count))
    return _greedy_cover(gains, delta)


def _greedy_cover(gains: list[tuple[Fraction, int]], delta: Fraction) -> int:
    """Fewest summands reaching ``delta``, each ``(gain, count)`` offering its gain up to count times."""
    ops = 0
    for gain, count in sorted(gains, key=lambda pair: pair[0], reverse=True):
        total = count * gain
        if total >= delta:
            return ops - (-delta // gain)  # ceil(delta / gain) more
        delta -= total
        ops += count
    raise ValueError(f"every gain together does not reach {delta}")


def _pair_remove_cost(votes: Counter[tuple[int, bool, bool]], delta: Fraction) -> int:
    """Fewest removals making y's score reach x's, from the votes counted by (size, has x, has y).

    Useful removals are: removing x from a vote also approving y (gap
    shrinks by 1/(a-1): x loses 1/a and y's share grows), removing x from a
    vote without y (gap shrinks by 1/a), and removing some other approval
    from a vote approving y but not x (y's share grows by 1/(a(a-1)),
    repeatable as the vote shrinks).  Within each category the smallest
    votes are the most profitable, so the search enumerates how many votes
    of the first two categories to use and covers the rest by "digging
    into" y-votes smallest-first.
    """
    both: Counter[int] = Counter()
    x_only: Counter[int] = Counter()
    chains: Counter[int] = Counter()  # diggable y-vote sizes; a converted both-vote joins them one smaller
    for (a, has_x, has_y), c in votes.items():
        if has_x:
            (both if has_y else x_only)[a] += c
        elif has_y and a >= 2:
            chains[a] += c
    both_sizes = chain.from_iterable(repeat(a, c) for a, c in sorted(both.items()))  # smallest first
    # the gap closed by removing x from the b_x smallest x-only votes, summed only as far as it is read
    xonly_prefix = [Fraction(0)]
    xonly_gains = chain.from_iterable(repeat(Fraction(1, a), c) for a, c in sorted(x_only.items()))

    best = sum(both.values()) + sum(x_only.values())  # removing x from every vote closes the gap
    left = delta  # the gap after converting the first b_both both-votes
    dug = sum(c * (1 - Fraction(1, a)) for a, c in chains.items())  # the gain of digging every y-vote out
    for b_both in range(sum(both.values()) + 1):
        if b_both >= best:
            break
        if b_both:
            a = next(both_sizes)
            left -= Fraction(1, a - 1)
            if a - 1 >= 2:
                chains[a - 1] += 1
                dug += 1 - Fraction(1, a - 1)
        reach = left - dug  # the gap left once every y-vote is dug out
        for b_x, removed in enumerate(_read_sums(xonly_prefix, xonly_gains)):
            base_ops = b_both + b_x
            if base_ops >= best:
                break
            if removed >= left:
                best = base_ops
                break
            if base_ops + 1 >= best:
                break  # this b_x needs a dig and every later one costs as much
            if removed >= reach:
                best = min(best, base_ops + _dig_count(chains, left - removed))
    return best


def _read_sums(sums: list[Fraction], gains: Iterator[Fraction]) -> Iterator[Fraction]:
    """Yield the running sums held in ``sums``, then extend it from ``gains`` only as far as the caller reads."""
    yield from sums
    for gain in gains:
        sums.append(sums[-1] + gain)
        yield sums[-1]


def _dig_count(chains: Counter[int], need: Fraction) -> int:
    """Fewest digs into y-votes, smallest vote first and each dug out entirely, whose gains reach ``need``.

    ``chains`` counts the y-votes by size; ``need`` is positive and at most
    the gain of digging every y-vote out.
    A vote's gain per dig grows as it shrinks, so this order takes the largest
    gains first.  j digs into a vote of size a yield 1/(a(a-1)) + ... +
    1/((a-j+1)(a-j)) = 1/(a-j) - 1/a, all a-1 of them 1 - 1/a.
    """
    digs = 0
    for a, count in sorted(chains.items()):
        whole = 1 - Fraction(1, a)
        if need <= count * whole:
            emptied = need // whole  # votes of size a dug out entirely
            need -= emptied * whole  # 0 <= need < whole: fewest j with 1/(a-j) >= need + 1/a
            return digs + emptied * (a - 1) + a - 1 // (need + Fraction(1, a))
        need -= count * whole
        digs += count * (a - 1)
    raise ValueError(f"digging every y-vote out falls {need} short")


# ---------------------------------------------------------------------------
# Brute-force oracle


def oracle_radius(
    e: Election,
    k: int,
    rule: RuleSpec,
    kind: str,
    max_budget: int,
    cap: int = DEFAULT_CAP,
) -> RadiusOutcome:
    """Breadth-first search for the radius under any rule.

    Explores elections reachable by 1, 2, ... operations of ``kind`` and stops at the
    first one whose winner set differs.  Returns ``Impossible`` when the whole reachable
    space is exhausted without a change, and ``ExceedsBound(max_budget)`` when the
    budget runs out first.  A ``Finite`` result carries a witness sequence.  A state is
    its edits, the ``(voter, ballot)`` pairs where it differs from ``e``; equal edits
    mean equal elections, so edits key ``visited`` in O(depth) memory per state.
    Raises ``CapExceeded`` before the search would hold more than ``cap`` distinct
    elections, ``e`` included; ``cap`` also bounds each winner set.
    """
    _check_kind(kind)
    if max_budget < 0:
        raise ValueError("max_budget must be nonnegative")
    base = winner_set(e, k, rule, cap)
    ballots, tables = e.ballots, {}  # tables: the move table of each ballot met
    visited = {frozenset()}
    frontier: list[tuple[frozenset[tuple[int, frozenset[int]]], tuple[Operation, ...]]] = [(frozenset(), ())]
    for depth in range(1, max_budget + 1):
        next_frontier = []
        for edits, ops in frontier:
            edited = dict(edits)
            for v, original in enumerate(ballots):
                ballot = edited.get(v, original)
                others = edits - {(v, ballot)} if v in edited else edits
                for op in _voter_ops(kind, v, ballot, e.m, tables):
                    new = _after(ballot, op)
                    child = others if new == original else others | {(v, new)}
                    if child in visited:
                        continue
                    if len(visited) >= cap:
                        raise CapExceeded(f"visiting {len(visited) + 1} elections exceeds cap {cap}")
                    visited.add(child)
                    after = _profile_after(e, [(ballots[u], b) for u, b in child])
                    if not winner_sets_equal(base, winner_set(after, k, rule, cap), cap):
                        return Finite(depth, witness=ops + (op,))
                    next_frontier.append((child, ops + (op,)))
        if not next_frontier:
            return Impossible()
        frontier = next_frontier
    return ExceedsBound(max_budget)


#: Exact radius algorithms by rule kind, with the provenance they report.
_EXACT_RADIUS = {"av": (av_radius, "av-case-analysis"), "sav": (sav_radius, "sav-pair-analysis")}


def robustness_radius(
    e: Election,
    k: int,
    rule: RuleSpec,
    kind: str,
    *,
    method: str | None = None,
    budget: int | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[RadiusOutcome, str, str]:
    """The radius of ``e`` for operations of ``kind``, as ``(outcome, method, provenance)``.

    ``method`` is ``"exact"`` (AV and SAV only), ``"oracle"`` (any rule; the
    breadth-first search stops after ``budget`` operations) or ``None``,
    which picks ``"exact"`` where the rule has an exact algorithm and
    ``"oracle"`` otherwise.  ``budget``, when given, must be nonnegative; the
    decision form "at most ``budget`` operations suffice" holds iff the
    outcome is ``Finite`` with ``value <= budget``.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if method is None:
        method = "exact" if rule.kind in _EXACT_RADIUS else "oracle"
    if method == "exact":
        if rule.kind not in _EXACT_RADIUS:
            raise ValueError(f"rule kind {rule.kind!r} has no exact radius algorithm; use method 'oracle'")
        algorithm, provenance = _EXACT_RADIUS[rule.kind]
        return algorithm(e, k, kind), method, provenance
    if method != "oracle":
        raise ValueError(f"unknown radius method {method!r}; expected 'exact' or 'oracle'")
    if budget is None:
        raise ValueError("method 'oracle' needs a budget")
    return oracle_radius(e, k, rule, kind, max_budget=budget, cap=cap), method, "bfs-oracle"
