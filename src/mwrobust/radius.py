"""Robustness radius: fewest single-approval operations that change the winner set.

``av_radius`` and ``sav_radius`` are exact closed-form/greedy algorithms for
the two separable rules; ``oracle_radius`` is a rule-agnostic breadth-first
search over perturbed elections, usable as an independent check and for the
sequential rules; ``robustness_radius`` chooses between them.  All radii
are with respect to one operation kind applied repeatedly (``add``,
``remove`` or ``swap``).
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .core import CapExceeded, Election, approval_scores, sav_scores
from .perturb import OP_KINDS, Operation, apply, feasible_operations
from .rules import DEFAULT_CAP, RuleSpec, winner_set, winner_sets_equal, winners_separable


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


# ---------------------------------------------------------------------------
# Approval voting


def av_radius(e: Election, k: int, kind: str) -> Finite | Impossible:
    """Exact AV robustness radius, by case analysis on the sorted score vector.

    With scores ``z_1 >= ... >= z_m``, the winner family changes exactly when
    the (sorted) boundary between positions k and k+1 moves.  Additions can
    only raise scores, removals only lower them, and one swap moves one unit
    from one candidate to another, which gives closed forms in each case:

    * strict gap ``z_k > z_{k+1}``: close it against ``c_{k+1}`` (adds), or
      against ``c_k`` (removals), or from both ends at once (swaps, so
      ``ceil(gap/2)``);
    * tie at the boundary: one operation on a tied candidate splits the pool,
      feasibility permitting;
    * saturated ties (everyone at ``n`` for adds, at ``0`` for removals):
      the cheapest escape is raising the best non-saturated candidate to
      ``n``, respectively erasing the lowest-scoring positive candidate.
    """
    _check_radius_args(e, k, kind)
    scores = approval_scores(e)
    z = sorted(scores, reverse=True)
    n = e.n
    zk, zk1 = z[k - 1], z[k]
    if kind == "add":
        if zk > zk1:
            return Finite(zk - zk1)
        if zk < n:
            return Finite(1)
        # boundary tied at n: every add-reachable change must lift some
        # below-n candidate all the way to n
        below = [s for s in z if s < n]
        if not below:
            return Impossible()
        return Finite(n - max(below))
    if kind == "remove":
        if zk > zk1:
            return Finite(zk - zk1)
        if zk > 0:
            return Finite(1)
        # boundary tied at 0: the family only changes when some positive
        # candidate is erased entirely
        positive = [s for s in z if s > 0]
        if not positive:
            return Impossible()
        return Finite(min(positive))
    # swap
    if zk > zk1:
        return Finite((zk - zk1 + 1) // 2)
    if any(0 < len(ballot) < e.m for ballot in e.ballots):
        return Finite(1)
    return Impossible()  # every ballot is empty or complete: no swap exists


# ---------------------------------------------------------------------------
# Satisfaction approval voting


def sav_radius(e: Election, k: int, kind: str) -> Finite | Impossible:
    """Exact SAV robustness radius.

    If the election has several winning committees, the k-th score is tied
    and a single operation touching a tied candidate already splits the tie
    (with two exceptions handled below: a tied pool approved by everybody,
    and a tied pool at score zero).  Otherwise there is a unique winning
    committee ``X``, and the family changes exactly when some outsider ``y``
    catches up with some ``x in X``; for each pair the cheapest schedule of
    operations is greedy in the per-vote score transfer, and the radius is
    the best pair.
    """
    _check_radius_args(e, k, kind)
    ws = winners_separable(e, k, "sav")
    scores = sav_scores(e)
    if ws.slots < len(ws.pool):
        return _sav_radius_irresolute(e, ws, scores, kind)
    winners = sorted(ws.forced | ws.pool)
    losers = [c for c in range(e.m) if c not in ws.forced and c not in ws.pool]
    best: int | None = None
    for x in winners:
        for y in losers:
            cost = _sav_pair_cost(e, kind, x, y, scores[x] - scores[y])
            if cost is not None and (best is None or cost < best):
                best = cost
    return Finite(best) if best is not None else Impossible()


def _sav_radius_irresolute(e: Election, ws, scores, kind: str) -> Finite | Impossible:
    pool = sorted(ws.pool)
    if kind == "swap":
        # a swap never changes a ballot's size, so moving one approval onto
        # (or off) a tied candidate splits the pool whenever any swap exists
        if any(0 < len(ballot) < e.m for ballot in e.ballots):
            return Finite(1)
        return Impossible()
    if kind == "add":
        if any(c not in ballot for ballot in e.ballots for c in pool):
            return Finite(1)  # adding a tied candidate to that vote splits the pool
        # Saturated pool: every tied candidate sits in every ballot, so no
        # add ever breaks their tie; the family changes only once some
        # outsider is approved in every vote as well.  That is the same
        # pair-greedy as in the resolute case, with any pool member as x.
        if not pool or len(pool) == e.m:
            return Impossible()
        x = pool[0]
        best: int | None = None
        for y in range(e.m):
            if y in ws.pool:
                continue
            cost = _sav_pair_cost(e, "add", x, y, scores[x] - scores[y])
            if cost is not None and (best is None or cost < best):
                best = cost
        return Finite(best) if best is not None else Impossible()
    # remove
    if any(scores[c] > 0 for c in pool):
        return Finite(1)  # removing an approval of a tied candidate drops it out of the pool
    # The pool consists of zero-score candidates (so all positive candidates
    # are forced).  Score shifts among positive candidates never change the
    # forced/pool split; only erasing some positive candidate entirely does.
    positive = [a for a in approval_scores(e) if a > 0]  # approved exactly when SAV-positive
    if not positive:
        return Impossible()
    return Finite(min(positive))


def _sav_pair_cost(e: Election, kind: str, x: int, y: int, delta: Fraction) -> int | None:
    """Fewest ops of ``kind`` making y's SAV score reach x's (``None`` if unreachable)."""
    if delta <= 0:
        return 0
    if kind == "add":
        return _greedy_cover(_pair_add_gains(e, x, y), delta)
    if kind == "swap":
        return _greedy_cover(_pair_swap_gains(e, x, y), delta)
    return _pair_remove_cost(e, x, y, delta)


def _pair_add_gains(e: Election, x: int, y: int) -> list[Fraction]:
    """Score-gap reduction per vote from adding y there (one add per vote is optimal).

    Adding y to a vote of size a gives y 1/(a+1); if the vote approves x,
    x additionally drops from 1/a to 1/(a+1), for a combined 1/a.
    """
    gains = []
    for ballot in e.ballots:
        if y in ballot:
            continue
        a = len(ballot)
        gains.append(Fraction(1, a) if x in ballot else Fraction(1, a + 1))
    return gains


def _pair_swap_gains(e: Election, x: int, y: int) -> list[Fraction]:
    """Best score-gap reduction a single swap in each vote can contribute.

    Ballot sizes never change under swaps, so per vote of size a: swapping
    x out for y transfers 2/a; swapping x out for anything (y already there)
    or anything out for y (x absent) transfers 1/a; a second swap in the
    same vote cannot touch x or y again, so one swap per vote suffices.
    """
    gains = []
    for ballot in e.ballots:
        a = len(ballot)
        if x in ballot and y not in ballot:
            gains.append(Fraction(2, a))
        elif x in ballot and y in ballot:
            if a < e.m:
                gains.append(Fraction(1, a))
        elif x not in ballot and y not in ballot:
            if a >= 1:
                gains.append(Fraction(1, a))
    return gains


def _greedy_cover(gains: list[Fraction], delta: Fraction) -> int | None:
    """Fewest summands from ``gains`` reaching ``delta`` (take largest first)."""
    gains.sort(reverse=True)
    total = Fraction(0)
    for count, g in enumerate(gains, start=1):
        total += g
        if total >= delta:
            return count
    return None


def _pair_remove_cost(e: Election, x: int, y: int, delta: Fraction) -> int | None:
    """Fewest removals making y's score reach x's.

    Useful removals are: removing x from a vote also approving y (gap
    shrinks by 1/(a-1): x loses 1/a and y's share grows), removing x from a
    vote without y (gap shrinks by 1/a), and removing some other approval
    from a vote approving y but not x (y's share grows by 1/(a(a-1)),
    repeatable as the vote shrinks).  Within each category the smallest
    votes are the most profitable, so the search enumerates how many votes
    of the first two categories to use and covers the rest greedily by
    "digging into" y-votes smallest-first.
    """
    both = sorted(len(b) for b in e.ballots if x in b and y in b)
    x_only = sorted(len(b) for b in e.ballots if x in b and y not in b)
    y_only = sorted(len(b) for b in e.ballots if y in b and x not in b)

    conv_prefix = [Fraction(0)]
    for a in both:
        conv_prefix.append(conv_prefix[-1] + Fraction(1, a - 1))
    xonly_prefix = [Fraction(0)]
    for a in x_only:
        xonly_prefix.append(xonly_prefix[-1] + Fraction(1, a))

    best: int | None = None
    for b_both in range(len(both) + 1):
        if best is not None and b_both >= best:
            break
        # digging candidates: y-votes, plus converted both-votes (now one smaller)
        chains = [a for a in y_only if a >= 2] + [both[i] - 1 for i in range(b_both) if both[i] - 1 >= 2]
        dig_cum = _dig_reductions(chains)
        for b_x in range(len(x_only) + 1):
            base_ops = b_both + b_x
            if best is not None and base_ops >= best:
                break
            remaining = delta - conv_prefix[b_both] - xonly_prefix[b_x]
            if remaining <= 0:
                best = base_ops
                break
            idx = bisect_left(dig_cum, remaining)
            if idx < len(dig_cum):
                total = base_ops + idx + 1
                if best is None or total < best:
                    best = total
    return best


def _dig_reductions(sizes: list[int]) -> list[Fraction]:
    """Cumulative gap reductions from repeatedly shrinking the smallest y-vote.

    A y-vote of current size a yields 1/(a(a-1)) per removed co-approval;
    marginals depend only on the current size, so always digging the
    smallest available vote is optimal.
    """
    heap = list(sizes)
    heapq.heapify(heap)
    cums: list[Fraction] = []
    total = Fraction(0)
    while heap:
        a = heapq.heappop(heap)
        total += Fraction(1, a * (a - 1))
        cums.append(total)
        if a - 1 >= 2:
            heapq.heappush(heap, a - 1)
    return cums


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

    Explores elections reachable by 1, 2, ... operations of ``kind``,
    deduplicated by their ballots, and stops at the first one whose winner
    set differs.  Returns ``Impossible`` when the whole reachable space is
    exhausted without a change, and ``ExceedsBound(max_budget)`` when the
    budget runs out first.  A ``Finite`` result carries a witness sequence.
    Raises ``CapExceeded`` before the search would hold more than ``cap``
    distinct elections, ``e`` included; ``cap`` also bounds each winner set.
    """
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
    if max_budget < 0:
        raise ValueError("max_budget must be nonnegative")
    base = winner_set(e, k, rule, cap)
    visited = {e.ballots}
    frontier: list[tuple[Election, tuple[Operation, ...]]] = [(e, ())]
    for depth in range(1, max_budget + 1):
        next_frontier: list[tuple[Election, tuple[Operation, ...]]] = []
        for elec, ops in frontier:
            for op in feasible_operations(elec, kind):
                e2 = apply(elec, op)
                if e2.ballots in visited:
                    continue
                if len(visited) >= cap:
                    raise CapExceeded(f"visiting {len(visited) + 1} elections exceeds cap {cap}")
                visited.add(e2.ballots)
                if not winner_sets_equal(base, winner_set(e2, k, rule, cap), cap):
                    return Finite(depth, witness=ops + (op,))
                next_frontier.append((e2, ops + (op,)))
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


def _check_radius_args(e: Election, k: int, kind: str) -> None:
    if kind not in OP_KINDS:
        raise ValueError(f"unknown operation kind {kind!r}")
    if not 1 <= k < e.m:
        raise ValueError(f"radius needs 1 <= k < m, got k={k}, m={e.m}")
