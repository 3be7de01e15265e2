"""Winning-committee computation for approval-based multiwinner rules.

Score-based rules (AV, SAV, Thiele) are irresolute: they return the full set
of optimal committees, represented compactly.  Sequential rules (greedy
Thiele, Phragmén) are resolute under the election's tie-breaking order and
return a single committee.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import CapExceeded, Committee, Election, approval_scores

#: Default bound on how many committees an operation may enumerate.
DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class ThieleVector:
    """Weight vector ``omega``; a voter's j-th approved committee member is worth ``weights[j-1]``."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("weight vector must be nonempty")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    @classmethod
    def av(cls, k: int) -> "ThieleVector":
        return cls(tuple(Fraction(1) for _ in range(k)))

    @classmethod
    def cc(cls, k: int) -> "ThieleVector":
        return cls((Fraction(1),) + tuple(Fraction(0) for _ in range(k - 1)))

    @classmethod
    def pav(cls, k: int) -> "ThieleVector":
        return cls(tuple(Fraction(1, i) for i in range(1, k + 1)))

    @property
    def is_unit_decreasing(self) -> bool:
        """True iff ``omega_1 = 1 > omega_2 >= ... >= omega_k``."""
        w = self.weights
        if w[0] != 1:
            return False
        if len(w) >= 2 and not w[1] < 1:
            return False
        return all(w[i] >= w[i + 1] for i in range(1, len(w) - 1))


def thiele_vector(weights: Iterable) -> ThieleVector:
    return ThieleVector(tuple(Fraction(w) for w in weights))


@dataclass(frozen=True)
class RuleSpec:
    """A named rule: ``av``, ``sav``, ``thiele``, ``greedy`` or ``phragmen``.

    ``omega`` is required for ``thiele``/``greedy`` and forbidden otherwise;
    greedy Thiele additionally insists on a unit-decreasing vector (that is
    the class of weight vectors for which the sequential variant is studied).
    """

    kind: str
    omega: ThieleVector | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("av", "sav", "thiele", "greedy", "phragmen"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind in ("thiele", "greedy"):
            if self.omega is None:
                raise ValueError(f"rule {self.kind!r} needs a weight vector")
            if self.kind == "greedy" and not self.omega.is_unit_decreasing:
                raise ValueError("greedy Thiele requires a unit-decreasing weight vector")
        elif self.omega is not None:
            raise ValueError(f"rule {self.kind!r} takes no weight vector")

    @property
    def is_resolute(self) -> bool:
        return self.kind in ("greedy", "phragmen")


def preset_rule(name: str, k: int) -> RuleSpec:
    """Build a rule from a CLI-style preset name, sizing weight vectors to ``k``."""
    if name == "av":
        return RuleSpec("av")
    if name == "sav":
        return RuleSpec("sav")
    if name == "cc":
        return RuleSpec("thiele", ThieleVector.cc(k))
    if name == "pav":
        return RuleSpec("thiele", ThieleVector.pav(k))
    if name == "greedy-cc":
        return RuleSpec("greedy", ThieleVector.cc(k))
    if name == "greedy-pav":
        return RuleSpec("greedy", ThieleVector.pav(k))
    if name == "phragmen":
        return RuleSpec("phragmen")
    raise ValueError(f"unknown rule preset {name!r}")


# ---------------------------------------------------------------------------
# Winner sets


@dataclass(frozen=True)
class ThresholdWinners:
    """All optimal committees of a separable rule, in threshold form.

    Every optimal committee consists of all of ``forced`` (candidates
    strictly above the k-th highest score) plus ``slots`` many members of
    ``pool`` (candidates exactly at the k-th highest score).
    """

    k: int
    forced: frozenset[int]
    pool: frozenset[int]
    slots: int

    def __post_init__(self) -> None:
        if self.forced & self.pool:
            raise ValueError("forced candidates cannot also be in the pool")
        if not 1 <= self.slots <= len(self.pool):
            raise ValueError(f"slots must lie in [1, {len(self.pool)}], got {self.slots}")
        if len(self.forced) + self.slots != self.k:
            raise ValueError("forced plus slots must fill the committee exactly")

    def count(self) -> int:
        return math.comb(len(self.pool), self.slots)

    def committees(self, cap: int = DEFAULT_CAP) -> tuple[Committee, ...]:
        if self.count() > cap:
            raise CapExceeded(f"{self.count()} committees exceed cap {cap}")
        base = sorted(self.forced)
        out = [tuple(sorted(base + list(extra))) for extra in itertools.combinations(sorted(self.pool), self.slots)]
        return tuple(sorted(out))


@dataclass(frozen=True)
class ExplicitWinners:
    """A winner set given by explicit enumeration (sorted, deduplicated)."""

    committee_list: tuple[Committee, ...]

    def __post_init__(self) -> None:
        normal = tuple(sorted(set(tuple(sorted(s)) for s in self.committee_list)))
        object.__setattr__(self, "committee_list", normal)
        if not self.committee_list:
            raise ValueError("winner set cannot be empty")

    def count(self) -> int:
        return len(self.committee_list)

    def committees(self, cap: int = DEFAULT_CAP) -> tuple[Committee, ...]:
        if len(self.committee_list) > cap:
            raise CapExceeded(f"{len(self.committee_list)} committees exceed cap {cap}")
        return self.committee_list


WinnerSet = ThresholdWinners | ExplicitWinners


def winner_sets_equal(a: WinnerSet, b: WinnerSet, cap: int = DEFAULT_CAP) -> bool:
    """Whether two winner sets denote the same family of committees.

    Threshold forms are canonical as long as ``slots < |pool|`` (the forced
    part is then exactly the intersection of all committees), so two
    non-degenerate threshold forms are compared field-wise.  Degenerate or
    mixed representations fall back to explicit enumeration, capped.
    """
    if a.count() != b.count():
        return False
    if isinstance(a, ThresholdWinners) and isinstance(b, ThresholdWinners):
        if (a.forced, a.pool, a.slots) == (b.forced, b.pool, b.slots):
            return True
        if a.count() == 1:  # both degenerate: compare the single committees
            return frozenset(a.forced | a.pool) == frozenset(b.forced | b.pool)
        if a.slots < len(a.pool) and b.slots < len(b.pool):
            return False  # canonical forms differ
    return a.committees(cap) == b.committees(cap)


# ---------------------------------------------------------------------------
# Score-based rules


def winners_separable(e: Election, k: int, scoring: str) -> ThresholdWinners:
    """Optimal committees of AV (``scoring="av"``) or SAV (``"sav"``).

    Both rules score candidates individually, so the optimal committees are
    exactly: every candidate strictly above the k-th highest score, plus any
    completion from the candidates tying the k-th highest score.
    """
    _check_k(e, k)
    scores = _integer_candidate_scores(e, scoring)
    threshold = sorted(scores, reverse=True)[k - 1]
    forced = frozenset(c for c in range(e.m) if scores[c] > threshold)
    pool = frozenset(c for c in range(e.m) if scores[c] == threshold)
    return ThresholdWinners(k=k, forced=forced, pool=pool, slots=k - len(forced))


def _integer_candidate_scores(e: Election, scoring: str) -> list[int]:
    """Candidate scores as integers (SAV scores scaled by a common denominator)."""
    if scoring == "av":
        return approval_scores(e)
    if scoring != "sav":
        raise ValueError(f"separable scoring must be 'av' or 'sav', got {scoring!r}")
    sizes = {len(b) for b in e.ballots if b}
    scale = math.lcm(*sizes) if sizes else 1
    scores = [0] * e.m
    for ballot in e.ballots:
        if not ballot:
            continue
        share = scale // len(ballot)
        for c in ballot:
            scores[c] += share
    return scores


def winners_thiele(e: Election, k: int, omega: ThieleVector, cap: int = DEFAULT_CAP) -> ExplicitWinners:
    """All committees maximising the Thiele score, by exhaustive enumeration."""
    _check_k(e, k)
    if len(omega.weights) < k:
        raise ValueError(f"weight vector has {len(omega.weights)} entries but k={k}")
    if math.comb(e.m, k) > cap:
        raise CapExceeded(f"enumerating C({e.m},{k}) committees exceeds cap {cap}")
    weights = _integer_weights(omega, k)
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    groups = Counter(e.ballots)
    best_score = None
    best: list[Committee] = []
    for combo in itertools.combinations(range(e.m), k):
        members = frozenset(combo)
        score = sum(cnt * prefix[len(ballot & members)] for ballot, cnt in groups.items())
        if best_score is None or score > best_score:
            best_score, best = score, [combo]
        elif score == best_score:
            best.append(combo)
    return ExplicitWinners(tuple(best))


def _integer_weights(omega: ThieleVector, k: int) -> list[int]:
    """First ``k`` weights scaled to integers (order- and tie-exact)."""
    head = omega.weights[:k]
    scale = math.lcm(*(w.denominator for w in head))
    return [int(w * scale) for w in head]


# ---------------------------------------------------------------------------
# Sequential rules


def greedy_thiele(e: Election, k: int, omega: ThieleVector, initial: Sequence[int] = ()) -> Committee:
    """Sequential Thiele: repeatedly add the candidate with the best marginal.

    The marginal of ``c`` given the current committee ``W`` is
    ``sum_{v: c in ballot_v} omega[|ballot_v ∩ W| + 1]``; ties go to the
    election's priority order.  ``initial`` seeds the committee (its members
    count as already selected); the remaining ``k - len(initial)`` seats are
    filled greedily.
    """
    _check_k(e, k)
    if len(omega.weights) < k:
        raise ValueError(f"weight vector has {len(omega.weights)} entries but k={k}")
    chosen = list(dict.fromkeys(initial))
    for c in chosen:
        if not 0 <= c < e.m:
            raise ValueError(f"seed candidate {c} not in [0, {e.m})")
    if len(chosen) > k:
        raise ValueError(f"seed committee has {len(chosen)} members but k={k}")
    weights = _integer_weights(omega, k)
    groups = list(Counter(e.ballots).items())
    sat = [len(ballot & frozenset(chosen)) for ballot, _ in groups]
    rank = e.priority_rank()
    selected = set(chosen)
    while len(chosen) < k:
        marginal = [0] * e.m
        for gi, (ballot, cnt) in enumerate(groups):
            w = weights[sat[gi]] if sat[gi] < k else 0
            if not w:
                continue
            for c in ballot:
                if c not in selected:
                    marginal[c] += cnt * w
        best = min((c for c in range(e.m) if c not in selected), key=lambda c: (-marginal[c], rank[c]))
        chosen.append(best)
        selected.add(best)
        for gi, (ballot, _) in enumerate(groups):
            if best in ballot:
                sat[gi] += 1
    return tuple(sorted(chosen))


def phragmen(e: Election, k: int) -> Committee:
    """Sequential Phragmén under continuous money-earning.

    Every voter earns money at unit rate; a candidate is bought the moment
    its approvers jointly hold one unit, which then resets those approvers
    to zero.  Simultaneously affordable candidates are bought one at a time
    in priority order.  Candidates nobody approves are never affordable; if
    only such candidates remain, the committee is filled in priority order.
    """
    return phragmen_trace(e, k)[0]


def phragmen_trace(e: Election, k: int) -> tuple[Committee, tuple[tuple[int, Fraction], ...]]:
    """Phragmén committee plus the (candidate, purchase time) event log.

    Priority-order fill-ins for approval-less candidates do not appear in
    the log, since no purchase happens for them.

    Voters with identical ballots always hold identical balances, so the
    computation runs on ballot groups.
    """
    _check_k(e, k)
    groups = list(Counter(e.ballots).items())
    balance = [Fraction(0)] * len(groups)
    supporters: dict[int, list[int]] = {c: [] for c in range(e.m)}
    approvals = [0] * e.m
    for gi, (ballot, cnt) in enumerate(groups):
        for c in ballot:
            supporters[c].append(gi)
            approvals[c] += cnt
    rank = e.priority_rank()
    chosen: list[int] = []
    selected: set[int] = set()
    clock = Fraction(0)
    purchases: list[tuple[int, Fraction]] = []
    while len(chosen) < k:
        best_c, best_wait = None, None
        for c in range(e.m):
            if c in selected or approvals[c] == 0:
                continue
            held = sum(groups[gi][1] * balance[gi] for gi in supporters[c])
            wait = (1 - held) / approvals[c]
            if best_wait is None or wait < best_wait or (wait == best_wait and rank[c] < rank[best_c]):
                best_c, best_wait = c, wait
        if best_c is None:
            # only approval-less candidates remain
            fill = [c for c in e.priority() if c not in selected]
            chosen.extend(fill[: k - len(chosen)])
            break
        balance = [b + best_wait for b in balance]
        clock += best_wait
        for gi in supporters[best_c]:
            balance[gi] = Fraction(0)
        chosen.append(best_c)
        selected.add(best_c)
        purchases.append((best_c, clock))
    return tuple(sorted(chosen)), tuple(purchases)


# ---------------------------------------------------------------------------
# Dispatch

#: How ``winner_set`` computes each rule kind's winners.
WINNER_PROVENANCE = {
    "av": "score-threshold",
    "sav": "score-threshold",
    "thiele": "exhaustive-thiele",
    "greedy": "greedy-thiele",
    "phragmen": "phragmen-sequential",
}


def winner_set(e: Election, k: int, rule: RuleSpec, cap: int = DEFAULT_CAP) -> WinnerSet:
    """The rule's winner set; resolute rules yield a singleton family."""
    if rule.kind in ("av", "sav"):
        return winners_separable(e, k, rule.kind)
    if rule.kind == "thiele":
        return winners_thiele(e, k, rule.omega, cap)
    if rule.kind == "greedy":
        return ExplicitWinners((greedy_thiele(e, k, rule.omega),))
    return ExplicitWinners((phragmen(e, k),))


def _check_k(e: Election, k: int) -> None:
    if not 1 <= k <= e.m:
        raise ValueError(f"committee size k={k} must satisfy 1 <= k <= m={e.m}")
