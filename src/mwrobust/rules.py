"""Winning-committee computation for approval-based multiwinner rules.

Score-based rules (AV, SAV, Thiele) are irresolute: they return the full set
of optimal committees, represented compactly.  Sequential rules (greedy
Thiele, Phragmén) are resolute under the election's tie-breaking order and
return a single committee.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import CapExceeded, Committee, Election, _scaled_sav_scores, approval_scores

#: Default bound on how many committees an operation may enumerate.
DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class ThieleVector:
    """Weight vector ``omega``; a voter's j-th approved committee member is worth ``weights[j-1]``.

    Each weight may be given as anything ``Fraction`` accepts, such as ``1`` or ``"1/2"``.

    ``integer_weights``, derived and not a field, is ``weights`` times the lcm of their denominators.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if not self.weights:
            raise ValueError("weight vector must be nonempty")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        scale = math.lcm(*(w.denominator for w in self.weights))
        object.__setattr__(self, "integer_weights", tuple(w.numerator * (scale // w.denominator) for w in self.weights))

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


#: Each preset name (the CLI's ``--rule`` choices) and its rule kind and weight-vector family.
PRESETS = {
    "av": ("av", None),
    "sav": ("sav", None),
    "cc": ("thiele", ThieleVector.cc),
    "pav": ("thiele", ThieleVector.pav),
    "greedy-cc": ("greedy", ThieleVector.cc),
    "greedy-pav": ("greedy", ThieleVector.pav),
    "phragmen": ("phragmen", None),
}


def preset_rule(name: str, k: int) -> RuleSpec:
    """Build a rule from a ``PRESETS`` name, sizing weight vectors to ``k``."""
    if name not in PRESETS:
        raise ValueError(f"unknown rule preset {name!r}")
    kind, family = PRESETS[name]
    return RuleSpec(kind, family(k) if family else None)


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
    if scoring not in ("av", "sav"):
        raise ValueError(f"separable scoring must be 'av' or 'sav', got {scoring!r}")
    # SAV scores scaled to integers by a common denominator: same order and ties
    scores = approval_scores(e) if scoring == "av" else _scaled_sav_scores(e)[0]
    threshold = sorted(scores, reverse=True)[k - 1]
    forced = frozenset(c for c in range(e.m) if scores[c] > threshold)
    pool = frozenset(c for c in range(e.m) if scores[c] == threshold)
    return ThresholdWinners(k=k, forced=forced, pool=pool, slots=k - len(forced))


def winners_thiele(e: Election, k: int, omega: ThieleVector, cap: int = DEFAULT_CAP) -> ExplicitWinners:
    """All committees maximising the Thiele score, by exhaustive enumeration."""
    _check_k(e, k)
    if len(omega.weights) < k:
        raise ValueError(f"weight vector has {len(omega.weights)} entries but k={k}")
    if math.comb(e.m, k) > cap:
        raise CapExceeded(f"enumerating C({e.m},{k}) committees exceeds cap {cap}")
    prefix = [0, *itertools.accumulate(omega.integer_weights[:k])]
    groups = e.groups.items()
    best_score = None
    best: list[Committee] = []
    for combo in itertools.combinations(range(e.m), k):
        members = frozenset(combo)
        score = sum(cnt * prefix[len(ballot & members)] for ballot, cnt in groups)
        if best_score is None or score > best_score:
            best_score, best = score, [combo]
        elif score == best_score:
            best.append(combo)
    return ExplicitWinners(tuple(best))


# ---------------------------------------------------------------------------
# Sequential rules


def greedy_thiele(e: Election, k: int, omega: ThieleVector, initial: Sequence[int] = ()) -> Committee:
    """Sequential Thiele: repeatedly add the candidate with the best marginal.

    The marginal of ``c`` given the current committee ``W`` is
    ``sum_{v: c in ballot_v} omega[|ballot_v ∩ W| + 1]``; ties go to the
    election's priority order.  ``initial`` seeds the committee (its members
    count as already selected); the remaining ``k - len(initial)`` seats are
    filled greedily.

    The marginals are kept across picks.  They are computed once, in one pass
    over the ballot groups; a pick raises the satisfaction ``s`` of each group
    approving it by one, so only the members of those groups change marginal,
    each by ``count * (omega[s + 2] - omega[s + 1])``.  With ``g`` groups whose
    distinct ballots hold ``L`` approvals in all, a run takes ``O(L)`` for the
    first marginals and, per pick, ``O(m + g)`` for the argmax and the scan for
    approving groups plus one step per member of each approving group; the
    last pick updates nothing.
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
    if len(chosen) == k:
        return tuple(sorted(chosen))
    weights = omega.integer_weights
    seed = frozenset(chosen)
    groups = list(e.groups.items())
    sat = [len(ballot & seed) for ballot, _ in groups]  # stays < k while a pick remains
    marginal = [0] * e.m
    for (ballot, cnt), s in zip(groups, sat):
        w = cnt * weights[s]
        if w:
            for c in ballot:
                marginal[c] += w
    unpicked = [c for c in e.priority() if c not in seed]
    while True:
        best = max(unpicked, key=marginal.__getitem__)  # max keeps the first, so ties go by priority
        chosen.append(best)
        if len(chosen) == k:
            return tuple(sorted(chosen))
        unpicked.remove(best)
        for gi, (ballot, cnt) in enumerate(groups):
            if best in ballot:
                s = sat[gi]
                sat[gi] = s + 1
                step = cnt * (weights[s + 1] - weights[s])
                if step:
                    for c in ballot:
                        marginal[c] += step


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

    Priority-order fill-ins for approval-less candidates are not logged.
    Computed by voter loads: with money earned at unit rate, a voter's load
    is the time it last paid, so at time t its balance is ``t - load`` and
    the approvers of ``c`` hold one unit at ``(1 + sum of their loads) /
    approvals(c)``.  The earliest such time is the next purchase and becomes
    the buyers' load.  Loads are kept per ballot group as integers over one
    common ``scale``, and times are compared by cross-multiplication; a
    purchase at ``num / (scale * a)`` multiplies ``scale`` and every load by
    ``a / gcd(num, a)``.  So ``scale`` is a product of at most k approval
    counts and has O(k log n) bits.
    """
    _check_k(e, k)
    groups = list(e.groups.items())
    approvals = approval_scores(e)
    scale = 1
    load = [0] * len(groups)  # per voter of the group, times scale
    owed = [0] * e.m  # sum of the approvers' loads, times scale
    unbought = [c for c in e.priority() if approvals[c]]
    purchases: list[tuple[int, Fraction]] = []
    while unbought and len(purchases) < k:
        best = unbought[0]
        num, a = scale + owed[best], approvals[best]
        for c in unbought:
            if (scale + owed[c]) * a < num * approvals[c]:  # strict: ties go to the earlier in priority
                best, num, a = c, scale + owed[c], approvals[c]
        d = a // math.gcd(num, a)
        if d > 1:
            scale *= d
            load = [x * d for x in load]
            owed = [x * d for x in owed]
        paid = num * d // a
        for gi, (ballot, cnt) in enumerate(groups):
            if best in ballot:
                delta = cnt * (paid - load[gi])
                load[gi] = paid
                for c in ballot:
                    owed[c] += delta
        unbought.remove(best)
        purchases.append((best, Fraction(paid, scale)))
    chosen = [c for c, _ in purchases]
    # if every approved candidate is bought, approval-less ones fill the rest in priority order
    chosen += [c for c in e.priority() if c not in chosen][: k - len(chosen)]
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
