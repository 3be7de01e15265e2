"""Approval elections and exact committee scoring.

An election is an ordered list of voters, each casting an approval ballot
(a subset of the candidates ``0..m-1``).  Voter order matters: perturbations
address votes by index.  Candidate ties are broken by an explicit priority
permutation, defaulting to ascending candidate index.

All scores are exact: integers for approval counts, ``fractions.Fraction``
for satisfaction-based quantities.  No floats anywhere.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Committee = tuple[int, ...]  # sorted, distinct candidate indices


class CapExceeded(Exception):
    """Raised when an operation would enumerate more committees, bundles or searched elections than allowed."""


class _Profile(NamedTuple):
    """An election's ballot counts, all that a rule kernel reads: every rule here is anonymous."""

    m: int
    groups: dict[frozenset[int], int]
    tiebreak: tuple[int, ...] | None

    def priority(self) -> tuple[int, ...]:
        """Candidates in tie-breaking order (most preferred first)."""
        if self.tiebreak is not None:
            return self.tiebreak
        return tuple(range(self.m))


def _profile_after(e: Election, moves: Iterable[tuple[frozenset[int], frozenset[int]]]) -> _Profile:
    """``e``'s ballot counts with one voter moved from ``old`` to ``new`` for each ``(old, new)`` in ``moves``."""
    groups = dict(e.groups)
    for old, new in moves:
        groups[old] -= 1
        if not groups[old]:
            del groups[old]
        groups[new] = groups.get(new, 0) + 1
    return _Profile(e.num_candidates, groups, e.tiebreak)


@dataclass(frozen=True)
class Election:
    """An approval election: ``num_candidates`` candidates, ordered ballots.

    ``tiebreak`` is the candidate priority order used by sequential rules
    (first entry = highest priority); ``None`` means ascending index.
    ``groups`` maps each distinct ballot to its number of voters, in no set
    order; it is derived, not a field, and must not be mutated.
    """

    num_candidates: int
    ballots: tuple[frozenset[int], ...]
    tiebreak: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        m = self.num_candidates
        if m < 1:
            raise ValueError(f"need at least one candidate, got m={m}")
        groups = dict(Counter(self.ballots))
        if any(not 0 <= c < m for ballot in groups for c in ballot):
            v, c = next((v, c) for v, ballot in enumerate(self.ballots) for c in ballot if not 0 <= c < m)
            raise ValueError(f"ballot of voter {v} mentions candidate {c}, not in [0, {m})")
        if self.tiebreak is not None and sorted(self.tiebreak) != list(range(m)):
            raise ValueError(f"tiebreak must be a permutation of 0..{m - 1}, got {self.tiebreak}")
        object.__setattr__(self, "groups", groups)

    @property
    def m(self) -> int:
        return self.num_candidates

    @property
    def n(self) -> int:
        return len(self.ballots)

    priority = _Profile.priority


def election(m: int, ballots: Iterable[Iterable[int]], tiebreak: Sequence[int] | None = None) -> Election:
    """Convenience constructor normalising ballot containers."""
    return Election(
        num_candidates=m,
        ballots=tuple(frozenset(b) for b in ballots),
        tiebreak=None if tiebreak is None else tuple(tiebreak),
    )


def approval_scores(e: Election) -> list[int]:
    scores = [0] * e.m
    for ballot, count in e.groups.items():
        for c in ballot:
            scores[c] += count
    return scores


def sav_scores(e: Election) -> list[Fraction]:
    """Satisfaction scores: each approver contributes 1/|ballot|; empty ballots contribute nothing."""
    scores, scale = _scaled_sav_scores(e)
    return [Fraction(s, scale) for s in scores]


def _scaled_sav_scores(e: Election) -> tuple[list[int], int]:
    """SAV scores times ``scale``, the lcm of the nonempty ballot sizes, so every score is an integer."""
    sizes = {len(b) for b in e.groups if b}
    scale = math.lcm(*sizes) if sizes else 1
    scores = [0] * e.m
    for ballot, count in e.groups.items():
        if not ballot:
            continue
        share = count * (scale // len(ballot))
        for c in ballot:
            scores[c] += share
    return scores, scale


def committee_score(e: Election, scoring, committee: Iterable[int]):
    """Exact score of ``committee`` under ``scoring``.

    ``scoring`` is ``"av"``, ``"sav"``, or a weight sequence ``omega``
    (anything with a ``weights`` attribute also works): the committee's
    Thiele score is ``sum_v sum_{i=1}^{|ballot_v ∩ S|} omega_i``.  AV and
    SAV are separable, so their committee score is the sum of the members'
    candidate scores.
    """
    members = frozenset(committee)
    for c in members:
        _check_candidate(e, c)
    if scoring == "av":
        scores = approval_scores(e)
        return sum(scores[c] for c in members)
    if scoring == "sav":
        scores = sav_scores(e)
        return sum((scores[c] for c in members), Fraction(0))
    weights = tuple(getattr(scoring, "weights", scoring))
    if len(weights) < len(members):
        raise ValueError(f"weight vector has {len(weights)} entries, committee has {len(members)}")
    # prefix[j] = omega_1 + ... + omega_j, so a voter approving j members adds prefix[j]
    prefix = [Fraction(0)]
    for w in weights:
        prefix.append(prefix[-1] + Fraction(w))
    return sum((prefix[len(ballot & members)] * count for ballot, count in e.groups.items()), Fraction(0))


def render_diff_matrix(before: Election, after: Election) -> str:
    """Plain-text voter-by-candidate view of how ``after`` differs from ``before``.

    Cells: ``o`` approved in both, ``-`` only in ``before``, ``+`` only in
    ``after``, blank otherwise.  Both elections must have the same shape.
    """
    if before.m != after.m or before.n != after.n:
        raise ValueError("diff requires elections with identical numbers of candidates and voters")
    width = max(2, len(str(before.m - 1)) + 1)
    label_width = len(str(max(before.n - 1, 0))) + 2
    header = " " * label_width + "".join(f"c{c}".rjust(width) for c in range(before.m))
    lines = [header]
    for v, (old, new) in enumerate(zip(before.ballots, after.ballots)):
        row = "".join(_diff_cell(c in old, c in new).rjust(width) for c in range(before.m))
        lines.append(f"v{v} ".ljust(label_width) + row)
    return "\n".join(lines)


def _diff_cell(in_old: bool, in_new: bool) -> str:
    if in_old:
        return "o" if in_new else "-"
    return "+" if in_new else " "


def _check_candidate(e: Election, candidate: int) -> None:
    if not 0 <= candidate < e.m:
        raise ValueError(f"candidate {candidate} not in [0, {e.m})")
