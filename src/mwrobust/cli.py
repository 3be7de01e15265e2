"""Command-line interface and the plain-text election format.

Subcommands: ``winners`` computes a winner set, ``radius`` the robustness
radius, ``count`` perturbation counts, ``level`` the empirical robustness
level, ``witness`` and ``reduce`` generate the bundled constructions, and
``diff`` renders the ballot-matrix difference of two election files.
Results are printed as JSON; every result carries ``rule``, ``k``, ``op``,
``method`` and ``provenance`` fields.  Rationals are fraction strings and
integers beyond JSON's safe range become decimal strings.  Exit codes:
0 success, 2 validation error, 3 enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import constructions as cons
from .core import CapExceeded, Election, approval_scores, election, render_diff_matrix, sav_scores
from .counting import count_unchanged
from .perturb import Add, Operation, Remove, level_argmax
from .radius import Finite, robustness_radius
from .rules import DEFAULT_CAP, WINNER_PROVENANCE, RuleSpec, ThieleVector, ThresholdWinners, preset_rule, winner_set

RULE_PRESETS = ("av", "sav", "cc", "pav", "greedy-cc", "greedy-pav", "phragmen")
WITNESS_FAMILIES = ("sav-add", "sav-remove", "thiele-add", "thiele-remove", "thiele-swap")
REDUCE_TARGETS = ("thiele", "greedy-cc", "greedy-pav", "phragmen", "sav-count")

#: Inline election texts above this many voters require --election-out.
INLINE_VOTER_LIMIT = 100_000

#: JSON numbers stay exact up to 2^53; larger counts travel as strings.
_JSON_SAFE_INT = 2**53


def _default_cap() -> int:
    raw = os.environ.get("MWROBUST_CAP")
    if not raw:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MWROBUST_CAP must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Election file format


def parse_election(text: str) -> Election:
    """Parse the election format: header ``m <count> n <count>``, one
    ``<voter>: <candidates>`` line per voter (strictly increasing indices,
    possibly empty), an optional ``tiebreak: <permutation>`` line, and
    ``#`` comments."""
    header: tuple[int, int] | None = None
    ballots_by_voter: dict[int, list[int]] = {}
    tiebreak: list[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            fields = line.split()
            if len(fields) != 4 or fields[0] != "m" or fields[2] != "n":
                raise ValueError(f"line {lineno}: expected header 'm <count> n <count>'")
            header = (int(fields[1]), int(fields[3]))
            if header[1] < 0:
                raise ValueError(f"line {lineno}: voter count must be nonnegative, got {header[1]}")
            continue
        if line.startswith("tiebreak:"):
            if tiebreak is not None:
                raise ValueError(f"line {lineno}: duplicate tiebreak line")
            tiebreak = [int(x) for x in line[len("tiebreak:"):].split()]
            continue
        left, colon, right = line.partition(":")
        if not colon:
            raise ValueError(f"line {lineno}: expected '<voter>: <candidates>'")
        voter = int(left)
        if voter in ballots_by_voter:
            raise ValueError(f"line {lineno}: duplicate ballot for voter {voter}")
        candidates = [int(x) for x in right.split()]
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


def serialize_election(e: Election) -> str:
    lines = [f"m {e.m} n {e.n}"]
    for i, ballot in enumerate(e.ballots):
        body = " ".join(str(c) for c in sorted(ballot))
        lines.append(f"{i}: {body}".rstrip())
    if e.tiebreak is not None:
        lines.append("tiebreak: " + " ".join(str(c) for c in e.tiebreak))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Requests


@dataclass(frozen=True)
class RunRequest:
    """One CLI invocation, normalised: analysis parameters plus I/O choices.

    The field defaults are the CLI's defaults; ``cap`` defaults to the
    ``MWROBUST_CAP`` environment variable, else ``DEFAULT_CAP``.
    """

    subcommand: str
    inputs: tuple[str, ...] = ()
    rule: str | None = None
    k: int | None = None
    op: str | None = None
    budget: int | None = None
    method: str | None = None
    cap: int = field(default_factory=_default_cap)
    alpha: str = "1/2"
    which: str | None = None
    target: str | None = None
    max_voters: int = cons.DEFAULT_MAX_VOTERS
    election_out: str | None = None

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(f"cap must be a positive integer, got {self.cap}")


# ---------------------------------------------------------------------------
# JSON helpers


def _int_json(value: int):
    return value if abs(value) < _JSON_SAFE_INT else str(value)


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return _int_json(value)
    if isinstance(value, ThieleVector):
        return [str(w) for w in value.weights]
    if isinstance(value, Election):
        return serialize_election(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    return value


def _op_json(op: Operation) -> dict:
    if isinstance(op, Add):
        return {"kind": "add", "voter": op.voter, "candidate": op.candidate}
    if isinstance(op, Remove):
        return {"kind": "remove", "voter": op.voter, "candidate": op.candidate}
    return {"kind": "swap", "voter": op.voter, "source": op.source, "target": op.target}


def _winner_set_json(ws, cap: int) -> dict:
    if isinstance(ws, ThresholdWinners):
        payload = {
            "form": "threshold",
            "forced": sorted(ws.forced),
            "pool": sorted(ws.pool),
            "slots": ws.slots,
            "count": _int_json(ws.count()),
        }
        if ws.count() <= 50:
            payload["committees"] = [list(c) for c in ws.committees(cap)]
        return payload
    return {
        "form": "explicit",
        "count": len(ws.committee_list),
        "committees": [list(c) for c in ws.committee_list],
    }


def _radius_json(outcome) -> dict:
    if isinstance(outcome, Finite):
        payload = {"outcome": "finite", "value": outcome.value}
        if outcome.witness is not None:
            payload["witness"] = [_op_json(op) for op in outcome.witness]
        return payload
    if hasattr(outcome, "bound"):
        return {"outcome": "exceeds-bound", "bound": outcome.bound}
    return {"outcome": "impossible"}


def _result(req: RunRequest, provenance: str, **extra) -> dict:
    payload = {
        "command": req.subcommand,
        "rule": req.rule,
        "k": req.k,
        "op": req.op,
        "method": req.method,
        "provenance": provenance,
    }
    payload.update(extra)
    return payload


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_election(req: RunRequest, index: int = 0) -> Election:
    return parse_election(_read_text(req.inputs[index]))


def _rule(req: RunRequest) -> RuleSpec:
    return preset_rule(req.rule, req.k)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _run_winners(req: RunRequest) -> dict:
    e = _load_election(req)
    rule = _rule(req)
    ws = winner_set(e, req.k, rule, cap=req.cap)
    extra = {"winners": _winner_set_json(ws, req.cap)}
    if req.rule == "av":
        extra["scores"] = approval_scores(e)
    elif req.rule == "sav":
        extra["scores"] = [str(s) for s in sav_scores(e)]
    return _result(req, WINNER_PROVENANCE[rule.kind], **extra)


def _run_radius(req: RunRequest) -> dict:
    outcome, method, provenance = robustness_radius(
        _load_election(req), req.k, _rule(req), req.op, method=req.method, budget=req.budget, cap=req.cap
    )
    extra = {"radius": _radius_json(outcome)}
    if req.budget is not None:
        extra["decision"] = isinstance(outcome, Finite) and outcome.value <= req.budget
    return _result(req, provenance, method=method, **extra, budget=req.budget)


def _run_count(req: RunRequest) -> dict:
    outcome, method, provenance = count_unchanged(
        _load_election(req), req.k, _rule(req), req.op, req.budget, method=req.method, cap=req.cap
    )
    return _result(
        req,
        provenance,
        method=method,
        unchanged=_int_json(outcome.unchanged),
        total=_int_json(outcome.total),
        probability=str(outcome.probability),
        budget=req.budget,
    )


def _run_level(req: RunRequest) -> dict:
    e = _load_election(req)
    level, op = level_argmax(e, req.k, _rule(req), req.op, cap=req.cap)
    return _result(
        req,
        "exhaustive-operations",
        level=level,
        argmax_op=_op_json(op) if op is not None else None,
    )


def _bundle_json(bundle: cons.GadgetBundle, req: RunRequest) -> dict:
    payload = {
        "k": bundle.k,
        "op": bundle.op_kind,
        "budget": bundle.budget,
        "note": bundle.note,
        "candidates": bundle.election.m,
        "voters": bundle.election.n,
        "labels": list(bundle.labels),
        "voter_groups": [[name, count] for name, count in bundle.voter_groups],
        "info": _jsonable(bundle.info),
    }
    if bundle.op is not None:
        payload["operation"] = _op_json(bundle.op)
    if req.election_out:
        with open(req.election_out, "w", encoding="utf-8") as fh:
            fh.write(serialize_election(bundle.election))
        payload["election_file"] = req.election_out
    elif bundle.election.n > INLINE_VOTER_LIMIT:
        raise ValueError(f"instance has {bundle.election.n} voters; give --election-out to write it to a file")
    else:
        payload["election"] = serialize_election(bundle.election)
    return payload


def _run_witness(req: RunRequest) -> dict:
    if req.which == "sav-add":
        bundle = cons.sav_add_witness(req.k)
    elif req.which == "sav-remove":
        bundle = cons.sav_remove_witness(req.k)
    else:
        bundle = cons.thiele_witness(req.k, req.which.split("-", 1)[1])
    return _result(req, "construction", family=req.which, **_bundle_json(bundle, req))


def _run_reduce(req: RunRequest) -> dict:
    text = _read_text(req.inputs[0])
    if req.target == "sav-count":
        bundle = cons.matching_to_sav_counting(cons.parse_graph(text), req.op)
    elif req.target == "thiele":
        try:
            alpha = Fraction(req.alpha)
        except ZeroDivisionError:
            raise ValueError(f"--alpha {req.alpha} has a zero denominator") from None
        bundle = cons.x3c_to_thiele(cons.parse_x3c(text), alpha, req.op)
    else:
        raw = cons.parse_x3c(text)
        inst = cons.RX3CInstance(raw.universe_size, raw.sets)
        if req.target == "phragmen":
            bundle = cons.rx3c_to_phragmen(inst, kind=req.op, max_voters=req.max_voters)
        else:
            bundle = cons.rx3c_to_greedy(inst, req.target.split("-", 1)[1], kind=req.op, max_voters=req.max_voters)
    return _result(req, "construction", target=req.target, **_bundle_json(bundle, req))


def _run_diff(req: RunRequest) -> None:
    before = _load_election(req, 0)
    after = _load_election(req, 1)
    print(render_diff_matrix(before, after))
    return None


_HANDLERS = {
    "winners": _run_winners,
    "radius": _run_radius,
    "count": _run_count,
    "level": _run_level,
    "witness": _run_witness,
    "reduce": _run_reduce,
    "diff": _run_diff,
}


def run(req: RunRequest) -> dict | None:
    """Execute one request and return its JSON payload (None for text output)."""
    return _HANDLERS[req.subcommand](req)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mwrobust", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, op=False, budget=False, required_budget=False):
        p.add_argument("election", help="election file ('-' for stdin)")
        p.add_argument("--rule", choices=RULE_PRESETS, required=True)
        p.add_argument("--k", type=int, required=True, help="committee size")
        p.add_argument("--cap", type=int, help="winner-set enumeration cap")
        if op:
            p.add_argument("--op", choices=("add", "remove", "swap"), required=True)
        if budget:
            p.add_argument("--budget", type=int, required=required_budget)

    p = sub.add_parser("winners", help="compute the winning committees")
    add_common(p)

    p = sub.add_parser("radius", help="robustness radius for one operation type")
    add_common(p, op=True, budget=True)
    p.add_argument("--method", choices=("exact", "oracle"))

    p = sub.add_parser("count", help="count winner-preserving budget-B perturbations")
    add_common(p, op=True, budget=True, required_budget=True)
    p.add_argument("--method", choices=("exact", "dp", "oracle"))

    p = sub.add_parser("level", help="empirical robustness level over all single operations")
    add_common(p, op=True)

    p = sub.add_parser("witness", help="generate a maximal-displacement witness election")
    p.add_argument("--which", choices=WITNESS_FAMILIES, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--election-out", dest="election_out")

    p = sub.add_parser("reduce", help="translate a combinatorial instance into a gadget election")
    p.add_argument("target", choices=REDUCE_TARGETS)
    p.add_argument("instance", help="instance file ('-' for stdin)")
    p.add_argument("--op", choices=("add", "remove", "swap"), default="add")
    p.add_argument("--alpha", help="second Thiele weight (thiele target)")
    p.add_argument("--max-voters", dest="max_voters", type=int)
    p.add_argument("--election-out", dest="election_out")

    p = sub.add_parser("diff", help="render the ballot-matrix difference of two election files")
    p.add_argument("before", help="election file ('-' for stdin)")
    p.add_argument("after", help="election file")

    return parser


def request_from_args(args: argparse.Namespace) -> RunRequest:
    """The request for parsed arguments; options not given keep their ``RunRequest`` defaults."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    inputs = tuple(given.pop(key) for key in ("election", "instance", "before", "after") if key in given)
    return RunRequest(inputs=inputs, **given)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = run(request_from_args(args))
    except CapExceeded as exc:
        print(json.dumps({"error": str(exc), "exit_code": 3}), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc), "exit_code": 2}), file=sys.stderr)
        return 2
    if payload is not None:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
