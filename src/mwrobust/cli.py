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
import sys
from dataclasses import asdict
from fractions import Fraction

from . import constructions as cons
from .core import CapExceeded, Election, approval_scores, election, render_diff_matrix, sav_scores
from .counting import count_unchanged
from .perturb import OP_KINDS, Operation, level_argmax, op_kind
from .radius import ExceedsBound, Finite, robustness_radius
from .rules import DEFAULT_CAP, PRESETS, WINNER_PROVENANCE, ThieleVector, ThresholdWinners, preset_rule, winner_set

WITNESS_FAMILIES = ("sav-add", "sav-remove", "thiele-add", "thiele-remove", "thiele-swap")
REDUCE_TARGETS = ("thiele", "greedy-cc", "greedy-pav", "phragmen", "sav-count")

#: Inline election texts above this many voters require --election-out.
INLINE_VOTER_LIMIT = 100_000

#: JSON numbers stay exact up to 2^53; larger counts travel as strings.
_JSON_SAFE_INT = 2**53


# ---------------------------------------------------------------------------
# Election file format


def parse_election(text: str) -> Election:
    """Parse the election format: header ``m <count> n <count>``, one
    ``<voter>: <candidates>`` line per voter (strictly increasing indices,
    possibly empty), an optional ``tiebreak: <permutation>`` line, and
    ``#`` comments.  Numbers are ASCII decimal digits, optionally after a ``-``.
    The candidate count is at most ``DEFAULT_MAX_VOTERS``, the limit gadgets obey.

    Each distinct candidate text is converted and checked once; voters with
    equal candidate texts share one frozenset, so a repeated line costs one
    ``int`` and one dict lookup.
    """
    header: tuple[int, int] | None = None
    ballots_by_voter: dict[int, frozenset[int]] = {}
    checked: dict[str, frozenset[int]] = {}  # candidate text -> its ballot
    tiebreak: list[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip() if "#" in raw else raw.strip()
        if not line:
            continue
        if header is None:
            fields = line.split()
            if len(fields) != 4 or fields[0] != "m" or fields[2] != "n":
                raise ValueError(f"line {lineno}: expected header 'm <count> n <count>'")
            header = tuple(cons._ints([fields[1], fields[3]], lineno))
            if header[1] < 0:
                raise ValueError(f"line {lineno}: voter count must be nonnegative, got {header[1]}")
            if header[0] > (limit := cons.DEFAULT_MAX_VOTERS):
                raise ValueError(f"line {lineno}: candidate count {header[0]} is above the limit of {limit}")
            continue
        left, colon, right = line.partition(":")
        if colon and left == "tiebreak":
            if tiebreak is not None:
                raise ValueError(f"line {lineno}: duplicate tiebreak line")
            tiebreak = cons._ints(right.split(), lineno)
            continue
        if not colon:
            raise ValueError(f"line {lineno}: expected '<voter>: <candidates>'")
        voter = int(left) if left.isascii() and left.isdigit() else cons._ints([left.rstrip()], lineno)[0]
        ballot = checked.get(right)
        if ballot is None:
            candidates = cons._ints(right.split(), lineno)
        if voter in ballots_by_voter:
            raise ValueError(f"line {lineno}: duplicate ballot for voter {voter}")
        if ballot is None:
            if any(b <= a for a, b in zip(candidates, candidates[1:])):
                raise ValueError(f"line {lineno}: candidate indices must be strictly increasing")
            ballot = checked[right] = frozenset(candidates)
        ballots_by_voter[voter] = ballot
    if header is None:
        raise ValueError("missing header line 'm <count> n <count>'")
    m, n = header
    if len(ballots_by_voter) != n or sorted(ballots_by_voter) != list(range(n)):
        raise ValueError(f"expected one ballot line for each voter 0..{n - 1}")
    ballots = [ballots_by_voter[i] for i in range(n)]
    return election(m, ballots, tiebreak=tuple(tiebreak) if tiebreak is not None else None)


def serialize_election(e: Election) -> str:
    """The election format of ``e``; each ballot type's candidate list is rendered once."""
    tails = {ballot: ": " + " ".join(map(str, sorted(ballot))) if ballot else ":" for ballot in e.groups}
    lines = [f"m {e.m} n {e.n}"]
    lines.extend(f"{i}{tails[ballot]}" for i, ballot in enumerate(e.ballots))
    if e.tiebreak is not None:
        lines.append("tiebreak: " + " ".join(str(c) for c in e.tiebreak))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON helpers


def _int_json(value: int):
    return value if abs(value) < _JSON_SAFE_INT else str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return _int_json(value)
    if isinstance(value, ThieleVector):
        return [str(w) for w in value.weights]
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    return value


def _op_json(op: Operation) -> dict:
    return {"kind": op_kind(op), **asdict(op)}


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
    if isinstance(outcome, ExceedsBound):
        return {"outcome": "exceeds-bound", "bound": outcome.bound}
    return {"outcome": "impossible"}


def _result(args: argparse.Namespace, provenance: str, **extra) -> dict:
    payload = {
        "command": args.subcommand,
        "rule": args.rule,
        "k": args.k,
        "op": args.op,
        "method": args.method,
        "provenance": provenance,
    }
    payload.update(extra)
    return payload


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_election(path: str) -> Election:
    return parse_election(_read_text(path))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _run_winners(args: argparse.Namespace) -> dict:
    e = _load_election(args.election)
    rule = preset_rule(args.rule, args.k)
    ws = winner_set(e, args.k, rule, cap=args.cap)
    extra = {"winners": _winner_set_json(ws, args.cap)}
    if args.rule == "av":
        extra["scores"] = approval_scores(e)
    elif args.rule == "sav":
        extra["scores"] = [str(s) for s in sav_scores(e)]
    return _result(args, WINNER_PROVENANCE[rule.kind], **extra)


def _run_radius(args: argparse.Namespace) -> dict:
    e = _load_election(args.election)
    outcome, method, provenance = robustness_radius(
        e, args.k, preset_rule(args.rule, args.k), args.op, method=args.method, budget=args.budget, cap=args.cap
    )
    extra = {"radius": _radius_json(outcome)}
    if args.budget is not None:
        extra["decision"] = isinstance(outcome, Finite) and outcome.value <= args.budget
    return _result(args, provenance, method=method, **extra, budget=args.budget)


def _run_count(args: argparse.Namespace) -> dict:
    e = _load_election(args.election)
    outcome, method, provenance = count_unchanged(
        e, args.k, preset_rule(args.rule, args.k), args.op, args.budget, method=args.method, cap=args.cap
    )
    return _result(
        args,
        provenance,
        method=method,
        unchanged=_int_json(outcome.unchanged),
        total=_int_json(outcome.total),
        probability=str(outcome.probability),
        budget=args.budget,
    )


def _run_level(args: argparse.Namespace) -> dict:
    e = _load_election(args.election)
    level, op = level_argmax(e, args.k, preset_rule(args.rule, args.k), args.op, cap=args.cap)
    return _result(
        args,
        "exhaustive-operations",
        level=level,
        argmax_op=_op_json(op) if op is not None else None,
    )


def _bundle_json(bundle: cons.GadgetBundle, election_out: str | None) -> dict:
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
    if election_out:
        with open(election_out, "w", encoding="utf-8") as fh:
            fh.write(serialize_election(bundle.election))
        payload["election_file"] = election_out
    elif bundle.election.n > INLINE_VOTER_LIMIT:
        raise ValueError(f"instance has {bundle.election.n} voters; give --election-out to write it to a file")
    else:
        payload["election"] = serialize_election(bundle.election)
    return payload


def _run_witness(args: argparse.Namespace) -> dict:
    if args.which == "sav-add":
        bundle = cons.sav_add_witness(args.k)
    elif args.which == "sav-remove":
        bundle = cons.sav_remove_witness(args.k)
    else:
        bundle = cons.thiele_witness(args.k, args.which.split("-", 1)[1])
    return _result(args, "construction", family=args.which, **_bundle_json(bundle, args.election_out))


def _run_reduce(args: argparse.Namespace) -> dict:
    text = _read_text(args.instance)
    if args.target == "sav-count":
        bundle = cons.matching_to_sav_counting(cons.parse_graph(text), args.op, max_voters=args.max_voters)
    elif args.target == "thiele":
        try:
            alpha = Fraction(args.alpha)
        except ZeroDivisionError:
            raise ValueError(f"--alpha {args.alpha} has a zero denominator") from None
        bundle = cons.x3c_to_thiele(cons.parse_x3c(text), alpha, args.op, max_voters=args.max_voters)
    else:
        raw = cons.parse_x3c(text)
        inst = cons.RX3CInstance(raw.universe_size, raw.sets)
        if args.target == "phragmen":
            bundle = cons.rx3c_to_phragmen(inst, kind=args.op, max_voters=args.max_voters)
        else:
            bundle = cons.rx3c_to_greedy(inst, args.target.split("-", 1)[1], kind=args.op, max_voters=args.max_voters)
    return _result(args, "construction", target=args.target, **_bundle_json(bundle, args.election_out))


def _run_diff(args: argparse.Namespace) -> None:
    before = _load_election(args.before)
    after = _load_election(args.after)
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


def run(args: argparse.Namespace) -> dict | None:
    """Execute parsed arguments and return the JSON payload (None for text output).

    Call it as ``run(build_parser().parse_args(argv))``; a ``cap`` below 1 is refused.
    """
    if args.cap < 1:
        raise ValueError(f"cap must be a positive integer, got {args.cap}")
    return _HANDLERS[args.subcommand](args)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mwrobust", description=__doc__)
    # every result prints these keys, and ``run`` checks ``cap``, whatever the subcommand takes
    parser.set_defaults(rule=None, k=None, op=None, method=None, cap=DEFAULT_CAP)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, op=False, budget=False, required_budget=False):
        p.add_argument("election", help="election file ('-' for stdin)")
        p.add_argument("--rule", choices=tuple(PRESETS), required=True)
        p.add_argument("--k", type=int, required=True, help="committee size")
        cap_help = "bound on enumerated committees, and on oracle bundles and elections"
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=cap_help)
        if op:
            p.add_argument("--op", choices=OP_KINDS, required=True)
        if budget:
            p.add_argument("--budget", type=int, required=required_budget)

    p = sub.add_parser("winners", help="compute the winning committees")
    add_common(p)

    p = sub.add_parser("radius", help="robustness radius for one operation type")
    add_common(p, op=True, budget=True)
    p.add_argument("--method", choices=("exact", "oracle"))

    p = sub.add_parser("count", help="count winner-preserving budget-B perturbations")
    add_common(p, op=True, budget=True, required_budget=True)
    p.add_argument("--method", choices=("exact", "oracle"))

    p = sub.add_parser("level", help="empirical robustness level over all single operations")
    add_common(p, op=True)

    p = sub.add_parser("witness", help="generate a maximal-displacement witness election")
    p.add_argument("--which", choices=WITNESS_FAMILIES, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--election-out", dest="election_out")

    p = sub.add_parser("reduce", help="translate a combinatorial instance into a gadget election")
    p.add_argument("target", choices=REDUCE_TARGETS)
    p.add_argument("instance", help="instance file ('-' for stdin)")
    p.add_argument("--op", choices=OP_KINDS, default="add")
    p.add_argument("--alpha", default="1/2", help="second Thiele weight (thiele target)")
    p.add_argument("--max-voters", dest="max_voters", type=int, default=cons.DEFAULT_MAX_VOTERS)
    p.add_argument("--election-out", dest="election_out")

    p = sub.add_parser("diff", help="render the ballot-matrix difference of two election files")
    p.add_argument("before", help="election file ('-' for stdin)")
    p.add_argument("after", help="election file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = run(args)
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
