"""Seeded workloads: the inputs, the questions asked about them, and their checks.

A question is one library call that answers one user question, such as "the
SAV swap radius of E at k=5".  Each workload turns a seed into a fixed list
of questions; the same seed always gives the same inputs and questions.
Every answer is reduced to a canonical, representation-independent form
(committee lists, radius values, counts, texts) whose digest is compared
against the digests recorded in ``digests.json``.  Each workload also has
semantic checks that need no recorded digest.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("exact-large", "oracle-small", "gadget-dup")

#: Input sizes.  ``tiny`` exists for the smoke test only.
SIZES = {
    "exact-large": {
        # (n, approval density) per election.  A pass takes 4-6 s, so a 50 s run
        # times every question 8-12 times; at n=500-1000 a pass took 12-15 s, and
        # two timings per question left run-to-run spreads of 30-40%.
        "full": {
            "m": 20,
            "k": 5,
            "pav_k": 3,
            "elections": ((200, 0.2), (200, 0.3), (200, 0.5), (250, 0.2), (300, 0.2), (350, 0.2), (400, 0.2)),
        },
        "tiny": {"m": 8, "k": 3, "pav_k": 2, "elections": ((40, 0.3),)},
    },
    "oracle-small": {
        # Two profiles, each under three seeded relabellings.  How soon a search
        # stops depends on the labels, so one relabelling per profile left the
        # seed-to-seed spread of p50 at 21% even with the machine held steady;
        # three average it out.  Profiles stay at m=5, n=10: at m=6, n=12 a
        # Phragmen search takes 150-260 ms and a pass 5 s, so a 50 s run times
        # such a question only about 8 times, too few for a steady minimum on a
        # shared machine (spreads of 16-31% in questions_per_s and p90).  A pass
        # takes about 1.2 s.
        "full": {"k": 2, "budget": 2, "shapes": ((5, 10),), "gaps": (2, 3), "relabellings": 3},
        "tiny": {"k": 2, "budget": 2, "shapes": ((5, 10),), "gaps": (2,), "relabellings": 1},
    },
    "gadget-dup": {
        "full": {"displacements": 30},
        "tiny": {"displacements": 2},
    },
}

ORACLE_RULES = ("greedy-pav", "phragmen", "pav", "cc")
OPS = ("add", "remove", "swap")


@dataclass
class Question:
    """One library call: ``getattr(modules[module], func)(*args)``."""

    qid: str
    module: str
    func: str
    args: tuple
    canon: Callable[[Any], Any]
    capture_stdout: bool = False

    def call(self, modules: dict):
        fn = getattr(modules[self.module], self.func)
        if not self.capture_stdout:
            return fn(*self.args)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fn(*self.args)
        return code, out.getvalue()


@dataclass
class Workload:
    questions: list[Question]
    #: Input properties, reported as metadata.
    props: dict
    #: Maps the first answer of every question to ``{qid: reason}`` for answers that fail a check.
    check: Callable[[dict], dict]


def digest(canonical) -> str:
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def build(name: str, mw, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rng = random.Random(f"mwrobust-bench:{name}:{seed}")
    sizes = SIZES[name]["tiny" if tiny else "full"]
    if name == "exact-large":
        return _exact_large(mw, rng, sizes)
    if name == "oracle-small":
        return _oracle_small(mw, rng, sizes)
    if name == "gadget-dup":
        return _gadget_dup(mw, rng, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Canonical answers


def canon_winners(ws):
    if ws.count() > 1000:
        return ("threshold", sorted(ws.forced), sorted(ws.pool), ws.slots)
    return tuple(ws.committees())


def canon_radius(outcome):
    return (type(outcome).__name__, getattr(outcome, "value", None), getattr(outcome, "bound", None))


def canon_count(outcome):
    return (outcome.unchanged, outcome.total)


def canon_level(answer):
    # The argmax operation is checked, not digested: any operation attaining the level is correct.
    return answer[0]


def canon_same(answer):
    return answer


def canon_election(e):
    return (e.num_candidates, tuple(tuple(sorted(b)) for b in e.ballots), e.tiebreak)


def _plain(value):
    """JSON form of a gadget's ``info`` value: numbers, flags, committees or a weight vector."""
    if hasattr(value, "weights"):
        return [str(w) for w in value.weights]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def canon_bundle(bundle):
    return (
        canon_election(bundle.election),
        bundle.k,
        bundle.op_kind,
        bundle.budget,
        bundle.note,
        bundle.labels,
        bundle.voter_groups,
        repr(bundle.op),
        json.dumps({key: _plain(v) for key, v in bundle.info.items()}, sort_keys=True),
    )


def canon_cli(answer):
    code, out = answer
    return (code, json.dumps(json.loads(out), sort_keys=True) if code == 0 else out)


# ---------------------------------------------------------------------------
# Input properties


def _props(elections, questions: int) -> dict:
    voters = sum(e.n for e in elections)
    distinct = sum(len(set(e.ballots)) for e in elections)
    return {
        "elections": len(elections),
        "m": sorted({e.m for e in elections}),
        "n": sorted({e.n for e in elections}),
        "voters": voters,
        "distinct_ballot_share": round(distinct / voters, 4),
        "questions_per_pass": questions,
    }


# ---------------------------------------------------------------------------
# Profiles
#
# Each election slot draws its profile from a fixed generator; the seed then
# permutes the candidates, carrying the tie-break order along.  Every seed thus
# asks isomorphic questions (same answers up to relabelling), and the work per
# pass hardly depends on the seed.  Fresh random profiles per seed made the
# work per pass vary by 15-80% between seeds, and shuffling the voters as well
# changed the BFS visiting order enough to vary it by 9%.


def _design_rng(workload: str, slot: int) -> random.Random:
    return random.Random(f"mwrobust-bench:{workload}:profile:{slot}")


def _relabelled(mw, m: int, ballots, seed_rng: random.Random):
    perm = list(range(m))
    seed_rng.shuffle(perm)
    return mw.election(m, [[perm[c] for c in b] for b in ballots], tiebreak=perm)


# ---------------------------------------------------------------------------
# exact-large: the exact algorithms on large random elections


def _exact_large(mw, rng: random.Random, sizes: dict) -> Workload:
    m, k, pav_k = sizes["m"], sizes["k"], sizes["pav_k"]
    elections = []
    questions: list[Question] = []
    for i, (n, density) in enumerate(sizes["elections"]):
        design = _design_rng("exact-large", i)
        e = _relabelled(mw, m, [[c for c in range(m) if design.random() < density] for _ in range(n)], rng)
        elections.append(e)
        tag = f"e{i}"
        for rule, kk in (("av", k), ("sav", k), ("greedy-pav", k), ("phragmen", k), ("pav", pav_k)):
            questions.append(
                Question(f"{tag}.winner_set.{rule}", "rules", "winner_set", (e, kk, mw.preset_rule(rule, kk)), canon_winners)
            )
        for kind in OPS:
            questions.append(Question(f"{tag}.av_radius.{kind}", "radius", "av_radius", (e, k, kind), canon_radius))
            questions.append(Question(f"{tag}.sav_radius.{kind}", "radius", "sav_radius", (e, k, kind), canon_radius))
        for kind in ("add", "remove"):
            for budget in (3, 20):
                questions.append(
                    Question(
                        f"{tag}.av_count_unchanged.{kind}.{budget}", "counting", "av_count_unchanged", (e, k, kind, budget), canon_count
                    )
                )

    def check(answers: dict) -> dict:
        bad = {}
        for i, e in enumerate(elections):
            tag = f"e{i}"
            approvals = [sum(1 for b in e.ballots if c in b) for c in range(m)]
            sav = [sum((Fraction(1, len(b)) for b in e.ballots if c in b), Fraction(0)) for c in range(m)]
            for rule, scores in (("av", approvals), ("sav", sav)):
                qid = f"{tag}.winner_set.{rule}"
                kth = sorted(scores, reverse=True)[k - 1]
                expected = {c for c in range(m) if scores[c] > kth}
                tied = {c for c in range(m) if scores[c] == kth}
                for committee in answers[qid].committees():
                    if len(committee) != k or not expected <= set(committee) <= expected | tied:
                        bad[qid] = f"committee {committee} is not a top-{k} committee"
            for rule, kk in (("greedy-pav", k), ("phragmen", k), ("pav", pav_k)):
                qid = f"{tag}.winner_set.{rule}"
                if any(len(c) != kk for c in answers[qid].committees()):
                    bad[qid] = f"committee size differs from {kk}"
            for kind in OPS:
                qid = f"{tag}.sav_radius.{kind}"
                if getattr(answers[qid], "value", 1) < 1:
                    bad[qid] = "radius below 1"
            for kind in ("add", "remove"):
                slots = sum(approvals) if kind == "remove" else e.n * m - sum(approvals)
                radius = getattr(answers[f"{tag}.av_radius.{kind}"], "value", math.inf)
                for budget in (3, 20):
                    qid = f"{tag}.av_count_unchanged.{kind}.{budget}"
                    unchanged, total = canon_count(answers[qid])
                    if total != math.comb(slots, budget) or not 0 <= unchanged <= total:
                        bad[qid] = f"count {unchanged}/{total} inconsistent with {slots} cells"
                    elif budget < radius and unchanged != total:
                        bad[qid] = f"fewer than radius {radius} operations changed the winners"
        return bad

    return Workload(questions, _props(elections, len(questions)), check)


# ---------------------------------------------------------------------------
# oracle-small: brute-force searches on small elections with a planted margin


def _planted_election(mw, design: random.Random, seed_rng: random.Random, m: int, n: int, k: int, gap: int):
    """A profile with four ballot types (so many identical voters) and AV gap ``z_k - z_{k+1} == gap``."""
    while True:
        types: list[frozenset[int]] = []
        while len(types) < 4:
            ballot = frozenset(design.sample(range(m), design.randint(1, 3)))
            if ballot not in types:
                types.append(ballot)
        ballots = [design.choice(types) for _ in range(n)]
        z = sorted((sum(1 for b in ballots if c in b) for c in range(m)), reverse=True)
        if z[k - 1] - z[k] == gap:
            return _relabelled(mw, m, ballots, seed_rng)


def _oracle_small(mw, rng: random.Random, sizes: dict) -> Workload:
    k, budget = sizes["k"], sizes["budget"]
    profiles = [(m, n, gap) for m, n in sizes["shapes"] for gap in sizes["gaps"]]
    elections = []
    questions: list[Question] = []
    for _ in range(sizes["relabellings"]):
        for slot, (m, n, gap) in enumerate(profiles):
            i = len(elections)
            e = _planted_election(mw, _design_rng("oracle-small", slot), rng, m, n, k, gap)
            elections.append(e)
            tag = f"e{i}"
            for rule in ORACLE_RULES:
                spec = mw.preset_rule(rule, k)
                for kind in OPS:
                    questions.append(
                        Question(f"{tag}.oracle_radius.{rule}.{kind}", "radius", "oracle_radius", (e, k, spec, kind, budget), canon_radius)
                    )
                level_kind = OPS[i % 3]
                questions.append(
                    Question(f"{tag}.level_argmax.{rule}.{level_kind}", "perturb", "level_argmax", (e, k, spec, level_kind), canon_level)
                )
                count_kind = ("add", "remove")[i % 2]
                questions.append(
                    Question(
                        f"{tag}.oracle_count_unchanged.{rule}.{count_kind}",
                        "counting",
                        "oracle_count_unchanged",
                        (e, k, spec, count_kind, 2),
                        canon_count,
                    )
                )
            for rule in ("av", "sav"):
                spec = mw.preset_rule(rule, k)
                for kind in OPS:
                    questions.append(Question(f"{tag}.{rule}_radius.{kind}", "radius", f"{rule}_radius", (e, k, kind), canon_radius))
                    questions.append(
                        Question(f"{tag}.oracle_radius.{rule}.{kind}", "radius", "oracle_radius", (e, k, spec, kind, budget), canon_radius)
                    )

    def check(answers: dict) -> dict:
        bad = {}
        for i, e in enumerate(elections):
            tag = f"e{i}"
            for rule in ORACLE_RULES + ("av", "sav"):
                spec = mw.preset_rule(rule, k)
                base = mw.winner_set(e, k, spec)
                for kind in OPS:
                    qid = f"{tag}.oracle_radius.{rule}.{kind}"
                    outcome = answers[qid]
                    witness = getattr(outcome, "witness", None)
                    if witness is not None:
                        after = mw.winner_set(mw.apply_sequence(e, witness), k, spec)
                        if len(witness) != outcome.value or mw.winner_sets_equal(base, after):
                            bad[qid] = f"witness {witness} does not change the winners in {outcome.value} steps"
                    if rule in ("av", "sav"):
                        exact = answers[f"{tag}.{rule}_radius.{kind}"]
                        if not _radius_agrees(exact, outcome, budget):
                            bad[f"{tag}.{rule}_radius.{kind}"] = f"exact {exact} disagrees with oracle {outcome}"
            for key, answer in answers.items():
                if key.startswith(f"{tag}.level_argmax."):
                    _, _, rule, kind = key.split(".")
                    level, op = answer
                    if op is not None and mw.displacement(e, k, mw.preset_rule(rule, k), op) != level:
                        bad[key] = f"argmax {op} does not attain level {level}"
                elif key.startswith(f"{tag}.oracle_count_unchanged."):
                    kind = key.rsplit(".", 1)[1]
                    unchanged, total = canon_count(answer)
                    if total != math.comb(len(mw.feasible_operations(e, kind)), 2) or not 0 <= unchanged <= total:
                        bad[key] = f"count {unchanged}/{total} inconsistent"
        return bad

    return Workload(questions, _props(elections, len(questions)), check)


def _radius_agrees(exact, oracle, budget: int) -> bool:
    """Whether an exact radius is consistent with a BFS run to depth ``budget``."""
    kind = type(oracle).__name__
    exact_value = getattr(exact, "value", None)
    if kind == "Finite":
        return exact_value == oracle.value
    if kind == "ExceedsBound":
        return exact_value is None or exact_value > budget
    return exact_value is None  # the oracle exhausted the reachable space


# ---------------------------------------------------------------------------
# gadget-dup: reduction gadgets with ~9k voters but few distinct ballots


def _gadget_dup(mw, rng: random.Random, sizes: dict, workdir: Path) -> Workload:
    gadgets = (
        ("phragmen", "rx3c_to_phragmen", (mw.triple_cover_rx3c(1),), "phragmen"),
        ("greedy-cc", "rx3c_to_greedy", (mw.no_cover_rx3c_n2(), "cc"), "greedy-cc"),
        ("greedy-pav", "rx3c_to_greedy", (mw.no_cover_rx3c_n2(), "pav"), "greedy-pav"),
    )
    workdir.mkdir(parents=True, exist_ok=True)
    questions: list[Question] = []
    bundles = {}
    texts = {}
    for name, builder, args, rule in gadgets:
        bundle = getattr(mw.constructions, builder)(*args)
        e, k = bundle.election, bundle.k
        spec = mw.preset_rule(rule, k)
        text = mw.cli.serialize_election(e)
        path = workdir / f"gadget-{name}.txt"
        path.write_text(text, encoding="utf-8")
        bundles[name], texts[name] = bundle, text
        tag = f"g.{name}"
        questions.append(Question(f"{tag}.gadget", "constructions", builder, args, canon_bundle))
        questions.append(Question(f"{tag}.winner_set", "rules", "winner_set", (e, k, spec), canon_winners))
        for j, op in enumerate(rng.sample(mw.feasible_operations(e, "add"), sizes["displacements"])):
            questions.append(Question(f"{tag}.displacement.{j}", "perturb", "displacement", (e, k, spec, op), canon_same))
        questions.append(Question(f"{tag}.serialize_election", "cli", "serialize_election", (e,), canon_same))
        questions.append(Question(f"{tag}.parse_election", "cli", "parse_election", (text,), canon_election))
        questions.append(
            Question(
                f"{tag}.cli_winners",
                "cli",
                "main",
                (["winners", str(path), "--rule", rule, "--k", str(k)],),
                canon_cli,
                capture_stdout=True,
            )
        )

    def check(answers: dict) -> dict:
        bad = {}
        for name, bundle in bundles.items():
            tag = f"g.{name}"
            e, k, p = bundle.election, bundle.k, bundle.info["p"]
            if answers[f"{tag}.gadget"].election != e:
                bad[f"{tag}.gadget"] = "rebuilt gadget differs from the set-up gadget"
            # Built-in expectations: a greedy gadget records its baseline committee and
            # whether p is in it; the Phragmén gadget of a covered instance elects p.
            committees = answers[f"{tag}.winner_set"].committees()
            baseline = bundle.info.get("baseline")
            selects_p = bundle.info.get("selects_p", name == "phragmen")
            if baseline is not None and committees != (baseline,):
                bad[f"{tag}.winner_set"] = f"winners {committees} differ from the gadget baseline {baseline}"
            if any((p in c) != selects_p for c in committees):
                bad[f"{tag}.winner_set"] = f"p={p} {'loses' if selects_p else 'wins'} before any operation"
            if answers[f"{tag}.serialize_election"] != texts[name]:
                bad[f"{tag}.serialize_election"] = "serialization differs from the set-up text"
            if answers[f"{tag}.parse_election"] != e:
                bad[f"{tag}.parse_election"] = "parse(serialize(E)) differs from E"
            code, out = answers[f"{tag}.cli_winners"]
            if code != 0 or [tuple(c) for c in json.loads(out)["winners"]["committees"]] != list(committees):
                bad[f"{tag}.cli_winners"] = f"CLI exit {code} or winners differ from the library"
            for key, d in answers.items():
                if key.startswith(f"{tag}.displacement.") and not 0 <= d <= k:
                    bad[key] = f"displacement {d} outside [0, {k}]"
        return bad

    elections = [b.election for b in bundles.values()]
    return Workload(questions, _props(elections, len(questions)), check)
