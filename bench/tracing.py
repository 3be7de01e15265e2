"""Span tracing around the public functions of each mwrobust module.

The tracer wraps functions from outside the package: it replaces every
module-level binding of a traced function (``from .rules import winner_set``
gives ``perturb``, ``radius``, ``counting`` and ``cli`` their own binding) and
``Election.__post_init__``, and restores them on ``uninstall``.  Spans are
kept in memory as ``(name, start_ns, end_ns, parent)`` and written out once,
at the end.  Counts that relate a span to an enclosing one (for example
``apply`` calls under ``oracle_radius``) are taken at span entry.
"""
from __future__ import annotations

import json
import time
from collections import Counter

#: (module, attribute, span name).  Both gadget builders share one span name.
TRACED = (
    ("perturb", "apply", "perturb.apply"),
    ("perturb", "feasible_operations", "perturb.feasible_operations"),
    ("perturb", "displacement", "perturb.displacement"),
    ("perturb", "level_argmax", "perturb.level_argmax"),
    ("rules", "winner_set", "rules.winner_set"),
    ("rules", "winners_separable", "rules.winners_separable"),
    ("rules", "winners_thiele", "rules.winners_thiele"),
    ("rules", "greedy_thiele", "rules.greedy_thiele"),
    ("rules", "phragmen_trace", "rules.phragmen_trace"),
    ("rules", "winner_sets_equal", "rules.winner_sets_equal"),
    ("radius", "av_radius", "radius.av_radius"),
    ("radius", "sav_radius", "radius.sav_radius"),
    ("radius", "oracle_radius", "radius.oracle_radius"),
    ("counting", "av_count_unchanged", "counting.av_count_unchanged"),
    ("counting", "oracle_count_unchanged", "counting.oracle_count_unchanged"),
    ("cli", "parse_election", "cli.parse_election"),
    ("cli", "serialize_election", "cli.serialize_election"),
    ("cli", "main", "cli.main"),
    ("constructions", "rx3c_to_phragmen", "constructions.gadget"),
    ("constructions", "rx3c_to_greedy", "constructions.gadget"),
)
ELECTION_SPAN = "core.Election"

#: (inner span, enclosing span): inner calls made while the enclosing span is open.
NESTED = (
    ("perturb.apply", "radius.oracle_radius"),
    ("rules.winner_set", "radius.oracle_radius"),
    ("rules.winner_set", "perturb.displacement"),
    ("rules.winner_set", "counting.oracle_count_unchanged"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.open: Counter[str] = Counter()
        self.nested: Counter[tuple[str, str]] = Counter()
        self._inner: dict[str, tuple[str, ...]] = {}
        for inner, outer in NESTED:
            self._inner[inner] = self._inner.get(inner, ()) + (outer,)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, open_, nested = self.spans, self.stack, self.open, self.nested
        outers = self._inner.get(name, ())
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            for outer in outers:
                if open_[outer]:
                    nested[(name, outer)] += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            open_[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding of each traced function in the given ``mwrobust`` modules."""
        for mod_name, attr, span in TRACED:
            original = getattr(modules[mod_name], attr)
            wrapper = self.wrap(span, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        election_cls = modules["core"].Election
        original = election_cls.__post_init__
        self._restore.append((election_cls, "__post_init__", original))
        election_cls.__post_init__ = self.wrap(ELECTION_SPAN, original)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def self_times(self) -> tuple[Counter[str], Counter[str]]:
        """Per span name: call count and self seconds (duration minus direct children)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start - child_ns[i]) / 1e9
        return calls, self_s

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in ``BENCHMARK.json`` (0 where a layer did no work)."""
        calls, self_s = self.self_times()
        displacements = calls["perturb.displacement"]
        oracle_states = self.nested[("perturb.apply", "radius.oracle_radius")]
        return {
            "core.Election.builds": calls[ELECTION_SPAN],
            "core.Election.self_s": self_s[ELECTION_SPAN],
            "perturb.apply.calls": calls["perturb.apply"],
            "perturb.apply.self_s": self_s["perturb.apply"],
            "perturb.feasible_operations.self_s": self_s["perturb.feasible_operations"],
            "perturb.displacement.calls": displacements,
            "perturb.level_argmax.self_s": self_s["perturb.level_argmax"],
            "rules.winner_set.calls": calls["rules.winner_set"],
            "rules.winner_set.self_s": self_s["rules.winner_set"],
            "rules.winners_separable.self_s": self_s["rules.winners_separable"],
            "rules.winners_thiele.self_s": self_s["rules.winners_thiele"],
            "rules.greedy_thiele.self_s": self_s["rules.greedy_thiele"],
            "rules.phragmen_trace.self_s": self_s["rules.phragmen_trace"],
            "rules.winner_sets_equal.calls": calls["rules.winner_sets_equal"],
            "rules.winner_set.per_displacement": (
                self.nested[("rules.winner_set", "perturb.displacement")] / displacements if displacements else 0.0
            ),
            "radius.av_radius.self_s": self_s["radius.av_radius"],
            "radius.sav_radius.self_s": self_s["radius.sav_radius"],
            "radius.oracle_radius.self_s": self_s["radius.oracle_radius"],
            "radius.oracle_radius.states": oracle_states,
            "radius.oracle_radius.unique_state_ratio": (
                self.nested[("rules.winner_set", "radius.oracle_radius")] / oracle_states if oracle_states else 0.0
            ),
            "counting.av_count_unchanged.self_s": self_s["counting.av_count_unchanged"],
            "counting.oracle_count_unchanged.self_s": self_s["counting.oracle_count_unchanged"],
            "counting.oracle_count_unchanged.bundles": self.nested[
                ("rules.winner_set", "counting.oracle_count_unchanged")
            ],
            "cli.parse_election.self_s": self_s["cli.parse_election"],
            "cli.serialize_election.self_s": self_s["cli.serialize_election"],
            "cli.main.self_s": self_s["cli.main"],
            "constructions.gadget.self_s": self_s["constructions.gadget"],
        }

    def write(self, path) -> None:
        """Write the spans as JSON: a name table plus ``[name, start_ns, end_ns, parent]`` rows."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        rows = ",\n".join(
            json.dumps([index[name], start - t0, end - t0, parent]) for name, start, end, parent in self.spans
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(names) + ',\n"spans": [\n' + rows + "\n]}\n")
