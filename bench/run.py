"""Closed-loop benchmark of mwrobust on one seeded workload.

Usage (from the repository root)::

    python3 bench/run.py --workload exact-large --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

One client on one thread asks the workload's questions in order, each only
after the previous one is answered, and repeats whole passes over the
question list until ``--seconds`` have elapsed and at least ``MIN_PASSES``
passes are done.  Every pass first imports ``mwrobust`` afresh and builds
its inputs anew, untimed by the pass, so that nothing a pass caches in the
package or on its inputs can speed up a later one; that set-up is timed on
its own and gives ``setup_s``.  A question's latency is the minimum of its
attempts, which keeps short slow phases of a shared machine out of the
figures.  Every answer is checked.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of traced passes that alternate with untraced ones.  Outputs (span
dumps, the gadget files the CLI reads) go to ``.bench_out/`` in the
repository root.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
MIN_PASSES = 2
MODULES = ("core", "rules", "perturb", "radius", "counting", "constructions", "cli")


@dataclass
class Outcome:
    """What one series of passes observed."""

    #: qid -> latency of each attempt, in seconds
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: (qid, answer digest or None if the call raised), one per attempt
    attempts: list[tuple[str, str | None]] = field(default_factory=list)
    first_answers: dict = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    #: seconds of each pass's set-up: import and input generation
    setup_times: list[float] = field(default_factory=list)
    #: seconds each pass took to answer its questions
    pass_times: list[float] = field(default_factory=list)
    #: the first pass's workload, whose check judges the first answers
    workload: workloads.Workload | None = None
    #: per traced pass, its layer metrics
    layer_metrics: list[dict[str, float]] = field(default_factory=list)
    #: the first traced pass's tracer; later passes keep only their metrics
    first_tracer: tracing.Tracer | None = None

    @property
    def passes(self) -> int:
        return len(self.pass_times)

    def question_latencies(self) -> list[float]:
        """Each question's fastest attempt: slowdowns from other tenants only ever add time."""
        return [min(lat) for lat in self.latencies.values()]

    @property
    def questions_per_s(self) -> float:
        """Questions per second of a pass in which every question takes its fastest attempt."""
        lat = self.question_latencies()
        return len(lat) / sum(lat)

    def wall_questions_per_s(self) -> float:
        """Questions answered divided by the time all passes took to answer them."""
        return len(self.attempts) / sum(self.pass_times)


def load_modules() -> dict:
    """Import ``mwrobust`` from this checkout's ``src`` afresh; raise if it is not there."""
    src = ROOT / "src"
    if not (src / "mwrobust" / "__init__.py").is_file():
        raise ImportError(f"no mwrobust package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for key in [key for key in sys.modules if key == "mwrobust" or key.startswith("mwrobust.")]:
        del sys.modules[key]
    mw = importlib.import_module("mwrobust")
    if Path(mw.__file__).resolve().parent != (src / "mwrobust").resolve():
        raise ImportError(f"imported mwrobust from {mw.__file__}, not from {src}")
    modules = {"mwrobust": mw}
    modules.update((name, importlib.import_module(f"mwrobust.{name}")) for name in MODULES)
    return modules


def set_up(name: str, seed: int, tiny: bool = False):
    """Import the package afresh and build the workload; return both with the seconds taken."""
    start = time.perf_counter()
    modules = load_modules()
    workload = workloads.build(name, modules["mwrobust"], seed, OUT_DIR / f"{name}-seed{seed}", tiny)
    return modules, workload, time.perf_counter() - start


def run_pass(name: str, seed: int, tiny: bool, outcome: Outcome, tracer: tracing.Tracer | None = None) -> None:
    """Set up afresh, then ask every question once; with a tracer, trace the questions."""
    modules, workload, setup_s = set_up(name, seed, tiny)
    outcome.setup_times.append(setup_s)
    if outcome.workload is None:
        outcome.workload = workload
    gc.collect()
    if tracer is not None:
        tracer.install(modules)
    clock = time.perf_counter
    pass_start = clock()
    try:
        for q in workload.questions:
            latencies = outcome.latencies.setdefault(q.qid, [])
            start = clock()
            try:
                answer = q.call(modules)
            except Exception:  # a failing question is counted, and the loop goes on
                latencies.append(clock() - start)
                outcome.attempts.append((q.qid, None))
                outcome.errors.setdefault(q.qid, traceback.format_exc(limit=3))
                continue
            latencies.append(clock() - start)
            try:
                outcome.attempts.append((q.qid, workloads.digest(q.canon(answer))))
            except Exception:  # an answer of the wrong shape is a wrong answer
                outcome.attempts.append((q.qid, None))
                outcome.errors.setdefault(q.qid, traceback.format_exc(limit=3))
                continue
            outcome.first_answers.setdefault(q.qid, answer)
    finally:
        outcome.pass_times.append(clock() - pass_start)
        if tracer is not None:
            tracer.uninstall()
            outcome.layer_metrics.append(tracer.layer_metrics())
            if outcome.first_tracer is None:
                outcome.first_tracer = tracer


def run_loop(
    name: str, seed: int, seconds: float, tiny: bool = False, min_passes: int = MIN_PASSES, trace: bool = False
) -> tuple[Outcome, Outcome | None]:
    """Whole passes until ``seconds`` have elapsed and ``min_passes`` are done.

    With ``trace``, every untraced pass is followed by a traced one, so both
    series see the same machine; returns (untraced, traced or None).
    """
    plain = Outcome()
    traced = Outcome() if trace else None
    deadline = time.perf_counter() + seconds
    while plain.passes < min_passes or time.perf_counter() < deadline:
        run_pass(name, seed, tiny, plain)
        if traced is not None:
            run_pass(name, seed, tiny, traced, tracing.Tracer())
    return plain, traced


def failures(outcomes: list[Outcome], expected: dict | None) -> dict[str, str]:
    """Questions whose answer raised, broke a check, changed between attempts or differs from its digest."""
    bad: dict[str, str] = {}
    first: dict[str, str] = {}
    for outcome in outcomes:
        bad.update((qid, f"raised:\n{tb}") for qid, tb in outcome.errors.items())
        for qid, got in outcome.attempts:
            if got is None:
                continue
            ref = expected.get(qid) if expected else None
            if ref is not None and got != ref:
                bad.setdefault(qid, f"answer digest {got} differs from the recorded {ref}")
            if first.setdefault(qid, got) != got:
                bad.setdefault(qid, "answer changed between attempts")
    for outcome in outcomes:
        workload, answers = outcome.workload, outcome.first_answers
        if len(answers) == len(workload.questions):
            for qid, reason in workload.check(answers).items():
                bad.setdefault(qid, reason)
    return bad


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: a machine-speed reading, reported next to each run."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(outcome: Outcome) -> dict:
    lat = outcome.question_latencies()
    return {
        "questions_per_s": {"value": outcome.questions_per_s, "unit": "1/s"},
        "question_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "question_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1000, "unit": "ms"},
        "setup_s": {"value": statistics.median(outcome.setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(untraced: Outcome, traced: Outcome) -> dict:
    """Each layer metric's median over the traced passes; counts are the same in every pass."""
    units = {"calls": "count", "builds": "count", "states": "count", "bundles": "count", "self_s": "s"}
    per_pass = traced.layer_metrics
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_pass), "unit": units.get(name.rsplit(".", 1)[1], "ratio")}
        for name in per_pass[0]
    }
    metrics["trace.overhead_questions_per_s"] = {
        "value": traced.questions_per_s - untraced.questions_per_s,
        "unit": "1/s",
    }
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, expected: dict | None = None):
    """Run and check one workload; return (result line, metadata)."""
    calibration = [calibrate()]
    outcome, traced = run_loop(name, seed, seconds, tiny, trace=trace)
    calibration.append(calibrate())
    outcomes = [outcome] if traced is None else [outcome, traced]
    if traced is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        traced.first_tracer.write(spans_path)
        metrics = per_layer(outcome, traced)
    else:
        metrics = end_to_end(outcome)
    bad = failures(outcomes, expected)
    attempted = sum(len(o.attempts) for o in outcomes)
    failed = sum(1 for o in outcomes for qid, _ in o.attempts if qid in bad)
    meta = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "inputs": outcome.workload.props,
        "passes": outcome.passes,
        "questions": len(outcome.latencies),
        "failed_share": failed / attempted,
        "wall_questions_per_s": outcome.wall_questions_per_s(),
        "setups": len(outcome.setup_times),
        "calibration_s": calibration,
        "recorded_digests": bool(expected),
    }
    if traced is not None:
        meta["traced_passes"] = traced.passes
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
        meta["spans"] = len(traced.first_tracer.spans)
    for qid, reason in list(bad.items())[:5]:
        print(f"FAILED {qid}: {reason}", file=sys.stderr)
    result = {"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, meta


def recorded_digests(name: str, seed: int) -> dict | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def print_report(result: dict, meta: dict) -> None:
    print("meta " + json.dumps(meta))
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_share = {meta['failed_share']:.6g} ({result['failed']} of {result['attempted']} questions)")
    print(json.dumps(result), flush=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process; print a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps(combined), flush=True)
    return 0


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, meta = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), tiny,
            None if tiny else recorded_digests(args.workload, args.seed),
        )
    except ImportError as exc:
        print(f"cannot load mwrobust: {exc}", file=sys.stderr)
        return 2
    print_report(result, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
