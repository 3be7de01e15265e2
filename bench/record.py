"""Record the answer digests and the baseline the benchmark compares against.

    python3 bench/record.py digests --seeds 0-15    # writes bench/digests.json
    python3 bench/record.py baseline --seeds 1-10   # writes bench/baseline.json

``digests`` runs one pass per workload and seed and refuses to record a seed
whose answers fail a check.  ``baseline`` runs ``run.py`` once per workload
and seed with tracing off, plus one traced run per workload on the first
seed, each for the ``run_seconds`` of ``BENCHMARK.json``, and stores each
metric's median, quartiles and spread (interquartile range over the median).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads

BASELINE = run.BENCH_DIR / "baseline.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_digests(seeds: list[int]) -> None:
    data = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            outcome, _ = run.run_loop(name, seed, 0, min_passes=1)
            bad = run.failures([outcome], None)
            if bad:
                raise SystemExit(f"{name} seed {seed}: refusing to record failing answers: {bad}")
            data.setdefault(name, {})[str(seed)] = dict(outcome.attempts)
            print(f"{name} seed {seed}: {len(outcome.attempts)} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_once(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def record_baseline(seeds: list[int]) -> None:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, check=False).stdout.strip() or "unknown"
    out = {
        "git_commit": commit,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": seconds,
        "seeds": seeds,
        "traced_seed": seeds[0],
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        calibration, failed, attempted = [], 0, 0
        for seed in seeds:
            result, meta = run_once(name, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            calibration.extend(meta["calibration_s"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        traced, traced_meta = run_once(name, seeds[0], seconds, 1)
        out["workloads"][name] = {
            "inputs": meta["inputs"],
            "failed_share": failed / attempted,
            "calibration_s_median": statistics.median(calibration),
            "end_to_end": {metric: summary(v, units[metric]) for metric, v in values.items()},
            "per_layer": {metric: entry["value"] for metric, entry in traced["metrics"].items()},
            "traced_failed_share": traced_meta["failed_share"],
        }
        for metric, entry in out["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {entry['median']:.4g} spread {entry['spread']:.3f}", flush=True)
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--seeds", type=seed_range, required=True, help="inclusive range such as 1-10")
    args = parser.parse_args()
    if args.what == "digests":
        record_digests(args.seeds)
    else:
        record_baseline(args.seeds)


if __name__ == "__main__":
    main()
