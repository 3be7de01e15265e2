"""Smoke test of the benchmark at tiny input sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def run_tiny(name: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)], tiny=True)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def corrupting(qid: str):
    """Patch the workload builder so that one radius question answers one more than the library does."""
    build = workloads.build

    def corrupted_build(*args, **kwargs):
        workload = build(*args, **kwargs)
        question = next(q for q in workload.questions if q.qid == qid)
        honest = question.call
        question.call = lambda modules: dataclasses.replace(honest(modules), value=honest(modules).value + 1)
        return workload

    return mock.patch.object(workloads, "build", corrupted_build)


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_in_benchmark_json_is_emitted(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        for name in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, result = run_tiny(name, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual((result["correct"], result["failed"]), (True, 0))
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {m: e["unit"] for m, e in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[key]},
                    )

    def test_corrupted_answer_raises_failed_share_against_digests(self):
        outcome, _ = run.run_loop("exact-large", SEED, 0, tiny=True, min_passes=1)
        expected = dict(outcome.attempts)
        with corrupting("e0.av_radius.add"):
            result, meta = run.measure("exact-large", SEED, 0, False, tiny=True, expected=expected)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], run.MIN_PASSES)
        self.assertGreater(meta["failed_share"], 0)

    def test_corrupted_exact_radius_disagrees_with_oracle_without_digests(self):
        with corrupting("e0.av_radius.remove"):
            result, meta = run.measure("oracle-small", SEED, 0, False, tiny=True, expected=None)
        self.assertFalse(result["correct"])
        self.assertGreater(meta["failed_share"], 0)

    def test_traced_counts_repeat_for_a_seed(self):
        counts = []
        for _ in range(2):
            _, result = run_tiny("oracle-small", 1)
            counts.append({m: e["value"] for m, e in result["metrics"].items() if e["unit"] in ("count", "ratio")})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["radius.oracle_radius.states"], 0)


if __name__ == "__main__":
    unittest.main()
