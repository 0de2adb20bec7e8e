"""Smoke test of the benchmark: every workload at minimal size, untraced and traced.

    python3 benchmarks/smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json names, each with
its unit, and that no output check failed (error rate 0). It makes no timing
assertion, and it is not collected by the test suite.
"""
from __future__ import annotations

import json
import sys

import run

MINIMAL = dict(setup_reps=1, min_per_kind=1, verify_every=1, tmaze_trials=2, min_runs=1, trace_rounds=1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(workload["name"], seed=0, seconds=0, trace=trace, sizes=MINIMAL)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: unit for name, (_, unit, _) in result["metrics"].items()}
            problems = result["errors"][:5]
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json {section}: {sorted(set(got.items()) ^ set(want.items()))}")
            if result["failed"] or not result["correct"] or not result["attempted"]:
                problems.append(f"{result['failed']} of {result['attempted']} failed")
            label = f"{workload['name']} trace={int(trace)}"
            print(f"{'PASS' if not problems else 'FAIL'} {label}: {len(got)} metrics, {result['attempted']} attempted")
            for problem in problems:
                print(f"  {problem}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
