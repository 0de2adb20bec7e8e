"""efeplan benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload plan-grid --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it): the package is imported
from the checkout's `src/`, never from an installed copy. BLAS and OpenMP are
pinned to one thread before numpy loads. With `--trace 0` the run reports the
end-to-end metrics of BENCHMARK.json, measured with no tracing; with
`--trace 1` it runs a fixed amount of the same kind of work three times,
untraced, traced and untraced again, and reports the per-layer metrics derived
from the traced pass's spans (which it also writes to
`.bench_work/spans-<workload>-seed<seed>.jsonl`).

Every metric is printed by name with its unit and sample count, followed by a
`# meta` line (versions, CPU count, git commit, seed) and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
every output check passed, 1 when one failed, 2 when the package or the
arguments are unusable (and then no result is printed).
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tmaze-fig2", "plan-grid", "late-decision")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class Unusable(RuntimeError):
    """The checkout holds no importable efeplan package."""


def load_modules() -> tuple[float, object, object]:
    """Import numpy, efeplan (from ROOT/src) and the benchmark modules.

    Returns the seconds the import took, and the workloads and tracing modules.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "efeplan" / "__init__.py").is_file():
        raise Unusable(f"no efeplan package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    efeplan = importlib.import_module("efeplan")
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    seconds = time.perf_counter() - start
    if Path(efeplan.__file__).resolve().parent != (src / "efeplan").resolve():
        raise Unusable(f"efeplan was imported from {efeplan.__file__}, not from {src}")
    return seconds, workloads, tracing


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Run one workload and return its result: metrics, counts, errors, metadata.

    `sizes` overrides fields of `workloads.Sizes` (the smoke test shrinks them).
    """
    import_s, workloads, tracing = load_modules()
    import numpy

    sizes = workloads.Sizes(**(sizes or {}))
    work = workloads.make_workload(name, seed, ROOT, sizes)
    errors = []
    setup = []

    def set_up(reps):
        for _ in range(reps):
            start = time.perf_counter()
            work.setup(len(setup))
            setup.append(time.perf_counter() - start)

    # Half of the set-up repeats run after the measurement, on fresh inputs,
    # so that their median does not hang on the host's speed at one moment.
    before = max(1, sizes.setup_reps // 2)
    try:
        set_up(before)
        if trace:
            # Untraced passes on either side of the traced one, for the overhead.
            untraced = work.trace_pass(phase=1)
            tracer = tracing.Tracer()
            with tracer:
                traced = work.trace_pass(phase=2, tracer=tracer)
            untraced += work.trace_pass(phase=3)
            overhead = 2.0 * traced / untraced - 1.0
            values, samples, missing = tracing.layer_metrics(tracer.spans, overhead)
            required = tracing.ALL_SPANS if name == "tmaze-fig2" else tracing.DECISION_SPANS
            errors += [f"layer {span} recorded no calls" for span in missing if span in required]
            tracer.write(ROOT / ".bench_work" / f"spans-{name}-seed{seed}.jsonl")
            metrics = {k: (v, unit, samples[k]) for k, (v, unit) in values.items()}
        else:
            metrics = work.run_timed(seconds)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
            set_up(sizes.setup_reps - before)
            metrics = {"setup_s": (import_s + statistics.median(setup), "s", len(setup)), **metrics}
        work.finish()
    finally:
        work.close()
    errors = work.errors + errors
    return {
        "correct": work.failed == 0 and not errors,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": metrics,
        "errors": errors,
        "meta": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
            "import_s": import_s,
            "setup_rep_s": setup,
            "samples": {k: n for k, (_, _, n) in metrics.items()},
        },
    }


def report(result: dict) -> None:
    meta = result["meta"]
    print(f"# efeplan benchmark: workload {meta['workload']}, seed {meta['seed']}, trace {meta['trace']}")
    print(f"# {'metric':<42} {'value':>14} {'unit':<15} samples")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"  {name:<42} {value:>14.6g} {unit:<15} {n}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'error_rate':<42} {rate:>14.6g} {'failed/attempted':<15} {result['attempted']}")
    for error in result["errors"][:20]:
        print(f"error: {error}", file=sys.stderr)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()
                },
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unusable as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Re-executed in place (same process) with a fixed string-hash seed:
        # randomized hashing changes dict layouts, and with them the speed of
        # attribute lookups, by several percent from one process to the next.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
