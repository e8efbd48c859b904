"""Benchmark of evicred: training, closed-loop scoring and snippet ingest.

Run from the repository root:

    python3 bench/run.py --workload train-snopes --seed 1 --seconds 40 --trace 0

It generates seeded inputs under .bench_work/, drives the library in
src/evicred, checks every output, prints a table of metrics with units and,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the library's entry points and reports per-layer ones.
A fuller record (environment, sample counts, spans) goes to
.bench_work/results/ and .bench_work/traces/.  See bench/README.md.
"""
from __future__ import annotations

import os

# One process and one BLAS thread: the benchmark measures single-caller work
# and a steady machine matters more than a parallel one.  This has to be set
# before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train-snopes", "score-claims", "ingest-snippets")
# At least two measured units (their digests must agree) and enough
# operations that the 90th latency percentile has ten samples beyond it.
MIN_UNITS = 2
MIN_OPS = 100

# The end-to-end metrics under the names each workload gives them.
ALIASES = {
    "train-snopes": {"ops_per_s": "train.pairs_per_s",
                     "op_ms_p50": "train.pair_ms_p50", "op_ms_p90": "train.pair_ms_p90"},
    "score-claims": {"ops_per_s": "score.claims_per_s",
                     "op_ms_p50": "score.claim_ms_p50", "op_ms_p90": "score.claim_ms_p90"},
    "ingest-snippets": {"ops_per_s": "ingest.articles_per_s",
                        "op_ms_p50": "ingest.article_ms_p50",
                        "op_ms_p90": "ingest.article_ms_p90"},
}


def settle() -> None:
    """Free garbage and hand the freed heap back to the system.

    Run before each set-up, outside its timing.  Otherwise how much of the
    last unit's memory the allocator kept decides whether a set-up reuses
    mapped pages or faults in new ones, which moves both its time and the
    process's peak memory from run to run.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc
        pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import generate
    import workloads
    from spans import Tracer

    generate.generate(name, seed, workdir)
    workload = workloads.WORKLOADS[name](workdir, seed)
    tracer = Tracer() if trace else None
    missing = workloads.install_tracing(tracer) if tracer else []

    setup_seconds, vector_rows, vector_seconds = [], [], []

    def timed_setup():
        # Set-ups are spread through the run, before each unit, so their
        # median samples the machine over the whole run, not its first seconds.
        start = time.perf_counter()
        if tracer:
            with tracer.span("bench.setup"):
                setup = workload.setup()
        else:
            setup = workload.setup()
        setup_seconds.append(time.perf_counter() - start)
        vector_rows.append(setup.vector_rows)
        vector_seconds.append(setup.vector_seconds)
        return setup.state

    settle()
    state = timed_setup()
    reference = None
    if tracer:
        # One untraced unit: traced units must reproduce its digest, and its
        # rate against theirs is the tracing overhead.
        tracer.restore()
        reference = workload.unit(state)
        workloads.install_tracing(tracer)

    units = []
    loop_start = time.perf_counter()
    last = 0.0
    while (len(units) < MIN_UNITS or sum(unit.ops for unit in units) < MIN_OPS
           or time.perf_counter() - loop_start + last <= seconds):
        began = time.perf_counter()
        for _ in range(workload.setups_per_unit):
            state = None  # peak memory should hold one set-up, not two
            settle()
            state = timed_setup()
        if tracer:
            with tracer.span("bench.unit"):
                units.append(workload.unit(state))
        else:
            units.append(workload.unit(state))
        last = time.perf_counter() - began
    if tracer:
        tracer.restore()

    # Repeated work must give identical results, traced or not.
    checked = [*([reference] if reference else []), *units]
    expected = checked[0].digest
    errors: list[str] = []
    failed = 0
    for unit in checked:
        failed += unit.failed
        errors.extend(unit.errors)
        if unit.digest != expected:
            failed += unit.ops - unit.failed
            errors.append(f"unit digest {unit.digest[:12]} != {expected[:12]}: "
                          "repeated work gave different results")
    extra_failed, extra_errors = workload.final_checks(state, units)
    errors.extend(extra_errors)
    attempted = sum(unit.ops for unit in checked)
    failed = min(attempted, failed + extra_failed)

    op_seconds = [s for unit in units for s in unit.op_seconds]
    deciles = statistics.quantiles(op_seconds, n=10, method="inclusive")
    rates = [unit.ops / unit.seconds for unit in units]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "op": workload.op,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "units": len(units),
        "unit_seconds": [unit.seconds for unit in checked],
        "setup_seconds": setup_seconds,
        "vector_seconds": vector_seconds,
        "untraced_entry_points": missing,
        "end_to_end": {
            "setup_s": (statistics.median(setup_seconds), "s", len(setup_seconds)),
            "ops_per_s": (statistics.median(rates), "1/s", len(rates)),
            "op_ms_p50": (1e3 * deciles[4], "ms", len(op_seconds)),
            "op_ms_p90": (1e3 * deciles[8], "ms", len(op_seconds)),
            # Rows over seconds of all loads, not a median of single loads:
            # the host switches between a slow and a fast state every few
            # seconds, and a median of such samples flips between the two.
            "vectors.rows_per_s": (sum(vector_rows) / sum(vector_seconds), "rows/s",
                                   len(vector_seconds)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB", 1),
        },
    }
    if tracer:
        result["per_layer"] = workloads.layer_metrics(
            tracer, sum(unit.ops for unit in units))
        traced_rate = statistics.median(rates)
        result["per_layer"]["trace.overhead_pct"] = (
            100.0 * (reference.ops / reference.seconds / traced_rate - 1.0), "%")
        self_s, _ = tracer.self_times(root="bench.unit")
        unit_total = sum(unit.seconds for unit in units)
        result["unit_self_share"] = {
            span: total / unit_total
            for span, total in sorted(self_s.items(), key=lambda kv: -kv[1])}
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{name}-seed{seed}.jsonl")
    return result


def report(result: dict, env: dict) -> dict:
    """Print the human-readable table and return the final JSON object."""
    name = result["workload"]
    print(f"# workload {name}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}  units {result['units']}")
    print("# env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'metric':34} {'value':>14}  {'unit':8} {'n':>6}")
    aliases = ALIASES[name]
    for metric, (value, unit, n) in result["end_to_end"].items():
        label = f"{metric} ({aliases[metric]})" if metric in aliases else metric
        print(f"{label:34} {value:14.6g}  {unit:8} {n:>6}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ratio':34} {ratio:14.6g}  {'ratio':8} {result['attempted']:>6}")
    if "per_layer" in result:
        print(f"{'per-layer metric':34} {'value':>14}  unit")
        for metric, (value, unit) in result["per_layer"].items():
            print(f"{metric:34} {value:14.6g}  {unit}")
        print("# self-time share of the measured units")
        for span, share in result["unit_self_share"].items():
            print(f"#   {span:30} {100 * share:6.2f}%")
    for entry in result["untraced_entry_points"]:
        print(f"# not traced (absent from the library): {entry}")
    for error in result["errors"][:5]:
        print(f"# error: {error.strip()}", file=sys.stderr)

    chosen = result["per_layer"] if result["trace"] else {
        metric: (value, unit) for metric, (value, unit, _) in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in chosen.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evicred" / "__init__.py").is_file():
        print(f"error: {SRC / 'evicred'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evicred

    if Path(evicred.__file__).resolve().parent != SRC / "evicred":
        print(f"error: imported evicred from {evicred.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir)
    except Exception:  # report any harness failure without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    line = report(result, env)
    result["environment"] = env
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
