"""Benchmark entry point: one workload, one seed, one timed run.

    python3 bench/run.py --workload bundled-converging --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
``--workload all`` runs every workload in turn, each in its own process, and
exits non-zero if any of them does.
``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run: it alternates untraced and traced passes,
prints the per-layer metrics and the tracing overhead, and writes every span
to ``bench/out/``.  The last line of standard output is one JSON object.
The process exits 1 when the correctness gate fails and 2 when the library
cannot be found or the metrics it computes are not the ones BENCHMARK.json
names.  Metric names and units are read from BENCHMARK.json.

BLAS is pinned to one thread before numpy loads, so the measurement is of
the program rather than of the scheduler.  The end-to-end times are scaled
to a nominal machine speed by a reference computation timed in the same
run (see ``reference.py``); the raw times are printed too.  ``--blas-default`` is the child
mode the traced run starts with the BLAS thread variables unset, to time
``lu_solve`` under the library's default threading.
"""
from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "--blas-default" not in sys.argv:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 9
MIN_PASSES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import bilevel_newton; print(time.perf_counter() - t)")


def fail(message: str, code: int):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library() -> None:
    if not os.path.isfile(os.path.join(SRC, "bilevel_newton", "__init__.py")):
        fail(f"no library source under {SRC}; run from the root of a checkout", 2)
    sys.path.insert(0, SRC)
    import bilevel_newton
    if os.path.dirname(os.path.dirname(os.path.abspath(bilevel_newton.__file__))) != SRC:
        fail(f"imported bilevel_newton from {bilevel_newton.__file__}, not from {SRC}", 2)


def blas_threads() -> dict[str, int]:
    """Thread count each bundled OpenBLAS reports (numpy's and scipy's copies)."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        for path in glob.glob(os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs", "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    found[pkg.__name__] = int(getattr(lib, sym)())
                    break
    return found


def machine_info() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter (same BLAS settings)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """p90, or the highest percentile (down to p50) with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in range(90, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def timed_passes(workload, seconds: float, minimum: int, ref) -> list:
    passes = []
    t_end = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < t_end:
        passes.append(workload.run_pass())
        ref.keep_up(sum(p.wall for p in passes))
    return passes


def end_to_end(passes, ref, elasticity: float, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics; times are scaled by ref, setup_s already is."""
    walls = [p.wall for p in passes]
    lat = [x for p in passes for x in p.latencies]
    p_tail, tail = tail_percentile(lat)
    first = passes[0]
    scale = ref.scale(elasticity)
    values = {
        "pass_s": statistics.median(walls) * scale,
        "tasks_per_s": statistics.median(p.tasks / p.wall for p in passes) / scale,
        "task_p50_ms": statistics.median(lat) * scale * 1e3,
        "task_p90_ms": tail * ref.scale(elasticity, p_tail) * 1e3,
        "evaluator_calls": first.evaluator_calls,
        "iterations": first.iterations,
        "ok_frac": 1.0 - first.units_failed / first.units,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"passes={len(passes)} tasks={len(lat)} (task latency samples)",
        f"reference: {len(ref.samples)} samples, median {statistics.median(ref.samples) * 1e3:.3f} ms, "
        f"elasticity {elasticity}, speed scale {scale:.4f}; raw pass_s "
        f"{statistics.median(walls):.6g} s, raw task_p50_ms {statistics.median(lat) * 1e3:.6g} ms",
        f"task_p90_ms is p{p_tail} over n={len(lat)} tasks (raw {tail * 1e3:.6g} ms)",
        f"fail_frac = {first.units_failed}/{first.units} (runs not Solved + diagnostic calls failed, per pass)",
    ]
    return values, notes


def consistency_gate(passes) -> list[str]:
    """Every pass of one run must repeat the same counts and output digest."""
    ref = passes[0]
    return [f"pass {k}: counts or outputs differ from the first pass "
            f"({p.evaluator_calls}/{p.iterations}/{p.csv_sha[:12]} vs "
            f"{ref.evaluator_calls}/{ref.iterations}/{ref.csv_sha[:12]})"
            for k, p in enumerate(passes)
            if (p.evaluator_calls, p.iterations, p.csv_sha) != (ref.evaluator_calls, ref.iterations, ref.csv_sha)]


def blas_default_lu_us(workload: str, seed: int) -> float:
    """Mean lu_solve time over one traced pass in a child with default BLAS threading."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                          "--blas-default"], env=env, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["lu_us"])


def main(argv=None) -> int:
    import workloads
    from probe import Probe
    from reference import Reference
    import layers

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    spec = load_spec()
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-default", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], timeout=600).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        probe = Probe()
        workload = workloads.WORKLOADS[args.workload](probe, args.seed, scratch)

        if args.blas_default:
            workload.prepare(workload.build())
            with probe.tracing():
                workload.run_pass()
            lu = layers.durations_us(probe, "linalg.lu_solve")
            print(json.dumps({"lu_us": statistics.mean(lu) if lu else 0.0, "calls": len(lu),
                              "blas_threads": blas_threads()}))
            return 0

        # name -> unit of the metrics this run prints, in BENCHMARK.json's order
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        info = machine_info()
        print(f"machine: {json.dumps(info, sort_keys=True)}")
        setup_ref, imports, builds = Reference(), [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            state = None  # drop the previous build, so that two are never live at once
            t0 = time.perf_counter()
            state = workload.build()
            builds.append(time.perf_counter() - t0)
            setup_ref.keep_up(sum(imports) + sum(builds))
        setup_raw = statistics.median(i + b for i, b in zip(imports, builds))
        workload.prepare(state)

        warm = workload.run_pass()
        if args.trace == 0:
            pass_ref = Reference()
            passes = timed_passes(workload, args.seconds, MIN_PASSES, pass_ref)
        else:
            # untraced and traced passes alternate, so drift in machine speed
            # falls on both sides of the tracing overhead alike
            untraced, traced = [], []
            t_end = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < t_end:
                untraced.append(workload.run_pass())
                with probe.tracing():
                    traced.append(workload.run_pass())
            untraced_pass_s = statistics.median(p.wall for p in untraced)
            lu_default = blas_default_lu_us(args.workload, args.seed)
            passes = untraced + traced

        everything = [warm] + passes
        gate = list(dict.fromkeys([g for p in everything for g in p.gate] + consistency_gate(everything)))
        print(f"workload: {args.workload} seed={args.seed} setup: import {statistics.median(imports):.4f}s "
              f"+ build {statistics.median(builds):.4f}s (medians of {SETUP_REPEATS}, raw), "
              f"speed scale {setup_ref.scale():.4f}")
        for line in warm.summary:
            print(f"  {line}")
        print(f"  output sha256: {warm.csv_sha}")
        if args.trace == 0:
            metrics, notes = end_to_end(passes, pass_ref, workload.speed_elasticity, setup_raw * setup_ref.scale())
        else:
            metrics = layers.per_layer(probe, traced, untraced_pass_s, lu_default)
            notes = [f"traced passes={len(traced)} spans={probe.span_count}"]
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.csv.gz")
            probe.write(spans_path)
            notes.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        if set(metrics) != set(units):
            fail(f"computed metrics differ from BENCHMARK.json's: {sorted(set(metrics) ^ set(units))}", 2)
        for note in notes:
            print(f"  {note}")
        for name, unit in units.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
        for g in gate[:20]:
            print(f"GATE FAILED: {g}")
        result = {
            "correct": not gate,
            "attempted": sum(p.tasks for p in passes),
            "failed": sum(p.tasks_failed for p in passes),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0 if not gate else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    import_library()
    sys.exit(main())
