"""Fixed-work benchmark of shape_transport.

    python3 benchmark/run.py --workload zr_growth --seed 1 --seconds 25 --trace 0

Each run attempts a fixed list of operations, never a fixed duration: whole
rounds of the workload's operations, one round per ROUND_BUDGET_S seconds of
--seconds (a constant of each workload).  Load is a closed loop
from one client in one process.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS and OpenMP pools to one thread, for this process and its children,
# before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Each workload is a module with one interface: ROUND_BUDGET_S, KNOWN_FAULTS,
# PEAK_RSS_OF, generate(seed, rounds, workdir), warmup_input(workdir),
# ops(state), run_op(state, op, in_process) and check(state, ops, results).
WORKLOADS = ("zr_growth", "transport_fan", "cli_figures")
# Set-up generates the inputs this many times and reports the median
# generation time, which a single generation on a shared machine does not
# hold steady.  Import and warm-up happen once.
SETUP_REPEATS = 3


def _import_program():
    """Import shape_transport from this checkout's src, nothing else."""
    if not (SRC / "shape_transport" / "__init__.py").is_file():
        sys.exit(f"benchmark: no shape_transport package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shape_transport
    if Path(shape_transport.__file__).resolve().parent.parent != SRC:
        sys.exit(f"benchmark: imported shape_transport from {shape_transport.__file__}")
    return shape_transport


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its waited children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def timed_pass(wl, state, ops, in_process: bool, tracer=None) -> dict:
    """Run every operation once, closed loop; then check every output."""
    results, errors = [], []
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            results.append(wl.run_op(state, op, in_process))
            errors.append(None)
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            results.append(None)
            errors.append(f"raised {type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    checked = wl.check(state, ops, results)
    failures = [[e] if e else bad for e, bad in zip(errors, checked)]
    return {"wall": wall, "cpu": cpu, "completed": errors.count(None),
            "attempted": len(ops), "failures": failures}


def fresh_import_s(module: str, repeats: int = 3) -> float:
    """Median wall time of importing module in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run size: one round per ROUND_BUDGET_S of the workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round only, for a quick check of the checks")
    args = ap.parse_args(argv)

    _import_program()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = importlib.import_module(args.workload)
    import_s = time.perf_counter() - T_START

    try:
        return _run(args, wl, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, workdir: Path, import_s: float) -> int:
    rounds = 1 if args.smoke else max(1, round(args.seconds / wl.ROUND_BUDGET_S))
    # the traced run calls the CLI in process, where its wrappers reach
    in_process = bool(args.trace)
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.generate(args.seed, rounds, workdir)
        gen_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm = wl.warmup_input(workdir)
    warm_pass = timed_pass(wl, warm, wl.ops(warm)[:1], in_process)
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(gen_times) + warmup_s
    if any(warm_pass["failures"][0]):
        print(f"benchmark: warm-up failed: {warm_pass['failures'][0]}", file=sys.stderr)

    ops = wl.ops(state)
    passes = [timed_pass(wl, state, ops, in_process)]
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(timed_pass(wl, state, ops, in_process, tracer))
        finally:
            tracer.uninstall()

    failures = [f for p in passes for f in p["failures"]]
    failed = sum(1 for f in failures if f)
    unexpected = sorted({name for f in failures for name in f} - wl.KNOWN_FAULTS)
    for name in sorted({name for f in failures for name in f}):
        n = sum(name in f for f in failures)
        print(f"check failed: {name} ({n} operations)", file=sys.stderr)
    base = passes[0]
    if not base["completed"]:
        print("benchmark: every operation raised", file=sys.stderr)
        return 4
    throughput = base["completed"] / base["wall"]

    if args.trace:
        traced = passes[1]
        traced_tp = traced["completed"] / traced["wall"]
        layer = tracer.metrics(fresh_import_s("shape_transport.cli"), rounds)
        overhead = {"traced_ops_s": traced_tp, "untraced_ops_s": throughput,
                    "ratio": traced_tp / throughput}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "overhead": overhead, "counts": tracer.counts, "metrics": layer,
            "spans": tracer.spans}))
        print(f"trace overhead ({args.workload}): traced/untraced throughput = "
              f"{overhead['ratio']:.3f} ({traced_tp:.4f} / {throughput:.4f} ops/s); "
              f"spans in {trace_file.name}")
        from tracing import PER_LAYER
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        peak_kb = resource.getrusage(wl.PEAK_RSS_OF).ru_maxrss
        metrics = {
            "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
            "cpu_s_per_op": {"value": base["cpu"] / base["completed"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
              f"{base['attempted']} operations in {base['wall']:.2f} s; set-up "
              f"{setup_s:.2f} s (import {import_s:.2f}, generation median "
              f"{statistics.median(gen_times):.2f}, warm-up {warmup_s:.2f})")
    print(json.dumps({"correct": not unexpected,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
