"""Repeatability of the benchmark: two sets of runs of one code.

    python3 benchmark/repeat.py

For every workload of BENCHMARK.json it makes RUNS runs per set, one process
per run, one run at a time.  Set 1 runs seeds 101 .. 100+RUNS and set 2 seeds
201 .. 200+RUNS, interleaved run by run (set 1 seed 101, set 2 seed 201, set 1
seed 102, ...), so that a machine that drifts in speed drifts under both sets
alike.  For each set, workload and end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
and whether the spread is within the metric's bound.  It then says whether
the two medians agree within the bound, |median2 / median1 - 1| <= bound in
either direction, and whether every run failed the same share of its
operations.  The spread of setup_s is printed but not held to its bound:
set-up holds one-shot work (imports, one warm-up operation), and its bound
guards the median.  The raw results go to .bench_out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEEDS = {1: 101, 2: 201}          # set -> first seed


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for w in (wl["name"] for wl in spec["workloads"]):
        for i in range(RUNS):
            for k, first in SEEDS.items():
                t0 = time.perf_counter()
                r = one_run(w, first + i, spec["run_seconds"])
                results.setdefault(w, {}).setdefault(k, []).append(r)
                print(f"set {k} {w} seed {first + i}: {time.perf_counter() - t0:.1f} s "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                      flush=True)

    ok = True
    for w, sets in results.items():
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            medians = []
            for k, runs in sorted(sets.items()):
                q1, q2, q3 = statistics.quantiles(
                    [r["metrics"][metric]["value"] for r in runs], n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                flag = "" if metric == "setup_s" or spread <= bound else "  SPREAD > BOUND"
                ok &= not flag
                print(f"  set {k} {metric:18s} median {q2:.6g}  q1 {q1:.6g}  "
                      f"q3 {q3:.6g}  spread {spread:.3f} (bound {bound}){flag}")
            ratio = medians[1] / medians[0]
            agree = abs(ratio - 1.0) <= bound
            ok &= agree
            print(f"  {metric:24s} second/first median {ratio:.3f}: "
                  f"{'within' if agree else 'OUTSIDE'} bound {bound}")
        shares = sorted({r["failed"] / r["attempted"] for runs in sets.values() for r in runs})
        ok &= len(shares) == 1 and all(r["correct"] for runs in sets.values() for r in runs)
        print(f"  failed share per run: {shares}{'' if len(shares) == 1 else '  DIFFERS'}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    dest = out / f"repeat-{int(time.time())}.json"
    dest.write_text(json.dumps(results, indent=1))
    print(f"\nraw results in {dest.relative_to(ROOT)}; {'all within bounds' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
