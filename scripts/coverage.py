#!/usr/bin/env python3
"""Line coverage of src/shape_transport by route, from the standard library.

    python scripts/coverage.py

Records every package line that runs (sys.settrace; a line is executable
when code.co_lines() lists it) in two phases.  Each phase runs fresh
interpreters that import a generated sitecustomize.py from PYTHONPATH, and
that file hands PYTHONPATH on to their child processes, so the commands a
test or a workload starts are traced too:

- routes, what users run: the three benchmark workloads' --smoke runs, and
  each README command on generated leaves (ingest, geodesic, transplant and
  compare in zr and zr_invariant, geodesic and transplant in kendall, the
  three demos);
- tests: Tier-1, with the hypothesis seed fixed so that the set of lines
  does not change from run to run.

Prints each function's unreached lines (no phase runs them) and test-only
lines (only the tests run them), then the totals.  Exits 1 when a phase
fails or a line is unreached outside ALLOWED, else 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "shape_transport"

# Unreached lines the gate forgives: (file, function, the stripped source
# line).  Each entry needs a comment saying why no route or test runs it.
ALLOWED: set[tuple[str, str, str]] = set()

SITECUSTOMIZE = '''\
"""Written by scripts/coverage.py: records the lines of {pkg} that this
interpreter runs and writes them under {out} at exit."""
import atexit, json, os, subprocess, sys, threading, time

_PKG, _OUT, _HERE = {pkg!r}, {out!r}, {here!r}
_ours, _lines = {{}}, {{}}


def _local(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.realpath(name).startswith(_PKG)
        if ours:
            _lines[name] = set()
    return _local if ours else None


def _dump():
    sys.settrace(None)
    got = {{}}
    for name, lines in _lines.items():
        got.setdefault(os.path.realpath(name), set()).update(lines)
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{time.time_ns()}}.json")
    with open(path, "w") as f:
        json.dump({{k: sorted(v) for k, v in got.items()}}, f)


_popen_init = subprocess.Popen.__init__


def _follow(self, *args, env=None, **kwargs):
    """A child given its own environment keeps this directory on PYTHONPATH."""
    if env is not None and _HERE not in env.get("PYTHONPATH", "").split(os.pathsep):
        path = env.get("PYTHONPATH")
        env = dict(env, PYTHONPATH=_HERE + (os.pathsep + path if path else ""))
    _popen_init(self, *args, env=env, **kwargs)


subprocess.Popen.__init__ = _follow
atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def executable_lines() -> dict[str, dict[int, str]]:
    """Per package file, each executable line and the function it belongs to:
    the lines code.co_lines() lists for every code object of the module, a
    nested function's lines (its def line too) under its own qualname."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        owner = {}

        def walk(code: types.CodeType, name: str) -> None:
            for _, _, line in code.co_lines():
                if line:  # None: no line; 0: the module's own start
                    owner[line] = name
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    walk(const, const.co_qualname)

        walk(compile(path.read_text(), str(path), "exec"), "<module>")
        out[str(path)] = owner
    return out


def _leaf(path: Path, scale: float, lobe: float, n: int = 240) -> None:
    """A leaf-like outline: an ellipse with a three-lobed radius, as CSV."""
    rows = []
    for i in range(n):
        phi = 2.0 * math.pi * i / n
        r = 1.0 + 0.25 * math.cos(phi) + lobe * math.cos(3.0 * phi)
        rows.append(f"{scale * r * math.cos(phi)!r},{r * math.sin(phi)!r}")
    path.write_text("x,y\n" + "\n".join(rows) + "\n")


def route_commands(work: Path) -> list[list[str]]:
    """The README's commands on leaves written into work: ingest, geodesic,
    transplant and compare in both ZR spaces, geodesic and transplant in
    kendall, and the demos.  Paths are relative to work."""
    for stem, lobe in (("leaf_a", 0.10), ("leaf_b", 0.15), ("leaf_c", 0.05)):
        _leaf(work / f"{stem}.csv", 1.6, lobe)
    for series, scale in (("series_a", 1.6), ("series_b", 1.4)):
        (work / series).mkdir()
        for i, lobe in enumerate((0.10, 0.12, 0.14), start=1):
            _leaf(work / series / f"t{i}.csv", scale, lobe)
    runs = []
    for space in ("zr", "zr_invariant"):
        top = ["--space", space, "--out"]
        runs += [top + [space, "ingest", "leaf_a.csv", "leaf_b.csv", "leaf_c.csv"],
                 top + [space, "geodesic", f"{space}/leaf_a.shape.json",
                        f"{space}/leaf_b.shape.json"],
                 top + [space, "transplant", f"{space}/geodesic.json",
                        f"{space}/leaf_c.shape.json"]]
        runs += [top + [f"{space}/{s}", "ingest"] + [f"{s}/t{i}.csv" for i in (1, 2, 3)]
                 for s in ("series_a", "series_b")]
        runs.append(top + [space, "compare", f"{space}/series_a", f"{space}/series_b"])
    top = ["--space", "kendall", "--out", "kendall"]
    runs += [top + ["geodesic", "leaf_a.csv", "leaf_b.csv"],
             top + ["transplant", "kendall/geodesic.json", "leaf_c.csv"]]
    runs += [["--out", "demo", "demo", which]
             for which in ("table1", "hexagon_zr", "hexagon_kendall")]
    return runs


def _run(argv: list[str], cwd: Path, env: dict, log: Path) -> bool:
    """Run argv; on a nonzero exit print it with the tail of its output."""
    with open(log, "w") as f:
        code = subprocess.run(argv, cwd=cwd, env=env, stdout=f, stderr=subprocess.STDOUT,
                              timeout=900).returncode
    if code:
        tail = log.read_text().splitlines()[-15:]
        print(f"coverage: exit {code}: {' '.join(argv)}\n  " + "\n  ".join(tail))
    return code == 0


def trace_phase(name: str, runs: list[tuple[list[str], Path]], tmp: Path):
    """(lines reached per file, every run exited 0) for runs of (argv, cwd)
    under a tracer written for this phase."""
    here, out = tmp / f"{name}-site", tmp / f"{name}-lines"
    here.mkdir()
    out.mkdir()
    (here / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(pkg=str(PKG) + os.sep, out=str(out), here=str(here)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here), str(SRC)]))
    t0, ok = time.perf_counter(), True
    for i, (argv, cwd) in enumerate(runs):
        ok &= _run(argv, cwd, env, tmp / f"{name}-{i}.log")
    reached = defaultdict(set)
    for dump in out.glob("*.json"):
        for path, lines in json.loads(dump.read_text()).items():
            reached[path].update(lines)
    print(f"coverage: {name}: {len(runs)} runs in {time.perf_counter() - t0:.0f} s")
    return reached, ok


def _spans(lines: list[int]) -> str:
    """Sorted line numbers as ranges: 3-5,9."""
    parts, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ",".join(parts)


def report(executable, routes, tests) -> int:
    """Print each function's unreached and test-only lines and the totals;
    returns the number of unreached lines outside ALLOWED."""
    counts = defaultdict(int)
    for path, owner in executable.items():
        file = Path(path).name
        text = Path(path).read_text().splitlines()
        by_function = defaultdict(lambda: defaultdict(list))
        for line, function in sorted(owner.items()):
            if line in routes.get(path, ()):
                kind = "route"
            elif line in tests.get(path, ()):
                kind = "test-only"
            elif (file, function, text[line - 1].strip()) in ALLOWED:
                kind = "allowed"
            else:
                kind = "unreached"
            counts[kind] += 1
            by_function[function][kind].append(line)
        for function, kinds in by_function.items():
            for kind in ("unreached", "allowed", "test-only"):
                if kinds[kind]:
                    print(f"{file}:{function}: {kind} {_spans(kinds[kind])}")
    total = sum(counts.values())
    print(f"coverage: {total} executable lines; {counts['unreached']} unreached, "
          f"{counts['allowed']} allowed, {counts['test-only']} test-only, "
          f"{counts['route']} on a route")
    return counts["unreached"]


def main() -> int:
    py = sys.executable
    with tempfile.TemporaryDirectory(prefix="shape-transport-coverage-") as name:
        tmp = Path(name)
        work = tmp / "work"
        work.mkdir()
        runs = [([py, "benchmark/run.py", "--workload", w, "--seed", "1", "--seconds", "3",
                  "--smoke"], ROOT) for w in ("zr_growth", "transport_fan", "cli_figures")]
        runs += [([py, "-m", "shape_transport.cli"] + argv, work)
                 for argv in route_commands(work)]
        routes, routes_ok = trace_phase("routes", runs, tmp)
        tests, tests_ok = trace_phase("tests", [(
            [py, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "--hypothesis-seed=0"], ROOT)], tmp)
    unreached = report(executable_lines(), routes, tests)
    if not (routes_ok and tests_ok):
        print("coverage: a run failed, so its lines may be missing")
        return 1
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
