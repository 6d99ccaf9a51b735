"""Workload cli_figures: shape-transport commands in fresh processes.

Each operation is one ``python -m shape_transport.cli`` command, the way
users run it: ingest two seeded leaf-like polygons with thousands of
vertices, connect them, transplant that geodesic onto the second leaf, then
the three built-in demos.  The time goes to interpreter start and package
import, and to post-processing (self-intersection tests, diameters, SVG, JSON
and CSV writing).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import shape_transport

import oracle

N = 100
VERTICES = (3000, 4000)           # leaf A, leaf B
LOBES = 5                          # seeded low-order outline harmonics
LOBE_AMPLITUDE = 0.04
SERRATION_TEETH = (16, 24)        # seeded tooth count range
SERRATION_AMPLITUDE = 0.006
ELONGATION = 1.6
# One round per ROUND_BUDGET_S of --seconds; a round takes about 15 s on the
# reference machine, and one round (one leaf pair) runs at 25 s.  Its
# commands hold steady, so the run time goes to the other workloads.
ROUND_BUDGET_S = 25.0
GEODESIC_STRIP = 7                 # contours in geodesic.svg and each demo strip
TRANSPLANT_FRACTIONS = 5

CLOSURE_TOL = 1e-6                 # zr_to_contour refuses residuals above this
DRIFT_TOL = 1e-4                   # transport norm drift limit
MU_TOL = 1e-10                     # quad runs at epsabs = epsrel = 1e-12
# The leaves sample smooth outlines (teeth below harmonic 25) with thousands
# of vertices: truncating the turning angle at N = 100 and the polygon's
# staircase each move the curve by about 1e-6 of the perimeter.  A single
# coefficient off by 3e-4 moves it by 1e-5.
RECONSTRUCTION_TOL = 1e-5
TABLE_RHO = (0.17, 0.12, 0.44, 0.083)

# The user-visible peak is that of the command processes, not of the runner.
PEAK_RSS_OF = resource.RUSAGE_CHILDREN
# The package the runner imported, handed to every command process.
_SRC = str(Path(shape_transport.__file__).resolve().parent.parent)


def leaf(rng, n_vertices: int) -> np.ndarray:
    """Star-shaped, hence simple, leaf outline: an ovate blade with seeded
    lobes and serrated margin, stretched along x, counterclockwise."""
    phi = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    r = 1.0 + 0.25 * np.cos(phi)
    for k in range(2, 2 + LOBES):
        r += rng.uniform(0.0, LOBE_AMPLITUDE) * np.cos(k * phi + rng.uniform(0, 2 * np.pi))
    teeth = int(rng.integers(*SERRATION_TEETH, endpoint=True))
    r += SERRATION_AMPLITUDE * np.cos(teeth * phi)
    return np.stack([ELONGATION * r * np.cos(phi), r * np.sin(phi)], axis=1)


@dataclass
class Round:
    workdir: Path
    leaves: dict                     # file stem -> vertex array


def commands(rnd: Round) -> list[list[str]]:
    d = rnd.workdir
    a, b = (str(d / f"{stem}.csv") for stem in rnd.leaves)
    sa, sb = (str(d / f"{stem}.shape.json") for stem in rnd.leaves)
    return [
        ["ingest", a, b],
        ["geodesic", sa, sb],
        ["transplant", str(d / "geodesic.json"), sb],
        ["demo", "hexagon_zr"],
        ["demo", "hexagon_kendall"],
        ["demo", "table1"],
    ]


def _write_leaf(path: Path, pts: np.ndarray) -> None:
    path.write_text("x,y\n" + "\n".join(f"{x!r},{y!r}" for x, y in pts.tolist()) + "\n")


def make_round(rng, workdir: Path) -> Round:
    workdir.mkdir(parents=True, exist_ok=True)
    leaves = {}
    for stem, n in zip(("leaf_a", "leaf_b"), VERTICES):
        leaves[stem] = leaf(rng, n)
        _write_leaf(workdir / f"{stem}.csv", leaves[stem])
    return Round(workdir, leaves)


def generate(seed: int, rounds: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    return [make_round(rng, workdir / f"round{r}") for r in range(rounds)]


def warmup_input(workdir: Path) -> list:
    return [make_round(np.random.default_rng([0, 99]), workdir / "warmup")]


def ops(rounds: list) -> list:
    return [(rnd, argv) for rnd in rounds for argv in commands(rnd)]


def run_op(rounds: list, op: tuple, in_process: bool) -> int:
    """One command; returns its exit code.  By default it runs in a fresh
    interpreter, the way users run it.  With in_process it goes through
    shape_transport.cli.main in this process, output discarded, so that the
    traced run's wrappers reach it."""
    rnd, argv = op
    argv = ["--out", str(rnd.workdir)] + argv
    if in_process:
        from shape_transport import cli
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    proc = subprocess.run([sys.executable, "-m", "shape_transport.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=170)
    return proc.returncode


# ---------------------------------------------------------------------------
# checks

_SERIES = oracle.Series(N)


def _shape_coeffs(d: dict) -> np.ndarray:
    xy = np.asarray(d["xy"], dtype=float)
    c = np.empty(2 * len(xy) + 1)
    c[0] = d["x0"]
    c[1::2] = xy[:, 0]
    c[2::2] = xy[:, 1]
    return c


def _svg_polygons(path: Path) -> int:
    root = ET.parse(path).getroot()
    return sum(1 for el in root.iter() if el.tag.endswith("polygon"))


# emit_contour_sequence writes repr() of NumPy scalars, which NumPy 2 spells
# "np.float64(0.5)"; the file is then no CSV of numbers.  The check reports
# this and reads the numbers out of the wrappers, so the remaining checks on
# the contours still run.
CSV_FAULT = "transplant.csv holds np.float64(...) text, not numbers"
KNOWN_FAULTS = frozenset({CSV_FAULT})
_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def _csv_contours(path: Path) -> tuple[dict, bool]:
    """Contours by index, and whether every number parsed as a plain float."""
    out, plain = {}, True
    with open(path, newline="") as f:
        rows = csv.reader(f)
        if next(rows) != ["index", "x", "y"]:
            raise ValueError("bad transplant.csv header")
        for i, *xy in rows:
            vals = []
            for tok in xy:
                try:
                    vals.append(float(tok))
                except ValueError:
                    wrapped = _NP_FLOAT.match(tok)
                    if wrapped is None:
                        raise
                    plain = False
                    vals.append(float(wrapped.group(1)))
            out.setdefault(int(i), []).append(vals)
    return {i: np.asarray(v) for i, v in out.items()}, plain


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check(rounds: list, ops: list, results: list) -> list[list[str]]:
    """Failed check names per operation; nothing is checked where an
    operation raised (its result is None)."""
    return [check_op(rnd, argv, rc) if rc is not None else []
            for (rnd, argv), rc in zip(ops, results)]


def check_op(rnd: Round, argv: list[str], rc: int) -> list[str]:
    """Names of the checks this command's outputs fail."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return _CHECKS[argv[0] if argv[0] != "demo" else argv[1]](rnd)
    except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_ingest(rnd: Round) -> list[str]:
    bad = []
    manifest = _load(rnd.workdir / "manifest.json")
    if manifest["errors"] or len(manifest["shapes"]) != len(rnd.leaves):
        bad.append("manifest")
    for stem, pts in rnd.leaves.items():
        d = _load(rnd.workdir / f"{stem}.shape.json")
        c = _shape_coeffs(d)
        psi, lin = _SERIES.closure(c)
        if psi[0] > CLOSURE_TOL or lin[0] > CLOSURE_TOL:
            bad.append(f"{stem} closure")
        mine = oracle.reconstruct(_SERIES, c, d["length"], d["base_angle"])
        ref = oracle.resample_by_arclength(pts, _SERIES.s / (2.0 * np.pi))
        perimeter = float(np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T).sum())
        if oracle.similarity_rms(ref, mine) > RECONSTRUCTION_TOL * perimeter:
            bad.append(f"{stem} reconstruction")
    return bad


def _check_geodesic(rnd: Round) -> list[str]:
    bad = []
    g = _load(rnd.workdir / "geodesic.json")
    rows = np.asarray(g["samples"], dtype=float)[:, 1:]
    for row, stem in ((rows[0], "leaf_a"), (rows[-1], "leaf_b")):
        want = _shape_coeffs(_load(rnd.workdir / f"{stem}.shape.json"))
        if np.abs(row - want).max() > 1e-12:
            bad.append(f"endpoint {stem}")
    psi, lin = _SERIES.closure(rows)
    if psi.max() > CLOSURE_TOL or lin.max() > CLOSURE_TOL:
        bad.append("closure")
    if _svg_polygons(rnd.workdir / "geodesic.svg") != GEODESIC_STRIP:
        bad.append("geodesic.svg polygons")
    return bad


def _check_transplant(rnd: Round) -> list[str]:
    bad = []
    t = _load(rnd.workdir / "transplant.json")
    if not 0.0 <= t["transport_norm_drift"] <= DRIFT_TOL:
        bad.append("drift")
    contours, plain = _csv_contours(rnd.workdir / "transplant.csv")
    if not plain:
        bad.append(CSV_FAULT)
    if sorted(contours) != list(range(TRANSPLANT_FRACTIONS)):
        bad.append("transplant.csv contours")
    mine = [oracle.segments_cross(contours[i]) for i in sorted(contours)]
    if mine != list(t["self_intersecting"]):
        bad.append("self_intersecting flags")
    psi, lin = _SERIES.closure(np.array([_shape_coeffs(s) for s in t["shapes"]]))
    if psi.max() > CLOSURE_TOL or lin.max() > CLOSURE_TOL:
        bad.append("closure")
    if _svg_polygons(rnd.workdir / "transplant.svg") != TRANSPLANT_FRACTIONS:
        bad.append("transplant.svg polygons")
    return bad


def _check_demo_strips(rnd: Round, prefix: str) -> list[str]:
    return [f"{prefix}_{p}.svg polygons" for p in "abc"
            if _svg_polygons(rnd.workdir / f"{prefix}_{p}.svg") != GEODESIC_STRIP]


def _check_hexagon_zr(rnd: Round) -> list[str]:
    bad = _check_demo_strips(rnd, "demo_zr")
    panels = _load(rnd.workdir / "demo_zr.json")["panels"]
    a, c = panels["demo_zr_a"]["distance"], panels["demo_zr_c"]["distance"]
    if abs(c - a) > 1e-12 * a:
        bad.append("panel c distance")
    return bad


def _check_hexagon_kendall(rnd: Round) -> list[str]:
    bad = _check_demo_strips(rnd, "demo_kendall")
    panels = _load(rnd.workdir / "demo_kendall.json")["panels"]
    for name, panel in panels.items():
        if len(panel["landmarks"]) != GEODESIC_STRIP:
            bad.append(f"{name} landmarks")
    return bad


def _check_table1(rnd: Round) -> list[str]:
    t = _load(rnd.workdir / "table1.json")
    bad = []
    if tuple(t["rho"]) != TABLE_RHO:
        bad.append("rho row")
    for variant in ("arccos", "sqrt_arccos"):
        got = t[f"mu_{variant}"]
        want = [oracle.mu_closed_form(r, t["n"], variant) for r in t["rho"]]
        if len(got) != len(want) or np.abs(np.subtract(got, want)).max() > MU_TOL:
            bad.append(f"mu_{variant}")
    return bad


_CHECKS = {
    "ingest": _check_ingest,
    "geodesic": _check_geodesic,
    "transplant": _check_transplant,
    "hexagon_zr": _check_hexagon_zr,
    "hexagon_kendall": _check_hexagon_kendall,
    "table1": _check_table1,
}
