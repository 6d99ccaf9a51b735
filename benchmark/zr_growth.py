"""Workload zr_growth: the paper's growth comparison in the zr space.

Each operation fits growth geodesics to two 3-shape series and compares them
with compare_growth.  Every round holds one pair that is parallel by
construction (series B shoots the parallel transport of series A's velocity)
and one independent pair (series B shoots a random velocity).  Base shapes
are a fixed metric distance apart and growth lengths are fixed, so the work of
an operation varies with the seed only through the solver's own behaviour.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

import numpy as np

import shape_transport as st
from shape_transport.zr_space import ZRShape, ZRTangent

import oracle

N = 100
SCALE = 0.35          # shape amplitude before projection
DECAY_POWER = 1.5     # coefficient n falls off as n ** -DECAY_POWER
GROWTH_T = 0.6        # growth length of every series (unit-speed velocity)
BASE_DIST = 0.8       # metric length of the geodesic between the two bases
SHOOT_STEPS = 24      # RK4 steps when shooting inputs (h = 0.033 or less)
SETUP_TRANSPORT_STEPS = 64
TIMES = (0.0, 0.4, 1.0)
PAIRS_PER_ROUND = 2   # one parallel, one independent
# One round per ROUND_BUDGET_S of --seconds.  A round takes 5 to 7 s on the
# reference machine; the shorter budget buys 14 operations at the default
# 25 s, which average out the solver's seed-to-seed cost and span enough of
# the shared machine's slow and fast spells.
ROUND_BUDGET_S = 3.6

# Tolerances.  A 33-sample boundary-value path with a cubic spline carries
# O(h^2) error, h = 1/32: about 1e-3 relative in velocity and length.
CLOSURE_TOL = 1e-6    # zr_to_contour refuses residuals above this
PATH_TOL = 1e-3
RHO_TOL = 1e-4        # 1 - rho for transported parallel growth
MU_TOL = 1e-10        # quad runs at epsabs = epsrel = 1e-12

KNOWN_FAULTS = frozenset()
PEAK_RSS_OF = resource.RUSAGE_SELF

_DECAY = np.concatenate([[1.0], np.repeat(np.arange(1, N + 1), 2)]) ** DECAY_POWER


@dataclass
class Pair:
    parallel: bool
    series_a: list
    series_b: list
    v_a: np.ndarray
    v_b: np.ndarray


def random_shape(rng) -> ZRShape:
    raw = rng.normal(size=2 * N + 1) * SCALE / _DECAY
    return st.project_to_sigma(ZRShape(N, raw))


def random_unit_tangent(base: ZRShape, rng) -> np.ndarray:
    t = st.project_tangent(base, rng.normal(size=2 * N + 1) / _DECAY).coeffs
    return t / oracle.metric_norm(t)


def shoot(base: ZRShape, v: np.ndarray, length: float):
    return st.exp_map(base, ZRTangent(N, v, base=base), length, steps=SHOOT_STEPS)


def _series(base: ZRShape, v: np.ndarray) -> list:
    path = shoot(base, v, GROWTH_T)
    return [base.with_coeffs(path.point_at(f * GROWTH_T)) for f in TIMES]


def make_pair(rng, parallel: bool) -> Pair:
    a0 = random_shape(rng)
    connector = shoot(a0, random_unit_tangent(a0, rng), BASE_DIST)
    b0 = a0.with_coeffs(connector.points[-1])
    v_a = random_unit_tangent(a0, rng)
    if parallel:
        v_b = st.transport_sigma(connector, v_a,
                                 steps_per_unit=SETUP_TRANSPORT_STEPS).w_end
        v_b = v_b / oracle.metric_norm(v_b)
    else:
        v_b = random_unit_tangent(b0, rng)
    return Pair(parallel, _series(a0, v_a), _series(b0, v_b), v_a, v_b)


def generate(seed: int, rounds: int, workdir) -> list:
    """The pairs of every round; workdir is unused, inputs stay in memory."""
    rng = np.random.default_rng([seed, 1])
    return [make_pair(rng, parallel=(i % PAIRS_PER_ROUND == 0))
            for i in range(rounds * PAIRS_PER_ROUND)]


def warmup_input(workdir) -> list:
    """One pair from a fixed seed, so warm-up work does not vary by seed."""
    return [make_pair(np.random.default_rng([0, 99]), parallel=True)]


def ops(pairs: list) -> list:
    return list(pairs)


def run_op(pairs: list, pair: Pair, in_process: bool):
    """One comparison; operations always run in this process."""
    fit_a, _ = st.fit_geodesic_to_series(pair.series_a, TIMES)
    fit_b, _ = st.fit_geodesic_to_series(pair.series_b, TIMES)
    report, outcome = st.compare_growth(fit_a, fit_b)
    return {"fit_a": fit_a, "fit_b": fit_b, "report": report,
            "transported": outcome.transported, "connecting": outcome.connecting}


_SERIES = oracle.Series(N)


def check(pairs: list, ops: list, results: list) -> list[list[str]]:
    """Failed check names per operation; nothing is checked where an
    operation raised (its result is None)."""
    return [check_op(p, r) if r is not None else [] for p, r in zip(ops, results)]


def check_op(pair: Pair, out) -> list[str]:
    """Names of the checks this operation's outputs fail."""
    bad = []
    fits = ((out["fit_a"], pair.series_a, pair.v_a),
            (out["fit_b"], pair.series_b, pair.v_b))
    for label, path in (("fit_a", out["fit_a"]), ("fit_b", out["fit_b"]),
                        ("connecting", out["connecting"])):
        psi, lin = _SERIES.closure(path.points)
        if psi.max() > CLOSURE_TOL or lin.max() > CLOSURE_TOL:
            bad.append(f"{label} closure")
    for label, (path, series, v) in zip(("fit_a", "fit_b"), fits):
        if (np.abs(path.points[0] - series[0].coeffs).max() > 1e-12
                or np.abs(path.points[-1] - series[-1].coeffs).max() > 1e-12):
            bad.append(f"{label} endpoints")
        chord = oracle.metric_norm(series[-1].coeffs - series[0].coeffs)
        if path.T < chord * (1.0 - 1e-12):
            bad.append(f"{label} shorter than chord")
        # every series is shot with exp_map, so the fit must recover it
        if oracle.metric_norm(path.v0 - v) > PATH_TOL:
            bad.append(f"{label} v0")
        if abs(path.T - GROWTH_T) > PATH_TOL * GROWTH_T:
            bad.append(f"{label} length")
    con = out["connecting"]
    chord = oracle.metric_norm(pair.series_b[0].coeffs - pair.series_a[0].coeffs)
    if con.T < chord * (1.0 - 1e-12):
        bad.append("connecting shorter than chord")
    rep = out["report"]
    moved, vb = np.ravel(out["transported"]), np.ravel(out["fit_b"].v0)
    rho = abs(np.dot(moved, vb)) / (np.linalg.norm(moved) * np.linalg.norm(vb))
    if abs(rep["rho"] - min(rho, 1.0)) > 1e-12:
        bad.append("rho")
    if pair.parallel and 1.0 - rep["rho"] > RHO_TOL:
        bad.append("parallel rho")
    if abs(rep["mu"] - oracle.mu_closed_form(rep["rho"], rep["n"],
                                             rep["mu_variant"])) > MU_TOL:
        bad.append("mu")
    return bad

