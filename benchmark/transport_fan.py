"""Workload transport_fan: many tangent vectors transported along a few paths.

Set-up builds ZR connecting geodesics with geodesic_between and Kendall
geodesics with geodesic_kendall (planar and 3-D landmarks, k from 6 to 50).
Each operation transports one seeded vector along one path.  Every round
carries, on every path, the path's own v0 (scaled by a seeded factor), random
tangent vectors and one linear combination of two of them.  Relaxation
happens only in set-up; the timed phase is transport loops and frame tables.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

import numpy as np

import shape_transport as st
from shape_transport.kendall import PreShape

import oracle
import zr_growth

ZR_PATHS = 2
ZR_DIST = 0.8                     # geodesic distance between ZR endpoints
KENDALL_SHAPES = ((6, 2), (12, 2), (24, 2), (50, 2),
                  (6, 3), (12, 3), (24, 3), (50, 3))  # (k, m)
KENDALL_T = 1.2                   # great-circle length of every Kendall path
RANDOM_VECTORS = 4                # per path and round, besides v0 and the mix
# One round per ROUND_BUDGET_S of --seconds; a round takes about 3 s on the
# reference machine.  Its work barely depends on the seed; 9 rounds at the
# default 25 s span enough of the shared machine's slow and fast spells.
ROUND_BUDGET_S = 2.8

# The transport integrator refuses a norm drift above 1e-4; isometry and
# linearity are held to that limit.  Self-transport along a 33-sample
# boundary-value path carries the path's O(h^2) error, h = 1/32; along a
# closed-form great circle only RK4 error (256 steps per unit) and
# central-difference frame derivatives remain.
DRIFT_TOL = 1e-4
ZR_SELF_TOL = 1e-3
KENDALL_SELF_TOL = 1e-6
TANGENT_TOL = 1e-8
HORIZONTAL_TOL = 1e-10

KNOWN_FAULTS = frozenset()
PEAK_RSS_OF = resource.RUSAGE_SELF


@dataclass
class Path:
    kind: str                     # "zr" or "kendall"
    path: object
    label: str


@dataclass
class Op:
    path_index: int
    vector: np.ndarray
    role: str                     # "v0", "random" or "mix"
    scale: float = 1.0            # for "v0": the vector is scale * v0
    mix: tuple = ()               # for "mix": (alpha, i, beta, j) op indices


@dataclass
class Fan:
    paths: list
    ops: list


def _zr_path(rng) -> Path:
    """geodesic_between two shapes ZR_DIST apart: the second is the end of
    an exp_map shot, so every ZR path has the same length and step count."""
    a = zr_growth.random_shape(rng)
    shot = zr_growth.shoot(a, zr_growth.random_unit_tangent(a, rng), ZR_DIST)
    b = a.with_coeffs(shot.points[-1])
    return Path("zr", st.geodesic_between(a, b), f"zr N={a.N}")


def _kendall_path(rng, k: int, m: int) -> Path:
    x = st.helmertize(rng.normal(size=(k, m)))
    v = st.horizontal_project_k(x, rng.normal(size=x.mat.shape))
    v /= np.linalg.norm(v)
    y = PreShape(m, np.cos(KENDALL_T) * x.mat + np.sin(KENDALL_T) * v)
    return Path("kendall", st.geodesic_kendall(x, y), f"kendall k={k} m={m}")


def _random_vector(p: Path, rng) -> np.ndarray:
    base = p.path.base
    if p.kind == "zr":
        return zr_growth.random_unit_tangent(base, rng)
    w = st.horizontal_project_k(base, rng.normal(size=base.mat.shape)).ravel()
    return w / np.linalg.norm(w)


def generate(seed: int, rounds: int, workdir) -> Fan:
    """Paths and vectors of every round; workdir is unused."""
    rng = np.random.default_rng([seed, 2])
    paths = [_zr_path(rng) for _ in range(ZR_PATHS)]
    paths += [_kendall_path(rng, k, m) for k, m in KENDALL_SHAPES]
    ops = []
    for _ in range(rounds):
        for i, p in enumerate(paths):
            scale = float(rng.uniform(0.5, 2.0))
            ops.append(Op(i, scale * p.path.v0, "v0", scale=scale))
            first = len(ops)
            for _ in range(RANDOM_VECTORS):
                ops.append(Op(i, _random_vector(p, rng), "random"))
            alpha, beta = rng.normal(size=2)
            mix = alpha * ops[first].vector + beta * ops[first + 1].vector
            ops.append(Op(i, mix, "mix", mix=(alpha, first, beta, first + 1)))
    return Fan(paths, ops)


def warmup_input(workdir) -> Fan:
    """One ZR and one Kendall path from a fixed seed; the warm-up operation
    is the ZR path's v0 and the Kendall integrator is run once as well."""
    rng = np.random.default_rng([0, 99])
    paths = [_zr_path(rng), _kendall_path(rng, *KENDALL_SHAPES[0])]
    st.transport_kendall(paths[1].path, paths[1].path.v0)
    return Fan(paths, [Op(0, paths[0].path.v0, "v0")])


def ops(fan: Fan) -> list:
    return list(fan.ops)


def run_op(fan: Fan, op: Op, in_process: bool) -> np.ndarray:
    """One transport; operations always run in this process."""
    p = fan.paths[op.path_index]
    if p.kind == "zr":
        return st.transport_sigma(p.path, op.vector).w_end
    return st.transport_kendall(p.path, op.vector).w_end


def _inner(p: Path, a, b) -> float:
    if p.kind == "zr":
        return oracle.metric_inner(a, b)
    return float(np.dot(a, b))


def _norm(p: Path, a) -> float:
    return float(np.sqrt(_inner(p, a, a)))


_SERIES = oracle.Series(zr_growth.N)


def check(fan: Fan, ops: list, results: list) -> list[list[str]]:
    """Failed check names per operation; a per-path check that fails is
    charged to every operation on that path.  Nothing is checked where an
    operation raised (its result is None)."""
    paths = fan.paths
    bad = [[] for _ in ops]
    for idx, (op, w) in enumerate(zip(ops, results)):
        if w is None:
            continue
        p = paths[op.path_index]
        path = p.path
        if op.role == "v0":
            err = _norm(p, w - op.scale * path.v_end) / op.scale
            if err > (ZR_SELF_TOL if p.kind == "zr" else KENDALL_SELF_TOL):
                bad[idx].append("self-transport")
        if op.role == "mix":
            alpha, i, beta, j = op.mix
            if results[i] is not None and results[j] is not None:
                err = _norm(p, w - alpha * results[i] - beta * results[j])
                if err > DRIFT_TOL * (abs(alpha) + abs(beta)):
                    bad[idx].append("linearity")
        end = path.points[-1]
        if p.kind == "zr":
            if _SERIES.tangency(end, w) > TANGENT_TOL:
                bad[idx].append("tangent")
        else:
            x, wm = end.reshape(-1, path.base.m), w.reshape(-1, path.base.m)
            sym = x.T @ wm
            if (abs(np.sum(x * wm)) > HORIZONTAL_TOL
                    or np.abs(sym - sym.T).max() > HORIZONTAL_TOL):
                bad[idx].append("horizontal")
            if path.base.m == 2:
                want = oracle.planar_transport(
                    path.points[0].reshape(-1, 2), path.v0.reshape(-1, 2),
                    path.T, op.vector.reshape(-1, 2)).ravel()
                if np.linalg.norm(w - want) > KENDALL_SELF_TOL * np.linalg.norm(want):
                    bad[idx].append("planar closed form")
    for i, p in enumerate(paths):
        members = [k for k, op in enumerate(ops)
                   if op.path_index == i and results[k] is not None]
        if not members:
            continue
        gram_in = np.array([[_inner(p, ops[a].vector, ops[b].vector)
                             for b in members] for a in members])
        gram_out = np.array([[_inner(p, results[a], results[b])
                              for b in members] for a in members])
        scale = np.sqrt(np.outer(np.diag(gram_in), np.diag(gram_in)))
        if np.abs(gram_out - gram_in).max() > DRIFT_TOL * scale.max():
            for k in members:
                bad[k].append("isometry")
    return bad
