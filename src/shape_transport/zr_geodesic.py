"""Geodesics on the closed-curve submanifold and its initial-point quotient.

exp_map integrates the geodesic equation with the constraint-consistent
acceleration; geodesic_between relaxes a sampled path by whole-path steps to
a discrete geodesic.  Quotient variants keep velocities orthogonal to the
vertical direction realized in the tangent space.  Relaxed samples approach
the manifold by one Gauss-Newton step per sweep, from the sweep's one
closure step (zr_space._closure_step), and their steps are kept tangent
(horizontal) against the excluded rows and their duals from the same step.
exp_map steps position and velocity by classical RK4; each stage makes one
grid evaluation at one point and projects only cos a and sin a into the raw
excluded rows (_accel), and each step ends in the closure projector
(_project_along), whose accepted closure step gives the rows, duals and
rate duals there.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .paths import (STEPS_PER_UNIT, GeodesicPath, gram_factor, gram_solve, remove_frame,
                    tangent_part)
from .zr_space import (
    ZRShape,
    ZRTangent,
    _PROJ_TOL,
    _checked,
    _closure_grids,
    _closure_step,
    _excluded_rows,
    _metric_weights,
    _project_along,
    _project_grids,
    _project_tangent_raw,
    _vec,
    align_initial_point,
    constraint_frame,
    inner_raw,
    norm_raw,
    shift_initial_point,
)

_RESID_RTOL = 1e-8     # residual stop, relative to the mean segment length
_RESID_ATOL = 1e-13    # its floor, above the rounding of the second difference
_MAX_ITERS = 200

_log = logging.getLogger("shape_transport")


# ---------------------------------------------------------------------------
# geodesic acceleration on the constraint manifold

def _accel(p: np.ndarray, v: np.ndarray, invariant: bool) -> np.ndarray:
    """Acceleration normal to the tangent (invariant: horizontal) space that
    keeps (p, v) on the constraint manifold: -R^T G^-1 r over the raw
    excluded rows R at p, from one grid evaluation along v that projects
    only cos a and sin a.  r pairs v with the rows' rates: 0 for g; for v1
    and v2 the grid means of -sin a * theta_dot^2 and cos a * theta_dot^2,
    the metric pairings by discrete Parseval, as v has no harmonic above
    N < m/2; the vertical pattern's rate paired in coefficient space."""
    cs, theta_dot = _closure_grids(p, v)
    rows, rates = _excluded_rows(p, _project_grids(cs, None, p.shape[-1] // 2),
                                 v if invariant else None, invariant)
    cos_a, sin_a = cs
    sq, wts = theta_dot * theta_dot, _metric_weights(p.shape[-1] // 2)
    pairs = [0.0, -float(sin_a @ sq) / len(sq), float(cos_a @ sq) / len(sq)]
    if invariant:  # rates holds the zero rate of g, then the vertical's
        pairs.append(float((rates[-1] * wts) @ v))
    return -gram_solve(_checked(*gram_factor(rows, wts), invariant), np.array(pairs)) @ rows


def exp_map(theta: ZRShape, v: ZRTangent, T: float, steps: int | None = None,
            invariant: bool = False) -> GeodesicPath:
    """Geodesic from theta with initial velocity v, integrated for time T.

    Classical 4th-order stepping of (position, velocity); each stage reads
    one grid evaluation at one point, which projects cos a and sin a only
    (_accel).  After each step the closure projector puts the position back
    on the manifold; the rows of its accepted evaluation and their duals
    remove the velocity's normal (invariant mode: vertical) part, the speed
    is restored, and the rate duals give the next step's first stage.  A velocity of
    another size raises DimensionMismatchError, and a non-finite one
    ValueError, before any evaluation.  Logs one DEBUG line with the steps,
    T and speed.
    """
    vc = _vec(v)
    if vc.shape != theta.coeffs.shape:
        raise DimensionMismatchError("velocity size does not match the base shape")
    if not np.isfinite(vc).all():
        raise ValueError("velocity holds a non-finite number")
    speed = float(norm_raw(vc))
    if not math.isfinite(T) or T < 0:
        raise ValueError("T must be finite and nonnegative")
    if speed == 0.0 or T == 0.0:
        return _constant_path(theta, invariant)

    wts, kind = _metric_weights(theta.N), "horizontal" if invariant else "tangent"
    vc = tangent_part(vc, constraint_frame(theta.coeffs, horizontal=invariant)[:2], wts,
                      f"initial velocity is not {kind} at the base shape")
    vc *= speed / float(norm_raw(vc))

    if steps is None:
        steps = max(8, math.ceil(STEPS_PER_UNIT * T * max(speed, 1.0)))
    if steps < 8:
        raise ValueError("need at least 8 integration steps")

    h = T / steps
    p, w = theta.coeffs, vc
    k1v = _accel(p, w, invariant)
    samples = np.empty((steps + 1, p.shape[0]))
    samples[0] = p
    for k in range(steps):
        k2p = w + 0.5 * h * k1v
        k2v = _accel(p + 0.5 * h * w, k2p, invariant)
        k3p = w + 0.5 * h * k2v
        k3v = _accel(p + 0.5 * h * k2p, k3p, invariant)
        k4p = w + h * k3v
        k4v = _accel(p + h * k3p, k4p, invariant)
        p = p + (h / 6.0) * (w + 2 * k2p + 2 * k3p + k4p)
        w = w + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        p, (rows, duals, rate_duals) = _project_along(p, w, invariant)  # rates along w
        w = w - (duals @ w) @ rows
        scale = speed / float(norm_raw(w))
        w = w * scale  # the rates were taken along w before the scaling
        k1v = -scale * ((rate_duals @ w) @ rows)
        samples[k + 1] = p

    _log.debug("exp_map: %d steps, T %.6g, speed %.6g", steps, T, speed)
    return GeodesicPath(_space_tag(invariant), float(T),
                        np.linspace(0.0, T, steps + 1), samples, vc, w, base=theta)


# ---------------------------------------------------------------------------
# boundary value problem: discrete energy relaxation

def _path_energy(pts: np.ndarray) -> float:
    d = np.diff(pts, axis=0)
    return float(np.sum(inner_raw(d, d)))


def _laplacian_step(k_inv: np.ndarray, res: np.ndarray, frame) -> np.ndarray:
    """The whole-path step K res, projected back to the samples' tangent
    (horizontal) spaces in the path-energy metric: d = K (res - sum lam_k
    r_k) with d_i orthogonal to the rows r_i of frame = (rows, duals), from
    one (m*k)-square solve."""
    rows = frame[0]
    m, k, dim = rows.shape
    y = k_inv @ res
    flat = rows.reshape(m * k, dim)
    gram = (flat * _metric_weights((dim - 1) // 2)) @ flat.T
    blocks = gram.reshape(m, k, m, k)  # a view: K's entries scale the k x k blocks
    blocks *= k_inv[:, None, :, None]
    lam = np.linalg.solve(gram, inner_raw(rows, y[:, None]).reshape(m * k))
    step = y - k_inv @ np.einsum("ik,ikd->id", lam.reshape(m, k), rows)
    return remove_frame(step, frame)  # clears the solve's rounding


def _relax(pts: np.ndarray, invariant: bool) -> np.ndarray:
    """Relax the interior samples, which may start off the manifold.  A sweep
    makes one closure step (zr_space._closure_step), adds its Gauss-Newton
    step, and then the whole-path step K res on the corrected samples'
    tangential (invariant: horizontal) residual against its frame (R, Q);
    K is the inverse of tridiag[-1, 2, -1].  Returns the samples of the first
    evaluation that finds every closure residual at most _PROJ_TOL and every
    residual at most _RESID_RTOL of the mean segment length or _RESID_ATOL."""
    n, i = len(pts), np.arange(1, len(pts) - 1)
    k_inv = np.minimum.outer(i, i) * (n - 1 - np.maximum.outer(i, i)) / (n - 1)
    pts, history = np.array(pts, dtype=float), []
    for it in range(_MAX_ITERS):
        closure, newton, frame = _closure_step(pts[1:-1], None, invariant, history)
        closure, frame = float(np.abs(closure).max()), frame[:2]
        res = remove_frame(pts[:-2] - 2.0 * pts[1:-1] + pts[2:], frame)
        history.append(float(norm_raw(res).max()))
        seg = float(np.mean(norm_raw(np.diff(pts, axis=0))))
        if _log.isEnabledFor(logging.DEBUG):  # the energy costs a pass over the path
            _log.debug("relaxation iteration %d: max residual %.3e, closure residual "
                       "%.3e, energy %.15g", it, history[-1], closure, _path_energy(pts))
        if closure <= _PROJ_TOL and history[-1] <= max(_RESID_RTOL * seg, _RESID_ATOL):
            return pts
        pts[1:-1] += newton
        res = remove_frame(pts[:-2] - 2.0 * pts[1:-1] + pts[2:], frame)
        pts[1:-1] += _laplacian_step(k_inv, res, frame)
        if not np.isfinite(pts).all():
            raise NumericalError("path relaxation left the finite numbers", history)
    raise NumericalError(f"path relaxation did not converge in {_MAX_ITERS} "
                         "iterations", history)


def _space_tag(invariant: bool) -> str:
    return "zr_invariant" if invariant else "zr_sigma"


def _constant_path(theta: ZRShape, invariant: bool) -> GeodesicPath:
    z = np.zeros_like(theta.coeffs)
    return GeodesicPath(_space_tag(invariant), 0.0, np.zeros(1),
                        theta.coeffs[None, :], z, z, base=theta)


def _relaxed_path(theta0: ZRShape, end: np.ndarray, n_samples: int,
                  invariant: bool) -> GeodesicPath:
    """Pin both ends of the linear interpolation from theta0 to the end
    coefficients and relax it.  The relaxed samples are the path: their
    times are the cumulative segment lengths, and the end velocities are
    the path spline's, made tangent (horizontal) and unit."""
    lam = np.linspace(0.0, 1.0, n_samples)[:, None]
    pts = _relax((1.0 - lam) * theta0.coeffs + lam * end, invariant)
    ts = np.concatenate([[0.0], np.cumsum(norm_raw(np.diff(pts, axis=0)))])
    path = GeodesicPath(_space_tag(invariant), float(ts[-1]), ts, pts, end, end,
                        base=theta0)  # end velocities: set below from its spline
    ends = _project_tangent_raw(pts[[0, -1]], path.velocity_at(ts[[0, -1]]), invariant)
    path.v0, path.v_end = ends / norm_raw(ends)[:, None]
    return path


def geodesic_between(theta0: ZRShape, theta1: ZRShape,
                     n_samples: int = 33) -> GeodesicPath:
    """Geodesic on the closed-curve manifold joining two shapes.

    Relaxed from the linear interpolation until every interior sample's
    closure residuals are at most 1e-10 and its geodesic residual is at most
    1e-8 of the mean segment length (or 1e-13); the relaxed samples are
    returned, at their cumulative segment lengths.
    """
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    if theta0.N != theta1.N:
        raise DimensionMismatchError("truncation orders differ")
    if float(norm_raw(theta0.coeffs - theta1.coeffs)) <= 1e-10:
        return _constant_path(theta0, invariant=False)
    return _relaxed_path(theta0, theta1.coeffs, n_samples, False)


def geodesic_between_invariant(theta0: ZRShape, theta1: ZRShape,
                               n_samples: int = 33) -> GeodesicPath:
    """Geodesic in the initial-point quotient.

    The second endpoint is first reparameterized to the best-matching initial
    point (align_initial_point; the circle raises SingularShapeError), and
    relaxation updates are restricted to horizontal directions.  While x0 is
    slaved, the code's vertical row is not the orbit tangent, so the path is
    not an exact horizontal lift (ROADMAP item 3).
    """
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    s0, dist = align_initial_point(theta0, theta1)
    if dist <= 1e-8:
        return _constant_path(theta0, invariant=True)
    end = shift_initial_point(theta1, s0).coeffs
    return _relaxed_path(theta0, end, n_samples, True)


def fit_geodesic_to_series(shapes, times, n_samples: int = 33,
                           invariant: bool = False):
    """Geodesic through the first and last of a shape series, with per-shape
    residual distances to the matching points of the fitted path.

    Times are mapped affinely onto the path parameter; with invariant, the
    residuals are quotient distances (align_initial_point).
    """
    shapes = list(shapes)
    times = np.asarray(times, dtype=float)
    if len(shapes) != len(times) or len(shapes) < 2:
        raise ValueError("need equally many shapes and times, at least two")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    connect = geodesic_between_invariant if invariant else geodesic_between
    path = connect(shapes[0], shapes[-1], n_samples)
    frac = (times - times[0]) / (times[-1] - times[0])
    on_path = [path.base.with_coeffs(p) for p in path.point_at(frac * path.T)]
    residuals = [align_initial_point(q, s)[1] if invariant
                 else norm_raw(s.coeffs - q.coeffs) for q, s in zip(on_path, shapes)]
    return path, np.array(residuals, dtype=float)
