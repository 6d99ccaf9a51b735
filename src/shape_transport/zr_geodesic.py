"""Geodesics on the closed-curve submanifold and its initial-point quotient.

exp_map integrates the geodesic equation with the constraint-consistent
acceleration; geodesic_between relaxes a sampled path by whole-path steps to
a discrete geodesic.  Quotient variants keep velocities orthogonal to the
vertical direction realized in the tangent space.  Positions are put back on
the manifold by the one checked projector zr_space.project_to_sigma_batch;
velocities and relaxation steps are kept tangent (horizontal) against the
excluded frame zr_space.constraint_frame, whose rates along the velocity
also give the geodesic acceleration; exp_map asks for it once per accepted
point, and initial velocities pass the shared check paths.tangent_part.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .paths import STEPS_PER_UNIT, GeodesicPath, remove_frame, tangent_part
from .zr_space import (
    ZRShape,
    ZRTangent,
    _metric_weights,
    _project_tangent_raw,
    _vec,
    align_initial_point,
    constraint_frame,
    inner_raw,
    norm_raw,
    project_to_sigma_batch,
    shift_initial_point,
)

_RESID_RTOL = 1e-8     # residual stop, relative to the mean segment length
_RESID_ATOL = 1e-13    # its floor, above the rounding of the second difference
_ENERGY_SLACK = 1e-12  # relative energy rise taken as rounding
_MAX_ITERS = 200

_log = logging.getLogger("shape_transport")


# ---------------------------------------------------------------------------
# geodesic acceleration on the constraint manifold

def _accel(p: np.ndarray, v: np.ndarray, invariant: bool) -> np.ndarray:
    """Acceleration normal to the tangent space that keeps (p, v) on the
    constraint manifold, in invariant mode also orthogonal to the realized
    vertical direction: minus the pairing of v with each excluded row's rate
    along v, times that row."""
    frame, rates = constraint_frame(p, v, horizontal=invariant)
    return -inner_raw(v, rates) @ frame


def exp_map(theta: ZRShape, v: ZRTangent, T: float, steps: int | None = None,
            invariant: bool = False) -> GeodesicPath:
    """Geodesic from theta with initial velocity v, integrated for time T.

    Classical 4th-order stepping of (position, velocity).  After each step the
    position is re-projected onto the manifold, and one excluded frame at the
    accepted point, with its rates along the velocity, projects the velocity
    onto the tangent (invariant mode: horizontal) space; the speed is then
    restored, and the rates scaled alike give the next step's first stage.
    """
    vc = _vec(v)
    speed = float(norm_raw(vc))
    if T < 0:
        raise ValueError("T must be nonnegative")
    if speed == 0.0 or T == 0.0:
        return _constant_path(theta, invariant)

    wts, kind = _metric_weights(theta.N), "horizontal" if invariant else "tangent"
    vc = tangent_part(vc, constraint_frame(theta.coeffs, horizontal=invariant)[0], wts,
                      f"initial velocity is not {kind} at the base shape")
    vc *= speed / float(norm_raw(vc))

    if steps is None:
        steps = max(8, math.ceil(STEPS_PER_UNIT * T * max(speed, 1.0)))
    if steps < 8:
        raise ValueError("need at least 8 integration steps")

    h = T / steps
    p, w = theta.coeffs, vc
    frame, rates = constraint_frame(p, w, horizontal=invariant)
    samples = np.empty((steps + 1, p.shape[0]))
    samples[0] = p
    for k in range(steps):
        k1p, k1v = w, -inner_raw(w, rates) @ frame
        k2p = w + 0.5 * h * k1v
        k2v = _accel(p + 0.5 * h * k1p, k2p, invariant)
        k3p = w + 0.5 * h * k2v
        k3v = _accel(p + 0.5 * h * k2p, k3p, invariant)
        k4p = w + h * k3v
        k4v = _accel(p + h * k3p, k4p, invariant)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        w = w + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        p = project_to_sigma_batch(p[None, :])[0]
        frame, rates = constraint_frame(p, w, horizontal=invariant)  # the step-end frame
        w = remove_frame(w, frame, wts)
        scale = speed / float(norm_raw(w))
        w, rates = w * scale, rates * scale
        samples[k + 1] = p

    return GeodesicPath(_space_tag(invariant), float(T),
                        np.linspace(0.0, T, steps + 1), samples, vc, w, base=theta)


# ---------------------------------------------------------------------------
# boundary value problem: discrete energy relaxation

def _path_energy(pts: np.ndarray) -> float:
    d = np.diff(pts, axis=0)
    return float(np.sum(inner_raw(d, d)))


def _laplacian_step(k_inv: np.ndarray, res: np.ndarray,
                    frame: np.ndarray) -> np.ndarray:
    """The whole-path step K res, projected back to the samples' tangent
    (horizontal) spaces in the path-energy metric: d = K (res - sum lam_k
    frame_k) with d_i orthogonal to frame_i, from one (m*k)-square solve."""
    m, k, dim = frame.shape
    wts = _metric_weights((dim - 1) // 2)
    y = k_inv @ res
    flat = frame.reshape(m * k, dim)
    gram = (flat * wts) @ flat.T
    gram *= np.kron(k_inv, np.ones((k, k)))
    lam = np.linalg.solve(gram, inner_raw(frame, y[:, None]).reshape(m * k))
    step = y - k_inv @ np.einsum("ik,ikd->id", lam.reshape(m, k), frame)
    return remove_frame(step, frame, wts)  # clears the solve's rounding


def _relax(pts: np.ndarray, invariant: bool) -> np.ndarray:
    """Relax the interior samples until the largest residual, the tangential
    (invariant: horizontal) part of a second difference, is at most
    _RESID_RTOL of the mean segment length or _RESID_ATOL.  K is the inverse
    of tridiag[-1, 2, -1]; a step's scale is halved while the energy rises."""
    n, i = len(pts), np.arange(1, len(pts) - 1)
    k_inv = np.minimum.outer(i, i) * (n - 1 - np.maximum.outer(i, i)) / (n - 1)
    wts = _metric_weights((pts.shape[-1] - 1) // 2)
    energy, history = _path_energy(pts), []
    for it in range(_MAX_ITERS):
        mid = pts[1:-1]
        frame, _ = constraint_frame(mid, horizontal=invariant)
        res = remove_frame(pts[:-2] - 2.0 * mid + pts[2:], frame, wts)
        history.append(float(norm_raw(res).max()))
        seg = float(np.mean(norm_raw(np.diff(pts, axis=0))))
        if history[-1] <= max(_RESID_RTOL * seg, _RESID_ATOL):
            return pts
        step = _laplacian_step(k_inv, res, frame)
        for halvings in range(9):  # the full step, then at most 8 halvings
            scale = 0.5 ** halvings
            trial = np.vstack((pts[0], project_to_sigma_batch(mid + scale * step),
                               pts[-1]))
            e = _path_energy(trial)
            if e <= energy * (1.0 + _ENERGY_SLACK):
                break
        else:
            raise NumericalError("path relaxation step raises the energy", history)
        _log.debug("relaxation iteration %d: max residual %.3e, energy %.15g, "
                   "step scale %g", it, history[-1], e, scale)
        pts, energy = trial, e
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
    """Project the linear interpolation from theta0 to the end coefficients in
    one batch, pin both ends and relax.  The relaxed samples are the path:
    their times are the cumulative segment lengths, and the end velocities
    are the path spline's, made tangent (horizontal) and unit."""
    lam = np.linspace(0.0, 1.0, n_samples)[:, None]
    pts = project_to_sigma_batch((1.0 - lam) * theta0.coeffs + lam * end)
    pts[0], pts[-1] = theta0.coeffs, end
    pts = _relax(pts, invariant)
    ts = np.concatenate([[0.0], np.cumsum(norm_raw(np.diff(pts, axis=0)))])
    path = GeodesicPath(_space_tag(invariant), float(ts[-1]), ts, pts, end, end,
                        base=theta0)  # end velocities: set below from its spline
    ends = _project_tangent_raw(pts[[0, -1]], path._dspline(ts[[0, -1]]), invariant)
    path.v0, path.v_end = ends / norm_raw(ends)[:, None]
    return path


def geodesic_between(theta0: ZRShape, theta1: ZRShape,
                     n_samples: int = 33) -> GeodesicPath:
    """Geodesic on the closed-curve manifold joining two shapes.

    Initialized from the projected linear interpolation, then relaxed until
    every interior sample's geodesic residual is at most 1e-8 of the mean
    segment length (or 1e-13); the relaxed samples are returned, at their
    cumulative segment lengths.
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
    not an exact horizontal lift (ROADMAP item 1).
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
    on_path = [path.base.with_coeffs(path.point_at(f * path.T)) for f in frac]
    residuals = [align_initial_point(q, s)[1] if invariant
                 else norm_raw(s.coeffs - q.coeffs) for q, s in zip(on_path, shapes)]
    return path, np.array(residuals, dtype=float)
