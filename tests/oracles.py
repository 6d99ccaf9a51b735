"""Independent reference routes used to cross-check the library.

Everything here deliberately recomputes by a different method than the
package: direct trig sums instead of FFT, composite Gauss-Legendre panels
instead of the exponential sum over the turning function's jumps,
projection stepping instead of the transport ODE, a dense rotation scan
instead of SVD alignment, and all pairs of edges or points instead of the
pruned crossing test and the hull.  The one exception, transport_per_frame,
restates the contour-space transport ODE loop time by time, from its own
constraint rows and their exact rates, so the shared integrator can be held
to it.  The measuring tools that only tests use (arc-length resampling, the
Hausdorff distance, the Kendall horizontality test, the k-fold symmetry test
and projection) live here as well, and so does the closed-form planar
Kendall transport (transport_kendall_m2), the reference of criterion 02.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# --- coefficient-space metric, restated ---


def coeff_inner(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u[0] * v[0] + 0.5 * np.dot(u[1:], v[1:]))


def coeff_norm(u) -> float:
    return float(np.sqrt(coeff_inner(u, u)))


def eval_series(u, s) -> np.ndarray:
    """Direct trig-sum evaluation (no FFT) of a coefficient vector."""
    u = np.asarray(u, dtype=float)
    n = (len(u) - 1) // 2
    ns = np.arange(1, n + 1)[:, None] * np.asarray(s, dtype=float)[None, :]
    return u[0] + u[1::2] @ np.cos(ns) + u[2::2] @ np.sin(ns)


# --- turning-function Fourier coefficients by quadrature ---


def polygon_turning(points):
    """Arc-length breakpoints (scaled to 2*pi), per-edge turning values
    relative to the first edge, first-edge angle, perimeter."""
    pts = np.asarray(points, dtype=float)
    vec = np.roll(pts, -1, axis=0) - pts
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    d = np.diff(ang)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    unwrapped = ang[0] + np.concatenate([[0.0], np.cumsum(d)])
    lengths = np.hypot(vec[:, 0], vec[:, 1])
    per = float(lengths.sum())
    sb = np.concatenate([[0.0], np.cumsum(lengths)]) * (2.0 * np.pi / per)
    return sb, unwrapped - unwrapped[0], float(unwrapped[0]), per


def fourier_coeffs_gl(points, n_harmonics: int, panels_per_unit: float = 40.0,
                      nodes: int = 10):
    """Gauss-Legendre integration of theta(s)cos(ns) and theta(s)sin(ns).

    theta(s) = C_j - s on edge j; panels are sized so the highest harmonic
    stays resolved.  Returns (mean integral of theta / 2pi, x_1..x_N,
    y_1..y_N, first-edge angle).
    """
    sb, c_vals, base, _ = polygon_turning(points)
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    harmonics = np.arange(1, n_harmonics + 1)
    xs = np.zeros(n_harmonics)
    ys = np.zeros(n_harmonics)
    x0_int = 0.0
    for j in range(len(c_vals)):
        a, b = sb[j], sb[j + 1]
        k = max(1, int(np.ceil((b - a) * panels_per_unit)))
        edges = np.linspace(a, b, k + 1)
        for p in range(k):
            mid = (edges[p] + edges[p + 1]) / 2.0
            half = (edges[p + 1] - edges[p]) / 2.0
            s = mid + half * xg
            w = half * wg
            th = c_vals[j] - s
            tw = th * w
            x0_int += tw.sum() / (2.0 * np.pi)
            phase = np.outer(s, harmonics)
            xs += tw @ np.cos(phase) / np.pi
            ys += tw @ np.sin(phase) / np.pi
    return x0_int, xs, ys, base


# --- tangent projection and transport by stepping ---


@lru_cache(maxsize=4)
def _grid_basis(n: int, m: int):
    """Uniform m-grid s and the direct-sum trig rows (1, cos s, sin s, ...,
    cos ns, sin ns) on it, both read-only."""
    s = 2.0 * np.pi * np.arange(m) / m
    basis = np.empty((2 * n + 1, m))
    basis[0] = 1.0
    ns = np.outer(np.arange(1, n + 1), s)
    basis[1::2] = np.cos(ns)
    basis[2::2] = np.sin(ns)
    s.setflags(write=False)
    basis.setflags(write=False)
    return s, basis


def zr_constraint_rows(coeffs, m: int = 2048) -> np.ndarray:
    """Jacobian rows of the three constraints at a point: Re and Im of the
    closure integral's derivative and the x0 slaving row."""
    c = np.asarray(coeffs, dtype=float)
    s, basis = _grid_basis((len(c) - 1) // 2, m)
    e = np.exp(1j * (c @ basis + s))
    dpsi = 1j * (basis @ e.real + 1j * (basis @ e.imag)) / m
    rows = np.empty((3, len(c)))
    rows[0] = dpsi.real
    rows[1] = dpsi.imag
    rows[2] = 0.0
    rows[2, 0] = 1.0
    rows[2, 1::2] = 1.0
    return rows


def zr_project_tangent_oracle(coeffs, w, m: int = 2048) -> np.ndarray:
    """Minimal-metric-norm projection of w onto the constraint null space."""
    c = np.asarray(coeffs, dtype=float)
    w = np.asarray(w, dtype=float)
    rows = zr_constraint_rows(c, m)
    gi = np.full(len(c), 2.0)
    gi[0] = 1.0
    a = rows * gi
    lam = np.linalg.solve(a @ rows.T, rows @ w)
    return w - a.T @ lam


def zr_vertical_oracle(coeffs, m: int = 2048) -> np.ndarray:
    """The stated vertical pattern, realized inside the tangent space."""
    c = np.asarray(coeffs, dtype=float)
    n = (len(c) - 1) // 2
    k = np.arange(1, n + 1)
    u = np.zeros(len(c))
    u[1::2] = k * c[2::2]
    u[2::2] = -k * c[1::2]
    u = zr_project_tangent_oracle(c, u, m)
    return u / coeff_norm(u)


def transport_stepping(path, w0, n_steps: int, invariant: bool = False,
                       m: int = 2048) -> np.ndarray:
    """Transport by repeated projection onto the (horizontal) tangent space
    with norm restoration; first-order in the step."""
    w = np.array(w0, dtype=float)
    scale = coeff_norm(w)
    for t in np.linspace(0.0, path.T, n_steps + 1)[1:]:
        p = path.point_at(float(t))
        w = zr_project_tangent_oracle(p, w, m)
        if invariant:
            u = zr_vertical_oracle(p, m)
            w = w - coeff_inner(w, u) * u
        w *= scale / coeff_norm(w)
    return w


def transport_stepping_richardson(path, w0, n_steps: int,
                                  invariant: bool = False,
                                  m: int = 2048) -> np.ndarray:
    w1 = transport_stepping(path, w0, n_steps, invariant, m)
    w2 = transport_stepping(path, w0, 2 * n_steps, invariant, m)
    return 2.0 * w2 - w1


def transport_per_frame(path, w0, steps_per_unit: int = 256,
                        invariant: bool = False, m: int = 2048) -> np.ndarray:
    """The contour-space RK4 excluded-frame transport written out time by
    time, with no frame code from the package.

    At each node and midpoint time the constraint Jacobian rows A (Re and Im
    of the closure integral's derivative, the x0 slaving row and, in the
    quotient, the metric dual of the shift direction J c) and their exact
    time derivatives A_dot (for J c: J c_dot) come from direct trig sums on
    an m-grid along the path's own spline.  The vector then moves at
    -W^-1 A^T G^-1 A_dot w, G = A W^-1 A^T, and is re-projected with the
    same Gram solve after each step, with its norm restored.
    """
    from scipy.interpolate import CubicSpline

    w = np.array(w0, dtype=float)
    dim = len(w)
    n = (dim - 1) // 2
    wts = np.full(dim, 0.5)  # the metric's diagonal
    wts[0] = 1.0
    w0_norm = coeff_norm(w)
    length = sum(coeff_norm(d) for d in np.diff(path.points, axis=0))
    n_steps = max(8, math.ceil(steps_per_unit * max(length, 1e-12)))
    h = path.T / n_steps
    times = np.linspace(0.0, path.T, 2 * n_steps + 1)
    spline = CubicSpline(path.ts, path.points, axis=0)
    pts, vel = spline(times), spline.derivative()(times)

    s, basis = _grid_basis(n, m)
    e = np.exp(1j * (pts @ basis + s))
    dpsi = 1j * (e @ basis.T) / m
    ddpsi = -(((vel @ basis) * e) @ basis.T) / m
    k = 4 if invariant else 3
    rows = np.zeros((len(times), k, dim))
    rates = np.zeros_like(rows)
    rows[:, 0], rows[:, 1] = dpsi.real, dpsi.imag
    rates[:, 0], rates[:, 1] = ddpsi.real, ddpsi.imag
    rows[:, 2, 0] = 1.0
    rows[:, 2, 1::2] = 1.0
    if invariant:
        # <w, J c> in the metric, as a row: 0.5 * J c; J is linear
        harm = np.arange(1, n + 1)
        for a, c in ((rows, pts), (rates, vel)):
            a[:, 3, 1::2] = 0.5 * harm * c[:, 2::2]
            a[:, 3, 2::2] = -0.5 * harm * c[:, 1::2]

    def normal_part(j, coef):
        # W^-1 A^T G^-1 coef, one Gram solve at time j
        rep = rows[j] / wts
        return rep.T @ np.linalg.solve(rows[j] @ rep.T, coef)

    def rhs(vec, j):
        return -normal_part(j, rates[j] @ vec)

    def project(vec, j):
        return vec - normal_part(j, rows[j] @ vec)

    w = project(w, 0)
    w *= w0_norm / coeff_norm(w)
    for i in range(n_steps):
        j0, jm, j1 = 2 * i, 2 * i + 1, 2 * i + 2
        norm_before = coeff_norm(w)
        k1 = rhs(w, j0)
        k2 = rhs(w + 0.5 * h * k1, jm)
        k3 = rhs(w + 0.5 * h * k2, jm)
        k4 = rhs(w + h * k3, j1)
        w = project(w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), j1)
        w *= norm_before / coeff_norm(w)
    return w


def is_k_symmetric(theta, k: int, tol: float = 1e-9) -> bool:
    """True iff every harmonic of the ZRShape theta not divisible by k is
    below tol in magnitude."""
    c = theta.coeffs
    off = np.arange(1, theta.N + 1) % k != 0
    return bool(np.all(np.hypot(c[1::2], c[2::2])[off] <= tol))


def project_k_symmetric(theta, k: int):
    """Zero all harmonics not divisible by k, restore x0, re-project closure."""
    from shape_transport import project_to_sigma

    c = theta.coeffs.copy()
    off = np.arange(1, theta.N + 1) % k != 0
    c[1::2][off] = 0.0
    c[2::2][off] = 0.0
    c[0] = -np.sum(c[1::2])
    return project_to_sigma(theta.with_coeffs(c))


def transport_rk4_loop(path, w0, frames, weights, steps_per_unit: int = 256):
    """The excluded-frame transport one vector at a time: four RK4 stages,
    re-projection and norm restoration per step, with the log norm change
    summed step by step.  Uses the package's frame builder `frames` (points,
    velocities) -> (frame, rates), so it checks the integrator's algebra,
    not the frames.  Returns (w_end, drift)."""
    def norm(x):
        return math.sqrt(float(x @ (weights * x)))

    w = np.array(w0, dtype=float)
    w0_norm = norm(w)
    length = sum(norm(d) for d in np.diff(path.points, axis=0))
    n_steps = max(8, math.ceil(steps_per_unit * max(length, 1e-12)))
    h = path.T / n_steps
    times = np.linspace(0.0, path.T, 2 * n_steps + 1)
    frame, rates = frames(path.point_at(times), path._dspline(times))

    def rhs(vec, j):
        return -((rates[j] * weights) @ vec) @ frame[j]

    def project(vec, j):
        return vec - ((frame[j] * weights) @ vec) @ frame[j]

    w = project(w, 0)
    w *= w0_norm / norm(w)
    log_drift = 0.0
    for i in range(n_steps):
        j0, jm, j1 = 2 * i, 2 * i + 1, 2 * i + 2
        before = norm(w)
        k1 = rhs(w, j0)
        k2 = rhs(w + 0.5 * h * k1, jm)
        k3 = rhs(w + 0.5 * h * k2, jm)
        k4 = rhs(w + h * k3, j1)
        w = project(w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), j1)
        log_drift += math.log(norm(w) / before)
        w *= before / norm(w)
    return w, abs(math.expm1(log_drift)) * w0_norm


# --- Kendall references ---


def procrustes_scan(x_mat, y_mat, n_angles: int = 7200):
    """Best planar rotation of y toward x by dense scan plus parabolic
    refinement; returns (angle, squared residual)."""
    x = np.asarray(x_mat, dtype=float)
    y = np.asarray(y_mat, dtype=float)
    angs = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)

    def resid(a):
        ca, sa = np.cos(a), np.sin(a)
        rot = np.array([[ca, sa], [-sa, ca]])
        return float(np.sum((y @ rot - x) ** 2))

    vals = np.array([resid(a) for a in angs])
    i = int(np.argmin(vals))
    # parabolic refinement on the three neighboring samples
    f0, f1, f2 = vals[i - 1], vals[i], vals[(i + 1) % n_angles]
    h = angs[1] - angs[0]
    denom = f0 - 2.0 * f1 + f2
    off = 0.0 if abs(denom) < 1e-30 else 0.5 * h * (f0 - f2) / denom
    a_best = angs[i] + off
    return a_best, resid(a_best)


def transport_kendall_m2(path, w0) -> np.ndarray:
    """Closed-form transport of w0 (flattened result) along a horizontal
    great circle of planar landmarks.  With v the unit start velocity and J
    the quarter turn, the parts of w0 along v and v J turn with the circle's
    velocity; the rest stays put."""
    w = np.asarray(w0, dtype=float).reshape(-1, 2)
    if path.n_samples < 2 or path.T == 0.0:
        return w.ravel().copy()
    x = path.points[0].reshape(-1, 2)
    v = path.v0.reshape(-1, 2)
    speed = np.linalg.norm(v)
    v = v / speed
    quarter = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a, b = float(np.sum(w * v)), float(np.sum(w * (v @ quarter)))
    t_end = path.T * speed
    gdot = -math.sin(t_end) * x + math.cos(t_end) * v
    return (w - a * v - b * (v @ quarter) + a * gdot + b * (gdot @ quarter)).ravel()


def is_horizontal(x, w: np.ndarray, tol: float = 1e-10) -> bool:
    """w is tangent to the pre-shape sphere at x (orthogonal to x) and
    horizontal (x^T w symmetric)."""
    w = np.asarray(w, dtype=float)
    sym = x.mat.T @ w
    return (abs(float(np.sum(w * x.mat))) <= tol
            and float(np.abs(sym - sym.T).max()) <= tol)


def slerp(x_flat, y_flat, t: float) -> np.ndarray:
    """Unit-sphere great-circle interpolation of flattened configurations."""
    x = np.asarray(x_flat, dtype=float)
    y = np.asarray(y_flat, dtype=float)
    ang = np.arccos(np.clip(np.dot(x, y), -1.0, 1.0))
    if ang < 1e-14:
        return x.copy()
    return (np.sin((1.0 - t) * ang) * x + np.sin(t * ang) * y) / np.sin(ang)


# --- polygon geometry by all pairs, and contour comparison ---


def self_intersects(points: np.ndarray, rel_tol: float = 1e-9) -> bool:
    """True when any two non-adjacent edges of the closed polyline cross."""
    p = np.asarray(points, dtype=float)
    n = len(p)
    if n < 4:
        return False
    q = np.roll(p, -1, axis=0)
    d = q - p
    span = float(np.ptp(p, axis=0).max()) or 1.0
    tol = rel_tol * span

    def cross(o, a, b):
        return ((a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1])
                - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0]))

    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    adjacent = (np.abs(i - j) <= 1) | (np.abs(i - j) == n - 1)
    upper = j > i

    p_i, q_i = p[:, None, :], q[:, None, :]
    p_j, q_j = p[None, :, :], q[None, :, :]
    d1 = cross(p_i, q_i, p_j)
    d2 = cross(p_i, q_i, q_j)
    d3 = cross(p_j, q_j, p_i)
    d4 = cross(p_j, q_j, q_i)
    crossing = ((d1 * d2 < -tol * tol) & (d3 * d4 < -tol * tol)
                & upper & ~adjacent)
    return bool(np.any(crossing))


def resample_closed(points: np.ndarray, m: int) -> np.ndarray:
    """Uniform arc-length resampling of a closed polyline."""
    p = np.asarray(points, dtype=float)
    closed = np.concatenate([p, p[:1]], axis=0)
    seg = np.hypot(*np.diff(closed, axis=0).T)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    total = t[-1]
    tq = np.linspace(0.0, total, m, endpoint=False)
    xs = np.interp(tq, t, closed[:, 0])
    ys = np.interp(tq, t, closed[:, 1])
    return np.stack([xs, ys], axis=1)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    from scipy.spatial import cKDTree

    ta, tb = cKDTree(a), cKDTree(b)
    d_ab = tb.query(a)[0].max()
    d_ba = ta.query(b)[0].max()
    return float(max(d_ab, d_ba))


def diameter_pairwise(points: np.ndarray) -> float:
    """Largest distance over all pairs of points, in row blocks."""
    p = np.asarray(points, dtype=float)
    best = 0.0
    for k in range(0, len(p), 512):
        d = p[k:k + 512, None, :] - p[None, :, :]
        best = max(best, float((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).max()))
    return math.sqrt(best)


# --- parallelity measure by dense quadrature ---


def mu_trapz(rho_value: float, n: int, variant: str = "arccos",
             pts: int = 200001) -> float:
    upper = np.arccos(rho_value)
    if variant == "sqrt_arccos":
        upper = np.sqrt(upper)
    x = np.linspace(0.0, upper, pts)
    num = np.trapezoid(np.sin(x) ** (n - 2), x)
    xf = np.linspace(0.0, np.pi, pts)
    den = np.trapezoid(np.sin(xf) ** (n - 2), xf)
    return 1.0 - num / den
