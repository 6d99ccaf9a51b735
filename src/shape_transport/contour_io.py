"""Polygonal contour ingestion and reconstruction.

A contour is a closed polygon given by its vertices in order.  Ingestion
computes the turning function of the arc-length parameterized curve
(normalized to total length 2*pi) and its exact Fourier coefficients, one
exponential sum over the turning function's jumps; reconstruction
integrates the unit tangent back into a polyline.  The commands' contour
outputs live here too: the exact diameter (hull and rotating calipers), the
SVG strip and the CSV of a contour sequence, and atomic file writes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateContourError, OpenCurveError, ParseError
from .zr_space import (
    DEFAULT_N,
    ZRShape,
    closure_map,
    eval_on_grid,
    grid_size,
    project_to_sigma,
    s_grid,
)

_SVG_CELL, _SVG_PAD = 140.0, 12.0  # one contour's square in an SVG strip, its margin


@dataclass(frozen=True)
class Contour:
    """Closed polygon; points are the vertices in order, closing edge implicit."""

    points: np.ndarray
    closure_gap: float | None = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
            raise DegenerateContourError(
                f"need at least 3 planar points, got array of shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ParseError("contour contains non-finite coordinates")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    @property
    def perimeter(self) -> float:
        e = np.roll(self.points, -1, axis=0) - self.points
        return float(np.hypot(e[:, 0], e[:, 1]).sum())


# ---------------------------------------------------------------------------
# parsing

def load_contour(path: str | Path) -> Contour:
    """Read a contour from .csv (header x,y) or .json ({"points": [[x,y],...]})."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        c = _parse_json(text)
    elif path.suffix.lower() == ".csv":
        c = _parse_csv(text)
    else:
        # unknown extension: try JSON first, then CSV
        try:
            c = _parse_json(text)
        except ParseError:
            c = _parse_csv(text)
    # normalize to counterclockwise orientation up front
    return Contour(_validated_polygon(c))


def _parse_json(text: str) -> Contour:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON contour: {exc}") from exc
    if not isinstance(d, dict):
        raise ParseError("contour JSON must be an object")
    if "points" not in d:
        raise ParseError("contour JSON must contain a 'points' array")
    return Contour(np.asarray(d["points"], dtype=float))


def _parse_csv(text: str) -> Contour:
    rows = list(csv.reader(text.splitlines()))
    rows = [r for r in rows if r and any(f.strip() for f in r)]
    if not rows:
        raise ParseError("empty contour CSV")
    header = [f.strip().lower() for f in rows[0]]
    if header[:2] != ["x", "y"]:
        raise ParseError("contour CSV must start with an 'x,y' header")
    pts = []
    for i, r in enumerate(rows[1:], start=2):
        try:
            pts.append((float(r[0]), float(r[1])))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad CSV row {i}: {r}") from exc
    return Contour(np.asarray(pts))


# ---------------------------------------------------------------------------
# polygon geometry

def _edges(points: np.ndarray):
    e = np.roll(points, -1, axis=0) - points
    lengths = np.hypot(e[:, 0], e[:, 1])
    return e, lengths


def _validated_polygon(contour: Contour) -> np.ndarray:
    """Check edges and orientation; returns vertices with winding +1 about the
    centroid, first vertex kept first."""
    p = np.asarray(contour.points, dtype=float)
    e, lengths = _edges(p)
    scale = float(np.max(np.abs(p - p.mean(axis=0)))) or 1.0
    if np.any(lengths <= 1e-12 * scale):
        raise DegenerateContourError("contour has a zero-length edge")

    w = winding_number(p, p.mean(axis=0))
    if w == -1:
        # reverse orientation, keep the initial vertex in place
        p = np.concatenate([p[:1], p[1:][::-1]])
        w = winding_number(p, p.mean(axis=0))
    if w != 1:
        raise DegenerateContourError(
            f"winding number about the centroid is {w}, need a simple closed curve")
    return p


def winding_number(points: np.ndarray, about: np.ndarray) -> int:
    rel = points - np.asarray(about, dtype=float)
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(d.sum() / (2.0 * np.pi)))


def _turning_data(points: np.ndarray):
    """Arc-length breakpoints (in s units), per-edge turning values C_j, the raw
    first-edge angle and the perimeter."""
    e, lengths = _edges(points)
    perimeter = lengths.sum()
    s_break = np.concatenate([[0.0], np.cumsum(lengths)]) * 2.0 * np.pi / perimeter
    phi_raw = np.arctan2(e[:, 1], e[:, 0])
    d = np.diff(phi_raw)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    phi = phi_raw[0] + np.concatenate([[0.0], np.cumsum(d)])
    c_vals = phi - phi_raw[0]
    return s_break, c_vals, float(phi_raw[0]), float(perimeter)


# ---------------------------------------------------------------------------
# contour -> coefficients

def contour_to_zr(contour: Contour, n_harmonics: int = DEFAULT_N) -> ZRShape:
    """Fourier coefficients of the polygon's turning function, exactly
    integrated, then projected onto the closed-curve manifold.

    On edge j the turning function is C_j - s, so summation by parts leaves
    one exponential sum over the interior breakpoints s_j, where C jumps by
    dC_j: z_n = x_n - i y_n = ((sum_j dC_j e^(-i n s_j) - C_last)/(i n)
    - 2 pi i/n)/pi, one (N, edges) array.  The constant dropped when
    re-slaving x0 is absorbed into base_angle so the reconstruction is not
    rotated.
    """
    p = _validated_polygon(contour)
    s_break, c_vals, phi0, perimeter = _turning_data(p)
    a, b = s_break[:-1], s_break[1:]
    n = np.arange(1, n_harmonics + 1, dtype=float)
    phase = np.multiply.outer(n, -1j * s_break[1:-1])
    jumps = np.exp(phase, out=phase) @ np.diff(c_vals)
    z = ((jumps - c_vals[-1]) / (1j * n) - 2j * np.pi / n) / np.pi
    x, y = z.real, -z.imag
    x0_integral = float(np.sum(c_vals * (b - a) - (b**2 - a**2) / 2.0) / (2.0 * np.pi))

    coeffs = np.empty(2 * n_harmonics + 1)
    coeffs[1::2] = x
    coeffs[2::2] = y
    coeffs[0] = -x.sum()
    base_angle = phi0 + (x0_integral - coeffs[0])

    raw = ZRShape(n_harmonics, coeffs, length=perimeter, base_angle=base_angle)
    return project_to_sigma(raw)


# ---------------------------------------------------------------------------
# coefficients -> contour

def zr_to_contour(theta: ZRShape, m: int | None = None) -> Contour:
    """Integrate the unit tangent into a polyline of m points, by default
    grid_size(theta.N).

    Refuses coefficients whose closure residual exceeds 1e-6; the trapezoid
    integration's wrap-around gap is reported on the result.
    """
    m = grid_size(theta.N) if m is None else m
    if m < 16:
        raise ValueError("need at least 16 reconstruction points")
    residual = abs(closure_map(theta))
    if residual > 1e-6:
        raise OpenCurveError(
            f"closure residual {residual:.3e} exceeds 1e-6, tangent does not close")

    grid = eval_on_grid(theta.coeffs, m)
    ang = grid + theta.base_angle + s_grid(m)
    zdot = np.exp(1j * ang) * (theta.length / (2.0 * np.pi))
    ds = 2.0 * np.pi / m
    # trapezoid antiderivative, wrapping back to s = 2*pi
    zd_ext = np.concatenate([zdot, zdot[:1]])
    z = np.concatenate([[0.0], np.cumsum((zd_ext[1:] + zd_ext[:-1]) / 2.0) * ds])
    gap = abs(z[-1] - z[0])
    pts = np.stack([z[:m].real, z[:m].imag], axis=1)
    return Contour(pts, closure_gap=float(gap))


# ---------------------------------------------------------------------------
# diameter

def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull, counterclockwise, without collinear points
    (Andrew's monotone chain)."""
    p = np.unique(np.asarray(points, dtype=float), axis=0)  # sorted by x, then y
    if len(p) < 3:
        return p

    def chain(pts):
        out = []
        for x, y in pts:
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                    - (out[-1][1] - out[-2][1]) * (x - out[-2][0])) <= 0.0:
                out.pop()
            out.append((x, y))
        return out[:-1]

    rows = p.tolist()
    return np.array(chain(rows) + chain(rows[::-1]))


def diameter(points: np.ndarray) -> float:
    """Largest distance between two of the points, exactly: the farthest pair
    is a pair of hull vertices antipodal across some hull edge (rotating
    calipers).  Edge k's antipodal vertex starts the first edge whose angle
    reaches edge k's angle + pi; its neighbours are tried too, so rounding
    near a tie loses no pair."""
    h = _convex_hull(points)
    m = len(h)
    if m < 3:
        d = h[-1] - h[0]
    else:
        e = np.roll(h, -1, axis=0) - h
        ang = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))  # increasing: the hull is convex
        far = np.searchsorted(np.concatenate([ang, ang + 2.0 * np.pi]), ang + np.pi)
        ends = np.arange(m)[:, None, None] + np.array([0, 1])[:, None]
        d = h[ends % m] - h[(far[:, None, None] + np.array([-1, 0, 1])) % m]
    return float(np.sqrt(np.max(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])))


# ---------------------------------------------------------------------------
# artifact emission

def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to path via a temp file in the same directory."""
    import os
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def contour_strip_svg(contours: list[Contour]) -> str:
    """Render contours side by side, bullet at the initial point."""
    if not contours:
        raise ValueError("empty contour sequence")
    spans = []
    for c in contours:
        lo = c.points.min(axis=0)
        hi = c.points.max(axis=0)
        spans.append((lo, hi, max(hi - lo)))
    scale = (_SVG_CELL - 2.0 * _SVG_PAD) / max(sp[2] for sp in spans)
    width = _SVG_CELL * len(contours)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{_SVG_CELL:.0f}" viewBox="0 0 {width:.0f} {_SVG_CELL:.0f}">',
        f'<rect width="{width:.0f}" height="{_SVG_CELL:.0f}" fill="white"/>',
    ]
    for i, (c, (lo, hi, _)) in enumerate(zip(contours, spans)):
        mid = (lo + hi) / 2.0
        cx = _SVG_CELL * (i + 0.5)
        # svg y axis points down
        xy = (c.points - mid) * scale
        px = cx + xy[:, 0]
        py = _SVG_CELL / 2.0 - xy[:, 1]
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polygon points="{pts}" fill="none" stroke="black" '
                     'stroke-width="1.2"/>')
        parts.append(f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3" '
                     'fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_contour_sequence(contours: list[Contour], path: str | Path) -> Path:
    """Write a contour sequence as a flat CSV: index,x,y rows."""
    if not contours:
        raise ValueError("empty contour sequence")
    lines = ["index,x,y"]
    for i, c in enumerate(contours):
        for x, y in c.points:
            lines.append(f"{i},{float(x)!r},{float(y)!r}")
    return atomic_write_text(path, "\n".join(lines) + "\n")
