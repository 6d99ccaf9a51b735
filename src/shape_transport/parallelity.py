"""Parallelity of deformations: transplant a growth velocity onto another base
shape by parallel transport and quantify directional agreement.

rho is the absolute cosine between coefficient vectors; mu calibrates it
against the distribution of the angle between two uniformly random directions
in n dimensions, so 0.5 is chance level and 1 is perfect alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .paths import GeodesicPath, TransportResult, space_ops


def rho(v, w) -> float:
    """Absolute cosine of the angle between two coefficient vectors
    (plain Euclidean pairing of the flattened entries)."""
    a = np.asarray(v, dtype=float).ravel()
    b = np.asarray(w, dtype=float).ravel()
    if a.shape != b.shape:
        raise DimensionMismatchError("vectors have different lengths")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("rho is undefined for a zero vector")
    return float(min(abs(np.dot(a, b)) / (na * nb), 1.0))


def mu(rho_value: float, n: int, variant: str = "arccos") -> float:
    """Fraction of random direction pairs in n dimensions that are less aligned
    than the observed rho.  variant selects the upper integration limit:
    the angle itself ("arccos") or its square root ("sqrt_arccos").

    mu = 1 - int_0^upper sin^(n-2) / int_0^pi sin^(n-2); for upper <= pi/2,
    which both variants satisfy, the ratio is half the regularized incomplete
    beta function I_x((n-1)/2, 1/2) at x = sin^2(upper): 1 - cos(upper) sum_{j<a} c_j x^j
    for odd n, a = (n-1)/2, c_j = c_{j-1} (2j-1)/(2j); (2/pi) (upper - sin(upper)
    cos(upper) sum_{j<h} d_j x^j) for even n, h = (n-2)/2, d_j = d_{j-1} 2j/(2j+1);
    c_0 = d_0 = 1.  Written in cos(upper) rather than sqrt(1-x), with the powers
    x^j = exp(j log(1 - cos^2(upper))), it keeps its accuracy where x nears 1
    (rho near 0), which x itself, rounded near 1, would lose.
    """
    if n < 3:
        raise ValueError("mu needs ambient dimension n >= 3")
    if not -1e-9 <= rho_value <= 1.0 + 1e-9:
        raise ValueError(f"rho must lie in [0, 1], got {rho_value}")
    if variant not in ("arccos", "sqrt_arccos"):
        raise ValueError(f"unknown mu variant {variant!r}")
    angle = float(np.arccos(np.clip(rho_value, 0.0, 1.0)))
    upper = math.sqrt(angle) if variant == "sqrt_arccos" else angle
    sin_u, cos_u = math.sin(upper), math.cos(upper)
    log_x = math.log1p(-cos_u * cos_u) if cos_u < 1.0 else -math.inf
    odd, j = n % 2, np.arange(1, (n - 1) // 2)
    series = 1.0 + float(np.sum(np.cumprod((2 * j - odd) / (2 * j + 1 - odd))
                                * np.exp(j * log_x)))
    ratio = (1.0 - cos_u * series if odd
             else (upper - sin_u * cos_u * series) / (0.5 * math.pi))
    return 1.0 - 0.5 * ratio


# ---------------------------------------------------------------------------
# transplant workflow

@dataclass
class TransplantOutcome:
    """A growth deformation moved to another base shape; self_residual is the
    norm of P(connecting.v0) - connecting.v_end, the self-transport miss."""

    connecting: GeodesicPath
    transported: np.ndarray
    transport: TransportResult
    self_residual: float


def transplant_growth(growth: GeodesicPath, target) -> TransplantOutcome:
    """Move growth.v0 to the target base along the connecting geodesic, using
    the transport of the path's space; connecting.v0 rides along."""
    ops = space_ops(growth.space)
    if not isinstance(target, ops.base_type):
        raise DimensionMismatchError(
            f"{growth.space} growth needs a {ops.base_type.__name__} target")
    connecting = ops.connect(growth.base, target)
    both = ops.transport(connecting, np.stack([growth.v0, connecting.v0]))
    result = TransportResult(both.w_end[0], float(both.norm_drift[0]), both.steps)
    return TransplantOutcome(connecting, result.w_end, result,
                             float(ops.norm(both.w_end[1] - connecting.v_end)))


def compare_growth(growth_a: GeodesicPath, growth_b: GeodesicPath,
                   n: int | None = None, mu_variant: str = "arccos",
                   pair=("a", "b")):
    """Transplant growth_a onto growth_b's base and compare directions.

    Returns (report dict, TransplantOutcome); n defaults to the coefficient
    count of the compared vectors.
    """
    if growth_a.space != growth_b.space:
        raise DimensionMismatchError("growth paths live in different spaces")
    outcome = transplant_growth(growth_a, growth_b.base)
    r = rho(outcome.transported, growth_b.v0)
    if n is None:
        n = int(np.asarray(growth_b.v0).size)
    report = {
        "pair": [str(pair[0]), str(pair[1])],
        "rho": r,
        "mu": mu(r, n, mu_variant),
        "n": n,
        "mu_variant": mu_variant,
    }
    return report, outcome
