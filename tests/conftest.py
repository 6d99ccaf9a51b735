"""Shared builders for test cases: the square and circle contours and
randomized shapes, tangents and pre-shapes."""

from __future__ import annotations

import numpy as np
import pytest

import oracles as orc

from shape_transport import (
    Contour,
    ZRShape,
    ZRTangent,
    contour_to_zr,
    helmertize,
    hexagon_sixgon,
    horizontal_project,
    horizontal_project_k,
    project_tangent,
    project_to_sigma,
    rectangle_sixgon,
)
from shape_transport.zr_space import norm_raw

N = 100
D = 2 * N + 1
DECAY = np.concatenate([[1.0], np.repeat(np.arange(1, N + 1), 2)]) ** 1.5


def square_contour(side: float = 1.0) -> Contour:
    pts = side * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    return Contour(pts)


def circle_contour(n_vertices: int = 256, radius: float = 1.0) -> Contour:
    t = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    return Contour(radius * np.stack([np.cos(t), np.sin(t)], axis=1))


def random_sigma_shape(seed: int, scale: float = 0.35) -> ZRShape:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=D) * scale / DECAY
    return project_to_sigma(ZRShape(N, raw))


def random_tangent(base: ZRShape, seed: int,
                   horizontal: bool = False) -> ZRTangent:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=D) / DECAY
    if horizontal:
        t = horizontal_project(base, raw)
    else:
        t = project_tangent(base, raw)
    c = t.coeffs / norm_raw(t.coeffs)
    return ZRTangent(N, c, base=base)


def vertical_row(points: np.ndarray) -> np.ndarray:
    """The vertical direction realized in the tangent space at points: row 3
    of the reference Gram-Schmidt over the horizontal excluded rows.
    Batched."""
    return orc.zr_frame(points, horizontal=True)[0][..., 3, :]


def random_preshape(seed: int, k: int = 4, m: int = 2):
    rng = np.random.default_rng(seed)
    return helmertize(rng.normal(size=(k, m)))


def random_horizontal_k(x, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = horizontal_project_k(x, rng.normal(size=x.mat.shape))
    return w / np.linalg.norm(w)


@pytest.fixture(scope="session")
def square_zr() -> ZRShape:
    return contour_to_zr(square_contour())


@pytest.fixture(scope="session")
def rect_zr() -> ZRShape:
    return contour_to_zr(rectangle_sixgon())


@pytest.fixture(scope="session")
def hex_zr() -> ZRShape:
    return contour_to_zr(hexagon_sixgon())
