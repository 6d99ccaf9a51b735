"""The crossing test and the diameter against their all-pairs references."""

import time
import tracemalloc

import numpy as np
import pytest

import oracles as orc
from shape_transport.contour_io import diameter
from shape_transport.polygons import self_intersects


def _random_polygon(rng, n):
    return rng.normal(size=(n, 2))


def _star_polygon(rng, n):
    phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    r = rng.uniform(0.3, 1.0, n)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def _grid_polygon(rng, n):
    # small integer grid: collinear, touching and repeated vertices abound
    return rng.integers(0, 5, size=(n, 2)).astype(float)


BUILDERS = (_random_polygon, _star_polygon, _grid_polygon)


def _convex_contour(n=8192):
    t = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(t), 0.6 * np.sin(t)], axis=1)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSelfIntersects:
    @pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__[1:])
    def test_agrees_with_all_pairs(self, build):
        rng = np.random.default_rng([7, BUILDERS.index(build)])
        got, want = [], []
        for _ in range(300):
            p = build(rng, int(rng.integers(4, 40)))
            got.append(self_intersects(p))
            want.append(orc.self_intersects(p))
        assert got == want
        assert 0 < sum(want) < len(want)  # both answers occur

    def test_agrees_on_offset_and_scaled_copies(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = 1e3 * _star_polygon(rng, 30) + rng.uniform(-1e4, 1e4, 2)
            p[rng.integers(30)] *= 1.3  # a spike, which mostly crosses an edge
            assert self_intersects(p) == orc.self_intersects(p)

    def test_touching_edges_do_not_cross(self):
        # a vertex on another edge and two collinear overlapping edges
        bowtie_touch = np.array([[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]], float)
        assert self_intersects(bowtie_touch) is orc.self_intersects(bowtie_touch) is False
        figure_eight = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], float)
        assert self_intersects(figure_eight) is True

    def test_convex_contour_without_pair_arrays(self):
        c = _convex_contour()
        t0 = time.perf_counter()
        assert self_intersects(c) is False
        assert time.perf_counter() - t0 < 0.5
        # one 8192 x 8192 float array would be 512 MiB
        assert _peak_bytes(self_intersects, c) < 16 * 2**20


class TestDiameter:
    @pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__[1:])
    def test_exact_against_all_pairs(self, build):
        rng = np.random.default_rng([13, BUILDERS.index(build)])
        for _ in range(200):
            p = build(rng, int(rng.integers(1, 60)))
            assert diameter(p) == orc.diameter_pairwise(p)

    def test_exact_above_2048_points(self):
        rng = np.random.default_rng(17)
        p = np.concatenate([_star_polygon(rng, 2500), rng.normal(size=(500, 2))])
        assert diameter(p) == orc.diameter_pairwise(p)

    def test_convex_contour_without_pair_arrays(self):
        c = _convex_contour()
        assert diameter(c) == orc.diameter_pairwise(c)
        assert _peak_bytes(diameter, c) < 16 * 2**20

    def test_degenerate_point_sets(self):
        assert diameter(np.ones((5, 2))) == 0.0
        line = np.stack([np.arange(7.0), 2.0 * np.arange(7.0)], axis=1)
        assert diameter(line) == orc.diameter_pairwise(line)
