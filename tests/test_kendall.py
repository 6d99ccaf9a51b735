"""Kendall pre-shape sphere, Procrustes alignment, quotient transport."""

import logging
import math
import tracemalloc
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import oracles as orc
from conftest import random_horizontal_k, random_preshape
from shape_transport import (
    AlignmentAmbiguityError,
    DegenerateContourError,
    DimensionMismatchError,
    GeodesicPath,
    NumericalError,
    ParseError,
    PreShape,
    exp_kendall,
    geodesic_kendall,
    helmert_submatrix,
    helmertize,
    horizontal_project_k,
    preshape_from_dict,
    preshape_to_dict,
    procrustes_align,
    transport_kendall,
    unhelmertize,
)
from shape_transport.kendall import _excluded_frame, inner_k
from shape_transport.paths import cubic_spline


def _rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, s], [-s, c]])


class TestHelmert:
    def test_columns_orthonormal(self):
        for k in (2, 3, 5, 8):
            h = helmert_submatrix(k)
            assert np.abs(h.T @ h - np.eye(k - 1)).max() < 1e-14

    def test_columns_centered(self):
        h = helmert_submatrix(6)
        assert np.abs(h.sum(axis=0)).max() < 1e-14

    def test_k3_literals(self):
        h = helmert_submatrix(3)
        r2, r6 = 1 / np.sqrt(2), 1 / np.sqrt(6)
        expect = np.array([[r2, r6], [-r2, r6], [0.0, -2 * r6]])
        assert np.abs(h - expect).max() < 1e-15

    def test_too_few_landmarks(self):
        with pytest.raises(DimensionMismatchError):
            helmert_submatrix(1)


class TestHelmertize:
    def test_unit_norm(self):
        p = random_preshape(1, k=6, m=3)
        assert np.linalg.norm(p.mat) == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 2))
        shifted = x + np.array([3.0, -7.0])
        assert np.abs(helmertize(x).mat - helmertize(shifted).mat).max() < 1e-12

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 2))
        assert np.abs(helmertize(x).mat - helmertize(4.2 * x).mat).max() < 1e-12

    def test_rotation_equivariant(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2))
        g = _rot(0.8)
        assert np.abs(helmertize(x @ g).mat - helmertize(x).mat @ g).max() < 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateContourError):
            helmertize(np.ones((4, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_landmark_refused(self, bad):
        # NaN used to give a NaN pre-shape, inf "all landmarks coincide"
        x = np.random.default_rng(6).normal(size=(5, 2))
        x[2, 1] = bad
        with pytest.raises(ParseError, match="non-finite"):
            helmertize(x)

    def test_not_a_k_by_m_array(self):
        for bad in (np.zeros(4), np.zeros((1, 2))):
            with pytest.raises(DimensionMismatchError, match="k x m array"):
                helmertize(bad)

    def test_roundtrip_through_centered_representative(self):
        p = random_preshape(5, k=4, m=2)
        rep = unhelmertize(p)
        assert np.abs(rep.sum(axis=0)).max() < 1e-12
        again = helmertize(rep)
        assert np.abs(again.mat - p.mat).max() < 1e-12


class TestRegularity:
    def test_planar_generic(self):
        p = random_preshape(6, k=4, m=2)
        assert _excluded_frame(2, p.flat)[0].shape == (2, 6)

    def test_collinear_in_3d_not_regular(self):
        # a rotation about the line fixes the configuration: an orbit row vanishes
        pts = np.outer(np.arange(4.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(NumericalError):
            _excluded_frame(3, helmertize(pts).flat)


class TestProcrustes:
    def test_matches_scan_oracle(self):
        x = random_preshape(7, k=5)
        y = random_preshape(8, k=5)
        g, ya = procrustes_align(x, y)
        ang, sq_resid = orc.procrustes_scan(x.mat, y.mat)
        assert np.sum((ya.mat - x.mat) ** 2) == pytest.approx(sq_resid, abs=1e-6)
        assert np.abs(y.mat @ _rot(ang) - ya.mat).max() < 1e-4

    def test_returns_proper_rotation(self):
        x = random_preshape(9, k=4)
        y = random_preshape(10, k=4)
        g, _ = procrustes_align(x, y)
        assert np.abs(g @ g.T - np.eye(2)).max() < 1e-12
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)

    def test_no_better_rotation(self):
        x = random_preshape(11, k=4)
        y = random_preshape(12, k=4)
        _, ya = procrustes_align(x, y)
        best = np.linalg.norm(ya.mat - x.mat)
        for a in np.linspace(0, 2 * np.pi, 37):
            assert np.linalg.norm(y.mat @ _rot(a) - x.mat) >= best - 1e-12

    def test_already_aligned_fixed(self):
        x = random_preshape(13, k=4)
        g, xa = procrustes_align(x, x)
        assert np.abs(g - np.eye(2)).max() < 1e-10
        assert np.abs(xa.mat - x.mat).max() < 1e-12

    def test_vanishing_cross_covariance(self):
        x = PreShape(2, np.array([[1.0, 0.0], [0.0, 0.0]]))
        y = PreShape(2, np.array([[0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(AlignmentAmbiguityError):
            procrustes_align(x, y)

    def test_tied_reflection_optimum(self):
        r2 = 1 / np.sqrt(2)
        x = PreShape(2, np.array([[r2, 0.0], [0.0, r2]]))
        y = PreShape(2, np.array([[r2, 0.0], [0.0, -r2]]))
        with pytest.raises(AlignmentAmbiguityError):
            procrustes_align(x, y)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            procrustes_align(random_preshape(1, k=4), random_preshape(2, k=5))


def _orbit_rows(p):
    """The rotation-orbit rows of the package's excluded frame at p, as
    matrices."""
    return _excluded_frame(p.m, p.flat)[0][1:].reshape(-1, p.k - 1, p.m)


class TestVertical:
    def test_orthonormal(self):
        # the duals are biorthonormal to the excluded rows, and the
        # horizontal projection removes each orbit direction
        p = random_preshape(20, k=6, m=3)
        rows, duals, _ = _excluded_frame(3, p.flat)
        assert rows.shape == duals.shape == (4, 15)
        assert np.abs(duals @ rows.T - np.eye(4)).max() < 1e-12
        for b in _orbit_rows(p):
            assert np.abs(horizontal_project_k(p, b)).max() < 1e-12

    def test_planar_single_direction(self):
        p = random_preshape(21, k=4, m=2)
        basis = _orbit_rows(p)
        assert len(basis) == 1
        spin = p.mat @ np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.abs(basis[0] - spin).max() < 1e-15
        assert np.abs(horizontal_project_k(p, spin)).max() < 1e-12

    def test_batched_matches_pointwise(self):
        ps = [random_preshape(s, k=6, m=3) for s in (24, 25)]
        batched = _excluded_frame(3, np.stack([p.flat for p in ps]))[:2]
        assert [x.shape for x in batched] == [(2, 4, 15)] * 2
        for i, p in enumerate(ps):
            for b, one in zip(batched, _excluded_frame(3, p.flat)):
                assert np.abs(b[i] - one).max() < 1e-15 * np.abs(one).max()

    def test_tangent_to_sphere(self):
        p = random_preshape(23, k=5, m=2)
        for b in _orbit_rows(p):
            assert abs(inner_k(b, p.mat)) < 1e-12


class TestHorizontal:
    def test_projection_is_horizontal(self):
        x = random_preshape(30, k=5)
        rng = np.random.default_rng(31)
        w = horizontal_project_k(x, rng.normal(size=x.mat.shape))
        assert orc.is_horizontal(x, w, tol=1e-10)

    def test_idempotent(self):
        x = random_preshape(30, k=5)
        w = random_horizontal_k(x, 32)
        assert np.abs(horizontal_project_k(x, w) - w).max() < 1e-12

    def test_horizontality_is_symmetric_cross_covariance(self):
        # for planar landmarks: w horizontal iff x^T w is symmetric and
        # w is sphere-tangent
        x = random_preshape(33, k=6)
        w = random_horizontal_k(x, 34)
        sym = x.mat.T @ w
        assert np.abs(sym - sym.T).max() < 1e-10


class TestGeodesic:
    def test_endpoints(self):
        x, y = random_preshape(40, k=5), random_preshape(41, k=5)
        _, ya = procrustes_align(x, y)
        path = geodesic_kendall(x, y)
        assert np.abs(path.points[0] - x.flat).max() < 1e-12
        assert np.abs(path.points[-1] - ya.flat).max() < 1e-12

    def test_samples_on_unit_sphere(self):
        x, y = random_preshape(40, k=5), random_preshape(41, k=5)
        path = geodesic_kendall(x, y)
        norms = np.linalg.norm(path.points, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_matches_slerp_oracle(self):
        x, y = random_preshape(42, k=6), random_preshape(43, k=6)
        _, ya = procrustes_align(x, y)
        path = geodesic_kendall(x, y)
        for i, t in enumerate(path.ts):
            ref = orc.slerp(x.flat, ya.flat, t / path.T)
            assert np.abs(path.points[i] - ref).max() < 1e-12

    def test_unit_speed(self):
        x, y = random_preshape(44, k=4), random_preshape(45, k=4)
        path = geodesic_kendall(x, y)
        assert np.linalg.norm(path.v0) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(path.v_end) == pytest.approx(1.0, abs=1e-12)

    def test_initial_velocity_horizontal(self):
        x, y = random_preshape(46, k=5), random_preshape(47, k=5)
        path = geodesic_kendall(x, y)
        assert orc.is_horizontal(x, path.v0.reshape(x.mat.shape), tol=1e-8)

    def test_distance_symmetric(self):
        x, y = random_preshape(48, k=5), random_preshape(49, k=5)
        assert geodesic_kendall(x, y).T == pytest.approx(
            geodesic_kendall(y, x).T, abs=1e-12)

    def test_distance_bounded_by_quarter_circle(self):
        for seed in range(5):
            x = random_preshape(50 + seed, k=4)
            y = random_preshape(60 + seed, k=4)
            assert geodesic_kendall(x, y).T <= np.pi / 2 + 1e-12

    def test_same_shape_zero(self):
        x = random_preshape(70, k=4)
        spun = PreShape(2, x.mat @ _rot(1.1))
        path = geodesic_kendall(x, spun)
        assert path.T == 0.0 and path.n_samples == 1

    def test_sample_count_validation(self):
        x, y = random_preshape(40, k=5), random_preshape(41, k=5)
        with pytest.raises(ValueError):
            geodesic_kendall(x, y, n_samples=1)


class TestExp:
    def test_reproduces_bvp_geodesic(self):
        x, y = random_preshape(80, k=5), random_preshape(81, k=5)
        path = geodesic_kendall(x, y)
        shot = exp_kendall(x, path.v0, path.T, n_samples=path.n_samples)
        assert np.abs(shot.points - path.points).max() < 1e-12

    def test_nonhorizontal_rejected(self):
        x = random_preshape(82, k=4)
        with pytest.raises(ValueError):
            exp_kendall(x, x.mat @ np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.5)

    def test_zero_velocity_constant(self):
        x = random_preshape(83, k=4)
        path = exp_kendall(x, np.zeros_like(x.mat), 1.0)
        assert path.T == 0.0 and path.n_samples == 1

    def test_bad_samples_and_times_rejected(self):
        # one sample would make a moving shot a point that transports
        # nothing; a negative or non-finite T has no great-circle arc
        x = random_preshape(86, k=4)
        v = random_horizontal_k(x, 87)
        with pytest.raises(ValueError, match="need at least 2 samples"):
            exp_kendall(x, v, 1.0, n_samples=1)
        for big_t in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="T must be finite and nonnegative"):
                exp_kendall(x, v, big_t)

    def test_speed_scaling(self):
        # doubling the velocity halves the time to reach the same point
        x = random_preshape(84, k=5)
        v = random_horizontal_k(x, 85)
        a = exp_kendall(x, v, 0.6)
        b = exp_kendall(x, 2.0 * v, 0.3)
        assert np.abs(a.points[-1] - b.points[-1]).max() < 1e-12


class TestTransport:
    def _case(self, seed, k=5):
        x = random_preshape(seed, k=k)
        y = random_preshape(seed + 500, k=k)
        path = geodesic_kendall(x, y)
        w = random_horizontal_k(x, seed + 900)
        return path, w

    def test_closed_form_matches_ode(self):
        for seed in (90, 91, 92):
            path, w = self._case(seed)
            ode = transport_kendall(path, w)
            closed = orc.transport_kendall_m2(path, w)
            assert np.abs(ode.w_end - closed).max() < 1e-6

    def test_isometry(self):
        path, w = self._case(95)
        res = transport_kendall(path, w)
        assert np.linalg.norm(res.w_end) == pytest.approx(
            np.linalg.norm(w), abs=1e-9)

    def test_round_trip(self):
        path, w = self._case(96)
        res = transport_kendall(path, w)
        back = transport_kendall(path.reversed(), res.w_end)
        assert np.abs(back.w_end - w.ravel()).max() < 1e-6

    def test_velocity_self_transport(self):
        path, _ = self._case(97)
        res = transport_kendall(path, path.v0)
        assert np.abs(res.w_end - path.v_end).max() < 1e-6

    def test_result_horizontal_at_end(self):
        path, w = self._case(98)
        res = transport_kendall(path, w)
        end = PreShape(2, path.points[-1].reshape(-1, 2))
        assert orc.is_horizontal(end, res.w_end.reshape(end.mat.shape), tol=1e-8)

    def test_planar_matches_closed_form_tightly(self):
        # with exact frame rates the ODE lands on the closed form to rounding
        for seed in (120, 121, 122, 123, 124):
            path, w = self._case(seed)
            gap = transport_kendall(path, w).w_end - orc.transport_kendall_m2(path, w)
            assert np.linalg.norm(gap) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_memo_route_matches_fresh_integration(self, m):
        x = random_preshape(160, k=6, m=m)
        path = geodesic_kendall(x, random_preshape(161, k=6, m=m))
        for j in range(4):  # integration, matrix, then products
            w = random_horizontal_k(x, 170 + j)
            fresh = GeodesicPath("kendall", path.T, path.ts, path.points, path.v0,
                                 path.v_end, base=path.base)
            got, ref = transport_kendall(path, w), transport_kendall(fresh, w)
            assert np.linalg.norm(got.w_end - ref.w_end) <= 1e-13 * np.linalg.norm(w)
            assert abs(got.norm_drift - ref.norm_drift) <= 1e-14
        assert path._transports[("kendall", 256)][1] != ()

    def test_collinear_configuration_raises(self):
        # the great circle passes a collinear 3-D configuration at its middle
        # sample, where the rotation orbit loses a dimension
        x = helmertize(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                 [2.5, 0.0, 0.0], [4.0, 0.0, 0.0]])).flat
        y = random_preshape(125, k=4, m=3).flat
        v = y - (y @ x) * x
        v /= np.linalg.norm(v)
        ts = np.linspace(0.0, 0.6, 33)
        pts = (np.cos(ts - 0.3)[:, None] * x[None, :]
               + np.sin(ts - 0.3)[:, None] * v[None, :])
        base = PreShape(3, pts[0].reshape(3, 3))
        path = GeodesicPath("kendall", 0.6, ts, pts, np.zeros(9), np.zeros(9),
                            base=base)
        # the composing first call keeps nothing, so the next fails the same way
        for _ in range(2):
            with pytest.raises(NumericalError, match="configuration is not regular"):
                transport_kendall(path, random_horizontal_k(base, 126))
            assert path._transports == {}

    def test_nonfinite_vector_rejected(self):
        path = _great_circle(136, 5, 2)
        w = random_horizontal_k(path.base, 137).ravel().copy()
        w[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            transport_kendall(path, w)

    def test_zr_path_rejected(self):
        from conftest import random_sigma_shape, random_tangent
        from shape_transport import exp_map
        base = random_sigma_shape(104)
        zp = exp_map(base, random_tangent(base, 105), 0.2)
        with pytest.raises(ValueError):
            transport_kendall(zp, np.zeros(201))


def _great_circle(seed, k, m, big_t=1.2, n_samples=33):
    """A horizontal great circle of length big_t from a random pre-shape."""
    x = random_preshape(seed, k=k, m=m)
    return exp_kendall(x, random_horizontal_k(x, seed + 1), big_t, n_samples)


def _orbit_span(points, m):
    """Orthonormal rows spanning the points and their rotation-orbit images."""
    n = len(points)
    images = [points]
    for i, j in combinations(range(m), 2):
        e = np.zeros((m, m))
        e[i, j], e[j, i] = 1.0, -1.0
        images.append((points.reshape(n, -1, m) @ e).reshape(n, -1))
    _, sv, vt = np.linalg.svd(np.concatenate(images), full_matrices=False)
    return vt[sv > 1e-10 * sv[0]]


class TestSubspaceTransport:
    """Transport runs in the span S of the path's samples and their orbit
    images; the part of a vector orthogonal to S stays as it is."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [4, 12, 50])
    def test_matches_full_space_loop(self, k, m):
        path = _great_circle(10 * k + m, k, m)
        w = random_horizontal_k(path.base, 10 * k + m + 2).ravel()
        got = transport_kendall(path, w)
        ref, ref_drift = orc.transport_rk4_loop(path, w, partial(orc.kendall_frame, m),
                                                np.ones(w.size), 256)
        assert np.linalg.norm(got.w_end - ref) <= 1e-12 * np.linalg.norm(ref)
        assert abs(got.norm_drift - ref_drift) <= 1e-14

    def test_vector_orthogonal_to_the_span_is_unchanged(self):
        path = _great_circle(180, 12, 3)
        span = _orbit_span(path.points, 3)
        assert span.shape[0] == 8
        w = np.random.default_rng(189).normal(size=path.points.shape[1])
        w -= (w @ span.T) @ span
        w /= np.linalg.norm(w)
        for _ in range(3):  # integration, matrix, product
            assert np.abs(transport_kendall(path, w).w_end - w).max() <= 1e-15

    @pytest.mark.parametrize("k, m", [(12, 2), (50, 3)])
    def test_non_geodesic_path_matches_full_space_loop(self, k, m):
        # perturbed, renormalized samples span more than one great circle's S
        circle = _great_circle(190 + m, k, m, n_samples=9)
        rng = np.random.default_rng(192 + m)
        pts = circle.points + 0.05 * rng.normal(size=circle.points.shape)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        base = PreShape(m, pts[0].reshape(-1, m))
        path = GeodesicPath("kendall", circle.T, circle.ts, pts, circle.v0, circle.v_end,
                            base=base)
        # wider than one fused step's rank 3k: the loop route, which keeps no
        # matrix after the first transport; the span is taken even where it
        # saves few of the d coordinates (k = 12: 18 of 22)
        r, d = _orbit_span(pts, m).shape
        assert 3 * (1 + m * (m - 1) // 2) < r < d and (2 * r > d) == (k == 12)
        w = random_horizontal_k(base, 194 + m).ravel()
        ref, _ = orc.transport_rk4_loop(path, w, partial(orc.kendall_frame, m),
                                        np.ones(w.size), 256)
        for j in range(3):  # integration, matrix, product
            got = transport_kendall(path, w).w_end
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
            assert (path._transports[("kendall", 256)][1] == ()) == (j == 0)
        route, (_, stack) = path._transports[("kendall", 256)]
        assert route.into.shape == (d, r) and stack.shape == (1, r, r)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_kept_matrix_is_the_span_size(self, m):
        # a great circle's span (2 + m(m-1)) is no wider than one fused step's
        # rank 3 (1 + m(m-1)/2), so its first transport composes the step maps
        # and keeps the matrix
        path = _great_circle(200 + m, 12, m)
        transport_kendall(path, random_horizontal_k(path.base, 203))
        r = 2 + m * (m - 1)
        assert path._transports[("kendall", 256)][1][1].shape == (1, r, r)
        for j in range(2):  # products of the kept matrix
            w = random_horizontal_k(path.base, 204 + j).ravel()
            ref, ref_drift = orc.transport_rk4_loop(path, w, partial(orc.kendall_frame, m),
                                                    np.ones(w.size), 256)
            got = transport_kendall(path, w)
            assert np.linalg.norm(got.w_end - ref) <= 1e-12 * np.linalg.norm(ref)
            # both drifts are rounding, about 1e-14 on unit vectors
            assert abs(got.norm_drift - ref_drift) <= 1e-13

    def test_first_transport_solves_no_spline(self, monkeypatch):
        # the span's spline is the path's own pieces times B, not a second solve
        import shape_transport.paths as paths_mod
        path = _great_circle(250, 24, 3)
        calls, solve = [], paths_mod.cubic_spline
        monkeypatch.setattr(paths_mod, "cubic_spline", lambda *a: calls.append(a) or solve(*a))
        transport_kendall(path, random_horizontal_k(path.base, 251))
        assert path._transports[("kendall", 256)][1] != () and calls == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_span_pieces_are_the_span_samples_spline(self, m):
        path = _great_circle(260 + m, 24, m)
        transport_kendall(path, random_horizontal_k(path.base, 262))
        route, _ = path._transports[("kendall", 256)]
        # the span's spline data, the path's samples and knot slopes carried
        # into the span, against the span samples and their own spline's
        # slopes: the samples agree exactly, the slopes to rounding
        samples = path.points @ route.into
        for got, want in zip(route.on, (samples, cubic_spline(path.ts, samples))):
            assert got.shape == want.shape == samples.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(route.on[0], samples)

    def test_composed_route_keeps_its_checks(self, monkeypatch):
        import shape_transport.paths as paths_mod
        path = _great_circle(240, 12, 3)
        w = random_horizontal_k(path.base, 241).ravel()
        vertical = w + 0.1 * path.points[0]  # a component along the sphere normal
        for route in ("composition", "product"):
            with pytest.raises(ValueError, match="excluded directions at the path start"):
                transport_kendall(path, vertical)
            assert (path._transports.get(("kendall", 256)) is None) == (route != "product")
            with monkeypatch.context() as patched:
                patched.setattr(paths_mod, "_DRIFT_LIMIT", -1.0)
                with pytest.raises(NumericalError, match="refine the path sampling"):
                    transport_kendall(path, w)
            assert path._transports[("kendall", 256)][1] != ()

    def test_first_transport_allocates_little(self):
        # the full-space route traced a 21 MB peak here
        path = _great_circle(210, 50, 3)
        w = random_horizontal_k(path.base, 212)
        tracemalloc.start()
        try:
            transport_kendall(path, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("m, r", [(2, 4), (3, 8)])
    def test_debug_line_gives_the_dimensions(self, caplog, m, r):
        path = _great_circle(220 + m, 12, m)
        with caplog.at_level(logging.DEBUG, logger="shape_transport"):
            transport_kendall(path, random_horizontal_k(path.base, 223))
        lines = [r.getMessage() for r in caplog.records if r.name == "shape_transport"]
        assert len(lines) == 1
        assert f"1 rows in {r} of {11 * m} dimensions" in lines[0]


class TestSerialization:
    def test_roundtrip(self):
        p = random_preshape(110, k=5, m=3)
        back = preshape_from_dict(preshape_to_dict(p))
        assert back.m == p.m and back.k == p.k
        assert np.array_equal(back.mat, p.mat)

    def test_k_mismatch(self):
        d = preshape_to_dict(random_preshape(111, k=5))
        d["k"] = 7
        with pytest.raises(DimensionMismatchError):
            preshape_from_dict(d)

    def test_m_mismatch(self):
        d = preshape_to_dict(random_preshape(112, k=5))
        d["m"] = 3
        with pytest.raises(DimensionMismatchError, match=r"expected a \(k-1\) x 3 matrix"):
            preshape_from_dict(d)

    def test_non_unit_norm_refused(self):
        # a norm-5 matrix used to load, and shooting from it then failed
        # with a misleading horizontality error
        with pytest.raises(ParseError, match="unit Frobenius norm"):
            preshape_from_dict({"m": 2, "k": 3, "mat": [[3.0, 0.0], [0.0, 4.0]]})
        d = preshape_to_dict(random_preshape(114, k=5))
        d["mat"] = [[(1.0 + 1e-8) * x for x in row] for row in d["mat"]]
        with pytest.raises(ParseError, match="unit Frobenius norm"):
            preshape_from_dict(d)

    def test_non_finite_mat_refused(self):
        d = preshape_to_dict(random_preshape(113, k=5))
        d["mat"][2][1] = math.nan
        with pytest.raises(ParseError, match="pre-shape mat holds a non-finite number"):
            preshape_from_dict(d)
