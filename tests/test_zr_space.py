"""Coefficient-space metric, constraint projection, quotient machinery."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from conftest import random_sigma_shape, random_tangent
from shape_transport import (
    Contour,
    DimensionMismatchError,
    NumericalError,
    ParseError,
    SingularShapeError,
    ZRShape,
    align_initial_point,
    closure_map,
    contour_to_zr,
    horizontal_project,
    project_tangent,
    project_to_sigma,
    shape_from_dict,
    shape_to_dict,
    shift_initial_point,
)
from shape_transport import zr_space
from shape_transport.paths import gram_factor, gram_solve
from shape_transport.zr_space import (
    eval_on_grid,
    inner_raw,
    norm_raw,
    project_to_sigma_batch,
)


class TestMetric:
    def test_parseval_first_harmonic(self):
        v = np.zeros(201)
        v[1] = 1.0
        assert inner_raw(v, v) == pytest.approx(0.5)

    def test_x0_full_weight(self):
        v = np.zeros(201)
        v[0] = 2.0
        assert inner_raw(v, v) == pytest.approx(4.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_positive_definite(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=201)
        assert inner_raw(v, v) > 0.0

    def test_agrees_with_function_space_quadrature(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=201) / np.arange(1, 202)
        v = rng.normal(size=201) / np.arange(1, 202)
        s = 2.0 * np.pi * np.arange(4096) / 4096
        quad = np.mean(orc.eval_series(u, s) * orc.eval_series(v, s))
        assert inner_raw(u, v) == pytest.approx(quad, abs=1e-12)


class TestProjection:
    def test_postconditions(self):
        rng = np.random.default_rng(3)
        raw = ZRShape(100, rng.normal(size=201) * 0.3 /
                      np.concatenate([[1.0], np.repeat(np.arange(1, 101), 2)]))
        sh = project_to_sigma(raw)
        assert abs(closure_map(sh)) < 1e-9
        assert sh.coeffs[0] == pytest.approx(-sh.coeffs[1::2].sum(), abs=1e-10)

    def test_idempotent(self):
        sh = random_sigma_shape(11)
        again = project_to_sigma(sh)
        assert np.abs(again.coeffs - sh.coeffs).max() < 1e-9

    def test_keeps_metadata(self):
        sh = ZRShape(100, np.zeros(201), length=5.0, base_angle=0.3)
        out = project_to_sigma(sh)
        assert out.length == 5.0 and out.base_angle == 0.3

    @staticmethod
    def _far_rows(seed=5, scale=1.0):
        # far from the manifold: two undamped Gauss-Newton steps leave a row 5.2e-3 off
        rng = np.random.default_rng(seed)
        n = np.concatenate([[1.0], np.repeat(np.arange(1, 101), 2)])
        return rng.normal(size=(8, 201)) * 0.6 * scale / n

    @staticmethod
    def _worst_residual(row):
        psi = closure_map(row)
        return max(abs(psi.real), abs(psi.imag), abs(row[0] + row[1::2].sum()))

    def test_batch_converges_on_far_rows(self):
        # plain Gauss-Newton, no step control, also from rows up to five
        # times farther out
        for seed, scale in [(5, 1.0)] + list(product([5, 17, 29], [0.6, 2.0, 5.0])):
            out = project_to_sigma_batch(self._far_rows(seed, scale))
            assert max(self._worst_residual(row) for row in out) <= 1e-10

    def test_batch_matches_per_row(self):
        rows = self._far_rows()
        out = project_to_sigma_batch(rows)
        for row, got in zip(rows, out):
            assert np.abs(project_to_sigma(row).coeffs - got).max() <= 1e-14

    @pytest.mark.parametrize("n_harm", [20, 600])
    @pytest.mark.parametrize("contour", ["thin_rectangle", "notched_star", "leaf"])
    def test_undamped_steps_converge_on_hard_ingests(self, contour, n_harm):
        # a 1:1000 rectangle, a 12-point star notched to depth 0.99 and a
        # serrated 5000-vertex leaf.  Each lacks a centre of symmetry (a cut
        # corner, uneven tips, a cos 3t lobe): a centrally symmetric polygon's
        # raw coefficients are already closed, and the projector would not
        # take a step
        if contour == "thin_rectangle":
            pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 5e-4], [0.9995, 1e-3],
                            [0.0, 1e-3]])
        elif contour == "notched_star":
            t = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
            t += 0.08 * np.sin(3.0 * t)
            radius = np.where(np.arange(24) % 2 == 0, 1.0 + 0.2 * np.cos(t), 0.01)
            pts = np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1)
        else:
            t = np.linspace(0.0, 2.0 * np.pi, 5000, endpoint=False)
            radius = (1.0 + 0.3 * np.cos(2.0 * t) + 0.15 * np.cos(3.0 * t)
                      + 0.04 * np.cos(60.0 * t))
            pts = np.stack([0.6 * radius * np.cos(t), radius * np.sin(t)], axis=1)
        sh = contour_to_zr(Contour(pts), n_harmonics=n_harm)
        assert self._worst_residual(sh.coeffs) <= 1e-10

    def test_one_row_singular_system_raises_with_history(self, monkeypatch):
        # a vanishing closure normal, from the first or the second
        # evaluation on, leaves one row's 3x3 Gram singular.  The frame is
        # checked in the closure step, before its residual is recorded, so
        # the history holds the residuals of the steps before it
        grids = zr_space._closure_grids
        for first in (1, 2):
            seen = []

            def no_cos(points, along=None):
                seen.append(1)
                (cos_a, sin_a), theta_dot = grids(points, along)
                return (cos_a * (len(seen) < first), sin_a), theta_dot

            monkeypatch.setattr(zr_space, "_closure_grids", no_cos)
            with pytest.raises(NumericalError, match="degenerate constraint frame") as info:
                project_to_sigma_batch(self._far_rows()[0])
            assert len(info.value.history) == first - 1

    @pytest.mark.parametrize("horizontal", [False, True])
    def test_accepted_frame_is_the_constraint_frame(self, horizontal):
        # the projector returns the excluded frame (R, Q, Q') of the
        # evaluation it accepts: constraint_frame at its point, along w
        rng = np.random.default_rng(3)
        base = random_sigma_shape(2).coeffs
        w = rng.normal(size=base.shape)
        got, frame = zr_space._project_along(base + 1e-3 * rng.normal(size=base.shape), w,
                                             horizontal)
        assert self._worst_residual(got) <= 1e-10
        want = zr_space.constraint_frame(got, w, horizontal)
        assert len(frame) == 3 and frame[0].shape[0] == 3 + horizontal
        for x, y in zip(frame, want):
            assert np.abs(x - y).max() <= 1e-14 * np.abs(y).max()

    def test_batch_raises_when_not_converged(self, monkeypatch):
        monkeypatch.setattr(zr_space, "_PROJ_MAXITER", 1)
        with pytest.raises(NumericalError) as info:
            project_to_sigma_batch(self._far_rows())
        assert len(info.value.history) > 0


class TestClosureBlocks:
    """The closure step evaluates at most _BLOCK rows per pass; a blocked
    call equals one pass over all rows bit for bit."""

    @staticmethod
    def _rows(m, seed=3):
        rng = np.random.default_rng(seed)
        base = random_sigma_shape(2).coeffs
        return base + 1e-3 * rng.normal(size=(m, base.size)), rng.normal(size=(m, base.size))

    @pytest.mark.parametrize("horizontal", [False, True])
    @pytest.mark.parametrize("along", ["none", "broadcast", "per_row"])
    @pytest.mark.parametrize("m", [1, 31, 32, 33, 97])
    def test_blocks_change_no_result(self, m, along, horizontal, monkeypatch):
        rows, vel = self._rows(m)
        w = {"none": None, "broadcast": vel[0], "per_row": vel}[along]
        got = zr_space._closure_step(rows, w, horizontal)
        monkeypatch.setattr(zr_space, "_BLOCK", 10 ** 6)  # one pass
        want = zr_space._closure_step(rows, w, horizontal)
        got, want = got[:2] + got[2], want[:2] + want[2]  # res, step, R, Q, Q'
        assert [x is None for x in got] == [x is None for x in want] == [False] * 4 + [
            along == "none"]
        for x, y in zip(got, want):
            assert x is None or np.array_equal(x, y)

    @pytest.mark.parametrize("block", [32, 10 ** 6])
    def test_degenerate_row_in_second_block_raises_with_history(self, block, monkeypatch):
        rows, _ = self._rows(97)
        bad, grids, passes = rows[40], zr_space._closure_grids, []

        def no_cos(points, along=None):
            passes.append(len(points))
            (cos_a, sin_a), theta_dot = grids(points, along)
            cos_a[(points == bad).all(axis=-1)] = 0.0
            return (cos_a, sin_a), theta_dot

        monkeypatch.setattr(zr_space, "_BLOCK", block)
        monkeypatch.setattr(zr_space, "_closure_grids", no_cos)
        with pytest.raises(NumericalError, match="degenerate constraint frame") as info:
            zr_space._closure_step(rows, None, False, [0.5, 0.25])
        assert info.value.history == [0.5, 0.25]
        assert passes == ([32, 32] if block == 32 else [97])

    @pytest.mark.parametrize("horizontal", [False, True])
    def test_empty_batch(self, horizontal):
        empty = np.empty((0, 201))
        assert project_to_sigma_batch(empty).shape == (0, 201)
        frame = zr_space.constraint_frame(empty, np.zeros(201), horizontal)
        assert [x.shape for x in frame] == [(0, 3 + horizontal, 201)] * 3


class TestClosureNormals:
    @staticmethod
    def _check_against_oracle(c, m):
        # the projector's residuals and representers, against direct trig
        # sums on an own m-point grid
        n_harm = (len(c) - 1) // 2
        v1, v2 = zr_space._closure_normals(c)
        s = 2.0 * np.pi * np.arange(m) / m
        psi = 2.0 * np.pi * np.mean(np.exp(1j * (orc.eval_series(c, s) + s)))
        assert abs(2.0 * np.pi * (v1[0] + 1j * v2[0]) - psi) <= 1e-12
        # a metric representer r maps to the Jacobian row r * weights; the
        # oracle differentiates Psi / (2 pi)
        w = zr_space._metric_weights(n_harm)
        rows = np.stack([-v2 * w, v1 * w, zr_space.g_vector(n_harm) * w])
        assert np.abs(rows - orc.zr_constraint_rows(c, m=m)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 5, 41])
    def test_matches_oracle_rows(self, seed):
        self._check_against_oracle(random_sigma_shape(seed).coeffs, 2048)

    def test_matches_oracle_rows_order_300(self):
        # built like conftest.random_sigma_shape, at N = 300 (grid 4096)
        n = 300
        decay = np.concatenate([[1.0], np.repeat(np.arange(1, n + 1), 2)]) ** 1.5
        raw = np.random.default_rng(3).normal(size=2 * n + 1) * 0.35 / decay
        self._check_against_oracle(project_to_sigma(ZRShape(n, raw)).coeffs, 8192)


class TestHalfAngleKernel:
    # cos and sin from one tan(a/2), against np.cos and np.sin

    @pytest.mark.parametrize("scale", [0.35, 1.0, 3.0])
    def test_normals_match_cos_sin_reference(self, scale):
        c = np.stack([random_sigma_shape(seed, scale).coeffs for seed in range(6)])
        a = eval_on_grid(c, 1024) + 2.0 * np.pi * np.arange(1024) / 1024
        got = zr_space._closure_normals(c)
        for normal, ref in zip(got, (np.cos(a), np.sin(a))):
            assert np.abs(normal - zr_space.coeffs_from_grid(ref, 100)).max() <= 1e-15

    def test_angles_near_odd_multiples_of_pi(self):
        # where tan(a/2) has its poles; (2k+1) pi stays within |a| <= 50
        odd = (2.0 * np.arange(-8, 8) + 1.0) * np.pi
        offsets = np.logspace(-16, 0, 65)
        a = (odd[:, None] + np.concatenate([-offsets, [0.0], offsets])).ravel()
        a = np.concatenate([a, np.nextafter(odd, 0.0), np.nextafter(odd, np.inf)])
        cos_a, sin_a = zr_space._cos_sin(a.copy())
        assert np.abs(cos_a - np.cos(a)).max() <= 1e-15
        assert np.abs(sin_a - np.sin(a)).max() <= 1e-15


class TestGridTransforms:
    # the spectrum is written through its float view; the complex formula
    # it replaces must give the same bits

    @pytest.mark.parametrize("shape", [(201,), (2, 201), (31, 201), (105, 2, 201)])
    def test_eval_on_grid_bit_identical_to_complex_spectrum(self, shape):
        c = np.random.default_rng(len(shape)).normal(size=shape)
        spec = np.zeros(shape[:-1] + (513,), dtype=complex)
        spec[..., 0] = c[..., 0]
        spec[..., 1:101] = 0.5 * (c[..., 1::2] - 1j * c[..., 2::2])
        old = np.fft.irfft(spec, n=1024, axis=-1, norm="forward")
        assert np.array_equal(eval_on_grid(c, 1024), old)


class TestSmallGramFactor:
    # paths.gram_factor on the k <= 4 excluded-row Grams

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lapack(self, k, seed):
        # rows of very different lengths: pivots against the reference
        # Gram-Schmidt, inverse and duals against LAPACK's solve
        rng = np.random.default_rng([k, seed])
        rows = rng.normal(size=(k, 9)) * np.logspace(0, 3, k)[:, None]
        gram, rhs = rows @ rows.T, rng.normal(size=k)
        factor, pivots = gram_factor(rows, 1.0)
        ref = orc.orthonormalize(rows, None, 1.0)[2]
        assert np.allclose(pivots, ref, rtol=1e-13, atol=0.0)
        solved = np.linalg.solve(gram, rhs)
        assert np.allclose(gram_solve(factor, rhs), solved, rtol=1e-11,
                           atol=1e-11 * np.abs(solved).max())
        duals = gram_solve(factor, rows)
        assert np.allclose(duals, np.linalg.solve(gram, rows), rtol=1e-11,
                           atol=1e-11 * np.abs(duals).max())

    def test_vanishing_row_reports_zero_pivot(self):
        # a vanishing row leaves a zero pivot, without a warning or a
        # division by zero, and the pivots keep finite values
        rows = np.random.default_rng(0).normal(size=(3, 5))
        rows[1] = 0.0
        pivots = gram_factor(rows, 1.0)[1]
        assert pivots[0] == pytest.approx(np.linalg.norm(rows[0]), rel=1e-15)
        assert pivots[1] == 0.0 and np.isfinite(pivots).all()

    def test_nan_gram_fails_the_pivot_checks(self):
        # a NaN in the rows (a diverging shot) gives a NaN pivot where it
        # reaches the diagonal, and the pivot checks read it as failed
        rows = np.random.default_rng(1).normal(size=(3, 5))
        rows[2, 3] = np.nan
        pivots = gram_factor(rows, 1.0)[1]
        assert pivots[0] > 0.0 and pivots[1] > 0.0 and np.isnan(pivots[2])
        with pytest.raises(NumericalError, match="degenerate constraint frame"):
            zr_space._checked(None, pivots, False)


class TestGridSize:
    def test_rule(self):
        # every order up to 127 keeps the 1024-point grid, so results there
        # do not depend on the rule; above it, 8*(N+1) points rounded up to
        # a power of two
        assert all(zr_space.grid_size(n) == 1024 for n in range(128))
        assert [zr_space.grid_size(n) for n in (128, 300, 511, 600)] == [
            2048, 4096, 4096, 8192]


class TestTangentProjection:
    def test_in_tangent_space(self):
        sh = random_sigma_shape(5)
        t = random_tangent(sh, 6)
        rows = orc.zr_constraint_rows(sh.coeffs)
        assert np.abs(rows @ t.coeffs).max() < 1e-8

    def test_idempotent(self):
        sh = random_sigma_shape(5)
        rng = np.random.default_rng(8)
        v = rng.normal(size=201)
        once = project_tangent(sh, v).coeffs
        twice = project_tangent(sh, once).coeffs
        assert np.abs(once - twice).max() < 1e-12

    def test_orthogonal_residual(self):
        # the removed part is metric-orthogonal to the kept part
        sh = random_sigma_shape(5)
        rng = np.random.default_rng(9)
        v = rng.normal(size=201)
        kept = project_tangent(sh, v).coeffs
        assert abs(inner_raw(v - kept, kept)) < 1e-10

    def test_matches_oracle(self):
        sh = random_sigma_shape(12)
        rng = np.random.default_rng(13)
        v = rng.normal(size=201)
        lib = project_tangent(sh, v).coeffs
        ref = orc.zr_project_tangent_oracle(sh.coeffs, v)
        assert np.abs(lib - ref).max() < 1e-8


class TestVertical:
    def test_first_harmonic_pattern(self):
        c = np.zeros(201)
        a, b = 0.3, 0.4
        c[1], c[2] = a, b
        u = zr_space._vertical_pattern(c)[0]
        expect = np.zeros(201)
        expect[1], expect[2] = b, -a
        expect /= norm_raw(expect)
        assert np.abs(u - expect).max() < 1e-12

    def test_unit_norm(self):
        u = zr_space._vertical_pattern(random_sigma_shape(21).coeffs)[0]
        assert norm_raw(u) == pytest.approx(1.0, abs=1e-12)

    def test_circle_singular(self):
        with pytest.raises(SingularShapeError):
            zr_space._vertical_pattern(np.zeros(201))


class TestHorizontalProject:
    def test_vertical_maps_to_zero(self):
        sh = random_sigma_shape(30)
        u = zr_space._vertical_pattern(sh.coeffs)[0]
        out = horizontal_project(sh, u)
        assert norm_raw(out.coeffs) < 1e-12

    def test_idempotent_on_horizontal(self):
        sh = random_sigma_shape(30)
        h = random_tangent(sh, 31, horizontal=True)
        again = horizontal_project(sh, h.coeffs)
        assert np.abs(again.coeffs - h.coeffs).max() < 1e-10

    def test_output_orthogonal_to_vertical(self):
        sh = random_sigma_shape(30)
        rng = np.random.default_rng(32)
        out = horizontal_project(sh, rng.normal(size=201))
        assert abs(inner_raw(out.coeffs, zr_space._vertical_pattern(sh.coeffs)[0])) < 1e-12


class TestShift:
    def test_zero_shift_identity(self):
        sh = random_sigma_shape(40)
        out = shift_initial_point(sh, 0.0)
        assert np.abs(out.coeffs - sh.coeffs).max() < 1e-14

    def test_two_symmetric_period(self, rect_zr):
        out = shift_initial_point(rect_zr, np.pi)
        assert np.abs(out.coeffs - rect_zr.coeffs).max() < 1e-10

    @given(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_group_law(self, a, b):
        sh = random_sigma_shape(41)
        lhs = shift_initial_point(shift_initial_point(sh, a), b)
        rhs = shift_initial_point(sh, a + b)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


class TestAlign:
    def test_exact_orbit_recovery(self):
        sh = random_sigma_shape(50)
        eta = shift_initial_point(sh, 0.7)
        s0, dist = align_initial_point(sh, eta)
        assert dist <= 1e-8
        expected = (-0.7) % (2.0 * np.pi)
        assert min(abs(s0 - expected), 2.0 * np.pi - abs(s0 - expected)) < 1e-6

    def test_identical(self):
        sh = random_sigma_shape(51)
        s0, dist = align_initial_point(sh, sh)
        assert dist <= 1e-10
        assert s0 == pytest.approx(0.0, abs=1e-6) or \
            s0 == pytest.approx(2.0 * np.pi, abs=1e-6)

    def test_square_quarter_turn(self, square_zr):
        eta = shift_initial_point(square_zr, np.pi / 2)
        _, dist = align_initial_point(square_zr, eta)
        assert dist <= 1e-8

    def test_orbit_distances_on_grid(self):
        # quotient well-definedness over a whole orbit
        sh = random_sigma_shape(52)
        for s in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            _, dist = align_initial_point(sh, shift_initial_point(sh, s))
            assert dist <= 1e-8

    def test_circle_rejected(self):
        flat = ZRShape(100, np.zeros(201))
        with pytest.raises(SingularShapeError):
            align_initial_point(flat, random_sigma_shape(53))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_shift_stable_under_rounding(self, seed):
        # s0 solves the stationarity condition, so a last-bit change of eta
        # moves it by rounding only, not by the sqrt(eps) flatness of dist^2
        theta, eta = random_sigma_shape(seed), random_sigma_shape(seed + 1)
        s0, _ = align_initial_point(theta, eta)
        s1, _ = align_initial_point(theta, eta.with_coeffs(eta.coeffs * (1 + 1e-15)))
        gap = abs(s1 - s0)
        assert min(gap, 2.0 * np.pi - gap) <= 1e-13

    @pytest.mark.parametrize("n_harm", [100, 1100])
    def test_coarse_grid_matches_shifted_distances(self, n_harm):
        # the one-FFT coarse search against the distance to each shifted
        # shape; 1100 harmonics fold onto the 1024 candidates
        rng = np.random.default_rng(n_harm)
        decay = np.concatenate([[1.0], np.repeat(np.arange(1, n_harm + 1), 2)])
        theta, eta = (ZRShape(n_harm, rng.normal(size=2 * n_harm + 1) / decay)
                      for _ in range(2))
        ze, zt = (s.coeffs[1::2] - 1j * s.coeffs[2::2] for s in (eta, theta))
        got = zr_space._grid_shift_dist2(theta.coeffs[0], ze, zt)
        shifts = 2.0 * np.pi * np.arange(1024) / 1024
        want = np.array([norm_raw(theta.coeffs - shift_initial_point(eta, s).coeffs) ** 2
                         for s in shifts])
        assert np.abs(got - want).max() <= 1e-12 * want.max()
        assert np.argmin(got) == np.argmin(want)


class TestSymmetry:
    def test_demo_polygons(self, square_zr, rect_zr, hex_zr):
        assert orc.is_k_symmetric(square_zr, 4)
        assert orc.is_k_symmetric(square_zr, 2)
        assert orc.is_k_symmetric(rect_zr, 2)
        assert not orc.is_k_symmetric(rect_zr, 4)
        assert orc.is_k_symmetric(hex_zr, 6)
        assert orc.is_k_symmetric(hex_zr, 3)

    def test_projection_produces_symmetry(self):
        sh = random_sigma_shape(60)
        out = orc.project_k_symmetric(sh, 3)
        assert orc.is_k_symmetric(out, 3, tol=1e-9)
        assert abs(closure_map(out)) < 1e-9


class TestSerialization:
    def test_shape_roundtrip(self, rect_zr):
        d = shape_to_dict(rect_zr)
        back = shape_from_dict(d)
        assert np.array_equal(back.coeffs, rect_zr.coeffs)
        assert back.length == rect_zr.length
        assert back.base_angle == rect_zr.base_angle

    @pytest.mark.parametrize("field", ["x0", "xy", "length", "base_angle"])
    def test_non_finite_field_refused(self, rect_zr, field):
        d = shape_to_dict(rect_zr)
        if field == "xy":
            d["xy"][3][1] = float("nan")
        else:
            d[field] = float("inf")
        with pytest.raises(ParseError, match=f"shape {field} holds a non-finite number"):
            shape_from_dict(d)

    def test_harmonic_count_mismatch(self, rect_zr):
        d = shape_to_dict(rect_zr)
        d["xy"] = d["xy"][:-1]
        with pytest.raises(DimensionMismatchError, match="expected 100 harmonic pairs"):
            shape_from_dict(d)


class TestShapeChecks:
    def test_coefficient_count_checked(self):
        with pytest.raises(DimensionMismatchError, match="expected 201 coefficients"):
            ZRShape(100, np.zeros(200))

    def test_grid_too_small(self):
        with pytest.raises(DimensionMismatchError, match="grid 16 too small"):
            eval_on_grid(np.zeros(201), 16)
