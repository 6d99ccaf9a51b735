"""Sampled-path container behaviour shared by both geometries."""

import pickle

import numpy as np
import pytest

import oracles as orc
from conftest import (
    random_horizontal_k,
    random_preshape,
    random_sigma_shape,
    random_tangent,
    vertical_row,
)
from shape_transport import (
    DimensionMismatchError,
    GeodesicPath,
    ParseError,
    ZRShape,
    exp_map,
    geodesic_kendall,
    path_from_dict,
    transport_kendall,
    transport_sigma,
)
from shape_transport.paths import cubic_spline, orthonormalize, remove_frame
from shape_transport.zr_space import (
    _metric_weights,
    constraint_frame,
    inner_raw,
    norm_raw,
)


def _zr_path(seed=0, n=17):
    base = random_sigma_shape(seed)
    return exp_map(base, random_tangent(base, seed + 1), 0.3, steps=n - 1)


class TestSampling:
    def test_endpoints_interpolated_exactly(self):
        p = _zr_path()
        assert np.abs(p.point_at(0.0) - p.points[0]).max() < 1e-12
        assert np.abs(p.point_at(p.T) - p.points[-1]).max() < 1e-12

    def test_point_at_vectorized(self):
        p = _zr_path()
        ts = np.linspace(0.0, p.T, 5)
        block = p.point_at(ts)
        assert block.shape == (5, p.points.shape[1])
        for i, t in enumerate(ts):
            assert np.abs(block[i] - p.point_at(t)).max() == 0.0

    def test_n_samples(self):
        p = _zr_path(n=9)
        assert p.n_samples == 9

    def test_mismatched_rows_rejected(self):
        with pytest.raises(DimensionMismatchError):
            GeodesicPath(space="zr_sigma", T=1.0, ts=np.linspace(0, 1, 4),
                         points=np.zeros((3, 201)), v0=np.zeros(201),
                         v_end=np.zeros(201))

    def test_bad_space_tag(self):
        with pytest.raises(ValueError):
            GeodesicPath(space="euclidean", T=1.0, ts=np.zeros(1),
                         points=np.zeros((1, 3)), v0=np.zeros(3),
                         v_end=np.zeros(3))

    def test_velocity_width_must_match_points(self):
        for v0, v_end in [(np.zeros(200), np.zeros(201)), (np.zeros(201), np.zeros(3))]:
            with pytest.raises(DimensionMismatchError):
                GeodesicPath(space="zr_sigma", T=1.0, ts=np.linspace(0, 1, 3),
                             points=np.zeros((3, 201)), v0=v0, v_end=v_end)

    def test_single_sample_constant(self):
        p = GeodesicPath(space="zr_sigma", T=0.0, ts=np.zeros(1),
                         points=np.ones((1, 201)), v0=np.zeros(201),
                         v_end=np.zeros(201))
        assert np.abs(p.point_at(0.7) - 1.0).max() == 0.0


class TestCubicSpline:
    @pytest.mark.parametrize("n", [2, 3, 4, 33, 129])
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("row", [(7,), (3, 5)])
    def test_matches_scipy_not_a_knot(self, n, uniform, row):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng([n, uniform, len(row)])
        x = (np.linspace(0.0, 2.0, n) if uniform
             else np.cumsum(rng.uniform(0.2, 1.0, n)))
        y = rng.normal(size=(n,) + row)
        ref = CubicSpline(x, y, axis=0)
        value, velocity = cubic_spline(x, y)
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 40)])
        for got, want in ((value(t), ref(t)), (velocity(t), ref.derivative()(t)),
                          (value(t[-1]), ref(t[-1]))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            cubic_spline(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))


def _kendall_path():
    return geodesic_kendall(random_preshape(5, k=5), random_preshape(6, k=5))


class TestVelocity:
    """The stored end velocities v0 and v_end."""

    def test_velocity_in_tangent_space(self):
        p = _zr_path(seed=2)
        for v, point in ((p.v0, p.points[0]), (p.v_end, p.points[-1])):
            assert np.abs(orc.zr_constraint_rows(point) @ v).max() < 1e-6

    def test_invariant_velocity_is_horizontal(self):
        base = random_sigma_shape(3)
        p = exp_map(base, random_tangent(base, 4, horizontal=True), 0.3, steps=16,
                    invariant=True)
        for v, point in ((p.v0, p.points[0]), (p.v_end, p.points[-1])):
            assert abs(inner_raw(v, vertical_row(point))) < 1e-9

    # one-sided differences of the sampled path over 1e-5 of its length, on
    # one ZR and one Kendall path
    def test_matches_v0(self):
        for p in (_zr_path(seed=4), _kendall_path()):
            h = 1e-5 * p.T
            diff = (p.point_at(h) - p.point_at(0.0)) / h
            assert np.linalg.norm(diff - p.v0) <= 1e-4 * np.linalg.norm(p.v0)

    def test_matches_v_end(self):
        for p in (_zr_path(seed=4), _kendall_path()):
            h = 1e-5 * p.T
            diff = (p.point_at(p.T) - p.point_at(p.T - h)) / h
            assert np.linalg.norm(diff - p.v_end) <= 1e-4 * np.linalg.norm(p.v_end)

    def test_kendall_velocity_tangent_to_sphere(self):
        p = _kendall_path()
        for v, point in ((p.v0, p.points[0]), (p.v_end, p.points[-1])):
            assert abs(np.vdot(point, v)) < 1e-12


class TestReversed:
    def test_samples_mirrored(self):
        p = _zr_path(seed=7)
        r = p.reversed()
        assert r.T == p.T
        assert np.abs(r.points[0] - p.points[-1]).max() == 0.0
        assert np.abs(r.points[-1] - p.points[0]).max() == 0.0
        assert np.abs(r.ts - (p.T - p.ts[::-1])).max() < 1e-15

    def test_velocities_negated(self):
        p = _zr_path(seed=8)
        r = p.reversed()
        assert np.abs(r.v0 + p.v_end).max() == 0.0
        assert np.abs(r.v_end + p.v0).max() == 0.0

    def test_base_moved_to_far_end(self):
        p = _zr_path(seed=9)
        r = p.reversed()
        assert np.abs(r.base.coeffs - p.points[-1]).max() == 0.0
        assert r.base.length == p.base.length

    def test_involution(self):
        p = _zr_path(seed=10)
        rr = p.reversed().reversed()
        assert np.abs(rr.points - p.points).max() == 0.0
        assert np.abs(rr.ts - p.ts).max() < 1e-15


class TestSerialization:
    def test_zr_roundtrip(self):
        p = _zr_path(seed=11)
        back = path_from_dict(p.to_dict())
        assert back.space == p.space
        assert back.T == p.T
        assert np.array_equal(back.ts, p.ts)
        assert np.array_equal(back.points, p.points)
        assert np.array_equal(back.v0, p.v0)
        assert back.base.length == p.base.length

    def test_kendall_roundtrip(self):
        x = random_preshape(12, k=4)
        y = random_preshape(13, k=4)
        p = geodesic_kendall(x, y)
        back = path_from_dict(p.to_dict())
        assert back.space == "kendall"
        assert np.array_equal(back.points, p.points)
        assert back.base.k == p.base.k and back.base.m == p.base.m

    def test_pickle_keeps_point_at(self):
        p = _zr_path(seed=11)
        t = np.linspace(0.0, p.T, 9)
        before = p.point_at(t)
        back = pickle.loads(pickle.dumps(p))
        assert np.array_equal(back.point_at(t), before)

    def test_unknown_space_tag(self):
        d = dict(_zr_path(seed=11).to_dict(), space="hyperbolic")
        with pytest.raises(ValueError, match="unknown space tag 'hyperbolic'"):
            path_from_dict(d)

    def test_missing_keys_named(self):
        with pytest.raises(ParseError, match="path is missing T, base, v0, v_end, samples"):
            path_from_dict({"space": "zr_sigma"})

    def test_baseless_path_refuses(self):
        p = GeodesicPath(space="zr_sigma", T=1.0, ts=np.linspace(0, 1, 3),
                         points=np.zeros((3, 201)), v0=np.zeros(201),
                         v_end=np.zeros(201))
        with pytest.raises(ValueError):
            p.to_dict()


def _kept_matrices(path):
    return [v for v in path._transports.values() if v is not None]


class TestTransportMemo:
    def _cases(self):
        zr = _zr_path(3)
        kendall = geodesic_kendall(random_preshape(4, k=6), random_preshape(5, k=6))
        return [(zr, transport_sigma, random_tangent(zr.base, 6).coeffs),
                (kendall, transport_kendall, random_horizontal_k(kendall.base, 7))]

    def test_single_transport_keeps_no_matrix(self):
        for path, fn, w in self._cases():
            fn(path, w)
            assert len(path._transports) == 1 and not _kept_matrices(path)
            fn(path, w)
            assert len(_kept_matrices(path)) == 1

    def test_reversed_inherits_no_memo(self):
        for path, fn, w in self._cases():
            fn(path, w)
            fn(path, w)
            assert path.reversed()._transports == {}

    def test_block_rows_match_single_vectors(self):
        # the last case's rows stop at different counts of the ZR ladder
        long = exp_map(random_sigma_shape(3), random_tangent(random_sigma_shape(3), 4), 1.0)
        cases = self._cases() + [(long, transport_sigma, random_tangent(long.base, 9).coeffs)]
        for path, fn, w in cases:
            other = np.ravel(path.v0)
            block = fn(path, np.stack([np.ravel(w), other]))
            assert block.w_end.shape == (2, other.size) and block.norm_drift.shape == (2,)
            steps = []
            for row, vec in zip(block.w_end, (w, other)):
                alone = fn(GeodesicPath(path.space, path.T, path.ts, path.points,
                                        path.v0, path.v_end, base=path.base), vec)
                assert np.linalg.norm(row - alone.w_end) <= 1e-13 * np.linalg.norm(row)
                steps.append(alone.steps)
            assert block.steps == max(steps)
        assert steps[0] < steps[1]


class TestTransportInput:
    def test_wrong_length_vector_in_both_geometries(self):
        for path, fn, _ in TestTransportMemo()._cases():
            d = path.points.shape[1]
            for bad in (np.zeros(d - 1), np.zeros((2, d + 1)), np.zeros((2, 2, d))):
                with pytest.raises(DimensionMismatchError):
                    fn(path, bad)

    def test_nonpositive_steps_per_unit_refused(self):
        # only the submanifold transport takes a step count
        path, _, w = TestTransportMemo()._cases()[0]
        for bad in (0, -3):
            with pytest.raises(ValueError, match="steps_per_unit"):
                transport_sigma(path, w, steps_per_unit=bad)

    def _kendall_case(self):
        # k = 4, m = 2: a vector is (6,), the base matrix (3, 2)
        x = random_preshape(14, k=4)
        return geodesic_kendall(x, random_preshape(15, k=4)), random_horizontal_k(x, 16)

    def test_kendall_transposed_matrix_refused(self):
        # the (2, 3) reshape holds horizontal values in the vector's order, the
        # transpose the same entries in the wrong order; neither is flattened
        path, w = self._kendall_case()
        for bad in (w.T, w.reshape(2, 3)):
            with pytest.raises(DimensionMismatchError):
                transport_kendall(path, bad)

    def test_kendall_matrix_matches_flat_vector(self):
        # the second call takes the path's transport-matrix route
        path, w = self._kendall_case()
        flat = transport_kendall(path, w.ravel()).w_end
        mat = transport_kendall(path, w).w_end
        assert mat.shape == flat.shape == (6,)
        assert np.abs(mat - flat).max() <= 1e-14


class TestFusedStep:
    """The fused block step against the per-vector RK4 loop with per-step
    norm restoration, on the criterion 09 cases whose 32-steps drift is
    above that criterion's noise floor (1e-10)."""

    @pytest.mark.parametrize("i", [1, 2, 7, 8, 16])
    def test_matches_per_vector_loop_and_drift_ratio(self, i):
        base = random_sigma_shape(1200 + i)
        path = exp_map(base, random_tangent(base, 9000 + i), 0.3)
        w = random_tangent(ZRShape(100, path.points[0]), 9300 + i).coeffs
        got, want = [], []
        for spu in (32, 64):
            res = transport_sigma(path, w, steps_per_unit=spu)
            ref, ref_drift = orc.transport_rk4_loop(path, w, constraint_frame,
                                                    _metric_weights(100), spu)
            assert norm_raw(res.w_end - ref) <= 1e-12 * norm_raw(ref)
            assert abs(res.norm_drift - ref_drift) <= 1e-14
            got.append(res.norm_drift)
            want.append(ref_drift)
        assert got[0] > 1e-10
        assert got[0] / got[1] == pytest.approx(want[0] / want[1], rel=1e-3)


class TestOrthonormalize:
    WEIGHTS = np.array([1.0, 0.5, 0.5, 0.5, 0.5])

    def _moving_rows(self, seed):
        # 3 rows at 2 points, rows(t) = a + t b, so the rows' rates are b
        rng = np.random.default_rng(seed)
        return rng.normal(size=(3, 2, 5)), rng.normal(size=(3, 2, 5))

    def test_orthonormal_lower_triangular(self):
        a, b = self._moving_rows(0)
        frame, _, pivots = orthonormalize(list(a), list(b), self.WEIGHTS)
        gram = (frame * self.WEIGHTS) @ np.swapaxes(frame, -1, -2)
        assert np.abs(gram - np.eye(3)).max() <= 1e-14
        low = (np.swapaxes(a, 0, 1) * self.WEIGHTS) @ np.swapaxes(frame, -1, -2)
        assert np.abs(np.triu(low, 1)).max() <= 1e-14
        assert np.abs(np.diagonal(low, axis1=-2, axis2=-1) - pivots).max() <= 1e-14

    def test_rates_pair_like_frame_derivative(self):
        # against a central difference of the frame, on a vector orthogonal
        # to the frame at t = 0
        a, b = self._moving_rows(1)
        frame, rates, _ = orthonormalize(list(a), list(b), self.WEIGHTS)
        x = np.random.default_rng(2).normal(size=(2, 5))
        x = remove_frame(x, frame, self.WEIGHTS)
        eps = 1e-5
        diff = (orthonormalize(list(a + eps * b), None, self.WEIGHTS)[0]
                - orthonormalize(list(a - eps * b), None, self.WEIGHTS)[0]) / (2 * eps)
        pair_r, pair_d = (np.einsum("...kd,...d->...k", f * self.WEIGHTS, x)
                          for f in (rates, diff))
        assert np.abs(pair_r - pair_d).max() <= 1e-8

    def test_vanishing_pivot_reported_without_nan(self):
        a, b = self._moving_rows(3)
        a[2, 0] = 0.3 * a[0, 0] - 2.0 * a[1, 0]  # in the span of the rows before
        a[1, 1] = 0.0
        frame, rates, pivots = orthonormalize(list(a), list(b), self.WEIGHTS)
        assert pivots[0, 2] <= 1e-14 and pivots[1, 1] == 0.0
        assert pivots[0, :2].min() > 0.1 and pivots[1, [0, 2]].min() > 0.1
        assert np.all(np.isfinite(frame)) and np.all(np.isfinite(rates))
