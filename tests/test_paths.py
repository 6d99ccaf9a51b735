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
    NumericalError,
    SingularShapeError,
    ParseError,
    ZRShape,
    exp_kendall,
    exp_map,
    geodesic_between,
    geodesic_between_invariant,
    geodesic_kendall,
    path_from_dict,
    project_to_sigma,
    transport_invariant,
    transport_kendall,
    transport_sigma,
)
import shape_transport
from shape_transport import kendall, zr_space
from shape_transport.paths import (
    cubic_spline,
    gram_factor,
    gram_solve,
    remove_frame,
    spline_at,
)
from shape_transport.zr_space import (
    _closure_normals,
    _excluded_rows,
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

    @pytest.mark.parametrize("space", ["kendall", "zr_sigma", "zr_invariant"])
    def test_constant_path_keeps_the_shape_of_t(self, space):
        # one row per time, as on a path with a spline: the start point and
        # a zero velocity
        if space == "kendall":
            x = random_preshape(1, k=5)
            path = geodesic_kendall(x, x)
        else:
            a = random_sigma_shape(1)
            path = (geodesic_between if space == "zr_sigma" else geodesic_between_invariant)(a, a)
        assert path.n_samples == 1
        d = path.points.shape[1]
        for t in (0.3, np.array([0.0, 0.5]), np.zeros((2, 3))):
            want = np.broadcast_to(path.points[0], np.shape(t) + (d,))
            assert np.array_equal(path.point_at(t), want)
            velocity = path.velocity_at(t)
            assert velocity.shape == want.shape and not velocity.any()


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
        s = cubic_spline(x, y)
        value = lambda t: spline_at(x, y, s, t, (0,))[0]  # noqa: E731
        velocity = lambda t: spline_at(x, y, s, t, (1,))[0]  # noqa: E731
        if len(row) == 1:  # a path's spline is the same one
            path = GeodesicPath("kendall", x[-1], x, y, y[0], y[-1])
            value, velocity = path.point_at, path.velocity_at
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 40)])
        for got, want in ((value(t), ref(t)), (velocity(t), ref.derivative()(t)),
                          (value(t[-1]), ref(t[-1])),
                          (velocity(t[-1]), ref.derivative()(t[-1]))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 33])
    @pytest.mark.parametrize("row", [(7,), (3, 5)])
    def test_equals_power_form_pieces(self, n, row):
        # the coefficients of only the pieces the times fall in are those of
        # every piece built at once (oracles.spline_pieces), bit for bit,
        # last knot and extrapolation included
        rng = np.random.default_rng([n, len(row), 40])
        x = np.cumsum(rng.uniform(0.05, 1.0, n))
        y = rng.normal(size=(n,) + row)
        s = cubic_spline(x, y)
        c, dc = orc.spline_pieces(x, y, s)
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 50), [x[0] - 0.3, x[-1] + 0.3]])
        knots = y.copy(), s.copy()
        # many times share pieces; at most n - 1 (three, four, one) read their own
        for ti in (t, x[-1], t[:len(t) // 2 * 2].reshape(2, -1), t[-3:], t[-4:].reshape(2, 2)):
            value, velocity = spline_at(x, y, s, ti)
            assert np.array_equal(value, orc.horner(x, c, ti))
            assert np.array_equal(velocity, orc.horner(x, dc, ti))
            for got, want in zip(spline_at(x, y, s, ti, (1, 0)), (velocity, value)):
                assert np.array_equal(got, want)
        assert np.array_equal(y, knots[0]) and np.array_equal(s, knots[1])  # read only
        if len(row) == 1:
            path = GeodesicPath("kendall", x[-1], x, y, y[0], y[-1])
            for ti in (t, x[-1], t[-3:]):
                assert np.array_equal(path.point_at(ti), orc.horner(x, c, ti))
                assert np.array_equal(path.velocity_at(ti), orc.horner(x, dc, ti))

    @pytest.mark.parametrize("space", ["zr_sigma", "kendall"])
    def test_path_stores_samples_and_knot_slopes_only(self, space):
        # the spline costs one slope row per knot beside the samples, no
        # coefficient arrays: 2 n d numbers
        path = (geodesic_between(random_sigma_shape(0), random_sigma_shape(1))
                if space == "zr_sigma" else _kendall_path())
        assert path.n_samples == 33

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for x in value:
                    yield from arrays(x)
            elif isinstance(value, dict):
                for x in value.values():
                    yield from arrays(x)

        fields = [path.ts, path.points, path.v0, path.v_end]
        stored = {id(x): x for x in arrays(list(vars(path).values()))}
        extra = [x for x in stored.values() if not any(x is f for f in fields)]
        assert [x.shape for x in extra] == [path.points.shape]
        spline_bytes = path.points.nbytes + sum(x.nbytes for x in extra)
        assert spline_bytes == 2 * path.n_samples * path.points.shape[1] * 8

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

    # central differences of point_at over 1e-5 of the length, at knots and
    # between them, on one ZR and one Kendall path
    def test_velocity_at_matches_point_at(self):
        for p in (_zr_path(seed=4), _kendall_path()):
            h = 1e-5 * p.T
            t = np.concatenate([p.ts[1:-1], 0.5 * (p.ts[1:] + p.ts[:-1])])
            diff = (p.point_at(t + h) - p.point_at(t - h)) / (2.0 * h)
            scale = np.abs(p.velocity_at(t)).max()
            assert np.abs(diff - p.velocity_at(t)).max() <= 1e-8 * scale

    def test_one_sample_path_stands_still(self):
        p = exp_kendall(random_preshape(5, k=5), np.zeros(8), 0.0)
        assert np.array_equal(p.point_at(0.5), p.points[0])
        assert np.array_equal(p.velocity_at(0.5), np.zeros(8))

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

    def test_zr_base_of_another_size_refused(self):
        d = _zr_path(seed=11).to_dict()
        d["samples"] = [row[:7] for row in d["samples"]]
        d["v0"], d["v_end"] = d["v0"][:6], d["v_end"][:6]
        with pytest.raises(ParseError, match="base has 201 coefficients, samples 6"):
            path_from_dict(d)

    def test_kendall_base_of_another_size_refused(self):
        # a 4-landmark base under 5-landmark samples
        d = geodesic_kendall(random_preshape(12, k=5), random_preshape(13, k=5)).to_dict()
        d["base"] = kendall.preshape_to_dict(random_preshape(14, k=4))
        with pytest.raises(ParseError, match="base has 6 coefficients, samples 8"):
            path_from_dict(d)

    def test_pickle_keeps_point_at(self):
        p = _zr_path(seed=11)
        t = np.linspace(0.0, p.T, 9)
        before = p.point_at(t), p.velocity_at(t)
        back = pickle.loads(pickle.dumps(p))
        assert np.array_equal(back.point_at(t), before[0])
        assert np.array_equal(back.velocity_at(t), before[1])

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
    return [v for v in path._transports.values() if v[1] != ()]


class TestTransportMemo:
    def _cases(self):
        zr = _zr_path(3)
        kendall = geodesic_kendall(random_preshape(4, k=6), random_preshape(5, k=6))
        return [(zr, transport_sigma, random_tangent(zr.base, 6).coeffs),
                (kendall, transport_kendall, random_horizontal_k(kendall.base, 7))]

    def test_single_transport_keeps_no_matrix(self):
        # a Kendall great circle composes its step maps, so its first
        # transport already keeps the matrix; ZR keeps one from the second
        for path, fn, w in self._cases():
            fn(path, w)
            assert len(path._transports) == 1
            assert len(_kept_matrices(path)) == (fn is transport_kendall)
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

    def test_zero_rows_stay_zero(self):
        # a block mixing zero and nonzero rows keeps its zero rows exactly
        # zero with zero drift, and each other row equals its lone transport:
        # on ZR's first vector (an integration), ZR's kept product (its third
        # vector) and Kendall's composed route
        for path, fn, w in self._cases():
            vecs = [np.ravel(w), np.ravel(path.v0)]
            block = np.stack([vecs[0], np.zeros_like(vecs[0]), vecs[1]])
            for _ in range(3):
                got = fn(path, block)
                assert not got.w_end[1].any() and got.norm_drift[1] == 0.0
                for row, vec in zip(got.w_end[[0, 2]], vecs):
                    alone = fn(GeodesicPath(path.space, path.T, path.ts, path.points,
                                            path.v0, path.v_end, base=path.base), vec)
                    assert np.linalg.norm(row - alone.w_end) <= 1e-13 * np.linalg.norm(row)
            assert len(_kept_matrices(path)) == 1

    def test_collapsed_row_raises(self, monkeypatch):
        # a nonzero row that comes back zero from a path's first (full-space)
        # transport raises, also one too short for the drift limit to catch
        import shape_transport.paths as paths_mod
        monkeypatch.setattr(paths_mod, "_climb", lambda route, path, block, *a: (0.0 * block, 8, ()))
        for scale in (1.0, 1e-6):
            path = _zr_path(3)
            with pytest.raises(NumericalError, match="collapsed to zero"):
                transport_sigma(path, scale * random_tangent(path.base, 6).coeffs)


class TestConstantPath:
    """A constant path moves nothing, but the start checks still hold: a
    passing vector comes back unchanged, with no step."""

    def _cases(self):
        a, x = random_sigma_shape(20), random_preshape(21, k=6)
        x0 = np.zeros(201)
        x0[0] = 1.0  # along g: not tangent
        return [(geodesic_between(a, a), transport_sigma, random_tangent(a, 22).coeffs, x0),
                (geodesic_between_invariant(a, a), transport_invariant,
                 random_tangent(a, 23, horizontal=True).coeffs, vertical_row(a.coeffs)),
                (geodesic_kendall(x, x), transport_kendall, random_horizontal_k(x, 24).ravel(),
                 x.flat)]

    def test_passing_vector_returned_unchanged(self):
        for path, fn, w, _ in self._cases():
            assert path.T == 0.0
            res = fn(path, w)
            assert np.array_equal(res.w_end, w) and res.w_end is not w
            assert res.steps == 0 and res.norm_drift == 0.0

    def test_excluded_component_refused(self):
        for path, fn, _, bad in self._cases():
            with pytest.raises(ValueError, match="excluded directions at the path start"):
                fn(path, bad)

    def test_nonfinite_vector_refused(self):
        for path, fn, w, _ in self._cases():
            with pytest.raises(ValueError, match="non-finite"):
                fn(path, np.full_like(w, np.nan))


class TestStrayThreshold:
    """Shots and transports share one stray check: a part along the
    excluded rows of up to 1e-6 * max(norm, 1) in the metric norm is
    removed, and a larger one raises the caller's ValueError, on a
    transport's first vector and on its kept products alike."""

    CALLERS = ["exp_map", "exp_map_invariant", "exp_kendall", "transport_sigma",
               "transport_invariant", "transport_kendall"]

    def _case(self, caller):
        """(calls, tangent t of norm 1, unit excluded direction u, message):
        one call per route, each taking the vector."""
        if caller.endswith("kendall"):
            x = random_preshape(32, k=6, m=2)
            t = random_horizontal_k(x, 33).ravel()
            rows = kendall._excluded_frame(2, x.flat)[0]
            u = rows[-1] / np.linalg.norm(rows[-1])  # along an orbit row
            if caller == "exp_kendall":
                return ([lambda v: exp_kendall(x, v, 0.3)], t, u,
                        "initial velocity is not horizontal at the base pre-shape")
            fn, new_path = transport_kendall, lambda: exp_kendall(x, t, 1.0)
        else:
            invariant = caller.endswith("invariant")
            base = random_sigma_shape(30)
            t = random_tangent(base, 31, horizontal=invariant).coeffs
            rows = constraint_frame(base.coeffs, horizontal=invariant)[0]
            u = rows[-1] / norm_raw(rows[-1])  # the vertical pattern or v2
            if caller.startswith("exp_map"):
                kind = "horizontal" if invariant else "tangent"
                return ([lambda v: exp_map(base, v, 0.05, invariant=invariant)], t, u,
                        f"initial velocity is not {kind} at the base shape")
            fn = transport_invariant if invariant else transport_sigma
            new_path = lambda: exp_map(base, t, 0.3, steps=16, invariant=invariant)
        kept = new_path()
        for _ in range(2):  # the next vectors are products of the kept matrices
            fn(kept, t)
        return ([lambda v: fn(new_path(), v), lambda v: fn(kept, v)], t, u,
                "initial vector has a component along the excluded directions at the path start")

    @pytest.mark.parametrize("size", [0.5, 3.0])
    @pytest.mark.parametrize("caller", CALLERS)
    def test_stray_passes_up_to_the_threshold(self, caller, size):
        calls, t, u, what = self._case(caller)
        limit = 1e-6 * max(size, 1.0)
        for call in calls:
            call(size * t + 0.5 * limit * u)
            with pytest.raises(ValueError, match=what):
                call(size * t + 2.0 * limit * u)


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

    def test_drift_error_names_no_missing_option(self, monkeypatch):
        # Kendall transport has no step option, so the drift error cannot
        # ask for one
        import shape_transport.paths as paths_mod
        monkeypatch.setattr(paths_mod, "_DRIFT_LIMIT", -1.0)
        for path, fn, w in TestTransportMemo()._cases():
            with pytest.raises(NumericalError, match="refine the path sampling") as info:
                fn(path, w)
            assert "steps_per_unit" not in str(info.value)

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


@pytest.mark.parametrize("project", ["project_tangent", "horizontal_project",
                                     "horizontal_project_k", "exp_kendall"])
def test_projection_of_wrong_size_vector_raises_dimension_mismatch(project):
    # as exp_map and transport_along do for the same mistake
    kendall_side = project in ("horizontal_project_k", "exp_kendall")
    base = random_preshape(2, k=4) if kendall_side else random_sigma_shape(1)
    args = (np.ones(7), 0.5) if project == "exp_kendall" else (np.ones(7),)
    with pytest.raises(DimensionMismatchError, match="size does not match"):
        getattr(shape_transport, project)(base, *args)


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
            ref, ref_drift = orc.transport_rk4_loop(path, w, orc.zr_frame,
                                                    _metric_weights(100), spu)
            assert norm_raw(res.w_end - ref) <= 1e-12 * norm_raw(ref)
            assert abs(res.norm_drift - ref_drift) <= 1e-14
            got.append(res.norm_drift)
            want.append(ref_drift)
        assert got[0] > 1e-10
        assert got[0] / got[1] == pytest.approx(want[0] / want[1], rel=1e-3)


class TestOrthonormalize:
    # the reference Gram-Schmidt of the oracles' frame-based loops
    WEIGHTS = np.array([1.0, 0.5, 0.5, 0.5, 0.5])

    def _moving_rows(self, seed):
        # 3 rows at 2 points, rows(t) = a + t b, so the rows' rates are b
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(3, 2, 5)).swapaxes(0, 1),
                rng.normal(size=(3, 2, 5)).swapaxes(0, 1))

    def test_orthonormal_lower_triangular(self):
        a, b = self._moving_rows(0)
        frame, _, pivots = orc.orthonormalize(a, b, self.WEIGHTS)
        gram = (frame * self.WEIGHTS) @ np.swapaxes(frame, -1, -2)
        assert np.abs(gram - np.eye(3)).max() <= 1e-14
        low = (a * self.WEIGHTS) @ np.swapaxes(frame, -1, -2)
        assert np.abs(np.triu(low, 1)).max() <= 1e-14
        assert np.abs(np.diagonal(low, axis1=-2, axis2=-1) - pivots).max() <= 1e-14

    def test_rates_pair_like_frame_derivative(self):
        # against a central difference of the frame, on a vector orthogonal
        # to the frame at t = 0
        a, b = self._moving_rows(1)
        frame, rates, _ = orc.orthonormalize(a, b, self.WEIGHTS)
        x = np.random.default_rng(2).normal(size=(2, 5))
        x = orc.remove_orthonormal(x, frame, self.WEIGHTS)
        eps = 1e-5
        diff = (orc.orthonormalize(a + eps * b, None, self.WEIGHTS)[0]
                - orc.orthonormalize(a - eps * b, None, self.WEIGHTS)[0]) / (2 * eps)
        pair_r, pair_d = (np.einsum("...kd,...d->...k", f * self.WEIGHTS, x)
                          for f in (rates, diff))
        assert np.abs(pair_r - pair_d).max() <= 1e-8

    def test_vanishing_pivot_reported_without_nan(self):
        a, b = self._moving_rows(3)
        a[0, 2] = 0.3 * a[0, 0] - 2.0 * a[0, 1]  # in the span of the rows before
        a[1, 1] = 0.0
        frame, rates, pivots = orc.orthonormalize(a, b, self.WEIGHTS)
        assert pivots[0, 2] <= 1e-14 and pivots[1, 1] == 0.0
        assert pivots[0, :2].min() > 0.1 and pivots[1, [0, 2]].min() > 0.1
        assert np.all(np.isfinite(frame)) and np.all(np.isfinite(rates))


def _zr_rows(seed, horizontal):
    """The raw excluded rows and rates at a seeded shape along a tangent."""
    base = random_sigma_shape(seed)
    p, v = base.coeffs, random_tangent(base, seed + 1, horizontal=horizontal).coeffs
    rows, rates = _excluded_rows(p, _closure_normals(p, v), v, horizontal)
    return rows, rates, _metric_weights(100)


def _kendall_rows(seed, m):
    x = random_preshape(seed, k=6, m=m)
    v = random_horizontal_k(x, seed + 1).ravel()
    rows, rates = (np.stack(kendall._orbit_rows(y, kendall._generators(m)))
                   for y in (x.flat, v))
    return rows, rates, 1.0


_ROW_CASES = [("zr", 3), ("zr", 4), ("kendall", 2), ("kendall", 3)]


def _rows_case(space, size, seed=5):
    return _zr_rows(seed, size == 4) if space == "zr" else _kendall_rows(seed, size)


def _duals(rows, rates, wts):
    """(Q, Q', G^-1, pivots) of the rows and rates through gram_factor."""
    factor, pivots = gram_factor(rows, wts)
    rate_duals = None if rates is None else gram_solve(factor, rates * wts)
    return gram_solve(factor, rows * wts), rate_duals, gram_solve(
        factor, np.eye(rows.shape[-2])), pivots


class TestGramFactor:
    # the one small-Gram factor behind every excluded-row solve

    @pytest.mark.parametrize("space, size", _ROW_CASES)
    def test_duals_invert_rows_and_projector_is_idempotent(self, space, size):
        rows, rates, wts = _rows_case(space, size)
        duals, rate_duals, inv, _ = _duals(rows, rates, wts)
        assert np.abs(duals @ rows.T - np.eye(len(rows))).max() <= 1e-13
        assert np.abs(inv @ ((rows * wts) @ rows.T) - np.eye(len(rows))).max() <= 1e-13
        x = np.random.default_rng(3).normal(size=(5, rows.shape[1]))
        once, tol = remove_frame(x, (rows, duals)), 1e-13 * np.abs(x).max()
        assert np.abs(duals @ once.T).max() <= tol
        assert np.abs(remove_frame(once, (rows, duals)) - once).max() <= tol

    @pytest.mark.parametrize("space, size", _ROW_CASES)
    def test_pivots_match_reference_gram_schmidt(self, space, size):
        rows, rates, wts = _rows_case(space, size)
        frame, frame_rates, ref = orc.orthonormalize(rows, rates, wts)
        duals, rate_duals, _, pivots = _duals(rows, rates, wts)
        assert np.abs(pivots - ref).max() <= 1e-12
        # the rows and duals span what the frame spans, and the rate duals
        # pair with a vector orthogonal to the rows as the frame rates do
        x = orc.remove_orthonormal(np.random.default_rng(4).normal(size=rows.shape[1]),
                                   frame, wts)
        moved = (rate_duals @ x) @ rows
        ref_moved = ((frame_rates * wts) @ x) @ frame
        assert np.abs(moved - ref_moved).max() <= 1e-13 * np.abs(ref_moved).max()

    @pytest.mark.parametrize("scale", [1e-2, 1e-5, 1e-8, 1e-11])
    def test_pivots_below_what_the_gram_resolves_match_the_reference(self, scale):
        # the last row is the first two's combination plus scale times a
        # random row: its pivot is about scale, below the Cholesky floor of
        # the Gram (about 1e-8 of the row) for the smaller scales
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(3, 9))
        rows[2] = 0.4 * rows[0] - 1.3 * rows[1] + scale * rng.normal(size=9)
        factor, pivots = gram_factor(rows, 1.0)
        ref = orc.orthonormalize(rows, None, 1.0)[2]
        assert np.abs(pivots - ref).max() <= 1e-13 * np.abs(rows).max()
        ortho = factor @ rows  # orthonormal rows, to rounding of the rows
        assert np.abs(ortho @ ortho.T - np.eye(3)).max() <= 1e-13 / scale

    def test_inverse_applies_like_a_solve(self):
        # rows of very different lengths
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(4, 9)) * np.logspace(0, 3, 4)[:, None]
        gram, rhs = rows @ rows.T, rng.normal(size=(4, 2))
        solved = np.linalg.solve(gram, rhs)
        assert np.allclose(gram_solve(gram_factor(rows, 1.0)[0], rhs), solved,
                           rtol=1e-11, atol=1e-11 * np.abs(solved).max())

    def test_leading_block_serves_the_leading_rows(self):
        rows, _, wts = _zr_rows(3, True)
        factor = gram_factor(rows, wts)[0]
        lead = gram_factor(rows[:3], wts)[0]
        assert np.abs(factor[:3, :3] - lead).max() <= 1e-14 * np.abs(lead).max()

    def test_batched_matches_pointwise(self):
        rows, rates, wts = _zr_rows(7, True)
        batch = np.stack([rows, 2.0 * rows]), np.stack([rates, rates])
        for i, got in enumerate(zip(*_duals(*batch, wts))):
            for a, b in zip(got, _duals(batch[0][i], batch[1][i], wts)):
                assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()

    def test_rate_duals_pair_like_dual_derivative(self):
        # x Q(t)^T vanishes for x orthogonal to the rows at t = 0, so its
        # derivative there is x Q'^T: against a central difference
        rng = np.random.default_rng(1)
        weights = np.array([1.0, 0.5, 0.5, 0.5, 0.5])
        a, b = rng.normal(size=(2, 3, 5))
        duals, rate_duals, _, _ = _duals(a, b, weights)
        x = remove_frame(rng.normal(size=(2, 5)), (a, duals))
        eps = 1e-5
        diff = (_duals(a + eps * b, None, weights)[0]
                - _duals(a - eps * b, None, weights)[0]) / (2 * eps)
        assert np.abs(x @ rate_duals.T - x @ diff.T).max() <= 1e-8

    def test_vanishing_row_gives_a_zero_pivot_without_a_warning(self):
        # one Gram of the batch does not factor: its vanishing row has pivot
        # 0, the row before it keeps its pivot, and the other Gram keeps its
        # pivots, read from the rows as well
        rows = np.random.default_rng(2).normal(size=(2, 4, 6))
        good = gram_factor(rows[0], 1.0)[1]
        rows[1, 1] = 0.0
        pivots = gram_factor(rows, 1.0)[1]
        assert np.abs(pivots[0] - good).max() <= 1e-14
        assert pivots[1, 0] == pytest.approx(np.linalg.norm(rows[1, 0]), rel=1e-15)
        assert pivots[1, 1] == 0.0 and np.isfinite(pivots).all()

    def test_nan_row_gives_nan_pivots(self):
        rows = np.random.default_rng(1).normal(size=(3, 5))
        rows[2, 3] = np.nan
        pivots = gram_factor(rows, 1.0)[1]
        assert not (pivots[2] > 0.0)


class TestExcludedRowErrors:
    # the typed errors of the callers' pivot checks

    def test_nan_point_raises_numerical_error(self):
        p = random_sigma_shape(1).coeffs.copy()
        p[7] = np.nan
        for horizontal in (False, True):
            with pytest.raises(NumericalError, match="degenerate constraint frame"):
                constraint_frame(p, horizontal=horizontal)

    def test_vertical_in_closure_span_raises_singular_shape(self, monkeypatch, rect_zr):
        # a vertical row of exactly 0.3 v1 - 0.7 v2 at a perturbed rectangle
        rng = np.random.default_rng(8)
        base = project_to_sigma(rect_zr.with_coeffs(
            rect_zr.coeffs + 1e-3 * rng.normal(size=rect_zr.coeffs.shape)))
        v = random_tangent(base, 9)

        def in_closure_span(c, along=None):
            v1, v2 = _closure_normals(c)
            return [0.3 * v1 - 0.7 * v2] + ([] if along is None else [np.zeros_like(c)])

        monkeypatch.setattr(zr_space, "_vertical_pattern", in_closure_span)
        with pytest.raises(SingularShapeError, match="vertical direction degenerates"):
            constraint_frame(base.coeffs, horizontal=True)
        with pytest.raises(SingularShapeError, match="vertical direction degenerates"):
            exp_map(base, v, 0.3, steps=8, invariant=True)

    def test_collinear_3d_configurations_raise(self):
        # landmarks on a line along a random direction, at random places on
        # it: one orbit row combination vanishes, whatever the rounding
        for seed in range(200):
            rng = np.random.default_rng([seed, 3])
            config = rng.normal(size=(5, 1)) * rng.normal(size=3) + rng.normal(size=3)
            x = shape_transport.helmertize(config)
            with pytest.raises(NumericalError, match="configuration is not regular"):
                shape_transport.horizontal_project_k(x, np.ones(x.mat.shape))

    def test_dependent_closure_normals_raise(self, monkeypatch):
        # v2 a non-integer multiple of v1 at seeded shapes; the projector
        # checks its frame by the same pivot rule, also at a point it would
        # accept at once
        rng, normals = np.random.default_rng(4), zr_space._closure_normals
        bases, ratios = [random_sigma_shape(s) for s in range(8)], rng.uniform(-3.0, 3.0, 8)
        for base, ratio in zip(bases, ratios):
            def dependent(c, along=None, ratio=ratio):
                got = normals(c, along)
                return [got[0], ratio * got[0]] + got[2:]

            monkeypatch.setattr(zr_space, "_closure_normals", dependent)
            for horizontal in (False, True):
                with pytest.raises(NumericalError, match="degenerate constraint frame"):
                    constraint_frame(base.coeffs, horizontal=horizontal)
            off = base.coeffs + 1e-3 * rng.normal(size=base.coeffs.shape)
            for rows in (base.coeffs, np.stack([base.coeffs, off])):
                with pytest.raises(NumericalError, match="degenerate constraint frame"):
                    zr_space.project_to_sigma_batch(rows)
