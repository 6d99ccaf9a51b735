"""Parallel transport on the contour manifold and in its quotient."""

import numpy as np
import pytest

import oracles as orc
from conftest import random_sigma_shape, random_tangent
from shape_transport import (
    GeodesicPath,
    NumericalError,
    SingularShapeError,
    ZRShape,
    ZRTangent,
    exp_map,
    geodesic_between,
    geodesic_between_invariant,
    inner,
    transport_invariant,
    transport_sigma,
)
from shape_transport.zr_space import inner_raw, norm_raw, vertical_tangent_raw


def _path(seed, invariant=False, T=0.35):
    base = random_sigma_shape(seed)
    v = random_tangent(base, seed + 1000, horizontal=invariant)
    return exp_map(base, v, T, invariant=invariant)


def _fresh(path):
    """The same path with no transport memo."""
    return GeodesicPath(path.space, path.T, path.ts, path.points, path.v0,
                        path.v_end, base=path.base)


def _transported_pair(seed, invariant):
    path = _path(seed, invariant)
    base = ZRShape(100, path.points[0])
    w = random_tangent(base, seed + 2000, horizontal=invariant)
    fn = transport_invariant if invariant else transport_sigma
    return path, w, fn(path, w)


class TestBasics:
    @pytest.mark.parametrize("invariant", [False, True])
    def test_norm_preserved(self, invariant):
        path, w, res = _transported_pair(40, invariant)
        assert norm_raw(res.w_end) == pytest.approx(norm_raw(w.coeffs), abs=1e-12)
        assert res.norm_drift < 1e-6

    @pytest.mark.parametrize("invariant", [False, True])
    def test_inner_products_preserved(self, invariant):
        path = _path(50, invariant)
        base = ZRShape(100, path.points[0])
        w1 = random_tangent(base, 51, horizontal=invariant)
        w2 = random_tangent(base, 52, horizontal=invariant)
        fn = transport_invariant if invariant else transport_sigma
        r1, r2 = fn(path, w1), fn(path, w2)
        assert inner_raw(r1.w_end, r2.w_end) == pytest.approx(
            inner(w1, w2), abs=1e-6)

    @pytest.mark.parametrize("invariant", [False, True])
    def test_round_trip(self, invariant):
        path, w, res = _transported_pair(60, invariant)
        fn = transport_invariant if invariant else transport_sigma
        back = fn(path.reversed(), res.w_end)
        assert norm_raw(back.w_end - w.coeffs) < 1e-6

    def test_linearity(self):
        path = _path(70)
        base = ZRShape(100, path.points[0])
        w1 = random_tangent(base, 71)
        w2 = random_tangent(base, 72)
        combo = 0.3 * w1.coeffs - 1.7 * w2.coeffs
        r1 = transport_sigma(path, w1)
        r2 = transport_sigma(path, w2)
        rc = transport_sigma(path, combo)
        assert norm_raw(rc.w_end - (0.3 * r1.w_end - 1.7 * r2.w_end)) < 1e-8

    def test_velocity_self_transport(self):
        path = _path(80)
        res = transport_sigma(path, path.v0)
        assert norm_raw(res.w_end - path.v_end) < 1e-6

    def test_trivial_path(self):
        base = random_sigma_shape(90)
        w = random_tangent(base, 91)
        path = GeodesicPath("zr_sigma", 0.0, np.zeros(1),
                            base.coeffs[None, :], np.zeros(201),
                            np.zeros(201), base=base)
        res = transport_sigma(path, w)
        assert np.array_equal(res.w_end, w.coeffs)
        assert res.steps == 0

    def test_result_lands_in_tangent_space(self):
        path, _, res = _transported_pair(95, False)
        rows = orc.zr_constraint_rows(path.points[-1])
        assert np.abs(rows @ res.w_end).max() < 1e-8

    def test_invariant_result_is_horizontal(self):
        path, _, res = _transported_pair(96, True)
        uhat = vertical_tangent_raw(path.points[-1])
        assert abs(inner_raw(res.w_end, uhat)) < 1e-9


class TestAgainstSteppingOracle:
    def test_submanifold(self):
        path, w, res = _transported_pair(100, False)
        ref = orc.transport_stepping_richardson(path, w.coeffs, 64)
        assert norm_raw(res.w_end - ref) < 1e-6

    def test_quotient(self):
        path, w, res = _transported_pair(101, True)
        ref = orc.transport_stepping_richardson(path, w.coeffs, 256,
                                                invariant=True)
        assert norm_raw(res.w_end - ref) < 1e-6

    def test_bvp_path_quotient(self):
        a, b = random_sigma_shape(102), random_sigma_shape(103)
        path = geodesic_between_invariant(a, b, n_samples=17)
        base = ZRShape(100, path.points[0])
        w = random_tangent(base, 104, horizontal=True)
        res = transport_invariant(path, w)
        ref = orc.transport_stepping_richardson(path, w.coeffs, 256,
                                                invariant=True)
        assert norm_raw(res.w_end - ref) < 1e-6


class TestAgainstPerFrameLoop:
    @pytest.mark.parametrize("seed,invariant", [(140, False), (141, False),
                                                (142, True), (143, True)])
    def test_matches_per_frame_loop(self, seed, invariant):
        path, w, res = _transported_pair(seed, invariant)
        ref = orc.transport_per_frame(path, w.coeffs, invariant=invariant)
        assert norm_raw(res.w_end - ref) <= 1e-12


class TestFlatSubspace:
    def _sym_tangent(self, seed):
        rng = np.random.default_rng(seed)
        raw = np.zeros(201)
        n = np.arange(1, 101)
        keep = n % 2 == 0
        raw[1::2][keep] = rng.normal(size=keep.sum()) / n[keep] ** 1.5
        raw[2::2][keep] = rng.normal(size=keep.sum()) / n[keep] ** 1.5
        raw[0] = -raw[1::2].sum()
        return raw / norm_raw(raw)

    def test_transport_is_identity(self, rect_zr, hex_zr):
        path = geodesic_between(rect_zr, hex_zr, n_samples=17)
        w = self._sym_tangent(110)
        res = transport_sigma(path, w)
        assert norm_raw(res.w_end - w) < 1e-6

    def test_drift_vanishes(self, rect_zr, hex_zr):
        path = geodesic_between(rect_zr, hex_zr, n_samples=17)
        res = transport_sigma(path, self._sym_tangent(111))
        assert res.norm_drift < 1e-12


class TestConvergence:
    def test_step_halving_shrinks_oracle_gap(self):
        # exact frame rates make the integrator fourth order: halving the
        # step cuts the gap to a converged reference by about 16
        for seed, invariant in ((120, False), (142, True)):
            path, w, _ = _transported_pair(seed, invariant)
            ref = orc.transport_per_frame(path, w.coeffs, 1024, invariant)
            fn = transport_invariant if invariant else transport_sigma
            gap = [norm_raw(fn(path, w, steps_per_unit=n).w_end - ref)
                   for n in (32, 64)]
            assert gap[1] <= gap[0] / 10.0


class TestValidation:
    def test_kendall_path_rejected(self):
        from conftest import random_preshape
        from shape_transport import geodesic_kendall
        kp = geodesic_kendall(random_preshape(1), random_preshape(2))
        with pytest.raises(ValueError):
            transport_sigma(kp, np.zeros(201))

    def test_nontangent_vector_rejected(self):
        path = _path(130)
        bad = np.zeros(201)
        bad[2] = 1.0
        with pytest.raises(ValueError):
            transport_sigma(path, bad)

    def test_path_ending_at_circle_raises(self):
        # the quotient is singular at the circle (all coefficients zero)
        path = geodesic_between(random_sigma_shape(132), ZRShape(100, np.zeros(201)),
                                n_samples=17)
        path = GeodesicPath("zr_invariant", path.T, path.ts, path.points,
                            path.v0, path.v_end, base=path.base)
        w = random_tangent(path.base, 133, horizontal=True)
        with pytest.raises(SingularShapeError):
            transport_invariant(path, w)

    def test_vertical_vector_rejected_in_quotient(self):
        path = _path(131, invariant=True)
        u = vertical_tangent_raw(path.points[0])
        with pytest.raises(ValueError):
            transport_invariant(path, u)


class TestTransportMemo:
    """A path's second transport builds its transport matrix; later vectors
    are one product and must equal a fresh integration of the vector."""

    @pytest.mark.parametrize("invariant", [False, True])
    def test_memo_route_matches_fresh_integration(self, invariant):
        path = _path(150, invariant)
        fn = transport_invariant if invariant else transport_sigma
        base = ZRShape(100, path.points[0])
        for j in range(4):  # integration, matrix, then products
            w = random_tangent(base, 151 + j, horizontal=invariant)
            got, ref = fn(path, w), fn(_fresh(path), w)
            assert norm_raw(got.w_end - ref.w_end) <= 1e-13 * norm_raw(ref.w_end)
            assert abs(got.norm_drift - ref.norm_drift) <= 1e-14
            assert got.steps == ref.steps > 0
        assert isinstance(path._transports[(("zr", invariant), 256)], tuple)

    def test_geometries_and_step_counts_never_share(self):
        path = _path(155)
        w = random_tangent(ZRShape(100, path.points[0]), 156, horizontal=True)
        calls = [(transport_sigma, 256), (transport_sigma, 256),
                 (transport_invariant, 256), (transport_invariant, 256),
                 (transport_sigma, 64), (transport_sigma, 64)]
        for fn, spu in calls:
            got = fn(path, w, steps_per_unit=spu)
            ref = fn(_fresh(path), w, steps_per_unit=spu)
            assert norm_raw(got.w_end - ref.w_end) <= 1e-13 * norm_raw(ref.w_end)
        assert len(path._transports) == 3
        sigma = transport_sigma(path, w).w_end
        assert norm_raw(sigma - transport_invariant(path, w).w_end) > 1e-6

    def test_nontangent_vector_rejected_on_memo_route(self):
        path = _path(130)
        w = random_tangent(ZRShape(100, path.points[0]), 157)
        transport_sigma(path, w)
        transport_sigma(path, w)
        bad = np.zeros(201)
        bad[2] = 1.0
        with pytest.raises(ValueError):
            transport_sigma(path, bad)

    def test_vertical_vector_rejected_on_memo_route(self):
        path = _path(131, invariant=True)
        w = random_tangent(ZRShape(100, path.points[0]), 158, horizontal=True)
        transport_invariant(path, w)
        transport_invariant(path, w)
        with pytest.raises(ValueError):
            transport_invariant(path, vertical_tangent_raw(path.points[0]))

    def test_drift_limit_on_both_routes(self, monkeypatch):
        import shape_transport.paths as paths_mod
        path = _path(132)
        w = random_tangent(ZRShape(100, path.points[0]), 159)
        monkeypatch.setattr(paths_mod, "_DRIFT_LIMIT", -1.0)
        for _ in range(3):  # integration, matrix, product
            with pytest.raises(NumericalError):
                transport_sigma(path, w)
