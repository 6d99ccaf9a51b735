"""Acceptance gate: ten numbered checks with fixed tolerances.

Every test prints one ACCEPTANCE NN PASS/FAIL line (visible with pytest -s or
on failure) and asserts the same condition, so `pytest -v` shows one verdict
per criterion.
"""

import time

import numpy as np

import oracles as orc
from conftest import (
    random_horizontal_k,
    random_preshape,
    random_sigma_shape,
    random_tangent,
    square_contour,
)
from shape_transport import (
    GeodesicPath,
    PreShape,
    ZRShape,
    contour_to_zr,
    exp_kendall,
    exp_map,
    geodesic_between,
    geodesic_kendall,
    helmertize,
    mu,
    transport_invariant,
    transport_kendall,
    transport_sigma,
    unhelmertize,
    zr_to_contour,
)
from shape_transport.contour_io import diameter
from shape_transport.polygons import (
    hexagon_sixgon,
    rectangle_sixgon,
    rectangle_sixgon_shifted,
)
from shape_transport.zr_space import (
    inner_raw,
    norm_raw,
    project_to_sigma_batch,
)

RHO_ROW = (0.17, 0.12, 0.44, 0.083)
MU_ROW = (0.99, 0.96, 1.00, 0.88)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_calibration_row():
    t0 = time.monotonic()
    got = [mu(r, 201) for r in RHO_ROW]
    elapsed = time.monotonic() - t0
    worst = max(abs(g - w) for g, w in zip(got, MU_ROW))
    ok = worst <= 0.015 and elapsed < 1.0
    assert _verdict(1, ok, f"mu row gap {worst:.4f} (tol 0.015), {elapsed:.2f}s")


def test_criterion_02_planar_closed_form_vs_ode():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        k = 3 + i % 6
        rng = np.random.default_rng(2000 + i)
        x = random_preshape(2000 + i, k=k)
        v = random_horizontal_k(x, 2300 + i)
        w = random_horizontal_k(x, 2600 + i)
        big_t = float(rng.uniform(0.3, 1.2))
        for frac in (0.25, 0.5, 0.75, 1.0):
            sub = exp_kendall(x, v, frac * big_t)
            ode = transport_kendall(sub, w)
            closed = orc.transport_kendall_m2(sub, w)
            worst = max(worst, float(np.linalg.norm(ode.w_end - closed)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    assert _verdict(2, ok, f"sup gap {worst:.2e} (tol 1e-6), {elapsed:.1f}s")


def _slaved_two_symmetric(seed):
    rng = np.random.default_rng(seed)
    raw = np.zeros(201)
    n = np.arange(1, 101)
    keep = n % 2 == 0
    raw[1::2][keep] = rng.normal(size=keep.sum()) / n[keep] ** 1.5
    raw[2::2][keep] = rng.normal(size=keep.sum()) / n[keep] ** 1.5
    raw[0] = -raw[1::2].sum()
    return raw / norm_raw(raw)


def test_criterion_03_flat_subspace():
    t0 = time.monotonic()
    s1 = contour_to_zr(rectangle_sixgon())
    s2 = contour_to_zr(rectangle_sixgon_shifted())
    s3 = contour_to_zr(hexagon_sixgon())
    worst_tr, worst_str = 0.0, 0.0
    for j, (a, b) in enumerate(((s1, s3), (s2, s3), (s1, s2))):
        path = geodesic_between(a, b)
        lam = (path.ts / path.T)[:, None]
        straight = (1 - lam) * a.coeffs + lam * b.coeffs
        worst_str = max(worst_str, float(np.abs(path.points - straight).max()))
        for i in range(5):
            w = _slaved_two_symmetric(3000 + 10 * j + i)
            res = transport_sigma(path, w)
            worst_tr = max(worst_tr, float(norm_raw(res.w_end - w)))
    elapsed = time.monotonic() - t0
    ok = worst_tr <= 1e-6 and worst_str <= 1e-6 and elapsed < 60.0
    assert _verdict(3, ok, f"transport-identity gap {worst_tr:.2e}, "
                           f"straightness gap {worst_str:.2e} (tol 1e-6), "
                           f"{elapsed:.1f}s")


def _wiggle_zr_path(seed, space):
    base = random_sigma_shape(seed)
    rng = np.random.default_rng(seed + 4000)
    decay = np.concatenate([[1.0], np.repeat(np.arange(1, 101), 2)]) ** 1.5
    d1 = rng.normal(size=201) * 0.12 / decay
    d2 = rng.normal(size=201) * 0.12 / decay
    ts = np.linspace(0.0, 1.0, 7)
    fam = base.coeffs[None, :] + np.outer(ts, d1) + np.outer(ts**2, d2)
    pts = project_to_sigma_batch(fam)
    z = np.zeros(201)
    return GeodesicPath(space, 1.0, ts, pts, z, z, base=base)


def _wiggle_kendall_path(seed, k):
    x = random_preshape(seed, k=k)
    rng = np.random.default_rng(seed + 4500)
    d1 = rng.normal(size=x.mat.shape) * 0.2
    d2 = rng.normal(size=x.mat.shape) * 0.2
    ts = np.linspace(0.0, 1.0, 7)
    fam = (x.mat[None] + ts[:, None, None] * d1
           + (ts**2)[:, None, None] * d2).reshape(7, -1)
    fam /= np.linalg.norm(fam, axis=1, keepdims=True)
    z = np.zeros(fam.shape[1])
    return GeodesicPath("kendall", 1.0, ts, fam, z, z,
                        base=PreShape(x.m, fam[0].reshape(x.mat.shape)))


def test_criterion_04_transport_isometry():
    t0 = time.monotonic()
    worst_ip, worst_rt = 0.0, 0.0
    for i in range(100):
        for space in ("zr_sigma", "zr_invariant"):
            horizontal = space == "zr_invariant"
            fn = transport_invariant if horizontal else transport_sigma
            path = _wiggle_zr_path(100 * (space == "zr_invariant") + 400 + i,
                                   space)
            start = ZRShape(100, path.points[0])
            w1 = random_tangent(start, 5000 + i, horizontal=horizontal)
            w2 = random_tangent(start, 5300 + i, horizontal=horizontal)
            r1, r2 = fn(path, w1), fn(path, w2)
            ip0 = inner_raw(w1.coeffs, w2.coeffs)
            worst_ip = max(worst_ip,
                           abs(inner_raw(r1.w_end, r2.w_end) - ip0))
            back = fn(path.reversed(), r1.w_end)
            worst_rt = max(worst_rt, float(norm_raw(back.w_end - w1.coeffs)))
        kp = _wiggle_kendall_path(700 + i, k=4 + i % 4)
        xs = PreShape(2, kp.points[0].reshape(-1, 2))
        w1 = random_horizontal_k(xs, 6000 + i).ravel()
        w2 = random_horizontal_k(xs, 6300 + i).ravel()
        r1, r2 = transport_kendall(kp, w1), transport_kendall(kp, w2)
        worst_ip = max(worst_ip, abs(float(np.dot(r1.w_end, r2.w_end))
                                     - float(np.dot(w1, w2))))
        back = transport_kendall(kp.reversed(), r1.w_end)
        worst_rt = max(worst_rt, float(np.linalg.norm(back.w_end - w1)))
    elapsed = time.monotonic() - t0
    ok = worst_ip <= 1e-6 and worst_rt <= 1e-6
    assert _verdict(4, ok, f"inner-product drift {worst_ip:.2e}, round trip "
                           f"{worst_rt:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_05_velocity_self_transport():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(20):
        base = random_sigma_shape(800 + i)
        v = random_tangent(base, 7000 + i)
        path = exp_map(base, v, 0.25)
        res = transport_sigma(path, path.v0)
        worst = max(worst, float(norm_raw(res.w_end - path.v_end)))

        vh = random_tangent(base, 7300 + i, horizontal=True)
        qpath = exp_map(base, vh, 0.25, invariant=True)
        qres = transport_invariant(qpath, qpath.v0)
        worst = max(worst, float(norm_raw(qres.w_end - qpath.v_end)))

        x = random_preshape(900 + i, k=3 + i % 6)
        kv = random_horizontal_k(x, 7600 + i)
        kpath = exp_kendall(x, kv, 0.6)
        kres = transport_kendall(kpath, kpath.v0)
        worst = max(worst, float(np.linalg.norm(kres.w_end - kpath.v_end)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6
    assert _verdict(5, ok, f"velocity fixed-point gap {worst:.2e} (tol 1e-6), "
                           f"{elapsed:.1f}s")


def test_criterion_06_quotient_correction():
    t0 = time.monotonic()
    material, worst_err = 0, 0.0
    for i in range(20):
        base = random_sigma_shape(1000 + i)
        v = random_tangent(base, 8000 + i, horizontal=True)
        path = exp_map(base, v, 0.3, invariant=True)
        w = random_tangent(ZRShape(100, path.points[0]), 8300 + i,
                          horizontal=True)
        qi = transport_invariant(path, w)
        qs = transport_sigma(path, w)
        if norm_raw(qi.w_end - qs.w_end) >= 1e-3:
            material += 1
        ref = orc.transport_stepping_richardson(path, w.coeffs, 64,
                                                invariant=True)
        worst_err = max(worst_err, float(norm_raw(qi.w_end - ref)))
    elapsed = time.monotonic() - t0
    ok = material >= 15 and worst_err <= 1e-4
    assert _verdict(6, ok, f"correction >= 1e-3 on {material}/20 cases "
                           f"(need 15), oracle gap {worst_err:.2e} (tol 1e-4), "
                           f"{elapsed:.1f}s")


def test_criterion_07_contour_round_trip():
    t0 = time.monotonic()
    worst = 0.0
    for poly in (square_contour(), rectangle_sixgon(), hexagon_sixgon()):
        shape = contour_to_zr(poly)
        back = zr_to_contour(shape, m=1024)
        ref = orc.resample_closed(poly.points, 1024)
        rel = orc.hausdorff_distance(back.points, ref) / diameter(poly.points)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.02
    assert _verdict(7, ok, f"round-trip Hausdorff {worst:.4f} of diameter "
                           f"(tol 0.02), {elapsed:.1f}s")


def _similarity_align(a, b):
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    u, _, vt = np.linalg.svd(b.T @ a)
    d = np.ones(2)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        d[-1] = -1.0
    return a, b @ (u @ np.diag(d) @ vt)


def test_criterion_08_cross_geometry_landmarks():
    t0 = time.monotonic()
    rect, hexg = rectangle_sixgon(), hexagon_sixgon()
    s1, s3 = contour_to_zr(rect), contour_to_zr(hexg)
    zr_path = geodesic_between(s1, s3)
    k_path = geodesic_kendall(helmertize(rect.points), helmertize(hexg.points))
    worst = 0.0
    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
        c = zr_to_contour(s1.with_coeffs(zr_path.point_at(f * zr_path.T)),
                          m=1536)
        zr_marks = c.points[::256][:6]
        kp = k_path.point_at(f * k_path.T).reshape(-1, 2)
        k_marks = unhelmertize(PreShape(2, kp))
        a, b = _similarity_align(zr_marks, k_marks)
        worst = max(worst, float(np.linalg.norm(a - b, axis=1).max()
                                 / diameter(a)))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05
    assert _verdict(8, ok, f"matched-fraction landmark gap {worst:.4f} of "
                           f"diameter (tol 0.05), {elapsed:.1f}s")


def test_criterion_09_integrator_order():
    t0 = time.monotonic()
    ok_cases, floor_cases = 0, 0
    worst_ratio = np.inf
    for i in range(20):
        base = random_sigma_shape(1200 + i)
        v = random_tangent(base, 9000 + i)
        path = exp_map(base, v, 0.3)
        w = random_tangent(ZRShape(100, path.points[0]), 9300 + i)
        d32 = transport_sigma(path, w, steps_per_unit=32).norm_drift
        d64 = transport_sigma(path, w, steps_per_unit=64).norm_drift
        if d32 < 1e-10:
            # already at the noise floor; halving cannot show the order
            floor_cases += 1
            ok_cases += 1
            continue
        ratio = d32 / max(d64, 1e-300)
        worst_ratio = min(worst_ratio, ratio)
        if ratio >= 4.0:
            ok_cases += 1
    elapsed = time.monotonic() - t0
    ok = ok_cases == 20
    detail = (f"{ok_cases}/20 cases reduce drift >= 4x "
              f"({floor_cases} at noise floor")
    if np.isfinite(worst_ratio):
        detail += f", worst ratio {worst_ratio:.1f}"
    assert _verdict(9, ok, detail + f"), {elapsed:.1f}s")


def test_criterion_10_calibration_analytic():
    t0 = time.monotonic()
    grid = np.linspace(0.0, 1.0, 100)
    worst = max(abs(mu(r, 3) - (1.0 + r) / 2.0) for r in grid)
    ends = max(max(abs(mu(0.0, n) - 0.5), abs(mu(1.0, n) - 1.0))
               for n in (3, 10, 201))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and ends <= 1e-10
    assert _verdict(10, ok, f"closed-form gap {worst:.2e} (tol 1e-10), "
                            f"endpoint gap {ends:.2e}, {elapsed:.1f}s")
