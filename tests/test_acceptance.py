"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4b checks the auxiliary weight's C^1 contact at the rim
d = rho against its closed form: at d = rho (1 + e) the value and gradient
are exactly 0; at d = rho (1 - e), 2n e^2 <= |v| <= 2n e^2 (1 + e) and
4n e/rho <= |grad v| <= (4n e/rho)(1 + e), with e = 1e-3.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

import holo_interp as hi
from holo_interp import construction, geometry, pointset, rkhs, weights

import references

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ONE_PLUS_COTH_1 = 2.3130352854993313


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {name}: {status}  {detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------
# 1. comparison-factor suite

def test_criterion_1_comparison_factor_suite():
    t0 = time.perf_counter()
    worst_limit = max(abs(hi.hessian_comparison_factor(k, rho) - 2.0)
                      for k in (0.0, 1e-12, 1e-9) for rho in (0.3, 1.0, 2.5))
    ok_limit = worst_limit <= 1e-9

    at_one = hi.hessian_comparison_factor(1.0, 1.0)
    ok_value = abs(at_one - ONE_PLUS_COTH_1) <= 1e-9

    # 100 (k, rho) pairs with bit-identical product k*rho = x
    exact = True
    for x in (0.37, 1.0, 2.6, 5.1):
        ref = hi.hessian_comparison_factor(x, 1.0)
        for j in range(-12, 13):
            c = 2.0 ** j
            if hi.hessian_comparison_factor(x / c, c) != ref:
                exact = False
    elapsed = time.perf_counter() - t0

    ok = _report(1, "comparison factor suite",
                 ok_limit and ok_value and exact and elapsed < 1.0,
                 f"limit err {worst_limit:.2e}, value err {abs(at_one - ONE_PLUS_COTH_1):.2e}, "
                 f"product-exact {exact}, {elapsed:.3f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. squared-distance comparison on the models

def test_criterion_2_squared_distance_comparison():
    t0 = time.perf_counter()
    disk = hi.hyperbolic_ball(1.0)  # k = 1
    worst_ratio = 0.0
    for i in range(200):
        d = 0.1 + (3.0 - 0.1) * i / 199.0
        z = np.array([geometry.geodesic_point(disk, 0.0, d, 2.399 * i)])
        H = hi.complex_hessian_fd(lambda t: hi.distance(disk, np.zeros(1), t) ** 2, z)
        rel = geometry.relative_form_eigenvalues(disk, z, H)[-1]
        worst_ratio = max(worst_ratio, rel / hi.hessian_comparison_factor(1.0, d))
    ok_hyp = worst_ratio <= 1.0 + 1e-4

    flat = hi.flat_space(1)
    p = 0.4 - 0.7j
    worst_flat = 0.0
    for i in range(50):
        z = np.array([complex(math.cos(i), math.sin(2 * i)) * 1.7])
        H = hi.complex_hessian_fd(lambda t: abs(t[0] - p) ** 2, z)
        rel = geometry.relative_form_eigenvalues(flat, z, H)[0]
        worst_flat = max(worst_flat, abs(rel - 2.0))
    ok_flat = worst_flat <= 1e-6
    elapsed = time.perf_counter() - t0

    ok = _report(2, "squared-distance comparison", ok_hyp and ok_flat and elapsed < 60.0,
                 f"worst rel/bound {worst_ratio:.10f}, flat err {worst_flat:.2e}, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. plurisubharmonicity of the hyperbolic log-tanh weight

def test_criterion_3_log_tanh_psh():
    t0 = time.perf_counter()
    disk = hi.hyperbolic_ball(1.0)
    rng = np.random.default_rng(11)
    centers = [0.0 + 0.0j] * 300 + [0.3 + 0.2j] * 200
    worst_eig = 0.0
    worst_lap = 0.0
    for p in centers:
        r = 0.05 + 0.55 * rng.random()
        z0 = p + r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if abs(z0) > 0.93:
            z0 = p + 0.05 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        z = np.array([z0])
        pvec = np.array([p])

        def f(t):
            return float(2.0 * np.log(np.tanh(hi.distance(disk, pvec, t) / 2.0)))

        H = hi.complex_hessian_fd(f, z, step=2.5e-4 * max(1.0, abs(z0)))
        rel = geometry.relative_form_eigenvalues(disk, z, H)[0]
        worst_eig = min(worst_eig, rel)
        worst_lap = max(worst_lap, abs(4.0 * H[0, 0].real))
    elapsed = time.perf_counter() - t0

    ok = _report(3, "log-tanh plurisubharmonicity",
                 worst_eig >= -1e-6 and worst_lap <= 1e-5 and elapsed < 60.0,
                 f"min eigenvalue {worst_eig:.2e}, worst |Laplacian| {worst_lap:.2e}, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4. auxiliary weight

def test_criterion_4_auxiliary_weight_sign_and_curvature():
    flat = hi.flat_space(1)
    disk = hi.hyperbolic_ball(1.0)
    rng = np.random.default_rng(23)

    lat = pointset.square_lattice(1.5, half_extent=3.0)
    aux = construction.AuxiliaryWeight(flat, lat, 2.0)
    zs = rng.uniform(-4, 4, (10_000, 1)) + 1j * rng.uniform(-4, 4, (10_000, 1))
    vals = aux.value_grid(zs)
    ok_sign = bool(np.all(vals <= 0.0))

    single_flat = construction.AuxiliaryWeight(flat, pointset.PointSet(np.array([[0j]])), 1.0)
    rep_flat = hi.auxiliary_curvature_check(
        single_flat, flat, [0.15 + 0j, 0.3 + 0.3j, 0.55j, 0.7 + 0.1j], tol=1e-4)

    single_hyp = construction.AuxiliaryWeight(disk, pointset.PointSet(np.array([[0j]])), 0.8)
    rep_hyp = hi.auxiliary_curvature_check(
        single_hyp, disk, [0.06 + 0j, 0.1 + 0.1j, 0.2j, 0.25 + 0.05j], tol=1e-4)

    ok = _report(4, "auxiliary weight sign and curvature",
                 ok_sign and rep_flat.passed and rep_hyp.passed,
                 f"max v {float(np.max(vals)):.2e}, flat slack {rep_flat.worst_slack:.2e}, "
                 f"hyperbolic slack {rep_hyp.worst_slack:.2e}")
    assert ok


def test_criterion_4_boundary_c1_literal_tolerances():
    # The weight is C^1 across the rim d = rho but not C^2.  Outside the ball
    # v and its gradient vanish identically.  Inside, at d = rho (1 - e), the
    # closed form of n (1 - u + log u), u = d^2/rho^2, gives
    #   v = -2n e^2 (1 + e/3 + O(e^2)),  |grad v| = (4n e/rho)(1 + e/2 + O(e^2)),
    # so 2n e^2 <= |v| <= 2n e^2 (1 + e) and 4n e/rho <= |grad v| <= (4n e/rho)(1 + e).
    # v depends on d/rho only, so the same bands hold on the disk with the
    # gradient measured in the metric, 2 |dbar v| / sqrt(g).  The bands are
    # 0.1% wide: a value offset, a first-order rim term or a changed -4n/rho^2
    # jump of the second derivative leaves them by orders of magnitude.
    e = 1e-3
    cases = []  # (label, weight, side, point, metric coefficient g at the point)
    for n in (1, 2):
        space = hi.flat_space(n)
        unit = np.array([1.0 + 0j]) if n == 1 else np.array([0.6, 0.8j])
        for rho in (0.5, 1.0, 2.5):
            aux = construction.AuxiliaryWeight(
                space, pointset.PointSet(np.zeros((1, n), dtype=complex)), rho)
            for side in (-1.0, +1.0):
                cases.append((f"flat n={n} rho={rho}", aux, side,
                              rho * (1.0 + side * e) * unit, 1.0))
    disk = hi.hyperbolic_ball(1.0)
    node = 0.3 - 0.2j
    aux = construction.AuxiliaryWeight(disk, pointset.PointSet(np.array([[node]])), 0.8)
    for side in (-1.0, +1.0):
        z = np.array([geometry.geodesic_point(disk, node, aux.rho * (1.0 + side * e), 0.7)])
        cases.append(("disk rho=0.8", aux, side, z, 4.0 / (1.0 - abs(z[0]) ** 2) ** 2))

    violations, v_ratios, g_ratios = [], [], []
    for label, aux, side, z, g in cases:
        v = aux.value(z)
        dbar = references.dbar_fd(aux.value, z, step=1e-7 * aux.rho)
        gnorm = 2.0 * float(np.linalg.norm(dbar)) / math.sqrt(g)
        if side > 0:
            if v != 0.0 or gnorm != 0.0:
                violations.append(f"{label} outside: v = {v:.3e}, |grad v| = {gnorm:.3e}, not 0")
            continue
        v_ratio = abs(v) / (2.0 * aux.n * e ** 2)
        g_ratio = gnorm / (4.0 * aux.n * e / aux.rho)
        v_ratios.append(v_ratio)
        g_ratios.append(g_ratio)
        if not 1.0 <= v_ratio <= 1.0 + e:
            violations.append(f"{label} inside: |v| / (2n e^2) = {v_ratio:.6f}")
        if not 1.0 <= g_ratio <= 1.0 + e:
            violations.append(f"{label} inside: |grad v| / (4n e/rho) = {g_ratio:.6f}")
    ok = _report("4b", "auxiliary weight C1 rim contact", not violations,
                 f"{len(cases)} rim points; inside |v|/(2n e^2) in "
                 f"[{min(v_ratios):.5f}, {max(v_ratios):.5f}], |grad v|/(4n e/rho) in "
                 f"[{min(g_ratios):.5f}, {max(g_ratios):.5f}]; "
                 + ("; ".join(violations) if violations else "outside v = |grad v| = 0"))
    assert ok, "; ".join(violations)


# ---------------------------------------------------------------------------
# 5. gluing construction

def test_criterion_5_glued_construction():
    flat = hi.flat_space(1)
    w = hi.fock_weight(1.0)
    lat = pointset.square_lattice(1.5, half_extent=3.0)
    assert len(lat) == 25
    rng = np.random.default_rng(7)
    vals = rng.normal(size=25) + 1j * rng.normal(size=25)
    pts = lat.with_values(vals)
    ext = hi.glued_extension(flat, w, pts)

    exact = all(hi.evaluate_extension(ext, pts.points[i]) == pts.values[i]
                for i in range(len(pts)))

    worst_dbar = 0.0
    for i in (0, 6, 12, 18, 24):
        p = complex(pts.points[i, 0])
        for off in (0.08, 0.1j, -0.15 + 0.1j):
            z = np.array([p + off])
            assert abs(off) <= 0.9 * ext.delta0 / 2.0
            g = references.dbar_fd(lambda t: hi.evaluate_extension(ext, complex(t[0])), z)
            f_val = hi.evaluate_extension(ext, complex(z[0]))
            worst_dbar = max(worst_dbar, abs(g[0]) / abs(f_val))
    ok_dbar = worst_dbar <= 1e-8

    aux = construction.AuxiliaryWeight(flat, pts, 2.0)
    energy = construction.dbar_energy_report(ext, aux, nr=16, ntheta=32)
    ok_energy = math.isfinite(energy.energy) and energy.drift <= 0.05

    doubled = pts.with_values(2.0 * vals)
    ext2 = hi.glued_extension(flat, w, doubled)
    e2 = hi.dbar_energy(ext2, aux, nr=16, ntheta=32)
    ok_scale = (e2 == 4.0 * energy.energy)

    ok = _report(5, "glued construction", exact and ok_dbar and ok_energy and ok_scale,
                 f"values exact {exact}, worst rel dbar {worst_dbar:.2e}, "
                 f"drift {energy.drift:.2%}, x4 exact {ok_scale}")
    assert ok


# ---------------------------------------------------------------------------
# 6. mean-value estimate

def test_criterion_6_mean_value_estimate():
    w = hi.fock_weight(1.0)  # r0 = 1, check on balls of radius r0/2
    radius = w.r0 / 2.0
    sections = {
        "1": weights.Polynomial.from_coeffs([1.0]),
        "z": weights.Polynomial.from_coeffs([0.0, 1.0]),
        "z^3+2z": weights.Polynomial.from_coeffs([0.0, 2.0, 0.0, 1.0]),
    }
    rng = np.random.default_rng(31)
    violations = 0
    worst = 0.0
    for _ in range(20):
        x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        c = weights.mean_value_constant(w, x, radius)
        for name, f in sections.items():
            lhs = abs(f(np.array([x]))) ** 2 * math.exp(-abs(x) ** 2)
            integral = construction.euclidean_disk_integral(
                lambda Z: np.abs(f(Z[..., None])) ** 2 * np.exp(-np.abs(Z) ** 2),
                x, radius, nr=64, ntheta=128)
            ratio = lhs / (c * integral)
            worst = max(worst, ratio)
            if ratio > 1.0:
                violations += 1
    ok = _report(6, "mean-value estimate", violations == 0,
                 f"violations {violations}, worst lhs/bound {worst:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 7. certificate/feasibility consistency

def test_criterion_7_certificate_feasibility_consistency():
    t0 = time.perf_counter()
    with open(FIXTURES / "feasibility_delta_star.json") as fh:
        fx = json.load(fh)
    delta_star = fx["delta_star"]
    space = hi.flat_space(1)
    w = hi.fock_weight(fx["alpha"])
    kernel = rkhs.fock_kernel(fx["alpha"])
    g0, g1, gm = fx["grid"]
    grid = pointset.grid_points(g0, g1, gm, g0, g1, gm)

    sweep = rkhs.feasibility_sweep(kernel, fx["spacings"], fx["radius"])
    eig_by_s = {r.spacing: r.eig_min for r in sweep.rows}

    passing = []
    regressions = []
    for s in fx["spacings"]:
        lattice = pointset.square_lattice(s, radius=fx["radius"])
        rep = hi.theorem1_certificate(w, space, lattice, fx["rho"], fx["eps"], grid)
        if rep.passed:
            passing.append(s)
            if eig_by_s[s] < delta_star / 2.0:
                regressions.append(s)
        drift = abs(eig_by_s[s] - fx["eig_min_by_spacing"][str(s)])
        assert drift <= 1e-9, f"eigensolve drift {drift:.2e} at spacing {s}"

    ok_passing = passing == fx["passing_spacings"]
    ok_monotone = sweep.monotone_in_spacing
    elapsed = time.perf_counter() - t0
    ok = _report(7, "certificate/feasibility consistency",
                 ok_passing and not regressions and ok_monotone and elapsed < 300.0,
                 f"passing {passing}, delta* {delta_star:.6f}, monotone {ok_monotone}, "
                 f"{elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 8. flat rescaling invariance

def test_criterion_8_flat_rescaling_invariance():
    # coordinates x2, rho x2, alpha /4, eps /4: margins scale exactly by 1/4
    space = hi.flat_space(1)
    lat = pointset.square_lattice(5.0, half_extent=10.0)
    grid = pointset.grid_points(-3, 3, 21, -3, 3, 21)
    rep1 = hi.theorem1_certificate(hi.fock_weight(1.0), space, lat, 2.0, 0.5, grid)

    lat_t = pointset.PointSet(lat.points * 2.0)
    grid_t = grid * 2.0
    rep4 = hi.theorem1_certificate(hi.fock_weight(0.25), space, lat_t, 4.0, 0.125, grid_t)

    worst = float(np.max(np.abs(4.0 * rep4.per_sample - rep1.per_sample)))
    ok = _report(8, "flat rescaling invariance", worst <= 1e-12,
                 f"worst margin discrepancy {worst:.2e} over {len(rep1.per_sample)} samples")
    assert ok


# ---------------------------------------------------------------------------
# 9. kernel engine

def test_criterion_9_kernel_engine():
    k = rkhs.fock_kernel(1.0)
    rng = np.random.default_rng(41)

    base = np.array([complex(p, q) * 2.0 for p in range(-2, 3) for q in range(-2, 2)])
    z = base + 0.3 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
    a = rng.normal(size=20) + 1j * rng.normal(size=20)
    pts = pointset.PointSet(z.reshape(-1, 1), a)
    itp = rkhs.min_norm_interpolant(k, pts)
    worst_res = float(np.max(references.residuals(itp))) / float(np.max(np.abs(a)))
    ok_res = worst_res <= 1e-10

    # closed forms on the symmetric pair
    ok_closed = True
    for s in (0.7, 1.3, 2.0):
        pair = rkhs.min_norm_interpolant(
            k, pointset.PointSet(np.array([[s], [-s]], dtype=complex),
                                 np.array([1.0, 1.0], dtype=complex)))
        off = math.exp(-2.0 * s * s)
        ok_closed &= abs(pair.diagnostic.eig_min - (1.0 - off)) <= 1e-12
        ok_closed &= abs(pair.diagnostic.eig_max - (1.0 + off)) <= 1e-12
        expect = 1.0 / (math.exp(s * s) + math.exp(-s * s))
        ok_closed &= abs(pair.coefficients[0] - expect) <= 1e-12
        ok_closed &= abs(pair.coefficients[1] - expect) <= 1e-12

    # minimality against 100 value-preserving perturbations in an enlarged span
    extras = rng.uniform(-2, 2, 10) + 1j * rng.uniform(-2, 2, 10)
    allpts = np.concatenate([z, extras]).reshape(-1, 1)
    k_all = np.exp(k.log_kernel(allpts[:, None], allpts)).astype(complex)
    from scipy.linalg import null_space
    basis = null_space(k_all[:20, :])
    c_full = np.concatenate([itp.coefficients, np.zeros(10, complex)])
    base = float(np.real(np.conj(c_full) @ k_all @ c_full))
    minimal = True
    for _ in range(100):
        mix = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        cand = c_full + basis @ mix
        if float(np.real(np.conj(cand) @ k_all @ cand)) < base - 1e-9 * max(1.0, base):
            minimal = False
    ok = _report(9, "kernel engine", ok_res and ok_closed and minimal,
                 f"worst residual {worst_res:.2e}, closed forms {ok_closed}, minimal {minimal}")
    assert ok
