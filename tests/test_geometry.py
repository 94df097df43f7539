import math

import mpmath
import numpy as np
import pytest

import holo_interp as hi
from holo_interp import geometry
from holo_interp.errors import DomainError

# high-precision references (frozen from an mpmath run at 30 digits)
FOUR_ATANH_HALF = 2.1972245773362194
ONE_PLUS_COTH_1 = 2.3130352854993313
HYP_DISK_AREA_R1 = 3.4122762652849023  # 2*pi*(cosh(1) - 1)


class TestModelSpace:
    def test_flat_invariants(self):
        with pytest.raises(DomainError):
            geometry.ModelSpace(geometry.FLAT, n=1, k=0.5)
        with pytest.raises(DomainError):
            geometry.ModelSpace(geometry.FLAT, n=1, k=0.0, kappa=1.0)
        with pytest.raises(DomainError):
            geometry.ModelSpace(geometry.FLAT, n=0)

    def test_hyperbolic_invariants(self):
        with pytest.raises(DomainError):
            geometry.ModelSpace(geometry.HYPERBOLIC_BALL, n=1, k=1.0)  # kappa missing
        with pytest.raises(DomainError):
            geometry.ModelSpace(geometry.HYPERBOLIC_BALL, n=1, k=0.4, kappa=2.0)  # k < 1/kappa
        sp = hi.hyperbolic_ball(2.0)
        assert sp.k == 0.5

    @pytest.mark.parametrize("kappa", [1e200, 1e-200, 1.4e154, 1.4e-154, -1.0])
    def test_kappa_square_must_be_a_normal_float(self, kappa):
        with pytest.raises(DomainError, match="normal float"):
            hi.hyperbolic_ball(kappa)
        with pytest.raises(DomainError, match="normal float"):
            geometry.space_from_dict({"kind": geometry.HYPERBOLIC_BALL, "kappa": kappa})
        for edge in (1.3e154, 1.5e-154):
            assert hi.hyperbolic_ball(edge).kappa == edge

    def test_membership(self, disk):
        assert disk.contains(0.99)
        assert not disk.contains(1.0)
        with pytest.raises(DomainError):
            disk.validate_point(1.2)

    def test_dict_round_trip(self, disk, flat1):
        for sp in (disk, flat1, hi.hyperbolic_ball(2.0, k=1.5)):
            assert geometry.space_from_dict(geometry.space_to_dict(sp)) == sp


class TestDistance:
    def test_flat_euclidean(self, flat1):
        assert hi.distance(flat1, 0, 3 + 4j) == pytest.approx(5.0, abs=0)

    def test_hyperbolic_from_origin(self, disk):
        assert hi.distance(disk, 0, math.tanh(0.5)) == pytest.approx(1.0, rel=1e-14)

    def test_hyperbolic_kappa2_boundary_point(self):
        sp = hi.hyperbolic_ball(2.0)
        assert hi.distance(sp, 0, 1.0) == pytest.approx(FOUR_ATANH_HALF, abs=1e-12)

    def test_outside_ball_rejected(self, disk):
        with pytest.raises(DomainError):
            hi.distance(disk, 0, 1.5)

    def test_flat_n2(self):
        sp = hi.flat_space(2)
        assert hi.distance(sp, [0, 0], [3, 4j]) == pytest.approx(5.0)

    @pytest.mark.parametrize("space", ["flat", "disk"])
    def test_metric_axioms_random_triples(self, space, rng):
        sp = hi.flat_space(1) if space == "flat" else hi.hyperbolic_ball(1.0)
        scale = 2.0 if space == "flat" else 0.95
        for _ in range(1000):
            x, y, z = (complex(*rng.uniform(-scale / 1.5, scale / 1.5, 2)) for _ in range(3))
            dxy = hi.distance(sp, x, y)
            dyx = hi.distance(sp, y, x)
            assert dxy == dyx
            assert dxy >= 0.0
            assert (dxy == 0.0) == (x == y)
            assert dxy <= hi.distance(sp, x, z) + hi.distance(sp, z, y) + 1e-12

    @pytest.mark.parametrize("space", [hi.flat_space(2), hi.hyperbolic_ball(3.0, n=2)])
    def test_one_closed_form(self, space, rng):
        # distance, distances_from and the row-wise form agree to the bit
        a = (rng.uniform(-1, 1, (40, 2)) + 1j * rng.uniform(-1, 1, (40, 2)))
        b = a[::-1].copy()
        rows = geometry.geodesic_distances(space, a, b)
        assert rows.shape == (40,)
        for i in range(40):
            d = geometry.distances_from(space, a[i:i + 1], b[i])[0]
            assert rows[i] == d == hi.distance(space, a[i], b[i]) == hi.distance(space, b[i], a[i])

    def test_vectorized_matches_scalar(self, disk, rng):
        pts = (rng.uniform(-0.6, 0.6, (50, 1)) + 1j * rng.uniform(-0.6, 0.6, (50, 1)))
        z = 0.1 + 0.2j
        d = geometry.distances_from(disk, pts, z)
        for i in range(50):
            assert d[i] == pytest.approx(hi.distance(disk, pts[i], z), rel=1e-14)


def mp_room(space, z):
    """``kappa^2 - |z|^2`` at 40 digits on the exact values of the float row."""
    mpmath.mp.dps = 40
    return mpmath.mpf(space.kappa) ** 2 - sum(abs(mpmath.mpc(complex(c))) ** 2 for c in z)


def mp_distance(space, a, b):
    """The closed form at 40 digits on the exact values of the float rows."""
    mpmath.mp.dps = 40
    h = mpmath.sqrt(sum(abs(mpmath.mpc(complex(x)) - mpmath.mpc(complex(y))) ** 2
                        for x, y in zip(a, b)))
    if space.is_flat:
        return h
    kap = mpmath.mpf(space.kappa)
    return 2 * kap * mpmath.asinh(kap * h / mpmath.sqrt(mp_room(space, a) * mp_room(space, b)))


def assert_ulps(space, pairs, ulps, per_room=0.0):
    """Each distance within ``ulps`` of mpmath's, plus ``per_room`` ulps per
    unit of ``kappa^2/room_a + kappa^2/room_b`` on the ball: the rooms are
    rounded from rounded squares, which costs that many ulps at the rim."""
    a, b = (np.array(z) for z in zip(*pairs))
    d = geometry.geodesic_distances(space, a, b)
    for u, (x, y) in zip(d, pairs):
        r = mp_distance(space, x, y)
        err = abs(mpmath.mpf(float(u)) - r) / np.spacing(float(r))
        cond = 0 if space.is_flat else sum(mpmath.mpf(space.kappa) ** 2 / mp_room(space, z)
                                           for z in (x, y))
        assert err <= ulps + per_room * cond, (x, y)


def scaled_pairs(rng, n, radius, scales, m=20):
    """For each ``c`` in ``scales``: pairs of random rows of modulus below
    ``c``, and pairs of a row of modulus below ``radius`` and that row moved
    by less than ``1e-3 c``."""
    def rows(r):
        return (rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))) * r / math.sqrt(2 * n)
    pairs = []
    for c in scales:
        a = rows(radius)
        pairs += list(zip(rows(c), rows(c))) + list(zip(a, a + rows(1e-3 * c)))
    return pairs


def rim_pairs(rng, n, kappa, m=12):
    """Pairs of rows at ``1 - |z|/kappa = t`` for t = 1e-3 down to 1e-12:
    with random rows inside ``0.9 kappa``, with random rows at the same t,
    with the row turned by about ``t`` and with the row moved in by less
    than ``t kappa / 2``."""
    def rows(r):
        z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        return z * (r / np.linalg.norm(z, axis=1))[:, None]
    pairs = []
    for t in (1e-3, 1e-6, 1e-9, 1e-12):
        rim = rows(kappa * (1.0 - t))
        pairs += list(zip(rim, rows(kappa * rng.uniform(0.0, 0.9))))
        pairs += list(zip(rim, rows(kappa * (1.0 - t))))
        pairs += list(zip(rim, rim * np.exp(1j * t * rng.uniform(0.1, 10.0, (m, 1)))))
        pairs += list(zip(rim, rim * (1.0 - t * rng.uniform(0.01, 0.5, (m, 1)))))
    return pairs


@pytest.mark.filterwarnings("error")
class TestScaledDistances:
    """``geodesic_distances`` against mpmath where squared differences would
    underflow or overflow."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_flat(self, n, scale):
        rng = np.random.default_rng(7 + n)
        assert_ulps(hi.flat_space(n), scaled_pairs(rng, n, scale, [scale]), 4)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kappa", [1e-150, 1.0, 1e150])
    def test_ball(self, n, kappa):
        # |z| <= 0.7 kappa; differences from kappa down to 1e-200 kappa while
        # they stay normal floats
        rng = np.random.default_rng(11 + n)
        scales = [0.69 * kappa * 10.0 ** -e for e in (0, 8, 50, 100, 200)]
        pairs = scaled_pairs(rng, n, 0.69 * kappa, [c for c in scales if c > 1e-290])
        assert_ulps(hi.hyperbolic_ball(kappa, n=n), pairs, 8)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kappa", [1e-150, 1.0, 3.7, 1e150])
    def test_ball_rim(self, n, kappa):
        # rows out to 1e-12 kappa from the rim, where the room carries about
        # kappa^2/room ulps of rounding: 8 ulps plus 4 per unit of that
        # (1.7 measured)
        rng = np.random.default_rng(5 + n)
        assert_ulps(hi.hyperbolic_ball(kappa, n=n), rim_pairs(rng, n, kappa), 8, per_room=4.0)

    def test_item_reproductions(self):
        flat1 = hi.flat_space(1)
        assert hi.distance(flat1, 1e-200, 3e-200) == 2e-200
        assert hi.distance(flat1, 0.0, 1e200) == 1e200
        assert hi.distance(hi.flat_space(2), [1e200, 0], [0, 1e200]) == math.sqrt(2.0) * 1e200
        assert hi.distance(hi.hyperbolic_ball(1.0), 1e-200, 2e-200) == 2e-200


class TestComparisonFactor:
    def test_zero_curvature_limit(self):
        assert hi.hessian_comparison_factor(0.0, 1.0) == 2.0
        assert hi.hessian_comparison_factor(1e-9, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_reference_value(self):
        assert hi.hessian_comparison_factor(1.0, 1.0) == pytest.approx(ONE_PLUS_COTH_1, abs=1e-12)

    def test_depends_on_product_only(self):
        assert hi.hessian_comparison_factor(2.0, 0.5) == hi.hessian_comparison_factor(1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            hi.hessian_comparison_factor(1.0, 0.0)
        with pytest.raises(DomainError):
            hi.hessian_comparison_factor(-1.0, 1.0)

    def test_lower_bound_and_monotonicity(self):
        xs = np.linspace(1e-6, 8.0, 200)
        vals = [hi.hessian_comparison_factor(x, 1.0) for x in xs]
        assert all(v >= 2.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBallVolume:
    def test_euclidean_closed_forms(self):
        assert hi.ball_volume_bound(0.0, 1.0, 2) == pytest.approx(math.pi, rel=1e-15)
        assert hi.ball_volume_bound(0.0, 2.0, 4) == pytest.approx(8.0 * math.pi ** 2, rel=1e-15)
        # pi^n r^(2n) / n! in complex dimension n
        for n, r in [(1, 0.7), (2, 1.3), (3, 2.1)]:
            expect = math.pi ** n * r ** (2 * n) / math.factorial(n)
            assert hi.ball_volume_bound(0.0, r, 2 * n) == pytest.approx(expect, rel=1e-14)

    def test_hyperbolic_disk_area(self):
        assert hi.ball_volume_bound(1.0, 1.0, 2) == pytest.approx(HYP_DISK_AREA_R1, rel=1e-10)

    def test_curved_dominates_flat(self):
        for rho in (0.5, 1.0, 2.0):
            for dim in (2, 3, 4):
                assert hi.ball_volume_bound(1.0, rho, dim) >= hi.ball_volume_bound(0.0, rho, dim)

    def test_domain(self):
        with pytest.raises(DomainError):
            hi.ball_volume_bound(0.0, -1.0, 2)
        with pytest.raises(DomainError):
            hi.ball_volume_bound(0.0, 1.0, 0)


class TestComplexHessianFD:
    def test_exact_for_quadratic(self):
        H = hi.complex_hessian_fd(lambda z: abs(z[0]) ** 2, 0.4 + 0.1j)
        assert H.shape == (1, 1)
        assert H[0, 0].real == pytest.approx(1.0, abs=1e-7)
        assert H[0, 0].imag == 0.0

    def test_pluriharmonic_vanishes(self):
        H = hi.complex_hessian_fd(lambda z: (z[0] ** 3).real, 0.3 - 0.2j)
        assert abs(H[0, 0]) < 1e-8

    def test_hyperbolic_comparison_at_fixed_radius(self, disk):
        # d(0, .)^2 at |z| = 0.3; relative eigenvalue must respect the bound
        d = 2.0 * math.atanh(0.3)
        z = np.array([0.3 + 0.0j])
        H = hi.complex_hessian_fd(lambda t: hi.distance(disk, np.zeros(1), t) ** 2, z)
        rel = geometry.relative_form_eigenvalues(disk, z, H)[0]
        bound = hi.hessian_comparison_factor(1.0, d)
        assert rel <= bound * (1.0 + 1e-4)
        # the model saturates its own comparison bound
        assert rel == pytest.approx(bound, rel=1e-5)

    def test_n2_identity_and_hermitian(self):
        z = np.array([0.2 + 0.1j, -0.3 + 0.4j])
        H = hi.complex_hessian_fd(lambda t: float(np.sum(np.abs(t) ** 2)), z)
        assert np.allclose(H, np.eye(2), atol=1e-7)
        f = lambda t: (t[0] * t[1]).real  # pluriharmonic in two variables
        H2 = hi.complex_hessian_fd(f, z)
        assert np.allclose(H2, H2.conj().T)
        assert np.max(np.abs(H2)) < 1e-8

    def test_evaluation_failure_propagates(self, disk):
        z = np.array([0.999999 + 0j])
        with pytest.raises(DomainError):
            hi.complex_hessian_fd(lambda t: hi.distance(disk, np.zeros(1), t) ** 2, z)

    def test_step_domain(self):
        with pytest.raises(DomainError):
            hi.complex_hessian_fd(lambda z: abs(z[0]) ** 2, 0.0, step=-1.0)


class TestDbarFD:
    def test_holomorphic_killed(self):
        g = geometry.dbar_fd(lambda z: np.exp(z[0]) + z[0] ** 2, 0.3 + 0.7j)
        assert abs(g[0]) < 1e-9

    def test_antiholomorphic_detected(self):
        g = geometry.dbar_fd(lambda z: np.conj(z[0]), 0.5 - 0.2j)
        assert g[0] == pytest.approx(1.0, abs=1e-9)


class TestRicci:
    def test_flat_zero(self, flat1):
        assert hi.ricci_eigen(flat1, 1.3 - 0.2j) == 0.0

    def test_disk_value_matches_fd_oracle(self, disk):
        # -i ddbar log(metric coefficient) at 0, relative to omega
        g_log = lambda z: -math.log(4.0 / (1.0 - abs(z[0]) ** 2) ** 2)
        H = hi.complex_hessian_fd(g_log, np.zeros(1))
        fd_val = geometry.relative_form_eigenvalues(disk, np.zeros(1), H)[0]
        closed = hi.ricci_eigen(disk, 0.0)
        assert closed == pytest.approx(-1.0, abs=1e-12)
        assert fd_val == pytest.approx(closed, abs=1e-7)

    def test_disk_homogeneous(self, disk):
        assert hi.ricci_eigen(disk, 0.1) == pytest.approx(hi.ricci_eigen(disk, 0.7j), abs=1e-12)

    def test_kappa_scaling(self):
        sp = hi.hyperbolic_ball(2.0)
        assert hi.ricci_eigen(sp, 0.3) == pytest.approx(-0.25, abs=1e-12)


class TestPolarHelpers:
    def test_geodesic_point_distance(self, disk, flat1):
        for sp in (disk, flat1):
            p = 0.2 + 0.1j if sp is disk else 1.0 + 2.0j
            z = geometry.geodesic_point(sp, p, 0.7, 1.1)
            assert hi.distance(sp, p, z) == pytest.approx(0.7, rel=1e-12)

    def test_area_jacobian(self, disk, flat1):
        assert geometry.polar_area_jacobian(flat1, 0.5) == 0.5
        assert geometry.polar_area_jacobian(disk, 0.5) == pytest.approx(math.sinh(0.5))

    def test_batched_geodesic_point_matches_scalar(self, disk, flat1, rng):
        ds = rng.uniform(0.0, 2.5, 7)
        ths = rng.uniform(0.0, 2 * math.pi, 5)
        for sp, p in ((disk, 0.3 + 0.2j), (flat1, 1.0 - 2.0j)):
            grid = geometry.geodesic_point(sp, p, ds[:, None], ths[None, :])
            assert grid.shape == (7, 5)
            for i, d in enumerate(ds):
                for j, th in enumerate(ths):
                    z = geometry.geodesic_point(sp, p, float(d), float(th))
                    assert isinstance(z, complex)
                    assert abs(grid[i, j] - z) <= 1e-15 * max(1.0, abs(z))

    def test_array_of_centres_matches_single_centre(self, disk, flat1, rng):
        ds = rng.uniform(0.0, 2.5, (7, 1))
        ths = rng.uniform(0.0, 2 * math.pi, (1, 5))
        centres = 0.8 * np.sqrt(rng.random((4, 1, 1))) * np.exp(2j * np.pi * rng.random((4, 1, 1)))
        for sp in (disk, flat1):
            grid = geometry.geodesic_point(sp, centres, ds, ths)
            assert grid.shape == (4, 7, 5)
            for c, rows in zip(centres, grid):
                assert rows.tobytes() == geometry.geodesic_point(sp, c[0, 0], ds, ths).tobytes()
        us = 0.9 * rng.uniform(-0.7, 0.7, 6) + 0.9j * rng.uniform(-0.7, 0.7, 6)
        batch = geometry.mobius_translate(disk, centres[:, 0], us)
        assert batch.shape == (4, 6)
        for c, row in zip(centres, batch):
            assert row.tobytes() == geometry.mobius_translate(disk, c[0, 0], us).tobytes()
        # every centre is validated
        bad = np.array([[0.1 + 0j], [1.2 + 0j]])
        with pytest.raises(DomainError):
            geometry.mobius_translate(disk, bad, us)
        with pytest.raises(DomainError):
            geometry.geodesic_point(disk, bad[:, :, None], ds, ths)

    def test_batched_mobius_and_jacobian_match_scalar(self, disk, flat1, rng):
        us = 0.9 * rng.uniform(-0.7, 0.7, 6) + 0.9j * rng.uniform(-0.7, 0.7, 6)
        batch = geometry.mobius_translate(disk, 0.4 - 0.3j, us)
        assert [complex(b) for b in batch] == [geometry.mobius_translate(disk, 0.4 - 0.3j, u)
                                               for u in us]
        ds = np.array([0.0, 0.25, 1.0, 3.0])
        for sp in (disk, flat1):
            batch = geometry.polar_area_jacobian(sp, ds)
            assert [float(b) for b in batch] == [geometry.polar_area_jacobian(sp, d) for d in ds]


class TestValidatePoints:
    def test_accepts_rows_inside(self, disk, flat1):
        zs = np.array([[0.5 + 0.5j], [-0.9 + 0j]])
        assert disk.validate_points(zs).shape == (2, 1)
        assert flat1.validate_points(10.0 * zs).shape == (2, 1)

    def test_rejects_row_outside_ball(self, disk):
        with pytest.raises(DomainError, match="outside the open ball"):
            disk.validate_points(np.array([[0.1 + 0j], [0.8 + 0.6j]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            hi.flat_space(2).validate_points(np.zeros((3, 1), complex))
        with pytest.raises(DomainError):
            hi.flat_space(1).validate_points(np.zeros(3, complex))

    def test_one_membership_rule_at_the_rim(self, disk):
        # points whose |z| rounds to either side of kappa depending on how the
        # norm is taken: every test of the space gives the validate_points verdict
        inside = np.array([0.7837755087521135 + 0.6210442430941338j])
        assert disk.validate_points(inside[None, :]).shape == (1, 1)
        assert np.array_equal(disk.validate_point(inside), inside)
        assert disk.contains(inside)
        assert math.isfinite(hi.distance(disk, inside, 0.0))
        ball2 = hi.hyperbolic_ball(1.0, n=2)
        outside = np.array([0.48090435075256605 - 0.39278464191801304j,
                            -0.7052889907336295 + 0.3420799176369893j])
        for check in (lambda: ball2.validate_points(outside[None, :]),
                      lambda: ball2.validate_point(outside),
                      lambda: hi.distance(ball2, outside, np.zeros(2))):
            with pytest.raises(DomainError, match="outside the open ball"):
                check()
        assert not ball2.contains(outside)

    def test_refuses_points_without_room(self, disk):
        # |z| < 1 as np.linalg.norm takes it, but 1 - |z|^2 as the distances
        # round it is negative (a NaN distance) or zero (an infinite one)
        for z in (-0.9976583203713225 - 0.06839499831034074j,
                  0.426909766723684 - 0.9042942281558196j):
            assert np.linalg.norm([z]) < 1.0
            for check in (lambda: disk.validate_point(z), lambda: hi.distance(disk, z, 0.0)):
                with pytest.raises(DomainError, match="outside the open ball"):
                    check()

    @pytest.mark.parametrize("n", [1, 2])
    def test_accepted_rim_points_have_finite_distances(self, n):
        # unit-sphere points with every coordinate moved by up to 3 ulps
        rng = np.random.default_rng(20 + n)
        ball = hi.hyperbolic_ball(1.0, n=n)
        u = rng.normal(size=(4000, 2 * n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u += rng.integers(-3, 4, u.shape) * np.spacing(u)
        zs = u[:, :n] + 1j * u[:, n:]
        accepted = np.array([ball.contains(z) for z in zs])
        assert 0 < accepted.sum() < len(zs)
        d = geometry.geodesic_distances(ball, zs[accepted], np.zeros(n))
        assert np.all(np.isfinite(d))

    def test_rejects_non_finite_coordinates(self, disk, flat1):
        for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 0.0)):
            for sp in (disk, flat1):
                with pytest.raises(DomainError):
                    sp.validate_point(bad)
                with pytest.raises(DomainError, match="point 1 has a non-finite"):
                    sp.validate_points(np.array([[0.1 + 0j], [bad]]))

    def test_non_finite_space_parameters_rejected(self):
        for kappa in (math.nan, math.inf):
            with pytest.raises(DomainError):
                hi.hyperbolic_ball(kappa)
        for k in (math.nan, math.inf):
            with pytest.raises(DomainError):
                hi.hyperbolic_ball(1.0, k=k)


class TestConformalMetric:
    def test_relative_eigenvalues_batched_match_single(self, rng):
        disk2 = hi.hyperbolic_ball(1.5, n=2)
        zs = 0.5 * (rng.uniform(-1, 1, (6, 2)) + 1j * rng.uniform(-1, 1, (6, 2)))
        ric = geometry.ricci_form_matrix(disk2, zs)
        eig = geometry.relative_form_eigenvalues(disk2, zs, ric)
        assert eig.shape == (6, 2)
        for z, h, e in zip(zs, ric, eig):
            np.testing.assert_array_equal(geometry.ricci_form_matrix(disk2, z), h)
            np.testing.assert_array_equal(geometry.relative_form_eigenvalues(disk2, z, h), e)
        # the smallest relative Ricci eigenvalue is -n/kappa^2 at every point
        np.testing.assert_allclose(eig[:, 0], -2.0 / 1.5 ** 2, rtol=1e-12)

    def test_metric_coefficient(self, disk, flat1):
        z = np.array([[0.6 + 0j], [0.0 + 0j]])
        np.testing.assert_array_equal(geometry.metric_coefficient(flat1, z), [1.0, 1.0])
        np.testing.assert_allclose(geometry.metric_coefficient(disk, z), [4.0 / 0.64 ** 2, 4.0])
