import math

import numpy as np
import pytest

import holo_interp as hi
from holo_interp import geometry, weights
from holo_interp.errors import DomainError, SpaceMismatchError
from holo_interp.weights import Polynomial, RealPolynomial

import references


class TestPolynomials:
    def test_eval_and_derivative(self):
        p = Polynomial.from_coeffs([2.0, 0.0, 0.0, 1.0])  # z^3 + 2
        assert p(np.array([2.0 + 0j])) == pytest.approx(10.0)
        dp = p.dz(0)
        assert dp(np.array([2.0 + 0j])) == pytest.approx(12.0)

    def test_vectorized(self):
        p = Polynomial.from_coeffs([0.0, 1.0])
        zs = np.array([[1.0 + 0j], [2.0 + 1j]])
        assert np.array_equal(p(zs), np.array([1.0 + 0j, 2.0 + 1j]))

    def test_multivariate(self):
        p = Polynomial({(1, 1): 1.0}, 2)  # z1 * z2
        assert p(np.array([2.0 + 0j, 3.0 + 0j])) == pytest.approx(6.0)
        assert p.dz(1)(np.array([2.0 + 0j, 5.0 + 0j])) == pytest.approx(2.0)

    def test_real_polynomial_gradient_exact(self, rng):
        # phi = x^2 y + 3 y^2 on one complex variable
        phi = RealPolynomial({(2, 1): 1.0, (0, 2): 3.0}, 1)
        for _ in range(10):
            z = np.array([complex(*rng.uniform(-2, 2, 2))])
            grad = phi.dz_gradient(z)
            num = references.dbar_fd(lambda t: phi.value(t), z)
            # d/dz = conj(d/dzbar) for real functions
            assert grad[0] == pytest.approx(np.conj(num[0]), abs=1e-8)

    def test_real_polynomial_gradient_batched(self, rng):
        # n = 2 with mixed powers up to 5; rows of an (m, n) and an (a, b, n)
        # array equal the single-point gradient bit for bit
        phi = RealPolynomial({(3, 1, 0, 2): 0.7, (0, 5, 1, 0): -0.2, (2, 2, 0, 0): 1.3,
                              (1, 0, 0, 3): 0.5}, 2)
        zs = rng.uniform(-2, 2, (60, 2)) + 1j * rng.uniform(-2, 2, (60, 2))
        grid = phi.dz_gradient(zs)
        assert grid.shape == (60, 2)
        for z, row in zip(zs, grid):
            single = phi.dz_gradient(z)
            assert single.shape == (2,)
            assert row.tobytes() == single.tobytes()
        assert phi.dz_gradient(zs.reshape(6, 10, 2)).tobytes() == grid.tobytes()

    def test_bergman_gradient_batched(self, rng):
        w = hi.bergman_weight(4.0)
        # used to broadcast (m, 1) / (m,) to an (m, m) array
        assert w.phi_def_dz([[0.1], [0.2 + 0.1j]]).shape == (2, 1)
        zs = (0.9 * np.sqrt(rng.random(60)) * np.exp(2j * np.pi * rng.random(60)))[:, None]
        grid = w.phi_def_dz(zs)
        for z, row in zip(zs, grid):
            assert row.tobytes() == w.phi_def_dz(z).tobytes()


class TestWeightValue:
    def test_fock(self, fock1):
        assert fock1.value(1 + 1j) == pytest.approx(2.0, rel=1e-15)

    def test_bergman_origin(self):
        w = hi.bergman_weight(2.0)
        assert w.value(0.0) == 0.0

    def test_bergman_substitution(self):
        w = hi.bergman_weight(2.0)
        z = math.sqrt(1.0 - 1.0 / math.e)
        assert w.value(z) == pytest.approx(2.0, rel=1e-12)

    def test_builtin_decomposition_consistent(self, fock1):
        # sum |sigma|^2 + phi_def recomputed by hand
        for z in (0.3 + 0.4j, -1.0 + 2.0j):
            sig = fock1.sigma_values(np.array([z]))
            manual = float(np.sum(np.abs(sig) ** 2)) + fock1.phi_def_value(np.array([z]))
            assert fock1.value(z) == pytest.approx(manual, abs=1e-12)

    def test_fock_n2(self):
        w = hi.fock_weight(2.0, n=2)
        assert w.value([1.0, 1j]) == pytest.approx(4.0, rel=1e-14)

    def test_bergman_domain(self):
        w = hi.bergman_weight(2.0)
        with pytest.raises(DomainError):
            w.value(1.0)


class TestCurvature:
    def test_fock_flat_closed_form(self, flat1, fock1):
        for z in (0.0, 1.5 - 0.5j):
            assert hi.curvature_eigen_min(fock1, flat1, z) == 2.0

    def test_fock_n2_isotropic(self):
        sp = hi.flat_space(2)
        w = hi.fock_weight(0.7, n=2)
        assert hi.curvature_eigen_min(w, sp, [0.1, 0.2j]) == pytest.approx(1.4)

    def test_fock_fd_matches_closed_form(self, flat1, fock1):
        # route the generic FD path by stripping the builtin tag
        generic = weights.HermitianWeight(fock1.sigmas, None, m2=0.0, r0=1.0, mu=1.0, n=1)
        for z in (0.0, 0.8 + 0.3j):
            assert hi.curvature_eigen_min(generic, flat1, z) == pytest.approx(2.0, abs=1e-6)

    def test_bergman_closed_form_vs_fd_oracle(self, disk):
        w = hi.bergman_weight(2.0)
        closed = hi.curvature_eigen_min(w, disk, 0.0)
        assert closed == pytest.approx(0.0, abs=1e-14)
        # FD oracle, two step sizes: Hessian of Phi plus the Ricci form
        z = np.zeros(1, dtype=complex)
        for step in (1e-4, 5e-5):
            hess = geometry.complex_hessian_fd(lambda t: float(w.value(t)), z, step=step)
            total = hess + geometry.ricci_form_matrix(disk, z)
            fd = float(geometry.relative_form_eigenvalues(disk, z, total)[0])
            assert fd == pytest.approx(closed, abs=1e-6)

    def test_bergman_constant_in_z(self, disk):
        w = hi.bergman_weight(3.0)
        generic = weights.HermitianWeight((), w.phi_def, m2=w.m2, r0=w.r0, mu=w.mu, n=1)
        for z in (0.0, 0.3 + 0.2j, 0.6j):
            assert hi.curvature_eigen_min(generic, disk, z) == pytest.approx(0.5, abs=1e-6)

    def test_bergman_kappa_mismatch(self):
        w = hi.bergman_weight(3.0, kappa=1.0)
        sp = hi.hyperbolic_ball(2.0)
        with pytest.raises(SpaceMismatchError):
            hi.curvature_eigen_min(w, sp, 0.0)


def random_polynomial_weight(rng, n):
    """Two sigma terms and a real-polynomial deformation, exponents up to 2."""
    sigmas = tuple(
        Polynomial({tuple(rng.integers(0, 3, n)): 0.5 * complex(*rng.normal(size=2))
                    for _ in range(3)}, n)
        for _ in range(2))
    phi = RealPolynomial({tuple(rng.integers(0, 3, 2 * n)): 0.5 * float(rng.normal())
                          for _ in range(4)}, n)
    return weights.HermitianWeight(sigmas, phi, m2=1.0, r0=1.0, mu=1.0, n=n)


def assert_ddbar_matches_fd(w, zs):
    exact = w.ddbar(zs)
    for z, h in zip(zs, exact):
        fd = geometry.complex_hessian_fd(lambda t: float(w.value(t)), z)
        assert np.linalg.norm(h - fd) <= 1e-6 * max(1.0, np.linalg.norm(h))


class TestExactDdbar:
    @pytest.mark.parametrize("n", [1, 2])
    def test_polynomial_weights_match_fd_oracle(self, rng, n):
        for _ in range(20):
            w = random_polynomial_weight(rng, n)
            zs = 0.7 * (rng.uniform(-1, 1, (5, n)) + 1j * rng.uniform(-1, 1, (5, n)))
            assert_ddbar_matches_fd(w, zs)

    def test_bergman_matches_fd_oracle(self, rng):
        for kappa in (1.0, 1.5):
            w = hi.bergman_weight(3.0, kappa=kappa)
            r = 0.7 * kappa * np.sqrt(rng.random(10))
            assert_ddbar_matches_fd(w, (r * np.exp(2j * np.pi * rng.random(10)))[:, None])

    def test_grid_equals_pointwise(self, rng, disk):
        w = random_polynomial_weight(rng, 1)
        zs = 0.6 * (rng.uniform(-1, 1, (7, 1)) + 1j * rng.uniform(-1, 1, (7, 1)))
        for space in (hi.flat_space(1), disk):
            grid = hi.curvature_eigen_min(w, space, zs)
            assert grid.shape == (7,)
            for z, value in zip(zs, grid):
                assert hi.curvature_eigen_min(w, space, z) == value

    def test_weight_space_dimension_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            hi.curvature_eigen_min(hi.fock_weight(1.0), hi.flat_space(2), [0.0, 0.0])
        with pytest.raises(SpaceMismatchError):
            hi.curvature_eigen_min(hi.fock_weight(1.0, n=2), hi.flat_space(1), 0.0)


class TestNonFiniteParameters:
    def test_fock_alpha_nan_rejected(self):
        for alpha in (math.nan, math.inf):
            with pytest.raises(DomainError):
                hi.fock_weight(alpha)

    def test_bergman_parameters_nan_rejected(self):
        with pytest.raises(DomainError):
            hi.bergman_weight(math.nan)
        with pytest.raises(DomainError):
            hi.bergman_weight(3.0, kappa=math.nan)


class TestNormalFrame:
    def test_vanishes_at_center(self, fock1):
        for p in (0.0, 1.0 + 2.0j):
            assert hi.normal_frame_exponent(fock1, p, p) == 0.0

    def test_fock_linear_exponent(self, fock1):
        for z in (0.5 + 0.5j, -1.0 + 0j):
            assert hi.normal_frame_exponent(fock1, 1.0, z) == pytest.approx(z - 1.0, rel=1e-14)

    def test_deformation_gradient_at_zero(self):
        phi = RealPolynomial({(2, 0): 1.0}, 1)  # Re(z)^2
        w = weights.HermitianWeight((), phi, m2=2.0, r0=1.0, mu=1.0, n=1)
        assert hi.normal_frame_exponent(w, 0.0, 0.7 + 0.1j) == 0.0

    def test_vectorized(self, fock1):
        zs = np.array([[0.5 + 0j], [1.5 + 1j]])
        out = hi.normal_frame_exponent(fock1, 1.0, zs)
        assert np.allclose(out, zs[:, 0] - 1.0)

    def test_array_of_centres_matches_single_centre(self, fock1, rng):
        poly = weights.HermitianWeight(
            (Polynomial.from_coeffs([0.1, 1.0, 0.0, 0.05j]),),
            RealPolynomial({(2, 0): 0.5, (0, 2): 0.5, (3, 1): 0.3}, 1), m2=1.0, r0=1.0, mu=1.0)
        centres = 0.6 * (rng.random((5, 1, 1)) - 0.5) + 0.6j * (rng.random((5, 1, 1)) - 0.5)
        zs = centres + 0.2 * (rng.random((5, 40, 1)) - 0.5) + 0.2j * (rng.random((5, 40, 1)) - 0.5)
        for w in (fock1, hi.bergman_weight(3.0), poly):
            batch = hi.normal_frame_exponent(w, centres, zs)
            assert batch.shape == (5, 40)
            for c, z, row in zip(centres, zs, batch):
                assert row.tobytes() == hi.normal_frame_exponent(w, c[0], z).tobytes()
        with pytest.raises(DomainError):
            hi.normal_frame_exponent(fock1, np.zeros((5, 1, 2), dtype=complex), zs)


def frame_ratios(w, p, samples):
    """``||f_p(z)||_h^2 / ||a(p)||_h^2 = exp(2 Re exponent_p(z) + Phi(p) - Phi(z))``
    at each sample ``z``: the left side of the normal-frame norm bound."""
    zs = np.asarray(samples, dtype=complex).reshape(-1, w.n)
    return np.exp(2.0 * hi.normal_frame_exponent(w, p, zs).real + w.value(p) - w.value(zs))


class TestFrameNormBound:
    # ||f_p(z)||_h^2 <= C ||a(p)||_h^2 on the delta0-ball, with C from
    # HermitianWeight.frame_bound_constant
    def test_fock_pure_sigma_ratio_below_one(self, fock1, rng):
        samples = [complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(200)]
        assert fock1.frame_bound_constant(0.6) == 1.0
        assert np.max(frame_ratios(fock1, 0.0, samples)) <= 1.0

    def test_deformation_with_honest_m2(self, rng):
        phi = RealPolynomial({(2, 0): -1.0}, 1)  # -x^2, second derivative magnitude 2
        w = weights.HermitianWeight((), phi, m2=2.0, r0=1.0, mu=1.0, n=1)
        samples = [complex(*rng.uniform(-0.35, 0.35, 2)) for _ in range(300)]
        assert np.max(frame_ratios(w, 0.0, samples)) <= w.frame_bound_constant(0.5)

    def test_understated_m2_fails(self, rng):
        phi = RealPolynomial({(2, 0): -1.0}, 1)
        dishonest = weights.HermitianWeight((), phi, m2=0.2, r0=1.0, mu=1.0, n=1)
        samples = [complex(0.499, 0.0)] + [complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(50)]
        assert np.max(frame_ratios(dishonest, 0.0, samples)) > dishonest.frame_bound_constant(0.5)

    def test_ratios_match_per_sample_evaluation(self, rng):
        # one batched evaluation over the samples against the pointwise h-norm
        # of the normal-frame section at each sample
        phi = RealPolynomial({(2, 0): -1.0, (1, 1): 0.3}, 1)
        w = weights.HermitianWeight((Polynomial.from_coeffs([0.1, 1.0, 0.05j]),), phi,
                                    m2=2.0, r0=1.0, mu=1.0, n=1)
        p = 0.1 - 0.05j
        samples = [p + complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(40)]
        ref = [weights.h_norm_sq(w, s, np.exp(hi.normal_frame_exponent(w, p, s)))
               / weights.h_norm_sq(w, p, 1.0) for s in samples]
        assert np.allclose(frame_ratios(w, p, samples), ref, rtol=1e-13, atol=0.0)


def max_second_partial(w, z, h):
    """Largest central-difference second real partial of Phi_def at ``z`` (n = 1)."""
    def phi(x):
        return float(w.phi_def_value(x[:1] + 1j * x[1:]))
    return float(np.max(np.abs(geometry._real_hessian(phi, np.array([z.real, z.imag]), h))))


class TestMeanValueMachinery:
    def test_oscillation_of_linear_sigma(self, fock1):
        osc = weights.local_oscillation(fock1, 0.7 + 0.2j, 0.5)
        assert osc[0] == pytest.approx(0.5, rel=1e-9)

    def test_constant(self, fock1):
        c = weights.mean_value_constant(fock1, 0.0, 0.5)
        assert c == pytest.approx(math.exp(0.25) / (math.pi * 0.25), rel=1e-9)

    def test_bergman_m2_closed_form_vs_fd_audit(self, rng):
        w = hi.bergman_weight(3.0, kappa=2.0)
        # largest second real partial at the rim |z| = 0.9 kappa, by FD
        assert w.m2 == pytest.approx(1.05 * max_second_partial(w, 1.8 + 0j, 1.8e-5), rel=1e-6)
        for _ in range(32):
            z = 1.8 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
            assert max_second_partial(w, z, 1e-5 * max(1.0, abs(z))) <= w.m2


class TestSerialization:
    def test_builtin_from_dict(self):
        fock = weights.weight_from_dict({"builtin": "fock", "alpha": 2.0, "n": 2, "r0": 0.5})
        assert (fock.builtin, fock.params, fock.n, fock.r0) == ("fock", (2.0,), 2, 0.5)
        berg = weights.weight_from_dict({"builtin": "bergman", "A": 3.0, "kappa": 2.0})
        assert (berg.builtin, berg.params, berg.n) == ("bergman", (3.0, 2.0), 1)

    def test_custom_from_dict(self):
        w = weights.weight_from_dict({
            "sigmas": [{"n": 1, "terms": [{"powers": [1], "coeff": [2.0, 0.0]}]}],
            "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2, 0], "coeff": 1.5}]}},
            "M2": 3.0, "r0": 0.8, "mu": 0.9, "lam": 1.1})
        assert (w.m2, w.r0, w.mu, w.lam, w.n) == (3.0, 0.8, 0.9, 1.1, 1)
        z = 0.3 + 0.9j
        # |2 z|^2 + 1.5 x^2
        assert w.value(z) == pytest.approx(4.0 * abs(z) ** 2 + 1.5 * 0.3 ** 2, rel=1e-14)

    def test_sigma_coefficient_list_form(self):
        w = weights.weight_from_dict(
            {"sigmas": [[[0.0, 0.0], [1.0, 0.0]]], "M2": 0.0, "r0": 1.0, "mu": 1.0})
        assert w.value(2.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("spec", [
        {"builtin": "fock", "alpha": 1.0, "r0": "nan"},
        {"M2": "nan"}, {"M2": "inf"}, {"M2": -1.0},
        {"mu": "nan"}, {"mu": "inf"}, {"mu": 0.0},
        {"r0": "nan"}, {"r0": 0.0},
        {"lam": "nan"}, {"mu": 2.0, "lam": 1.0},
    ])
    def test_frame_data_refused(self, spec):
        # NaN fails every comparison, so each bound is tested the way NaN fails
        with pytest.raises(DomainError):
            weights.weight_from_dict(spec if "builtin" in spec else
                                     {"sigmas": [[[0.0, 0.0], [1.0, 0.0]]], **spec})

    def test_infinite_frame_radius_kept(self):
        assert weights.HermitianWeight((), None, m2=0.0, r0=math.inf, mu=1.0).r0 == math.inf

    @pytest.mark.parametrize("n", [1.5, 0.5, True, "2", None, [1], 0, -1, math.nan, math.inf])
    def test_dimension_must_be_a_positive_integer(self, n):
        sigma = {"n": n, "terms": [{"powers": [1], "coeff": [1.0, 0.0]}]}
        phi = {"real_poly": {"n": n, "terms": [{"powers": [2, 0], "coeff": 1.0}]}}
        for spec in ({"builtin": "fock", "n": n}, {"builtin": "bergman", "A": 3.0, "n": n},
                     {"n": n}, {"sigmas": [sigma]}, {"phi_def": phi}):
            with pytest.raises(DomainError, match="positive integer"):
                weights.weight_from_dict(spec)

    def test_integral_float_dimension_accepted(self):
        w = weights.weight_from_dict({"builtin": "fock", "n": 2.0})
        assert w.n == 2 and type(w.n) is int

    def test_bergman_weight_on_the_disk_only(self):
        assert weights.weight_from_dict({"builtin": "bergman", "A": 3.0, "n": 1.0}).n == 1
        with pytest.raises(DomainError, match="n = 1"):
            weights.weight_from_dict({"builtin": "bergman", "A": 3.0, "n": 2})
