import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from holo_interp import pointset, rkhs
from holo_interp.errors import ConditioningError, DomainError, SizeGuardError

# frozen dense-eigensolve oracle: 5x5 lattice, spacing 2, fock(1)
FIVE_BY_FIVE_S2_EIG_MIN = 0.6160426662500302


def golden_spiral(r0, r1, m):
    """m points at radii linspace(r0, r1), a golden angle apart."""
    return np.linspace(r0, r1, m) * np.exp(2.399963229728653j * np.arange(m))


def mp_normalized_gram(log_k, z):
    """50-digit ``exp(log K(p,q) - log K(p,p)/2 - log K(q,q)/2)``."""
    with mpmath.workdps(50):
        zs = [mpmath.mpc(c.real, c.imag) for c in z]
        return np.array([[complex(mpmath.exp(log_k(p, q) - log_k(p, p) / 2 - log_k(q, q) / 2))
                          for q in zs] for p in zs])


def pts_of(values, targets=None):
    arr = np.asarray(values, dtype=complex).reshape(-1, 1)
    t = None if targets is None else np.asarray(targets, dtype=complex)
    return pointset.PointSet(arr, t)


class TestKernels:
    def test_fock_closed_form(self):
        k = rkhs.fock_kernel(1.0)
        assert k.kernel(1.0 + 0j, 1.0 + 0j) == pytest.approx(math.e)
        assert k.kernel(1.0 + 1j, 0.5 - 0.5j) == pytest.approx(np.exp((1 + 1j) * np.conj(0.5 - 0.5j)))

    def test_bergman_closed_form(self):
        k = rkhs.bergman_kernel(2.0)
        assert k.kernel(0.0, 0.0) == pytest.approx(1.0)
        z, w = 0.3 + 0.1j, -0.2 + 0.4j
        assert k.kernel(z, w) == pytest.approx((1 - z * np.conj(w)) ** (-4.0))

    def test_hermitian_symmetry_and_positivity(self, rng):
        for k in (rkhs.fock_kernel(1.5), rkhs.bergman_kernel(3.0)):
            for _ in range(20):
                z = complex(*rng.uniform(-0.6, 0.6, 2))
                w = complex(*rng.uniform(-0.6, 0.6, 2))
                assert k.kernel(z, w) == pytest.approx(np.conj(k.kernel(w, z)), rel=1e-12)
                assert k.kernel(z, z).real > 0
                assert abs(k.kernel(z, z).imag) < 1e-15

    def test_kernel_space_validation(self):
        with pytest.raises(DomainError):
            rkhs.KernelSpace("unknown")
        with pytest.raises(DomainError):
            rkhs.fock_kernel(-1.0)
        with pytest.raises(DomainError):
            rkhs.KernelSpace("bergman", n=2)


class TestGram:
    def test_singleton(self):
        diag = rkhs.gram_matrix(rkhs.fock_kernel(1.0), pts_of([0.3 + 0.4j]))
        assert diag.gram.shape == (1, 1)
        assert diag.gram[0, 0] == 1.0
        assert diag.eig_min == pytest.approx(1.0) and diag.eig_max == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [0.8, 1.5, 2.5])
    def test_symmetric_pair_closed_form(self, s):
        diag = rkhs.gram_matrix(rkhs.fock_kernel(1.0), pts_of([s, -s]))
        off = math.exp(-2.0 * s * s)
        assert diag.gram[0, 1] == pytest.approx(off, rel=1e-14)
        assert diag.eig_min == pytest.approx(1.0 - off, rel=1e-12)
        assert diag.eig_max == pytest.approx(1.0 + off, rel=1e-12)

    def test_five_by_five_lattice_frozen_oracle(self):
        lat = pointset.square_lattice(2.0, half_extent=4.0)
        assert len(lat) == 25
        diag = rkhs.gram_matrix(rkhs.fock_kernel(1.0), lat)
        assert diag.eig_min == pytest.approx(FIVE_BY_FIVE_S2_EIG_MIN, abs=1e-9)

    def test_unit_diagonal_and_psd(self, rng):
        for trial in range(5):
            z = rng.uniform(-2, 2, (30, 1)) + 1j * rng.uniform(-2, 2, (30, 1))
            diag = rkhs.gram_matrix(rkhs.fock_kernel(1.0), pointset.PointSet(z))
            assert np.allclose(np.diag(diag.gram), 1.0)
            assert diag.eig_min >= -1e-10

    GRADED = [
        # fock nodes out to |z| = 20, where the exponents reach alpha |z|^2 = 400
        (rkhs.fock_kernel(1.0), golden_spiral(0.5, 20.0, 40),
         lambda p, q: p * mpmath.conj(q)),
        # bergman nodes up to 0.005 from the rim
        (rkhs.bergman_kernel(3.0), golden_spiral(0.9, 0.995, 30),
         lambda p, q: -5 * mpmath.log(1 - p * mpmath.conj(q))),
    ]

    @pytest.mark.parametrize("space,z,log_k", GRADED, ids=["fock", "bergman"])
    def test_normalized_gram_exactly_hermitian(self, space, z, log_k):
        g = space.normalized_gram(z)
        assert np.array_equal(g, g.conj().T)
        assert np.all(np.diag(g) == 1.0)

    @pytest.mark.parametrize("space,z,log_k", GRADED, ids=["fock", "bergman"])
    def test_normalized_gram_matches_mpmath(self, space, z, log_k):
        g = space.normalized_gram(z)
        ref = mp_normalized_gram(log_k, z)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        assert np.all(np.abs(g - ref) <= 4 * eps * np.abs(ref) + tiny)

    def test_size_guard(self):
        lat = pointset.square_lattice(1.0, half_extent=2.0)
        with pytest.raises(SizeGuardError):
            rkhs.gram_matrix(rkhs.fock_kernel(1.0), lat, size_guard=10)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            rkhs.gram_matrix(rkhs.fock_kernel(1.0), pointset.PointSet(np.zeros((0, 1), complex)))


class TestMinNormInterpolant:
    def test_singleton_normalized_kernel(self):
        k = rkhs.fock_kernel(1.0)
        itp = rkhs.min_norm_interpolant(k, pts_of([0.7 + 0.1j], [1.0 + 0j]))
        p = 0.7 + 0.1j
        assert itp(p) == pytest.approx(1.0, rel=1e-14)
        # f = K(., p)/K(p, p)
        z = 0.2 - 0.4j
        assert itp(z) == pytest.approx(k.kernel(z, p) / k.kernel(p, p), rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_symmetric_pair_coefficients(self, s):
        itp = rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), pts_of([s, -s], [1.0, 1.0]))
        expect = 1.0 / (math.exp(s * s) + math.exp(-s * s))
        assert itp.coefficients[0] == pytest.approx(expect, rel=1e-12)
        assert itp.coefficients[1] == pytest.approx(expect, rel=1e-12)

    def test_random_set_residuals(self, rng):
        # random = jittered separated lattice; clustered draws are refused
        # by the conditioning guard, which has its own test below
        base = np.array([complex(p, q) * 2.0 for p in range(-2, 3) for q in range(-2, 2)])
        z = base + 0.3 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
        a = rng.normal(size=20) + 1j * rng.normal(size=20)
        itp = rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), pts_of(z, a))
        assert float(np.max(itp.residuals())) <= 1e-10 * float(np.max(np.abs(a)))
        assert itp.weighted_residuals.shape == (20,)
        assert float(np.max(itp.weighted_residuals)) <= 1e-14 * float(np.max(np.abs(a)))
        assert itp.norm_sq >= 0.0

    def test_fock_n2_interpolation(self, rng):
        # 12 separated nodes in C^2: a 3 x 4 lattice in the first coordinate,
        # jittered in both
        base = np.array([[complex(p, q) * 2.0, 0.0] for p in range(-1, 2) for q in range(-2, 2)])
        z = base + 0.3 * (rng.uniform(-1, 1, (12, 2)) + 1j * rng.uniform(-1, 1, (12, 2)))
        a = rng.normal(size=12) + 1j * rng.normal(size=12)
        itp = rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0, n=2), pointset.PointSet(z, a))
        res = itp.residuals()
        assert res.shape == (12,)
        assert float(np.max(res)) <= 1e-10 * float(np.max(np.abs(a)))
        per_point = np.abs(np.array([itp(p) for p in z]) - a)
        assert res.tobytes() == per_point.tobytes()

    def test_one_extended_build_and_one_factorization(self, monkeypatch):
        calls = {"log_kernel": 0, "lu_factor": 0, "solve": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rkhs.KernelSpace, "log_kernel",
                            counting("log_kernel", rkhs.KernelSpace.log_kernel))
        monkeypatch.setattr(scipy.linalg, "lu_factor", counting("lu_factor", scipy.linalg.lu_factor))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        lat = pointset.square_lattice(2.0, half_extent=4.0)
        rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0),
                                  pointset.PointSet(lat.points, np.ones(len(lat), complex)))
        assert calls == {"log_kernel": 1, "lu_factor": 1, "solve": 0}

    def test_near_coincident_conditioning_error(self):
        with pytest.raises(ConditioningError) as exc:
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0),
                                      pts_of([0.0, 1e-9], [1.0, 1.0]))
        assert exc.value.eig_min is not None
        assert exc.value.eig_min < 1e-10

    def test_values_required(self):
        with pytest.raises(DomainError):
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), pts_of([0.0, 1.0]))

    def test_bergman_interpolation(self, rng):
        z = 0.55 * (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
        a = rng.normal(size=12) + 1j * rng.normal(size=12)
        itp = rkhs.min_norm_interpolant(rkhs.bergman_kernel(2.0), pts_of(z, a))
        assert float(np.max(itp.residuals())) <= 1e-10 * float(np.max(np.abs(a)))

    def test_minimality_against_constrained_perturbations(self, rng):
        # perturb inside the span of an enlarged center set while keeping
        # the nodal values fixed; the solved interpolant must stay minimal
        nodes = rng.uniform(-1.5, 1.5, 12) + 1j * rng.uniform(-1.5, 1.5, 12)
        a = rng.normal(size=12) + 1j * rng.normal(size=12)
        extras = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        k = rkhs.fock_kernel(1.0)
        itp = rkhs.min_norm_interpolant(k, pts_of(nodes, a))
        allpts = np.concatenate([nodes, extras]).reshape(-1, 1)
        k_all = np.exp(k.log_kernel(allpts, allpts))
        cross = k_all[:12, :]  # values of every candidate kernel at the nodes
        from scipy.linalg import null_space
        basis = null_space(cross)  # perturbation coefficients vanishing on nodes
        assert basis.shape[1] > 0
        c_full = np.concatenate([itp.coefficients, np.zeros(8, complex)])
        base_norm = float(np.real(np.conj(c_full) @ k_all @ c_full))
        assert base_norm == pytest.approx(itp.norm_sq, rel=1e-9)
        for _ in range(100):
            mix = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
            delta = basis @ mix
            perturbed = c_full + delta
            norm = float(np.real(np.conj(perturbed) @ k_all @ perturbed))
            assert norm >= base_norm - 1e-9 * max(1.0, base_norm)


class TestFeasibilitySweep:
    def test_single_point_family(self):
        res = rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [15.0], radius=6.0)
        assert len(res.rows) == 1
        assert res.rows[0].n_points == 1
        assert res.rows[0].eig_min == pytest.approx(1.0)

    def test_wide_spacing_near_orthonormal(self):
        res = rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [4.0, 5.0], radius=6.0)
        for row in res.rows:
            assert row.eig_min >= 0.99

    def test_monotone_and_collapse(self):
        res = rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [4.0, 2.0, 1.0, 0.8], radius=4.0)
        assert res.monotone_in_spacing
        by_s = {r.spacing: r.eig_min for r in res.rows}
        assert by_s[0.8] < 1e-4  # dense lattices collapse toward singular

    def test_extra_radii_rows(self):
        res = rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [3.0], radius=4.0, extra_radii=[6.0])
        radii = sorted({r.radius for r in res.rows})
        assert radii == [4.0, 6.0]

    def test_csv_schema(self):
        res = rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [3.0], radius=4.0)
        text = res.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "s,eig_min,eig_max,R,n_points"
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 5
