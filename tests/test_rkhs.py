import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from holo_interp import pointset, rkhs
from holo_interp.errors import (ConditioningError, DomainError, NumericalGuardError,
                                SizeGuardError)

import references

# frozen dense-eigensolve oracle: 5x5 lattice, spacing 2, fock(1)
FIVE_BY_FIVE_S2_EIG_MIN = 0.6160426662500302
EPS = float(np.finfo(float).eps)
#: ``u`` of the graded floor of ``KernelSpace._orbit_gram``: the long
#: double's epsneg, 2^-64 on x87
U_LD = np.finfo(np.longdouble).epsneg


def golden_spiral(r0, r1, m):
    """m points at radii linspace(r0, r1), a golden angle apart."""
    return np.linspace(r0, r1, m) * np.exp(2.399963229728653j * np.arange(m))


def quarter_turns(z):
    """``z`` times 1, i, -1 and -i: a set exactly closed under z -> i z."""
    return np.concatenate([z * u for u in (1, 1j, -1, -1j)])


def turn_of(z):
    """The quarter-turn permutation ``R`` of a closed node set, rebuilt from
    its orbits: ``R (R^t q) = R^(t+1) q``, and the origin is fixed."""
    orbits, fixed = rkhs._quarter_turn(z)
    turn = np.empty(len(z), dtype=np.intp)
    turn[orbits] = np.roll(orbits, -1, axis=0)
    turn[fixed] = fixed
    return turn


def one_row_orbits(z):
    """Whether ``_quarter_turn`` gives ``z`` the one-row orbits of an open
    set: ``arange(m)[None, :]`` and no fixed point."""
    orbits, fixed = rkhs._quarter_turn(z)
    return np.array_equal(orbits, np.arange(len(z))[None, :]) and fixed.size == 0


def mp_normalized_gram(log_k, z):
    """50-digit ``exp(log K(p,q) - log K(p,p)/2 - log K(q,q)/2)``, and the
    mask of the entries below the graded floor, ``|K(p, q)| < u min(K(p,
    p), K(q, q))``."""
    with mpmath.workdps(50):
        zs = [mpmath.mpc(c.real, c.imag) for c in z]
        diag = [log_k(p, p) for p in zs]
        log_u = mpmath.log(mpmath.mpf(float(U_LD)))
        gram = np.array([[complex(mpmath.exp(log_k(p, q) - dp / 2 - dq / 2))
                          for q, dq in zip(zs, diag)] for p, dp in zip(zs, diag)])
        below = np.array([[mpmath.re(log_k(p, q)) < log_u + min(mpmath.re(dp), mpmath.re(dq))
                           for q, dq in zip(zs, diag)] for p, dp in zip(zs, diag)])
    return gram, below


def re_log_kernel(space, p, q):
    """``Re log K(p, q)`` in float64 from the closed forms, at the (..., n)
    rows ``p`` and ``q``: ``alpha Re(p . conj q)`` or ``-(A + 2) log|1 - p .
    conj q / kappa^2|``."""
    pair = np.sum(np.asarray(p, dtype=complex) * np.conj(np.asarray(q, dtype=complex)), axis=-1)
    if space.kind == "fock":
        return space.alpha * pair.real
    return -(space.a_param + 2.0) * np.log(np.abs(1.0 - pair / space.kappa ** 2))


def below_floor(space, p, q):
    """Whether ``|K(p, q)| < u min(K(p, p), K(q, q))`` at the rows ``p`` and
    ``q``, from ``re_log_kernel``: the Gram entries the graded floor drops."""
    low = np.minimum(re_log_kernel(space, p, p), re_log_kernel(space, q, q))
    return re_log_kernel(space, p, q) < math.log(U_LD) + low


def pts_of(values, targets=None):
    arr = np.asarray(values, dtype=complex).reshape(-1, 1)
    t = None if targets is None else np.asarray(targets, dtype=complex)
    return pointset.PointSet(arr, t)


class TestKernels:
    def test_fock_closed_form(self):
        k = rkhs.fock_kernel(1.0)
        assert references.kernel(k, 1.0 + 0j, 1.0 + 0j) == pytest.approx(math.e)
        assert references.kernel(k, 1.0 + 1j, 0.5 - 0.5j) == pytest.approx(
            np.exp((1 + 1j) * np.conj(0.5 - 0.5j)))

    def test_bergman_closed_form(self):
        k = rkhs.bergman_kernel(2.0)
        assert references.kernel(k, 0.0, 0.0) == pytest.approx(1.0)
        z, w = 0.3 + 0.1j, -0.2 + 0.4j
        assert references.kernel(k, z, w) == pytest.approx((1 - z * np.conj(w)) ** (-4.0))

    def test_hermitian_symmetry_and_positivity(self, rng):
        for k in (rkhs.fock_kernel(1.5), rkhs.bergman_kernel(3.0)):
            for _ in range(20):
                z = complex(*rng.uniform(-0.6, 0.6, 2))
                w = complex(*rng.uniform(-0.6, 0.6, 2))
                assert references.kernel(k, z, w) == pytest.approx(
                    np.conj(references.kernel(k, w, z)), rel=1e-12)
                assert references.kernel(k, z, z).real > 0
                assert abs(references.kernel(k, z, z).imag) < 1e-15

    def test_kernel_space_validation(self):
        with pytest.raises(DomainError):
            rkhs.KernelSpace("unknown")
        with pytest.raises(DomainError):
            rkhs.fock_kernel(-1.0)
        with pytest.raises(DomainError):
            rkhs.KernelSpace("bergman", n=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "a_param", "kappa"])
    def test_non_finite_parameters_refused(self, field, bad):
        for kind in ("fock", "bergman"):
            with pytest.raises(DomainError, match="finite"):
                rkhs.KernelSpace(kind, **{field: bad})


class TestGram:
    def test_singleton(self):
        diag = references.riesz_bounds(rkhs.fock_kernel(1.0), pts_of([0.3 + 0.4j]))
        g = references.normalized_gram(rkhs.fock_kernel(1.0), np.array([[0.3 + 0.4j]]))
        assert g.shape == (1, 1)
        assert g[0, 0] == 1.0
        assert diag.eig_min == pytest.approx(1.0) and diag.eig_max == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [0.8, 1.5, 2.5])
    def test_symmetric_pair_closed_form(self, s):
        diag = references.riesz_bounds(rkhs.fock_kernel(1.0), pts_of([s, -s]))
        off = math.exp(-2.0 * s * s)
        g = references.normalized_gram(rkhs.fock_kernel(1.0), [s, -s])
        assert g[0, 1] == pytest.approx(off, rel=1e-14)
        assert diag.eig_min == pytest.approx(1.0 - off, rel=1e-12)
        assert diag.eig_max == pytest.approx(1.0 + off, rel=1e-12)

    def test_five_by_five_lattice_frozen_oracle(self):
        lat = pointset.square_lattice(2.0, half_extent=4.0)
        assert len(lat) == 25
        diag = references.riesz_bounds(rkhs.fock_kernel(1.0), lat)
        assert diag.eig_min == pytest.approx(FIVE_BY_FIVE_S2_EIG_MIN, abs=1e-9)

    def test_unit_diagonal_and_psd(self, rng):
        for trial in range(5):
            z = rng.uniform(-2, 2, (30, 1)) + 1j * rng.uniform(-2, 2, (30, 1))
            diag = references.riesz_bounds(rkhs.fock_kernel(1.0), pointset.PointSet(z))
            assert np.allclose(np.diag(references.normalized_gram(rkhs.fock_kernel(1.0), z)), 1.0)
            assert diag.eig_min >= -1e-10

    GRADED = [
        # fock nodes out to |z| = 20, where the exponents reach alpha |z|^2 = 400
        (rkhs.fock_kernel(1.0), golden_spiral(0.5, 20.0, 40),
         lambda p, q: p * mpmath.conj(q)),
        # bergman nodes up to 0.005 from the rim
        (rkhs.bergman_kernel(3.0), golden_spiral(0.9, 0.995, 30),
         lambda p, q: -5 * mpmath.log(1 - p * mpmath.conj(q))),
        # the same ranges closed under the quarter turn: the orbit build
        (rkhs.fock_kernel(1.0), quarter_turns(golden_spiral(0.5, 20.0, 12)),
         lambda p, q: p * mpmath.conj(q)),
        (rkhs.bergman_kernel(3.0), quarter_turns(golden_spiral(0.9, 0.995, 9)),
         lambda p, q: -5 * mpmath.log(1 - p * mpmath.conj(q))),
    ]
    GRADED_IDS = ["fock", "bergman", "fock_closed", "bergman_closed"]

    @pytest.mark.parametrize("space,z,log_k", GRADED, ids=GRADED_IDS)
    def test_normalized_gram_exactly_hermitian(self, space, z, log_k):
        g = references.normalized_gram(space, z)
        assert np.array_equal(g, g.conj().T)
        assert np.all(np.diag(g) == 1.0)

    @pytest.mark.parametrize("space,z,log_k", GRADED, ids=GRADED_IDS)
    def test_normalized_gram_matches_mpmath(self, space, z, log_k):
        # entries below the graded floor are exact zeros; every other entry
        # within 4 eps of the 50-digit value.  The Fock sets reach entries
        # below the floor; the Bergman ones, within 0.1 of the rim, do not
        g = references.normalized_gram(space, z)
        ref, below = mp_normalized_gram(log_k, z)
        assert below.any() == (space.kind == "fock")
        assert np.all(g[below] == 0)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        kept = ~below
        assert np.all(np.abs(g - ref)[kept] <= 4 * eps * np.abs(ref[kept]) + tiny)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(rkhs, "SIZE_GUARD", 10)
        lat = pointset.square_lattice(1.0, half_extent=2.0)
        with pytest.raises(SizeGuardError):
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), lat.with_values(np.ones(len(lat))))

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="empty point set"):
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0),
                                      pointset.PointSet(np.zeros((0, 1), complex), np.zeros(0)))

    @pytest.mark.parametrize("space,z", [
        (rkhs.fock_kernel(1.0), [[0.1, 0.2], [0.3j, -0.1 + 0.1j]]),
        (rkhs.bergman_kernel(4.0), [[0.1, 0.2], [0.3j, -0.1 + 0.1j]]),
        (rkhs.fock_kernel(1.0, n=2), [[0.1], [0.3j]]),
    ], ids=["fock_c2_nodes", "bergman_c2_nodes", "fock_n2_c1_nodes"])
    def test_node_width_other_than_n_refused(self, space, z):
        pts = pointset.PointSet(np.array(z, dtype=complex), np.ones(len(z), complex))
        with pytest.raises(DomainError, match=r"given nodes in C\^"):
            rkhs.min_norm_interpolant(space, pts)


class TestMinNormInterpolant:
    def test_singleton_normalized_kernel(self):
        k = rkhs.fock_kernel(1.0)
        itp = rkhs.min_norm_interpolant(k, pts_of([0.7 + 0.1j], [1.0 + 0j]))
        p, z = 0.7 + 0.1j, 0.2 - 0.4j
        f_p, f_z = references.interpolant(itp, np.array([[p], [z]]))
        assert f_p == pytest.approx(1.0, rel=1e-14)
        # f = K(., p)/K(p, p)
        assert f_z == pytest.approx(references.kernel(k, z, p) / references.kernel(k, p, p),
                                    rel=1e-12)

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
        assert float(np.max(references.residuals(itp))) <= 1e-10 * float(np.max(np.abs(a)))
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
        res = references.residuals(itp)
        assert res.shape == (12,)
        assert float(np.max(res)) <= 1e-10 * float(np.max(np.abs(a)))

    def test_one_extended_build_and_one_factorization(self, monkeypatch):
        # the Gram is factored once, by Cholesky, as the forms whose
        # eigenvalues are reported: on nodes closed under conjugation real
        # ones, the four character forms of orders [r + o, r, r, r] on a
        # closed lattice and the one real form once a real-axis point is
        # removed; complex ones only on nodes not closed under conjugation
        calls = {"log_kernel": 0, "diag_log": 0, "solve": 0}
        factored = []
        real_cho = scipy.linalg.cho_factor

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def factoring(a, *args, **kwargs):
            assert a.shape[0] == a.shape[1]
            factored.append((a.dtype, a.shape[0]))
            return real_cho(a, *args, **kwargs)

        def no_lu(*args, **kwargs):
            raise AssertionError("lu_factor called")

        monkeypatch.setattr(rkhs.KernelSpace, "log_kernel",
                            counting("log_kernel", rkhs.KernelSpace.log_kernel))
        monkeypatch.setattr(rkhs.KernelSpace, "diag_log",
                            counting("diag_log", rkhs.KernelSpace.diag_log))
        monkeypatch.setattr(scipy.linalg, "cho_factor", factoring)
        monkeypatch.setattr(scipy.linalg, "lu_factor", no_lu)
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        closed = pointset.square_lattice(2.0, half_extent=4.0).points  # 25 points
        opened = np.delete(closed, 0, axis=0)  # breaks the orbit of a corner
        on_axis = np.delete(closed, np.flatnonzero(closed[:, 0] == 2.0), axis=0)
        turned = np.concatenate([[0], quarter_turns(golden_spiral(0.8, 3.0, 6))]).reshape(-1, 1)
        for z, dtype, expect in ((closed, float, [7, 6, 6, 6]), (on_axis, float, [24]),
                                 (opened, complex, [24]), (turned, complex, [7, 6, 6, 6])):
            assert (rkhs._conjugation(z) is not None) == (dtype is float)
            calls.update(log_kernel=0, diag_log=0, solve=0)
            factored.clear()
            rkhs.min_norm_interpolant(rkhs.fock_kernel(2.5),
                                      pointset.PointSet(z, np.ones(len(z), complex)))
            assert calls == {"log_kernel": 1, "diag_log": 1, "solve": 0}
            assert factored == [(np.dtype(dtype), n) for n in expect]
            assert sum(expect) == len(z)

    @staticmethod
    def residual_sets():
        """(space, nodes, values): the criterion-9 set, a random 20-node set
        and an n = 2 Fock set."""
        base = np.array([complex(p, q) * 2.0 for p in range(-2, 3) for q in range(-2, 2)])
        out = []
        for seed in (41, 7):
            rng = np.random.default_rng(seed)
            z = base + 0.3 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
            a = rng.normal(size=20) + 1j * rng.normal(size=20)
            out.append((rkhs.fock_kernel(1.0), z.reshape(-1, 1), a))
        rng = np.random.default_rng(12)
        base2 = np.array([[complex(p, q) * 2.0, 0.0] for p in range(-1, 2) for q in range(-2, 2)])
        z2 = base2 + 0.3 * (rng.uniform(-1, 1, (12, 2)) + 1j * rng.uniform(-1, 1, (12, 2)))
        out.append((rkhs.fock_kernel(1.0, n=2), z2, rng.normal(size=12) + 1j * rng.normal(size=12)))
        return out

    def test_raw_residuals_from_the_solve(self):
        # the solve's raw residual e^{Re dl/2} |G y - b| meets the same gate
        # as the independent audit and agrees with it far below that gate;
        # both sit at rounding level (about 1e-14 here)
        for space, z, a in self.residual_sets():
            itp = rkhs.min_norm_interpolant(space, pointset.PointSet(z, a))
            scale = float(np.max(np.abs(a)))
            raw, audit = itp.raw_residuals, references.residuals(itp)
            assert raw.dtype == np.float64 and raw.shape == (len(a),)
            assert float(np.max(raw)) <= 1e-10 * scale
            assert float(np.max(audit)) <= 1e-10 * scale
            assert float(np.max(np.abs(raw - audit))) <= 1e-12 * scale

    def test_raw_residuals_carry_the_node_scale(self):
        # spacing-2 lattice out to R = 10: rounding in the normalized scale is
        # multiplied by e^{|p|^2/2} up to e^50, so both raw residuals are far
        # above the weighted ones and of one order of magnitude
        z = np.array([2.0 * complex(a, b) for a in range(-5, 6) for b in range(-5, 6)
                      if a * a + b * b <= 25])
        rng = np.random.default_rng(0)
        a = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
        itp = rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), pts_of(z, a))
        raw, audit = float(np.max(itp.raw_residuals)), float(np.max(references.residuals(itp)))
        assert raw > 1e6 * float(np.max(itp.weighted_residuals))
        assert 0.1 <= raw / audit <= 10.0

    def test_conditioning_guard_refuses_nan_eigenvalue(self, monkeypatch):
        real = rkhs._diagnose

        def nan_min(blocks):
            d = real(blocks)
            return rkhs.GramDiagnostic(math.nan, d.eig_max, math.nan)

        monkeypatch.setattr(rkhs, "_diagnose", nan_min)
        with pytest.raises(ConditioningError):
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), pts_of([0.0, 3.0], [1.0, 1.0]))

    def test_overflowing_solution_refused(self):
        # a value near the top of the double range: the coefficients are
        # finite, norm_sq overflows
        with pytest.raises(NumericalGuardError, match="non-finite interpolant"):
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0),
                                      pts_of([0.0, 2.0], [1e308 + 1e308j, 1.0]))

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
        assert float(np.max(references.residuals(itp))) <= 1e-10 * float(np.max(np.abs(a)))

    @pytest.mark.parametrize("z", [1.0, 1.5, -3.0, 2.0, -1j, [0.2, 1.5]],
                             ids=["rim", "outside", "far", "kappa_singular", "rim_imaginary",
                                  "array"])
    def test_bergman_evaluation_off_the_disk_refused(self, z):
        # a node at z: the kernel's domain gate refuses it before any Gram
        # entry is formed
        nodes = [0.5, 0.5j, -0.5]
        itp = rkhs.min_norm_interpolant(rkhs.bergman_kernel(2.0),
                                        pts_of([*nodes, 0.99], [1, 1j, 1, 1j]))
        assert np.all(np.isfinite(itp.raw_residuals))
        z = np.atleast_1d(z)
        with pytest.raises(DomainError, match="inside the kappa-disk"):
            rkhs.min_norm_interpolant(rkhs.bergman_kernel(2.0),
                                      pts_of([*nodes, *z], np.ones(len(nodes) + len(z))))

    def test_bergman_evaluation_on_a_wider_disk(self):
        # the rule is sum |z|^2 < kappa^2: 1.5 is inside the disk of radius 2
        space = rkhs.bergman_kernel(2.0, kappa=2.0)
        itp = rkhs.min_norm_interpolant(space, pts_of([0.5, 0.5j, -0.5, 1.5], [1, 1j, 1, 1j]))
        assert np.all(np.isfinite(itp.raw_residuals))
        with pytest.raises(DomainError, match="inside the kappa-disk"):
            rkhs.min_norm_interpolant(space, pts_of([0.5, 0.5j, -0.5, 2.0], [1, 1j, 1, 1j]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf),
                                     complex(math.nan, 0)])
    @pytest.mark.parametrize("space,nodes", [
        (rkhs.fock_kernel(1.0), np.array([[0.0], [2.0]])),
        (rkhs.bergman_kernel(2.0), np.array([[0.5], [-0.5]])),
        (rkhs.fock_kernel(1.0, n=2), np.array([[0.0, 0.0], [2.0, 1.0]])),
    ], ids=["fock", "bergman", "fock_n2"])
    def test_non_finite_evaluation_refused(self, space, nodes, bad):
        # the kernel's domain gate, which every Gram build passes, refuses a
        # non-finite row
        assert np.all(np.isfinite(space.diag_log(nodes)))
        z = [bad] if space.n == 1 else [0.0, bad]
        with pytest.raises(DomainError, match="finite"):
            space.diag_log(np.concatenate([nodes, [z]]))

    def test_minimality_against_constrained_perturbations(self, rng):
        # perturb inside the span of an enlarged center set while keeping
        # the nodal values fixed; the solved interpolant must stay minimal
        nodes = rng.uniform(-1.5, 1.5, 12) + 1j * rng.uniform(-1.5, 1.5, 12)
        a = rng.normal(size=12) + 1j * rng.normal(size=12)
        extras = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        k = rkhs.fock_kernel(1.0)
        itp = rkhs.min_norm_interpolant(k, pts_of(nodes, a))
        allpts = np.concatenate([nodes, extras]).reshape(-1, 1)
        k_all = np.exp(k.log_kernel(allpts[:, None], allpts)).astype(complex)
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


class TestGradedFloor:
    """The graded floor drops a Gram entry where ``|K(p, q)| < u min(K(p,
    p), K(q, q))``: the raw nodal residual ``|f(p) - a_p|`` stays at
    rounding level on graded nodes.  A floor on the normalized entry alone,
    ``|G[p, q]| < u``, drops ``G[0, 10] = e^-50`` on the cross below and
    leaves ``f(10)`` off by about ``|c_0|``, 1.0."""

    SETS = [
        np.array([0, 10, -10, 10j, -10j]),
        # the spacing-5 set of tests/test_cli.py
        np.array([5.0 * complex(a, b) for a in range(-2, 3) for b in range(-2, 3)]),
    ]

    @pytest.mark.parametrize("z", SETS, ids=["cross", "spacing_5"])
    def test_raw_residual_from_the_coefficients(self, z):
        # unit values, as in tests/test_cli.py: the sum over the nodes then
        # cancels mildly enough for complex128 coefficients to show 1e-10
        a = np.ones(len(z), dtype=complex)
        space = rkhs.fock_kernel(1.0)
        assert np.any(references.normalized_gram(space, z) == 0)  # the floor drops entries here
        coeff = rkhs.min_norm_interpolant(space, pts_of(z, a)).coefficients
        # f(p) = sum_j c_j exp(p conj p_j) at 40 digits, from the public
        # coefficients alone
        with mpmath.workdps(40):
            nodes = [mpmath.mpc(p.real, p.imag) for p in z]
            cs = [mpmath.mpc(c.real, c.imag) for c in coeff]
            for p, ap in zip(nodes, a):
                f = mpmath.fsum(c * mpmath.exp(p * mpmath.conj(q)) for c, q in zip(cs, nodes))
                assert abs(f - mpmath.mpc(ap.real, ap.imag)) <= 1e-10


def half_shifted_lattice(s, k):
    """``s(x + i y)`` for half-integers ``|x|, |y| < k``: closed under the
    quarter turn, without the origin."""
    a = np.arange(-k, k) + 0.5
    return (s * (a[:, None] + 1j * a[None, :])).reshape(-1, 1)


def fock_product_set():
    """A 5-point and a 9-point lattice in C^2, each closed under z -> i z."""
    z1 = pointset.square_lattice(2.0, radius=2.0).points[:, 0]
    z2 = pointset.square_lattice(1.5, half_extent=1.5).points[:, 0]
    return np.stack(np.broadcast_arrays(z1[:, None], z2[None, :]), axis=-1).reshape(-1, 2)


#: a set closed under the turn and conjugation with self-paired
#: representatives at every turn, on the axes and the diagonals
DIAGONALS = np.concatenate([[0], quarter_turns(np.array(
    [0.3, 0.25j, 0.2 + 0.2j, -0.35 + 0.35j, 0.4 + 0.1j, 0.4 - 0.1j]))]).reshape(-1, 1)
#: closed under z -> conj z besides the sets of TestQuarterTurnBlocks.CLOSED
CONJUGATE = [
    (rkhs.fock_kernel(1.0), pointset.square_lattice(2.0, radius=20.0).points),
    (rkhs.fock_kernel(1.0), np.array([1, 1 + 1j, 1 - 1j, 2 + 0.5j, 2 - 0.5j]).reshape(-1, 1)),
    (rkhs.bergman_kernel(3.0), DIAGONALS),
]
CONJUGATE_IDS = ["fock_317", "conjugation_only", "bergman_diagonals"]


class TestQuarterTurnBlocks:
    CLOSED = [
        (rkhs.fock_kernel(1.0), pointset.square_lattice(1.5, radius=9.0).points),
        (rkhs.fock_kernel(0.8), half_shifted_lattice(1.2, 5)),
        (rkhs.bergman_kernel(2.0), pointset.square_lattice(0.15, radius=0.9).points),
        (rkhs.fock_kernel(1.0, n=2), fock_product_set()),
    ]
    IDS = ["fock_origin", "fock_half_shifted", "bergman_disk", "fock_n2"]

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        """``(dtype kind, shape)`` of the arrays passed to
        ``np.linalg.eigvalsh``, in call order: ``"f"`` for a real symmetric
        matrix, ``"c"`` for a complex Hermitian one, and a leading axis for
        a stack."""
        calls = []
        real = np.linalg.eigvalsh

        def counting(a):
            calls.append((a.dtype.kind, a.shape))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    @pytest.mark.parametrize("space,z", CLOSED, ids=IDS)
    def test_block_extremes_equal_full_eigvalsh(self, space, z):
        turn = turn_of(z)
        assert np.array_equal(z[turn], 1j * z)
        g = references.normalized_gram(space, z)
        ev = np.linalg.eigvalsh(g)
        blocks = references.character_blocks(g, rkhs._quarter_turn(z))
        diag = rkhs._diagnose(blocks)
        assert abs(diag.eig_min - ev[0]) <= 1e-12
        assert abs(diag.eig_max - ev[-1]) <= 1e-12
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks if b.size]))
        assert np.max(np.abs(spectrum - ev)) <= 1e-12

    @pytest.mark.parametrize("space,z", CLOSED + CONJUGATE, ids=IDS + CONJUGATE_IDS)
    def test_table_blocks_equal_the_gather_from_the_gram(self, space, z):
        # the forms gathered from the table, against _real_form of the rows
        # a, f (and the origin) at the columns of the form basis, gathered
        # from the reference's blocks of the rounded m x m Gram and scaled
        # by L (columns b and f, then rows f): bit for bit
        quarter, sigma = rkhs._quarter_turn(z), rkhs._conjugation(z)
        table = space._normalized_grams(z, quarter, sigma)[0]
        forms, (_, cols, p, scale) = rkhs._riesz_forms(table, quarter, sigma)
        rows = np.concatenate([cols[:p], cols[2 * p:]])
        want = []
        g = references.normalized_gram(space, z)
        for k, block in enumerate(references.character_blocks(g, quarter)):
            n = len(block)
            h = block[np.ix_(rows[rows < n], cols[cols < n])]
            if k:
                h[:, p:] *= scale[k, p:n]
                h[p:] *= scale[k, 2 * p:n, None].conj()
            want.append(rkhs._real_form(h, p))
        got = [forms[0], *(f for stack in forms[1:] for f in stack)]
        assert [(f.shape, f.tobytes()) for f in got] == [(f.shape, f.tobytes()) for f in want]

    @pytest.mark.parametrize("space,z", CLOSED, ids=IDS)
    def test_quarter_size_eigensolves(self, space, z, eigensolves):
        # closed under conjugation too: the real forms of the four
        # quarter-size blocks, B_1 to B_3 as one stack
        assert rkhs._conjugation(z) is not None
        references.riesz_bounds(space, pointset.PointSet(z))
        origin = int(np.any(np.all(z == 0, axis=1)))
        quarter = (len(z) - origin) // 4
        assert eigensolves == [("f", (quarter + origin,) * 2), ("f", (3, quarter, quarter))]

    @pytest.mark.parametrize("space,z", CLOSED, ids=IDS)
    def test_one_orbit_point_removed_takes_the_full_path(self, space, z, eigensolves):
        # drop the first point off the origin: its orbit is broken
        keep = np.ones(len(z), bool)
        keep[np.flatnonzero(np.any(z != 0, axis=1))[0]] = False
        z = z[keep]
        assert one_row_orbits(z)
        diag = references.riesz_bounds(space, pointset.PointSet(z))
        calls = eigensolves.copy()
        ev = np.linalg.eigvalsh(references.normalized_gram(space, z))
        if rkhs._conjugation(z) is None:
            assert calls == [("c", (len(z), len(z)))]
            assert (diag.eig_min, diag.eig_max) == (float(ev[0]), float(ev[-1]))
        else:
            # a point on the real axis went: one real form of the whole Gram,
            # whose entries are at most 1
            assert calls == [("f", (len(z), len(z)))]
            bound = TestRealForms.FORM * EPS * len(z)
            assert abs(diag.eig_min - ev[0]) <= bound and abs(diag.eig_max - ev[-1]) <= bound

    def test_open_set_closed_under_neither_map(self, eigensolves):
        z = golden_spiral(0.5, 4.0, 30).reshape(-1, 1)
        assert one_row_orbits(z) and rkhs._conjugation(z) is None
        diag = references.riesz_bounds(rkhs.fock_kernel(1.0), pointset.PointSet(z))
        assert eigensolves == [("c", (30, 30))]
        ev = np.linalg.eigvalsh(references.normalized_gram(rkhs.fock_kernel(1.0), z))
        assert (diag.eig_min, diag.eig_max) == (float(ev[0]), float(ev[-1]))

    def test_turned_generic_orbits_take_the_complex_blocks(self, eigensolves):
        # closed under the turn, not under conjugation: the four complex
        # blocks, B_1 to B_3 as one stack, their extremes bit for bit those
        # of the reference's blocks of the unfolded Gram
        z = np.concatenate([[0], quarter_turns(golden_spiral(0.8, 3.0, 6))]).reshape(-1, 1)
        assert not one_row_orbits(z) and rkhs._conjugation(z) is None
        space = rkhs.fock_kernel(1.0)
        diag = references.riesz_bounds(space, pointset.PointSet(z))
        assert eigensolves == [("c", (7, 7)), ("c", (3, 6, 6))]
        blocks = references.character_blocks(references.normalized_gram(space, z),
                                             rkhs._quarter_turn(z))
        spectra = [np.linalg.eigvalsh(b) for b in blocks]
        assert (diag.eig_min, diag.eig_max) == (float(min(ev[0] for ev in spectra)),
                                                float(max(ev[-1] for ev in spectra)))

    def test_interpolant_and_sweep_take_the_blocks(self, eigensolves):
        lat = pointset.square_lattice(2.0, radius=6.0)  # 29 points
        rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0),
                                  pointset.PointSet(lat.points, np.ones(len(lat), complex)))
        assert eigensolves == [("f", (8, 8)), ("f", (3, 7, 7))]
        eigensolves.clear()
        rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [2.0], 6.0, extra_radii=[4.0])
        assert eigensolves == [("f", (8, 8)), ("f", (3, 7, 7)), ("f", (4, 4)), ("f", (3, 3, 3))]

    def test_only_the_origin(self):
        diag = references.riesz_bounds(rkhs.fock_kernel(1.0), pts_of([0.0]))
        assert (diag.eig_min, diag.eig_max) == (1.0, 1.0)

    def test_duplicate_rows_take_the_full_path(self):
        # the doubled orbit is closed as a multiset; the turn is not a
        # permutation of distinct points
        orbit = [1.0, 1j, -1.0, -1j]
        assert one_row_orbits(np.array([0j, *orbit, *orbit]).reshape(-1, 1))
        assert one_row_orbits(np.array([0j, *orbit, 1.0]).reshape(-1, 1))

    def test_near_coincident_orbit_refused(self):
        # {+-1e-9, +-1e-9 i} beside the origin of a spacing-2 lattice: a
        # closed set with a nearly singular Gram
        lat = pointset.square_lattice(2.0, radius=4.0).points[:, 0]
        z = np.concatenate([lat, 1e-9 * np.array([1, 1j, -1, -1j])])
        assert rkhs._quarter_turn(z.reshape(-1, 1)) is not None
        with pytest.raises(ConditioningError) as exc:
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), pts_of(z, np.ones(len(z))))
        assert exc.value.eig_min < 1e-10


def blocks_and_forms(space, z):
    """``(blocks, forms, rows)`` on the nodes ``z``: the reference's character
    blocks of the unfolded Gram and the ``_riesz_forms`` of the table, the
    stack of ``F_1`` to ``F_3`` split in three, with the block row of each
    form row, ``rows[0]`` for ``F_0`` and ``rows[1]`` for the stack."""
    quarter, sigma = rkhs._quarter_turn(z), rkhs._conjugation(z)
    table = space._normalized_grams(z, quarter, sigma)[0]
    blocks = references.character_blocks(references.unfold(table, quarter), quarter)
    forms, (_, cols, _, _) = rkhs._riesz_forms(table, quarter, sigma)
    rows = [cols, cols[:quarter[0].shape[1]]]
    return blocks, [forms[0], *forms[1]] if len(forms) == 2 else forms, rows


class TestRealForms:
    """The real symmetric forms of the character blocks on node sets closed
    under conjugation, against the spectra of the complex blocks."""

    #: gap between a form's spectrum and its block's, in units of eps w
    #: max|B| for a block of order w; on these sets at most 1.6
    FORM = 4.0
    SETS = TestQuarterTurnBlocks.CLOSED + CONJUGATE
    IDS = TestQuarterTurnBlocks.IDS + CONJUGATE_IDS

    @pytest.mark.parametrize("space,z", SETS, ids=IDS)
    def test_forms_are_real_symmetric_and_isospectral(self, space, z):
        blocks, forms, _ = blocks_and_forms(space, z)
        assert len(forms) == len(blocks)
        for block, form in zip(blocks, forms):
            assert form.dtype == float and form.shape == block.shape
            scale = EPS * float(np.max(np.abs(block), initial=0.0))
            assert np.all(np.abs(form - form.T) <= scale)
            gap = np.abs(np.linalg.eigvalsh(form) - np.linalg.eigvalsh(block))
            assert np.all(gap <= self.FORM * len(block) * scale)

    @pytest.mark.parametrize("space,z", SETS, ids=IDS)
    def test_pairing(self, space, z):
        # sigma(q) = R^u_q pi(q) on representatives; pi an involution
        orbits, _ = rkhs._quarter_turn(z)
        sigma = rkhs._conjugation(z)
        pi, u = rkhs._pairing(orbits, sigma)
        assert np.array_equal(z[orbits[u, pi]], z[orbits[0]].conj())
        assert np.array_equal(pi[pi], np.arange(len(pi))) and np.array_equal(u[pi], u)

    def test_self_paired_entries_at_every_turn(self):
        # the Bergman set has self-paired representatives with u = 0, 1, 2
        # and 3: on the axes and the diagonals
        orbits, _ = rkhs._quarter_turn(DIAGONALS)
        pi, u = rkhs._pairing(orbits, rkhs._conjugation(DIAGONALS))
        assert set(u[pi == np.arange(len(pi))]) == {0, 1, 2, 3}

    def test_every_block_counts(self):
        # B_3 and B_1 are not isospectral: on the spacing-2 half-shifted
        # lattice at alpha 0.6, B_3 alone holds both extremes, and leaving it
        # out would overstate eig_min thirtyfold, past the conditioning guard
        space, z = rkhs.fock_kernel(0.6), half_shifted_lattice(2.0, 5)
        blocks, forms, _ = blocks_and_forms(space, z)
        spectra = [np.linalg.eigvalsh(f) for f in forms]
        assert spectra[3][0] < min(ev[0] for ev in spectra[:3]) / 10
        assert spectra[3][-1] > max(ev[-1] for ev in spectra[:3])
        diag = references.riesz_bounds(space, pointset.PointSet(z))
        ev = np.linalg.eigvalsh(references.normalized_gram(space, z))
        bound = self.FORM * EPS * len(blocks[0])
        assert abs(diag.eig_min - ev[0]) <= bound and abs(diag.eig_max - ev[-1]) <= bound
        assert diag.eig_min < rkhs.CONDITION_GUARD < min(ev[0] for ev in spectra[:3])

    @pytest.mark.parametrize("space,s,big,small", [
        (rkhs.fock_kernel(1.0), 2.0, 6.0, 4.0),
        (rkhs.fock_kernel(0.6), 1.6, 8.0, 4.8),
        (rkhs.fock_kernel(1.0), 1.5, 7.5, 0.0),
        (rkhs.bergman_kernel(2.0), 0.2, 0.9, 0.6),
    ])
    def test_sub_forms_are_forms_built_anew(self, space, s, big, small):
        # the sweep's principal sub-blocks on the kept block rows, against the
        # forms of the smaller lattice, bit for bit
        largest = pointset.square_lattice(s, radius=big).points
        lattice = pointset.square_lattice(s, radius=small).points
        orbits, fixed = rkhs._quarter_turn(largest)
        inside = np.isin(largest[:, 0], lattice[:, 0])
        keep = [np.concatenate([inside[orbits[0]], inside[fixed]]), inside[orbits[0]]]
        _, forms, rows = blocks_and_forms(space, largest)
        _, want, _ = blocks_and_forms(space, lattice)
        got = []
        for form, k in zip(forms, [0, 1, 1, 1]):
            sel = np.flatnonzero(keep[k][rows[k]])
            got.append(form[np.ix_(sel, sel)])
        assert [(f.shape, f.tobytes()) for f in got] == [(f.shape, f.tobytes()) for f in want]

    def test_one_conjugation_per_node_set(self, monkeypatch):
        sets = []
        real = rkhs._conjugation

        def recording(points):
            sets.append(len(points))
            return real(points)

        monkeypatch.setattr(rkhs, "_conjugation", recording)
        lat = pointset.square_lattice(2.0, radius=6.0)  # 29 points
        rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), lat.with_values(np.ones(len(lat))))
        assert sets == [29]
        sets.clear()
        rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [3.0, 2.0], 4.0, extra_radii=[6.0])
        assert sets == [len(pointset.square_lattice(s, radius=6.0)) for s in (3.0, 2.0)]


def triangle_build(space, points, half, orbits, fixed):
    """The orbit table that exponentiates every exponent entry: the upper
    triangles of ``s_0`` and ``s_2``, all of ``s_1`` and the origin's
    column, the half logs subtracted through ``maximum.outer`` and
    ``minimum.outer``, then the Hermitian mirror (the build before the
    conjugation classes, inlined as the reference)."""
    c, r = orbits.shape
    k, w = min(c, 3), r + len(fixed)
    rows = np.concatenate([orbits[0], fixed])
    cols = np.concatenate([*orbits[:k], fixed])
    logk = space.log_kernel(points[rows][:, None], points[cols])
    logk.real -= np.maximum.outer(half[rows], half[cols])
    logk.real -= np.minimum.outer(half[rows], half[cols])
    upper = np.triu(np.ones((r, r), dtype=bool))
    for t in range(0, k, 2):
        block = (slice(r), slice(t * r, (t + 1) * r))
        logk[block][upper] = np.exp(logk[block][upper])
        logk[block][~upper] = logk[block].T[~upper].conj()
    for t in range(1, k, 2):
        np.exp(logk[:r, r:2 * r], out=logk[:r, r:2 * r])
    src = np.empty((w, c, w), dtype=logk.dtype)
    src[:r, :k, :r] = logk[:r, :k * r].reshape(r, k, r)
    if len(fixed):
        column = np.exp(logk[:, 3 * r])
        src[:r, :, r] = column[:r, None]
        src[r, :, :r] = column[:r].conj()
        src[r, :, r] = column[r]
    for t in range(1, k, 2):
        src[:r, 3, :r] = src[:r, 1, :r].T.conj()
    return src


def assert_floored_triangle_build(space, z):
    """The table of ``_orbit_gram`` on ``z`` against ``triangle_build``: the
    entries the floor drops are exact zeros, and every other entry is the
    triangle build's bit for bit, in the extended table and in the rounded
    one.  Which entries drop is read from the triangle build's own values:
    ``|G[p, q]| < u e^(-|h_p - h_q|)``, ``h`` the half diagonal logs, which
    is ``|K(p, q)| < u min(K(p, p), K(q, q))``."""
    quarter = rkhs._quarter_turn(z)
    orbits, fixed = quarter
    c = len(orbits)
    sigma = rkhs._conjugation(z)
    half = 0.5 * space.diag_log(z)
    got = space._orbit_gram(z, half, *quarter, sigma)
    want = triangle_build(space, z, half, *quarter)
    node = np.concatenate([orbits, np.broadcast_to(fixed, (c, len(fixed)))], axis=1)
    spread = np.abs(half[node[0]][:, None, None] - half[node][None, :, :])
    with np.errstate(divide="ignore"):
        below = np.log(np.abs(want)) < np.log(U_LD) - spread
    kept = ~below
    assert np.all(got[below] == 0)
    assert_same_bits(got[kept], want[kept])
    table = space._normalized_grams(z, quarter, sigma)[0]
    want = want.astype(complex)
    np.fill_diagonal(want[:, 0], 1.0)
    assert np.all(table[below] == 0)
    assert table[kept].tobytes() == want[kept].tobytes()
    return below


def assert_same_bits(a, b):
    """``a`` and ``b`` bit for bit: equal values and equal signs, zeros
    included.  An x87 long double leaves six of its sixteen bytes unset, so
    ``tobytes`` of an extended array is not reproducible; the rounded
    complex128 arrays are compared with ``tobytes``."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))
    assert a.astype(complex).tobytes() == b.astype(complex).tobytes()


def conjugate_pairs(z):
    """``z`` and its conjugates: a set exactly closed under z -> conj z."""
    return np.concatenate([z, z.conj()])


class TestOrbitGram:
    """The Gram of a quarter-turn-closed set, built from one representative
    row per orbit, against the one-orbit build of the same rows, which
    exponentiates the upper triangle of the m x m Gram and mirrors it; and
    the table with one exponential per conjugate pair against the one that
    exponentiates every exponent entry (``triangle_build``)."""

    CLOSED = TestQuarterTurnBlocks.CLOSED + [
        (space, z.reshape(-1, 1)) for space, z, _ in TestGram.GRADED[2:]]
    IDS = TestQuarterTurnBlocks.IDS + ["fock_graded", "bergman_graded"]

    @pytest.mark.parametrize("space,z", CLOSED, ids=IDS)
    def test_exact_hermitian_unit_diagonal_and_turn_invariant(self, space, z):
        turn = turn_of(z)
        assert np.array_equal(z[turn], 1j * z)
        quarter = rkhs._quarter_turn(z)
        table, table_ld, _ = space._normalized_grams(z, quarter, rkhs._conjugation(z))
        g, gram_ld = references.unfold(table, quarter), references.unfold(table_ld, quarter)
        assert np.all(np.diag(g) == 1.0)
        for m in (g, gram_ld):
            assert np.array_equal(m, m.conj().T)
            assert m[np.ix_(turn, turn)].tobytes() == m.tobytes()

    @pytest.mark.parametrize("space,z", CLOSED, ids=IDS)
    def test_agrees_with_the_triangle_build(self, space, z):
        # both builds subtract the larger half log first; the bounds allow a
        # turned pair's exponent x = log K - dl_p/2 - dl_q/2 relative gaps of
        # a few eps_ld |x| before rounding to complex128, at most one unit in
        # the last place after it
        quarter = rkhs._quarter_turn(z)
        table, table_ld, half = space._normalized_grams(z, quarter, rkhs._conjugation(z))
        g, gram_ld = references.unfold(table, quarter), references.unfold(table_ld, quarter)
        # the rows taken as an open set: their one-orbit tables
        open_set = (np.arange(len(z))[None, :], np.empty(0, dtype=np.intp))
        table_tri, table_tri_ld, half_tri = space._normalized_grams(z, open_set,
                                                                    rkhs._conjugation(z))
        g_tri = references.unfold(table_tri, open_set)
        gram_tri = references.unfold(table_tri_ld, open_set)
        assert np.array_equal(half, half_tri)
        eps_ld = np.finfo(np.longdouble).eps
        scale = 1 + np.abs(half)[:, None] + np.abs(half)[None, :]
        assert np.all(np.abs(gram_ld - gram_tri) <= 4 * eps_ld * scale * np.abs(gram_tri))
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        assert np.all(np.abs(g - g_tri) <= eps * np.abs(g_tri) + tiny)

    @pytest.mark.parametrize("space,z", CLOSED, ids=IDS)
    def test_representative_rows_only(self, space, z, monkeypatch):
        # one extended log-kernel call, on the pairs of the lead entries
        # only: one pair per class of Gram entries, each row an orbit
        # representative or the origin
        calls = []
        real = rkhs.KernelSpace.log_kernel

        def recording(self, a, b):
            out = real(self, a, b)
            calls.append((np.asarray(a).astype(complex), out.shape, out.dtype))
            return out

        monkeypatch.setattr(rkhs.KernelSpace, "log_kernel", recording)
        references.normalized_gram(space, z)
        orbits, fixed = rkhs._quarter_turn(z)
        classes = self.entry_classes(z, rkhs._conjugation(z) is not None)
        assert [call[1:] for call in calls] == [((len(classes),), np.clongdouble)]
        reps = {tuple(row) for row in z[np.concatenate([orbits[0], fixed])].tolist()}
        assert all(tuple(row) in reps for row in calls[0][0].tolist())

    W = [2.5, 2.5j] @ np.random.default_rng(221).normal(size=(2, 9))
    #: (space, nodes, closed under the turn, closed under conjugation)
    BUILDS = [
        (rkhs.fock_kernel(1.0), pointset.square_lattice(1.5, radius=9.0).points, True, True),
        (rkhs.fock_kernel(0.8), half_shifted_lattice(1.2, 5), True, True),
        (rkhs.bergman_kernel(2.0), pointset.square_lattice(0.15, radius=0.9).points, True, True),
        (rkhs.fock_kernel(1.0, n=2), fock_product_set(), True, True),
        # the rectangle lattice a + 2 b i: conjugate pairs, no quarter turn
        (rkhs.fock_kernel(0.7), (np.arange(-3, 4)[:, None] + 2j * np.arange(-2, 3)).reshape(-1, 1),
         False, True),
        # pairs up to 560 apart: entries far below the long double range,
        # zeros that keep the sign of their exponent's imaginary part
        (rkhs.fock_kernel(1.0), conjugate_pairs(40 * W).reshape(-1, 1), False, True),
        (rkhs.bergman_kernel(3.0), conjugate_pairs(0.3 * W / np.abs(W).max()).reshape(-1, 1),
         False, True),
        (rkhs.fock_kernel(1.0), quarter_turns(W).reshape(-1, 1), True, False),
        (rkhs.fock_kernel(1.0), np.concatenate([[0], quarter_turns(W)]).reshape(-1, 1), True, False),
        (rkhs.fock_kernel(0.6), W.reshape(-1, 1), False, False),
    ]
    BUILD_IDS = ["fock_origin", "fock_half_shifted", "bergman_disk", "fock_n2", "rectangle",
                 "far_pairs", "bergman_pairs", "turned_random", "turned_random_origin",
                 "open_random"]

    @pytest.fixture
    def exp_sizes(self, monkeypatch):
        """Sizes of the extended-precision arrays passed to ``np.exp``."""
        sizes = []
        real = np.exp

        def counting(x, *args, **kwargs):
            if np.asarray(x).dtype == np.clongdouble:
                sizes.append(np.size(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        return sizes

    @pytest.fixture
    def log_sizes(self, monkeypatch):
        """Sizes of the extended-precision log-kernels evaluated."""
        sizes = []
        real = rkhs.KernelSpace.log_kernel

        def counting(self, a, b):
            out = real(self, a, b)
            if out.dtype == np.clongdouble:
                sizes.append(out.size)
            return out

        monkeypatch.setattr(rkhs.KernelSpace, "log_kernel", counting)
        return sizes

    #: the sets whose tables hold entries below the graded floor
    FLOORED = {"fock_origin", "fock_half_shifted", "far_pairs"}

    @pytest.mark.parametrize("space,z,turned,conjugated", BUILDS, ids=BUILD_IDS)
    def test_bit_identical_to_the_triangle_build(self, space, z, turned, conjugated, request):
        quarter = rkhs._quarter_turn(z)
        assert (len(quarter[0]) == 4) == turned
        assert (rkhs._conjugation(z) is not None) == conjugated
        below = assert_floored_triangle_build(space, z)
        assert below.any() == (request.node.callspec.id in self.FLOORED)

    @staticmethod
    def entry_classes(z, conjugate):
        """The classes of Gram entries ``G[a, b]`` on the nodes ``z`` under
        the turn ``(a, b) -> (R a, R b)`` (on a turn-closed set), the mirror
        ``(a, b) -> (b, a)`` and, with ``conjugate``, ``(a, b) -> (conj a,
        conj b)`` where neither is the origin, as an (N, 2) array of one
        ``(a, b)`` per class: one extended log-kernel each."""
        m = len(z)
        orbits, fixed = rkhs._quarter_turn(z)
        turn = turn_of(z) if len(orbits) == 4 else np.arange(m)
        where = {tuple(row): j for j, row in enumerate(z.tolist())}
        if conjugate:
            conj = np.array([where[tuple(c.conjugate() for c in row)] for row in z.tolist()])
        a, b = np.divmod(np.arange(m * m), m)
        origin = np.isin(a, fixed) | np.isin(b, fixed)
        least = a * m + b
        for _ in range(4):
            a, b = turn[a], turn[b]
            for x, y in ((a, b), (b, a)):
                least = np.minimum(least, x * m + y)
                if conjugate:
                    least = np.minimum(least, np.where(origin, least, conj[x] * m + conj[y]))
        return np.stack(np.divmod(np.unique(least), m), axis=1)

    @staticmethod
    def kept_classes(space, z, classes):
        """How many of the ``classes`` of ``entry_classes`` are at or above
        the graded floor (``below_floor``): one extended exponential each."""
        return int(np.sum(~below_floor(space, z[classes[:, 0]], z[classes[:, 1]])))

    @pytest.mark.parametrize("space,z,turned,conjugated", BUILDS, ids=BUILD_IDS)
    def test_one_exponential_per_class(self, space, z, turned, conjugated, exp_sizes,
                                       log_sizes):
        # one extended log per class of Gram entries, one extended
        # exponential per class at or above the graded floor
        references.normalized_gram(space, z)
        classes = self.entry_classes(z, conjugated)
        assert sum(log_sizes) == len(classes)
        assert sum(exp_sizes) == self.kept_classes(space, z, classes)
        if not conjugated:
            # the triangle build's count: on a turn-closed set the upper
            # triangles of s_0 and s_2, all of s_1 and the origin's column
            orbits, fixed = rkhs._quarter_turn(z)
            r, w = orbits.shape[1], orbits.shape[1] + len(fixed)
            assert sum(log_sizes) == (r * (r + 1) + r * r + len(fixed) * w if turned
                                      else r * (r + 1) // 2)

    def test_half_the_exponentials_at_441_nodes(self, exp_sizes, log_sizes):
        # 12480 extended logs, one per conjugate pair of the triangle
        # build's 24421 entries, and 7413 exponentials, the classes at or
        # above the graded floor
        lattice = pointset.square_lattice(1.0, radius=12.0).points
        space = rkhs.fock_kernel(1.0)
        references.normalized_gram(space, lattice)
        assert len(self.entry_classes(lattice, False)) == 110 * 111 + 110 * 110 + 111 == 24421
        classes = self.entry_classes(lattice, True)
        assert sum(log_sizes) == len(classes) == 12480
        assert sum(exp_sizes) == self.kept_classes(space, lattice, classes) == 7413
        # the lattice turned by 0.1 rad is still closed under the quarter
        # turn, but not under conjugation
        orbits, _ = rkhs._quarter_turn(lattice)
        turned = np.concatenate([[0], quarter_turns(np.exp(0.1j) * lattice[orbits[0], 0])])
        turned = turned.reshape(-1, 1)
        assert rkhs._conjugation(turned) is None
        exp_sizes.clear()
        log_sizes.clear()
        references.normalized_gram(space, turned)
        classes = self.entry_classes(turned, False)
        assert sum(log_sizes) == len(classes) == 24421
        assert sum(exp_sizes) == self.kept_classes(space, turned, classes) == 14457

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), kind=st.sampled_from(["fock", "bergman"]),
           turned=st.booleans(), origin=st.booleans())
    def test_conjugate_pairs_property(self, data, kind, turned, origin):
        # {w, conj w} for random w off the real axis, optionally turned
        # through the quarter turn and with the origin: bit for bit the
        # triangle build, but for the exact zeros below the graded floor
        scale = 0.7 if kind == "bergman" else 6.0
        re, im = st.floats(-scale, scale), st.floats(scale / 100, scale)
        w = np.array(data.draw(st.lists(st.tuples(re, im), min_size=1, max_size=6, unique=True)))
        z = conjugate_pairs(w[:, 0] + 1j * w[:, 1])
        if turned:
            z = quarter_turns(z)
        if origin:
            z = np.concatenate([[0], z])
        space = (rkhs.fock_kernel(data.draw(st.floats(0.1, 3.0))) if kind == "fock"
                 else rkhs.bergman_kernel(data.draw(st.floats(-1.5, 6.0))))
        assert_floored_triangle_build(space, z.reshape(-1, 1))

    def test_one_quarter_turn_per_node_set(self, monkeypatch):
        sets = []
        real = rkhs._quarter_turn

        def recording(points):
            sets.append(len(points))
            return real(points)

        monkeypatch.setattr(rkhs, "_quarter_turn", recording)
        lat = pointset.square_lattice(2.0, radius=6.0)  # 29 points
        rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), lat.with_values(np.ones(len(lat))))
        assert sets == [29]
        sets.clear()
        # one per spacing, on the largest lattice: the smaller radius takes
        # the same orbits
        rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [3.0, 2.0], 4.0, extra_radii=[6.0])
        assert sets == [len(pointset.square_lattice(s, radius=6.0)) for s in (3.0, 2.0)]


class TestBlockSolve:
    """The refined solve through the Cholesky factors of the Riesz forms
    against the full-LU solve on the same extended Gram, inlined as the
    reference."""

    # the node sets of TestQuarterTurnBlocks; their Fock lattices at alpha 1
    # and the disk lattice at A = 2 are singular, so they take kernel
    # parameters that pass the conditioning guard; and the 317-node lattice
    # of the benchmark's interpolate job
    SETS = [
        (rkhs.fock_kernel(2.5), TestQuarterTurnBlocks.CLOSED[0][1]),
        (rkhs.fock_kernel(2.5), TestQuarterTurnBlocks.CLOSED[1][1]),
        (rkhs.bergman_kernel(200.0), TestQuarterTurnBlocks.CLOSED[2][1]),
        TestQuarterTurnBlocks.CLOSED[3],
        (rkhs.fock_kernel(1.0), pointset.square_lattice(2.0, radius=20.0).points),
    ]
    IDS = TestQuarterTurnBlocks.IDS + ["fock_317"]
    #: both refinements stop at the long-double floor, about cond * eps_ld
    #: relative; over value seeds 0 to 19 on these sets and the same sets
    #: less one node, the form and full-LU solutions differ by up to 1.6
    #: cond eps_ld and permuted nodes by up to 1.4.  The weighted residuals
    #: sit at their own floor, which grows with cond too: their maxima
    #: differ by up to 0.31 cond eps_ld max|b| (5.9 eps_ld max|b| on the n =
    #: 2 set, cond 41, at seeds 5 and 7)
    FLOOR = 4.0
    EPS_LD = float(np.finfo(np.longdouble).eps)
    #: value seeds of the full-LU comparison
    SEEDS = range(8)

    @staticmethod
    def full_lu(space, pts):
        """``(y, weighted residuals)`` from one LU of the whole Gram."""
        quarter = rkhs._quarter_turn(pts.points)
        table, table_ld, half = space._normalized_grams(pts.points, quarter,
                                                        rkhs._conjugation(pts.points))
        g, gram_ld = references.unfold(table, quarter), references.unfold(table_ld, quarter)
        b = pts.values.astype(np.clongdouble) * np.exp(-half)
        lu = scipy.linalg.lu_factor(g)
        y = scipy.linalg.lu_solve(lu, b.astype(complex)).astype(np.clongdouble)
        for _ in range(3):
            residual = b - gram_ld @ y
            y = y + scipy.linalg.lu_solve(lu, residual.astype(complex)).astype(np.clongdouble)
        return y, np.abs(gram_ld @ y - b).astype(float)

    def assert_close(self, itp, y, coeff, bound):
        """``itp``'s refined y and coefficients against ``y`` and ``coeff``,
        the coefficients each at its own scale ``|e^{-half}|``."""
        scale = float(np.max(np.abs(y)))
        assert np.max(np.abs(itp._y - y)) <= bound * scale
        node_scale = np.abs(np.exp(-itp._half)).astype(float)
        eps = np.finfo(float).eps
        assert np.all(np.abs(itp.coefficients - coeff)
                      <= bound * scale * node_scale + eps * np.abs(coeff))

    @staticmethod
    def values(z, seed=None):
        rng = np.random.default_rng(len(z) if seed is None else seed)
        return rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))

    @pytest.mark.parametrize("space,z", SETS, ids=IDS)
    def test_equals_the_full_lu(self, space, z):
        for seed in self.SEEDS:
            pts = pointset.PointSet(z, self.values(z, seed))
            itp = rkhs.min_norm_interpolant(space, pts)
            y, weighted = self.full_lu(space, pts)
            bound = self.FLOOR * itp.diagnostic.condition * self.EPS_LD
            self.assert_close(itp, y, (y * np.exp(-itp._half)).astype(complex), bound)
            b_max = float(np.max(np.abs(pts.values * np.exp(-itp._half))))
            assert np.max(itp.weighted_residuals) <= np.max(weighted) + bound * b_max

    @pytest.mark.parametrize("space,z", SETS, ids=IDS)
    def test_permuted_nodes(self, space, z):
        # a new node order picks other orbit representatives and moves the
        # origin, and gives the permuted solution
        a = self.values(z)
        perm = np.random.default_rng(7).permutation(len(z))
        orbits, fixed = rkhs._quarter_turn(z)
        orbits_p, fixed_p = rkhs._quarter_turn(z[perm])
        assert not np.array_equal(np.sort(perm[orbits_p[0]]), orbits[0])
        assert np.array_equal(perm[fixed_p], fixed)
        assert len(fixed) == 0 or fixed_p[0] != fixed[0]
        itp = rkhs.min_norm_interpolant(space, pointset.PointSet(z, a))
        itp_p = rkhs.min_norm_interpolant(space, pointset.PointSet(z[perm], a[perm]))
        bound = self.FLOOR * itp.diagnostic.condition * self.EPS_LD
        self.assert_close(itp_p, itp._y[perm], itp.coefficients[perm], bound)

    #: the table mat-vec against the unfolded Gram's, in units of eps_ld m
    #: max|y|; on these sets and random y the gap is below 0.09 of that
    MATVEC = 2.0

    @staticmethod
    def matvecs(space, z):
        """``(table mat-vec, np.dot of the unfolded Gram)`` of the extended
        Gram on ``z`` with a random clongdouble ``y``, and ``y``."""
        quarter = rkhs._quarter_turn(z)
        table_ld = space._normalized_grams(z, quarter, rkhs._conjugation(z))[1]
        rng = np.random.default_rng(len(z))
        y = (rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))).astype(np.clongdouble)
        want = np.dot(references.unfold(table_ld, quarter), y)
        return rkhs._table_matvec(table_ld, quarter)(y), want, y

    @pytest.mark.parametrize("space,z", SETS, ids=IDS)
    def test_table_matvec_is_the_unfolded_product(self, space, z):
        got, want, y = self.matvecs(space, z)
        assert got.dtype == np.clongdouble and got.shape == (len(z),)
        bound = self.MATVEC * self.EPS_LD * len(z) * float(np.max(np.abs(y)))
        assert float(np.max(np.abs(got - want))) <= bound

    @pytest.mark.parametrize("space,z", SETS, ids=IDS)
    def test_table_matvec_bit_identical_on_open_sets(self, space, z):
        z = z[1:]
        assert one_row_orbits(z)
        got, want, _ = self.matvecs(space, z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    def test_no_m_by_m_array(self):
        # the 441-node lattice, whose m x m extended Gram alone is 6.2 MB:
        # the refinement reads the (111, 4, 111) orbit table
        lat = pointset.square_lattice(2.0, radius=24.0)
        m = len(lat)
        assert m == 441
        pts = pointset.PointSet(lat.points, self.values(lat.points))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rkhs.min_norm_interpolant(rkhs.fock_kernel(1.0), pts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < m * m * np.dtype(np.clongdouble).itemsize

    @pytest.mark.parametrize("space,z", SETS, ids=IDS)
    def test_open_set_is_the_full_lu(self, space, z):
        # one orbit point removed: one form in the node basis, the Gram
        # (complex Cholesky) or its real form, within the floor of the
        # closed sets; the two solves no longer share one LU
        assert one_row_orbits(z[1:])
        self.test_equals_the_full_lu(space, z[1:])


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

    @pytest.mark.parametrize("spacings,radius,extra,message", [
        ([], 4.0, (), "at least one spacing, got []"),
        ([2.0], -1.0, (), "got -1.0"),
        ([2.0], 4.0, [6.0, -0.5], "got -0.5"),
        # checked before any lattice is built: a mask alone would reach
        # math.floor(nan) and raise a ValueError
        ([4.0, 3.0], 6.0, [math.nan], "lattice radius must be finite, got nan"),
        ([4.0, 3.0], math.inf, [], "lattice radius must be finite, got inf"),
    ], ids=["no_spacing", "negative_radius", "negative_extra_radius", "nan_extra_radius",
            "infinite_radius"])
    def test_sweep_that_checks_nothing_refused(self, spacings, radius, extra, message):
        with pytest.raises(DomainError) as exc:
            rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), spacings, radius, extra_radii=extra)
        assert message in str(exc.value)

    def test_radius_zero_is_the_origin(self):
        res = rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [2.0], 0.0, extra_radii=[4.0, 0.0])
        rows = [(r.radius, r.n_points, r.eig_min, r.eig_max) for r in res.rows]
        assert rows[0] == rows[2] == (0.0, 1, 1.0, 1.0) and rows[1][:2] == (4.0, 13)

    def test_csv_schema(self):
        res = rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [3.0], radius=4.0)
        text = res.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "s,eig_min,eig_max,R,n_points"
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 5

    @staticmethod
    def per_radius(space, s, radii):
        """Eigenvalues from a Gram built anew on each radius's lattice."""
        out = []
        for r in radii:
            lat = pointset.square_lattice(s, radius=r)
            d = references.riesz_bounds(space, lat)
            out.append((d.eig_min, d.eig_max, len(lat)))
        return out

    @pytest.mark.parametrize("space,spacings,radius,extra", [
        (rkhs.fock_kernel(1.0), [3.0, 2.0], 6.0, [3.5]),        # extra radius below the primary
        (rkhs.fock_kernel(0.6), [1.6, 2.0], 8.0, [4.8, 6.4]),   # r / s an integer: 8 / 1.6, 4.8 / 1.6
        # r / s rounds below an integer, so square_lattice drops the ring at
        # |z| = r that a re-derived |z| <= r mask would keep
        (rkhs.fock_kernel(1.0), [0.7, 1.3], 0.7 * 6, [0.7 * 3, 1.3 * 7]),
        (rkhs.fock_kernel(1.0), [1.5], 4.5, [7.5, 3.0, 4.5]),   # repeated and larger extra radii
        (rkhs.bergman_kernel(2.0), [0.3, 0.2], 0.9, [0.4, 0.6]),
    ])
    def test_rows_bit_identical_to_per_radius_grams(self, space, spacings, radius, extra):
        res = rkhs.feasibility_sweep(space, spacings, radius, extra_radii=extra)
        radii = [radius] + extra
        want = [(s, r, *e) for s in sorted(spacings, reverse=True)
                for r, e in zip(radii, self.per_radius(space, s, radii))]
        got = [(r.spacing, r.radius, r.eig_min, r.eig_max, r.n_points) for r in res.rows]
        assert got == want

    def test_one_gram_per_spacing(self, monkeypatch):
        # one orbit table per spacing, on the lattice at the largest radius:
        # one row per orbit representative and one for the origin
        shapes = []
        real = rkhs.KernelSpace._orbit_gram

        def counting(self, points, *rest):
            out = real(self, points, *rest)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(rkhs.KernelSpace, "_orbit_gram", counting)
        rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [3.0, 2.0], 4.0, extra_radii=[6.0, 2.0])
        sizes = [len(pointset.square_lattice(s, radius=6.0)) for s in (3.0, 2.0)]
        assert shapes == [((m - 1) // 4 + 1, 4, (m - 1) // 4 + 1) for m in sizes]

    def test_one_lattice_per_spacing(self, monkeypatch):
        # each smaller radius is a mask over the largest lattice's rows, not a
        # lattice of its own
        calls = []
        real = pointset.square_lattice

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(pointset, "square_lattice", counting)
        rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [3.0, 2.0], 4.0, extra_radii=[6.0, 2.0])
        assert calls == [((3.0,), {"radius": 6.0}), ((2.0,), {"radius": 6.0})]

    def test_no_m_by_m_array(self):
        # the 441-node lattice, whose m x m extended Gram alone is 6.2 MB: the
        # blocks come from the (111, 4, 111) orbit table
        m = len(pointset.square_lattice(1.0, radius=12.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [1.0], 12.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < m * m * np.dtype(complex).itemsize

    def test_largest_lattice_over_size_guard_refused(self):
        # the primary lattice fits; the extra radius's has 2121 > SIZE_GUARD points
        assert len(pointset.square_lattice(1.0, radius=26.0)) > rkhs.SIZE_GUARD
        with pytest.raises(SizeGuardError):
            rkhs.feasibility_sweep(rkhs.fock_kernel(1.0), [1.0], 4.0, extra_radii=[26.0])
