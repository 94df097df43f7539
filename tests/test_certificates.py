import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holo_interp as hi
from holo_interp import pointset, reporting, weights
from holo_interp.errors import DomainError, NumericalGuardError, SpaceMismatchError

EMPTY = pointset.PointSet(np.zeros((0, 1), complex))


def small_grid(extent=3.0, m=13):
    return pointset.grid_points(-extent, extent, m, -extent, extent, m)


class TestBos:
    def test_empty_set_margin_one_everywhere(self, fock1):
        rep = hi.bos_certificate(fock1, EMPTY, rho=1.0, eps=3.0, grid=small_grid())
        assert rep.passed
        assert np.all(rep.per_sample == 1.0)
        assert rep.worst_margin == 1.0

    def test_dense_lattice_fails(self, fock1, flat1):
        lat = pointset.square_lattice(0.1, half_extent=2.0)
        grid = [0.0 + 0j, 0.05 + 0.05j]
        rep = hi.bos_certificate(fock1, lat, rho=1.0, eps=0.5, grid=grid)
        assert not rep.passed
        # enumeration oracle: the requirement dwarfs Delta Phi = 4
        counts = [sum(1 for p in lat.points if abs(p[0] - z) < 1.0) for z in grid]
        assert min(counts) / 1.0 ** 2 > 100

    def test_sparse_lattice_passes(self, fock1, flat1):
        lat = pointset.square_lattice(5.0, half_extent=10.0)
        grid = small_grid()
        rep = hi.bos_certificate(fock1, lat, rho=2.0, eps=3.0, grid=grid)
        assert rep.passed
        # worst grid point sits on a node: count 1, requirement 3.25, margin 0.75
        counts = [sum(1 for p in lat.points if abs(p[0] - z) < 2.0) for z in grid]
        assert max(counts) == 1
        assert rep.worst_margin == pytest.approx(0.75, abs=0)

    def test_wrong_space_rejected(self):
        # the criterion lives on flat C^1: a weight on C^2 is refused
        with pytest.raises(SpaceMismatchError, match="flat C\\^1"):
            hi.bos_certificate(hi.fock_weight(1.0, n=2), EMPTY, 1.0, 1.0, [np.zeros(2)])

    def test_parameter_domain(self, fock1):
        with pytest.raises(DomainError):
            hi.bos_certificate(fock1, EMPTY, -1.0, 1.0, [0.0])
        with pytest.raises(DomainError):
            hi.bos_certificate(fock1, EMPTY, 1.0, 1.0, [])


class TestTheorem1:
    def test_empty_set_reduces_to_epsilon_clause(self, fock1, flat1):
        rep = hi.theorem1_certificate(fock1, flat1, EMPTY, rho=1.0, eps=2.0, grid=small_grid())
        assert rep.passed  # eps <= 2 alpha holds with equality
        rep2 = hi.theorem1_certificate(fock1, flat1, EMPTY, rho=1.0, eps=2.1, grid=small_grid())
        assert not rep2.passed

    def test_sparse_lattice_margin(self, fock1, flat1):
        lat = pointset.square_lattice(5.0, half_extent=10.0)
        rep = hi.theorem1_certificate(fock1, flat1, lat, rho=2.0, eps=1.0, grid=small_grid())
        assert rep.passed
        # count 1 at nodes: requirement 1 * (1/4) * 2 + 1 = 1.5 against 2
        assert rep.worst_margin == pytest.approx(0.5, abs=0)

    def test_curvature_lower_bound_degrades_requirement(self):
        # same counting data under k = 1: the factor evaluation gives a
        # tighter requirement which still passes, with smaller margin
        count_term = 1.0 / 4.0
        req_k0 = count_term * hi.hessian_comparison_factor(0.0, 2.0) + 1.0
        req_k1 = count_term * hi.hessian_comparison_factor(1.0, 2.0) + 1.0
        assert req_k0 == pytest.approx(1.5, abs=0)
        assert req_k1 == pytest.approx(1.7686573603637741, abs=1e-12)
        assert 2.0 - req_k1 > 0
        assert 2.0 - req_k1 < 2.0 - req_k0
        # monotone degradation in k
        reqs = [count_term * hi.hessian_comparison_factor(k, 2.0) + 1.0
                for k in np.linspace(0.0, 3.0, 20)]
        assert all(b > a for a, b in zip(reqs, reqs[1:]))

    def test_separation_warning_on_near_coincident(self, fock1, flat1):
        # distinct nodes are at a positive distance however close: no
        # separation warning is left to give
        pts = pointset.PointSet(np.array([[0j], [1e-300 + 0j]]))
        assert hi.separation(flat1, pts).min_pairwise_distance == 1e-300
        rep = hi.theorem1_certificate(fock1, flat1, pts, rho=1.0, eps=0.1, grid=[5.0 + 5.0j])
        assert rep.warnings == []


class TestTheorem2:
    def test_empty_set_passes_with_zero_density(self, disk):
        w = hi.bergman_weight(4.0)  # curvature eigen (4-2)/2 = 1
        rep = hi.theorem2_certificate(w, disk, EMPTY, eps=0.5,
                                      grid=[0.0 + 0j, 0.3 + 0.3j])
        assert rep.passed
        assert rep.extras["density_grid_sup"] == 0.0

    def test_low_curvature_fails_epsilon_clause(self, disk):
        w = hi.bergman_weight(1.5)  # curvature eigen (1.5-2)/2 < 0
        rep = hi.theorem2_certificate(w, disk, EMPTY, eps=0.25, grid=[0.0 + 0j])
        assert not rep.passed
        assert rep.worst_margin == pytest.approx((1.5 - 2.0) / 2.0 - 0.25, abs=1e-12)

    def test_density_threshold_clause(self, disk):
        w = hi.bergman_weight(4.0)
        pts = pointset.PointSet(np.array([[0.5 + 0j]]))
        rep = hi.theorem2_certificate(w, disk, pts, eps=0.5, grid=[0.0 + 0j],
                                      density_threshold=0.1)
        assert not rep.passed  # density log 4 > 0.1
        rep2 = hi.theorem2_certificate(w, disk, pts, eps=0.5, grid=[0.0 + 0j],
                                       density_threshold=10.0)
        assert rep2.passed
        assert any("user-set" in w_ for w_ in rep2.warnings)

    def test_flat_rejected(self, flat1):
        with pytest.raises(SpaceMismatchError):
            hi.theorem2_certificate(hi.fock_weight(1.0), flat1, EMPTY, 0.5, [0.0])

    def test_kappa_halving_term_behavior(self):
        # with coordinates fixed, halving kappa lengthens every geodesic
        # distance, so the cutoff set can only grow, while each individual
        # far-node term decreases (the tanh argument grows toward 1)
        big = hi.hyperbolic_ball(1.0)
        small = hi.hyperbolic_ball(0.5)
        nodes = [0.35 + 0j, 0.2 + 0.3j, -0.1 - 0.4j]
        x = 0.02 + 0.01j
        for p in nodes:
            d_big = hi.distance(big, x, p)
            d_small = hi.distance(small, x, p)
            assert d_small > d_big
            term_big = -math.log(math.tanh(d_big / 2.0) ** 2)
            term_small = -math.log(math.tanh(d_small / 1.0) ** 2)
            assert term_small < term_big
        cut_big = {i for i, p in enumerate(nodes) if hi.distance(big, x, p) >= 1.0}
        cut_small = {i for i, p in enumerate(nodes) if hi.distance(small, x, p) >= 1.0}
        assert cut_big <= cut_small


class TestCrossCriterionConsistency:
    def test_bos_matches_theorem1_on_count_free_configurations(self, fock1, flat1):
        # where no node falls in any sample ball the two criteria agree
        # exactly under eps_bos = 2 eps_t1, with margins in ratio 2
        lat = pointset.square_lattice(5.0, half_extent=10.0)
        grid = [2.5 + 2.5j, 2.4 + 2.3j]  # cell centers, no node within rho = 1
        for eps_t1 in (0.3, 1.0, 1.9):
            rep_t1 = hi.theorem1_certificate(fock1, flat1, lat, 1.0, eps_t1, grid)
            rep_bos = hi.bos_certificate(fock1, lat, 1.0, 2.0 * eps_t1, grid)
            assert rep_bos.passed == rep_t1.passed
            np.testing.assert_allclose(rep_bos.per_sample, 2.0 * rep_t1.per_sample,
                                       rtol=0, atol=1e-14)

    def test_enlarging_set_never_flips_fail_to_pass(self, fock1, flat1):
        grid = small_grid(2.0, 9)
        small = pointset.square_lattice(3.0, half_extent=6.0)
        big = pointset.square_lattice(1.5, half_extent=6.0)  # superset of small
        for eps in (0.2, 0.8, 1.6):
            rep_small = hi.theorem1_certificate(fock1, flat1, small, 2.0, eps, grid)
            rep_big = hi.theorem1_certificate(fock1, flat1, big, 2.0, eps, grid)
            assert rep_big.worst_margin <= rep_small.worst_margin
            if not rep_small.passed:
                assert not rep_big.passed

    def test_raising_eps_never_flips_fail_to_pass(self, fock1, flat1):
        lat = pointset.square_lattice(3.0, half_extent=6.0)
        grid = small_grid(2.0, 9)
        margins = []
        for eps in (0.1, 0.5, 1.0, 1.5, 2.0):
            rep = hi.theorem1_certificate(fock1, flat1, lat, 2.0, eps, grid)
            margins.append(rep.worst_margin)
        assert all(b < a for a, b in zip(margins, margins[1:]))


class TestReportShape:
    def test_passed_iff_worst_margin_nonneg(self, fock1, flat1):
        lat = pointset.square_lattice(5.0, half_extent=10.0)
        for eps in (0.5, 1.4, 1.6):
            rep = hi.theorem1_certificate(fock1, flat1, lat, 2.0, eps, small_grid())
            assert rep.passed == (rep.worst_margin >= 0.0)
            assert len(rep.per_sample) > 0

    def test_serialization(self, fock1):
        rep = hi.bos_certificate(fock1, EMPTY, 1.0, 3.0, [0.0 + 0j, 1.0 + 1.0j])
        d = rep.to_dict()
        assert d["schema_version"] == 1
        assert "conventions" in d and "delta_phi_factor" in d["conventions"]
        header, columns = rep.csv_columns()
        assert header == ["index", "re", "im", "required", "available", "margin"]
        assert [len(c) for c in columns] == [2] * 6
        assert list(columns[0]) == [0, 1]
        assert d["n_samples"] == len(rep.per_sample) == 2

    @pytest.mark.parametrize("criterion", ["bos", "theorem1", "theorem2"])
    def test_csv_margin_is_available_minus_required(self, criterion):
        # read back from the CSV text: 17 digits round-trip every double, so
        # the margin column must be the difference of the two columns bit for bit
        lat = pointset.square_lattice(0.7, half_extent=2.0)
        if criterion == "bos":
            rep = hi.bos_certificate(hi.fock_weight(1.0), lat, 1.3, 0.3, small_grid(2.0, 7))
        elif criterion == "theorem1":
            rep = hi.theorem1_certificate(hi.fock_weight(0.7), hi.flat_space(1), lat, 1.3, 0.3,
                                          small_grid(2.0, 7))
        else:
            disk = hi.hyperbolic_ball(1.0)
            nodes = pointset.PointSet(np.array([[0.5 + 0j], [-0.3 + 0.4j]]))
            rep = hi.theorem2_certificate(hi.bergman_weight(4.3), disk, nodes, 0.3,
                                          small_grid(0.6, 7), density_threshold=5.0)
        header, columns = rep.csv_columns()
        table = np.loadtxt(reporting.dump_csv(header, columns).splitlines(), delimiter=",",
                           skiprows=1, ndmin=2)
        required, available, margin = table[:, 3], table[:, 4], table[:, 5]
        assert (available - required).tobytes() == margin.tobytes()
        assert margin.tobytes() == rep.per_sample.tobytes()
        assert np.any(margin != np.round(margin))  # the check sees non-integer margins

    def test_worst_margin_is_min_of_samples_and_threshold(self, disk):
        w = hi.bergman_weight(4.0)
        nodes = pointset.PointSet(np.array([[0.5 + 0j], [-0.5 + 0j]]))
        grid = [0.0 + 0j, 0.25 + 0j, 0.1 + 0.2j]
        for threshold in (0.1, 2.0, 3.5, 50.0, math.inf):
            rep = hi.theorem2_certificate(w, disk, nodes, 0.5, grid, density_threshold=threshold)
            threshold_margin = threshold - rep.extras["density_grid_sup"]
            assert rep.worst_margin == min(np.min(rep.per_sample), threshold_margin)
            assert rep.passed == (rep.worst_margin >= 0.0)
        rep = hi.bos_certificate(hi.fock_weight(1.0), nodes, 0.3, 0.5, grid)
        assert rep.worst_margin == np.min(rep.per_sample)


class TestNonFiniteInputs:
    def test_bos_infinite_rho_rejected(self, fock1):
        lat = pointset.square_lattice(2.0, half_extent=4.0)
        with pytest.raises(DomainError):
            hi.bos_certificate(fock1, lat, rho=math.inf, eps=1.0, grid=[0.0, 1 + 1j])

    def test_theorem1_infinite_rho_rejected(self, fock1, flat1):
        lat = pointset.square_lattice(2.0, half_extent=4.0)
        with pytest.raises(DomainError):
            hi.theorem1_certificate(fock1, flat1, lat, rho=math.inf, eps=1.0, grid=[0.0])

    @pytest.mark.parametrize("threshold", [-math.inf, math.nan])
    def test_theorem2_threshold_no_density_meets_refused(self, disk, threshold):
        # -inf once dropped out as "no threshold" and let the clause pass
        nodes = pointset.PointSet(np.array([[0.5 + 0j], [-0.5 + 0j]]))
        with pytest.raises(DomainError, match="density threshold"):
            hi.theorem2_certificate(hi.bergman_weight(4.0), disk, nodes, eps=0.5,
                                    grid=[0.0 + 0j], density_threshold=threshold)

    def test_theorem2_nan_sample_rejected(self, disk):
        with pytest.raises(DomainError):
            hi.theorem2_certificate(hi.bergman_weight(4.0), disk, EMPTY, eps=0.5,
                                    grid=[0.0 + 0j, complex(math.nan, 0.0)])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_curvature_refused(self, flat1):
        # |d sigma|^2 = 1e400 overflows: an infinite margin must not pass
        w = weights.HermitianWeight((weights.Polynomial.from_coeffs([0.0, 1e200]),), None,
                                    m2=0.0, r0=1.0, mu=1.0, n=1)
        with pytest.raises(NumericalGuardError):
            hi.theorem1_certificate(w, flat1, EMPTY, rho=1.0, eps=1.0, grid=[0.0])
        with pytest.raises(NumericalGuardError):
            hi.bos_certificate(w, EMPTY, rho=1.0, eps=1.0, grid=[0.0])

    def test_weight_space_dimension_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            hi.theorem1_certificate(hi.fock_weight(1.0), hi.flat_space(2), EMPTY,
                                    rho=2.0, eps=1.0, grid=[np.zeros(2)])
        with pytest.raises(SpaceMismatchError):
            hi.bos_certificate(hi.fock_weight(1.0, n=2), EMPTY, 1.0, 1.0, [0.0])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(criterion=st.sampled_from(["bos", "theorem1_flat", "theorem1_disk", "theorem2"]),
           slot=st.sampled_from(["grid", "rho", "eps"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           rho=st.floats(0.1, 3.0), eps=st.floats(0.01, 2.0),
           x=st.floats(-0.6, 0.6), y=st.floats(-0.6, 0.6))
    def test_no_pass_on_non_finite_input(self, criterion, slot, bad, rho, eps, x, y):
        assume(not (criterion == "theorem2" and slot == "rho"))  # theorem2 takes no rho
        grid = [0.0 + 0j, complex(x, y)]
        if slot == "grid":
            grid.insert(1, complex(bad, y) if math.isnan(bad) else complex(x, bad))
        elif slot == "rho":
            rho = bad
        else:
            eps = bad
        flat, disk = hi.flat_space(1), hi.hyperbolic_ball(1.0)
        sparse = pointset.PointSet(np.array([[0.5 + 0j], [-0.5 + 0.25j]]))
        try:
            if criterion == "bos":
                rep = hi.bos_certificate(hi.fock_weight(1.0), sparse, rho, eps, grid)
            elif criterion == "theorem1_flat":
                rep = hi.theorem1_certificate(hi.fock_weight(1.0), flat, sparse, rho, eps, grid)
            elif criterion == "theorem1_disk":
                rep = hi.theorem1_certificate(hi.bergman_weight(40.0), disk, sparse, rho, eps, grid)
            else:
                rep = hi.theorem2_certificate(hi.bergman_weight(40.0), disk, sparse, eps, grid)
        except (DomainError, NumericalGuardError):
            return
        assert not rep.passed
