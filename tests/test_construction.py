import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

import holo_interp as hi
from holo_interp import construction, geometry, pointset, weights
from holo_interp.errors import DomainError, QuadratureError, SpaceMismatchError

import references

MINUS_INV_E = -0.36787944117144233
LOG_QUARTER = -1.3862943611198906


def bump(u):
    return math.exp(-1.0 / u) if u > 0 else 0.0


def lattice_with_values(spacing=1.5, half_extent=3.0, seed=5):
    lat = pointset.square_lattice(spacing, half_extent=half_extent)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=len(lat)) + 1j * rng.normal(size=len(lat))
    return lat.with_values(vals)


def brute_value_grid(aux, zs):
    """Auxiliary weight summed over every node: the loop ``value_grid`` ran
    before it culled nodes, kept as the reference."""
    out = np.zeros(zs.shape[0])
    for q in aux.points.points:
        d = geometry.distances_from(aux.space, zs, q)
        pole = d == 0.0
        u = d ** 2 / aux.rho ** 2
        inside = (~pole) & (u < 1.0)
        term = np.zeros_like(out)
        term[inside] = aux.n * (1.0 - u[inside] + np.log(u[inside]))
        out += term
        out[pole] = -math.inf
    return out


def reference_node_energy(ext, aux, i, nr, ntheta):
    """Energy of node ``i``'s gluing annulus as one call chain per node, with
    public calls: the per-node loop the batched quadrature replaced, kept as
    the reference."""
    sp, p, d0 = ext.space, ext.points.points[i], ext.delta0
    dd, dth = (d0 / 2.0) / nr, 2.0 * math.pi / ntheta
    ds = d0 / 2.0 + (np.arange(nr) + 0.5) * dd
    zs = geometry.geodesic_point(sp, p, ds[:, None],
                                 ((np.arange(ntheta) + 0.5) * dth)[None, :]).reshape(-1)
    jac = np.repeat(geometry.polar_area_jacobian(sp, ds), ntheta)
    zcol = zs[:, None]
    d = geometry.geodesic_distances(sp, zcol, p)
    pc = complex(p[0])
    if sp.is_flat:
        dbar_dsq = zs - pc
    else:
        kap2 = sp.kappa ** 2
        phase = (zs - pc) * (kap2 - pc.conjugate() * zs)
        dbar_dsq = 2.0 * kap2 * d * (phase / np.abs(phase)) / (kap2 - np.abs(zs) ** 2)
    dbar = construction.cutoff_derivative(d ** 2 / d0 ** 2) * dbar_dsq / d0 ** 2
    expo = weights.normal_frame_exponent(ext.weight, p, zcol)
    integrand = (np.exp(2.0 * expo.real - ext.weight.value(zcol) - aux.value_grid(zcol))
                 * np.abs(dbar) ** 2 / geometry.metric_coefficient(sp, zcol) * jac)
    return abs(ext.values()[i]) ** 2 * float(np.sum(integrand) * dd * dth)


def poly_weight():
    """sigma = z + 0.05 z^3 with Phi_def = (x^2 + y^2)/2 + 0.01 x^3 y."""
    return weights.HermitianWeight(
        (weights.Polynomial.from_coeffs([0.0, 1.0, 0.0, 0.05]),),
        weights.RealPolynomial({(2, 0): 0.5, (0, 2): 0.5, (3, 1): 0.01}, 1),
        m2=1.0, r0=1.0, mu=1.0)


def energy_setups():
    """(extension, auxiliary weight) on a flat Fock lattice, the Bergman disk
    and a polynomial weight; rho reaches several neighbours in each."""
    flat, disk = hi.flat_space(1), hi.hyperbolic_ball(1.0)
    lat = lattice_with_values()
    out = []
    for sp, w, pts, rho in ((flat, hi.fock_weight(0.7), lat, 2.0),
                            (disk, hi.bergman_weight(3.0), disk_nodes(), 0.9),
                            (flat, poly_weight(), lattice_with_values(1.2, 2.4, seed=8), 1.5)):
        out.append((hi.glued_extension(sp, w, pts), construction.AuxiliaryWeight(sp, pts, rho)))
    return out


def disk_nodes():
    return pointset.PointSet(np.array([[0j], [0.5 + 0j], [-0.3 + 0.4j], [0.2 - 0.6j], [-0.75j]]),
                             np.array([1.0 + 0j, 2j, -1.0 + 1.0j, 0.5 + 0j, -0.7j]))


class TestCutoff:
    def test_plateau_and_tail(self):
        assert hi.cutoff(0.1) == 1.0
        assert hi.cutoff(0.25) == 1.0
        assert hi.cutoff(1.0) == 0.0
        assert hi.cutoff(2.0) == 0.0

    def test_interior_formula(self):
        for t in (0.4, 5.0 / 8.0, 0.8):
            a = bump((1.0 - t) / 0.75)
            b = bump((t - 0.25) / 0.75)
            assert hi.cutoff(t) == pytest.approx(a / (a + b), rel=1e-15)
        assert hi.cutoff(5.0 / 8.0) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_and_bounded(self):
        ts = np.linspace(0.0, 1.5, 400)
        vals = hi.cutoff(ts)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            hi.cutoff(-0.1)
        with pytest.raises(DomainError):
            construction.cutoff_derivative(-0.1)

    def test_derivative_closed_form_values(self):
        # at t = 5/8 both bump arguments are 1/2: chi' = -(4/3)(1/4)(4 + 4)
        assert construction.cutoff_derivative(5.0 / 8.0) == pytest.approx(-8.0 / 3.0, rel=1e-15)
        for t in (0.0, 0.1, 0.25, 1.0, 1.5):
            assert construction.cutoff_derivative(t) == 0.0
        with np.errstate(invalid="ignore"):
            assert math.isnan(hi.cutoff(math.nan))
            assert math.isnan(construction.cutoff_derivative(math.nan))

    def test_derivative_matches_central_difference(self):
        h = 1e-6
        ts = np.linspace(h, 1.2, 1201)
        fd = (hi.cutoff(ts + h) - hi.cutoff(ts - h)) / (2.0 * h)
        closed = construction.cutoff_derivative(ts)
        assert np.all(np.abs(closed - fd) <= 1e-6 * np.abs(fd) + 1e-8)


class TestCutoffDbar:
    # t = d^2/delta0^2 on both plateaus, at and just past both ends of the
    # transition band, and inside it
    TS = (0.1, 0.25, 0.2501, 0.26, 0.3, 0.5, 0.625, 0.8, 0.95, 0.99, 0.9999, 1.0, 1.2)

    @pytest.mark.parametrize("kind", ["flat", "disk"])
    def test_closed_form_matches_finite_difference(self, kind):
        flat = kind == "flat"
        space = hi.flat_space(1) if flat else hi.hyperbolic_ball(1.0)
        w = hi.fock_weight(1.0) if flat else hi.bergman_weight(3.0)
        p, delta0 = 0.3 + 0.2j, (0.5 if flat else 0.25)
        node = pointset.PointSet(np.array([[p]]), np.array([1.0 + 0j]))
        ext = construction.GluedExtension(space, w, node, delta0)
        ts = np.array(self.TS)
        zs = geometry.geodesic_point(space, p, delta0 * np.sqrt(ts)[:, None],
                                     np.array([0.3, 1.9, 4.0])[None, :]).reshape(-1)
        closed = construction._cutoff_dbar_grid(ext, node.points[0], zs)

        def chi(t):
            return hi.cutoff(hi.distance(space, p, t) ** 2 / delta0 ** 2)

        for z, c in zip(zs, closed):
            zp = np.array([z])
            # one Richardson level removes the h^2 error that the steep
            # cutoff puts into a plain central difference
            fd = (4.0 * references.dbar_fd(chi, zp, step=5e-6)[0]
                  - references.dbar_fd(chi, zp, step=1e-5)[0]) / 3.0
            # relative 1e-6; the 1e-9 floor covers FD noise where chi' ~ 0
            assert abs(c - fd) <= 1e-6 * abs(fd) + 1e-9
        assert np.all(np.isfinite(closed))
        off_band = np.repeat((ts <= 0.25) | (ts >= 1.0), 3)
        assert np.all(closed[off_band] == 0.0)


class TestLocalSection:
    def test_center_value(self, fock1, flat1):
        assert references.local_section(fock1, flat1, 0.0, 2.0 - 1.0j, 0.0, 0.5) == 2.0 - 1.0j

    def test_fock_at_origin_is_constant(self, fock1, flat1):
        for z in (0.1, 0.2j, -0.3 + 0.3j):
            assert references.local_section(fock1, flat1, 0.0, 1.5 + 0j, z, 0.5) == 1.5 + 0j

    def test_fock_off_origin_exponential(self, fock1, flat1):
        a = 0.7 + 0.2j
        for z in (1.2, 1.0 + 0.3j):
            expect = a * np.exp(z - 1.0)
            assert references.local_section(fock1, flat1, 1.0, a, z, 0.5) == pytest.approx(expect)

    def test_norm_inequality_sample_sweep(self, fock1, flat1, rng):
        # ||f_p(z)||_h^2 <= ||a||_h^2 for the pure-sigma weight (C = 1)
        p, a = 1.0 + 0j, 1.0 + 0j
        lhs_bound = weights.h_norm_sq(fock1, p, a)
        for _ in range(200):
            z = p + complex(*rng.uniform(-0.3, 0.3, 2))
            f = references.local_section(fock1, flat1, p, a, z, 0.5)
            assert weights.h_norm_sq(fock1, z, f) <= lhs_bound * (1 + 1e-12)

    def test_outside_ball_rejected(self, fock1, flat1):
        with pytest.raises(DomainError):
            references.local_section(fock1, flat1, 0.0, 1.0, 2.0, 0.5)


class TestGluedExtension:
    def test_guard_refuses_wide_delta0(self, fock1, flat1):
        pts = lattice_with_values(spacing=1.0)
        with pytest.raises(DomainError):
            hi.glued_extension(flat1, fock1, pts, delta0=0.6)

    def test_default_delta0(self, fock1, flat1):
        pts = lattice_with_values(spacing=1.5)
        ext = hi.glued_extension(flat1, fock1, pts)
        assert ext.delta0 == 0.5  # min(1.5, r0=1)/2

    def test_nodes_1e_200_apart_accepted(self, fock1, flat1):
        # their squared difference underflows, but their distance does not
        # (nor the cutoff's argument, (d/delta0)^2): F(p) = a(p) on the set
        pts = pointset.PointSet(np.array([[1e-200 + 0j], [2e-200 + 0j]]), np.array([1.0, 1j]))
        ext = hi.glued_extension(flat1, fock1, pts)
        assert ext.delta0 == 5e-201
        assert hi.evaluate_extension(ext, pts.points).tolist() == [1.0, 1j]
        assert hi.evaluate_extension(ext, 1.4e-200) == pytest.approx(hi.cutoff(0.64), rel=1e-12)
        dbar = construction._cutoff_dbar_grid(ext, pts.points[0], np.array([1.3e-200 + 0j]))
        assert np.isfinite(dbar).all() and dbar[0] != 0

    def test_reproduces_values_exactly(self, fock1, flat1):
        pts = lattice_with_values()
        ext = hi.glued_extension(flat1, fock1, pts)
        for i in range(len(pts)):
            assert hi.evaluate_extension(ext, pts.points[i]) == pts.values[i]

    def test_vanishes_far_from_nodes(self, fock1, flat1):
        pts = lattice_with_values()
        ext = hi.glued_extension(flat1, fock1, pts)
        assert hi.evaluate_extension(ext, 0.75 + 0.75j) == 0.0

    def test_annulus_composition(self, fock1, flat1):
        pts = lattice_with_values()
        ext = hi.glued_extension(flat1, fock1, pts)
        p = complex(pts.points[0, 0])
        z = p + 0.4 + 0.1j  # delta0/2 < d < delta0
        d = abs(z - p)
        assert ext.delta0 / 2 < d < ext.delta0
        expect = references.local_section(fock1, flat1, p, pts.values[0], z, ext.delta0) \
            * hi.cutoff(d ** 2 / ext.delta0 ** 2)
        assert hi.evaluate_extension(ext, z) == pytest.approx(expect, rel=1e-14)

    def test_dbar_vanishes_on_plateau(self, fock1, flat1):
        pts = lattice_with_values()
        ext = hi.glued_extension(flat1, fock1, pts)
        p = complex(pts.points[7, 0])
        for off in (0.1, 0.15j, -0.2 + 0.05j):
            z = np.array([p + off])
            assert abs(z[0] - p) <= 0.9 * ext.delta0 / 2
            g = references.dbar_fd(lambda t: hi.evaluate_extension(ext, complex(t[0])), z)
            f_val = hi.evaluate_extension(ext, complex(z[0]))
            assert abs(g[0]) <= 1e-8 * abs(f_val)

    def test_node_outside_ball_refused(self, disk):
        pts = pointset.PointSet(np.array([[0j], [1.5 + 0j]]), np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(DomainError):
            construction.GluedExtension(disk, hi.bergman_weight(3.0), pts, 0.1)

    def test_values_required(self, fock1, flat1):
        lat = pointset.square_lattice(2.0, half_extent=4.0)
        with pytest.raises(DomainError):
            hi.glued_extension(flat1, fock1, lat)

    def test_hyperbolic_nodes(self, fock1, disk):
        pts = pointset.PointSet(np.array([[0.0 + 0j], [0.5 + 0j]]),
                                np.array([1.0 + 0j, 2.0 + 0j]))
        w = hi.bergman_weight(3.0)
        ext = hi.glued_extension(disk, w, pts)
        assert hi.evaluate_extension(ext, 0.5 + 0j) == 2.0 + 0j


class TestBatchedExtension:
    @pytest.mark.parametrize("kind", ["flat", "disk"])
    def test_matches_per_point_calls(self, kind, rng):
        if kind == "flat":
            lat = lattice_with_values()
            pts = pointset.PointSet(lat.points + (0.123457 + 0.071234j), lat.values)
            ext = hi.glued_extension(hi.flat_space(1), hi.fock_weight(0.7), pts)
            other = rng.uniform(-4, 4, 1500) + 1j * rng.uniform(-4, 4, 1500)
        else:
            pts = disk_nodes()
            ext = hi.glued_extension(hi.hyperbolic_ball(1.0), hi.bergman_weight(3.0), pts)
            other = 0.95 * np.sqrt(rng.random(1500)) * np.exp(2j * np.pi * rng.random(1500))
        zs = np.concatenate([pts.points[:, 0], other])
        batch = hi.evaluate_extension(ext, zs[:, None])
        assert batch.shape == zs.shape
        assert batch.tolist() == [hi.evaluate_extension(ext, z) for z in zs]
        assert batch[:len(pts)].tolist() == pts.values.tolist()
        assert np.count_nonzero(batch[len(pts):]) > 50

    def test_grid_outside_ball_rejected(self, disk):
        ext = hi.glued_extension(disk, hi.bergman_weight(3.0), disk_nodes())
        with pytest.raises(DomainError):
            hi.evaluate_extension(ext, np.array([[0.1 + 0j], [0.6 + 0.8j]]))

    def test_local_section_rows(self, fock1, flat1):
        zs = np.array([[0.1 + 0j], [0.2j], [0.3 + 0.3j]])
        section = references.local_section
        rows = section(fock1, flat1, 0.4, 1.5 - 0.5j, zs, 0.5)
        assert rows.tolist() == [section(fock1, flat1, 0.4, 1.5 - 0.5j, z[0], 0.5) for z in zs]
        with pytest.raises(DomainError):
            section(fock1, flat1, 0.0, 1.0, np.array([[0.1 + 0j], [2.0 + 0j]]), 0.5)


def reference_extension(ext, zs):
    """F on the (G, n) rows ``zs`` as one call chain per node, with public
    calls: the per-node loop the node-batched evaluation replaced, kept as
    the reference."""
    out = np.zeros(zs.shape[0], dtype=complex)
    for i in range(len(ext.points)):
        p = ext.points.points[i]
        d = geometry.geodesic_distances(ext.space, zs, p)
        near = np.nonzero(d < ext.delta0)[0]
        if near.size:
            chi = hi.cutoff(d[near] ** 2 / ext.delta0 ** 2)
            out[near] += references.local_section(ext.weight, ext.space, p, ext.values()[i],
                                                  zs[near], ext.delta0) * chi
    return out


def extension_setups(rng):
    """(extension, (G, n) sample rows) on a flat Fock lattice (n = 1 and
    n = 2), the Bergman disk and a polynomial weight with a RealPolynomial
    deformation; the rows include the nodes and many points in their balls."""
    flat, disk = hi.flat_space(1), hi.hyperbolic_ball(1.0)
    lat = lattice_with_values()
    out = []
    for sp, w, pts in ((flat, hi.fock_weight(0.7), lat),
                       (disk, hi.bergman_weight(3.0), disk_nodes()),
                       (flat, poly_weight(), lattice_with_values(1.2, 2.4, seed=8))):
        ext = hi.glued_extension(sp, w, pts)
        if sp.is_flat:
            other = rng.uniform(-3.5, 3.5, 1200) + 1j * rng.uniform(-3.5, 3.5, 1200)
        else:
            other = 0.95 * np.sqrt(rng.random(1200)) * np.exp(2j * np.pi * rng.random(1200))
        out.append((ext, np.concatenate([pts.points[:, 0], other])[:, None]))
    sp2 = hi.flat_space(2)
    pts2 = pointset.PointSet(np.array([[0j, 0j], [1.5 + 0j, 0.2j], [-1 + 1j, 0.5 + 0j]]),
                             np.array([1 + 1j, -2 + 0j, 0.3j]))
    ext2 = hi.glued_extension(sp2, hi.fock_weight(1.0, n=2), pts2)
    near = pts2.points[rng.integers(0, 3, 900)] + 0.3 * (rng.normal(size=(900, 2))
                                                       + 1j * rng.normal(size=(900, 2)))
    out.append((ext2, np.concatenate([pts2.points, near])))
    return out


class TestNodeBatchedExtension:
    IDS = ["fock-flat", "bergman-disk", "poly-flat", "fock-flat-n2"]

    @pytest.mark.parametrize("setup", range(4), ids=IDS)
    def test_matches_per_node_reference(self, setup, rng):
        ext, zs = extension_setups(rng)[setup]
        got = hi.evaluate_extension(ext, zs)
        assert got.tobytes() == reference_extension(ext, zs).tobytes()
        assert got[:len(ext.points)].tolist() == ext.values().tolist()
        assert np.count_nonzero(got[len(ext.points):]) > 50

    def test_disk_nodes_near_the_rim(self, disk, rng):
        # rings of nodes at 1 - |p| = 1e-2, 1e-4, 1e-6; rows in their
        # delta0-balls, on the ball boundaries, and at random near the rim
        ring = np.exp(2j * np.pi * np.arange(8) / 8)
        nodes = np.concatenate([(1.0 - gap) * ring for gap in (1e-2, 1e-4, 1e-6)])[:, None]
        vals = rng.normal(size=len(nodes)) + 1j * rng.normal(size=len(nodes))
        ext = hi.glued_extension(disk, hi.bergman_weight(3.0), pointset.PointSet(nodes, vals))
        inner = [geometry.geodesic_point(disk, p, ext.delta0 * r, th) for p in nodes
                 for r in (0.1, 0.5, 0.9, 1.0) for th in rng.uniform(0.0, 2.0 * np.pi, 4)]
        rim = (1.0 - 10.0 ** -rng.uniform(1.0, 7.0, 300)) * np.exp(2j * np.pi * rng.random(300))
        zs = np.concatenate([nodes[:, 0], inner, rim])[:, None]
        got = hi.evaluate_extension(ext, zs)
        assert got.tobytes() == reference_extension(ext, zs).tobytes()
        assert got[:len(nodes)].tolist() == vals.tolist()
        assert np.count_nonzero(got[len(nodes):]) > 50

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_block_boundaries(self, rows, rng):
        # the points taken 1, 3 or 7 rows per call give the values of one call
        # bit for bit: no row's value depends on the other rows of its batch
        for ext, zs in extension_setups(rng):
            whole = hi.evaluate_extension(ext, zs)
            blocks = np.concatenate([hi.evaluate_extension(ext, zs[lo:lo + rows])
                                     for lo in range(0, zs.shape[0], rows)])
            assert blocks.tobytes() == whole.tobytes()
            assert whole.tobytes() == reference_extension(ext, zs).tobytes()

    @pytest.mark.parametrize("nudge", [0.0, 1e-13])
    def test_point_between_touching_balls(self, fock1, flat1, nudge):
        # nodes exactly 2*delta0 apart: their midpoint is on both ball
        # boundaries, and inside both once delta0 grows by a rounding-sized step
        pts = pointset.PointSet(np.array([[0j], [1.0 + 0j]]), np.array([1.0 + 2j, -3.0 + 0.5j]))
        ext = construction.GluedExtension(flat1, fock1, pts, 0.5 + nudge)
        zs = np.array([[0.5 + 0j], [0.5 - 1e-14 + 0j], [0.5 + 1e-14 + 0j], [0.25 + 0j], [0.75 + 0j]])
        got = hi.evaluate_extension(ext, zs)
        assert got.tobytes() == reference_extension(ext, zs).tobytes()
        assert got[0] == 0.0

    def test_single_point_is_complex(self, rng):
        for ext, zs in extension_setups(rng):
            rows = hi.evaluate_extension(ext, zs[:40])
            for z, f in zip(zs[:40], rows):
                one = hi.evaluate_extension(ext, z if ext.space.n > 1 else z[0])
                assert type(one) is complex and one == f

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_node_set(self, n):
        sp = hi.flat_space(n)
        ext = construction.GluedExtension(sp, hi.fock_weight(1.0, n=n),
                                          pointset.PointSet(np.zeros((0, 1), complex)), 0.5)
        got = hi.evaluate_extension(ext, np.ones((5, n), complex))
        assert got.shape == (5,) and got.tobytes() == np.zeros(5, complex).tobytes()
        assert hi.evaluate_extension(ext, np.ones(n, complex)) == 0j

    def test_one_row_outside_ball_rejected(self, disk):
        ext = hi.glued_extension(disk, hi.bergman_weight(3.0), disk_nodes())
        zs = np.concatenate([disk_nodes().points, [[0.6 + 0.8j]]])
        with pytest.raises(DomainError, match="outside the open ball"):
            hi.evaluate_extension(ext, zs)


class TestAuxiliaryWeight:
    def test_boundary_zero(self, flat1):
        aux = construction.AuxiliaryWeight(flat1, pointset.PointSet(np.array([[0j]])), 1.0)
        assert aux.value(1.0 + 0j) == 0.0

    def test_closed_form_interior_value(self, flat1):
        rho = 1.0
        aux = construction.AuxiliaryWeight(flat1, pointset.PointSet(np.array([[0j]])), rho)
        z = complex(math.sqrt(rho ** 2 / math.e))
        assert aux.value(z) == pytest.approx(MINUS_INV_E, abs=1e-14)

    def test_node_outside_ball_refused(self):
        # the node at 1.5 used to drop out of the sum as a NaN distance (value 0.0)
        with pytest.raises(DomainError):
            construction.AuxiliaryWeight(hi.hyperbolic_ball(1.0),
                                         pointset.PointSet([[0], [1.5]]), 0.5).value_grid([[0.3]])

    def test_points_outside_ball_refused(self, disk):
        aux = construction.AuxiliaryWeight(disk, pointset.PointSet(np.array([[0j]])), 0.5)
        with pytest.raises(DomainError):
            aux.value(1.2 + 0j)
        with pytest.raises(DomainError):
            aux.value_grid(np.array([[0.3 + 0j], [1.5 + 0j]]))

    def test_pole_sentinel(self, flat1):
        aux = construction.AuxiliaryWeight(flat1, pointset.PointSet(np.array([[0.5 + 0j]])), 1.0)
        assert aux.value(0.5 + 0j) == -math.inf

    def test_nonpositive_everywhere(self, flat1, rng):
        pts = lattice_with_values()
        aux = construction.AuxiliaryWeight(flat1, pts, 2.0)
        zs = rng.uniform(-4, 4, (1000, 1)) + 1j * rng.uniform(-4, 4, (1000, 1))
        vals = aux.value_grid(zs)
        assert np.all(vals <= 0.0)

    def test_boundary_c1_taylor_behavior(self, flat1):
        # v(rho(1-e)) = -2n e^2 + O(e^3): quadratic vanishing of the value
        # and linear vanishing of the gradient as the shell is approached
        rho = 1.0
        aux = construction.AuxiliaryWeight(flat1, pointset.PointSet(np.array([[0j]])), rho)
        for e in (1e-2, 1e-3, 1e-4):
            v = aux.value(complex(rho * (1.0 - e)))
            assert v == pytest.approx(-2.0 * e ** 2, rel=2e-2 + 2 * e)
        g = references.dbar_fd(lambda t: aux.value(complex(t[0])),
                               np.array([complex(rho * (1 - 1e-3))]), step=1e-7)
        assert 2.0 * abs(g[0]) == pytest.approx(4e-3, rel=1e-2)

    def _assert_matches_reference(self, aux, zs, poles):
        vals = aux.value_grid(zs)
        np.testing.assert_array_equal(vals, brute_value_grid(aux, zs))
        assert np.all(np.isneginf(vals[poles]))
        return vals

    def _patches(self, aux, zs_list):
        # every patch is checked; on at least one the search must skip pairs
        culled = False
        for zs in zs_list:
            self._assert_matches_reference(aux, zs, [])
            pairs = pointset.near_pairs(aux.space, aux.points.points, zs, aux.rho)[0]
            culled |= pairs.size < len(aux.points) * len(zs)
        assert culled

    def test_culled_matches_reference_flat_n1(self, flat1, rng):
        # dyadic nodes, so q + rho lies at distance exactly rho
        a = np.arange(-3, 4)
        nodes = (1.25 * a[None, :] + 0.75j * a[:, None]).reshape(-1, 1)
        aux = construction.AuxiliaryWeight(flat1, pointset.PointSet(nodes), 1.0)
        rand = rng.uniform(-5, 5, (400, 1)) + 1j * rng.uniform(-5, 5, (400, 1))
        zs = np.concatenate([rand, nodes[::2], nodes[1::3] + 1.0])
        vals = self._assert_matches_reference(aux, zs, np.arange(400, 400 + len(nodes[::2])))
        assert np.all(vals[-len(nodes[1::3]):] <= 0.0)
        patches = [np.concatenate([q[None, :], q[None, :] + 1.0,
                                   q + 0.6 * (rng.random((30, 1)) - 0.5)]) for q in nodes[::5]]
        self._patches(aux, patches)
        # a non-finite row keeps every node and leaves the other rows exact
        nan_first = np.concatenate([[[complex(math.nan, 0.0)]], patches[0]])
        self._assert_matches_reference(aux, nan_first, [1])

    def test_culled_matches_reference_flat_n2(self, rng):
        sp = hi.flat_space(2)
        g = 1.5 * np.arange(-2, 3)
        nodes = np.array([[x + 0.5j * y, 0.25 * x - 1j * y] for x in g for y in g])
        aux = construction.AuxiliaryWeight(sp, pointset.PointSet(nodes), 1.0)
        rand = rng.uniform(-4, 4, (300, 2)) + 1j * rng.uniform(-4, 4, (300, 2))
        zs = np.concatenate([rand, nodes[::3], nodes[1::4] + np.array([1.0, 0.0])])
        self._assert_matches_reference(aux, zs, np.arange(300, 300 + len(nodes[::3])))
        self._patches(aux, [np.concatenate([q[None, :], q + 0.4 * (rng.random((20, 2)) - 0.5)])
                            for q in nodes[::6]])

    def test_culled_matches_reference_disk(self, disk, rng):
        pts = disk_nodes()
        aux = construction.AuxiliaryWeight(disk, pts, 0.5)
        rand = (0.95 * np.sqrt(rng.random(400)) * np.exp(2j * np.pi * rng.random(400)))[:, None]
        rim = np.array([[geometry.geodesic_point(disk, q, 0.5, th)]
                        for q in pts.points for th in (0.0, 2.0, 4.0)])
        zs = np.concatenate([rand, pts.points, rim])
        self._assert_matches_reference(aux, zs, np.arange(400, 400 + len(pts)))
        annuli = [construction._annulus_nodes(disk, q, 0.1, 0.2, 4, 8)[0][:, None]
                  for q in pts.points]
        self._patches(aux, [np.concatenate([q[None, :], a]) for q, a in zip(pts.points, annuli)])

    def test_n2_pole_order(self):
        sp = hi.flat_space(2)
        pts = pointset.PointSet(np.array([[0j, 0j]]))
        aux = construction.AuxiliaryWeight(sp, pts, 1.0)
        v1 = aux.value(np.array([1e-3 + 0j, 0j]))
        v2 = aux.value(np.array([1e-4 + 0j, 0j]))
        # log-pole slope: n * log(d^2) gives 2n = 4 per decade in log10
        assert (v1 - v2) / math.log(10) == pytest.approx(4.0, rel=1e-2)


def seip_weight_value(space, pts, z):
    """The tanh pole weight ``n sum_p log tanh^2(d(p, z)/(2 kappa))``: each
    term is minus a term of the density, so it is ``-n`` times the density
    with no cutoff."""
    return -space.n * hi.seip_density(space, pts, z, cutoff=0.0)


class TestSeipWeight:
    def test_single_node_value(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j]]))
        assert seip_weight_value(disk, pts, 0.0) == pytest.approx(LOG_QUARTER, abs=1e-12)

    def test_pole_and_empty(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j]]))
        assert seip_weight_value(disk, pts, 0.5 + 0j) == -math.inf
        empty = pointset.PointSet(np.zeros((0, 1), complex))
        assert seip_weight_value(disk, empty, 0.1) == 0.0

    def test_node_next_to_the_sample_against_mpmath(self, disk):
        # each term 2 log tanh(d/2) with d = 2 atanh(|p|) from the origin:
        # 2 log |p|, finite below the 1e-154 where |p|^2 leaves the normal floats
        mpmath.mp.dps = 30
        for p in (1e-150, 1e-154, 1e-160, 1e-200, 5e-324):
            v = seip_weight_value(disk, pointset.PointSet(np.array([[complex(p)]])), 0.0)
            ref = float(2 * mpmath.log(mpmath.mpf(p)))
            assert abs(v - ref) <= 4 * np.spacing(abs(ref)), p

    @pytest.mark.parametrize("kappa", [1e-150, 3.0, 1e150])
    def test_scaled_ball(self, disk, kappa):
        # the kappa-ball is the unit disk scaled by kappa: the same weight
        p = np.array([[0.5 + 0j], [-0.3j], [0.1 + 0.2j], [1e-100 + 0j]])
        x = np.array([[0.2 + 0.1j], [0.6j], [1e-100 + 1e-120j]])
        unit = [seip_weight_value(disk, pointset.PointSet(p), z) for z in x]
        ball = hi.hyperbolic_ball(kappa)
        scaled = [seip_weight_value(ball, pointset.PointSet(kappa * p), kappa * z) for z in x]
        assert np.allclose(scaled, unit, rtol=1e-14, atol=0)

    def test_flat_rejected(self, flat1):
        with pytest.raises(SpaceMismatchError):
            seip_weight_value(flat1, pointset.PointSet(np.array([[0j]])), 1.0)

    def test_node_off_the_disk_refused(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j], [1.5 + 0j]]))
        with pytest.raises(DomainError, match="outside the open ball"):
            seip_weight_value(disk, pts, 0.0)

    def test_decomposes_into_density_and_near_terms(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j], [0.1 + 0.1j], [-0.6j]]))
        x = 0.02 - 0.03j
        d = geometry.distances_from(disk, pts.points, x)
        near = d[d < 1.0]
        near_sum = float(np.sum(2.0 * np.log(np.tanh(near / 2.0))))
        v = seip_weight_value(disk, pts, x)
        assert v == pytest.approx(-hi.seip_density(disk, pts, x) + near_sum, rel=1e-12)


class TestDbarEnergy:
    def test_empty_set(self, fock1, flat1):
        ext = hi.glued_extension(flat1, fock1, pointset.PointSet(np.zeros((0, 1), complex)))
        aux = construction.AuxiliaryWeight(flat1, ext.points, 1.0)
        assert hi.dbar_energy(ext, aux) == 0.0

    def test_single_node_finite_and_stable(self, fock1, flat1):
        pts = pointset.PointSet(np.array([[0j]]), np.array([1.0 + 0j]))
        ext = hi.glued_extension(flat1, fock1, pts)
        aux = construction.AuxiliaryWeight(flat1, pts, 1.0)
        rep = construction.dbar_energy_report(ext, aux, nr=16, ntheta=32)
        assert rep.energy > 0.0 and math.isfinite(rep.energy)
        assert rep.drift <= 0.05

    def test_quadratic_homogeneity_exact(self, fock1, flat1):
        pts = lattice_with_values()
        ext = hi.glued_extension(flat1, fock1, pts)
        aux = construction.AuxiliaryWeight(flat1, pts, 2.0)
        e1 = hi.dbar_energy(ext, aux, nr=8, ntheta=16)
        doubled = pts.with_values(2.0 * pts.values)
        ext2 = hi.glued_extension(flat1, fock1, doubled)
        e2 = hi.dbar_energy(ext2, aux, nr=8, ntheta=16)
        assert e2 == 4.0 * e1

    @pytest.mark.parametrize("nr,ntheta", [(0, 8), (4, 0), (-4, 8)])
    def test_quadrature_counts_below_one_refused(self, fock1, flat1, nr, ntheta):
        # nr = 0 would divide by zero; a negative count would sum no annulus to 0.0
        pts = lattice_with_values()
        ext = hi.glued_extension(flat1, fock1, pts)
        aux = construction.AuxiliaryWeight(flat1, pts, 1.0)
        for quadrature in (lambda: hi.dbar_energy(ext, aux, nr, ntheta),
                           lambda: construction.dbar_energy_report(ext, aux, nr, ntheta),
                           lambda: construction.extension_norm_sq(ext, nr, ntheta)):
            with pytest.raises(DomainError, match="nr >= 1 and ntheta >= 1"):
                quadrature()

    def test_non_finite_energy_raises(self, fock1, flat1):
        pts = pointset.PointSet(np.array([[0j], [3.0 + 0j]]), np.array([1.0 + 0j, 1e200 + 0j]))
        ext = hi.glued_extension(flat1, fock1, pts)
        aux = construction.AuxiliaryWeight(flat1, pts, 1.0)
        with pytest.raises(QuadratureError) as exc, np.errstate(over="ignore"):
            hi.dbar_energy(ext, aux, nr=4, ntheta=8)
        assert exc.value.region == ("annulus", 1)

    def test_hyperbolic_energy_finite(self, disk):
        w = hi.bergman_weight(3.0)
        pts = pointset.PointSet(np.array([[0j], [0.4 + 0j]]), np.array([1.0 + 0j, 1j]))
        ext = hi.glued_extension(disk, w, pts)
        aux = construction.AuxiliaryWeight(disk, pts, 0.5)
        rep = construction.dbar_energy_report(ext, aux, nr=16, ntheta=32)
        assert math.isfinite(rep.energy) and rep.energy > 0.0
        assert rep.drift <= 0.05

    def test_exp_minus_v_bounded_on_annuli(self, fock1, flat1, rng):
        # the annulus lower bound v >= count * log(delta0^2 / (4 rho^2))
        pts = lattice_with_values()
        ext = hi.glued_extension(flat1, fock1, pts)
        rho = 2.0
        aux = construction.AuxiliaryWeight(flat1, pts, rho)
        floor = math.log(ext.delta0 ** 2 / (4.0 * rho ** 2))
        for i in range(len(pts)):
            p = complex(pts.points[i, 0])
            for _ in range(50):
                d = ext.delta0 * (0.5 + 0.5 * rng.random())
                th = 2 * math.pi * rng.random()
                z = p + d * complex(math.cos(th), math.sin(th))
                count = hi.count_in_ball(flat1, pts, z, rho)
                assert aux.value(z) >= count * floor - 1e-9


class TestBatchedEnergy:
    NR, NTHETA = 8, 16

    @pytest.mark.parametrize("setup", range(3), ids=["fock-flat", "bergman-disk", "poly-flat"])
    def test_matches_per_node_reference(self, setup):
        ext, aux = energy_setups()[setup]
        rep = construction.dbar_energy_report(ext, aux, nr=self.NR, ntheta=self.NTHETA)
        ref = [reference_node_energy(ext, aux, i, self.NR, self.NTHETA) for i in range(len(ext.points))]
        assert len(rep.per_node) == len(ref)
        for e, r in zip(rep.per_node, ref):
            assert abs(e - r) <= 2e-15 * abs(r)
        refined = sum(reference_node_energy(ext, aux, i, 2 * self.NR, 2 * self.NTHETA)
                      for i in range(len(ext.points)))
        assert abs(rep.refined_energy - refined) <= 2e-15 * refined

    @pytest.mark.parametrize("block", [1, 3 * 128, 7 * 128 + 5, 10 ** 6])
    def test_block_boundaries(self, block, monkeypatch):
        # 1: one node per block; 3 and 7 nodes per block leave a short last
        # block; 10**6: every node in one block
        monkeypatch.setattr(construction, "QUAD_BLOCK", block)
        for ext, aux in energy_setups():
            got = construction.dbar_energy_report(ext, aux, nr=self.NR, ntheta=self.NTHETA).per_node
            for i, e in enumerate(got):
                r = reference_node_energy(ext, aux, i, self.NR, self.NTHETA)
                assert abs(e - r) <= 2e-15 * abs(r)

    @pytest.mark.parametrize("block", [1, 2 * 32, 10 ** 6])
    def test_first_non_finite_node_named(self, block, fock1, flat1, monkeypatch):
        monkeypatch.setattr(construction, "QUAD_BLOCK", block)
        pts = pointset.PointSet(np.array([[0j], [3.0 + 0j], [6.0 + 0j], [9.0 + 0j]]),
                                np.array([1.0 + 0j, 1.0 + 0j, 1e200 + 0j, 1e200 + 0j]))
        ext = hi.glued_extension(flat1, fock1, pts)
        aux = construction.AuxiliaryWeight(flat1, pts, 1.0)
        with pytest.raises(QuadratureError) as exc, np.errstate(over="ignore"):
            hi.dbar_energy(ext, aux, nr=4, ntheta=8)
        assert exc.value.region == ("annulus", 2)

    def test_auxiliary_weight_on_annuli_equals_value_grid(self):
        for ext, aux in energy_setups():
            idx = np.arange(len(ext.points))
            p = ext.points.points[:, None, :]
            zs = construction._annulus_nodes(ext.space, p, ext.delta0 / 2, ext.delta0,
                                             self.NR, self.NTHETA)[0]
            vals = aux._annulus_values(idx, zs, ext.delta0)
            for row, z in zip(vals, zs):
                assert row.tobytes() == aux.value_grid(z[:, None]).tobytes()
            # some annulus is reached by several nodes' rho-balls
            d = geometry.geodesic_distances(ext.space, p, ext.points.points[None, :, :])
            assert np.max(np.sum(d <= aux.rho + ext.delta0, axis=1)) > 1

    def test_empty_set_exactly_zero(self, fock1, flat1):
        ext = hi.glued_extension(flat1, fock1, pointset.PointSet(np.zeros((0, 1), complex)))
        aux = construction.AuxiliaryWeight(flat1, ext.points, 1.0)
        rep = construction.dbar_energy_report(ext, aux)
        assert (rep.energy, rep.refined_energy, rep.drift, rep.per_node) == (0.0, 0.0, 0.0, ())
        assert construction.extension_norm_sq(ext) == 0.0


class TestRadialOracle:
    """One fock node on flat space: ``F = a e^{conj(p)(z-p)} chi`` gives
    ``|F|^2 e^{-|z|^2} = |a|^2 e^{-|p|^2} e^{-r^2} chi^2`` with ``r = |z-p|``,
    and ``|dbar F|^2 = |a e^{...}|^2 chi'(t)^2 r^2/delta0^4``, so the norm and
    the energy are 1-D radial integrals.  ``chi'`` comes from mpmath's
    numerical derivative of an mpmath cutoff, independent of the library.

    Midpoint errors fall by ~4 per refinement, so the refined level is
    within the reported drift ``|e2 - e1|/e2`` of the exact value.
    """

    P, A = 0.7 - 0.4j, 1.5 + 0.5j

    @staticmethod
    def _chi_mp(t):
        if t <= 0.25:
            return mpmath.mpf(1)
        if t >= 1:
            return mpmath.mpf(0)
        a = mpmath.exp(-0.75 / (1 - t))
        b = mpmath.exp(-0.75 / (t - 0.25))
        return a / (a + b)

    def _setup(self, fock1, flat1):
        pts = pointset.PointSet(np.array([[self.P]]), np.array([self.A]))
        ext = hi.glued_extension(flat1, fock1, pts)
        assert ext.delta0 == 0.5
        return ext, 2.0 * math.pi * abs(self.A) ** 2 * math.exp(-abs(self.P) ** 2)

    def test_extension_norm(self, fock1, flat1):
        ext, pref = self._setup(fock1, flat1)
        d0 = ext.delta0
        with mpmath.workdps(30):
            exact = pref * integrate.quad(
                lambda r: math.exp(-r * r) * float(self._chi_mp(mpmath.mpf(r * r / d0 ** 2))) ** 2 * r,
                0.0, d0, points=[d0 / 2], epsabs=0.0, epsrel=1e-12)[0]
        n1 = construction.extension_norm_sq(ext)
        n2 = construction.extension_norm_sq(ext, nr=96, ntheta=192)
        drift = abs(n2 - n1) / abs(n2)
        assert abs(n2 - exact) <= (drift + 1e-8) * exact

    @pytest.mark.parametrize("rho", [1.0, 0.4])
    def test_dbar_energy(self, fock1, flat1, rho):
        ext, pref = self._setup(fock1, flat1)
        d0 = ext.delta0
        aux = construction.AuxiliaryWeight(flat1, ext.points, rho)

        def v(r):
            return 1.0 - r * r / rho ** 2 + math.log(r * r / rho ** 2) if r < rho else 0.0

        def integrand(r):
            dchi = float(mpmath.diff(self._chi_mp, mpmath.mpf(r * r / d0 ** 2)))
            return math.exp(-r * r - v(r)) * dchi ** 2 * r ** 3 / d0 ** 4

        with mpmath.workdps(30):
            exact = pref * integrate.quad(integrand, d0 / 2, d0, points=[rho] if rho < d0 else None,
                                          epsabs=0.0, epsrel=1e-12, limit=200)[0]
        rep = construction.dbar_energy_report(ext, aux)
        assert abs(rep.refined_energy - exact) <= (rep.drift + 1e-8) * exact
        assert hi.dbar_energy(ext, aux) == rep.energy


class TestExtensionNorm:
    def test_dominated_by_data_norm_under_permutation(self, fock1, flat1, rng):
        pts = lattice_with_values()
        c_frame = fock1.frame_bound_constant(0.5)
        vol = hi.ball_volume_bound(0.0, 0.5, 2)
        for perm_seed in range(3):
            perm = np.random.default_rng(perm_seed).permutation(len(pts))
            permuted = pts.with_values(pts.values[perm])
            ext = hi.glued_extension(flat1, fock1, permuted)
            lhs = construction.extension_norm_sq(ext, nr=24, ntheta=48)
            data = sum(weights.h_norm_sq(fock1, permuted.points[i], permuted.values[i])
                       for i in range(len(permuted)))
            assert lhs <= c_frame * vol * data * (1 + 1e-6)


class TestAuxiliaryCurvature:
    def test_flat_single_node_exact(self, flat1):
        rho = 1.0
        pts = pointset.PointSet(np.array([[0j]]))
        aux = construction.AuxiliaryWeight(flat1, pts, rho)
        grid = [0.2 + 0j, 0.3 + 0.3j, 0.1j, 0.6 + 0.2j]
        rep = hi.auxiliary_curvature_check(aux, flat1, grid, tol=1e-4)
        assert rep.passed
        for e in rep.entries:
            assert e.bound == pytest.approx(-2.0 / rho ** 2, abs=0)
            assert e.eigen_min == pytest.approx(-2.0 / rho ** 2, abs=1e-6)

    def test_outside_all_balls_flat_zero(self, flat1):
        pts = pointset.PointSet(np.array([[0j]]))
        aux = construction.AuxiliaryWeight(flat1, pts, 1.0)
        rep = hi.auxiliary_curvature_check(aux, flat1, [3.0 + 3.0j], tol=1e-4)
        assert rep.entries[0].eigen_min == 0.0
        assert rep.entries[0].bound == 0.0

    def test_hyperbolic_single_node(self, disk):
        pts = pointset.PointSet(np.array([[0j]]))
        aux = construction.AuxiliaryWeight(disk, pts, 0.8)
        grid = [0.05 + 0j, 0.1 + 0.1j, 0.2j, 0.3 + 0.05j]
        rep = hi.auxiliary_curvature_check(aux, disk, grid, tol=1e-4)
        assert rep.passed

    def test_grid_too_close_rejected(self, flat1):
        pts = pointset.PointSet(np.array([[0j]]))
        aux = construction.AuxiliaryWeight(flat1, pts, 1.0)
        with pytest.raises(DomainError):
            hi.auxiliary_curvature_check(aux, flat1, [0.01 + 0j])
