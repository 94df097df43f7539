import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holo_interp as hi
from holo_interp import geometry, pointset
from holo_interp.errors import DomainError, SpaceMismatchError

LOG4 = 1.3862943611198906


def brute_count(space, pts, z, rho):
    # independent enumeration oracle
    return sum(1 for p in pts.points if hi.distance(space, p, z) < rho)


def all_pairs_min(space, pts, block=256):
    """Independent search: the dense ``geodesic_distances`` matrix, ``block``
    rows at a time, minimised over i < j in row-major order, so the first
    minimiser comes first; NaN counts as inf.  The closed form itself is
    checked against mpmath in TestScaledDistances (test_geometry.py)."""
    z = pts.points
    m = z.shape[0]
    best, pair = math.inf, None
    for lo in range(0, m, block):
        rows = np.arange(lo, min(lo + block, m))
        d = geometry.geodesic_distances(space, z[None, :, :], z[rows, None, :])
        d = np.where((np.arange(m)[None, :] > rows[:, None]) & ~np.isnan(d), d, math.inf)
        k = int(np.argmin(d))
        if d.flat[k] < best:
            best, pair = float(d.flat[k]), (lo + k // m, k % m)
    return best, pair


def assert_matches_all_pairs(space, pts):
    rep = hi.separation(space, pts)
    dmin, pair = all_pairs_min(space, pts)
    assert np.float64(rep.min_pairwise_distance).tobytes() == np.float64(dmin).tobytes()
    assert rep.arg_pair == pair


SPACES = [("flat", 1, None), ("flat", 2, None)] + [
    ("ball", n, kap) for n in (1, 2) for kap in (0.5, 1.0, 3.0)]


def make_space(spec):
    kind, n, kap = spec
    return hi.flat_space(n) if kind == "flat" else hi.hyperbolic_ball(kap, n=n)


def random_rows(rng, spec, m, rim_exponent):
    """m normal points of C^n; on the ball, rescaled so 1 - |z|/kappa lies in
    (0, 1] scaled down by up to 10^-rim_exponent."""
    n = spec[1]
    z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    if spec[0] == "ball":
        frac = 1.0 - (1.0 - rng.random(m)) * 10.0 ** -rng.uniform(0.0, rim_exponent, m)
        z *= (spec[2] * frac / np.linalg.norm(z, axis=1))[:, None]
    return z


class TestPointSet:
    def test_distinctness_enforced(self):
        with pytest.raises(DomainError):
            pointset.PointSet(np.array([[1.0 + 0j], [1.0 + 0j]]))

    def test_non_finite_points_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            pointset.PointSet(np.array([[complex(math.nan, 0.0)], [complex(math.nan, 0.0)]]))
        with pytest.raises(DomainError, match="finite"):
            pointset.PointSet(np.array([[0j], [complex(0.0, math.inf)]]))

    def test_values_length(self):
        with pytest.raises(DomainError):
            pointset.PointSet(np.array([[0j], [1j]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_values_rejected(self, bad, part):
        value = complex(bad, 1.0) if part == "real" else complex(1.0, bad)
        with pytest.raises(DomainError, match="values must be finite"):
            pointset.PointSet(np.array([[0j], [1j]]), np.array([1.0, value]))

    def test_from_dict(self):
        d = {"space": {"kind": "flat", "n": 1, "k": 0.0},
             "points": [[1.0, 2.0], [3.0, -1.0]], "values": [[0.0, 1.0], [2.0, 0.0]]}
        pts = pointset.pointset_from_dict(d)
        assert np.array_equal(pts.points, np.array([[1 + 2j], [3 - 1j]]))
        assert np.array_equal(pts.values, np.array([1j, 2 + 0j]))

    def test_json_n2(self):
        d = {"points": [[[0.0, 0.0], [1.0, 0.0]], [[2.0, 1.0], [0.0, -1.0]]]}
        pts = pointset.pointset_from_dict(d)
        assert pts.points.shape == (2, 2)
        assert pts.points[1, 0] == 2 + 1j


def per_entry_parse(d):
    """Points and values of a point file through the per-entry parser alone:
    the parse that the C-level fast path must reproduce bit for bit."""
    pts = [pointset._parse_point(p) for p in d["points"]]
    arr = np.array(pts, dtype=complex) if pts else np.zeros((0, 1), dtype=complex)
    vals = d.get("values")
    return arr, None if vals is None else np.array([pointset._parse_pair(v) for v in vals],
                                                   dtype=complex)


#: the malformed files of tests/test_cli.py::TestExitCodes
MALFORMED = [
    {"points": [["a", 1]]},
    {"points": [[0.1, 0.2], [0.3]]},
    {"points": [[0.1, 0.2]], "values": [[1]]},
    {"points": [[True, 0.2]]},
    {"points": [[[0.1, 0.2, 0.3]]]},
    {"points": [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6]]]},
]


class TestPointFileParse:
    @pytest.mark.parametrize("d", [
        {"points": [[-0.0, 0.5], [0.0, -0.0], [1.0, -0.0]], "values": [[-0.0, -0.0], [1, -0.0], [-2, 3]]},
        {"points": [[1, 2], [-3, 4], [2 ** 60 + 1, 7]], "values": [[1, 0], [0, 1], [5, 5]]},
        {"points": [[[0.0, -0.0], [1, 0.0]], [[2.0, 1.0], [-0.0, -1]], [[0.1, 0.2], [0.3, 0.4]]]},
        {"points": [[[0.25, -0.0]], [[-1.5, 3]]], "values": [[0.0, 1.0], [2.0, -0.0]]},
        {"points": [[0.1, 0.2], [0.3, 0.4]]},
    ], ids=["negative-zero", "integers", "n2", "n1-pairs", "no-values"])
    def test_fast_path_equals_per_entry_parser(self, d):
        raw = d["points"]
        assert pointset._pairs_array(raw, 1) is not None or pointset._pairs_array(raw, 2) is not None
        got = pointset.pointset_from_dict(d)
        arr, vals = per_entry_parse(d)
        assert got.points.shape == arr.shape and got.points.tobytes() == arr.tobytes()
        if vals is None:
            assert got.values is None
        else:
            assert got.values.shape == vals.shape and got.values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("raw,depth", [
        ([[1, -0.0], [-0.0, 2], [0, 0.0], [2 ** 70, -3.5], [-1, -0.0]], 1),
        ([[[1, -0.0], [0.5, -2]], [[-0.0, -0.0], [7, 0]], [[0, 0.0], [-0.0, 1e-300]]], 2),
    ], ids=["depth1", "depth2"])
    def test_pairs_array_bytes(self, raw, depth):
        # the nested list converted whole, and complex(re, im) pair by pair
        got = pointset._pairs_array(raw, depth)
        whole = np.array(raw, dtype=float).view(complex).reshape(len(raw), -1)
        rows = raw if depth == 2 else [[pair] for pair in raw]
        each = np.array([[complex(*pair) for pair in row] for row in rows])
        assert got.shape == whole.shape == each.shape
        assert got.tobytes() == whole.tobytes() == each.tobytes()

    def test_empty_sets(self):
        for d in ({"points": []}, {"points": [], "values": []}, {}):
            got = pointset.pointset_from_dict(d)
            assert got.points.shape == (0, 1) and got.points.dtype == complex
            if d.get("values") is not None:
                assert got.values.shape == (0,)
        assert pointset._pairs_array([], 1) is None

    @pytest.mark.parametrize("d", MALFORMED)
    def test_malformed_files_fall_back_and_refuse(self, d):
        raw = d["points"]
        if d.get("values") is None:
            assert pointset._pairs_array(raw, 1) is None and pointset._pairs_array(raw, 2) is None
        else:
            assert pointset._pairs_array(d["values"], 1) is None
        with pytest.raises(DomainError):
            pointset.pointset_from_dict(d)

    def test_other_number_types_take_the_per_entry_parser(self):
        d = {"points": [(0.5, 1.0), [np.float64(0.25), 2]]}
        assert pointset._pairs_array(d["points"], 1) is None
        got = pointset.pointset_from_dict(d)
        assert got.points.tobytes() == per_entry_parse(d)[0].tobytes()


class TestSeparation:
    def test_lattice(self, flat1):
        for s in (0.5, 1.0, 2.5):
            lat = pointset.square_lattice(s, half_extent=3.0)
            rep = hi.separation(flat1, lat)
            assert rep.min_pairwise_distance == pytest.approx(s, rel=1e-14)

    def test_singleton_sentinel(self, flat1):
        rep = hi.separation(flat1, pointset.PointSet(np.array([[0j]])))
        assert rep.min_pairwise_distance == math.inf
        assert rep.arg_pair is None
        rep2 = hi.separation(flat1, pointset.PointSet(np.array([[0j]])), r0=2.0)
        assert rep2.delta0 == 1.0

    def test_two_points_hyperbolic(self, disk):
        a, b = 0.1 + 0j, 0.5j
        pts = pointset.PointSet(np.array([[a], [b]]))
        rep = hi.separation(disk, pts)
        assert rep.min_pairwise_distance == pytest.approx(hi.distance(disk, a, b), rel=1e-14)
        assert rep.arg_pair == (0, 1)

    def test_delta0_uses_frame_radius(self, flat1):
        lat = pointset.square_lattice(2.0, half_extent=4.0)
        rep = hi.separation(flat1, lat, r0=1.0)
        assert rep.delta0 == 0.5  # r0 binds
        rep = hi.separation(flat1, lat, r0=10.0)
        assert rep.delta0 == 1.0  # separation binds

    def test_node_outside_ball_refused(self, disk):
        pts = pointset.PointSet(np.array([[0j], [0.5 + 0j], [1.5 + 0j]]))
        with pytest.raises(DomainError):
            hi.separation(disk, pts)


class TestTreeSeparation:
    """``separation`` against an all-pairs reference: the same minimum to the
    bit and the first minimising pair in lexicographic order."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(spec=st.sampled_from(SPACES), m=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1), rim_exponent=st.floats(0.0, 12.0))
    def test_random_sets(self, spec, m, seed, rim_exponent):
        rng = np.random.default_rng(seed)
        assert_matches_all_pairs(make_space(spec), pointset.PointSet(random_rows(rng, spec, m, rim_exponent)))

    def test_ball_set_beyond_the_old_pair_guard(self):
        # 4500 nodes make 10_122_750 pairs, past the 10**7 the ball used to refuse
        rng = np.random.default_rng(4474)
        spec = ("ball", 1, 1.0)
        pts = pointset.PointSet(random_rows(rng, spec, 4500, 8.0))
        assert_matches_all_pairs(make_space(spec), pts)

    @pytest.mark.parametrize("spec", SPACES)
    def test_lattice_ties(self, spec, rng):
        kind, n, kap = spec
        a = np.arange(-3, 4)
        grid = (a[None, :] + 1j * a[:, None]).reshape(-1)
        z = grid[:, None] if n == 1 else np.stack([grid, grid[::-1] * 1j], axis=1)
        z = z * (1.0 if kind == "flat" else 0.08 * kap)
        for order in (np.arange(len(z)), rng.permutation(len(z))):
            assert_matches_all_pairs(make_space(spec), pointset.PointSet(z[order]))

    @pytest.mark.parametrize("spec", SPACES)
    def test_symmetric_rings(self, spec):
        kind, n, kap = spec
        scale = 1.0 if kind == "flat" else kap
        for k, r in ((6, 0.5), (24, 0.9), (64, 1.0 - 1e-9)):
            ring = scale * r * np.exp(2j * np.pi * np.arange(k) / k)
            ring = np.concatenate([[0.0], ring])
            z = ring[:, None] if n == 1 else np.stack([ring, np.zeros_like(ring)], axis=1)
            assert_matches_all_pairs(make_space(spec), pointset.PointSet(z))

    def test_rim_nodes_to_rounding(self, disk):
        # |z| < 1, but |z|^2 rounds to 1 (n = 1) or above it (n = 2): every
        # distance from such a node would be inf or NaN, so the node is refused
        rim = [-0.783814003152143 - 0.6209956589724377j, -0.9626681429324231 - 0.2706844040262379j]
        assert np.all(np.abs(rim) ** 2 == 1.0)
        ball2 = hi.hyperbolic_ball(1.0, n=2)
        beyond = [0.5625185766301471 + 0.13528470549487323j, 0.4290346420040747 + 0.6936859342422866j]
        for space, z in ((disk, np.array(rim)[:, None]), (ball2, np.array([[0.1j, 0.2], beyond]))):
            with pytest.raises(DomainError, match="outside the open ball"):
                hi.separation(space, pointset.PointSet(z))

        def inward(z):
            """``z`` moved toward 0 one ulp per coordinate until it has room."""
            z = np.array(z, dtype=complex)
            while not 1.0 - np.sum(np.abs(z) ** 2) > 0:
                z = np.nextafter(z.real, 0) + 1j * np.nextafter(z.imag, 0)
            return z

        # the same nodes with the least room: finite distances, and the tree
        # search still matches all pairs
        near = [inward([c])[0] for c in rim]
        rep = hi.separation(disk, pointset.PointSet(np.array(near)[:, None]))
        assert math.isfinite(rep.min_pairwise_distance) and rep.arg_pair == (0, 1)
        assert_matches_all_pairs(disk, pointset.PointSet(
            np.array([near[0], 0.3, near[1], 0.5j, 0.1 - 0.2j])[:, None]))
        assert_matches_all_pairs(ball2, pointset.PointSet(
            np.array([[0.1j, 0.2], inward(beyond), [0.3, -0.1j]])))

    def test_underflowing_squares(self, flat1):
        # squared differences near 1e-316 are subnormal in the tree, which
        # squares them; the distances take the unsquared norm
        z = [-3.9701224820124056e-159 - 1.1910367446037217e-158j, 7.940244964024811e-159 + 0j,
             -3.1664737313258105e-161 - 1.5832368656629052e-161j, -1.5832368656629052e-161j]
        for pts in (z[:2], z[2:], z):
            assert_matches_all_pairs(flat1, pointset.PointSet(np.array(pts)[:, None]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_flat_coordinates(self, flat1):
        # squared differences would overflow; the scaled norm does not
        pts = pointset.PointSet(np.array([[1e200 + 0j], [-1e200 + 0j], [1e200j], [0j], [1e-3 + 0j]]))
        rep = hi.separation(flat1, pts)
        assert (rep.min_pairwise_distance, rep.arg_pair) == (1e-3, (3, 4))
        assert_matches_all_pairs(flat1, pointset.PointSet(pts.points[:3]))
        rep = hi.separation(flat1, pointset.PointSet(np.array([[0j], [1e200 + 0j]])))
        assert (rep.min_pairwise_distance, rep.arg_pair) == (1e200, (0, 1))

    @pytest.mark.parametrize("spec", SPACES)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_distinct_pairs_are_separated(self, spec, data):
        # coordinates of every scale, down to subnormal, as fractions of kappa
        # on the ball: every distinct valid pair is at a positive distance
        space = make_space(spec)
        coord = st.floats(-1e300, 1e300)
        if not space.is_flat:
            coord = st.floats(-1.0, 1.0).map(lambda t: t * space.kappa * 0.7 / math.sqrt(space.n))
        point = st.lists(st.builds(complex, coord, coord), min_size=space.n, max_size=space.n)
        a, b = (np.array(data.draw(point)) for _ in range(2))
        assume(not np.array_equal(a, b))
        d = geometry.geodesic_distances(space, a, b)
        assert d > 0.0 and d == geometry.geodesic_distances(space, b, a)
        rep = hi.separation(space, pointset.PointSet(np.array([a, b])))
        assert rep.min_pairwise_distance == d


class TestNearPairs:
    """``near_pairs`` against the dense sample-by-node distance matrix."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(spec=st.sampled_from(SPACES), m=st.integers(0, 40), g=st.integers(0, 30),
           seed=st.integers(0, 2 ** 32 - 1), rim_exponent=st.floats(0.0, 12.0),
           dist=st.floats(1e-3, 6.0), tie=st.booleans())
    def test_against_all_pairs(self, spec, m, g, seed, rim_exponent, dist, tie):
        rng = np.random.default_rng(seed)
        space = make_space(spec)
        nodes, xs = random_rows(rng, spec, m, rim_exponent), random_rows(rng, spec, g, rim_exponent)
        full = geometry.geodesic_distances(space, nodes[None, :, :], xs[:, None, :])
        if tie and full.size:  # a distance that occurs: the closed ball keeps it
            dist = float(full.flat[rng.integers(full.size)])
        assert_near_pairs(space, nodes, xs, full, dist)

    @pytest.mark.parametrize("spec", [("flat", 1, None), ("ball", 1, 1.0)])
    def test_samples_past_one_query_block(self, spec):
        rng = np.random.default_rng(7)
        space = make_space(spec)
        nodes = random_rows(rng, spec, 40, 3.0)
        xs = random_rows(rng, spec, 2 * pointset.NEAR_BLOCK + 3, 3.0)
        full = geometry.geodesic_distances(space, nodes[None, :, :], xs[:, None, :])
        assert_near_pairs(space, nodes, xs, full, 1.5)


def assert_near_pairs(space, nodes, xs, full, dist):
    i, j, d = pointset.near_pairs(space, nodes, xs, dist)
    assert i.dtype.kind == j.dtype.kind == "i"
    # sample-major with j ascending: strictly increasing (i, j) keys
    assert np.all(np.diff(i * max(len(nodes), 1) + j) > 0)
    assert d.tobytes() == full[i, j].tobytes()
    found = np.zeros(full.shape, bool)
    found[i, j] = True
    assert not np.any((full <= dist) & ~found)


class TestCountInBall:
    def test_lattice_enumeration(self, flat1):
        lat = pointset.square_lattice(1.0, half_extent=2.0)
        assert hi.count_in_ball(flat1, lat, 0.0, 1.5) == 9
        assert hi.count_in_ball(flat1, lat, 0.0, 1.5) == brute_count(flat1, lat, 0.0, 1.5)

    def test_empty(self, flat1):
        assert hi.count_in_ball(flat1, pointset.PointSet(np.zeros((0, 1), complex)), 0.0, 1.0) == 0

    def test_center_counts_itself(self, flat1):
        lat = pointset.square_lattice(1.0, half_extent=2.0)
        assert hi.count_in_ball(flat1, lat, 1.0 + 1.0j, 1e-9) >= 1

    def test_open_ball_boundary_excluded(self, flat1):
        pts = pointset.PointSet(np.array([[1.0 + 0j]]))
        assert hi.count_in_ball(flat1, pts, 0.0, 1.0) == 0
        assert hi.count_in_ball(flat1, pts, 0.0, 1.0 + 1e-12) == 1

    def test_monotone_in_rho_and_saturates(self, flat1, rng):
        lat = pointset.square_lattice(1.0, half_extent=3.0)
        z = complex(*rng.uniform(-1, 1, 2))
        counts = [hi.count_in_ball(flat1, lat, z, rho) for rho in np.linspace(0.1, 12, 40)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == len(lat)

    def test_flat_scaling_homogeneity(self, flat1):
        # rational lattice, coordinates and rho scaled by sqrt(t) with t = 4
        lat = pointset.square_lattice(1.5, half_extent=6.0)
        scaled = pointset.PointSet(lat.points * 2.0)
        for z, rho in [(0.25 + 0.5j, 2.0), (1.0 + 0j, 3.5)]:
            c1 = hi.count_in_ball(flat1, lat, z, rho)
            c2 = hi.count_in_ball(flat1, scaled, 2.0 * z, 2.0 * rho)
            assert c1 == c2
            assert c1 / rho ** 2 == (c2 / (2.0 * rho) ** 2) * 4.0


def scan_counts(space, pts, rows, rho):
    """Per-sample reference: every node's distance from ``distances_from``,
    then the strict test."""
    return np.array([np.count_nonzero(geometry.distances_from(space, pts.points, z) < rho)
                     for z in rows], dtype=np.intp)


def assert_grid_counts(space, pts, rows, rho):
    grid = hi.count_in_ball(space, pts, rows, rho)
    assert isinstance(grid, np.ndarray) and grid.shape == (len(rows),)
    assert grid.dtype.kind == "i"
    assert np.array_equal(grid, scan_counts(space, pts, rows, rho))
    single = [hi.count_in_ball(space, pts, z, rho) for z in rows]
    assert all(type(c) is int for c in single)
    assert np.array_equal(grid, single)
    return grid


def rim_rows(rng, space, m, gap):
    """m random points of the ball at |z| = kappa (1 - gap)."""
    z = rng.normal(size=(m, space.n)) + 1j * rng.normal(size=(m, space.n))
    return z * (space.kappa * (1.0 - gap) / np.linalg.norm(z, axis=1, keepdims=True))


@pytest.mark.filterwarnings("error")
class TestGridCounts:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("rho", [0.05, 0.7, 2.5, 40.0])
    def test_flat_random(self, n, rho):
        rng = np.random.default_rng(11 + n)
        space = hi.flat_space(n)
        pts = pointset.PointSet(rng.uniform(-3, 3, (120, n)) + 1j * rng.uniform(-3, 3, (120, n)))
        rows = rng.uniform(-4, 4, (50, n)) + 1j * rng.uniform(-4, 4, (50, n))
        assert_grid_counts(space, pts, np.vstack([rows, pts.points[:5]]), rho)

    @pytest.mark.parametrize("spec", [s for s in SPACES if s[0] == "ball"])
    @pytest.mark.parametrize("rho", [0.1, 1.0, 6.0])
    def test_ball_samples_near_the_rim(self, spec, rho):
        space = make_space(spec)
        rng = np.random.default_rng(23)
        nodes = np.vstack([rim_rows(rng, space, 40, g) for g in (0.3, 1e-3, 1e-8)])
        rows = np.vstack([rim_rows(rng, space, 10, g) for g in (0.5, 1e-2, 1e-6, 1e-12)])
        grid = assert_grid_counts(space, pointset.PointSet(nodes), np.vstack([rows, nodes[::7]]), rho)
        assert grid.any()

    @pytest.mark.parametrize("spacing", [1.0, 0.25, 0.7])
    def test_lattice_ties_excluded(self, flat1, spacing):
        # samples on nodes and cell centres; rho equal to lattice distances
        lat = pointset.square_lattice(spacing, half_extent=4 * spacing)
        rows = np.concatenate([lat.points[::3], lat.points[::5] + spacing * (0.5 + 0.5j)])
        for rho in spacing * np.array([1.0, 2.0, math.sqrt(2.0), math.sqrt(0.5), 3.0]):
            grid = assert_grid_counts(flat1, lat, rows, rho)
            if spacing != 0.7:  # binary spacings: on-lattice distances are exact ties
                inside = [sum(1 for p in lat.points[:, 0] if abs(p - z) < rho) for z in rows[:, 0]]
                assert np.array_equal(grid, inside)
        centre = pointset.PointSet(np.array([[0j]]))
        ring = spacing * np.array([[1], [1j], [-1], [-1j]], dtype=complex)
        assert hi.count_in_ball(flat1, centre, ring, spacing).tolist() == [0, 0, 0, 0]

    def test_ball_ties_excluded(self, disk):
        # rho is the computed distance of a node: the open ball leaves it out
        nodes = pointset.PointSet(np.array([[0.5 + 0j], [-0.5 + 0j], [0.5j], [0.3 - 0.2j]]))
        rows = np.array([[0j], [0.1 + 0.1j]])
        for x in rows:
            for p in nodes.points:
                assert_grid_counts(disk, nodes, rows, float(geometry.geodesic_distances(disk, p, x)))

    def test_ball_reach_widened_past_rounding(self, disk):
        # a node at the origin makes the Euclidean reach tight: with rho one
        # ulp above each sample's distance, about 5% of these samples fall
        # outside the unwidened reach to rounding
        origin = pointset.PointSet(np.zeros((1, 1), complex))
        rng = np.random.default_rng(3)
        rows = 0.999 * np.sqrt(rng.random((1000, 1))) * np.exp(2j * np.pi * rng.random((1000, 1)))
        d = geometry.geodesic_distances(disk, origin.points, rows)
        for x, rho in zip(rows, np.nextafter(d, math.inf)):
            assert hi.count_in_ball(disk, origin, x, rho) == 1

    def test_coordinates_near_two_to_the_500(self, flat1):
        big = 2.0 ** 500
        nodes = np.array([[big], [big + 2.0 ** 449], [2 * big], [4 * big], [-big], [1j * big], [0j]])
        rows = np.array([[big], [3 * big], [4 * big], [-big - 2.0 ** 450], [0j]])
        pts = pointset.PointSet(nodes)
        for rho in (2.0 ** 448, 2.0 ** 450, 1.5 * big, 3.5 * big):
            assert_grid_counts(flat1, pts, rows, rho)
        assert hi.count_in_ball(flat1, pts, 4 * big, 1.0) == 1
        # the node -2**500 lies exactly at 2**450 from its sample: excluded
        assert hi.count_in_ball(flat1, pts, rows, 2.0 ** 450).tolist() == [2, 0, 1, 0, 1]

    def test_tiny_radius_is_strict(self, flat1, disk):
        # the node is 1e-200 (disks: 2e-200) from the sample: outside the
        # radius-1e-250 ball (its squared distance underflows to 0), inside
        # the radius-3e-200 one
        for space in (flat1, disk, hi.hyperbolic_ball(1e150)):
            node = pointset.PointSet(np.array([[1e-200 + 0j]]))
            assert hi.count_in_ball(space, node, 0.0, 1e-250) == 0
            assert hi.count_in_ball(space, node, 0.0, 3e-200) == 1

    def test_empty_set_and_one_row_grid(self, flat1, disk):
        empty = pointset.PointSet(np.zeros((0, 1), complex))
        assert hi.count_in_ball(flat1, empty, 0.0, 1.0) == 0
        counts = hi.count_in_ball(disk, empty, np.array([[0j], [0.5j]]), 1.0)
        assert counts.tolist() == [0, 0] and counts.dtype.kind == "i"
        lat = pointset.square_lattice(1.0, half_extent=2.0)
        one = hi.count_in_ball(flat1, lat, np.array([[0.5 + 0j]]), 1.2)
        assert isinstance(one, np.ndarray) and one.tolist() == [6]
        assert type(hi.count_in_ball(flat1, lat, 0.5, 1.2)) is int

    def test_grid_rows_validated(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j]]))
        with pytest.raises(DomainError):
            hi.count_in_ball(disk, pts, np.array([[0j], [1.0 + 0j]]), 1.0)
        with pytest.raises(DomainError):
            hi.count_in_ball(disk, pts, np.array([[0j]]), 0.0)


class TestSeipDensity:
    def test_flat_rejected(self, flat1):
        with pytest.raises(SpaceMismatchError):
            hi.seip_density(flat1, pointset.PointSet(np.array([[0j]])), 0.5)

    def test_empty(self, disk):
        assert hi.seip_density(disk, pointset.PointSet(np.zeros((0, 1), complex)), 0.0) == 0.0

    def test_cutoff_excludes_near_node(self, disk):
        # node at geodesic distance 0.5 < 1 contributes nothing
        r = math.tanh(0.25)
        pts = pointset.PointSet(np.array([[complex(r)]]))
        assert hi.seip_density(disk, pts, 0.0) == 0.0

    def test_single_term_value(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j]]))  # d = 2*atanh(1/2) >= 1
        assert hi.seip_density(disk, pts, 0.0) == pytest.approx(LOG4, abs=1e-12)

    def test_additive_over_disjoint_union(self, disk, rng):
        a = pointset.PointSet(np.array([[0.5 + 0j], [0.6j]]))
        b = pointset.PointSet(np.array([[-0.55 + 0.1j], [0.3 - 0.6j]]))
        union = pointset.PointSet(np.vstack([a.points, b.points]))
        x = 0.05 - 0.02j
        assert hi.seip_density(disk, union, x) == pytest.approx(
            hi.seip_density(disk, a, x) + hi.seip_density(disk, b, x), rel=1e-12)

    def test_term_decreases_to_zero(self, disk):
        vals = []
        for r in np.linspace(0.47, 0.999, 60):
            pts = pointset.PointSet(np.array([[complex(r)]]))
            vals.append(hi.seip_density(disk, pts, 0.0))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 5e-3

    def test_cutoff_override(self, disk):
        r = math.tanh(0.25)
        pts = pointset.PointSet(np.array([[complex(r)]]))
        assert hi.seip_density(disk, pts, 0.0, cutoff=0.1) > 0.0


def density_sets():
    """(space, node set, grid rows): disk and n = 2 ball sets with nodes in
    and out of the cutoff, and an empty set."""
    rng = np.random.default_rng(7)
    disk = hi.hyperbolic_ball(1.0)
    ball2 = hi.hyperbolic_ball(2.0, n=2)
    r1 = 0.9 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    g1 = 0.8 * np.sqrt(rng.uniform(0, 1, 25)) * np.exp(2j * np.pi * rng.uniform(0, 1, 25))
    z2 = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    z2 *= 1.8 * rng.uniform(0, 1, (30, 1)) / np.linalg.norm(z2, axis=1, keepdims=True)
    return [
        (disk, pointset.PointSet(r1[:, None]), g1[:, None]),
        (disk, pointset.PointSet(np.zeros((0, 1), complex)), g1[:, None]),
        (ball2, pointset.PointSet(z2[:20]), z2[20:]),
    ]


class TestSeipDensityGrid:
    @pytest.mark.parametrize("cutoff", [pointset.DENSITY_CUTOFF, 0.3, 2.5])
    @pytest.mark.parametrize("case", range(3), ids=["disk", "disk_empty", "ball_n2"])
    def test_grid_equals_stacked_points(self, case, cutoff):
        space, pts, rows = density_sets()[case]
        grid = hi.seip_density(space, pts, rows, cutoff=cutoff)
        single = np.array([hi.seip_density(space, pts, x, cutoff=cutoff) for x in rows])
        assert isinstance(grid, np.ndarray) and grid.shape == (len(rows),)
        assert isinstance(hi.seip_density(space, pts, rows[0], cutoff=cutoff), float)
        assert grid.tobytes() == single.tobytes()

    def test_grid_spanning_several_blocks(self, monkeypatch):
        space, pts, rows = density_sets()[0]
        whole = hi.seip_density(space, pts, rows)
        monkeypatch.setattr(pointset, "DENSITY_BLOCK", 3 * len(pts))
        assert hi.seip_density(space, pts, rows).tobytes() == whole.tobytes()

    def test_grid_matches_term_sum(self):
        space, pts, rows = density_sets()[0]
        d = np.array([[hi.distance(space, p, x) for p in pts.points] for x in rows])
        terms = np.where(d >= 1.0, -2.0 * np.log(np.tanh(d / 2.0)), 0.0)
        np.testing.assert_allclose(hi.seip_density(space, pts, rows), terms.sum(axis=1),
                                   rtol=1e-14)

    def test_grid_row_outside_ball_rejected(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j]]))
        with pytest.raises(DomainError):
            hi.seip_density(disk, pts, np.array([[0.0], [1.0 + 0j]]))
        with pytest.raises(DomainError):
            hi.seip_density(disk, pointset.PointSet(np.zeros((0, 1), complex)),
                            np.array([[complex(math.nan)]]))


def mp_density(space, pts, x, cutoff):
    """40-digit reference: ``-log tanh^2(d/2kappa)`` over the nodes at
    ``d >= cutoff``, from the float coordinates."""
    with mpmath.workdps(40):
        kap = mpmath.mpf(space.kappa)
        xs = [mpmath.mpc(complex(c)) for c in x]
        room_x = kap ** 2 - sum(abs(c) ** 2 for c in xs)
        total = mpmath.mpf(0)
        for p in pts.points:
            ps = [mpmath.mpc(complex(c)) for c in p]
            diff = sum(abs(a - b) ** 2 for a, b in zip(ps, xs))
            u = kap ** 2 * diff / (room_x * (kap ** 2 - sum(abs(c) ** 2 for c in ps)))
            d = 2 * kap * mpmath.asinh(mpmath.sqrt(u))
            if d >= cutoff:
                total += -mpmath.log(mpmath.tanh(d / (2 * kap)) ** 2)
        return float(total)


def tanh_density(space, pts, rows, cutoff):
    """The ``-log tanh^2`` form over ``geodesic_distances``."""
    d = geometry.geodesic_distances(space, pts.points[None], rows[:, None])
    d = np.where(d >= cutoff, d, math.inf)
    return -2.0 * np.sum(np.log(np.tanh(d / (2.0 * space.kappa))), axis=1)


@pytest.mark.filterwarnings("error")
class TestDensityTerm:
    @pytest.mark.parametrize("cutoff", [pointset.DENSITY_CUTOFF, 0.3, 2.5, 0.0])
    @pytest.mark.parametrize("case", [0, 2], ids=["disk", "ball_n2"])
    def test_matches_mpmath_and_tanh_form(self, case, cutoff):
        space, pts, rows = density_sets()[case]
        got = hi.seip_density(space, pts, rows, cutoff=cutoff)
        ref = np.array([mp_density(space, pts, x, cutoff) for x in rows])
        assert got.any()
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got, tanh_density(space, pts, rows, cutoff), rtol=1e-13, atol=0)

    def test_far_nodes(self):
        # nodes near the rim with exact |p|^2 (on the axes at 1 - 2**-k,
        # k <= 26), so the terms are small and well posed: log1p keeps the
        # digits that log(tanh) loses there (3.6e-12 relative)
        space = hi.hyperbolic_ball(1.0)
        radii = 1.0 - 2.0 ** -np.arange(16.0, 27.0)
        nodes = (radii[:, None] * np.array([1, 1j, -1, -1j])).reshape(-1, 1)
        rows = np.array([[0j], [0.3 - 0.1j], [-0.45 + 0.2j]])
        pts = pointset.PointSet(nodes)
        got = hi.seip_density(space, pts, rows)
        np.testing.assert_allclose(got, [mp_density(space, pts, x, 1.0) for x in rows],
                                   rtol=1e-15, atol=0)

    def test_sample_on_a_node_adds_zero(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j], [-0.6j], [0.1 + 0.2j]]))
        rest = pointset.PointSet(pts.points[:2])
        x = pts.points[2]
        assert hi.seip_density(disk, pts, x) == hi.seip_density(disk, rest, x) > 0.0
        grid = hi.seip_density(disk, pts, pts.points)
        assert grid.tolist() == [hi.seip_density(disk, pts, p) for p in pts.points]

    def test_cutoff_zero_takes_every_node(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j], [-0.6j], [0.1 + 0.2j]]))
        x = np.array([0.05 - 0.02j])
        assert hi.seip_density(disk, pts, x, cutoff=0.0) == pytest.approx(
            mp_density(disk, pts, x, 0.0), rel=1e-13)
        assert hi.seip_density(disk, pts, x, cutoff=-1.0) == hi.seip_density(disk, pts, x, cutoff=0.0)
        # at d = 0 the term is infinite, as the tanh form gives it
        assert hi.seip_density(disk, pts, pts.points[2], cutoff=0.0) == math.inf

    @pytest.mark.parametrize("cutoff", [60.0, 1e6, 1e308])
    def test_large_or_nan_cutoff_adds_zero(self, disk, cutoff):
        # a NaN or infinite cutoff is refused (test_non_finite_cutoff_refused)
        space, pts, rows = density_sets()[0]
        assert hi.seip_density(space, pts, rows, cutoff=cutoff).tolist() == [0.0] * len(rows)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, -math.inf])
    def test_non_finite_cutoff_refused(self, disk, cutoff):
        space, pts, rows = density_sets()[0]
        empty = pointset.PointSet(np.zeros((0, 1), complex))
        for nodes, x in ((pts, rows), (pts, rows[0]), (empty, rows)):
            with pytest.raises(DomainError, match="cutoff must be finite"):
                hi.seip_density(space, nodes, x, cutoff=cutoff)
        with pytest.raises(DomainError, match="cutoff must be finite"):
            hi.sup_density(space, pts, rows, cutoff=cutoff)

    @pytest.mark.parametrize("bad", [1.5 + 0j, -1.0 + 0j, 1j, 3.0 - 4.0j])
    def test_node_off_the_ball_refused(self, disk, bad):
        # a node off the ball or on its rim is refused by the density and
        # the ball count alike, as a sample there is
        pts = pointset.PointSet(np.array([[0.5 + 0j], [bad]]))
        rows = np.array([[0j], [0.2 - 0.1j]])
        with pytest.raises(DomainError, match="outside the open ball"):
            hi.seip_density(disk, pts, rows)
        with pytest.raises(DomainError, match="outside the open ball"):
            hi.count_in_ball(disk, pts, rows, 0.5)
        with pytest.raises(DomainError, match="outside the open ball"):
            hi.sup_density(disk, pts, rows[:, 0])

    def test_empty_set_is_not_validated(self):
        # an empty PointSet is stored as (0, 1) whatever the dimension; it
        # counts and adds nothing on the n = 2 ball as on the disk
        ball2, empty = hi.hyperbolic_ball(1.0, n=2), pointset.PointSet(np.zeros((0, 2), complex))
        rows = np.array([[0j, 0.5 + 0j], [0.1j, 0j]])
        assert hi.count_in_ball(ball2, empty, rows, 1.0).tolist() == [0, 0]
        assert hi.seip_density(ball2, empty, rows).tolist() == [0.0, 0.0]


class TestSupDensity:
    def test_empty_grid_rejected(self, disk):
        with pytest.raises(DomainError):
            hi.sup_density(disk, pointset.PointSet(np.zeros((0, 1), complex)), [])

    def test_empty_set(self, disk):
        sup = hi.sup_density(disk, pointset.PointSet(np.zeros((0, 1), complex)), [0.0, 0.3])
        assert sup.value == 0.0

    def test_singleton_far_grid(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j]]))
        sup = hi.sup_density(disk, pts, [-0.5 + 0j])
        assert sup.value == pytest.approx(hi.seip_density(disk, pts, -0.5 + 0j), rel=1e-14)
        assert sup.index == 0

    def test_first_maximiser_on_tied_grid(self, disk):
        # nodes symmetric under z -> -z: the density ties at -0.3 and 0.3,
        # where it is largest, and the first of the tied maxima wins
        pts = pointset.PointSet(np.array([[0.7 + 0j], [-0.7 + 0j]]))
        grid = [0.0, 0.1j, -0.3, 0.3, 0.1]
        vals = hi.seip_density(disk, pts, pointset.grid_rows(disk, grid))
        assert vals[2] == vals[3] == max(vals)
        sup = hi.sup_density(disk, pts, grid)
        assert (sup.value, sup.index) == (vals[2], 2)
        assert sup.argmax.tolist() == [-0.3 + 0j]

    def test_list_of_scalars(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j], [-0.5 + 0j]]))
        grid = [0.0, 0.1 + 0.2j, -0.4]
        sup = hi.sup_density(disk, pts, grid)
        rows = hi.sup_density(disk, pts, np.array(grid)[:, None])
        assert (sup.value, sup.index) == (rows.value, rows.index)
        assert sup.value == max(hi.seip_density(disk, pts, z) for z in grid)

    def test_refining_grids_monotone(self, disk):
        pts = pointset.PointSet(np.array([[0.5 + 0j], [-0.5 + 0j], [0.5j], [-0.5j]]))
        sups = []
        for m in (3, 5, 9, 17):
            grid = [complex(x, y) for x in np.linspace(-0.4, 0.4, m)
                    for y in np.linspace(-0.4, 0.4, m)]
            sups.append(hi.sup_density(disk, pts, grid).value)
        # each refinement contains the previous grid points (up to float
        # placement noise in linspace)
        assert all(b >= a - 1e-12 for a, b in zip(sups, sups[1:]))


class TestGenerators:
    def test_square_lattice_truncations(self):
        lat = pointset.square_lattice(2.0, radius=2.0)
        assert len(lat) == 5  # origin and the four axis neighbors
        lat2 = pointset.square_lattice(1.0, half_extent=2.0)
        assert len(lat2) == 25
        with pytest.raises(DomainError):
            pointset.square_lattice(1.0)

    @staticmethod
    def loop_lattice(spacing, radius=None, half_extent=None):
        """The per-point double loop the array construction replaced."""
        pts = []
        if radius is not None:
            m = int(math.floor(radius / spacing))
            for a in range(-m, m + 1):
                for b in range(-m, m + 1):
                    z = spacing * complex(a, b)
                    if abs(z) <= radius + 1e-12:
                        pts.append(z)
        else:
            m = int(math.floor(half_extent / spacing + 1e-12))
            for a in range(-m, m + 1):
                for b in range(-m, m + 1):
                    pts.append(spacing * complex(a, b))
        return np.array(pts, dtype=complex).reshape(-1, 1)

    @pytest.mark.parametrize("spacing,kw", [
        (2.0, {"radius": 2.0}),
        (1.0, {"radius": 26.0}),
        (0.7, {"radius": 0.7 * 3}),     # r / s rounds just below 3
        (1.3, {"radius": 1.3 * 7}),
        (1.6, {"radius": 8.0}),         # r / s = 5 exactly
        (0.3, {"radius": 0.9}),
        (3.0, {"radius": 0.5}),         # the origin alone
        (0.1, {"radius": 0.95}),
        (2.0, {"half_extent": 4.0}),
        (1.5, {"half_extent": 6.0}),
        (0.7, {"half_extent": 0.7 * 3}),
    ])
    def test_square_lattice_equals_the_loop(self, spacing, kw):
        got = pointset.square_lattice(spacing, **kw).points
        want = self.loop_lattice(spacing, **kw)
        assert got.shape == want.shape
        # bytes compare signed zeros too
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.1, 3.0), st.integers(0, 20), st.integers(0, 20),
           st.sampled_from([-1e-12, -1e-15, 0.0, 1e-15, 1e-13, 0.5]))
    def test_mask_of_a_larger_lattice_is_the_loop_lattice(self, spacing, k, extra, nudge):
        # the sweep's smaller radii: the rows of the largest lattice that the
        # truncation rule keeps are the loop's points in the loop's order, at
        # radii on, just inside and just outside a multiple of the spacing
        radius = spacing * k + nudge
        assume(radius >= 0)
        big = pointset.square_lattice(spacing, radius=radius + extra * spacing).points[:, 0]
        got = big[pointset._in_disk(big, spacing, radius)]
        assert got.tobytes() == self.loop_lattice(spacing, radius=radius)[:, 0].tobytes()

    def test_grid_points_order(self):
        g = pointset.grid_points(0, 1, 2, 0, 1, 2)
        assert np.array_equal(g, np.array([0, 1, 1j, 1 + 1j]))
