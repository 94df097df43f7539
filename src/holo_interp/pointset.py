"""Discrete point sets: separation statistics, ball counts, and the
hyperbolic (Seip-type) density used by the negative-curvature certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import geometry
from .errors import DomainError, SpaceMismatchError

#: Literal cutoff in the density sum: nodes at distance >= 1 contribute.
DENSITY_CUTOFF = 1.0
#: Distances per block of grid rows in ``seip_density``
DENSITY_BLOCK = 2 ** 15
#: Samples per k-d tree query in ``near_pairs``.  The query returns one list
#: per sample; the lists alive when the garbage collector runs move to its
#: oldest generation, and how fast that generation grows sets how often a
#: full collection runs.
NEAR_BLOCK = 256


@dataclass
class PointSet:
    """A finite set of points with optional complex target values.

    ``points`` has shape (m, n); ``values`` (when present) shape (m,).
    Points must be finite and pairwise distinct, values finite.
    """

    points: np.ndarray
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.size == 0:
            pts = pts.reshape(0, 1)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise DomainError("points must form an (m, n) array")
        self.points = pts
        if self.values is not None:
            vals = np.asarray(self.values, dtype=complex).reshape(-1)
            if vals.size != pts.shape[0]:
                raise DomainError("values length must equal the number of points")
            if not np.all(np.isfinite(vals)):
                raise DomainError("values must be finite")
            self.values = vals
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must have finite coordinates")
        _check_distinct(self.points)

    def __len__(self):
        return self.points.shape[0]

    def with_values(self, values) -> "PointSet":
        return PointSet(self.points.copy(), np.asarray(values, dtype=complex))


def _check_distinct(pts: np.ndarray):
    m = pts.shape[0]
    if m < 2:
        return
    view = pts.view(float).reshape(m, -1)
    order = np.lexsort(view.T[::-1])
    sorted_rows = view[order]
    if np.any(np.all(sorted_rows[1:] == sorted_rows[:-1], axis=1)):
        raise DomainError("points must be pairwise distinct")


def pointset_from_dict(d: dict) -> PointSet:
    """Build a PointSet from the JSON schema.

    Each point is ``[re, im]`` (one coordinate) or a list of ``[re, im]``
    pairs (n coordinates); ``values`` entries are ``[re, im]``.  Anything
    else (a non-numeric or boolean entry, a pair of the wrong length, ragged
    points) raises ``DomainError``.
    """
    if not isinstance(d, dict):
        raise DomainError("a point file is a JSON object")
    raw_pts = d.get("points", [])
    if not isinstance(raw_pts, list):
        raise DomainError("'points' must be a list")
    arr = _pairs_array(raw_pts, 1)
    if arr is None:
        arr = _pairs_array(raw_pts, 2)
    if arr is None:
        pts = [_parse_point(p) for p in raw_pts]
        if pts:
            n = len(pts[0])
            if any(len(p) != n for p in pts):
                raise DomainError("all points must have the same number of coordinates")
            arr = np.array(pts, dtype=complex)
        else:
            arr = np.zeros((0, 1), dtype=complex)
    values = None
    if d.get("values") is not None:
        if not isinstance(d["values"], list):
            raise DomainError("'values' must be a list")
        values = _pairs_array(d["values"], 1)
        if values is None:
            values = np.array([_parse_pair(v) for v in d["values"]], dtype=complex)
        values = values.reshape(-1)
    return PointSet(arr, values)


def _pairs_array(raw: list, depth: int) -> Optional[np.ndarray]:
    """``raw`` as a (len(raw), k) complex array when it is ``depth`` levels
    of lists, equally long at each level, ending in ``[re, im]`` pairs of
    ``int``/``float`` entries; ``None`` otherwise, and for an empty list.

    Every check is a C-level pass over one level (``map`` and
    ``chain.from_iterable``); the flattened last level becomes the float
    array, viewed as complex, so ``[-0.0, -0.0]`` keeps both signs as
    ``complex(re, im)`` does.  A ``None`` sends the caller to the per-entry
    parser, which names what is wrong.
    """
    level = raw
    for _ in range(depth):
        if set(map(type, level)) != {list} or len(set(map(len, level))) != 1:
            return None
        width = len(level[0])
        level = list(chain.from_iterable(level))
    if width != 2 or not set(map(type, level)) <= {int, float}:
        return None
    return np.array(level, dtype=float).view(complex).reshape(len(raw), -1)


def _is_pair(c) -> bool:
    """``c`` is a ``[re, im]`` pair of numbers (a boolean is not a number)."""
    return (isinstance(c, (list, tuple)) and len(c) == 2
            and isinstance(c[0], (int, float)) and isinstance(c[1], (int, float))
            and type(c[0]) is not bool and type(c[1]) is not bool)


def _parse_pair(c) -> complex:
    if not _is_pair(c):
        raise DomainError(f"expected a [re, im] pair of numbers, got {c!r}")
    return complex(c[0], c[1])


def _parse_point(p) -> list:
    if _is_pair(p):
        return [complex(p[0], p[1])]
    if not (isinstance(p, (list, tuple)) and p):
        raise DomainError(f"a point is [re, im] or a list of [re, im] pairs, got {p!r}")
    return [_parse_pair(c) for c in p]


# ---------------------------------------------------------------------------
# separation

@dataclass(frozen=True)
class SeparationReport:
    """Minimum pairwise geodesic distance and the derived gluing radius.

    ``delta0 = min(min_pairwise_distance, r0) / 2`` where ``r0`` is the
    frame radius supplied by the weight (infinite when absent).
    """

    min_pairwise_distance: float
    arg_pair: Optional[tuple]
    delta0: float
    r0: float = math.inf


def separation(space: geometry.ModelSpace, pts: PointSet, r0: float = math.inf) -> SeparationReport:
    """Exact minimum pairwise distance over the pairs i < j of the validated
    nodes, any number of them, and the first pair attaining it in
    lexicographic order (None when it is infinite: flat coordinates whose
    difference overflows).

    A k-d tree's Euclidean nearest neighbours bound the minimum by ``U``; the
    tree gives every pair within ``U`` (flat: one ``query_pairs`` pass at the
    one ``_reach``; ball: each node's own reach, which shrinks towards the
    rim), and a ``lexsort`` on their exact ``(d, i, j)`` the first.  The
    closed form is symmetric to the bit: this is the all-pairs minimum.
    """
    if len(pts) <= 1:
        return SeparationReport(math.inf, None, min(math.inf, r0) / 2.0, r0)
    from scipy.spatial import cKDTree  # here, not at import: interpolate and sweep build no tree

    points = space.validate_points(pts.points)
    tree = cKDTree(_tree_coords(points))
    nearest = tree.query(tree.data, k=2)[1]
    nearest = np.where(nearest[:, 1] == np.arange(len(points)), nearest[:, 0], nearest[:, 1])
    reach = _reach(space, points, np.fmin.reduce(
        geometry.geodesic_distances(space, points[nearest], points)))
    if space.is_flat:
        i, j = tree.query_pairs(float(reach), output_type="ndarray").T
    else:
        found = tree.query_ball_point(tree.data, reach)
        i = np.repeat(np.arange(len(points)), [len(js) for js in found])
        j = np.fromiter(chain.from_iterable(found), np.intp, len(i))
        i, j = i[j > i], j[j > i]
    d = geometry.geodesic_distances(space, points[i], points[j])
    k = np.lexsort((j, i, d))[0]
    dmin, pair = (float(d[k]), (int(i[k]), int(j[k]))) if d[k] < math.inf else (math.inf, None)
    return SeparationReport(dmin, pair, min(dmin, r0) / 2.0, r0)


def near_pairs(space: geometry.ModelSpace, nodes: np.ndarray, xs: np.ndarray, dist):
    """The (sample, node) pairs that may lie within geodesic distance
    ``dist``, as arrays ``(i, j, d)``: every pair with ``d(xs[i], nodes[j])
    <= dist`` is among them, in sample-major order with ``j`` ascending,
    and ``d`` is ``geometry.geodesic_distances`` of each pair.

    A k-d tree over the nodes gives each sample's nodes within its Euclidean
    reach (``_reach``), ``NEAR_BLOCK`` samples per query; no dense
    node-by-sample array is built.  Neither array is validated, and each
    caller applies its own exact test to ``d``.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(_tree_coords(nodes))
    coords = _tree_coords(xs)
    reach = np.broadcast_to(_reach(space, xs, dist), len(xs))
    lengths, js = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for s in range(0, len(xs), NEAR_BLOCK):
        found = tree.query_ball_point(coords[s:s + NEAR_BLOCK], reach[s:s + NEAR_BLOCK],
                                      return_sorted=True)
        lengths.append(np.fromiter(map(len, found), np.intp, len(found)))
        js.append(np.fromiter(chain.from_iterable(found), np.intp, lengths[-1].sum()))
    i = np.repeat(np.arange(len(xs)), np.concatenate(lengths))
    j = np.concatenate(js)
    return i, j, geometry.geodesic_distances(space, nodes[j], xs[i])


def _tree_coords(points):
    """(m, n) complex points as the real (m, 2n) rows of a k-d tree, which
    squares coordinate differences: clipping to +-2**500 shortens no distance
    and keeps those squares finite, and a square that underflows admits more."""
    return np.clip(np.ascontiguousarray(points).view(float), -2.0 ** 500, 2.0 ** 500)


def _reach(space, points, dist):
    """Euclidean radius about each (m, n) point holding every point within
    geodesic distance ``dist``: ``dist`` flat, ``sqrt(room) sinh(dist/2kappa)``
    on the ball (``|z-w| = x sqrt(room_z room_w) / kappa^2`` with ``x``, the
    room and ``room_w <= kappa^2`` as in ``geometry.geodesic_distances``),
    widened past rounding and underflowing squares; NaN and overflow are inf."""
    radii = dist
    with np.errstate(over="ignore", invalid="ignore"):
        if not space.is_flat:
            radii = np.sqrt(geometry._room(space, points)) * np.sinh(dist / (2.0 * space.kappa))
        return np.where(radii >= 0.0, radii * (1.0 + 1e-9) + 1e-150, math.inf)


# ---------------------------------------------------------------------------
# counting and density

def count_in_ball(space: geometry.ModelSpace, pts: PointSet, z, rho: float):
    """Number of set points inside the open geodesic ball B(z, rho).

    ``z`` is one point (an ``int`` result) or an (m, n) grid (an (m,) int
    array).  The nodes and the samples are validated; a node off the ball
    raises ``DomainError``.  Only the candidates of ``near_pairs`` get the
    strict test ``d < rho``.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    xs, single = space.validate_rows(z)
    counts = np.zeros(len(xs), dtype=np.intp)
    if len(pts):
        space.validate_points(pts.points)
        i, _, d = near_pairs(space, pts.points, xs, rho)
        counts = np.bincount(i[d < rho], minlength=len(xs))
    return int(counts[0]) if single else counts


def grid_rows(space: geometry.ModelSpace, grid) -> np.ndarray:
    """A sample grid (points, or scalars when n = 1) as validated (m, n) rows."""
    zs = np.asarray(list(grid), dtype=complex)
    return space.validate_points(zs[:, None] if zs.ndim == 1 and space.n == 1 else zs)


def seip_density(space: geometry.ModelSpace, pts: PointSet, x,
                 cutoff: float = DENSITY_CUTOFF):
    """Sum of ``-log tanh^2(d(x,p)/(2 kappa))`` over nodes at distance >= cutoff.

    ``x`` is one point (a float result) or an (m, n) grid (an (m,) array).
    Requires a hyperbolic ball; each contributing term is positive and
    decreases to 0 as the node recedes.  It is ``log1p(w)``, ``w = 1/u`` with
    ``u`` as in ``geometry.geodesic_distances``, every length over kappa; ``d
    >= cutoff`` is ``w <= 1/sinh^2(cutoff/2kappa)``.  Where ``|x-p|^2/kappa^2``
    is not a normal float, ``d/2kappa < 1e-138`` and the term is ``2 log(2
    kappa/d)``, kept for ``d >= cutoff``: ``inf`` only on a node.  NaN and a
    ``w <= 0`` add exactly 0.  A non-finite ``cutoff`` and a node or sample
    off the ball are refused with ``DomainError``.
    """
    if space.is_flat:
        raise SpaceMismatchError("the density is defined on the hyperbolic ball only")
    if not math.isfinite(cutoff):
        raise DomainError(f"density cutoff must be finite, got {cutoff}")
    xs, single = space.validate_rows(x)
    out = np.zeros(len(xs))
    if len(pts):
        space.validate_points(pts.points)
        kap, tiny = space.kappa, np.finfo(float).tiny
        room_p = geometry._room(space, pts.points) / (kap * kap)
        room_x = geometry._room(space, xs) / (kap * kap)
        nodes, samples = pts.points / kap, xs / kap
        step = max(1, DENSITY_BLOCK // len(pts))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w_max = 1.0 / np.sinh(max(cutoff, 0.0) / (2.0 * kap)) ** 2
            for i in range(0, len(xs), step):
                diff_sq = np.sum(np.abs(nodes - samples[i:i + step, None]) ** 2, axis=-1)
                w = room_x[i:i + step, None] * room_p / diff_sq
                terms = np.log1p(np.where((w >= 0.0) & (w <= w_max), w, 0.0))
                if diff_sq.min() < tiny:
                    r, c = np.nonzero(diff_sq < tiny)
                    d = geometry.geodesic_distances(space, pts.points[c], xs[i + r])
                    terms[r, c] = np.where(d >= cutoff, 2.0 * (math.log(2.0 * kap) - np.log(d)), 0.0)
                out[i:i + step] = np.sum(terms, axis=1)
    return float(out[0]) if single else out


class GridSupremum(NamedTuple):
    value: float
    argmax: np.ndarray
    index: int


def sup_density(space: geometry.ModelSpace, pts: PointSet, sample_grid: Sequence,
                cutoff: float = DENSITY_CUTOFF) -> GridSupremum:
    """Maximum of the density over a sample grid, with the first maximizing
    point.

    This is a grid supremum, not the supremum over the whole space; reports
    label it accordingly.
    """
    xs = grid_rows(space, sample_grid)
    if not len(xs):
        raise DomainError("sample grid must be nonempty")
    vals = seip_density(space, pts, xs, cutoff=cutoff)
    i = int(np.argmax(vals))
    return GridSupremum(float(vals[i]), xs[i], i)


# ---------------------------------------------------------------------------
# generators

def square_lattice(spacing: float, radius: Optional[float] = None,
                   half_extent: Optional[float] = None) -> PointSet:
    """Scaled integer lattice ``spacing * (a + i b)`` in the plane (n = 1).

    Keep points with ``|z| <= radius`` or with ``max(|a|,|b|) * spacing <=
    half_extent``; exactly one of the two truncations must be given.
    """
    if (radius is None) == (half_extent is None):
        raise DomainError("specify exactly one of radius or half_extent")
    for name, val in (("spacing", spacing), ("radius", radius), ("half_extent", half_extent)):
        if val is not None and not math.isfinite(val):
            raise DomainError(f"lattice {name} must be finite, got {val}")
    if spacing <= 0:
        raise DomainError("spacing must be positive")
    if radius is not None:
        m = int(math.floor(radius / spacing))
    else:
        m = int(math.floor(half_extent / spacing + 1e-12))
    # a-major; every zero coordinate is +0.0, as in spacing * complex(a, b)
    axis = spacing * np.arange(-m, m + 1, dtype=float)
    z = np.empty((len(axis), len(axis)), dtype=complex)
    z.real = axis[:, None]
    z.imag = axis[None, :]
    z = z.reshape(-1, 1)
    if radius is not None:
        z = z[_in_disk(z[:, 0], spacing, radius)]
    return PointSet(z)


def _in_disk(z: np.ndarray, spacing: float, radius: float) -> np.ndarray:
    """The mask of ``z = spacing (a + i b)`` (shape (N,)) with ``|a|, |b| <= floor(radius /
    spacing)`` (exact: rounding is monotone) and ``|z| <= radius + 1e-12``."""
    edge = spacing * math.floor(radius / spacing)
    # np.hypot rounds as the scalar abs(); numpy's array complex abs may not
    return ((np.maximum(np.abs(z.real), np.abs(z.imag)) <= edge)
            & (np.hypot(z.real, z.imag) <= radius + 1e-12))


def grid_points(x0: float, x1: float, nx: int, y0: float, y1: float, ny: int) -> np.ndarray:
    """Row-major rectangular sample grid of complex points (x fastest)."""
    if nx < 1 or ny < 1:
        raise DomainError("grid must contain at least one point per axis")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    out = (xs[None, :] + 1j * ys[:, None]).reshape(-1)
    return out
