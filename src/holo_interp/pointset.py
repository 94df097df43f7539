"""Discrete point sets: separation statistics, ball counts, and the
hyperbolic (Seip-type) density used by the negative-curvature certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .errors import DomainError, SizeGuardError, SpaceMismatchError

PAIR_GUARD = 10_000_000

#: Literal cutoff in the density sum: nodes at distance >= 1 contribute.
DENSITY_CUTOFF = 1.0
#: Distances per block of grid rows in ``seip_density``
DENSITY_BLOCK = 2 ** 15


@dataclass
class PointSet:
    """A finite set of points with optional complex target values.

    ``points`` has shape (m, n); ``values`` (when present) shape (m,).
    Points must be finite and pairwise distinct.
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
            self.values = vals
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must have finite coordinates")
        _check_distinct(self.points)

    def __len__(self):
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.points[i]

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


def pointset_to_dict(pts: PointSet, space: Optional[geometry.ModelSpace] = None) -> dict:
    out: dict = {}
    if space is not None:
        out["space"] = geometry.space_to_dict(space)
    out["points"] = [[[c.real, c.imag] for c in row] if len(row) > 1 else [row[0].real, row[0].imag]
                     for row in pts.points]
    if pts.values is not None:
        out["values"] = [[v.real, v.imag] for v in pts.values]
    return out


def _pairs_array(raw: list, depth: int) -> Optional[np.ndarray]:
    """``raw`` as a (len(raw), k) complex array when it is ``depth`` levels
    of lists, equally long at each level, ending in ``[re, im]`` pairs of
    ``int``/``float`` entries; ``None`` otherwise, and for an empty list.

    Every check is a C-level pass over one level (``map`` and
    ``chain.from_iterable``), and the float array is viewed as complex, so
    ``[-0.0, -0.0]`` keeps both signs as ``complex(re, im)`` does.  A ``None``
    sends the caller to the per-entry parser, which names what is wrong.
    """
    level = raw
    for _ in range(depth):
        if set(map(type, level)) != {list} or len(set(map(len, level))) != 1:
            return None
        width = len(level[0])
        level = list(chain.from_iterable(level))
    if width != 2 or not set(map(type, level)) <= {int, float}:
        return None
    return np.array(raw, dtype=float).view(complex).reshape(len(raw), -1)


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


def separation(space: geometry.ModelSpace, pts: PointSet, r0: float = math.inf,
               pair_guard: int = PAIR_GUARD, bucketed: bool = False) -> SeparationReport:
    """Exact minimum pairwise distance and its first minimising pair in
    lexicographic order (``_tree_min_pair``).

    The nodes are validated first.  Beyond ``pair_guard`` pairs a
    ``SizeGuardError`` is raised unless ``bucketed=True``, which lifts the
    guard on flat spaces and is refused on the ball; it selects no algorithm.
    """
    m = len(pts)
    if m <= 1:
        return SeparationReport(math.inf, None, min(math.inf, r0) / 2.0, r0)
    space.validate_points(pts.points)
    n_pairs = m * (m - 1) // 2
    if n_pairs > pair_guard and not bucketed:
        raise SizeGuardError(
            f"{n_pairs} pairs exceed the guard ({pair_guard}); "
            "pass bucketed=True (flat spaces) or reduce the set"
        )
    if bucketed and not space.is_flat:
        raise SizeGuardError("bucketed separation is implemented for flat spaces only")
    dmin, pair = _tree_min_pair(space, pts.points)
    return SeparationReport(dmin, pair, min(dmin, r0) / 2.0, r0)


def _tree_min_pair(space, points):
    """Minimum distance over the pairs i < j of m >= 2 valid, distinct (m, n)
    nodes and the first pair attaining it in lexicographic order (None when
    it is infinite; NaN, from a node on the rim to rounding, counts as inf).

    A k-d tree's Euclidean nearest neighbours bound the minimum by ``U``.
    Only the pairs within the Euclidean reach of ``U`` (``_reach``) get
    exact distances; the closed form is symmetric to the bit, so the minimum
    is the all-pairs one to the bit.
    """
    m = points.shape[0]
    tree = cKDTree(_tree_coords(points))
    rows = np.arange(m)
    nearest = tree.query(tree.data, k=2)[1]
    nearest = np.where(nearest[:, 1] == rows, nearest[:, 0], nearest[:, 1])
    radii = _reach(space, points, np.min(_pair_distances(space, points, rows, nearest)))
    found = tree.query_ball_point(tree.data, radii, return_sorted=True)
    i = np.repeat(rows, [len(js) for js in found])
    j = np.concatenate(found)
    i, j = i[j > i], j[j > i]
    d = _pair_distances(space, points, i, j)
    if d.min() == math.inf:
        return math.inf, None
    k = int(np.argmin(d))
    return float(d[k]), (int(i[k]), int(j[k]))


def _tree_coords(points):
    """(m, n) complex points as the real (m, 2n) rows of a k-d tree, clipped
    to +-2**500: clipping shortens no distance and keeps the squares finite."""
    return np.clip(np.ascontiguousarray(points).view(float), -2.0 ** 500, 2.0 ** 500)


def _reach(space, points, dist):
    """Euclidean radius about each (m, n) point holding every point within
    geodesic distance ``dist``: ``dist`` flat, ``sqrt(kappa^2 - |z|^2)
    sinh(dist/2kappa)`` on the ball (``|z-w|^2 = q sinh^2(d/2kappa)/kappa^2``),
    widened past rounding; NaN (0 * inf, a rim point) and overflow are inf."""
    radii = dist
    with np.errstate(over="ignore", invalid="ignore"):
        if not space.is_flat:  # room as rounded in geometry.geodesic_distances
            kap = space.kappa
            room = kap * kap - np.sum(np.abs(points) ** 2, axis=-1)
            radii = np.sqrt(room) * np.sinh(dist / (2.0 * kap))
        return np.where(radii >= 0.0, radii * (1.0 + 1e-9) + 1e-150, math.inf)


def _pair_distances(space, points, i, j):
    d = geometry.geodesic_distances(space, points[j], points[i])
    d[np.isnan(d)] = math.inf
    return d


# ---------------------------------------------------------------------------
# counting and density

def count_in_ball(space: geometry.ModelSpace, pts: PointSet, z, rho: float):
    """Number of set points inside the open geodesic ball B(z, rho).

    ``z`` is one point (an ``int`` result) or an (m, n) grid (an (m,) int
    array).  A k-d tree over the nodes gives each sample's candidates within
    its Euclidean reach (``_reach``); only they get the strict test
    ``d < rho``, with the distances ``geometry.distances_from`` gives.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    xs, single = space.validate_rows(z)
    counts = np.zeros(len(xs), dtype=np.intp)
    if len(pts):
        found = cKDTree(_tree_coords(pts.points)).query_ball_point(
            _tree_coords(xs), _reach(space, xs, rho))
        i = np.repeat(np.arange(len(xs)), [len(js) for js in found])
        j = np.fromiter(chain.from_iterable(found), np.intp, len(i))
        inside = geometry.geodesic_distances(space, pts.points[j], xs[i]) < rho
        counts = np.bincount(i[inside], minlength=len(xs))
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
    ``u`` as in ``geometry.geodesic_distances``; ``d >= cutoff`` is ``w <=
    1/sinh^2(cutoff/2kappa)``.  A sample on a node (``w = inf``, kept only for
    ``cutoff <= 0``), NaN and a node off the ball (``w < 0``) add exactly 0.
    """
    if space.is_flat:
        raise SpaceMismatchError("the density is defined on the hyperbolic ball only")
    xs, single = space.validate_rows(x)
    out = np.zeros(len(xs))
    if len(pts):
        kap2 = space.kappa * space.kappa
        with np.errstate(divide="ignore", over="ignore"):
            w_max = math.inf if cutoff <= 0 else min(
                1.0 / np.sinh(cutoff / (2.0 * space.kappa)) ** 2, np.finfo(float).max)
        room_p = kap2 - np.sum(np.abs(pts.points) ** 2, axis=-1)
        room_x = kap2 - np.sum(np.abs(xs) ** 2, axis=-1)
        step = max(1, DENSITY_BLOCK // len(pts))
        for i in range(0, len(xs), step):
            diff_sq = np.sum(np.abs(pts.points - xs[i:i + step, None]) ** 2, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = room_x[i:i + step, None] * room_p / (kap2 * diff_sq)
            out[i:i + step] = np.sum(np.log1p(np.where((w >= 0.0) & (w <= w_max), w, 0.0)), axis=1)
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
    return PointSet(np.array(pts, dtype=complex).reshape(-1, 1))


def grid_points(x0: float, x1: float, nx: int, y0: float, y1: float, ny: int) -> np.ndarray:
    """Row-major rectangular sample grid of complex points (x fastest)."""
    if nx < 1 or ny < 1:
        raise DomainError("grid must contain at least one point per axis")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    out = (xs[None, :] + 1j * ys[:, None]).reshape(-1)
    return out
