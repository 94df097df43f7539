"""Constructive interpolation pipeline: normal-frame local sections, smooth
cutoff gluing, the singular auxiliary weight with log poles on the node set,
and the dbar-energy quadrature of the glued extension.  ``evaluate_extension``
takes (G, n) rows and returns a (G,) array; ``AuxiliaryWeight.value`` takes one point.

The final holomorphic correction is not produced by a PDE solve; the
``rkhs`` module supplies the desk-scale interpolant with the same contract
(exact nodal values, finite weighted norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geometry, pointset, weights
from .errors import DomainError, QuadratureError, SpaceMismatchError


# ---------------------------------------------------------------------------
# cutoff

def _bump(u):
    out = np.zeros_like(u, dtype=float)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _partition(t):
    """Arguments ``(t, a, b, mid)`` of the bump partition: ``a = (1-t)/(3/4)``,
    ``b = (t-1/4)/(3/4)`` and the mask of the transition band 1/4 < t < 1
    (NaN falls in the band, so it propagates)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise DomainError("cutoff argument must be nonnegative")
    mid = ~((t_arr <= 0.25) | (t_arr >= 1.0))
    return t_arr, (1.0 - t_arr) / 0.75, (t_arr - 0.25) / 0.75, mid


def cutoff(t):
    """Smooth nonincreasing cutoff: 1 on [0, 1/4], 0 on [1, inf).

    Built from the exponential bump partition ``s(u) = exp(-1/u)``:
    ``chi(t) = s((1-t)/(3/4)) / (s((1-t)/(3/4)) + s((t-1/4)/(3/4)))``.
    """
    t_arr, a, b, mid = _partition(t)
    sa, sb = _bump(a), _bump(b)
    out = np.where(t_arr <= 0.25, 1.0, 0.0)
    out[mid] = sa[mid] / (sa[mid] + sb[mid])
    return float(out[0]) if np.ndim(t) == 0 else out


def cutoff_derivative(t):
    """chi'(t) of ``cutoff``, in closed form from the same bump partition.

    With ``s'(u) = s(u)/u^2``: ``chi' = -(4/3) s(a) s(b) (1/a^2 + 1/b^2) /
    (s(a) + s(b))^2`` on 1/4 < t < 1 and 0 elsewhere.  ``s(a) + s(b) >=
    exp(-2)`` there because ``a + b = 1``.
    """
    t_arr, a, b, mid = _partition(t)
    sa, sb, a, b = _bump(a[mid]), _bump(b[mid]), a[mid], b[mid]
    out = np.zeros_like(t_arr)
    out[mid] = -(4.0 / 3.0) * (sa * sb / (sa + sb) ** 2) * (1.0 / a ** 2 + 1.0 / b ** 2)
    return float(out[0]) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# gluing

@dataclass
class GluedExtension:
    """Cutoff-glued field ``F = sum_p f_p chi(d(p,.)^2/delta0^2)``.

    Requires ``2 delta0 <= min(separation, r0)`` so the delta0-balls are
    disjoint and at most one node contributes at any point.  ``chi`` is
    ``cutoff``, whose closed-form derivative the dbar energy uses.
    """

    space: geometry.ModelSpace
    weight: weights.HermitianWeight
    points: pointset.PointSet
    delta0: float

    def __post_init__(self):
        if not self.delta0 > 0:
            raise DomainError("delta0 must be positive")
        if len(self.points) and self.points.values is None:
            raise DomainError("glued extension needs target values on the node set")
        if len(self.points):  # validated once: the per-node distances do not check
            self.space.validate_points(self.points.points)

    def values(self) -> np.ndarray:
        return self.points.values if self.points.values is not None else np.zeros(0, dtype=complex)


def glued_extension(space: geometry.ModelSpace, w: weights.HermitianWeight,
                    pts: pointset.PointSet, delta0: Optional[float] = None) -> GluedExtension:
    """Build a GluedExtension, refusing node sets that violate the
    disjointness guard ``2 delta0 <= min(separation, r0)``."""
    rep = pointset.separation(space, pts, r0=w.r0)
    if delta0 is None:
        delta0 = rep.delta0
    bound = min(rep.min_pairwise_distance, w.r0)
    if 2.0 * delta0 > bound * (1.0 + 1e-12):
        raise DomainError(
            f"2*delta0 = {2 * delta0:.6g} exceeds min(separation, r0) = {bound:.6g}"
        )
    return GluedExtension(space, w, pts, float(delta0))


def evaluate_extension(ext: GluedExtension, z) -> np.ndarray:
    """F at each row of a (G, n) array of points, a (G,) complex array.

    At most one node contributes at each point; F(p) = a(p) exactly on the
    set.  One pass over the (point, node) pairs of ``pointset.near_pairs``
    inside a delta0-ball: the cutoff and the normal-frame section are
    evaluated once over all pairs, and ``np.add.at`` adds each point's terms
    in node order (a point that rounding puts in two touching balls sums
    them as a per-node loop would).
    """
    zs = ext.space.validate_points(z)
    out = np.zeros(zs.shape[0], dtype=complex)
    if len(ext.points):
        nodes = ext.points.points
        pt, node, dist = pointset.near_pairs(ext.space, nodes, zs, ext.delta0)
        inside = dist < ext.delta0
        pt, node, dist = pt[inside], node[inside], dist[inside]
        chi = cutoff((dist / ext.delta0) ** 2)
        expo = weights.normal_frame_exponent(ext.weight, nodes[node], zs[pt])
        np.add.at(out, pt, ext.values()[node] * np.exp(expo) * chi)
    return out


# ---------------------------------------------------------------------------
# auxiliary weights

@dataclass(frozen=True)
class AuxiliaryWeight:
    """Nonpositive weight ``n sum_q (1 - d^2/rho^2 + log(d^2/rho^2))`` over the
    nodes whose rho-ball contains the point; log poles of order 2n on the set."""

    space: geometry.ModelSpace
    points: pointset.PointSet
    rho: float

    def __post_init__(self):
        if not 0 < self.rho < math.inf:  # NaN fails too
            raise DomainError(f"rho must be positive and finite, got {self.rho}")
        if len(self.points):  # validated once: the per-node distances do not check
            self.space.validate_points(self.points.points)

    @property
    def n(self) -> int:
        return self.space.n

    def value(self, z) -> float:
        return float(self.value_grid(np.asarray(geometry.as_point(z, self.space.n))[None, :])[0])

    def value_grid(self, zs: np.ndarray) -> np.ndarray:
        """Vectorized values over an (m, n) array of points.

        Finite rows are validated; a non-finite row adds nothing.  Only the
        (point, node) pairs of ``pointset.near_pairs`` are visited, and each
        point adds its terms in node order; every skipped pair would add
        exactly 0.0, so the values equal the sum over all nodes bit for bit.
        """
        zs = np.asarray(zs, dtype=complex)
        rows = np.nonzero(np.isfinite(zs).all(axis=1))[0]
        self.space.validate_points(zs[rows])
        out = np.zeros(zs.shape[0])
        if len(self.points):
            i, _, d = pointset.near_pairs(self.space, self.points.points, zs[rows], self.rho)
            term, pole = self._terms(d)
            np.add.at(out, rows[i], term)
            out[rows[i[pole]]] = -math.inf
        return out

    def _terms(self, d: np.ndarray):
        """A node's term at the distances ``d`` (exactly 0.0 outside its
        rho-ball and at the node) and the mask of the poles ``d == 0``."""
        pole = d == 0.0
        u = d ** 2 / self.rho ** 2
        inside = (~pole) & (u < 1.0)
        term = np.zeros_like(d)
        term[inside] = self.n * (1.0 - u[inside] + np.log(u[inside]))
        return term, pole

    def _annulus_values(self, idx: np.ndarray, zs: np.ndarray, reach: float) -> np.ndarray:
        """Values on rows of points (n = 1): row ``r`` of ``zs`` (b, Q) lies
        within ``reach`` of node ``idx[r]``.

        By the triangle inequality only nodes ``q`` with ``d(p, q) <= rho +
        reach`` can add to a row around ``p`` (the 1e-12 slack absorbs
        rounding).  Their terms are added and the poles set as in
        ``value_grid``, each row in node order, so it equals ``value_grid``
        on its points bit for bit.
        """
        nodes = self.points.points
        near = geometry.geodesic_distances(self.space, nodes[idx][:, None, :], nodes[None, :, :]) \
            <= (self.rho + reach) * (1.0 + 1e-12)
        row, q = np.nonzero(near)
        term, pole = self._terms(geometry.geodesic_distances(
            self.space, zs[row][..., None], nodes[q][:, None, :]))
        out = np.zeros(zs.shape)
        np.add.at(out, row, term)
        at, col = np.nonzero(pole)
        out[row[at], col] = -math.inf
        return out


# ---------------------------------------------------------------------------
# quadrature

#: Quadrature points per block of annuli in ``_annulus_sums``: the nodes of
#: a block share one array pass, and a block's temporaries stay in cache.
QUAD_BLOCK = 2 ** 12


def _cutoff_dbar_grid(ext: GluedExtension, p, zs: np.ndarray) -> np.ndarray:
    """Wirtinger dzbar of chi(d(p,.)^2/delta0^2) at each z (n = 1) for the
    node row ``p`` of ``ext`` (validated with it), in closed form:
    ``chi'(t) dzbar(d^2) / delta0^2`` with ``t = d^2/delta0^2``.

    ``zs`` is an array of coordinates and ``p`` an array of node rows
    (..., 1) whose leading shape broadcasts against ``zs``.

    Flat: ``dzbar(d^2) = z - p``.  Disk: differentiating
    ``d = 2 kappa asinh(sqrt(u))``, ``u = kappa^2 |z-p|^2 / ((kappa^2-|p|^2)
    (kappa^2-|z|^2))``, and using ``1 + u = |kappa^2 - conj(p) z|^2 /
    ((kappa^2-|p|^2)(kappa^2-|z|^2))`` gives ``dzbar(d^2) = 2 d e^{i arg((z-p)
    (1 - conj(p/kappa) z/kappa))} / (1 - |z/kappa|^2)``, every length over
    kappa so that no factor grows like kappa^3.

    Only the cutoff factor is differentiated; the local section is
    holomorphic by construction.
    """
    space = ext.space
    d = geometry.geodesic_distances(space, zs[..., None], p)
    p = np.asarray(p)[..., 0]
    if space.is_flat:
        dbar_dsq = zs - p
    else:
        kap = space.kappa
        phase = (zs - p) * (1.0 - (p / kap).conjugate() * (zs / kap))
        mod = np.abs(phase)
        unit = np.divide(phase, mod, out=np.zeros_like(phase), where=mod > 0)
        dbar_dsq = 2.0 * d * unit / (1.0 - np.abs(zs / kap) ** 2)
    return cutoff_derivative((d / ext.delta0) ** 2) * dbar_dsq / ext.delta0 / ext.delta0


def _annulus_nodes(space, p, d_lo, d_hi, nr, ntheta):
    """Midpoint nodes of the annulus ``d_lo <= d(p,.) <= d_hi`` in row-major
    (radius, angle) order, their area Jacobians and the cell size: one
    (b, nr*ntheta) row of nodes per centre of the (b, 1, 1) array ``p``.
    """
    dd = (d_hi - d_lo) / nr
    dth = 2.0 * math.pi / ntheta
    ds = d_lo + (np.arange(nr) + 0.5) * dd
    ths = (np.arange(ntheta) + 0.5) * dth
    zs = geometry.geodesic_point(space, p, ds[:, None], ths[None, :])
    jac = np.repeat(geometry.polar_area_jacobian(space, ds), ntheta)
    return zs.reshape(zs.shape[:-2] + (-1,)), jac, dd * dth


def _annulus_sums(ext: GluedExtension, d_lo: float, nr: int, ntheta: int,
                  integrand, what: str) -> np.ndarray:
    """Per-node midpoint quadrature over the annuli ``d_lo <= d(p,.) <=
    delta0`` (n = 1): ``|a_p|^2 sum(integrand J) dd dtheta`` for each node
    ``p``, as an (m,) array in node order.

    The nodes are taken in blocks of about ``QUAD_BLOCK`` quadrature points,
    and each block is one array pass.  ``integrand(idx, p, zs, frame)`` gets
    the block's node indices, its node rows (b, 1, 1), its annulus points
    (b, Q) and the normal-frame log factor ``2 Re exponent_p - Phi`` there,
    and returns the (b, Q) integrand without the area Jacobian.  The first
    node with a non-finite total raises ``QuadratureError``; fewer than one
    radius or angle raises ``DomainError``.
    """
    if ext.space.n != 1:
        raise SpaceMismatchError(f"{what} quadrature is implemented for n = 1")
    if nr < 1 or ntheta < 1:
        raise DomainError(f"{what} quadrature needs nr >= 1 and ntheta >= 1, "
                          f"got nr = {nr}, ntheta = {ntheta}")
    nodes, vals = ext.points.points, ext.values()
    out = np.zeros(len(nodes))
    per_block = max(1, QUAD_BLOCK // (nr * ntheta))
    for lo in range(0, len(nodes), per_block):
        idx = np.arange(lo, min(lo + per_block, len(nodes)))
        p = nodes[idx][:, None, :]
        zs, jac, cell = _annulus_nodes(ext.space, p, d_lo, ext.delta0, nr, ntheta)
        # on the disk, a delta0 too large for the node rounds annulus points onto the rim
        ext.space.validate_points(zs[np.isfinite(zs)][:, None])
        zcol = zs[..., None]
        frame = 2.0 * weights.normal_frame_exponent(ext.weight, p, zcol).real \
            - ext.weight.value(zcol)
        # hypot rounds |a_p| as abs() of one value does; numpy's complex
        # abs on an array may differ from it in the last bit
        a_sq = np.hypot(vals[idx].real, vals[idx].imag) ** 2
        total = a_sq * (np.sum(integrand(idx, p, zs, frame) * jac, axis=-1) * cell)
        bad = np.nonzero(~np.isfinite(total))[0]
        if bad.size:
            raise QuadratureError(f"{what} diverged", region=("annulus", int(idx[bad[0]])))
        out[idx] = total
    return out


def _node_energies(ext: GluedExtension, aux: AuxiliaryWeight, nr: int, ntheta: int) -> np.ndarray:
    """dbar energy of each node's gluing annulus ``delta0/2 <= d <= delta0``."""
    def integrand(idx, p, zs, frame):
        dbar = _cutoff_dbar_grid(ext, p, zs)
        v = aux._annulus_values(idx, zs, ext.delta0)
        g = geometry.metric_coefficient(ext.space, zs[..., None])
        # |dbar F|^2_omega := |dF/dzbar|^2 / g (constant conventions absorbed
        # into the comparison constant C)
        return np.exp(frame - v) * (np.abs(dbar) ** 2) / g

    return _annulus_sums(ext, ext.delta0 / 2.0, nr, ntheta, integrand, "dbar energy")


def dbar_energy(ext: GluedExtension, aux: AuxiliaryWeight,
                nr: int = 32, ntheta: int = 64) -> float:
    """Midpoint quadrature of ``||dbar F||^2_h exp(-v)`` over the annuli
    ``delta0/2 <= d(p,.) <= delta0`` (dbar F vanishes elsewhere); n = 1."""
    return float(sum(_node_energies(ext, aux, nr, ntheta).tolist()))


@dataclass(frozen=True)
class EnergyReport:
    energy: float
    refined_energy: float
    drift: float
    levels: tuple
    per_node: tuple

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "refined_energy": self.refined_energy,
            "relative_drift": self.drift,
            "levels": [list(self.levels[0]), list(self.levels[1])],
            "per_node": list(self.per_node),
        }


def dbar_energy_report(ext: GluedExtension, aux: AuxiliaryWeight,
                       nr: int = 32, ntheta: int = 64) -> EnergyReport:
    """Energy at two refinement levels with the relative drift between them."""
    per_node = tuple(_node_energies(ext, aux, nr, ntheta).tolist())
    e1 = float(sum(per_node))
    e2 = dbar_energy(ext, aux, 2 * nr, 2 * ntheta)
    drift = 0.0 if e2 == 0.0 else abs(e2 - e1) / abs(e2)
    return EnergyReport(e1, e2, drift, ((nr, ntheta), (2 * nr, 2 * ntheta)), per_node)


def extension_norm_sq(ext: GluedExtension, nr: int = 48, ntheta: int = 96) -> float:
    """Quadrature of ``||F||^2_h`` over the union of the delta0-balls (n = 1)."""
    def integrand(idx, p, zs, frame):
        d = geometry.geodesic_distances(ext.space, zs[..., None], p)
        return np.exp(frame) * cutoff((d / ext.delta0) ** 2) ** 2

    return float(sum(_annulus_sums(ext, 0.0, nr, ntheta, integrand, "norm").tolist()))


def euclidean_disk_integral(fn, center: complex, radius: float,
                            nr: int = 64, ntheta: int = 128) -> float:
    """Gauss-Legendre (radial) x midpoint (angular) integral of a smooth
    real integrand over a Euclidean disk; ``fn`` is vectorized over complex z."""
    xs, wts = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * radius * (xs + 1.0)
    wr = 0.5 * radius * wts
    th = 2.0 * math.pi * (np.arange(ntheta) + 0.5) / ntheta
    wth = 2.0 * math.pi / ntheta
    R, TH = np.meshgrid(r, th, indexing="ij")
    Z = center + R * np.exp(1j * TH)
    vals = np.asarray(fn(Z))
    return float(np.sum(vals * R * wr[:, None] * wth))


# ---------------------------------------------------------------------------
# curvature audit of the auxiliary weight

@dataclass(frozen=True)
class CurvatureCheckEntry:
    point: np.ndarray
    eigen_min: float
    bound: float

    @property
    def slack(self) -> float:
        return self.eigen_min - self.bound


@dataclass(frozen=True)
class CurvatureCheckReport:
    passed: bool
    tolerance: float
    worst_slack: float
    worst_index: int
    entries: tuple


def auxiliary_curvature_check(aux: AuxiliaryWeight, space: geometry.ModelSpace,
                              grid: Sequence, tol: float = 1e-4,
                              step: Optional[float] = None) -> CurvatureCheckReport:
    """Verify by finite differences that the smallest relative eigenvalue of
    ``i ddbar v`` dominates ``-n * count(z, rho)/rho^2 * (1 + k rho coth k rho)``
    up to ``tol`` at each grid point.

    Grid points must stay away from the poles (distance >= 0.05 rho).  Nodes
    whose ball boundary passes within the FD stencil of a grid point are
    counted conservatively.
    """
    if not len(grid):
        raise DomainError("curvature check grid must be nonempty")
    zs = pointset.grid_rows(space, grid)
    d = geometry.geodesic_distances(space, aux.points.points[None, :, :], zs[:, None, :])
    if d.size and float(np.min(d)) < 0.05 * aux.rho:
        raise DomainError("curvature check grid must keep distance >= 0.05*rho from nodes")
    h = geometry.default_fd_step(zs) if step is None else np.full(len(zs), float(step))
    buffer = 2.0 * h * np.sqrt(geometry.metric_coefficient(space, zs))
    count = np.count_nonzero(d < (aux.rho + buffer)[:, None], axis=1)
    hess = geometry.complex_hessian_fd(aux.value_grid, zs, step=h)
    eig_min = geometry.relative_form_eigenvalues(space, zs, hess)[:, 0]
    bound = -space.n * count / aux.rho ** 2 * geometry.hessian_comparison_factor(space.k, aux.rho)
    entries = tuple(map(CurvatureCheckEntry, zs, eig_min.tolist(), bound.tolist()))
    worst = int(np.argmin(eig_min - bound))
    return CurvatureCheckReport(
        passed=bool(entries[worst].slack >= -tol),
        tolerance=tol,
        worst_slack=float(entries[worst].slack),
        worst_index=worst,
        entries=entries,
    )
