"""Interpolation certificates: pointwise curvature-vs-counting checks over
sample grids, with per-sample margins.

Three criteria are implemented:

* ``bos``: on flat C^1, ``Delta Phi >= count(B(z,rho)) / rho^2 + eps`` with
  ``Delta Phi = 4 d^2Phi/dz dzbar``;
* ``theorem1``: smallest relative eigenvalue of ``i ddbar Phi + ricci`` must
  dominate ``n * count / rho^2 * (1 + k rho coth k rho) + eps``;
* ``theorem2``: on the hyperbolic ball, curvature floor ``eps`` plus a
  finite grid supremum of the hyperbolic density (user threshold).

A grid check is a surrogate for the pointwise-everywhere hypotheses; the
report records the worst margin so the surrogate is honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import geometry, pointset, weights
from .errors import DomainError, NumericalGuardError, SpaceMismatchError
from .reporting import report_envelope

BOS = "bos"
THEOREM1 = "theorem1"
THEOREM2 = "theorem2"


@dataclass
class CertificateReport:
    """Pass/fail with per-sample margins; ``passed`` iff ``worst_margin >= 0``.
    ``points`` holds the (m, n) sample rows, ``required`` and ``available``
    the two sides of the criterion at each of them (arrays of length m)."""

    criterion: str
    passed: bool
    epsilon: float
    rho: Optional[float]
    points: np.ndarray
    required: np.ndarray
    available: np.ndarray
    worst_margin: float
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def per_sample(self) -> np.ndarray:
        """Margin ``available - required`` at each sample."""
        return self.available - self.required

    def to_dict(self) -> dict:
        body = {
            "criterion": self.criterion,
            "passed": self.passed,
            "epsilon": self.epsilon,
            "rho": self.rho,
            "worst_margin": self.worst_margin,
            "warnings": list(self.warnings),
            "n_samples": len(self.points),
        }
        body.update(self.extras)
        return report_envelope("certificate", body)

    def csv_columns(self):
        """Header and columns of the per-sample CSV (first coordinate only)."""
        z = self.points[:, 0]
        return (["index", "re", "im", "required", "available", "margin"],
                [np.arange(len(z)), z.real, z.imag, self.required, self.available, self.per_sample])


def _finalize(criterion, eps, rho, zs, required, available, warnings, extras=None,
              extra_margins=()) -> CertificateReport:
    """The report over sample rows ``zs``: the worst margin is the minimum of
    the per-sample margins ``available - required`` and ``extra_margins``
    (clauses checked once, not per sample); every margin must be finite."""
    if not len(zs):
        raise DomainError("certificate grid must be nonempty")
    margins = np.concatenate([available - required, extra_margins])
    if not np.isfinite(margins).all():
        raise NumericalGuardError("a certificate margin is not finite")
    worst = float(np.min(margins))
    return CertificateReport(
        criterion=criterion,
        passed=worst >= 0.0,
        epsilon=eps,
        rho=rho,
        points=zs,
        required=required,
        available=available,
        worst_margin=worst,
        warnings=warnings,
        extras=extras or {},
    )


def _separation_warning(space, pts) -> list:
    if len(pts) >= 2 and not pointset.separation(space, pts).min_pairwise_distance > 0.0:
        return ["separation not confirmed positive"]
    return []


def bos_certificate(w: weights.HermitianWeight, pts: pointset.PointSet,
                    rho: float, eps: float, grid: Sequence, map_fn=map) -> CertificateReport:
    """Flat one-dimensional Laplacian-versus-counting criterion, on C^1.

    ``map_fn`` may be a thread-pool map; it runs the one whole-grid ball
    count, so output is the same either way.
    """
    if w.n != 1:
        raise SpaceMismatchError(f"the bos certificate applies to flat C^1 only, not to n = {w.n}")
    if not (0.0 < rho < math.inf and 0.0 < eps < math.inf):
        raise DomainError("rho and eps must be positive and finite")
    space = geometry.flat_space(1)
    zs = pointset.grid_rows(space, grid)
    laplacian = 4.0 * w.ddbar(zs)[:, 0, 0].real
    # one whole-grid count, mapped so `--threads 2` runs it on a worker (bench/smoke.py)
    [counts] = map_fn(lambda rows: pointset.count_in_ball(space, pts, rows, rho), [zs])
    return _finalize(BOS, eps, rho, zs, counts / rho ** 2 + eps, laplacian,
                     _separation_warning(space, pts))


def theorem1_certificate(w: weights.HermitianWeight, space: geometry.ModelSpace,
                         pts: pointset.PointSet, rho: float, eps: float,
                         grid: Sequence, map_fn=map) -> CertificateReport:
    """Curvature-versus-counting criterion with the comparison factor;
    ``map_fn`` as in ``bos_certificate``."""
    if not (0.0 < rho < math.inf and 0.0 < eps < math.inf):
        raise DomainError("rho and eps must be positive and finite")
    factor = geometry.hessian_comparison_factor(space.k, rho)
    zs = pointset.grid_rows(space, grid)
    available = weights.curvature_eigen_min(w, space, zs)
    [counts] = map_fn(lambda rows: pointset.count_in_ball(space, pts, rows, rho), [zs])
    return _finalize(THEOREM1, eps, rho, zs, space.n * (counts / rho ** 2) * factor + eps,
                     available, _separation_warning(space, pts),
                     {"comparison_factor": factor, "k": space.k})


def theorem2_certificate(w: weights.HermitianWeight, space: geometry.ModelSpace,
                         pts: pointset.PointSet, eps: float, grid: Sequence,
                         density_threshold: float = math.inf,
                         cutoff: float = pointset.DENSITY_CUTOFF) -> CertificateReport:
    """Hyperbolic criterion: curvature floor plus bounded density grid-sup.

    The density clause reports a grid supremum (finite by construction);
    the pass threshold is user-set (``inf`` for none) and flagged as such.
    A threshold of ``-inf`` or NaN is refused: no density could meet it.
    """
    if space.is_flat:
        raise SpaceMismatchError("the theorem2 certificate requires a hyperbolic ball")
    if not 0.0 < eps < math.inf:
        raise DomainError("eps must be positive and finite")
    if not -math.inf < density_threshold <= math.inf:
        raise DomainError(f"density threshold must be a number or inf, got {density_threshold}")
    if not math.isfinite(cutoff):
        raise DomainError(f"density cutoff must be finite, got {cutoff}")
    zs = pointset.grid_rows(space, grid)
    available = weights.curvature_eigen_min(w, space, zs)
    sup = pointset.sup_density(space, pts, zs, cutoff=cutoff) if len(pts) else None
    density_sup = 0.0 if sup is None else sup.value
    extras = {
        "density_grid_sup": density_sup,
        "density_threshold_user_set": density_threshold,
        "density_cutoff": cutoff,
        "density_argmax_index": (None if sup is None else sup.index),
    }
    threshold_margin = [density_threshold - density_sup] if density_threshold < math.inf else []
    warnings = _separation_warning(space, pts)
    warnings.append("density bound is a grid supremum against a user-set threshold")
    return _finalize(THEOREM2, eps, None, zs, np.full(len(zs), eps), available, warnings,
                     extras, threshold_margin)
