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
from .errors import DomainError, NumericalGuardError, SizeGuardError, SpaceMismatchError
from .reporting import report_envelope

BOS = "bos"
THEOREM1 = "theorem1"
THEOREM2 = "theorem2"


@dataclass(frozen=True)
class SampleMargin:
    point: np.ndarray
    required: float
    available: float

    @property
    def margin(self) -> float:
        return self.available - self.required


@dataclass
class CertificateReport:
    """Pass/fail with per-sample margins; ``passed`` iff ``worst_margin >= 0``."""

    criterion: str
    passed: bool
    epsilon: float
    rho: Optional[float]
    per_sample: list
    worst_margin: float
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        body = {
            "criterion": self.criterion,
            "passed": self.passed,
            "epsilon": self.epsilon,
            "rho": self.rho,
            "worst_margin": self.worst_margin,
            "warnings": list(self.warnings),
            "n_samples": len(self.per_sample),
        }
        body.update(self.extras)
        return report_envelope("certificate", body)

    def csv_rows(self):
        header = ["index", "re", "im", "required", "available", "margin"]
        rows = []
        for i, s in enumerate(self.per_sample):
            z = s.point[0]
            rows.append([i, z.real, z.imag, s.required, s.available, s.margin])
        return header, rows


def _finalize(criterion, eps, rho, samples, warnings, extras=None) -> CertificateReport:
    if not samples:
        raise DomainError("certificate grid must be nonempty")
    extras = dict(extras or {})
    margins = [s.margin for s in samples] + list(extras.pop("extra_margins", []))
    if not all(map(math.isfinite, margins)):
        raise NumericalGuardError("a certificate margin is not finite")
    worst = min(margins)
    return CertificateReport(
        criterion=criterion,
        passed=bool(worst >= 0.0),
        epsilon=eps,
        rho=rho,
        per_sample=samples,
        worst_margin=float(worst),
        warnings=warnings,
        extras=extras,
    )


def _separation_warning(space, pts) -> list:
    try:
        rep = pointset.separation(space, pts)
    except SizeGuardError:
        return ["separation not verified: pair guard exceeded"]
    if len(pts) >= 2 and not rep.min_pairwise_distance > 0.0:
        return ["separation not confirmed positive"]
    return []


def bos_certificate(w: weights.HermitianWeight, pts: pointset.PointSet,
                    rho: float, eps: float, grid: Sequence,
                    space: Optional[geometry.ModelSpace] = None,
                    map_fn=map) -> CertificateReport:
    """Flat one-dimensional Laplacian-versus-counting criterion.

    ``map_fn`` may be a thread-pool map; it runs the one whole-grid ball
    count, so output is the same either way.
    """
    if space is None:
        space = geometry.flat_space(1)
    if not space.is_flat or space.n != 1:
        raise SpaceMismatchError("the bos certificate applies to flat C^1 only")
    if w.n != space.n:
        raise SpaceMismatchError(f"weight of dimension {w.n} on a space of dimension {space.n}")
    if not (0.0 < rho < math.inf and 0.0 < eps < math.inf):
        raise DomainError("rho and eps must be positive and finite")
    zs = pointset.grid_rows(space, grid)
    laplacian = 4.0 * w.ddbar(zs)[:, 0, 0].real
    # one whole-grid count, mapped so `--threads 2` runs it on a worker (bench/smoke.py)
    [counts] = map_fn(lambda rows: pointset.count_in_ball(space, pts, rows, rho), [zs])
    samples = list(map(SampleMargin, zs, counts / rho ** 2 + eps, laplacian))
    return _finalize(BOS, eps, rho, samples, _separation_warning(space, pts))


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
    samples = list(map(SampleMargin, zs, space.n * (counts / rho ** 2) * factor + eps, available))
    return _finalize(THEOREM1, eps, rho, samples, _separation_warning(space, pts),
                     {"comparison_factor": factor, "k": space.k})


def theorem2_certificate(w: weights.HermitianWeight, space: geometry.ModelSpace,
                         pts: pointset.PointSet, eps: float, grid: Sequence,
                         density_threshold: float = math.inf,
                         cutoff: float = pointset.DENSITY_CUTOFF) -> CertificateReport:
    """Hyperbolic criterion: curvature floor plus bounded density grid-sup.

    The density clause reports a grid supremum (finite by construction);
    the pass threshold is user-set (``inf`` for none) and flagged as such.
    """
    if space.is_flat:
        raise SpaceMismatchError("the theorem2 certificate requires a hyperbolic ball")
    if not 0.0 < eps < math.inf:
        raise DomainError("eps must be positive and finite")
    if math.isnan(density_threshold):
        raise DomainError("density threshold must be a number or inf")
    zs = pointset.grid_rows(space, grid)
    available = weights.curvature_eigen_min(w, space, zs)
    samples = list(map(SampleMargin, zs, np.full(len(zs), eps), available))
    sup = pointset.sup_density(space, pts, zs, cutoff=cutoff) if len(pts) else None
    density_sup = 0.0 if sup is None else sup.value
    extras = {
        "density_grid_sup": density_sup,
        "density_threshold_user_set": density_threshold,
        "density_cutoff": cutoff,
        "density_argmax_index": (None if sup is None else sup.index),
        "extra_margins": [density_threshold - density_sup] if math.isfinite(density_threshold) else [],
    }
    warnings = _separation_warning(space, pts)
    warnings.append("density bound is a grid supremum against a user-set threshold")
    return _finalize(THEOREM2, eps, None, samples, warnings, extras)
