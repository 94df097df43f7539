"""Reproducing-kernel machinery: normalized Gram (Riesz) diagnostics,
minimal-norm interpolation, and lattice feasibility sweeps.

Kernels: ``fock(alpha)`` with ``K(z,w) = exp(alpha z . conj(w))`` against the
weight ``exp(-alpha |z|^2)``, and ``bergman(A)`` on the kappa-disk with
``K(z,w) = (1 - z conj(w)/kappa^2)^-(A+2)`` against ``(1 - |z|^2/kappa^2)^A``
and the hyperbolic volume.  The minimal-norm interpolant plays the role of
the corrected holomorphic extension at desk scale: exact nodal values with
finite (and minimal) weighted norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import pointset
from .errors import ConditioningError, DomainError, SizeGuardError
from .reporting import dump_csv

SIZE_GUARD = 2000
CONDITION_GUARD = 1e-10


@dataclass(frozen=True)
class KernelSpace:
    """Closed-form reproducing kernel on flat C^n or the kappa-disk."""

    kind: str
    n: int = 1
    alpha: float = 1.0
    a_param: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fock", "bergman"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "fock" and self.alpha <= 0:
            raise DomainError("alpha must be positive")
        if self.kind == "bergman":
            if self.n != 1:
                raise DomainError("the bergman kernel is implemented on the disk (n = 1)")
            if self.a_param + 2.0 <= 0 or self.kappa <= 0:
                raise DomainError("bergman kernel requires A + 2 > 0 and kappa > 0")

    # -- raw kernel ---------------------------------------------------------
    def log_kernel(self, z: np.ndarray, w: np.ndarray, dtype=complex) -> np.ndarray:
        """log K(z, w) entrywise (principal branch); stable at large |z|.

        Exponent arguments grow like alpha |z| |w|, so graded node sets are
        evaluated in extended precision (``dtype=np.clongdouble``) where
        phase rounding would otherwise dominate.
        """
        z = _as_matrix(z, dtype)
        w = _as_matrix(w, dtype)
        pair = z @ w.conj().T
        if self.kind == "fock":
            return self.alpha * pair
        arg = 1.0 - pair / self.kappa ** 2
        if np.any(np.abs(arg) == 0):
            raise DomainError("bergman kernel singular: z conj(w) = kappa^2")
        return -(self.a_param + 2.0) * np.log(arg)

    def kernel(self, z, w) -> complex:
        z = np.atleast_1d(np.asarray(z, dtype=complex)).reshape(1, -1)
        w = np.atleast_1d(np.asarray(w, dtype=complex)).reshape(1, -1)
        return complex(np.exp(self.log_kernel(z, w))[0, 0])

    def diag_log(self, z: np.ndarray, dtype=complex) -> np.ndarray:
        z = _as_matrix(z, dtype)
        s = np.sum(np.abs(z) ** 2, axis=1)
        if self.kind == "fock":
            return self.alpha * s
        if np.any(s >= self.kappa ** 2):
            raise DomainError("points must lie inside the kappa-disk")
        return -(self.a_param + 2.0) * np.log(1.0 - s / self.kappa ** 2)

    def normalized_gram(self, points: np.ndarray) -> np.ndarray:
        """Gram of the unit-normalized kernels; unit diagonal, exactly Hermitian."""
        return self._normalized_grams(points)[0]

    def _normalized_grams(self, points: np.ndarray):
        """The normalized Gram from one extended-precision build, as
        ``(complex128 with unit diagonal, clongdouble)``.

        Only the upper triangle, diagonal included, is exponentiated; the
        strict lower triangle is its exact conjugate mirror, so the rounded
        Gram is exactly Hermitian.  The build runs row by row in the
        log-kernel buffer: triangle fancy indexing would need three more
        half-size extended temporaries.  The two half diagonal logs are
        subtracted one after the other; subtracting their rounded sum made
        the refined nodal residual six times larger.  The extended Gram
        keeps its computed diagonal ``exp(logk_ii - dl_i)``, the one the
        nodal evaluation in ``MinNormInterpolant`` sees.
        """
        gram_ld = self.log_kernel(points, points, dtype=np.clongdouble)
        half = 0.5 * self.diag_log(points, dtype=np.clongdouble)
        for i in range(len(half)):
            row = gram_ld[i, i:]
            row -= half[i]
            row -= half[i:]
            np.exp(row, out=row)
            gram_ld[i + 1:, i] = row[1:].conj()
        g = gram_ld.astype(complex)
        np.fill_diagonal(g, 1.0)
        return g, gram_ld


def _as_matrix(z, dtype=complex) -> np.ndarray:
    z = np.asarray(z, dtype=dtype)
    return z[:, None] if z.ndim == 1 else z


def fock_kernel(alpha: float = 1.0, n: int = 1) -> KernelSpace:
    return KernelSpace("fock", n=n, alpha=alpha)


def bergman_kernel(a: float, kappa: float = 1.0) -> KernelSpace:
    return KernelSpace("bergman", n=1, a_param=a, kappa=kappa)


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class GramDiagnostic:
    """Riesz bounds of the normalized kernel system on a finite node set."""

    gram: np.ndarray
    eig_min: float
    eig_max: float
    condition: float

    @property
    def size(self) -> int:
        return self.gram.shape[0]


def gram_matrix(space: KernelSpace, pts: pointset.PointSet,
                size_guard: int = SIZE_GUARD) -> GramDiagnostic:
    """Normalized Gram with extreme eigenvalues (deterministic dense solve)."""
    _check_size(pts, size_guard)
    return _diagnose(space.normalized_gram(pts.points))


def _check_size(pts: pointset.PointSet, size_guard: int) -> None:
    m = len(pts)
    if m == 0:
        raise DomainError("gram matrix of an empty point set")
    if m > size_guard:
        raise SizeGuardError(f"{m} points exceed the gram size guard ({size_guard})")


def _diagnose(g: np.ndarray) -> GramDiagnostic:
    ev = np.linalg.eigvalsh(g)
    eig_min = float(ev[0])
    eig_max = float(ev[-1])
    cond = math.inf if eig_min <= 0 else eig_max / eig_min
    return GramDiagnostic(g, eig_min, eig_max, cond)


# ---------------------------------------------------------------------------
# minimal-norm interpolation

class MinNormInterpolant:
    """Kernel-span interpolant ``f = sum_j c_j K(., p_j)`` with minimal
    space norm among interpolants of the nodal data.

    Evaluation runs through extended-precision exponents: the kernel sum
    cancels heavily on graded node sets and plain double phases would cap
    the achievable nodal residual well above the 1e-10 contract.
    """

    def __init__(self, space: KernelSpace, pts: pointset.PointSet,
                 normalized_coeff: np.ndarray, norm_sq: float, diagnostic: GramDiagnostic,
                 weighted_residuals: np.ndarray):
        self.space = space
        self.points = pts
        self._y = normalized_coeff  # clongdouble, one per node
        self._dl = space.diag_log(pts.points, dtype=np.clongdouble)
        self.norm_sq = norm_sq
        self.diagnostic = diagnostic
        #: nodal residuals ``|f(p) - a| e^{-Phi(p)/2} = |G y - a e^{-Phi/2}|``
        #: in the normalized scale, from the solve's extended-precision Gram
        self.weighted_residuals = weighted_residuals

    @property
    def coefficients(self) -> np.ndarray:
        """Raw kernel coefficients c with f = sum_j c_j K(., p_j)."""
        return (self._y * np.exp(-0.5 * self._dl)).astype(complex)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zs = np.atleast_1d(z).reshape(-1, 1) if self.space.n == 1 else z.reshape(-1, self.space.n)
        logk = self.space.log_kernel(zs, self.points.points, dtype=np.clongdouble)
        out = (np.exp(logk - 0.5 * self._dl[None, :]) @ self._y).astype(complex)
        return complex(out[0]) if scalar else out.reshape(z.shape if self.space.n == 1 else z.shape[:-1])

    def residuals(self) -> np.ndarray:
        nodes = self.points.points
        vals = self(nodes[:, 0] if self.space.n == 1 else nodes)
        return np.abs(vals - self.points.values)

    def to_dict(self) -> dict:
        return {
            "kind": self.space.kind,
            "n_points": len(self.points),
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "norm_sq": self.norm_sq,
            "gram_eig_min": self.diagnostic.eig_min,
            "gram_eig_max": self.diagnostic.eig_max,
        }


def min_norm_interpolant(space: KernelSpace, pts: pointset.PointSet,
                         condition_guard: float = CONDITION_GUARD) -> MinNormInterpolant:
    """Solve the kernel system for the nodal values.

    Refuses near-singular normalized Grams (``eig_min < condition_guard``)
    with a ``ConditioningError`` carrying the offending eigenvalue.
    """
    if pts.values is None:
        raise DomainError("interpolation needs target values")
    _check_size(pts, SIZE_GUARD)
    g, gram_ld = space._normalized_grams(pts.points)
    diag = _diagnose(g)
    if diag.eig_min < condition_guard:
        raise ConditioningError(
            f"normalized gram eig_min = {diag.eig_min:.3e} below guard {condition_guard:.1e}",
            eig_min=diag.eig_min,
        )
    # K = D G D with D = diag(exp(diag_log/2)); solve in the normalized
    # scale, then iterate refinement against the extended-precision Gram so
    # the strongly graded right-hand side keeps componentwise accuracy.
    dl = space.diag_log(pts.points, dtype=np.clongdouble)
    b = pts.values.astype(np.clongdouble) * np.exp(-0.5 * dl)
    lu = scipy.linalg.lu_factor(g)
    y = scipy.linalg.lu_solve(lu, b.astype(complex)).astype(np.clongdouble)
    for _ in range(3):
        residual = b - gram_ld @ y
        y = y + scipy.linalg.lu_solve(lu, residual.astype(complex)).astype(np.clongdouble)
    weighted = np.abs(gram_ld @ y - b).astype(float)
    coeff = (y * np.exp(-0.5 * dl)).astype(complex)
    norm_sq = float(np.real(np.vdot(coeff, pts.values)))
    return MinNormInterpolant(space, pts, y, norm_sq, diag, weighted)


# ---------------------------------------------------------------------------
# feasibility sweep

@dataclass(frozen=True)
class SweepRow:
    spacing: float
    eig_min: float
    eig_max: float
    radius: float
    n_points: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    monotone_in_spacing: bool

    def to_csv(self) -> str:
        header = ["s", "eig_min", "eig_max", "R", "n_points"]
        rows = [[r.spacing, r.eig_min, r.eig_max, r.radius, r.n_points] for r in self.rows]
        return dump_csv(header, rows)


def feasibility_sweep(space: KernelSpace, spacings: Sequence[float], radius: float,
                      extra_radii: Sequence[float] = ()) -> SweepResult:
    """Riesz bounds of truncated lattices across spacings.

    Rows are emitted largest spacing first; ``monotone_in_spacing`` records
    whether ``eig_min`` was nonincreasing as the spacing decreased (at the
    primary truncation radius).  Extra radii expose truncation drift.
    """
    if space.n != 1:
        raise DomainError("the lattice sweep is defined on one complex variable")
    spacings = sorted(set(float(s) for s in spacings), reverse=True)
    radii = [float(radius)] + [float(r) for r in extra_radii]
    rows = []
    primary = {}
    for s in spacings:
        for r in radii:
            lattice = pointset.square_lattice(s, radius=r)
            diag = gram_matrix(space, lattice)
            row = SweepRow(s, diag.eig_min, diag.eig_max, r, len(lattice))
            rows.append(row)
            if r == radii[0]:
                primary[s] = diag.eig_min
    ordered = [primary[s] for s in spacings]
    monotone = all(ordered[i + 1] <= ordered[i] + 1e-12 for i in range(len(ordered) - 1))
    return SweepResult(tuple(rows), monotone)
