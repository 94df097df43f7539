"""Constant-curvature model spaces: flat C^n and the Poincare ball.

Provides geodesic distances, the curvature comparison factor
``1 + k*rho*coth(k*rho)``, space-form ball volumes, the closed-form metric
and Ricci data, and finite-difference complex Hessians kept as an audit
tool for curvature inequalities.

Conventions used throughout the package:

* the Kaehler form is ``omega = (i/2) sum_j dz_j ^ dzbar_j`` times the
  metric coefficient matrix ``G``, so ``i ddbar |z|^2 = 2 omega`` on flat
  space; both models are conformal, ``G = g I``;
* the "relative eigenvalue" of a (1,1)-form with coefficient matrix ``H``
  (entries ``d^2/dz_j dzbar_m``) is an eigenvalue of ``2 H`` against ``G``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .errors import DomainError, SpaceMismatchError

FLAT = "flat"
HYPERBOLIC_BALL = "hyperbolic_ball"

#: Default finite-difference step scale (one Richardson level is applied).
FD_STEP_SCALE = 1e-4


@dataclass(frozen=True)
class ModelSpace:
    """A flat C^n or a Poincare ball of radius ``kappa`` in C^n.

    ``k`` is the magnitude of the sectional curvature lower bound
    (curvature >= -k^2); ``kappa`` the scale of the upper bound
    (curvature <= -1/kappa^2, hyperbolic only).  The hyperbolic metric is
    ``4 |dz|^2 / (1 - |z|^2/kappa^2)^2`` on ``{|z| < kappa}``.
    """

    kind: str
    n: int = 1
    k: float = 0.0
    kappa: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (FLAT, HYPERBOLIC_BALL):
            raise DomainError(f"unknown space kind {self.kind!r}")
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError("complex dimension n must be a positive integer")
        if self.kind == FLAT:
            if self.k != 0.0:
                raise DomainError("flat space requires k = 0")
            if self.kappa is not None:
                raise DomainError("flat space has no curvature upper bound kappa")
        else:
            if self.kappa is None or not 2.0 ** -511 <= self.kappa < 2.0 ** 512:
                raise DomainError("kappa^2 must be a normal float: 2**-511 <= kappa < 2**512")
            if not 1.0 / self.kappa <= self.k < math.inf:
                raise DomainError(
                    "curvature lower bound must lie below the upper bound: k >= 1/kappa"
                )

    @property
    def is_flat(self):
        return self.kind == FLAT

    def contains(self, z) -> bool:
        """Whether the point passes ``validate_point``; a malformed point
        raises ``DomainError``."""
        z = as_point(z, self.n)
        try:
            self.validate_point(z)
        except DomainError:
            return False
        return True

    def validate_point(self, z) -> np.ndarray:
        """One point as a length-n coordinate vector, by ``validate_points``."""
        return self.validate_points(as_point(z, self.n)[None, :])[0]

    def validate_points(self, zs) -> np.ndarray:
        """An (m, n) array of points, refused with ``DomainError`` when a
        coordinate is not finite or, on the ball, a point's room ``kappa^2 -
        sum |z_k|^2``, rounded as in ``geodesic_distances``, is not positive;
        the one membership rule of the space."""
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 2 or zs.shape[1] != self.n:
            raise DomainError(f"expected an (m, {self.n}) array of points, got shape {zs.shape}")
        if not np.isfinite(zs).all():
            bad = np.nonzero(~np.isfinite(zs).all(axis=1))[0][0]
            raise DomainError(f"point {bad} has a non-finite coordinate")
        if not self.is_flat:
            outside = np.nonzero(_room(self, zs) <= 0)[0]
            if outside.size:
                raise DomainError(f"point with |z| = {np.linalg.norm(zs[outside[0]]):.6g} "
                                  f"outside the open ball of radius {self.kappa}")
        return zs

    def validate_rows(self, z):
        """A single point or an (m, n) array as validated (m, n) rows, and
        whether it was a single point."""
        z = np.asarray(z, dtype=complex)
        single = z.ndim <= 1
        return self.validate_points(np.atleast_1d(z)[None, :] if single else z), single


def flat_space(n: int = 1) -> ModelSpace:
    return ModelSpace(FLAT, n=n, k=0.0)


def hyperbolic_ball(kappa: float = 1.0, n: int = 1, k: Optional[float] = None) -> ModelSpace:
    """Poincare ball of radius ``kappa``; ``k`` defaults to the tight bound 1/kappa."""
    return ModelSpace(HYPERBOLIC_BALL, n=n, k=(1.0 / kappa if k is None else k), kappa=kappa)


def as_point(z, n: Optional[int] = None) -> np.ndarray:
    """Coerce a scalar or sequence to a length-n complex coordinate vector."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1:
        raise DomainError("a point is a one-dimensional coordinate vector")
    if n is not None and arr.size != n:
        raise DomainError(f"expected {n} complex coordinates, got {arr.size}")
    return arr


def space_to_dict(space: ModelSpace) -> dict:
    d = {"kind": space.kind, "n": space.n, "k": space.k}
    if space.kappa is not None:
        d["kappa"] = space.kappa
    return d


def space_from_dict(d: dict) -> ModelSpace:
    kind = d.get("kind")
    if kind == FLAT:
        return ModelSpace(FLAT, n=int(d.get("n", 1)), k=float(d.get("k", 0.0)))
    if kind == HYPERBOLIC_BALL:
        if "kappa" not in d:
            raise DomainError("hyperbolic_ball space spec requires 'kappa'")
        kappa = float(d["kappa"])
        k = float(d["k"]) if "k" in d else 1.0 / kappa
        return ModelSpace(HYPERBOLIC_BALL, n=int(d.get("n", 1)), k=k, kappa=kappa)
    raise DomainError(f"space spec has unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# distances

def _room(space: ModelSpace, z) -> np.ndarray:
    """``kappa^2 - sum |z_k|^2`` at each (..., n) point: the ball's one room."""
    return space.kappa * space.kappa - np.sum(np.abs(z) ** 2, axis=-1)


def geodesic_distances(space: ModelSpace, a, b) -> np.ndarray:
    """Geodesic distances between the rows of ``a`` and ``b``, (..., n)
    arrays that broadcast against each other; no row is validated.

    No difference is squared (Blue, ACM TOMS 4, 1978): distinct rows are at a
    positive distance, and none overflows unless a coordinate difference
    does (flat coordinates 1e308 and -1e308).  Flat: ``h = |a - b|``, a ``hypot``
    chain.  Ball: ``x = kappa sinh(d/2kappa) = h (kappa/sqrt(room_a)) (kappa/
    sqrt(room_b)) >= h`` (``_room``) and ``d = 2 kappa asinh(x/kappa)``, or
    ``2x`` where ``x/kappa < 2**-27`` (asinh is the identity, x/kappa may underflow).
    """
    h = functools.reduce(np.hypot, np.moveaxis(np.abs(np.subtract(a, b)), -1, 0))
    if space.is_flat:
        return h
    kap = space.kappa
    x = h * ((kap / np.sqrt(_room(space, a))) * (kap / np.sqrt(_room(space, b))))
    return np.where(x < 2.0 ** -27 * kap, 2.0 * x, 2.0 * kap * np.arcsinh(x / kap))


def distance(space: ModelSpace, x, y) -> float:
    """Geodesic distance between two points of the model space."""
    return float(geodesic_distances(space, space.validate_point(x), space.validate_point(y)))


def distances_from(space: ModelSpace, points: np.ndarray, z) -> np.ndarray:
    """Vectorized geodesic distances from every row of ``points`` to ``z``.

    ``points`` has shape (m, n); membership of the rows is assumed, only
    ``z`` is validated.
    """
    pts = np.asarray(points, dtype=complex)
    return geodesic_distances(space, pts[:, None] if pts.ndim == 1 else pts, space.validate_point(z))


# ---------------------------------------------------------------------------
# comparison factor and volumes

def hessian_comparison_factor(k: float, rho: float) -> float:
    """Bound ``1 + k*rho*coth(k*rho)`` on the complex Hessian of a squared
    distance under a sectional curvature lower bound ``-k^2``.

    Depends on the product ``k*rho`` only; the ``k -> 0`` limit is 2.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    if k < 0:
        raise DomainError("curvature magnitude k must be nonnegative")
    x = k * rho
    if x < 1e-8:
        # x*coth(x) = 1 + x^2/3 + O(x^4); below 1e-8 the correction is < 1e-16
        return 2.0
    return 1.0 + x / math.tanh(x)


def ball_volume_bound(k: float, rho: float, dim: int) -> float:
    """Volume of the radius-``rho`` ball in the space form of curvature
    ``-k^2`` and real dimension ``dim``.

    Euclidean closed form at k = 0; otherwise adaptive quadrature of
    ``(sinh(k t)/k)^(dim-1)`` to relative tolerance 1e-10.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    if k < 0:
        raise DomainError("curvature magnitude k must be nonnegative")
    if dim < 1 or int(dim) != dim:
        raise DomainError("dim must be a positive integer")
    surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)  # area of S^(dim-1)
    if k == 0.0:
        return surf * rho ** dim / dim
    val, _err = integrate.quad(
        lambda t: (math.sinh(k * t) / k) ** (dim - 1), 0.0, rho,
        epsabs=0.0, epsrel=1e-10,
    )
    return surf * val


# ---------------------------------------------------------------------------
# finite differences

def default_fd_step(z) -> float:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return FD_STEP_SCALE * max(1.0, float(np.linalg.norm(z)))


def _real_hessian(g: Callable, x: np.ndarray, h: float) -> np.ndarray:
    d = x.size
    out = np.zeros((d, d))
    g0 = g(x)
    steps = np.eye(d) * h
    for i in range(d):
        out[i, i] = (g(x + steps[i]) - 2.0 * g0 + g(x - steps[i])) / (h * h)
        for j in range(i + 1, d):
            v = (
                g(x + steps[i] + steps[j])
                - g(x + steps[i] - steps[j])
                - g(x - steps[i] + steps[j])
                + g(x - steps[i] - steps[j])
            ) / (4.0 * h * h)
            out[i, j] = out[j, i] = v
    return out


def _complex_hessian_once(f: Callable, z: np.ndarray, h: float) -> np.ndarray:
    n = z.size

    def g(xr):
        return float(f(xr[:n] + 1j * xr[n:]))

    x = np.concatenate([z.real, z.imag])
    R = _real_hessian(g, x, h)
    hxx = R[:n, :n]
    hyy = R[n:, n:]
    hxy = R[:n, n:]
    return (hxx + hyy + 1j * (hxy - hxy.T)) / 4.0


def complex_hessian_fd(f: Callable, z, step: Optional[float] = None) -> np.ndarray:
    """Central-difference matrix ``[d^2 f / dz_j dzbar_m](z)``, symmetrized.

    ``f`` maps a length-n complex vector to a real scalar.  The default step
    is ``1e-4 * max(1, |z|)`` and one Richardson extrapolation level is
    applied.  Evaluation failures of ``f`` propagate.
    """
    z = as_point(z)
    h = default_fd_step(z) if step is None else float(step)
    if h <= 0:
        raise DomainError("step must be positive")
    H = (4.0 * _complex_hessian_once(f, z, h / 2.0) - _complex_hessian_once(f, z, h)) / 3.0
    return 0.5 * (H + H.conj().T)


def dbar_fd(f: Callable, z, step: Optional[float] = None) -> np.ndarray:
    """Central-difference vector of Wirtinger derivatives ``df/dzbar_m``.

    ``f`` may be complex-valued; used to differentiate cutoff factors.
    """
    z = as_point(z)
    h = (1e-6 * max(1.0, float(np.linalg.norm(z)))) if step is None else float(step)
    n = z.size
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        e = np.zeros(n, dtype=complex)
        e[m] = 1.0
        fx = (f(z + h * e) - f(z - h * e)) / (2.0 * h)
        fy = (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2.0 * h)
        out[m] = 0.5 * (fx + 1j * fy)
    return out


# ---------------------------------------------------------------------------
# metric data and curvature forms

def metric_coefficient(space: ModelSpace, z):
    """Conformal factor ``g`` of ``G = g I`` at each (..., n) point, assumed
    valid: 1 when flat, ``4 / (1 - |z|^2/kappa^2)^2`` on the ball."""
    z = np.asarray(z, dtype=complex)
    if space.is_flat:
        return np.ones(z.shape[:-1])
    s = (np.abs(z) ** 2).sum(axis=-1) / space.kappa ** 2
    return 4.0 / (1.0 - s) ** 2


def ddbar_log_ball(z, kappa: float) -> np.ndarray:
    """Closed-form ``[d^2/dz_j dzbar_m] log(1 - |z|^2/kappa^2)`` at each
    (..., n) point of the open kappa-ball, shape (..., n, n)."""
    z = np.asarray(z, dtype=complex)
    s = ((np.abs(z) ** 2).sum(axis=-1) / kappa ** 2)[..., None, None]
    outer = z.conj()[..., :, None] * z[..., None, :]
    return -(np.eye(z.shape[-1]) * (1.0 - s) + outer / kappa ** 2) / (kappa ** 2 * (1.0 - s) ** 2)


def ricci_form_matrix(space: ModelSpace, z) -> np.ndarray:
    """Coefficient matrix of the Ricci form ``-i ddbar log det G`` at one
    point (n, n) or at each row of an (m, n) array (m, n, n)."""
    zs, single = space.validate_rows(z)
    z = zs[0] if single else zs
    if space.is_flat:
        return np.zeros(z.shape + (space.n,))
    # log det G is -2n log(1 - |z|^2/kappa^2) plus a constant
    return 2.0 * space.n * ddbar_log_ball(z, space.kappa)


def relative_form_eigenvalues(space: ModelSpace, z, coeff_matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian (1,1)-forms against ``G = g I``,
    i.e. ``eigvalsh(2H) / g``: at one point (H (n, n), result (n,)) or at
    each row of an (m, n) array (H (m, n, n), result (m, n))."""
    zs, single = space.validate_rows(z)
    z = zs[0] if single else zs
    H = np.asarray(coeff_matrix)
    if H.shape != z.shape + (space.n,):
        raise DomainError("coefficient matrix has wrong shape for this space")
    return np.linalg.eigvalsh(2.0 * H) / metric_coefficient(space, z)[..., None]


def ricci_eigen(space: ModelSpace, z) -> float:
    """Smallest relative eigenvalue of the Ricci form at ``z``.

    Zero on flat space; ``-n/kappa^2`` at every point of the hyperbolic
    ball (the radial direction attains the minimum).
    """
    return float(relative_form_eigenvalues(space, z, ricci_form_matrix(space, z))[0])


# ---------------------------------------------------------------------------
# hyperbolic helpers (n = 1) used by polar quadrature and tests

def _centres(space: ModelSpace, p):
    """One centre (n = 1) as a complex, or an array of centres (ndim >= 2,
    one coordinate per entry) as a complex array of its shape; every centre
    is validated."""
    p = np.asarray(p, dtype=complex)
    if p.ndim <= 1:
        return complex(space.validate_point(p)[0])
    space.validate_points(p.reshape(-1, 1))
    return p


def mobius_translate(space: ModelSpace, p, u):
    """Isometry of the kappa-disk sending 0 to ``p``, applied to ``u`` (n=1).

    ``u`` may be a scalar or an array; the result has its shape.  ``p`` is
    one point, or an array of centres of ndim >= 2 (one coordinate per
    entry) that broadcasts against ``u``.
    """
    _require_disk(space)
    p = _centres(space, p)
    u = np.asarray(u, dtype=complex)
    out = (u + p) / (1.0 + p.conjugate() * u / space.kappa ** 2)
    return complex(out) if out.ndim == 0 else out


def geodesic_point(space: ModelSpace, p, d, theta):
    """Point at geodesic distance ``d`` and direction ``theta`` from ``p`` (n=1).

    ``d`` and ``theta`` broadcast against each other, and against ``p`` when
    it is an array of centres (see ``mobius_translate``); scalars give a
    complex.
    """
    if space.n != 1:
        raise SpaceMismatchError("geodesic_point is implemented for n = 1")
    d = np.asarray(d, dtype=float)
    direction = np.exp(1j * np.asarray(theta, dtype=float))
    if space.is_flat:
        out = _centres(space, p) + d * direction
        return complex(out) if out.ndim == 0 else out
    kap = space.kappa
    return mobius_translate(space, p, kap * np.tanh(d / (2.0 * kap)) * direction)


def polar_area_jacobian(space: ModelSpace, d):
    """Area element J(d) with dA = J(d) dd dtheta in geodesic polar coords (n=1).

    ``d`` may be a scalar or an array; scalars give a float.
    """
    if space.n != 1:
        raise SpaceMismatchError("polar_area_jacobian is implemented for n = 1")
    d = np.asarray(d, dtype=float)
    out = d if space.is_flat else space.kappa * np.sinh(d / space.kappa)
    return float(out) if out.ndim == 0 else out


def _require_disk(space: ModelSpace):
    if space.is_flat or space.n != 1:
        raise SpaceMismatchError("operation requires the hyperbolic disk (n = 1)")
