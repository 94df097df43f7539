"""Hermitian metric weights split as ``sum_a |sigma_a|^2 + phi_def``.

The holomorphic parts are polynomials (exact derivatives); the deformation
part is a real polynomial in the underlying real coordinates or a built-in
closed form.  Every weight has one exact ``ddbar``, which the curvature
eigenvalues use.  Built-ins: ``fock(alpha)`` with weight ``alpha |z|^2`` and
``bergman(A)`` with weight ``-A log(1 - |z|^2/kappa^2)`` on the kappa-disk.
Points go in as rows and results come out as arrays, except in ``h_norm_sq``,
``local_oscillation``, ``mean_value_constant`` and ``frame_bound_constant``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import geometry, pointset
from .errors import DomainError, SpaceMismatchError


# ---------------------------------------------------------------------------
# polynomials

def _evaluate(terms: dict, x: np.ndarray, dtype) -> np.ndarray:
    """``sum coeff * prod_k x[..., k] ** e_k`` over a term dict mapping
    exponent tuples to coefficients, at each (..., d) row of ``x``."""
    out = np.zeros(x.shape[:-1], dtype=dtype)
    for powers, coeff in terms.items():
        mono = np.ones(x.shape[:-1], dtype=dtype)
        for k, e in enumerate(powers):
            if e:
                mono = mono * x[..., k] ** e
        out = out + coeff * mono
    return out


def _derivative(terms: dict, k: int) -> dict:
    """The term dict of the derivative in variable ``k``."""
    out = {}
    for powers, coeff in terms.items():
        e = powers[k]
        if e:
            key = powers[:k] + (e - 1,) + powers[k + 1:]
            out[key] = out.get(key, 0.0) + coeff * e
    return out


class Polynomial:
    """Holomorphic polynomial in n complex variables with exact derivatives.

    ``terms`` maps exponent tuples to complex coefficients.
    """

    def __init__(self, terms: dict, n: int):
        self.n = int(n)
        self.terms = {tuple(int(e) for e in k): complex(v) for k, v in terms.items() if v != 0}
        for k in self.terms:
            if len(k) != self.n or any(e < 0 for e in k):
                raise DomainError("bad exponent tuple in polynomial term")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "Polynomial":
        """One-variable polynomial from ascending coefficients."""
        return cls({(i,): c for i, c in enumerate(coeffs)}, 1)

    def __call__(self, z):
        return _evaluate(self.terms, np.asarray(z, dtype=complex), complex)

    def dz(self, k: int) -> "Polynomial":
        return Polynomial(_derivative(self.terms, k), self.n)

    @classmethod
    def from_dict(cls, d) -> "Polynomial":
        """A sigma of a weight spec: a list of ``[re, im]`` coefficients by
        ascending power, or ``{"n": ..., "terms": [...]}`` (``_spec_terms``)."""
        if isinstance(d, list):
            return cls.from_coeffs([_coefficient(c) for c in d])
        return cls(_spec_terms(d, "sigma", lambda t: _coefficient(t.get("coeff"))),
                   geometry._dimension(d["n"]))


class RealPolynomial:
    """Real polynomial in the 2n real coordinates (x_1..x_n, y_1..y_n).

    Serves as the closed-form deformation weight; Wirtinger gradients are
    exact.
    """

    def __init__(self, terms: dict, n: int):
        self.n = int(n)
        self.terms = {tuple(int(e) for e in k): float(v) for k, v in terms.items() if v != 0.0}
        for k in self.terms:
            if len(k) != 2 * self.n or any(e < 0 for e in k):
                raise DomainError("bad exponent tuple in real polynomial term")

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        return _evaluate(self.terms, np.concatenate([z.real, z.imag], axis=-1), float)

    def _partial(self, k: int) -> "RealPolynomial":
        return RealPolynomial(_derivative(self.terms, k), self.n)

    def ddbar(self, z) -> np.ndarray:
        """Exact ``[d^2/dz_j dzbar_m]`` at each (..., n) point, shape (..., n, n):
        ``(f_{x_j x_m} + f_{y_j y_m} + i (f_{x_j y_m} - f_{y_j x_m})) / 4``."""
        n = self.n
        f = [[self._partial(a)._partial(b).value(z) for b in range(2 * n)] for a in range(2 * n)]
        rows = [np.stack([f[j][m] + f[n + j][n + m] + 1j * (f[j][n + m] - f[n + j][m])
                          for m in range(n)], axis=-1) for j in range(n)]
        return 0.25 * np.stack(rows, axis=-2)

    def dz_gradient(self, z) -> np.ndarray:
        """Exact vector of d/dz_k = (d/dx_k - i d/dy_k)/2 at each (..., n)
        point, shape (..., n)."""
        return np.stack([0.5 * (self._partial(k).value(z) - 1j * self._partial(self.n + k).value(z))
                         for k in range(self.n)], axis=-1)


class BergmanDeformation:
    """Closed-form deformation ``-A log(1 - |z|^2/kappa^2)`` on the kappa-disk."""

    def __init__(self, a: float, kappa: float):
        geometry._check_kappa(kappa)
        self.a = float(a)
        self.kappa = float(kappa)

    def _s(self, z):
        z = np.asarray(z, dtype=complex)
        s = np.sum(np.abs(z) ** 2, axis=-1) / self.kappa ** 2
        if np.any(s >= 1.0):
            raise DomainError("point outside the open kappa-disk")
        return s

    def value(self, z):
        return -self.a * np.log(1.0 - self._s(z))

    def dz_gradient(self, z) -> np.ndarray:
        """Exact vector of d/dz_k at each (..., n) point, shape (..., n)."""
        zz = np.asarray(z, dtype=complex)
        s = self._s(zz)
        return self.a * zz.conj() / (self.kappa ** 2 * (1.0 - s))[..., None]

    def ddbar(self, z) -> np.ndarray:
        """Exact ``[d^2/dz_j dzbar_m]`` at each (..., n) point, shape (..., n, n)."""
        self._s(z)
        return -self.a * geometry.ddbar_log_ball(z, self.kappa)


# ---------------------------------------------------------------------------
# the weight

@dataclass(frozen=True)
class HermitianWeight:
    """Weight ``Phi = sum_a |sigma_a(z)|^2 + Phi_def(z)`` with frame data.

    ``m2`` bounds the second real derivatives of the deformation on frame
    balls of radius ``r0``; ``mu`` (and optionally ``lam``) bound the chart
    distortion from below (above).
    """

    sigmas: Tuple[Polynomial, ...]
    phi_def: Optional[object]
    m2: float
    r0: float
    mu: float
    lam: Optional[float] = None
    builtin: Optional[str] = None
    params: Tuple[float, ...] = ()
    n: int = 1

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.r0 > 0:
            raise DomainError(f"frame radius r0 must be positive, got {self.r0}")
        if not 0 < self.mu < math.inf:
            raise DomainError(f"distortion mu must be positive and finite, got {self.mu}")
        if not 0 <= self.m2 < math.inf:
            raise DomainError(f"second-derivative bound m2 must be nonnegative and finite, "
                              f"got {self.m2}")
        if self.lam is not None and not self.lam >= self.mu:
            raise DomainError(f"upper distortion lam must dominate mu, got {self.lam}")

    # -- evaluation --------------------------------------------------------
    def sigma_values(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if not self.sigmas:
            shape = z.shape[:-1] + (0,)
            return np.zeros(shape, dtype=complex)
        return np.stack([s(z) for s in self.sigmas], axis=-1)

    def phi_def_value(self, z):
        if self.phi_def is None:
            return np.zeros(np.shape(z)[:-1])
        return self.phi_def.value(z)

    def phi_def_dz(self, z) -> np.ndarray:
        if self.phi_def is None:
            return np.zeros(self.n, dtype=complex)
        return np.asarray(self.phi_def.dz_gradient(z), dtype=complex)

    def ddbar(self, z) -> np.ndarray:
        """Exact ``[d^2 Phi / dz_j dzbar_m]`` at each (..., n) point, shape
        (..., n, n): ``sum_a d sigma_a (x) conj(d sigma_a)`` plus the
        deformation's own ``ddbar``."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape[:-1] + (self.n, self.n), dtype=complex)
        for s in self.sigmas:
            d = np.stack([s.dz(k)(z) for k in range(self.n)], axis=-1)
            out = out + d[..., :, None] * d.conj()[..., None, :]
        return out if self.phi_def is None else out + self.phi_def.ddbar(z)

    def value(self, z) -> np.ndarray:
        """The weight Phi at each row of an (..., n) array of points."""
        z = np.asarray(z, dtype=complex)
        return np.sum(np.abs(self.sigma_values(z)) ** 2, axis=-1) + self.phi_def_value(z)

    def frame_bound_constant(self, delta0: float) -> float:
        """Bound C with ||f_p(z)||_h^2 <= C ||a(p)||_h^2 on the delta0-ball."""
        return math.exp(0.5 * self.m2 * (2 * self.n) ** 2 * delta0 ** 2 / self.mu ** 2)


def fock_weight(alpha: float = 1.0, n: int = 1, r0: float = 1.0) -> HermitianWeight:
    """Gaussian weight ``alpha |z|^2`` with sigma_k = sqrt(alpha) z_k."""
    if not 0.0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    root = math.sqrt(alpha)
    sigmas = []
    for k in range(n):
        powers = tuple(1 if j == k else 0 for j in range(n))
        sigmas.append(Polynomial({powers: root}, n))
    return HermitianWeight(tuple(sigmas), None, m2=0.0, r0=r0, mu=1.0,
                           builtin="fock", params=(float(alpha),), n=n)


def bergman_weight(a: float, kappa: float = 1.0, r0: Optional[float] = None,
                   m2: Optional[float] = None) -> HermitianWeight:
    """Disk weight ``-A log(1 - |z|^2/kappa^2)`` (n = 1).

    The deformation's second derivatives are unbounded near the rim, so the
    stored ``m2`` is a bound on the subdisk ``|z| <= 0.9 kappa`` unless
    overridden.  ``mu = 2`` is the global lower distortion of the disk
    metric against the Euclidean chart.
    """
    if not 0.0 < a < math.inf:
        raise DomainError("A must be positive and finite")
    deform = BergmanDeformation(a, kappa)
    if m2 is None:
        m2 = _bergman_second_derivative_bound(a, kappa, 0.9 * kappa)
    if r0 is None:
        r0 = 0.5 * kappa
    return HermitianWeight((), deform, m2=m2, r0=r0, mu=2.0,
                           builtin="bergman", params=(float(a), float(kappa)), n=1)


def _bergman_second_derivative_bound(a: float, kappa: float, radius: float) -> float:
    # max |second real partials| of f = -A log(1 - r^2/kappa^2) on |z| <= radius: the
    # radial f''(r) = 2A (1 + t) / (kappa^2 (1 - t)^2), t = (r/kappa)^2, dominates f'(r)/r and
    # the mixed partials and peaks on the rim; no factor of it under- or overflows
    t = (radius / kappa) ** 2
    return 1.05 * 2.0 * a * (1.0 + t) / (kappa ** 2 * (1.0 - t) ** 2)


# ---------------------------------------------------------------------------
# operations

def h_norm_sq(w: HermitianWeight, z, value: complex) -> float:
    """Pointwise squared h-norm ``|value|^2 exp(-Phi(z))``."""
    return abs(value) ** 2 * math.exp(-w.value(geometry.as_point(z, w.n)[None, :])[0])


def curvature_eigen_min(w: HermitianWeight, space: geometry.ModelSpace, z) -> np.ndarray:
    """Smallest relative eigenvalue of ``i ddbar Phi + Ric(omega)`` at each
    row of the (m, n) grid ``z``, an (m,) array.

    Exact: ``w.ddbar`` plus the closed-form Ricci form, against ``g I``.
    The weight must have the space's dimension, and a Bergman deformation
    on the ball its kappa.
    """
    if w.n != space.n:
        raise SpaceMismatchError(f"weight of dimension {w.n} on a space of dimension {space.n}")
    deform = w.phi_def
    if (isinstance(deform, BergmanDeformation) and not space.is_flat
            and abs(space.kappa - deform.kappa) > 1e-12 * deform.kappa):
        raise SpaceMismatchError("bergman weight kappa differs from the space kappa")
    zs = space.validate_points(z)
    total = w.ddbar(zs) + geometry.ricci_form_matrix(space, zs)
    return geometry.relative_form_eigenvalues(space, zs, total)[:, 0]


def normal_frame_exponent(w: HermitianWeight, p, z):
    """Holomorphic exponent of the normal frame centered at ``p``.

    ``sum_k dPhi_def/dz_k(p) (z_k - p_k) + sum_a conj(sigma_a(p)) (sigma_a(z)
    - sigma_a(p))``; vanishes at ``z = p``.  ``p`` and ``z`` are (..., n)
    arrays of centres and points that broadcast against each other.
    """
    p, z = np.asarray(p, dtype=complex), np.asarray(z, dtype=complex)
    if p.ndim < 2 or p.shape[-1] != w.n:
        raise DomainError(f"expected (..., {w.n}) rows of centres, got shape {p.shape}")
    sig_p = w.sigma_values(p)
    sig_z = w.sigma_values(z)
    grad = w.phi_def_dz(p)
    # one product of columns per term: numpy then rounds each element the
    # same way however many points are evaluated together, so a batched
    # evaluation equals the per-point one exactly.  The centres' coordinate
    # axis goes first, so indexing gives arrays that broadcast against the
    # points.
    sig_p, grad, p = (np.moveaxis(x, -1, 0) for x in (sig_p, grad, p))
    out = np.zeros(z.shape[:-1], dtype=complex)
    for a in range(sig_p.shape[0]):
        out = out + sig_p[a].conj() * (sig_z[..., a] - sig_p[a])
    for k in range(w.n):
        out = out + grad[k] * (z[..., k] - p[k])
    return out


def local_oscillation(w: HermitianWeight, center, radius: float,
                      boundary_samples: int = 2048) -> np.ndarray:
    """Per-sigma oscillation sup_{|z-c|<=radius} |sigma(z) - sigma(c)|.

    Holomorphic maxima sit on the boundary circle (n = 1: sampled densely;
    n > 1: random sphere directions).
    """
    c = geometry.as_point(center, w.n)
    if not w.sigmas:
        return np.zeros(0)
    if w.n == 1:
        theta = 2.0 * np.pi * np.arange(boundary_samples) / boundary_samples
        ring = c[0] + radius * np.exp(1j * theta)
        zs = ring[:, None]
    else:
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(boundary_samples, 2 * w.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        zs = c[None, :] + radius * (dirs[:, : w.n] + 1j * dirs[:, w.n:])
    out = np.empty(len(w.sigmas))
    for i, s in enumerate(w.sigmas):
        out[i] = float(np.max(np.abs(s(zs) - s(c))))
    return out


def mean_value_constant(w: HermitianWeight, center, radius: float) -> float:
    """Constant C in ``||f(x)||_h^2 <= C integral_{B(x,radius)} ||f||_h^2 dV``.

    ``exp(sum_a osc_a^2 + m2 (2n)^2 radius^2 / (2 mu^2))`` over the Euclidean
    volume of the radius ball; valid for holomorphic sections on flat space.
    """
    osc = local_oscillation(w, center, radius)
    expo = float(np.sum(osc ** 2)) + 0.5 * w.m2 * (2 * w.n) ** 2 * radius ** 2 / w.mu ** 2
    return math.exp(expo) / geometry.ball_volume_bound(0.0, radius, 2 * w.n)


# ---------------------------------------------------------------------------
# serialization

def _coefficient(c) -> complex:
    """A sigma coefficient: a finite ``[re, im]`` pair, by ``pointset._parse_pair``."""
    if not (pointset._is_pair(c) and cmath.isfinite(pointset._parse_pair(c))):
        raise DomainError(f"a sigma coefficient is a finite [re, im] pair of numbers, got {c!r}")
    return pointset._parse_pair(c)


def _spec_terms(spec, what: str, coeff) -> dict:
    """``{powers: coefficient}`` over the ``terms`` of a polynomial spec, the
    ``coeff(term)`` of equal powers summed.  Each term is an object with
    integral powers >= 0 (``2`` or ``2.0``, not ``1.9`` or ``true``) and a
    finite coefficient; anything else raises ``DomainError``."""
    if not isinstance(spec, dict) or not isinstance(spec.get("terms"), list):
        raise DomainError(f"a {what} is an object with a 'terms' list, got {spec!r}")
    terms = {}
    for t in spec["terms"]:
        powers = t.get("powers") if isinstance(t, dict) else None
        if not isinstance(powers, list) or not all(
                type(e) in (int, float) and 0 <= e < math.inf and e == int(e) for e in powers):
            raise DomainError(f"a {what} term needs a list of integer powers >= 0, got {t!r}")
        c = coeff(t)
        if not cmath.isfinite(c):
            raise DomainError(f"a {what} coefficient must be finite, got {t['coeff']!r}")
        key = tuple(map(int, powers))
        terms[key] = terms.get(key, 0) + c
    return terms


def weight_from_dict(d: dict) -> HermitianWeight:
    """The weight of a JSON spec: a builtin (``fock``, ``bergman``) or
    ``sigmas`` with an optional ``real_poly`` deformation.  Numeric fields
    are read by ``geometry._spec_number``; the spec's ``n``, the sigmas'
    and the deformation's dimensions must agree (``DomainError``)."""
    if not isinstance(d, dict):
        raise DomainError(f"a weight spec is a JSON object, got {d!r}")
    number = functools.partial(geometry._spec_number, d)
    n = geometry._dimension(d.get("n", 1))
    if "builtin" in d:
        name = d["builtin"]
        if name == "fock":
            return fock_weight(number("alpha", 1.0), n=n, r0=number("r0", 1.0))
        if name == "bergman":
            if n != 1:
                raise DomainError(f"the bergman weight lives on the disk (n = 1), not n = {n}")
            return bergman_weight(number("A" if "A" in d else "a", 1.0),
                                  kappa=number("kappa", 1.0))
        raise DomainError(f"unknown builtin weight {name!r}")
    if not isinstance(d.get("sigmas", []), list):
        raise DomainError(f"'sigmas' must be a list, got {d['sigmas']!r}")
    sigmas = tuple(Polynomial.from_dict(s) for s in d.get("sigmas", []))
    phi_def = None
    if d.get("phi_def"):
        if not isinstance(d["phi_def"], dict):
            raise DomainError(f"'phi_def' must be an object, got {d['phi_def']!r}")
        spec = d["phi_def"]["real_poly"]
        terms = _spec_terms(spec, "real_poly", lambda t: geometry._spec_number(t, "coeff", None))
        phi_def = RealPolynomial(terms, geometry._dimension(spec["n"]))
    dims = {s.n for s in sigmas}
    if phi_def is not None:
        dims.add(phi_def.n)
    if "n" in d:
        dims.add(n)
    if len(dims) > 1:
        raise DomainError(f"the weight's n, sigmas and deformation disagree on the "
                          f"dimension: {sorted(dims)}")
    return HermitianWeight(
        sigmas, phi_def,
        m2=number("M2", 0.0),
        r0=number("r0", 1.0),
        mu=number("mu", 1.0),
        lam=None if d.get("lam") is None else number("lam", None),
        n=dims.pop() if dims else n,
    )
