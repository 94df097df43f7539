"""References the tests check the library against, kept out of the library
so that no oracle shares code with what it checks: the kernel at two points,
the m x m normalized Gram unfolded from the library's orbit table and its
quarter-turn character blocks, the Riesz bounds of any node set, the
minimal-norm interpolant summed over its nodes, the normal-frame local
section of one node, a finite-difference dbar and the one-point
finite-difference Hessians.
"""

from typing import Callable, Optional

import numpy as np

from holo_interp import geometry, rkhs, weights
from holo_interp.errors import DomainError


# ---------------------------------------------------------------------------
# kernels and Grams

def kernel(space: rkhs.KernelSpace, z, w) -> complex:
    """K(z, w) at two points, through the library's extended log-kernel."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return complex(np.exp(space.log_kernel(z, w)))


def log_kernel(space: rkhs.KernelSpace, z, w) -> np.ndarray:
    """log K(z, w) in extended precision from the closed forms, at the rows
    of the (..., n) arrays ``z`` and ``w``, which broadcast: ``alpha z .
    conj(w)``, or ``-(A + 2) log(1 - z . conj(w) / kappa^2)``."""
    pair = np.sum(np.asarray(z, dtype=np.clongdouble)
                  * np.asarray(w, dtype=np.clongdouble).conj(), axis=-1)
    if space.kind == "fock":
        return space.alpha * pair
    return -(space.a_param + 2.0) * np.log(1.0 - pair / space.kappa ** 2)


def unfold(table: np.ndarray, quarter) -> np.ndarray:
    """The m x m Gram of an orbit table of ``KernelSpace._normalized_grams``
    with the ``(orbits, fixed)`` of ``rkhs._quarter_turn``: a view of an
    open set's one slice, an orbit table gathered in node order (node ``R^a
    q`` is row ``q``, turn ``a``: ``G[R^a q, R^b q'] = src[q, b - a,
    q']``)."""
    orbits, fixed = quarter
    if len(orbits) == 1:
        return table[:, 0]
    w, r, m = len(table), orbits.shape[1], orbits.size + len(fixed)
    rep, shift = np.full(m, r), np.zeros(m, dtype=np.intp)
    rep[orbits] = np.arange(r)
    shift[orbits] = np.arange(4)[:, None]
    flat = (shift - np.arange(4)[:, None]) % 4 * w + rep
    return np.take(table.reshape(-1), (4 * w * rep)[:, None] + flat[shift])


def normalized_gram(space: rkhs.KernelSpace, z) -> np.ndarray:
    """The m x m normalized Gram, unit diagonal and exactly Hermitian, of the
    library's one extended build on the nodes ``z`` (rows, or a vector of
    points in C^1), unfolded from its complex128 orbit table."""
    z = np.asarray(z, dtype=complex)
    z = z[:, None] if z.ndim == 1 else z
    quarter = rkhs._quarter_turn(z)
    return unfold(space._normalized_grams(z, quarter, rkhs._conjugation(z))[0], quarter)


def character_blocks(g: np.ndarray, quarter) -> list:
    """The quarter-turn character blocks ``B_k[q, q'] = sum_t i^(k t) G[q,
    R^t q']`` of the m x m Gram ``g`` on nodes with the ``(orbits, fixed)``
    of ``rkhs._quarter_turn``, gathered from ``g`` in full and summed as the
    library sums them, ``(s_0 +- s_2) + i^k (s_1 +- s_3)`` with ``s_t[q, q']
    = G[q, R^t q']``.  The origin is the last row and column of ``B_0``,
    ``(1/2) sum_t G[o, R^t q']`` and its conjugate; an open set's one block
    is ``g``."""
    orbits, fixed = quarter
    if len(orbits) == 1:
        return [g]
    s = g[orbits[0][None, :, None], orbits[:, None, :]]
    even, odd = s[0] + s[2], s[1] + s[3]
    alt, alt_i = s[0] - s[2], 1j * (s[1] - s[3])
    b0 = even + odd
    if len(fixed):
        o = fixed[0]
        b0 = np.block([[b0, 0.5 * g[orbits, o].sum(axis=0)[:, None]],
                       [0.5 * g[o, orbits].sum(axis=0)[None, :], g[o, o]]])
    return [b0, alt + alt_i, even - odd, alt - alt_i]


def riesz_bounds(space: rkhs.KernelSpace, pts) -> rkhs.GramDiagnostic:
    """The Riesz bounds of the normalized kernels on the nodes of ``pts``, as
    the library's solve finds them (the eigensolves of the Riesz forms
    gathered from the one orbit table), without its target values or
    conditioning guard."""
    quarter, sigma = rkhs._quarter_turn(pts.points), rkhs._conjugation(pts.points)
    table = space._normalized_grams(pts.points, quarter, sigma)[0]
    return rkhs._diagnose(rkhs._riesz_forms(table, quarter, sigma)[0])


# ---------------------------------------------------------------------------
# the interpolant

def interpolant(itp: rkhs.MinNormInterpolant, z) -> np.ndarray:
    """``f(z) = sum_j c_j K(z, p_j)`` of the minimal-norm interpolant ``itp``
    at the (N, n) rows ``z``, summed in extended precision over the nodes as
    ``y_j exp(log K(z, p_j) - h_j)``: ``y`` the solve's extended normalized
    coefficients, ``h`` the half diagonal logs.  The public ``coefficients``
    are ``y e^{-h}`` rounded to complex128, which leaves ``f(p)`` at a node
    off by up to ``eps e^{h_p} sum_j |G[p, j] y_j|``: on graded nodes far
    above the raw residual of the solve."""
    logk = log_kernel(itp.space, np.asarray(z)[:, None], itp.points.points)
    logk.real -= itp._half
    return (np.exp(logk) @ itp._y).astype(complex)


def residuals(itp: rkhs.MinNormInterpolant) -> np.ndarray:
    """Raw nodal residuals ``|f(p) - a_p|`` of ``interpolant`` at the nodes:
    an audit of ``itp.raw_residuals`` that builds a new m x m extended
    log-kernel instead of reading the solve's Gram, so the two agree at
    rounding level, not bit for bit."""
    return np.abs(interpolant(itp, itp.points.points) - itp.points.values)


# ---------------------------------------------------------------------------
# the glued construction

def local_section(w: weights.HermitianWeight, space: geometry.ModelSpace,
                  p, a_p: complex, z, delta0: float):
    """Normal-frame holomorphic section ``a_p exp(exponent_p(z))`` on the
    delta0-ball around the node ``p`` (its n coordinates); equals ``a_p`` at
    ``z = p``: the per-node reference of the glued extension.

    ``z`` is a (G, n) array of points, each in the open delta0-ball; the
    result is a (G,) array.
    """
    zs = space.validate_points(z)
    p = space.validate_points(geometry.as_point(p, space.n)[None, :])
    if np.any(geometry.geodesic_distances(space, zs, p) >= delta0):
        raise DomainError("local section evaluated outside its delta0-ball")
    return complex(a_p) * np.exp(weights.normal_frame_exponent(w, p, zs))


def dbar_fd(f: Callable, z, step: Optional[float] = None) -> np.ndarray:
    """Central-difference vector of Wirtinger derivatives ``df/dzbar_m``.

    ``f`` may be complex-valued; used to differentiate cutoff factors.
    """
    z = geometry.as_point(z)
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


def real_hessian_fd(g: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Hessian of the real function ``g`` at the real
    point ``x``, one evaluation of ``g`` at a time."""
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


def complex_hessian_point(f: Callable, z: np.ndarray, h: float) -> np.ndarray:
    """``geometry.complex_hessian_fd`` at the one point ``z`` (n,) with the
    step ``h``, from ``real_hessian_fd`` on ``f`` of one point at a time:
    the same stencil, rounding order and Richardson level."""
    n = z.size
    x = np.concatenate([z.real, z.imag])

    def level(step):
        R = real_hessian_fd(lambda xr: float(f((xr[:n] + 1j * xr[n:])[None, :])[0]), x, step)
        return (R[:n, :n] + R[n:, n:] + 1j * (R[:n, n:] - R[:n, n:].T)) / 4.0

    H = (4.0 * level(h / 2.0) - level(h)) / 3.0
    return 0.5 * (H + H.conj().T)
