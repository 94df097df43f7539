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
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import pointset
from .errors import ConditioningError, DomainError, NumericalGuardError, SizeGuardError
from .reporting import dump_csv

SIZE_GUARD = 2000
CONDITION_GUARD = 1e-10
#: stored mantissa bits of ``np.longdouble``: 63 for x87 float80, 52 where
#: long double is float64 (Windows, macOS arm64), which leaves the extended
#: Gram and refinement no more accurate than the plain double solve
LONGDOUBLE_MANTISSA = np.finfo(np.longdouble).nmant


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
        if not all(math.isfinite(v) for v in (self.alpha, self.a_param, self.kappa)):
            raise DomainError("kernel parameters alpha, A and kappa must be finite")
        if self.kind == "fock" and self.alpha <= 0:
            raise DomainError("alpha must be positive")
        if self.kind == "bergman":
            if self.n != 1:
                raise DomainError("the bergman kernel is implemented on the disk (n = 1)")
            if self.a_param + 2.0 <= 0 or self.kappa <= 0:
                raise DomainError("bergman kernel requires A + 2 > 0 and kappa > 0")

    # -- raw kernel ---------------------------------------------------------
    def log_kernel(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """log K(z, w) (principal branch) of the rows of the (..., n) arrays
        ``z`` and ``w``, which broadcast against each other: the kernel of
        ``sum_k z_k conj(w_k)`` (``sum(z * conj(w), axis=-1)``).  Pass
        ``z[:, None]`` and ``w`` for the (N, M) matrix of all pairs, the
        gathered rows of each pair for a list of pairs.

        Evaluated in extended precision (``np.clongdouble``): exponent
        arguments grow like alpha |z| |w|, and on graded node sets phase
        rounding in double precision would dominate.
        """
        pair = np.sum(np.asarray(z, dtype=np.clongdouble)
                      * np.asarray(w, dtype=np.clongdouble).conj(), axis=-1)
        if self.kind == "fock":
            pair *= self.alpha
            return pair
        arg = 1.0 - pair / self.kappa ** 2
        if np.any(np.abs(arg) == 0):
            raise DomainError("bergman kernel singular: z conj(w) = kappa^2")
        return -(self.a_param + 2.0) * np.log(arg)

    def diag_log(self, z: np.ndarray) -> np.ndarray:
        """log K(p, p) in extended precision of each row of the (m, n) ``z``;
        a row that is not finite or, for the Bergman kernel, not inside the
        kappa-disk raises ``DomainError``."""
        z = np.asarray(z, dtype=np.clongdouble)
        if not np.all(np.isfinite(z)):
            raise DomainError("points must be finite")
        s = np.sum(np.abs(z) ** 2, axis=1)
        if self.kind == "fock":
            return self.alpha * s
        if np.any(s >= self.kappa ** 2):
            raise DomainError("points must lie inside the kappa-disk")
        return -(self.a_param + 2.0) * np.log(1.0 - s / self.kappa ** 2)

    def _normalized_grams(self, points: np.ndarray, quarter, sigma):
        """The normalized Gram from one extended-precision build on the (m, n)
        node rows ``points``, as ``(complex128 table with unit diagonal,
        clongdouble table, half diagonal logs log K(p, p) / 2)``.

        ``quarter`` is ``_quarter_turn(points)`` and ``sigma`` is
        ``_conjugation(points)``; every node set's table is the orbit table
        of ``_orbit_gram``.  The Riesz forms are gathered from the complex128
        table, the refinement mat-vecs of ``min_norm_interpolant`` read the
        extended one (``_table_matvec``), and no m x m Gram is unfolded.  The
        extended table keeps its computed diagonal ``exp(logk_ii - dl_i)``,
        the one the residuals of the solve see.
        Rows not in C^n raise ``DomainError``.
        """
        if points.shape[1] != self.n:
            raise DomainError(f"{self.kind} kernel on C^{self.n} given nodes "
                              f"in C^{points.shape[1]}")
        half = 0.5 * self.diag_log(points)
        table_ld = self._orbit_gram(points, half, *quarter, sigma)
        table = table_ld.astype(complex)
        np.fill_diagonal(table[:, 0], 1.0)
        return table, table_ld, half

    def _orbit_gram(self, points, half, orbits, fixed, sigma):
        """The extended (w, c, w) orbit table ``src[q, t, q'] = s_t[q, q'] =
        G[q, R^t q']`` (``orbits``, shape (c, r), and ``fixed`` from
        ``_quarter_turn``): one row per representative ``orbits[0]`` and,
        last, the origin, whose row and column are the same in every ``t``.
        An open set's one-row orbits (c = 1) give ``s_0 = G`` alone.  Only
        the upper triangles of the Hermitian ``s_0``, ``s_2`` (t < min(c,
        3)), all of ``s_1`` and the origin's column are exponent entries, on
        a closed set about m^2 / 8 of them, the lower triangles are their
        mirrors, and ``s_3 = s_1^H``.  The Gram kernel depends on ``z .
        conj(w)`` only, so ``G[R q, R j] = G[q, j]`` and every Gram entry is
        one table entry: the unfolded Gram is exactly Hermitian and
        R-invariant.

        Both kernels also satisfy ``K(conj z, conj w) = conj K(z, w)`` (alpha,
        A and kappa are real, and the Bergman log stays off its cut), so on
        a set closed under conjugation (``sigma``, from ``_conjugation``) the
        exponent entries pair up as ``_exponent_classes`` finds.  The
        extended log-kernel is evaluated once, on the gathered pairs of
        points of the lead entries only, and written with the copies of the
        followers straight into the table.  The two real half diagonal logs
        ``h`` are subtracted from the real parts, one after the other, the
        larger first, so an entry depends on its pair of points only;
        subtracting their rounded sum made the refined nodal residual six
        times larger.

        The graded floor: a lead entry whose exponent ``x`` has ``Re x + |h_p
        - h_q| < log u``, ``u = np.finfo(np.longdouble).epsneg`` (2^-64 on
        x87), is exact zero and is not exponentiated; in kernel terms
        ``|K(p, q)| < u min(K(p, p), K(q, q))``.  Its followers copy the
        zero.  The dropped matrix ``E`` has ``|E[p, q]| < u`` off the
        diagonal, so by Weyl the eigenvalues move by at most ``||E||_2 <=
        (m - 1) u <= 1999 * 2^-64``, about 1.1e-16 at the size guard.  Dropped
        terms add at most ``u sum_q |K(q, q) c_q|`` to each raw nodal
        residual ``|f(p) - a_p|`` and at most ``u ||y||_1`` to each weighted
        one.  The ``|h_p - h_q|`` term makes the raw bound hold: a floor on
        ``|G[p, q]|`` alone drops ``|K(p, q)|`` up to ``u sqrt(K(p, p)
        K(q, q))``, which leaves the node with the larger ``K(p, p)``
        unbounded in the grading.  Every other entry is bit for bit the one
        of the full build.
        """
        c, r = orbits.shape
        # node[t, q'] = R^t q' (the origin in every t): G[q, R^t q'] is the
        # kernel of the rows node[0, q] and node[t, q']
        node = np.concatenate([orbits, np.broadcast_to(fixed, (c, len(fixed)))], axis=1)
        w = node.shape[1]
        lead, follow, source, flip = _exponent_classes(orbits, fixed, sigma)
        row, col = np.divmod(lead, c * w)
        x, keep = self._floored_exponents(points, half, node[0][row], node.reshape(-1)[col])
        # a partner's exponent is its leader's conjugate, or, where its
        # imaginary part is a zero, the same with the same sign
        flip &= x.imag[source] != 0
        x[keep] = np.exp(x[keep])
        x[~keep] = 0
        src = np.empty((w, c, w), dtype=x.dtype)
        flat = src.reshape(-1)
        flat[lead] = x
        x = x[source]  # the followers' copies; the leads' array is freed
        np.negative(x.imag, out=x.imag, where=flip)
        flat[follow] = x
        lower = np.tri(r, k=-1, dtype=bool)
        for t in range(0, min(c, 3), 2):
            block = src[:r, t, :r]
            block[lower] = block.T[lower].conj()
        if len(fixed):
            src[:, 1:, r] = src[:, :1, r]  # G[q, o] and G[o, o]
            src[r, :, :r] = src[:r, 0, r].conj()
        if c == 4:
            np.conjugate(src[:r, 1, :r].T, out=src[:r, 3, :r])
        return src

    def _floored_exponents(self, points, half, rows, cols):
        """The exponents ``x = log K(p, q) - h_p - h_q`` of the normalized
        kernel at the node pairs ``(rows[i], cols[i])`` of ``points``, the
        half logs ``half`` subtracted larger first, and the mask of the pairs
        at or above the graded floor of ``_orbit_gram``: ``Re log K(p, q) >=
        log u + 2 min(h_p, h_q)``, which is ``Re x + |h_p - h_q| >= log u``."""
        points = points.astype(np.clongdouble)  # once, not per gathered pair
        x = self.log_kernel(points[rows], points[cols])
        h_row, h_col = half[rows], half[cols]
        low = np.minimum(h_row, h_col)
        keep = x.real >= 2 * low + _LOG_FLOOR
        x.real -= np.maximum(h_row, h_col)
        x.real -= low
        return x, keep


#: ``log u`` for the long double's ``u = epsneg``: the graded floor of
#: ``KernelSpace._orbit_gram``
_LOG_FLOOR = np.log(np.finfo(np.longdouble).epsneg)


def _exponent_classes(orbits, fixed, sigma):
    """The exponent entries of the (w, c, w) orbit table ``src`` of
    ``_orbit_gram``, as flat indices into it: ``(lead, follow, source,
    flip)``.  The ``lead`` entries are evaluated, and the ``follow``
    entries are copies of ``lead[source]``, conjugated where ``flip``
    (unless the exponent is real).

    The exponent entries are ``(q, t, q')`` for ``s_t[q, q']``: the upper
    triangles of ``s_0`` and ``s_2``, all of ``s_1`` and the origin's
    column, stored at ``t = 0``.  Without ``sigma`` they all lead.  With the
    conjugation permutation ``sigma`` of ``_conjugation``, ``sigma(q) =
    R^u_q pi(q)`` on representatives, and ``K(conj z, conj w) = conj K(z,
    w)`` gives ``s_t[q, q'] = conj s_t_c[pi q, pi q']``, ``t_c = u_q' - u_q
    - t (mod 4)``; with the Hermitian mirror, also ``s_t[q, q'] =
    s_(-t_c)[pi q', pi q]``.  Each exponent entry's partner is that
    unconjugated one when it is an exponent entry itself, otherwise the
    conjugated one, which then is; of a pair, the one first in the table
    leads.  Self-partnered entries lead, as does the origin's column.
    """
    c, r = orbits.shape
    k, w = min(c, 3), r + len(fixed)
    row = c * w  # src[q, t, q'] is flat entry q row + t w + q'
    q = np.arange(r, dtype=np.int32)[:, None, None]
    t = np.arange(k, dtype=np.int32)[:, None]
    q2 = np.arange(r, dtype=np.int32)
    entry = (t == 1) | (q <= q2)  # entry[q, t, q'] for s_t[q, q']
    at = q * row + t * w + q2
    none = np.empty(0, dtype=np.int32)
    origin = np.arange(w, dtype=np.int32) * row + r if len(fixed) else none
    if sigma is None:
        return np.concatenate([at[entry], origin]), none, none, none.astype(bool)
    pi, u = _pairing(orbits, sigma)
    t_c = (u[q2] - u[q] - t) & 3  # mod 4
    t_h = -t_c & 3
    copy = (t_h == 1) | ((t_h != 3) & (pi[q2] <= pi[q]))
    partner = np.where(copy, pi[q2] * row + t_h * w + pi[q],
                       pi[q] * row + t_c * w + pi[q2])
    later = entry & (at > partner)
    entry &= ~later
    lead = np.concatenate([at[entry], origin])
    rank = np.empty(w * row, dtype=np.int32)  # rank[lead[i]] = i
    rank[lead] = np.arange(len(lead), dtype=np.int32)
    return lead, at[later], rank[partner[later]], ~copy[later]


def _pairing(orbits, sigma):
    """The conjugation ``sigma`` of ``_conjugation`` on the representatives
    ``orbits[0]`` of ``_quarter_turn``'s orbits, as ``(pi, u)`` with
    ``sigma(q) = R^u_q pi(q)``: ``pi`` is a permutation of ``arange(r)``.
    Conjugation reverses the turn, ``sigma R = R^-1 sigma``, so ``pi`` is an
    involution and ``u_(pi q) = u_q``.  On an open set (one-row orbits)
    ``pi`` is ``sigma`` and ``u`` is zero."""
    c, r = orbits.shape
    rep, turn = np.empty((2, len(sigma)), dtype=np.int32)
    rep[orbits] = np.arange(r)
    turn[orbits] = np.arange(c)[:, None]
    return rep[sigma[orbits[0]]], turn[sigma[orbits[0]]]


def fock_kernel(alpha: float = 1.0, n: int = 1) -> KernelSpace:
    return KernelSpace("fock", n=n, alpha=alpha)


def bergman_kernel(a: float, kappa: float = 1.0) -> KernelSpace:
    return KernelSpace("bergman", n=1, a_param=a, kappa=kappa)


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class GramDiagnostic:
    """Riesz bounds of the normalized kernel system on a finite node set.

    ``eig_min`` and ``eig_max`` are the extreme eigenvalues of the
    normalized Gram, from the matrices of ``_riesz_forms``, the ones
    ``min_norm_interpolant`` factors: the quarter-turn character blocks
    when the node set is closed under ``z -> i z``, which diagonalize its
    exactly turn-invariant Gram, otherwise the Gram itself; and when the
    node set is closed under ``z -> conj z``, real symmetric matrices
    unitarily similar to those blocks (or to the Gram), one each, with no
    complex block formed.  No m x m Gram is formed.
    """

    eig_min: float
    eig_max: float
    condition: float


def _check_size(pts: pointset.PointSet) -> None:
    m = len(pts)
    if m == 0:
        raise DomainError("gram matrix of an empty point set")
    if m > SIZE_GUARD:
        raise SizeGuardError(f"{m} points exceed the gram size guard ({SIZE_GUARD})")


def _diagnose(forms: list) -> GramDiagnostic:
    """The diagnostic of the normalized Gram from the matrices (or stacks of
    them) of ``_riesz_forms``, whose spectra together are the Gram's: one
    ``eigvalsh`` each, empty ones skipped.  On a quarter-turn-closed set the
    four quarter-size blocks cost about a sixteenth of one full solve, and
    the real symmetric form of a block about half of the block's own
    complex solve at these orders."""
    spectra = [np.linalg.eigvalsh(f) for f in forms if f.size]
    eig_min = float(min(ev[..., 0].min() for ev in spectra))
    eig_max = float(max(ev[..., -1].max() for ev in spectra))
    return GramDiagnostic(eig_min, eig_max, math.inf if eig_min <= 0 else eig_max / eig_min)


def _quarter_turn(points: np.ndarray):
    """The orbits of the quarter turn ``R``, ``points[R j] == 1j *
    points[j]``, as ``(orbits, fixed)``.

    ``orbits[t, q] = R^t q`` (shape (4, r)) for one representative ``q`` per
    four-point orbit, its smallest index, in ascending order; ``fixed``
    holds the origin, the only possible fixed point, or nothing.  Rows not
    distinct and exactly closed under ``R`` are the one-row orbits
    ``arange(m)[None, :]`` with no fixed point.  The Gram build, the Riesz
    forms and the form solve all read these.

    Multiplying by ``1j`` only swaps and negates coordinates, so matching by
    exact value is reliable (``_permutation_onto``).
    """
    points = np.ascontiguousarray(points, dtype=complex)
    turn = _permutation_onto(points, 1j * points)
    if turn is None:
        return np.arange(len(points))[None, :], np.empty(0, dtype=np.intp)
    j = np.arange(len(turn))
    orbit = np.stack([j, turn, turn[turn], turn[turn[turn]]])  # orbit[t, j] = R^t j
    return orbit[:, (orbit.min(axis=0) == j) & (turn != j)], np.flatnonzero(turn == j)


def _conjugation(points: np.ndarray):
    """The conjugation ``sigma``, ``points[sigma[j]] == conj(points[j])``
    in every coordinate, or ``None`` when the rows are not distinct and
    exactly closed under it.

    Both kernels satisfy ``K(conj z, conj w) = conj K(z, w)``: alpha, A and
    kappa are real, and the Bergman kernel's principal log is taken at
    ``1 - z conj(w) / kappa^2``, whose real part is positive, away from the
    cut.  ``_orbit_gram`` exponentiates one of each pair of Gram entries
    this relates.  Conjugating only negates coordinates, so matching by
    exact value is reliable (``_permutation_onto``).
    """
    points = np.ascontiguousarray(points, dtype=complex)
    return _permutation_onto(points, points.conj())


def _permutation_onto(points: np.ndarray, image: np.ndarray):
    """The permutation ``p`` with ``points[p[j]] == image[j]``, or ``None``
    when the rows of the (m, n) ``points`` are not distinct or ``image`` is
    not a rearrangement of them.  The rows and their images are each sorted
    lexicographically (signed zeros compare equal); ``image`` is a
    rearrangement when the two sorted lists agree.
    """
    rows, images = points.view(float), image.view(float)
    by_row = np.lexsort(rows.T[::-1])
    by_image = np.lexsort(images.T[::-1])
    ranked = rows[by_row]
    if (np.any(np.all(ranked[1:] == ranked[:-1], axis=1))
            or not np.array_equal(ranked, images[by_image])):
        return None
    p = np.empty(len(rows), dtype=np.intp)
    p[by_image] = by_row
    return p


#: ``_DFT[k, t] = i^(-k t)``, the 4-point DFT of an orbit's entries
_DFT = np.array([1, -1j, -1, 1j])[np.outer(np.arange(4), np.arange(4)) % 4]


#: ``_ROOT[j] = e^(-i pi j / 4)``, a square root of ``i^(-j)``
_ROOT = np.array([1, math.sqrt(0.5) * (1 - 1j), -1j, -math.sqrt(0.5) * (1 + 1j)])


def _riesz_forms(table: np.ndarray, quarter, sigma):
    """The matrices whose spectra together make up the normalized Gram's,
    gathered from the complex128 ``table`` of ``KernelSpace._normalized_grams``
    (rounded, unit diagonal) on nodes with the ``(orbits, fixed)``
    ``quarter`` of ``_quarter_turn`` and the conjugation ``sigma`` of
    ``_conjugation``, as ``(forms, (quarter, cols, p, scale))``.  The forms
    are also the matrices that ``min_norm_interpolant`` factors.

    Both kernels depend on ``z . conj(w)`` only (no other kernel may take
    this path), so on rows exactly closed under ``R: z -> i z`` the Gram is
    unitarily block-diagonal over the characters ``k = 0..3`` of ``R``: in
    the basis ``v_k^q = sum_t i^(k t) e_{R^t q}`` it acts as ``B_k[q, q'] =
    sum_t i^(k t) s_t[q, q']``, ``s_t[q, q'] = G[q, R^t q']`` the slices of
    the table, and ``x`` has the coordinates ``beta_k[q] = (1/4) sum_t
    i^(-k t) x[R^t q]``, mapped back by ``x[R^t q] = sum_k i^(k t)
    beta_k[q]``.  The origin belongs to ``k = 0`` with the basis vector ``2
    e_o``: its row of ``B_0`` is ``(1/2) sum_t G[o, R^t q']``, its column the
    conjugate, its coordinate ``x[o] / 2``.  Any other node set is one
    block, its Gram ``table[:, 0]``: one orbit row ``arange(m)``, no
    ``fixed``, and ``_DFT[:1, :1]`` the identity.

    With ``sigma(q) = R^u_q pi(q)`` on representatives (``_pairing``) and
    ``K(conj z, conj w) = conj K(z, w)``, the antiunitary ``x -> P_sigma
    conj(x)`` commutes with the Gram: ``B_k[pi q, pi q'] = conj(B_k[q, q'])
    i^(k (u_q' - u_q))``, the origin fixed with ``u = 0``.  So ``h = L^* B_k
    L``, ``L`` diagonal with ``1`` on the first member ``a`` of each pair
    ``(a, b = pi a)`` and on the origin, ``i^(-j)`` on ``b`` and ``_ROOT[j]``
    on a self-paired ``f`` (``j = k u mod 4``), has ``h[pi q, pi q'] = conj
    h[q, q']``, and in the basis ``(e_a + e_b) / sqrt 2``, ``i (e_a - e_b) /
    sqrt 2``, ``e_f`` it is the real symmetric ``F_k = [[Re(H1 + H2), Im(H2
    - H1), sqrt2 Re h3], [Im(H1 + H2), Re(H1 - H2), sqrt2 Im h3], [sqrt2 Re
    hfa, -sqrt2 Im hfa, Re hff]]``, ``H1 = h[a, a]``, ``H2 = h[a, b]``, ``h3
    = h[a, f]``, ``hfa = h[f, a]``, ``hff = h[f, f]``.  Only the rows ``a``,
    ``f`` and the origin of each ``s_t``, at the columns ``a``, ``b``, ``f``
    and the origin, are gathered, and summed as ``(s_0 +- s_2) + i^k (s_1 +-
    s_3)``.  A set not closed under conjugation is taken as ``pi`` the
    identity and ``u = 0``: every row is an ``f``, ``L`` is 1, and the forms
    are the complex blocks, an open set's the view ``table[:, 0]``.

    ``forms`` is ``F_0`` and, on a turn-closed set, ``F_1`` to ``F_3`` as
    one (3, r, r) stack.  Every block keeps its form: the symmetry maps each
    character to itself, and ``B_3`` is not isospectral to ``B_1`` (on the
    spacing-2 half-shifted lattice at alpha 0.6 it holds both extremes).
    ``cols[j]`` is the block row of form coordinate ``j`` (pair coordinates
    on ``a`` then ``b``, the origin last, in ``F_0`` only), so a principal
    sub-block of a form on whole conjugate pairs is the form built on them
    alone, bit for bit; ``p`` counts the pairs and ``scale[k]`` is ``L`` of
    character ``k`` at ``cols``.  ``eigvalsh`` and ``cho_factor(lower=True)``
    read the lower triangles of these forms, symmetric to rounding.
    """
    orbits, fixed = quarter
    c, r = orbits.shape
    q = np.arange(r)
    pi, u = (q, 0 * q) if sigma is None else _pairing(orbits, sigma)
    a, f, o = np.flatnonzero(q < pi), np.flatnonzero(q == pi), r + np.arange(len(fixed))
    p, n = len(a), r - len(a)  # pairs, and the rows a and f
    rows, cols = np.concatenate([a, f, o]), np.concatenate([a, pi[a], f, o])
    turns = np.arange(c)[:, None] * u % 4  # k u_q
    scale = np.ones((c, len(cols)), dtype=complex)
    scale[:, p:r] = np.concatenate([_DFT[1, turns[:, a]], _ROOT[turns[:, f]]], axis=1)
    # sub[i, t, j] = G[rows[i], R^t cols[j]]; without sigma every row, in order
    sub = table if sigma is None else table[np.ix_(rows, np.arange(c), cols)]
    forms = [sub[:, 0]]
    if c == 4:
        s = sub[:n, :, :r].transpose(1, 0, 2)
        even, odd = s[0] + s[2], s[1] + s[3]
        alt, alt_i = s[0] - s[2], 1j * (s[1] - s[3])
        b0 = even + odd
        if len(fixed):
            b0 = np.block([[b0, 0.5 * sub[:n, :, r].sum(axis=1)[:, None]],
                           [0.5 * sub[n, :, :r].sum(axis=0)[None, :], sub[n, 0, r]]])
        h = np.stack([alt + alt_i, even - odd, alt - alt_i])
        # L on the columns b and f, L^* on the rows f; L is 1 on a
        h[:, :, p:] *= scale[1:, None, p:r]
        h[:, p:] *= scale[1:, 2 * p:r, None].conj()
        forms = [b0, h]
    if sigma is not None:
        forms = [_real_form(form, p) for form in forms]
    return forms, (quarter, cols, p, scale)


def _real_form(h, p):
    """The real symmetric form of ``_riesz_forms`` from the scaled rows ``a``
    then ``f`` and columns ``a``, ``b``, ``f`` of ``h`` (``p`` pairs), over
    its last two axes."""
    root2 = math.sqrt(2)
    pair, cross, self_ = slice(p), slice(p, 2 * p), slice(2 * p, None)
    h1, h2, h3, hfa = h[..., :p, pair], h[..., :p, cross], h[..., :p, self_], h[..., p:, pair]
    form = np.empty(h.shape[:-2] + (h.shape[-1],) * 2)
    np.add(h1.real, h2.real, out=form[..., pair, pair])
    np.subtract(h2.imag, h1.imag, out=form[..., pair, cross])
    np.multiply(h3.real, root2, out=form[..., pair, self_])
    np.add(h1.imag, h2.imag, out=form[..., cross, pair])
    np.subtract(h1.real, h2.real, out=form[..., cross, cross])
    np.multiply(h3.imag, root2, out=form[..., cross, self_])
    np.multiply(hfa.real, root2, out=form[..., self_, pair])
    np.multiply(hfa.imag, -root2, out=form[..., self_, cross])
    form[..., self_, self_] = h[..., p:, self_].real
    return form


#: ``M^*`` on the coordinates ``(a, b)`` of a conjugate pair, ``M``'s columns
#: ``(e_a + e_b) / sqrt 2`` and ``i (e_a - e_b) / sqrt 2`` (``_riesz_forms``)
_MIX = math.sqrt(0.5) * np.array([[1, 1], [-1j, 1j]])


def _form_solve(factors: list, basis, rhs: np.ndarray) -> np.ndarray:
    """Solve ``G x = rhs`` (complex128) from the Cholesky ``factors`` of the
    forms of ``_riesz_forms``, one per character, and their ``basis``:
    ``rhs`` into the block coordinates ``beta_k``, through ``L^*`` and the
    pair mixing into form coordinates, one ``cho_solve`` per form (a real
    form takes the real and imaginary parts as two columns), and back
    through the same maps."""
    (orbits, fixed), cols, p, scale = basis
    c, r = orbits.shape
    beta = np.zeros((c, len(cols)), dtype=complex)
    beta[:, :r], beta[0, r:] = _DFT[:c, :c] @ rhs[orbits] / c, rhs[fixed] / 2
    v = beta[:, cols] * scale.conj()
    pairs = v[:, :2 * p].reshape(c, 2, p)  # pairs[k, :, j] on a[j] and b[j]
    pairs[:] = _MIX @ pairs
    re_im = v.view(float).reshape(c, len(cols), 2)
    for k, factor in enumerate(factors):
        part = (re_im if factor[0].dtype == float else v)[k, :len(factor[0])]
        part[:] = scipy.linalg.cho_solve(factor, part)
    pairs[:] = _MIX.conj().T @ pairs
    beta[:, cols] = v * scale
    out = np.empty_like(rhs)
    out[orbits] = _DFT[:c, :c].conj() @ beta[:, :r]
    out[fixed] = 2 * beta[0, r:]
    return out


def _table_matvec(table: np.ndarray, quarter):
    """The product ``y -> G y`` with the Gram of the (w, c, w) orbit
    ``table`` of ``KernelSpace._normalized_grams`` (``quarter`` its
    ``(orbits, fixed)``), read from the table: no m x m Gram is unfolded.

    Node ``R^a q`` is row ``q``, turn ``a``, and ``G[R^a q, R^b q'] =
    src[q, b - a, q']``, so ``(G y)[R^a q] = sum_(t, q') src[q, t, q'] y[R^(a
    + t) q']`` plus ``src[q, 0, o] y[o]`` for the origin.  With ``Y[a, t,
    q'] = y[R^(a + t) q']``, ``y[o]`` in the origin's ``t = 0`` slot and
    zeros in its others, that is ``np.dot(Y, table.reshape(w, c w).T)[a,
    q]``, about m^2 products as in the unfolded ``G @ y``; the origin's own
    row is ``a = 0``.  On an open set (c = 1) the sum is ``np.dot(G, y)``
    bit for bit.
    """
    orbits, fixed = quarter
    c, r = orbits.shape
    w, m = len(table), orbits.size + len(fixed)
    take = np.full((c, c, w), m)  # index m: a zero appended to y
    take[:, :, :r] = orbits[(np.arange(c)[:, None] + np.arange(c)) % c]
    take[:, 0, r:] = fixed
    take = take.reshape(c, c * w)
    flat_t = table.reshape(w, c * w).T

    def matvec(y):
        prod = np.dot(np.append(y, 0)[take], flat_t)
        out = np.empty_like(y)
        out[orbits] = prod[:, :r]
        out[fixed] = prod[0, r:]
        return out

    return matvec


# ---------------------------------------------------------------------------
# minimal-norm interpolation

class MinNormInterpolant:
    """Kernel-span interpolant ``f = sum_j c_j K(., p_j)`` with minimal
    space norm among interpolants of the nodal data.

    The nodal residuals come from the solve's extended-precision Gram: the
    kernel sum cancels heavily on graded node sets, and plain double phases
    would cap the achievable nodal residual well above the 1e-10 contract.
    """

    def __init__(self, space: KernelSpace, pts: pointset.PointSet,
                 normalized_coeff: np.ndarray, half_diag_log: np.ndarray, norm_sq: float,
                 diagnostic: GramDiagnostic, weighted_residuals: np.ndarray,
                 raw_residuals: np.ndarray):
        self.space = space
        self.points = pts
        self._y = normalized_coeff  # clongdouble, one per node
        self._half = half_diag_log  # log K(p, p) / 2 in extended precision, one per node
        self.norm_sq = norm_sq
        self.diagnostic = diagnostic
        #: nodal residuals ``|f(p) - a| e^{-Phi(p)/2} = |G y - a e^{-Phi/2}|``
        #: in the normalized scale, from the solve's extended-precision Gram
        self.weighted_residuals = weighted_residuals
        #: raw nodal residuals ``|f(p) - a| = e^{Phi(p)/2} |G y - a e^{-Phi/2}|``
        #: from the same extended-precision residual vector
        self.raw_residuals = raw_residuals

    @property
    def coefficients(self) -> np.ndarray:
        """Raw kernel coefficients c with f = sum_j c_j K(., p_j)."""
        return (self._y * np.exp(-self._half)).astype(complex)

    def to_dict(self) -> dict:
        return {
            "kind": self.space.kind,
            "n_points": len(self.points),
            "coefficients": self.coefficients.view(float).reshape(-1, 2).tolist(),
            "norm_sq": self.norm_sq,
            "gram_eig_min": self.diagnostic.eig_min,
            "gram_eig_max": self.diagnostic.eig_max,
        }


def min_norm_interpolant(space: KernelSpace, pts: pointset.PointSet) -> MinNormInterpolant:
    """Solve the kernel system for the nodal values.

    Refuses near-singular normalized Grams (``eig_min < CONDITION_GUARD``)
    with a ``ConditioningError`` carrying the offending eigenvalue, a
    solution whose ``norm_sq``, coefficients or residuals are not finite
    with a ``NumericalGuardError``, and nodes not in C^n for ``n =
    space.n`` with a ``DomainError``.

    The rounded Gram is factored once, as the forms of ``_riesz_forms``
    whose eigenvalues are reported: on nodes closed under ``z -> conj z``
    the real symmetric forms (of the four quarter-size character blocks on
    nodes closed under ``z -> i z``, otherwise of the one m x m Gram), each
    by a real Cholesky; on other nodes the complex blocks, or the Gram
    itself, by a complex one.  Each solve (``_form_solve``) maps the
    right-hand side ``x`` into the block coordinates, ``beta_k[q] = (1/4)
    sum_t i^(-k t) x[R^t q]`` plus ``x[o] / 2`` for the origin as the last
    entry of ``beta_0``, then into form coordinates, solves against each
    form and maps back, ``y[R^t q] = sum_k i^(k t) u_k[q]`` and ``y[o] = 2
    u_0[-1]``.  The three refinement residuals and the reported residuals
    are taken against the extended orbit table (``_table_matvec``), every
    entry of the Gram read from it; no m x m Gram is formed.
    """
    if pts.values is None:
        raise DomainError("interpolation needs target values")
    _check_size(pts)
    quarter, sigma = _quarter_turn(pts.points), _conjugation(pts.points)
    table, table_ld, half = space._normalized_grams(pts.points, quarter, sigma)
    forms, basis = _riesz_forms(table, quarter, sigma)
    diag = _diagnose(forms)
    if not diag.eig_min >= CONDITION_GUARD:
        raise ConditioningError(
            f"normalized gram eig_min = {diag.eig_min:.3e} below guard {CONDITION_GUARD:.1e}",
            eig_min=diag.eig_min,
        )
    # K = D G D with D = diag(exp(diag_log/2)); solve in the normalized
    # scale, then iterate refinement against the extended-precision Gram so
    # the strongly graded right-hand side keeps componentwise accuracy.
    b = pts.values.astype(np.clongdouble) * np.exp(-half)
    times_gram = _table_matvec(table_ld, quarter)
    # one factor per character: the stack of F_1 to F_3 split in three
    factors = [scipy.linalg.cho_factor(f, lower=True)
               for f in [forms[0], *(f for stack in forms[1:] for f in stack)]]
    y = _form_solve(factors, basis, b.astype(complex)).astype(np.clongdouble)
    for _ in range(3):
        residual = b - times_gram(y)
        y = y + _form_solve(factors, basis, residual.astype(complex)).astype(np.clongdouble)
    # f(p_i) = e^{dl_i/2} (G y)_i, so one residual vector gives both scales
    abs_residual = np.abs(times_gram(y) - b)
    weighted = abs_residual.astype(float)
    raw = (np.exp(half) * abs_residual).astype(float)
    coeff = (y * np.exp(-half)).astype(complex)
    norm_sq = float(np.real(np.vdot(coeff, pts.values)))
    if not all(np.all(np.isfinite(v)) for v in (norm_sq, coeff, weighted, raw)):
        raise NumericalGuardError(f"non-finite interpolant: norm_sq = {norm_sq:.3e}")
    return MinNormInterpolant(space, pts, y, half, norm_sq, diag, weighted, raw)


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
        return dump_csv(header, zip(*map(astuple, self.rows)))


def feasibility_sweep(space: KernelSpace, spacings: Sequence[float], radius: float,
                      extra_radii: Sequence[float] = ()) -> SweepResult:
    """Riesz bounds of truncated lattices across spacings.

    Rows are emitted largest spacing first; ``monotone_in_spacing`` records
    whether ``eig_min`` was nonincreasing as the spacing decreased (at the
    primary truncation radius).  Extra radii expose truncation drift.  An
    empty ``spacings`` and a negative radius raise ``DomainError``; radius
    0 is the origin alone.

    One orbit table and its Riesz forms (``_riesz_forms``: the real
    symmetric forms of the character blocks, every lattice being closed
    under conjugation, gathered from the table) are built per spacing, on
    the lattice at the largest radius (which the size guard checks), and no
    m x m Gram or complex block is formed.  Each smaller radius's lattice is
    the mask of its rows that ``square_lattice``'s truncation rule keeps
    (``pointset._in_disk``).  An entry depends only on its pair of points,
    so that lattice is whole orbits and whole conjugate pairs with the same
    representatives in the same order, and its forms are the principal
    sub-blocks on the rows of its representatives (and the origin, last in
    ``F_0``): bit-identical to building them anew.
    """
    if space.n != 1:
        raise DomainError("the lattice sweep is defined on one complex variable")
    spacings = sorted(set(float(s) for s in spacings), reverse=True)
    if not spacings:
        raise DomainError(f"the sweep needs at least one spacing, got {spacings}")
    radii = [float(radius)] + [float(r) for r in extra_radii]
    for r in radii:  # all before any lattice is built: a smaller radius is only a mask
        if r < 0:
            raise DomainError(f"sweep radii must be nonnegative, got {r}")
        if not math.isfinite(r):
            raise DomainError(f"lattice radius must be finite, got {r}")
    r_max = max(radii)
    rows = []
    primary = {}
    for s in spacings:
        largest = pointset.square_lattice(s, radius=r_max)
        _check_size(largest)
        quarter, sigma = _quarter_turn(largest.points), _conjugation(largest.points)
        table = space._normalized_grams(largest.points, quarter, sigma)[0]
        forms, (_, cols, _, _) = _riesz_forms(table, quarter, sigma)
        orbits, fixed = quarter
        for r in radii:
            n_points, subs = len(largest), forms
            if r != r_max:
                inside = pointset._in_disk(largest.points[:, 0], s, r)
                n_points, kept = int(inside.sum()), inside[orbits]
                assert (kept == kept[0]).all(), \
                    "a truncated lattice is whole orbits of the largest one"
                assert sigma is None or np.array_equal(inside[sigma], inside), \
                    "a truncated lattice is whole conjugate pairs of the largest one"
                sel = np.flatnonzero(np.concatenate([kept[0], inside[fixed]])[cols])
                sels = [sel, sel[sel < orbits.shape[1]]]  # the origin is last, in F_0 only
                subs = [form[..., sel[:, None], sel] for form, sel in zip(forms, sels)]
            diag = _diagnose(subs)
            rows.append(SweepRow(s, diag.eig_min, diag.eig_max, r, n_points))
            if r == radii[0]:
                primary[s] = diag.eig_min
    ordered = [primary[s] for s in spacings]
    monotone = all(ordered[i + 1] <= ordered[i] + 1e-12 for i in range(len(ordered) - 1))
    return SweepResult(tuple(rows), monotone)
