"""Output oracles for the benchmark jobs.

Nothing here imports ``holo_interp``: every expected value is recomputed
from the generated inputs with plain numpy/scipy and formulas taken from the
documented conventions (README "Conventions"), in a form different from the
library's where one exists (e.g. disk distances through the pseudo-hyperbolic
distance and ``artanh`` instead of ``asinh``).

Each ``check_*`` takes ``(job, exit_code, out_bytes, csv_bytes)`` and returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.spatial import cKDTree

CHUNK = 1 << 16  # matrix entries per block, keeps oracle memory to about 1 MB
CURVATURE_TOL = 1e-6  # finite-difference curvature vs exact Wirtinger Hessian
EIG_TOL = 1e-9  # Gram extreme eigenvalues vs an independent float64 Gram
WEIGHTED_RESIDUAL_TOL = 1e-10
DRIFT_TOL = 1e-4
REL = 1e-12  # plain arithmetic that both sides should agree on to rounding


# ---------------------------------------------------------------------------
# geometry (kappa = 1 disk or flat C)

def pseudo_hyperbolic(z, w, kappa=1.0):
    """kappa |z - w| / |kappa^2 - z conj(w)| (broadcasting)."""
    return kappa * np.abs(z - w) / np.abs(kappa * kappa - z * np.conj(w))


def distances(z, nodes, disk, kappa=1.0):
    """Geodesic distances, shape (len(z), len(nodes))."""
    z = np.asarray(z)[:, None]
    w = np.asarray(nodes)[None, :]
    if not disk:
        return np.abs(z - w)
    return 2.0 * kappa * np.arctanh(pseudo_hyperbolic(z, w, kappa) / kappa)


def _blocks(n_rows, n_cols):
    step = max(1, CHUNK // max(1, n_cols))
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def min_separation(nodes, disk):
    nodes = np.asarray(nodes)
    if nodes.size < 2:
        return math.inf
    if not disk:
        d, _ = cKDTree(np.column_stack([nodes.real, nodes.imag])).query(
            np.column_stack([nodes.real, nodes.imag]), k=2)
        return float(np.min(d[:, 1]))
    best = math.inf
    for s in _blocks(nodes.size, nodes.size):
        d = distances(nodes[s], nodes, True)
        d[np.arange(d.shape[0]), np.arange(s.start, s.stop)] = math.inf
        best = min(best, float(np.min(d)))
    return best


def grid(spec):
    x0, x1, n = spec
    xs = np.linspace(x0, x1, n)
    return (xs[None, :] + 1j * xs[:, None]).ravel()


def is_disk(space):
    return space["kind"] == "hyperbolic_ball"


# ---------------------------------------------------------------------------
# weights: exact d^2 Phi / dz dzbar from the weight spec

def exact_ddbar(weight, z):
    """Exact ``d^2 Phi/dz dzbar`` for the n = 1 weight specs the benchmark
    generates: builtins, or ``sum |sigma_a|^2 + real polynomial``."""
    z = np.asarray(z, dtype=complex)
    if weight.get("builtin") == "fock":
        return np.full(z.shape, float(weight["alpha"]))
    if weight.get("builtin") == "bergman":
        kap2 = float(weight["kappa"]) ** 2
        return float(weight["A"]) / (kap2 * (1.0 - np.abs(z) ** 2 / kap2) ** 2)
    out = np.zeros(z.shape)
    for sigma in weight.get("sigmas", []):
        c = np.array([complex(re, im) for re, im in sigma])
        dc = c[1:] * np.arange(1, c.size)  # coefficients of sigma'
        out += np.abs(np.polynomial.polynomial.polyval(z, dc)) ** 2
    if weight.get("phi_def"):
        x, y = z.real, z.imag
        lap = np.zeros(z.shape)
        for t in weight["phi_def"]["real_poly"]["terms"]:
            p, q = t["powers"]
            c = float(t["coeff"])
            if p >= 2:
                lap += c * p * (p - 1) * x ** (p - 2) * y ** q
            if q >= 2:
                lap += c * q * (q - 1) * x ** p * y ** (q - 2)
        out += lap / 4.0  # d^2/dz dzbar = Laplacian / 4
    return out


def curvature_available(criterion, weight, space, z):
    """What each criterion compares against: ``Delta Phi = 4 H`` for bos,
    otherwise the smallest eigenvalue of ``2 (H + Ric)`` against the metric
    coefficient (n = 1)."""
    h = exact_ddbar(weight, z)
    if criterion == "bos":
        return 4.0 * h
    if not is_disk(space):
        return 2.0 * h
    kap2 = float(space["kappa"]) ** 2
    one_minus_s = 1.0 - np.abs(z) ** 2 / kap2
    # metric 4/(1-s)^2; Ric = -i ddbar log metric = -2/(kappa^2 (1-s)^2)
    return h * one_minus_s ** 2 / 2.0 - 1.0 / kap2


def comparison_factor(space, rho):
    if not is_disk(space):
        return 2.0
    x = rho / float(space["kappa"])
    return 1.0 + x / math.tanh(x)


# ---------------------------------------------------------------------------
# kernels

def gram64(kind, nodes, weight):
    """Normalized Gram in float64, from the per-entry closed forms."""
    z = np.asarray(nodes)[:, None]
    w = np.asarray(nodes)[None, :]
    if kind == "fock":
        a = float(weight["alpha"])
        # alpha z conj(w) - alpha(|z|^2 + |w|^2)/2 = -alpha|z-w|^2/2 + i alpha Im(z conj w)
        return np.exp(-0.5 * a * np.abs(z - w) ** 2 + 1j * a * (z.imag * w.real - z.real * w.imag))
    p = float(weight["A"]) + 2.0
    kap2 = float(weight["kappa"]) ** 2
    ld = 0.5 * np.log1p(-np.abs(z) ** 2 / kap2) + 0.5 * np.log1p(-np.abs(w) ** 2 / kap2)
    return np.exp(p * (ld - np.log(1.0 - z * np.conj(w) / kap2)))


def gram_extremes(kind, nodes, weight):
    ev = np.linalg.eigvalsh(gram64(kind, nodes, weight))
    return float(ev[0]), float(ev[-1])


def diag_log(kind, nodes, weight):
    """log K(p, p), the weight Phi(p) of the kernel's own normalization."""
    s = np.abs(np.asarray(nodes)) ** 2
    if kind == "fock":
        return float(weight["alpha"]) * s
    kap2 = float(weight["kappa"]) ** 2
    return -(float(weight["A"]) + 2.0) * np.log1p(-s / kap2)


# ---------------------------------------------------------------------------
# construction

def cutoff(t):
    """Exponential bump partition: 1 on [0, 1/4], 0 on [1, inf)."""
    t = np.asarray(t, dtype=float)
    out = np.where(t <= 0.25, 1.0, 0.0)
    mid = (t > 0.25) & (t < 1.0)
    a = np.exp(-0.75 / (1.0 - t[mid]))
    b = np.exp(-0.75 / (t[mid] - 0.25))
    out[mid] = a / (a + b)
    return out


def frame_exponent(weight, p, z):
    """Normal-frame exponent for the builtins: fock ``alpha conj(p)(z-p)``;
    bergman ``A conj(p)/(kappa^2 - |p|^2) (z - p)``."""
    if weight["builtin"] == "fock":
        return float(weight["alpha"]) * np.conj(p) * (z - p)
    kap2 = float(weight["kappa"]) ** 2
    return float(weight["A"]) * np.conj(p) / (kap2 - abs(p) ** 2) * (z - p)


# ---------------------------------------------------------------------------
# artifact parsing

def parse_csv(data, header):
    lines = data.decode("utf-8").rstrip("\n").split("\n")
    if lines[0].split(",") != header:
        raise ValueError(f"CSV header {lines[0]!r} != {','.join(header)!r}")
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]]).reshape(
        -1, len(header))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _run(fn):
    """Turn any exception raised while checking into a reported problem."""
    def wrapped(job, code, out, csv):
        try:
            return fn(job, code, out, csv)
        except Exception as exc:  # a malformed artifact is a wrong output
            return [f"{job.name}: oracle could not read the output: {exc!r}"]
    wrapped.__name__ = fn.__name__
    return wrapped


def _check_grid(rows, zg, problems, name):
    if rows.shape[0] != zg.size:
        problems.append(f"{name}: {rows.shape[0]} CSV rows, grid has {zg.size}")
        return False
    if not (np.array_equal(rows[:, 0], np.arange(zg.size))
            and np.array_equal(rows[:, 1], zg.real) and np.array_equal(rows[:, 2], zg.imag)):
        problems.append(f"{name}: CSV index/re/im columns differ from the sample grid")
        return False
    return True


def density_oracle(nodes, zg, cutoff_d=1.0, kappa=1.0):
    """sum over nodes at distance >= cutoff of -log tanh^2(d/(2 kappa));
    tanh(d/(2 kappa)) is the pseudo-hyperbolic distance over kappa."""
    out = np.empty(zg.size)
    for s in _blocks(zg.size, nodes.size):
        ph = pseudo_hyperbolic(zg[s, None], nodes[None, :], kappa) / kappa
        d = 2.0 * kappa * np.arctanh(ph)
        out[s] = np.sum(np.where(d >= cutoff_d, -2.0 * np.log(np.where(d >= cutoff_d, ph, 1.0)),
                                 0.0), axis=1)
    return out


# ---------------------------------------------------------------------------
# checks

@_run
def check_certificate(job, code, out, csv):
    f = job.facts
    name, space, crit, eps, rho = job.name, f["space"], f["criterion"], f["eps"], f["rho"]
    problems = []
    rep = json.loads(out)
    rows = parse_csv(csv, ["index", "re", "im", "required", "available", "margin"])
    zg = grid(f["grid"])
    if not _check_grid(rows, zg, problems, name):
        return problems
    req, avail, margin = rows[:, 3], rows[:, 4], rows[:, 5]

    exact = curvature_available(crit, f["weight"], space, zg)
    err = np.abs(avail - exact) / np.maximum(1.0, np.abs(exact))
    if not np.all(err <= CURVATURE_TOL):
        i = int(np.argmax(err))
        problems.append(f"{name}: curvature at sample {i} is {avail[i]!r}, exact {exact[i]!r}")

    if crit == "theorem2":
        if not np.all(req == eps):
            problems.append(f"{name}: required column differs from eps")
        oracle_req = np.full(zg.size, eps)
    else:
        factor = 1.0 if crit == "bos" else comparison_factor(space, rho)
        if crit == "theorem1" and not _close(rep.get("comparison_factor", math.nan), factor, REL):
            problems.append(f"{name}: comparison_factor {rep.get('comparison_factor')} != {factor}")
        lo = np.empty(zg.size, dtype=np.int64)
        hi = np.empty(zg.size, dtype=np.int64)
        for s in _blocks(zg.size, f["nodes"].size):
            d = distances(zg[s], f["nodes"], is_disk(space))
            lo[s] = np.count_nonzero(d < rho * (1 - 1e-12), axis=1)
            hi[s] = np.count_nonzero(d < rho * (1 + 1e-12), axis=1)
        count = (req - eps) * rho ** 2 / factor
        rounded = np.rint(count)
        bad = (np.abs(count - rounded) > 1e-6) | (rounded < lo) | (rounded > hi)
        if np.any(bad):
            i = int(np.argmax(bad))
            problems.append(f"{name}: open-ball count at sample {i} is {count[i]:.6g}, "
                            f"brute force gives {lo[i]}..{hi[i]}")
        oracle_req = lo * factor / rho ** 2 + eps

    if not np.array_equal(margin, avail - req):
        problems.append(f"{name}: margin column != available - required")
    worst = float(np.min(margin))
    oracle_worst = float(np.min(exact - oracle_req))
    if crit == "theorem2":
        dens = density_oracle(f["nodes"], zg)
        sup = rep.get("density_grid_sup")
        if not _close(sup, float(np.max(dens)), 1e-9):
            problems.append(f"{name}: density_grid_sup {sup!r} != brute force {np.max(dens)!r}")
        idx = rep.get("density_argmax_index")
        if idx is None or not _close(float(dens[idx]), float(np.max(dens)), 1e-9):
            problems.append(f"{name}: density_argmax_index {idx} is not a grid maximum")
        thr = rep.get("density_threshold_user_set", math.inf)
        if math.isfinite(thr):
            worst = min(worst, thr - sup)
            oracle_worst = min(oracle_worst, thr - float(np.max(dens)))
    if rep.get("worst_margin") != worst:
        problems.append(f"{name}: worst_margin {rep.get('worst_margin')!r} != {worst!r}")
    if rep.get("n_samples") != zg.size:
        problems.append(f"{name}: n_samples {rep.get('n_samples')} != {zg.size}")
    passed = rep.get("passed")
    if passed is not (worst >= 0.0):
        problems.append(f"{name}: passed={passed} disagrees with worst margin {worst!r}")
    if abs(oracle_worst) > 1e-6 and passed is not (oracle_worst > 0):
        problems.append(f"{name}: verdict passed={passed}, oracle worst margin {oracle_worst:.6g}")
    if code != (0 if passed else 1):
        problems.append(f"{name}: exit code {code} for passed={passed}")
    return problems


@_run
def check_density(job, code, out, csv):
    f = job.facts
    problems = []
    rep = json.loads(out)
    rows = parse_csv(csv, ["index", "re", "im", "density"])
    zg = grid(f["grid"])
    if not _check_grid(rows, zg, problems, job.name):
        return problems
    dens = density_oracle(f["nodes"], zg)
    err = np.abs(rows[:, 3] - dens) / np.maximum(1.0, np.abs(dens))
    if not np.all(err <= 1e-9):
        i = int(np.argmax(err))
        problems.append(f"{job.name}: density at sample {i} is {rows[i, 3]!r}, "
                        f"brute force {dens[i]!r}")
    if rep.get("grid_sup") != float(np.max(rows[:, 3])):
        problems.append(f"{job.name}: grid_sup != max of the CSV column")
    if rep.get("argmax_index") != int(np.argmax(rows[:, 3])):
        problems.append(f"{job.name}: argmax_index != argmax of the CSV column")
    if rep.get("n_grid") != zg.size or rep.get("cutoff") != 1.0:
        problems.append(f"{job.name}: n_grid/cutoff fields wrong")
    if code != 0:
        problems.append(f"{job.name}: exit code {code}")
    return problems


@_run
def check_separation(job, code, out, csv):
    f = job.facts
    problems = []
    rep = json.loads(out)
    nodes = f["nodes"]
    disk = is_disk(f["space"])
    want = min_separation(nodes, disk)
    got = rep.get("min_pairwise_distance")
    if not _close(got, want, REL):
        problems.append(f"{job.name}: min_pairwise_distance {got!r} != brute force {want!r}")
    i, j = rep.get("arg_pair") or (0, 0)
    if i == j or not _close(float(distances(nodes[[i]], nodes[[j]], disk)[0, 0]), want, REL):
        problems.append(f"{job.name}: arg_pair {rep.get('arg_pair')} does not attain the minimum")
    if not _close(rep.get("delta0"), want / 2.0, REL) or rep.get("n_points") != nodes.size:
        problems.append(f"{job.name}: delta0/n_points fields wrong")
    if code != 0:
        problems.append(f"{job.name}: exit code {code}")
    return problems


@_run
def check_construct(job, code, out, csv):
    f = job.facts
    problems = []
    rep = json.loads(out)
    nodes, vals, weight, disk = f["nodes"], f["values"], f["weight"], is_disk(f["space"])
    delta0 = min(min_separation(nodes, disk), f["r0"]) / 2.0
    if not _close(rep.get("delta0"), delta0, REL):
        problems.append(f"{job.name}: delta0 {rep.get('delta0')!r} != {delta0!r}")
    rows = parse_csv(csv, ["index", "re", "im", "F_re", "F_im"])
    zg = grid(f["grid"])
    if not _check_grid(rows, zg, problems, job.name):
        return problems
    F = rows[:, 3] + 1j * rows[:, 4]

    expect = np.zeros(zg.size, dtype=complex)
    for s in _blocks(zg.size, nodes.size):
        d = distances(zg[s], nodes, disk)
        near = np.argmin(d, axis=1)
        dn = d[np.arange(d.shape[0]), near]
        inside = dn < delta0
        zi, pi = zg[s][inside], nodes[near[inside]]
        expect[np.arange(s.start, s.stop)[inside]] = (
            vals[near[inside]] * np.exp(frame_exponent(weight, pi, zi))
            * cutoff(dn[inside] ** 2 / delta0 ** 2))
    err = np.abs(F - expect) / np.maximum(1.0, np.abs(expect))
    if not np.all(err <= 1e-9):
        i = int(np.argmax(err))
        problems.append(f"{job.name}: F at sample {i} is {F[i]!r}, expected {expect[i]!r}")
    at = {complex(z): k for k, z in enumerate(zg)}
    hits = [(at.get(complex(p)), a) for p, a in zip(nodes, vals)]
    if any(k is None for k, _ in hits):
        problems.append(f"{job.name}: a node is not on the sample grid")
    elif any(F[k] != a for k, a in hits):
        problems.append(f"{job.name}: F(p) != a(p) exactly at a node")

    e = rep.get("energy", {})
    per_node = np.asarray(e.get("per_node", []), dtype=float)
    e1, e2, drift = e.get("energy"), e.get("refined_energy"), e.get("relative_drift")
    if per_node.size != nodes.size or not np.all(np.isfinite(per_node) & (per_node > 0)):
        problems.append(f"{job.name}: per_node has {per_node.size} entries or a non-positive one")
    elif not _close(math.fsum(per_node), e1, REL):
        problems.append(f"{job.name}: per_node sums to {math.fsum(per_node)!r}, energy {e1!r}")
    if not (math.isfinite(e2) and e2 > 0 and _close(drift, abs(e2 - e1) / abs(e2), REL)):
        problems.append(f"{job.name}: relative_drift {drift!r} inconsistent with the energies")
    if not drift <= DRIFT_TOL:
        problems.append(f"{job.name}: relative_drift {drift!r} > {DRIFT_TOL}")
    if e.get("levels") != f["levels"] or rep.get("n_grid") != zg.size:
        problems.append(f"{job.name}: levels/n_grid fields wrong")
    if code != 0:
        problems.append(f"{job.name}: exit code {code}")
    return problems


@_run
def check_interpolate(job, code, out, csv):
    f = job.facts
    problems = []
    rep = json.loads(out)
    kind, weight, nodes, vals = f["kernel"], f["weight"], f["nodes"], f["values"]
    if rep.get("n_points") != nodes.size or rep.get("kind") != kind:
        problems.append(f"{job.name}: n_points/kind fields wrong")
        return problems
    g = gram64(kind, nodes, weight)
    ev = np.linalg.eigvalsh(g)
    for key, want in (("gram_eig_min", ev[0]), ("gram_eig_max", ev[-1])):
        if not abs(rep.get(key) - want) <= EIG_TOL:
            problems.append(f"{job.name}: {key} {rep.get(key)!r}, float64 Gram gives {want!r}")
    # weighted nodal residual |f(p) - a| e^{-Phi(p)/2} = |G y - a e^{-Phi/2}|
    # with y = c e^{Phi/2}, c the reported raw coefficients
    c = np.array([complex(re, im) for re, im in rep["coefficients"]])
    dl = diag_log(kind, nodes, weight)
    res = np.abs(g @ (c * np.exp(0.5 * dl)) - vals * np.exp(-0.5 * dl))
    if not np.max(res) <= WEIGHTED_RESIDUAL_TOL:
        problems.append(f"{job.name}: weighted nodal residual {np.max(res):.3e} "
                        f"> {WEIGHTED_RESIDUAL_TOL:.0e}")
    if not math.isfinite(rep.get("norm_sq", math.nan)):
        problems.append(f"{job.name}: norm_sq is not finite")
    if code != 0:
        problems.append(f"{job.name}: exit code {code}")
    return problems


@_run
def check_sweep(job, code, out, csv):
    f = job.facts
    problems = []
    rep = json.loads(out)
    rows = parse_csv(csv, ["s", "eig_min", "eig_max", "R", "n_points"])
    spacings = sorted(f["spacings"], reverse=True)
    expect = [(s, r) for s in spacings for r in f["radii"]]
    if rows.shape[0] != len(expect) or rep.get("n_rows") != len(expect):
        problems.append(f"{job.name}: {rows.shape[0]} rows, expected {len(expect)}")
        return problems
    for row, (s, r) in zip(rows, expect):
        lattice = lattice_points(s, r)
        if row[0] != s or row[3] != r or row[4] != lattice.size:
            problems.append(f"{job.name}: row {row.tolist()} != spacing {s}, R {r}, "
                            f"{lattice.size} points")
            continue
        lo, hi = gram_extremes("fock", lattice, f["weight"])
        if not (abs(row[1] - lo) <= EIG_TOL and abs(row[2] - hi) <= EIG_TOL):
            problems.append(f"{job.name}: spacing {s} R {r} eigenvalues {row[1]!r}, {row[2]!r}; "
                            f"float64 Gram gives {lo!r}, {hi!r}")
    primary = rows[rows[:, 3] == f["radii"][0], 1]
    monotone = bool(np.all(primary[1:] <= primary[:-1] + 1e-12))
    if rep.get("monotone_in_spacing") is not monotone or rep.get("radius") != f["radii"][0]:
        problems.append(f"{job.name}: monotone_in_spacing/radius fields wrong")
    if code != 0:
        problems.append(f"{job.name}: exit code {code}")
    return problems


def lattice_points(spacing, radius):
    """spacing * (a + i b) with |z| <= radius (README: sweep truncation)."""
    m = int(math.floor(radius / spacing))
    a = np.arange(-m, m + 1, dtype=float)
    z = spacing * (a[:, None] + 1j * a[None, :]).ravel()
    return z[np.abs(z) <= radius + 1e-12]
