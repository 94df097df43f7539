"""Seeded inputs and job lists for the three benchmark workloads.

Every input (spaces, weights, node sets) is written as a JSON file into a
work directory before timing starts, so the program under test sees only
generated files.  The same ``(workload, seed, scale)`` always yields
byte-identical inputs.

A job is one CLI invocation, run in process through ``holo_interp.cli.run``.
``scale="full"`` is the benchmark; ``scale="tiny"`` is the same job list at
toy sizes for the self-test in ``smoke.py``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

WORKLOADS = ("certify", "construct", "kernel")
#: calibration kernel per workload (see run.calibrate): certify and construct
#: are interpreter-bound, kernel is dense extended-precision numerics
CALIBRATION = {"certify": "interpreter", "construct": "interpreter", "kernel": "numeric"}

FLAT = {"kind": "flat", "n": 1, "k": 0.0}
DISK = {"kind": "hyperbolic_ball", "n": 1, "kappa": 1.0}
FOCK = {"builtin": "fock", "alpha": 1.0}
BERGMAN = {"builtin": "bergman", "A": 4.0, "kappa": 1.0}
# sigma = z + 0.05 z^3 and Phi_def = (x^2 + y^2)/2: no closed form in the
# library, so curvature goes through finite-difference Hessians.
POLY = {
    "sigmas": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.05, 0.0]]],
    "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2, 0], "coeff": 0.5},
                                                 {"powers": [0, 2], "coeff": 0.5}]}},
    "M2": 1.0, "r0": 1.0, "mu": 1.0,
}

#: Smallest normalized-Gram eigenvalue accepted for a generated disk set:
#: four orders above the program's 1e-10 conditioning guard.
DISK_EIG_MIN_FLOOR = 1e-6


@dataclass
class Job:
    """One CLI call plus what its oracle needs to know about the inputs."""

    name: str
    argv: list
    out: str
    csv: str | None
    check: object  # callable(job, exit_code, out_bytes, csv_bytes) -> list[str]
    allowed_exits: tuple = (0,)
    facts: dict = field(default_factory=dict)

    def artifacts(self):
        return [p for p in (self.out, self.csv) if p]


@dataclass
class Workload:
    name: str
    jobs: list
    descriptor: dict

    @property
    def calibration(self):
        return CALIBRATION[self.name]


# ---------------------------------------------------------------------------
# node-set generators (numpy only; seeded)

def jittered_lattice(rng, n_side, spacing, jitter):
    """n_side x n_side square lattice centred at 0, each node moved
    uniformly by up to ``jitter * spacing`` per axis."""
    a = (np.arange(n_side) - (n_side - 1) / 2.0) * spacing
    z = (a[None, :] + 1j * a[:, None]).ravel()
    shift = rng.uniform(-jitter, jitter, (z.size, 2)) * spacing
    return z + shift[:, 0] + 1j * shift[:, 1]


def disk_uniform(rng, m, rmax):
    """m nodes uniform by area in |z| < rmax."""
    r = rmax * np.sqrt(rng.random(m))
    return r * np.exp(2j * np.pi * rng.random(m))


def disk_separated(rng, m, sep, rmax, candidates=None):
    """Greedy rejection sample of m nodes in |z| < rmax with pairwise
    pseudo-hyperbolic distance > sep.  ``candidates`` (optional) restricts
    the nodes to a finite set, tried in a seeded random order."""
    if candidates is None:
        candidates = disk_uniform(rng, 200 * m, rmax)
    else:
        candidates = candidates[np.abs(candidates) < rmax]
        candidates = candidates[rng.permutation(candidates.size)]
    chosen = np.empty(0, dtype=complex)
    for z in candidates:
        if chosen.size and np.min(oracles.pseudo_hyperbolic(z, chosen)) <= sep:
            continue
        chosen = np.append(chosen, z)
        if chosen.size == m:
            return chosen
    raise RuntimeError(f"could not place {m} nodes with separation {sep}")


def grid_axis(spec):
    x0, x1, n = spec
    return np.linspace(x0, x1, n)


def grid_arg(spec):
    x0, x1, n = spec
    return f"--grid={x0!r}:{x1!r}:{n}"


# ---------------------------------------------------------------------------
# writing inputs

class Inputs:
    """Writes JSON inputs into ``workdir``; ``points`` also returns the
    nodes and values it wrote, for the oracles."""

    def __init__(self, workdir, rng):
        self.dir = workdir
        self.rng = rng

    def path(self, name):
        return os.path.join(self.dir, name)

    def write(self, name, obj):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return self.path(name)

    def points(self, name, z, space, values=False):
        z = np.asarray(z, dtype=complex)
        obj = {"space": space, "points": [[float(c.real), float(c.imag)] for c in z]}
        vals = None
        if values:
            v = self.rng.normal(size=(z.size, 2))
            vals = v[:, 0] + 1j * v[:, 1]
            obj["values"] = [[float(c.real), float(c.imag)] for c in vals]
        return self.write(name, obj), z, vals


def _job(name, argv, out, csv, check, inputs, allowed=(0,), **facts):
    out = inputs.path("out." + out)
    csv = inputs.path("out." + csv) if csv else None
    full = list(argv) + ["--out", out] + (["--csv", csv] if csv else [])
    return Job(name, full, out, csv, check, allowed, facts)


# ---------------------------------------------------------------------------
# sizes

SIZES = {
    "full": {
        "poly_lattice": 9, "poly_grid": (-4.0, 4.0, 7),
        "disk_t1_nodes": 60, "disk_t1_grid": (-0.7, 0.7, 7),
        "fock_radius": 20.0, "fock_grid": (-20.0, 20.0, 31),
        "t2_nodes": 2000, "t2_grid": (-0.7, 0.7, 17),
        "bucket_side": 56, "brute_side": 40,
        "construct_side": 8, "construct_grid": (-8.0, 8.0, 33),
        "construct_disk_nodes": 16, "construct_disk_grid": (-0.7, 0.7, 31),
        "nr": 16, "ntheta": 4,
        "interp_radius": 20.0, "bergman_nodes": 90,
        "sweep_radius": 8.0, "sweep_extra": 10.0, "big_radius": 12.0,
    },
    "tiny": {
        "poly_lattice": 3, "poly_grid": (-1.5, 1.5, 3),
        "disk_t1_nodes": 8, "disk_t1_grid": (-0.5, 0.5, 3),
        "fock_radius": 4.0, "fock_grid": (-4.0, 4.0, 5),
        "t2_nodes": 40, "t2_grid": (-0.5, 0.5, 4),
        "bucket_side": 8, "brute_side": 6,
        "construct_side": 2, "construct_grid": (-2.0, 2.0, 9),
        "construct_disk_nodes": 3, "construct_disk_grid": (-0.7, 0.7, 9),
        "nr": 16, "ntheta": 4,
        "interp_radius": 4.0, "bergman_nodes": 6,
        "sweep_radius": 4.0, "sweep_extra": 5.0, "big_radius": 4.0,
    },
}


# ---------------------------------------------------------------------------
# workloads

def build(name, seed, workdir, scale="full"):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    sizes = SIZES[scale]
    # one independent stream per workload, so adding a job to one workload
    # never changes another workload's inputs
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    inputs = Inputs(workdir, rng)
    return {"certify": _certify, "construct": _construct, "kernel": _kernel}[name](inputs, sizes)


def _certify(inp, sz):
    flat = inp.write("flat.json", FLAT)
    disk = inp.write("disk.json", DISK)
    poly = inp.write("poly.json", POLY)
    fock = inp.write("fock.json", FOCK)
    berg = inp.write("bergman.json", BERGMAN)

    n = sz["poly_lattice"]
    p_poly, z_poly, _ = inp.points("poly_nodes.json", jittered_lattice(inp.rng, n, 1.0, 0.2), FLAT)
    p_dt1, z_dt1, _ = inp.points("disk_t1_nodes.json",
                                 disk_uniform(inp.rng, sz["disk_t1_nodes"], 0.9), DISK)
    # lattice with a seeded sub-spacing shift, so grid/node ties differ by seed
    shift = complex(*inp.rng.uniform(0.0, 1.0, 2))
    p_fock, z_fock, _ = inp.points("fock_lattice.json",
                                   oracles.lattice_points(1.0, sz["fock_radius"]) + shift, FLAT)
    p_t2, z_t2, _ = inp.points("disk_random.json", disk_uniform(inp.rng, sz["t2_nodes"], 0.95), DISK)
    p_bkt, z_bkt, _ = inp.points("flat_bucketed.json",
                                 jittered_lattice(inp.rng, sz["bucket_side"], 1.0, 0.3), FLAT)
    p_bru, z_bru, _ = inp.points("flat_brute.json",
                                 jittered_lattice(inp.rng, sz["brute_side"], 1.0, 0.3), FLAT)

    g_poly, g_dt1, g_fock, g_t2 = (sz["poly_grid"], sz["disk_t1_grid"], sz["fock_grid"],
                                   sz["t2_grid"])
    jobs = [
        _job("certify-t1.poly.flat",
             ["certify-t1", "--space", flat, "--weight", poly, "--points", p_poly,
              "--rho", "1", "--eps", "0.5", grid_arg(g_poly)],
             "t1_poly.json", "t1_poly.csv", oracles.check_certificate, inp, (0, 1),
             criterion="theorem1", space=FLAT, weight=POLY, nodes=z_poly,
             rho=1.0, eps=0.5, grid=g_poly),
        _job("certify-bos.poly",
             ["certify-bos", "--weight", poly, "--points", p_poly,
              "--rho", "1", "--eps", "0.5", grid_arg(g_poly)],
             "bos_poly.json", "bos_poly.csv", oracles.check_certificate, inp, (0, 1),
             criterion="bos", space=FLAT, weight=POLY, nodes=z_poly,
             rho=1.0, eps=0.5, grid=g_poly),
        _job("certify-t1.poly.disk.threads2",
             ["certify-t1", "--space", disk, "--weight", poly, "--points", p_dt1,
              "--rho", "0.5", "--eps", "0.5", grid_arg(g_dt1), "--threads", "2"],
             "t1_disk.json", "t1_disk.csv", oracles.check_certificate, inp, (0, 1),
             criterion="theorem1", space=DISK, weight=POLY, nodes=z_dt1,
             rho=0.5, eps=0.5, grid=g_dt1),
        _job("certify-t1.fock",
             ["certify-t1", "--space", flat, "--weight", fock, "--points", p_fock,
              "--rho", "2", "--eps", "1", grid_arg(g_fock)],
             "t1_fock.json", "t1_fock.csv", oracles.check_certificate, inp, (0, 1),
             criterion="theorem1", space=FLAT, weight=FOCK, nodes=z_fock,
             rho=2.0, eps=1.0, grid=g_fock),
        _job("certify-t2.bergman",
             ["certify-t2", "--space", disk, "--weight", berg, "--points", p_t2,
              "--eps", "0.5", grid_arg(g_t2)],
             "t2.json", "t2.csv", oracles.check_certificate, inp, (0, 1),
             criterion="theorem2", space=DISK, weight=BERGMAN, nodes=z_t2,
             rho=None, eps=0.5, grid=g_t2),
        _job("density",
             ["density", "--space", disk, "--points", p_t2, grid_arg(g_t2)],
             "density.json", "density.csv", oracles.check_density, inp,
             nodes=z_t2, grid=g_t2),
        _job("separation.bucketed",
             ["separation", "--space", flat, "--points", p_bkt, "--bucketed"],
             "sep_bucketed.json", None, oracles.check_separation, inp,
             space=FLAT, nodes=z_bkt),
        _job("separation.brute",
             ["separation", "--space", flat, "--points", p_bru],
             "sep_brute.json", None, oracles.check_separation, inp,
             space=FLAT, nodes=z_bru),
    ]
    desc = {
        "jobs": [j.name for j in jobs],
        "nodes": {"poly_lattice": z_poly.size, "disk_t1": z_dt1.size, "fock_lattice": z_fock.size,
                  "disk_random": z_t2.size, "flat_bucketed": z_bkt.size, "flat_brute": z_bru.size},
        "grids": {"poly": _grid_desc(g_poly), "disk_t1": _grid_desc(g_dt1),
                  "fock": _grid_desc(g_fock), "t2_density": _grid_desc(g_t2)},
        "min_separation": {"poly_lattice": oracles.min_separation(z_poly, False),
                           "fock_lattice": oracles.min_separation(z_fock, False),
                           "flat_bucketed": oracles.min_separation(z_bkt, False)},
    }
    return Workload("certify", jobs, desc)


def _construct(inp, sz):
    flat = inp.write("flat.json", FLAT)
    disk = inp.write("disk.json", DISK)
    fock = inp.write("fock.json", FOCK)
    berg = inp.write("bergman.json", BERGMAN)
    nr, nth = sz["nr"], sz["ntheta"]

    # Nodes sit on sample-grid points, so the grid CSV holds F at every node,
    # where F(p) = a(p) must hold exactly.  Flat: a spacing-2 lattice (every
    # 4th step of the 0.5 grid), each node moved by a seeded 0 or +1 grid
    # step per axis, so separation >= 1.5 and delta0 = r0/2 = 0.5.  Disk:
    # pseudo-hyperbolic separation > 0.4, so delta0 = r0/2 = 0.25.  In both,
    # no other node's rho-ball reaches a gluing annulus, so the integrand is
    # radial and the coarse angular rule is exact.
    g_flat = sz["construct_grid"]
    xs = grid_axis(g_flat)
    side = sz["construct_side"]
    base = 2 + 4 * np.arange(side)
    ix = (base[None, :] + inp.rng.integers(0, 2, (side, side))).ravel()
    iy = (base[:, None] + inp.rng.integers(0, 2, (side, side))).ravel()
    z_flat = xs[ix] + 1j * xs[iy]
    p_flat, z_flat, a_flat = inp.points("construct_flat.json", z_flat, FLAT, values=True)

    g_disk = sz["construct_disk_grid"]
    xd = grid_axis(g_disk)
    cand = (xd[None, :] + 1j * xd[:, None]).ravel()
    z_disk = disk_separated(inp.rng, sz["construct_disk_nodes"], 0.4, 0.8, candidates=cand)
    p_disk, z_disk, a_disk = inp.points("construct_disk.json", z_disk, DISK, values=True)

    common = ["--nr", str(nr), "--ntheta", str(nth)]
    jobs = [
        _job("construct.fock.flat",
             ["construct", "--space", flat, "--weight", fock, "--points", p_flat,
              "--rho", "1", grid_arg(g_flat)] + common,
             "construct_flat.json", "construct_flat.csv", oracles.check_construct, inp,
             space=FLAT, weight=FOCK, nodes=z_flat, values=a_flat, grid=g_flat,
             r0=1.0, levels=[[nr, nth], [2 * nr, 2 * nth]]),
        _job("construct.bergman.disk",
             ["construct", "--space", disk, "--weight", berg, "--points", p_disk,
              "--rho", "0.5", grid_arg(g_disk)] + common,
             "construct_disk.json", "construct_disk.csv", oracles.check_construct, inp,
             space=DISK, weight=BERGMAN, nodes=z_disk, values=a_disk, grid=g_disk,
             r0=0.5, levels=[[nr, nth], [2 * nr, 2 * nth]]),
    ]
    desc = {
        "jobs": [j.name for j in jobs],
        "nodes": {"flat": z_flat.size, "disk": z_disk.size},
        "grids": {"flat": _grid_desc(g_flat), "disk": _grid_desc(g_disk)},
        "quadrature": {"nr": nr, "ntheta": nth, "refined": [2 * nr, 2 * nth]},
        "min_separation": {"flat": oracles.min_separation(z_flat, False),
                           "disk": oracles.min_separation(z_disk, True)},
    }
    return Workload("construct", jobs, desc)


def _kernel(inp, sz):
    fock = inp.write("fock.json", FOCK)
    berg = inp.write("bergman.json", BERGMAN)

    p_fock, z_fock, a_fock = inp.points("interp_fock.json",
                                        oracles.lattice_points(2.0, sz["interp_radius"]), FLAT, values=True)
    z_b = disk_separated(inp.rng, sz["bergman_nodes"], 0.45, 0.95)
    eig_b = oracles.gram_extremes("bergman", z_b, BERGMAN)
    if eig_b[0] < DISK_EIG_MIN_FLOOR:
        raise RuntimeError(f"generated bergman set has eig_min {eig_b[0]:.3e} "
                           f"< {DISK_EIG_MIN_FLOOR:.0e}")
    p_berg, z_b, a_b = inp.points("interp_bergman.json", z_b, DISK, values=True)
    spacings = [2.0, 1.6, 1.3, 1.1]
    r1, r2, rbig = sz["sweep_radius"], sz["sweep_extra"], sz["big_radius"]
    jobs = [
        _job("interpolate.fock",
             ["interpolate", "--weight", fock, "--points", p_fock],
             "interp_fock.json", None, oracles.check_interpolate, inp,
             kernel="fock", weight=FOCK, nodes=z_fock, values=a_fock),
        _job("interpolate.bergman",
             ["interpolate", "--weight", berg, "--points", p_berg],
             "interp_bergman.json", None, oracles.check_interpolate, inp,
             kernel="bergman", weight=BERGMAN, nodes=z_b, values=a_b),
        _job("sweep.spacings",
             ["sweep", "--weight", fock, "--spacings", ",".join(map(str, spacings)),
              "--radius", str(r1), "--extra-radii", str(r2)],
             "sweep.json", "sweep.csv", oracles.check_sweep, inp,
             weight=FOCK, spacings=spacings, radii=[r1, r2]),
        _job("sweep.large",
             ["sweep", "--weight", fock, "--spacings", "1", "--radius", str(rbig)],
             "sweep_large.json", "sweep_large.csv", oracles.check_sweep, inp,
             weight=FOCK, spacings=[1.0], radii=[rbig]),
    ]
    n_big = oracles.lattice_points(1.0, rbig).size
    ld = np.dtype(np.clongdouble).itemsize
    desc = {
        "jobs": [j.name for j in jobs],
        "nodes": {"interp_fock": z_fock.size, "interp_bergman": z_b.size,
                  "sweep_max": max(oracles.lattice_points(s, r2).size for s in spacings),
                  "sweep_large": n_big},
        "gram_eig_min": {"interp_fock": oracles.gram_extremes("fock", z_fock, FOCK)[0],
                         "interp_bergman": eig_b[0]},
        "min_separation": {"interp_fock": 2.0,
                           "interp_bergman": oracles.min_separation(z_b, True)},
        "gram_bytes_computed": {"interp_fock": z_fock.size ** 2 * ld,
                                "sweep_large": n_big ** 2 * ld},
    }
    return Workload("kernel", jobs, desc)


def _grid_desc(spec):
    return f"{spec[2]}x{spec[2]} on [{spec[0]}, {spec[1]}]^2"
