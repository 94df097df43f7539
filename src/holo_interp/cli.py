"""Batch front end.

Subcommands: ``separation``, ``density``, ``certify-bos``, ``certify-t1``,
``certify-t2``, ``construct``, ``interpolate``, ``sweep``,
``verify-geometry``.  Exit codes: 0 pass/success, 1 criterion failed,
2 input error, 3 numerical guard tripped.

All artifacts are byte-deterministic for identical inputs, independent of
the thread count, and embed the convention block.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import certificates, construction, geometry, pointset, rkhs, weights
from .errors import DomainError, NumericalGuardError
from .reporting import dump_csv, dump_json, report_envelope

EXIT_OK = 0
EXIT_CRITERION_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_GUARD = 3

THREADS_ENV = "HOLO_INTERP_THREADS"
#: ``interpolate`` warns above this raw nodal residual |f(p) - a|; on graded
#: node sets the kernel values grow like e^{Phi/2}, so the raw residual can be
#: large while the weighted one stays at rounding level
RAW_RESIDUAL_WARN = 1e-10


# ---------------------------------------------------------------------------
# input loading

def _load_json_arg(args, name: str):
    """The JSON argument ``--name``: inline JSON (starts with '{') or a path
    to a JSON file, decoded once per run (the decoded object is kept on
    ``args``, which each run parses afresh); an absent option is a ``DomainError``."""
    decoded = vars(args).setdefault("_decoded", {})
    if name not in decoded:
        text = spec = getattr(args, name, None)
        if not spec:
            raise DomainError(f"--{name} is required for this command")
        if not spec.lstrip().startswith("{"):
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        decoded[name] = json.loads(text)
    return decoded[name]


def _load_space(args) -> geometry.ModelSpace:
    if getattr(args, "space", None):
        return geometry.space_from_dict(_load_json_arg(args, "space"))
    if getattr(args, "points", None):
        d = _load_json_arg(args, "points")
        if isinstance(d, dict) and "space" in d:
            return geometry.space_from_dict(d["space"])
    raise DomainError("no --space given and the point file carries none")


def _load_points(args, space=None) -> pointset.PointSet:
    """The ``--points`` set, checked against ``space`` for the commands that
    take one (a node outside the ball would otherwise drop out as NaN).  An
    empty set is stored as (0, 1) whatever the dimension, so it is not checked."""
    pts = pointset.pointset_from_dict(_load_json_arg(args, "points"))
    if space is not None and len(pts):
        space.validate_points(pts.points)
    return pts


def _load_weight(args) -> weights.HermitianWeight:
    return weights.weight_from_dict(_load_json_arg(args, "weight"))


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec ``x0:x1:nx[,y0:y1:ny]`` (y defaults to the x triple)."""

    def triple(s):
        a, b, c = s.split(":")
        return float(a), float(b), int(c)

    parts = spec.split(",")
    if len(parts) not in (1, 2):
        raise DomainError("grid spec must be 'x0:x1:nx[,y0:y1:ny]'")
    x0, x1, nx = triple(parts[0])
    y0, y1, ny = triple(parts[1]) if len(parts) == 2 else (x0, x1, nx)
    return pointset.grid_points(x0, x1, nx, y0, y1, ny)


def _map_fn(args):
    n = args.threads
    if n is None:
        n = int(os.environ.get(THREADS_ENV, "1"))
    if n <= 1:
        return map, None
    pool = ThreadPoolExecutor(max_workers=n)
    return pool.map, pool


def _emit(args, report: dict, csv_text=None) -> None:
    text = dump_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if csv_text is not None and getattr(args, "csv", None):
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)


# ---------------------------------------------------------------------------
# commands

def _cmd_separation(args) -> int:
    space = _load_space(args)
    pts = _load_points(args, space)
    r0 = math.inf
    if args.weight:
        r0 = _load_weight(args).r0
    rep = pointset.separation(space, pts, r0=r0)
    body = {
        "min_pairwise_distance": rep.min_pairwise_distance,
        "arg_pair": list(rep.arg_pair) if rep.arg_pair else None,
        "delta0": rep.delta0,
        "r0": rep.r0,
        "n_points": len(pts),
    }
    _emit(args, report_envelope("separation", body))
    return EXIT_OK


def _cmd_density(args) -> int:
    space = _load_space(args)
    pts = _load_points(args, space)
    grid = _parse_grid(args.grid)
    vals = pointset.seip_density(space, pts, pointset.grid_rows(space, grid), cutoff=args.cutoff)
    body = {
        "grid_sup": float(vals.max()),
        "argmax_index": int(np.argmax(vals)),
        "cutoff": args.cutoff,
        "n_grid": len(vals),
        "note": "grid supremum, not a supremum over the space",
    }
    header = ["index", "re", "im", "density"]
    columns = [np.arange(len(vals)), grid.real, grid.imag, vals]
    _emit(args, report_envelope("density", body), dump_csv(header, columns))
    return EXIT_OK


def _emit_certificate(args, report) -> int:
    _emit(args, report.to_dict(), dump_csv(*report.csv_columns()))
    return EXIT_OK if report.passed else EXIT_CRITERION_FAIL


def _cmd_certify_bos(args) -> int:
    w = _load_weight(args)
    pts = _load_points(args)
    grid = _parse_grid(args.grid)
    map_fn, pool = _map_fn(args)
    try:
        rep = certificates.bos_certificate(w, pts, args.rho, args.eps, grid, map_fn=map_fn)
    finally:
        if pool:
            pool.shutdown()
    return _emit_certificate(args, rep)


def _cmd_certify_t1(args) -> int:
    space = _load_space(args)
    w = _load_weight(args)
    pts = _load_points(args, space)
    grid = _parse_grid(args.grid)
    map_fn, pool = _map_fn(args)
    try:
        rep = certificates.theorem1_certificate(w, space, pts, args.rho, args.eps, grid,
                                                map_fn=map_fn)
    finally:
        if pool:
            pool.shutdown()
    return _emit_certificate(args, rep)


def _cmd_certify_t2(args) -> int:
    space = _load_space(args)
    w = _load_weight(args)
    pts = _load_points(args, space)
    grid = _parse_grid(args.grid)
    rep = certificates.theorem2_certificate(
        w, space, pts, args.eps, grid,
        density_threshold=args.density_threshold, cutoff=args.cutoff)
    return _emit_certificate(args, rep)


def _cmd_construct(args) -> int:
    space = _load_space(args)
    w = _load_weight(args)
    pts = _load_points(args, space)
    if len(pts) and pts.values is None:
        raise DomainError("construct needs a point file with values")
    ext = construction.glued_extension(space, w, pts, delta0=args.delta0)
    aux = construction.AuxiliaryWeight(space, pts, args.rho)
    energy = construction.dbar_energy_report(ext, aux, nr=args.nr, ntheta=args.ntheta)
    grid = _parse_grid(args.grid)
    samples = construction.evaluate_extension(ext, grid[:, None])
    body = {
        "delta0": ext.delta0,
        "rho": args.rho,
        "energy": energy.to_dict(),
        "n_grid": len(samples),
    }
    header = ["index", "re", "im", "F_re", "F_im"]
    columns = [np.arange(len(grid)), grid.real, grid.imag, samples.real, samples.imag]
    _emit(args, report_envelope("construct", body), dump_csv(header, columns))
    return EXIT_OK


def _kernel_from_weight_spec(spec: dict) -> rkhs.KernelSpace:
    if not isinstance(spec, dict):
        raise DomainError(f"a weight spec is a JSON object, got {spec!r}")
    name = spec.get("builtin")
    n = geometry._dimension(spec.get("n", 1))
    number = functools.partial(geometry._spec_number, spec)
    if name == "fock":
        return rkhs.fock_kernel(number("alpha", 1.0), n=n)
    if name == "bergman":
        if n != 1:
            raise DomainError(f"the bergman kernel lives on the disk (n = 1), not n = {n}")
        return rkhs.bergman_kernel(number("A" if "A" in spec else "a", 1.0),
                                   kappa=number("kappa", 1.0))
    raise DomainError("interpolation kernels exist for the builtin weights only")


def _cmd_interpolate(args) -> int:
    kernel = _kernel_from_weight_spec(_load_json_arg(args, "weight"))
    pts = _load_points(args)
    interp = rkhs.min_norm_interpolant(kernel, pts)
    raw = float(np.max(interp.raw_residuals))
    weighted = float(np.max(interp.weighted_residuals))
    body = interp.to_dict()
    body["max_residual"] = raw
    body["max_weighted_residual"] = weighted
    body["warnings"] = [] if raw <= RAW_RESIDUAL_WARN else [
        f"raw nodal residual {raw:.3e} above {RAW_RESIDUAL_WARN:.0e}; "
        f"weighted residual |f(p) - a| e^(-Phi(p)/2) is {weighted:.3e}"]
    if rkhs.LONGDOUBLE_MANTISSA < 63:
        body["warnings"].append(
            f"long double has {rkhs.LONGDOUBLE_MANTISSA} mantissa bits (float80 has 63); "
            f"the extended-precision solve is degraded and residuals may exceed "
            f"{RAW_RESIDUAL_WARN:.0e}")
    _emit(args, report_envelope("interpolant", body))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    kernel = _kernel_from_weight_spec(_load_json_arg(args, "weight"))
    spacings = [float(s) for s in args.spacings.split(",") if s]
    extra = [float(s) for s in args.extra_radii.split(",") if s] if args.extra_radii else []
    result = rkhs.feasibility_sweep(kernel, spacings, args.radius, extra_radii=extra)
    body = {
        "monotone_in_spacing": result.monotone_in_spacing,
        "n_rows": len(result.rows),
        "radius": args.radius,
    }
    _emit(args, report_envelope("sweep", body), result.to_csv())
    return EXIT_OK


def _cmd_verify_geometry(args) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    space = _load_space(args)
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    worst = abs(geometry.hessian_comparison_factor(1e-9, 1.0) - 2.0)
    record("comparison_factor_limit", worst <= 1e-9, f"|factor(1e-9,1)-2| = {worst:.3e}")

    vals = set()
    for j in range(-8, 9):
        c = 2.0 ** j
        vals.add(geometry.hessian_comparison_factor(1.3 / c, c))
    record("comparison_factor_product_only", len(vals) == 1,
           f"{len(vals)} distinct values across 17 scalings of k*rho = 1.3")

    # A check draws all its samples at once, in a one-sample loop's order, for one FD call;
    # moduli go by hypot and squares by pow, as on one Python scalar (FD scales a last bit by 1/h^2)
    m = args.samples
    if space.is_flat and space.n == 1:
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        zs = rng.uniform(-2, 2, (m, 2)).view(complex)  # (re, im) pairs as (m, 1) rows
        h = geometry.complex_hessian_fd(
            lambda t: np.float_power(np.hypot((t - p).real, (t - p).imag)[:, 0], 2), zs)
        rel = geometry.relative_form_eigenvalues(space, zs, h)[:, 0]
        worst = float(np.max(np.abs(rel - 2.0), initial=0.0))
        record("flat_squared_distance_eigenvalue", worst <= 1e-6, f"worst |rel-2| = {worst:.3e}")
    elif not space.is_flat and space.n == 1:
        kap = space.kappa

        def distance(t):  # from the origin, to validated stencil rows
            return geometry.geodesic_distances(space, np.zeros(1), space.validate_points(t))

        ds = 0.1 + (3.0 - 0.1) * np.arange(m) / max(1, m - 1)
        zs = geometry.geodesic_point(space, np.zeros((1, 1)), ds, rng.uniform(0, 2 * math.pi, m)).T
        h = geometry.complex_hessian_fd(lambda t: np.float_power(distance(t), 2), zs)
        rel = geometry.relative_form_eigenvalues(space, zs, h)[:, -1]
        # the closed-form factor stays scalar: math.tanh, not np.tanh
        factor = np.array([geometry.hessian_comparison_factor(space.k, d) for d in ds.tolist()])
        worst_ratio = float(np.max(rel / factor, initial=0.0))
        record("hyperbolic_squared_distance_comparison", worst_ratio <= 1.0 + 1e-4,
               f"worst rel/factor = {worst_ratio:.10f}")

        u = rng.random((m, 2))  # (radius, angle) draws in sample order
        zs = (kap * (0.05 + 0.85 * u[:, 0]) * np.exp(1j * (2 * math.pi * u[:, 1])))[:, None]
        h = geometry.complex_hessian_fd(
            lambda t: 2.0 * np.log(np.tanh(distance(t) / (2.0 * kap))), zs,
            step=2.5e-4 * np.maximum(1.0, np.hypot(zs.real, zs.imag)[:, 0]))
        worst_eig = float(np.min(geometry.relative_form_eigenvalues(space, zs, h)[:, 0], initial=0.0))
        record("hyperbolic_log_tanh_psh", worst_eig >= -1e-6, f"min eigenvalue = {worst_eig:.3e}")

        closed = float(geometry.ricci_eigen(space, np.zeros((1, 1)))[0])
        record("ricci_closed_form", abs(closed + space.n / kap ** 2) <= 1e-12,
               f"ricci eigen at 0 = {closed:.12g}")

    ok = all(c["passed"] for c in checks)
    _emit(args, report_envelope("verify-geometry", {"passed": ok, "checks": checks}))
    return EXIT_OK if ok else EXIT_CRITERION_FAIL


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holo-interp",
        description="certify interpolation point sets and build interpolants "
                    "on constant-curvature model spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weight=False, points=False, grid=False, space=False):
        if space:
            p.add_argument("--space", help="model space JSON (inline or path)")
        if weight:
            p.add_argument("--weight", help="weight JSON (inline or path)")
        if points:
            p.add_argument("--points", help="point set JSON (inline or path)")
        if grid:
            p.add_argument("--grid", required=True, help="sample grid 'x0:x1:nx[,y0:y1:ny]'")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        p.add_argument("--csv", help="write the per-sample CSV here")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (default ${THREADS_ENV} or 1)")

    p = sub.add_parser("separation", help="minimum pairwise distance report")
    common(p, weight=True, points=True, space=True)
    p.add_argument("--bucketed", action="store_true",
                   help="accepted for old scripts; no effect (every set gets the exact search)")
    p.set_defaults(func=_cmd_separation)

    p = sub.add_parser("density", help="hyperbolic density over a grid")
    common(p, points=True, grid=True, space=True)
    p.add_argument("--cutoff", type=float, default=pointset.DENSITY_CUTOFF,
                   help="distance cutoff in the density sum")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("certify-bos", help="flat C^1 Laplacian criterion")
    common(p, weight=True, points=True, grid=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_certify_bos)

    p = sub.add_parser("certify-t1", help="curvature/counting criterion")
    common(p, weight=True, points=True, grid=True, space=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_certify_t1)

    p = sub.add_parser("certify-t2", help="hyperbolic density criterion")
    common(p, weight=True, points=True, grid=True, space=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--cutoff", type=float, default=pointset.DENSITY_CUTOFF)
    p.add_argument("--density-threshold", type=float, default=math.inf,
                   help="user-set pass threshold for the density grid-sup")
    p.set_defaults(func=_cmd_certify_t2)

    p = sub.add_parser("construct", help="glued extension samples and dbar energy")
    common(p, weight=True, points=True, grid=True, space=True)
    p.add_argument("--rho", type=float, required=True, help="auxiliary weight ball radius")
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--nr", type=int, default=32)
    p.add_argument("--ntheta", type=int, default=64)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("interpolate", help="minimal-norm kernel interpolant")
    common(p, weight=True, points=True)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("sweep", help="lattice Riesz-bound feasibility sweep")
    common(p, weight=True)
    p.add_argument("--spacings", required=True, help="comma-separated lattice spacings")
    p.add_argument("--radius", type=float, required=True, help="truncation radius")
    p.add_argument("--extra-radii", default="", help="extra truncation radii (drift check)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-geometry", help="numerical curvature checks")
    common(p, space=True)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=_cmd_verify_geometry)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use: parsing leaves no state in
    it, and each ``parse_args`` call returns a fresh namespace."""
    return build_parser()


def run(argv=None) -> int:
    """Parse and execute; returns the exit code without raising."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NumericalGuardError as exc:
        extra = f" (eig_min = {exc.eig_min:.3e})" if getattr(exc, "eig_min", None) is not None else ""
        print(f"error: numerical guard: {exc}{extra}", file=sys.stderr)
        return EXIT_GUARD
    except (DomainError, ValueError, OverflowError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
