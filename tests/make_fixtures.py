"""Regenerate the frozen oracle fixtures.

Run ``python tests/make_fixtures.py`` from the repository root after an
intentional change to the sweep or certificate machinery, then review the
diff of ``tests/fixtures/feasibility_delta_star.json`` before committing.

The committed fixture predates the orbit-table build of the Gram and its
real symmetric forms, so a regeneration with no change to the machinery
still differs from it: every ``eig_min`` (and ``delta_star``) by up to
1.1e-15, the largest at spacing 3.0 (0.9676992314529214 ->
0.9676992314529202); the passing spacings are the same.  The acceptance
gate that reads the fixture compares within 1e-9, so the difference does
not show there; only moves beyond it are a change to review.
"""

import json
import pathlib

import holo_interp as hi
from holo_interp import pointset, rkhs

HERE = pathlib.Path(__file__).parent

ALPHA = 1.0
RHO = 2.0
EPS = 0.5
RADIUS = 6.0
GRID = (-3.0, 3.0, 61)
SPACINGS = [4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0]


def derive() -> dict:
    space = hi.flat_space(1)
    w = hi.fock_weight(ALPHA)
    kernel = rkhs.fock_kernel(ALPHA)
    grid = pointset.grid_points(GRID[0], GRID[1], GRID[2], GRID[0], GRID[1], GRID[2])
    eig_min = {}
    passing = []
    for s in SPACINGS:
        lattice = pointset.square_lattice(s, radius=RADIUS)
        report = hi.theorem1_certificate(w, space, lattice, RHO, EPS, grid)
        eig_min[str(s)] = rkhs.feasibility_sweep(kernel, [s], RADIUS).rows[0].eig_min
        if report.passed:
            passing.append(s)
    return {
        "description": "frozen eigensolve oracle for the certificate/feasibility consistency gate",
        "alpha": ALPHA,
        "rho": RHO,
        "eps": EPS,
        "radius": RADIUS,
        "grid": list(GRID),
        "spacings": SPACINGS,
        "eig_min_by_spacing": eig_min,
        "passing_spacings": passing,
        "delta_star": min(eig_min[str(s)] for s in passing),
    }


if __name__ == "__main__":
    out = HERE / "fixtures" / "feasibility_delta_star.json"
    with open(out, "w") as fh:
        json.dump(derive(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
