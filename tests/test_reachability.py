"""Every library function backs a CLI number or is named with its consumer.

The CLI runs in process on a fixed list of tiny jobs under ``sys.setprofile``
and ``threading.setprofile``.  Every function and method compiled from
``src/holo_interp`` (nested functions and lambdas included; class bodies and
comprehensions are not functions) must be entered by some job, unless
``ALLOWED`` names it together with the consumer that keeps it.  A function
that neither the CLI nor a named consumer needs is to be deleted, not
allowed.  The same jobs, run in a fresh interpreter, load no scipy package
beyond those ``scipy.linalg`` and ``scipy.spatial`` load themselves, and
the ``interpolate`` and ``sweep`` jobs, which build no k-d tree, load no
``scipy.spatial``.
"""

import json
import math
import os
import subprocess
import sys
import threading
import types

import numpy as np

import holo_interp
from holo_interp import cli

#: Functions no CLI job enters, each with the consumer that keeps it.
#: Functions nested in an allowed one are allowed with it.
ITEM5 = "ROADMAP item 5: the extension norm bound and the auxiliary curvature audit"
ALLOWED = {
    "geometry.distances_from": "auxiliary_curvature_check (" + ITEM5 + ")",
    "construction.AuxiliaryWeight.value_grid": "AuxiliaryWeight.value (acceptance criterion 4)",
    "construction.extension_norm_sq": ITEM5,
    "construction.euclidean_disk_integral": ITEM5,
    "construction.auxiliary_curvature_check": ITEM5,
    "construction.CurvatureCheckEntry.slack": "auxiliary_curvature_check (" + ITEM5 + ")",
    "weights.HermitianWeight.frame_bound_constant": ITEM5 + " (TestExtensionNorm)",
    "weights.h_norm_sq": ITEM5 + " (TestExtensionNorm)",
    "geometry.ball_volume_bound": ITEM5 + " (TestExtensionNorm); acceptance criterion 6",
    "weights.mean_value_constant": "acceptance criterion 6",
    "weights.local_oscillation": "mean_value_constant (acceptance criterion 6)",
    "construction.AuxiliaryWeight.value": "acceptance criterion 4",
    "pointset.PointSet.with_values": "acceptance criterion 5",
    "geometry.hyperbolic_ball": "the test suite's disk constructor",
    "cli.main": "the holo-interp console script (pyproject.toml)",
}

SRC = os.path.dirname(holo_interp.__file__)
NOT_FUNCTIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

FLAT = '{"kind": "flat", "n": 1}'
DISK = '{"kind": "hyperbolic_ball", "n": 1, "kappa": 1.0}'
FOCK = '{"builtin": "fock", "alpha": 1.0}'
BERGMAN = '{"builtin": "bergman", "A": 4.0, "kappa": 1.0}'
# sigma = z + 0.05 z^3 and Phi_def = (x^2 + y^2)/2
POLY = json.dumps({
    "sigmas": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.05, 0.0]]],
    "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2, 0], "coeff": 0.5},
                                                 {"powers": [0, 2], "coeff": 0.5}]}},
    "M2": 1.0, "r0": 1.0, "mu": 1.0,
})


def points(zs, values=None):
    d = {"points": [[z.real, z.imag] for z in map(complex, zs)]}
    if values is not None:
        d["values"] = [[v.real, v.imag] for v in map(complex, values)]
    return json.dumps(d)


FLAT_NODES = points([0, 3, 3j], [1, 0.5j, 1 - 1j])
DISK_NODES = points([0.5, -0.5, 0.5j], [1, 0.5j, 1 - 1j])
# closed under z -> i z; closed under z -> conj z but not under z -> i z
QUARTER_NODES = points([0, 2, 2j, -2, -2j], [1, 1j, 1, 1j, 1])
CONJUGATE_NODES = points([1, 1 + 1j, 1 - 1j, 2 + 0.5j, 2 - 0.5j], [1, 1j, -1j, 1 + 1j, 1 - 1j])
# a spacing-0.05 lattice: its normalized Fock Gram is numerically singular
SINGULAR_NODES = points([0.05 * complex(a, b) for a in range(-2, 3) for b in range(-2, 3)],
                        [1] * 25)
CERTIFY = ["--rho", "1", "--eps", "0.5"]
QUADRATURE = ["--nr", "2", "--ntheta", "4"]

#: (exit code, argv) of every job
JOBS = [
    (0, ["separation", "--space", FLAT, "--points", FLAT_NODES, "--weight", FOCK]),
    (0, ["separation", "--space", DISK, "--points", DISK_NODES]),
    (0, ["density", "--space", DISK, "--points", DISK_NODES, "--grid=-0.2:0.2:2"]),
    (0, ["certify-bos", "--weight", POLY, "--points", FLAT_NODES, *CERTIFY, "--grid=-1:1:2"]),
    (0, ["certify-t1", "--space", FLAT, "--weight", FOCK, "--points", FLAT_NODES, *CERTIFY,
            "--grid=-1:1:2"]),
    (1, ["certify-t1", "--space", DISK, "--weight", BERGMAN, "--points", DISK_NODES,
            *CERTIFY, "--grid=-0.2:0.2:2", "--threads", "2"]),
    (0, ["certify-t2", "--space", DISK, "--weight", BERGMAN, "--points", DISK_NODES,
            "--eps", "0.5", "--grid=-0.2:0.2:2", "--density-threshold", "5"]),
    (0, ["construct", "--space", FLAT, "--weight", FOCK, "--points", FLAT_NODES,
         "--rho", "1", "--grid=-1:1:3", *QUADRATURE]),
    (0, ["construct", "--space", FLAT, "--weight", POLY, "--points", FLAT_NODES,
         "--rho", "1", "--grid=-1:1:3", *QUADRATURE]),
    (0, ["construct", "--space", DISK, "--weight", BERGMAN, "--points", DISK_NODES,
         "--rho", "0.5", "--grid=-0.5:0.5:3", *QUADRATURE]),
    (0, ["interpolate", "--weight", FOCK, "--points", QUARTER_NODES]),
    (0, ["interpolate", "--weight", FOCK, "--points", CONJUGATE_NODES]),
    (0, ["interpolate", "--weight", BERGMAN, "--points", DISK_NODES]),
    (0, ["sweep", "--weight", FOCK, "--spacings", "3,2", "--radius", "2", "--extra-radii", "4"]),
    (0, ["verify-geometry", "--space", FLAT, "--samples", "2"]),
    (0, ["verify-geometry", "--space", DISK, "--samples", "2"]),
    # a non-numeric coordinate: the per-entry parser names it
    (2, ["separation", "--space", FLAT, "--points", '{"points": [[0.0, 0.0], [1.0, "x"]]}']),
    (3, ["interpolate", "--weight", FOCK, "--points", SINGULAR_NODES]),
    # |a|^2 overflows: the quadrature guard
    (3, ["construct", "--space", FLAT, "--weight", FOCK, "--points",
         points([0, 3], [1, 1e200]), "--rho", "1", "--grid=-1:1:3", *QUADRATURE]),
]


def library_functions():
    """``{(file, first line, name): "module.qualname"}`` for every function
    compiled from the package sources."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            stack = [(compile(fh.read(), path, "exec"), name[:-3], False)]
        while stack:
            code, qualname, is_function = stack.pop()
            if is_function:
                out[(code.co_filename, code.co_firstlineno, code.co_name)] = qualname
            for const in code.co_consts:
                if isinstance(const, types.CodeType) and const.co_name not in NOT_FUNCTIONS:
                    scope = qualname + (".<locals>" if is_function else "")
                    stack.append((const, f"{scope}.{const.co_name}",
                                  bool(const.co_flags & 1)))  # CO_OPTIMIZED: not a class body
    return out


def run_jobs(tmp_path):
    """Run every job; returns the entered (file, first line, name) keys and
    the exit codes."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    out = ["--out", str(tmp_path / "out.json"), "--csv", str(tmp_path / "out.csv")]
    codes = []
    cli._parser.cache_clear()  # as in a fresh process, the first job builds the parser
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        with np.errstate(over="ignore"):  # the last job overflows on purpose
            for _, argv in JOBS:
                codes.append(cli.run([*argv, *out]))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return entered, codes


def allowed(qualname):
    return any(qualname == a or qualname.startswith(a + ".<locals>.") for a in ALLOWED)


def test_every_library_function_is_entered_or_allowed(tmp_path):
    functions = library_functions()
    entered, codes = run_jobs(tmp_path)
    assert codes == [code for code, _ in JOBS]
    unreached = sorted(q for key, q in functions.items() if key not in entered)
    assert [q for q in unreached if not allowed(q)] == [], \
        "never entered by the CLI jobs: give it a consumer in ALLOWED, or delete it"
    # the allowlist stays exact: no entry for a function that is gone or reached
    assert sorted(set(ALLOWED) - set(functions.values())) == []
    assert sorted(a for a in ALLOWED if a not in unreached) == []



#: Run in a fresh interpreter: the test process has scipy.integrate loaded
#: already (tests/test_construction.py imports it).  Reads two lists of jobs
#: and the --out/--csv arguments as JSON on stdin: the first list runs with
#: only scipy.linalg loaded beforehand, the second after scipy.spatial too.
#: Prints one JSON line.
COLD_START = """
import json, sys
import numpy as np
import scipy.linalg

def packages():
    return {name.split(".")[1] for name in sys.modules if name.startswith("scipy.")}

before = packages()
from holo_interp import cli, geometry
tree_free, jobs, out = json.load(sys.stdin)
with np.errstate(over="ignore"):  # the last job overflows on purpose
    codes = [cli.run([*argv, *out]) for argv in tree_free]
    new_tree_free = sorted(packages() - before)
    import scipy.spatial
    before = packages()
    codes += [cli.run([*argv, *out]) for argv in jobs]
new = sorted(packages() - before)
volume = geometry.ball_volume_bound(1.0, 1.0, 2)
print(json.dumps({"codes": codes, "new_tree_free": new_tree_free, "new": new,
                  "volume": volume, "integrate": "scipy.integrate" in sys.modules}))
"""

#: the subcommands that build no k-d tree
TREE_FREE = ("interpolate", "sweep")


def test_cli_jobs_load_only_the_scipy_packages_they_call(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")])))
    out = ["--out", str(tmp_path / "out.json"), "--csv", str(tmp_path / "out.csv")]
    tree_free = [job for job in JOBS if job[1][0] in TREE_FREE]
    jobs = [job for job in JOBS if job[1][0] not in TREE_FREE]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START],
        input=json.dumps([[argv for _, argv in tree_free], [argv for _, argv in jobs], out]),
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [code for code, _ in tree_free + jobs]
    # interpolate and sweep load no scipy package beyond scipy.linalg's own,
    # scipy.spatial among them
    assert {argv[0] for _, argv in tree_free} == set(TREE_FREE)
    assert result["new_tree_free"] == []
    # every subcommand runs, and none of them loads scipy.integrate or
    # scipy.optimize: only the quadrature of ball_volume_bound needs them
    assert {argv[0] for _, argv in JOBS} == {
        "separation", "density", "certify-bos", "certify-t1", "certify-t2",
        "construct", "interpolate", "sweep", "verify-geometry"}
    assert result["new"] == []
    # the lazy import of the curved branch works from a cold start
    assert abs(result["volume"] - 2.0 * math.pi * (math.cosh(1.0) - 1.0)) <= 1e-10
    assert result["integrate"]
