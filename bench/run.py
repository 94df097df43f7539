"""holo-interp benchmark: one command for every workload.

    python3 bench/run.py --workload {certify,construct,kernel} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a fixed, seeded list of CLI jobs run in process
through ``holo_interp.cli.run``: a closed loop with one client, one job at a
time, the next job starting when the previous one returns, all in this one
process with the BLAS thread count set to ``BLAS_THREADS``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time
  from process start to the first timed pass (imports, input generation,
  one warm-up pass);
* ``pass_p50_s`` / ``pass_tail_s``: median and tail of the wall time of one
  full pass over the job list; the tail is the highest of p99/p95/p90/p75/p50
  with at least ten passes beyond it, and the run prints which one;
* ``jobs_per_s``: jobs completed over the summed pass time, so stalls that
  the median hides still count;
* ``peak_rss_mb``: peak resident memory of this process (oracles run in
  blocks so they stay below the timed phase's own peak);
* ``failed_ratio`` / ``wrong_ratio``: printed with the rest (they are 0 on a
  healthy run, so they are not bounded metrics), and folded into the
  result's ``failed`` count and ``correct`` flag.

Host speed on small shared machines drifts by up to 1.8x within minutes.
So each pass (and each set-up probe) is bracketed by
runs of a fixed calibration kernel that touches nothing of the program, and
every reported time is the wall time scaled to the nominal host speed
``CAL_NOMINAL_S`` (see ``calibrate``; each workload names the kernel that
matches its instruction mix).  Unscaled medians are printed too.

``--trace 1`` runs half the time untraced and half with the outside-in span
recorder of ``spans.py``, prints the per-layer metrics of the traced passes
and ``trace.overhead_ratio``, and writes the first traced pass's spans as
JSONL under ``.bench_work/``.

Every artifact is checked by the oracles in ``oracles.py`` after the warm-up
pass; every later pass must reproduce it byte for byte.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every output was correct, 1 when an oracle
or the byte-identity check failed, 2 when the program cannot be imported.
"""

from __future__ import annotations

import os
import sys
import time

# before numpy is imported anywhere: single-client closed loop, one BLAS
# thread keeps runs steady on small shared hosts
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("HOLO_INTERP_THREADS", None)  # only --threads on a job may add threads

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
# Nominal wall time of each calibration kernel on the baseline host (2-core
# Xeon VM).  Reported times are wall times scaled by nominal / (calibration
# time measured around them), i.e. times at the nominal host speed.
CAL_NOMINAL_S = {"interpreter": 0.005, "numeric": 0.012}
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

END_TO_END = {"pass_p50_s": "s", "pass_tail_s": "s", "jobs_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

# per-layer metric -> unit; "<span name>.<counter>" unless listed in
# _SPECIAL_LAYER below
PER_LAYER = {
    "weights.HermitianWeight.value.calls": "count",
    "weights.HermitianWeight.value.self_s": "s",
    "weights.curvature_eigen_min.calls": "count",
    "weights.curvature_eigen_min.self_s": "s",
    "weights.normal_frame_exponent.self_s": "s",
    "geometry.complex_hessian_fd.calls": "count",
    "geometry.complex_hessian_fd.self_s": "s",
    "geometry.relative_form_eigenvalues.self_s": "s",
    "geometry.distances_from.calls": "count",
    "geometry.distances_from.self_s": "s",
    "geometry.distances_from.distances": "count",
    "geometry.geodesic_point.calls": "count",
    "geometry.geodesic_point.self_s": "s",
    "geometry.mobius_translate.calls": "count",
    "pointset.count_in_ball.calls": "count",
    "pointset.count_in_ball.self_s": "s",
    "pointset.count_in_ball.hit_ratio": "ratio",
    "pointset.seip_density.self_s": "s",
    "pointset.sup_density.self_s": "s",
    "pointset.separation.calls": "count",
    "pointset.separation.self_s": "s",
    "pointset.separation.pairs": "count",
    "certificates.bos_certificate.self_s": "s",
    "certificates.theorem1_certificate.self_s": "s",
    "certificates.theorem2_certificate.self_s": "s",
    "certificates.laplacian_phi.calls": "count",
    "certificates.samples": "count",
    "construction.dbar_energy_report.self_s": "s",
    "construction.dbar_energy_report.quad_points": "count",
    "construction.AuxiliaryWeight.value_grid.calls": "count",
    "construction.AuxiliaryWeight.value_grid.self_s": "s",
    "construction.AuxiliaryWeight.value_grid.node_point_pairs": "count",
    "construction.AuxiliaryWeight.value_grid.hit_ratio": "ratio",
    "construction.evaluate_extension.calls": "count",
    "construction.evaluate_extension.self_s": "s",
    "construction.glued_extension.self_s": "s",
    "rkhs.KernelSpace.normalized_gram.calls": "count",
    "rkhs.KernelSpace.normalized_gram.self_s": "s",
    "rkhs.KernelSpace.normalized_gram.entries": "count",
    "rkhs.KernelSpace.normalized_gram.bytes_computed": "B",
    "rkhs.gram_matrix.self_s": "s",
    "rkhs.min_norm_interpolant.self_s": "s",
    "rkhs.min_norm_interpolant.solves": "count",
    "rkhs.MinNormInterpolant.residuals.self_s": "s",
    "rkhs.feasibility_sweep.self_s": "s",
    "rkhs.raw_residual_max": "abs",
    "cli.self_s": "s",
    "reporting.dump_json.self_s": "s",
    "reporting.dump_csv.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_ratio": "ratio",
}
# ratio metrics: (span, numerator counter, denominator counter), over the run
_RATIOS = {
    "pointset.count_in_ball.hit_ratio": ("pointset.count_in_ball", "hits", "nodes_scanned"),
    "construction.AuxiliaryWeight.value_grid.hit_ratio":
        ("construction.AuxiliaryWeight.value_grid", "pairs_within_rho", "pairs_scanned"),
}
_SPECIAL_LAYER = {"cli.self_s": ("cli.run", "self_s"), "cli.out_bytes": ("cli.run", "out_bytes")}


def log(*parts):
    print(*parts, flush=True)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import holo_interp
        import holo_interp.cli  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import holo_interp from {ROOT / 'src'}: {exc}\n")
        sys.exit(2)
    if ROOT / "src" not in Path(holo_interp.__file__).resolve().parents:
        sys.stderr.write(f"error: holo_interp imported from {holo_interp.__file__}, "
                         f"not from this checkout\n")
        sys.exit(2)
    return holo_interp


# ---------------------------------------------------------------------------
# set-up, passes

def setup(args, hi, tmp):
    """Inputs plus one warm-up pass; returns the workload and its reference
    exit codes and artifact bytes."""
    wl = workloads.build(args.workload, args.seed, tmp, args.scale)
    codes, data = [], []
    for job in wl.jobs:
        codes.append(_run_job(hi, job))
        data.append(_read(job))
    return wl, codes, data


def _run_job(hi, job):
    for path in job.artifacts():
        if os.path.exists(path):
            os.unlink(path)
    try:
        return hi.cli.run(job.argv)
    except Exception as exc:  # a raising job counts as failed
        sys.stderr.write(f"{job.name}: raised {exc!r}\n")
        return None


def _read(job):
    out = []
    for path in (job.out, job.csv):
        if path is None:
            out.append(None)
            continue
        try:
            with open(path, "rb") as fh:
                out.append(fh.read())
        except OSError:
            out.append(b"")
    return tuple(out)


def check_reference(wl, codes, data):
    """Oracle verdict per job on the warm-up outputs."""
    ok = []
    for job, code, (out, csv) in zip(wl.jobs, codes, data):
        if code is None or code not in job.allowed_exits:
            problems = [f"{job.name}: exit code {code}"]
        else:
            problems = job.check(job, code, out, csv)
        for p in problems:
            log("ORACLE FAIL", p)
        ok.append(not problems)
    return ok


def timed_phase(hi, wl, ref_codes, ref_data, ref_ok, seconds, tracer=None):
    """Passes until ``seconds`` have elapsed, each bracketed by calibration
    runs; returns raw pass wall times and their speed scale factors."""
    clock = time.perf_counter
    passes, scales, tables = [], [], []
    attempted = failed = wrong = 0
    t0 = clock()
    nominal = CAL_NOMINAL_S[wl.calibration]
    cal_before = calibrate(wl.calibration)
    while True:
        p0 = clock()
        codes = []
        for j, job in enumerate(wl.jobs):
            if tracer is None:
                codes.append(_run_job(hi, job))
            else:
                codes.append(tracer.job(j, lambda job=job: _run_job(hi, job)))
        passes.append(clock() - p0)
        cal_after = calibrate(wl.calibration)
        scales.append(2.0 * nominal / (cal_before + cal_after))
        cal_before = cal_after
        for j, (job, code) in enumerate(zip(wl.jobs, codes)):
            attempted += 1
            data = _read(job)
            if code is None or code not in job.allowed_exits:
                failed += 1
            elif not ref_ok[j] or code != ref_codes[j] or data != ref_data[j]:
                wrong += 1
            if tracer is not None:
                tracer.rec.add("cli.run", "out_bytes", sum(len(d) for d in data if d))
        if tracer is not None:
            tracer.rec.keep = False
            tables.append(tracer.rec.take())
        if clock() - t0 >= seconds:
            break
    return {"passes": passes, "scales": scales, "attempted": attempted, "failed": failed,
            "wrong": wrong, "tables": tables}


def scaled(run):
    return [w * s for w, s in zip(run["passes"], run["scales"])]


_CAL_DATA = []


def calibrate(kind):
    """Wall time of a fixed kernel that touches nothing of the program.

    Slow phases of a shared host do not slow all code alike, so each
    workload is scaled by a kernel with its own instruction mix:
    ``interpreter`` (scalar complex math and small-array numpy calls, like
    certify and construct) or ``numeric`` (a dense eigensolve and an
    extended-precision exp over a matrix, like kernel).
    """
    if not _CAL_DATA:
        rng = np.random.default_rng(0)
        x = rng.normal(size=600) + 1j * rng.normal(size=600)
        m = rng.normal(size=(160, 160))
        _CAL_DATA.extend([x, m + m.T, (np.arange(64) * 0.1 + 1j).reshape(-1, 1)])
    x, m, col = _CAL_DATA
    t0 = time.perf_counter()
    if kind == "interpreter":
        acc = 0j
        p = complex(0.2, 0.1)
        for i in range(3000):
            u = 0.3 * complex(math.cos(i * 0.002), math.sin(i * 0.002))
            acc += (u + p) / (1.0 + p.conjugate() * u)
        for i in range(500):
            z = np.atleast_1d(np.asarray(acc * 1e-3 + i * 1e-3, dtype=complex))
            d = np.sqrt(np.sum(np.abs(col - z[None, :]) ** 2, axis=1))
            acc += int(np.count_nonzero(d < 1.0))
    else:
        acc = 0
        for i in range(300):
            acc += int(np.count_nonzero(np.abs(x - x[i]) < 1.0))
            for k in range(30):
                acc += k * k
        np.linalg.eigvalsh(m)
        np.exp(np.outer(x[:200], x[:200].conj()).astype(np.clongdouble))
    return time.perf_counter() - t0


def tail(passes):
    """Highest ladder percentile (nearest rank) with >= TAIL_BEYOND passes
    strictly beyond it."""
    xs = sorted(passes)
    n = len(xs)
    for p in TAIL_LADDER:
        idx = max(0, -(-p * n // 100) - 1)
        if sum(1 for x in xs if x > xs[idx]) >= TAIL_BEYOND:
            return p, xs[idx]
    return 50, statistics.median(xs)


# ---------------------------------------------------------------------------
# set-up probes (fresh interpreters)

def setup_probes(args):
    """Set-up times of fresh interpreters, each scaled by calibration runs
    made just before and after it."""
    kind = workloads.CALIBRATION[args.workload]
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
        cal = calibrate(kind)
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("setup_done ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        wall = float(lines[-1].split()[1]) - t0
        out.append(wall * 2.0 * CAL_NOMINAL_S[kind] / (cal + calibrate(kind)))
    return out


def probe(args, hi):
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        setup(args, hi, tmp)
        print(f"setup_done {time.monotonic()!r}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# reporting

def env_stamp(seed):
    import scipy
    stamp = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
             "cpu_model": platform.processor() or None, "caches": {},
             "python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, "openblas": None, "blas_threads": BLAS_THREADS,
             "git_commit": None, "git_dirty": None, "seed": seed}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        stamp["cpu_model"] = models[0] if models else stamp["cpu_model"]
    except OSError:
        pass
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            f = {k: Path(idx, k).read_text().strip() for k in ("level", "type", "size")}
            stamp["caches"][f"L{f['level']}{f['type'][0].lower()}"] = f["size"]
        except OSError:
            pass
    try:
        stamp["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:
        pass
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        try:
            stamp["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                                 text=True, env=env, timeout=30).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, env=env, timeout=30).stdout
            stamp["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return stamp


def raw_residual_max(wl, ref_data):
    """Largest raw ``max_residual`` the interpolate jobs report (diagnostic)."""
    vals = []
    for job, (out, _) in zip(wl.jobs, ref_data):
        if job.argv[0] == "interpolate":
            try:
                vals.append(float(json.loads(out)["max_residual"]))
            except (ValueError, KeyError, TypeError):
                pass
    return max(vals) if vals else 0.0


def layer_metrics(tables, scales, overhead, raw_residual):
    med = statistics.median
    out = {}
    for name, unit in PER_LAYER.items():
        if name in _RATIOS:
            span, num, den = _RATIOS[name]
            n = sum(t.get(span, {}).get(num, 0) for t in tables)
            d = sum(t.get(span, {}).get(den, 0) for t in tables)
            value = n / d if d else 0.0
        elif name == "rkhs.raw_residual_max":
            value = raw_residual
        elif name == "trace.overhead_ratio":
            value = overhead
        else:
            span, key = _SPECIAL_LAYER.get(name) or name.rsplit(".", 1)
            scale = unit == "s"
            value = med([t.get(span, {}).get(key, 0) * (f if scale else 1)
                         for t, f in zip(tables, scales)])
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    hi = import_program()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        return probe(args, hi)

    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
        f"scale {args.scale}")
    log("env " + json.dumps(env_stamp(args.seed), sort_keys=True))
    setup_s = [] if args.trace else setup_probes(args)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        wl, ref_codes, ref_data = setup(args, hi, tmp)
        log("inputs " + json.dumps(wl.descriptor, sort_keys=True))
        ref_ok = check_reference(wl, ref_codes, ref_data)
        if args.trace:
            base = timed_phase(hi, wl, ref_codes, ref_data, ref_ok, args.seconds / 2)
            tracer = spans.Tracer(hi)
            tracer.install()
            tracer.rec.keep = True
            t_traced = time.perf_counter()
            try:
                run = timed_phase(hi, wl, ref_codes, ref_data, ref_ok, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            span_file = WORK / f"spans-{args.workload}.jsonl"  # latest run only
            tracer.rec.write_jsonl(span_file, t_traced)
            log(f"spans of the first traced pass: {span_file.relative_to(ROOT)}")
            overhead = statistics.median(scaled(run)) / statistics.median(scaled(base))
            metrics = layer_metrics(run["tables"], run["scales"], overhead,
                                    raw_residual_max(wl, ref_data))
            for key in ("attempted", "failed", "wrong"):
                run[key] += base[key]
            hook_errors = sum(t.get("trace", {}).get("hook_errors", 0) for t in run["tables"])
            if hook_errors:
                log(f"warning: {hook_errors} counter hooks failed; their counts are incomplete")
        else:
            run = timed_phase(hi, wl, ref_codes, ref_data, ref_ok, args.seconds)
            times = scaled(run)
            p, tail_s = tail(times)
            completed = run["attempted"] - run["failed"]
            values = {"pass_p50_s": statistics.median(times), "pass_tail_s": tail_s,
                      "jobs_per_s": completed / sum(times),
                      "setup_s": statistics.median(setup_s),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            log(f"passes {len(times)}, pass_tail_s is p{p}; unscaled pass p50 "
                f"{statistics.median(run['passes']):.4f} s; speed scale p50 "
                f"{statistics.median(run['scales']):.4f}; "
                f"setup_s samples {[round(s, 4) for s in setup_s]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    completed = run["attempted"] - run["failed"]
    ratios = {"failed_ratio": run["failed"] / run["attempted"],
              "wrong_ratio": run["wrong"] / completed if completed else 0.0}
    for name, m in metrics.items():
        log(f"{name} {m['value']!r} {m['unit']}")
    for name, value in ratios.items():
        log(f"{name} {value!r} -")
    correct = all(ref_ok) and run["failed"] == 0 and run["wrong"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"] + run["wrong"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
