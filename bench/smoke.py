"""Self-test of the benchmark at toy sizes.

    python3 bench/smoke.py

Checks that every oracle accepts the program's real output and rejects a
deliberately perturbed one, that the byte-identity check catches a changed
artifact, that a span file reproduces the recorder's self times, that
``run.py`` emits exactly the metrics named in ``BENCHMARK.json``, and that
``run.py`` fails without printing a result when the program is missing.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = run.ROOT
SEED = 7


def _json_edit(data, fn):
    obj = json.loads(data)
    fn(obj)
    return json.dumps(obj).encode()


def _csv_edit(data, row, col, fn):
    lines = data.decode().rstrip("\n").split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _node_row(job, csv):
    rows = oracles.parse_csv(csv, ["index", "re", "im", "F_re", "F_im"])
    p = job.facts["nodes"][0]
    return int(np.nonzero((rows[:, 1] == p.real) & (rows[:, 2] == p.imag))[0][0])


def _bump_available(csv):
    """One sample's curvature off by 1e-3, margin kept consistent."""
    csv = _csv_edit(csv, 0, 4, lambda v: v + 1e-3)
    return _csv_edit(csv, 0, 5, lambda v: v + 1e-3)


def _bump_count(job, csv):
    """One sample's open-ball count off by one, margin kept consistent."""
    f = job.facts
    if f["criterion"] == "theorem2":  # no count: required must equal eps
        step = 1.0
    else:
        factor = 1.0 if f["criterion"] == "bos" else oracles.comparison_factor(f["space"], f["rho"])
        step = factor / f["rho"] ** 2
    csv = _csv_edit(csv, 0, 3, lambda v: v + step)
    return _csv_edit(csv, 0, 5, lambda v: v - step)


# check function name -> list of (label, fn(job, code, out, csv) -> (code, out, csv))
PERTURB = {
    "check_certificate": [
        ("curvature", lambda j, c, o, s: (c, o, _bump_available(s))),
        ("count", lambda j, c, o, s: (c, o, _bump_count(j, s))),
        ("exit code", lambda j, c, o, s: (1 - c, o, s)),
    ],
    "check_density": [
        ("density", lambda j, c, o, s: (c, o, _csv_edit(s, 0, 3, lambda v: v * (1 + 1e-6) + 1e-9))),
    ],
    "check_separation": [
        ("distance", lambda j, c, o, s: (c, _json_edit(o, lambda d: d.update(
            min_pairwise_distance=d["min_pairwise_distance"] * (1 + 1e-9))), s)),
    ],
    "check_construct": [
        ("F at node", lambda j, c, o, s: (c, o, _csv_edit(s, _node_row(j, s), 3,
                                                          lambda v: np.nextafter(v, math.inf)))),
        ("per_node", lambda j, c, o, s: (c, _json_edit(o, lambda d: d["energy"]["per_node"].__setitem__(
            0, d["energy"]["per_node"][0] * 1.001)), s)),
        ("drift", lambda j, c, o, s: (c, _json_edit(o, lambda d: d["energy"].update(
            relative_drift=2e-4)), s)),
    ],
    "check_interpolate": [
        ("eig_min", lambda j, c, o, s: (c, _json_edit(o, lambda d: d.update(
            gram_eig_min=d["gram_eig_min"] + 1e-8)), s)),
        ("coefficient", lambda j, c, o, s: (c, _json_edit(o, lambda d: d["coefficients"].__setitem__(
            0, [v * 1.01 for v in d["coefficients"][0]])), s)),
    ],
    "check_sweep": [
        ("eig_min", lambda j, c, o, s: (c, o, _csv_edit(s, 0, 1, lambda v: v + 1e-8))),
    ],
}


def check(cond, msg, failures):
    print(("ok   " if cond else "FAIL ") + msg, flush=True)
    if not cond:
        failures.append(msg)


def oracle_tests(hi, failures):
    class Args:
        seed, scale = SEED, "tiny"
    for name in workloads.WORKLOADS:
        Args.workload = name
        tmp = tempfile.mkdtemp(dir=run.WORK)
        try:
            wl, codes, data = run.setup(Args, hi, tmp)
            ok = run.check_reference(wl, codes, data)
            check(all(ok), f"{name}: every oracle accepts the program's output", failures)
            for job, code, (out, csv) in zip(wl.jobs, codes, data):
                for label, fn in PERTURB[job.check.__name__]:
                    c2, o2, s2 = fn(job, code, out, csv)
                    check(bool(job.check(job, c2, o2, s2)),
                          f"{job.name}: oracle rejects perturbed {label}", failures)
            tampered = list(data)
            tampered[0] = (data[0][0] + b" ", data[0][1])
            res = run.timed_phase(hi, wl, codes, tampered, ok, 0.0)
            check(res["wrong"] == 1 and res["failed"] == 0,
                  f"{name}: byte-identity check flags a changed artifact", failures)
            if name == "certify":
                span_test(hi, wl, codes, data, ok, failures)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def span_test(hi, wl, codes, data, ok, failures):
    tracer = spans.Tracer(hi)
    tracer.install()
    tracer.rec.keep = True
    t0 = spans.clock()
    try:
        res = run.timed_phase(hi, wl, codes, data, ok, 0.0, tracer)
    finally:
        tracer.uninstall()
    path = Path(run.WORK) / "smoke-spans.jsonl"
    tracer.rec.write_jsonl(path, t0)
    from_file = spans.self_times_from_jsonl(path)
    table = res["tables"][0]
    worst = max(abs(from_file.get(k, 0.0) - e["self_s"]) for k, e in table.items()
                if "self_s" in e and e["calls"])
    check(worst < 1e-6, f"span file reproduces self times (worst diff {worst:.2e} s)", failures)
    main = threading.main_thread().ident
    workers = {s["thread"] for s in map(json.loads, open(path)) if s["thread"] != main}
    check(len(workers) >= 1,
          "spans from the --threads 2 job carry their worker threads", failures)
    path.unlink()


def metric_tests(failures):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = {}
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            check(proc.returncode == 0 and res.get("correct") is True
                  and set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: run.py exits 0 with a correct result", failures)
            check(got == want[trace],
                  f"{name} trace={trace}: emits exactly the BENCHMARK.json metrics "
                  f"(missing {sorted(set(want[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(want[trace]))})", failures)
            check(all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
                      for v in res.get("metrics", {}).values()),
                  f"{name} trace={trace}: every metric value is a finite number", failures)


def missing_program_test(failures):
    tmp = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=170)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without src/ run.py fails and prints no result", failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    hi = run.import_program()
    run.WORK.mkdir(exist_ok=True)
    failures = []
    oracle_tests(hi, failures)
    metric_tests(failures)
    missing_program_test(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
