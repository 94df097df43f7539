"""Outside-in span recorder for the traced benchmark run.

Timing wrappers are installed on module attributes and class methods of
``holo_interp`` from here, without editing the library.  Library code looks
those names up at call time (``geometry.distances_from(...)``,
``w.value(...)``), so calls made inside the library are seen too.

Each span has an id, a parent span, a name, the job it belongs to, and
start/end times.  Self time is a span's duration minus the part of that
interval its child spans cover.  Aggregates (calls, self and total time,
exact counters) are kept per thread and merged per pass; full span records
are kept in memory for one pass only and written as JSONL at the end.

A span opened on a worker thread with no open span of its own takes the
main thread's innermost open span as parent (the thread-pool path of
``certify-t1 --threads N``: the main thread waits inside the certificate).
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cs, ce = intervals[0]
    for s, e in intervals[1:]:
        if s > ce:
            total += ce - cs
            cs, ce = s, e
        elif e > ce:
            ce = e
    return total + ce - cs


class Span:
    __slots__ = ("id", "parent", "name", "start", "children", "ctx")

    def __init__(self, sid, parent, name, start, ctx):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.children = []
        self.ctx = ctx


def _entry():
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0}


class Recorder:
    def __init__(self):
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._tables = []
        self._ids = iter(range(1, 1 << 62))
        self.job = None
        self.keep = False  # record full spans (one pass)
        self.spans = []

    # -- per-thread state ---------------------------------------------------
    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.table
        except AttributeError:
            loc.stack = self._main_stack if threading.get_ident() == self._main else []
            loc.table = defaultdict(_entry)
            self._tables.append(loc.table)
            return loc.stack, loc.table

    def table(self):
        return self._state()[1]

    def current(self):
        stack = self._state()[0]
        return stack[-1] if stack else None

    # -- spans --------------------------------------------------------------
    def open(self, name, ctx=None):
        stack, _ = self._state()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), parent, name, clock(), ctx)
        stack.append(span)
        return span

    def close(self, span):
        end = clock()
        stack, table = self._state()
        stack.pop()
        dur = end - span.start
        e = table[span.name]
        e["calls"] += 1
        e["total_s"] += dur
        e["self_s"] += dur - covered(span.children)
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        if self.keep:
            self.spans.append((span.id, span.parent.id if span.parent else None, span.name,
                               self.job, span.start, end, threading.get_ident()))

    def add(self, name, key, value):
        e = self.table()[name]
        e[key] = e.get(key, 0) + value

    def take(self):
        """Merge and reset the per-thread aggregates (call between passes)."""
        out = defaultdict(_entry)
        for t in self._tables:
            for name, e in t.items():
                agg = out[name]
                for k, v in e.items():
                    agg[k] = agg.get(k, 0) + v
            t.clear()
        return dict(out)

    def write_jsonl(self, path, t0):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, job, start, end, tid in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "job": job,
                                     "start": start - t0, "end": end - t0, "thread": tid}) + "\n")


def self_times_from_jsonl(path):
    """Recompute per-name self time from a span file (start, end, parent)."""
    spans = [json.loads(line) for line in open(path, encoding="utf-8")]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - covered(children[s["id"]])
    return dict(out)


# ---------------------------------------------------------------------------
# wrapping

def _rows(points):
    return int(np.shape(points)[0]) if np.ndim(points) else 1


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _hooks(hi):
    """Exact counters recorded at the same boundaries as the spans.

    Each hook gets (recorder, span, args, kwargs, result) after the span
    closed, so its cost is not in the span's time.
    """
    def distances_from(rec, span, args, kwargs, result):
        rows = _rows(_arg(args, kwargs, 1, "points"))
        rec.add("geometry.distances_from", "distances", rows)
        parent = span.parent
        if parent is None:
            return
        if parent.name == "construction.AuxiliaryWeight.value_grid":
            rec.add(parent.name, "pairs_within_rho", int(np.count_nonzero(result < parent.ctx.rho)))
            rec.add(parent.name, "pairs_scanned", rows)
        elif parent.name == "pointset.separation":
            rec.add(parent.name, "pairs", rows)

    def count_in_ball(rec, span, args, kwargs, result):
        rec.add("pointset.count_in_ball", "nodes_scanned", len(_arg(args, kwargs, 1, "pts")))
        rec.add("pointset.count_in_ball", "hits", int(result))

    def certificate(rec, span, args, kwargs, result):
        rec.add("certificates", "samples", len(result.per_sample))

    energy_sig = inspect.signature(hi.construction.dbar_energy_report)

    def energy(rec, span, args, kwargs, result):
        bound = energy_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        # level 1 plus the refined level (2 nr x 2 ntheta) over every node
        rec.add(span.name, "quad_points", len(a["ext"].points) * 5 * a["nr"] * a["ntheta"])

    def value_grid(rec, span, args, kwargs, result):
        rec.add(span.name, "node_point_pairs",
                len(args[0].points) * _rows(_arg(args, kwargs, 1, "zs")))

    item = np.dtype(np.clongdouble).itemsize + np.dtype(complex).itemsize

    def normalized_gram(rec, span, args, kwargs, result):
        m = _rows(_arg(args, kwargs, 1, "points"))
        rec.add(span.name, "entries", m * m)
        # extended-precision log-kernel plus the complex128 result, from shapes
        rec.add(span.name, "bytes_computed", m * m * item)

    return {
        "geometry.distances_from": distances_from,
        "pointset.count_in_ball": count_in_ball,
        "certificates.bos_certificate": certificate,
        "certificates.theorem1_certificate": certificate,
        "certificates.theorem2_certificate": certificate,
        "construction.dbar_energy_report": energy,
        "construction.AuxiliaryWeight.value_grid": value_grid,
        "rkhs.KernelSpace.normalized_gram": normalized_gram,
    }


def targets(hi):
    """(owner, attribute, span name, is_method) for every wrapped callable."""
    g, p, w, c, k, r, cli = (hi.geometry, hi.pointset, hi.weights, hi.construction, hi.rkhs,
                             hi.reporting, hi.cli)
    out = [
        (w.HermitianWeight, "value", "weights.HermitianWeight.value", True),
        (w, "curvature_eigen_min", "weights.curvature_eigen_min", False),
        (w, "normal_frame_exponent", "weights.normal_frame_exponent", False),
        (g, "complex_hessian_fd", "geometry.complex_hessian_fd", False),
        (g, "relative_form_eigenvalues", "geometry.relative_form_eigenvalues", False),
        (g, "distances_from", "geometry.distances_from", False),
        (g, "geodesic_point", "geometry.geodesic_point", False),
        (g, "mobius_translate", "geometry.mobius_translate", False),
        (p, "count_in_ball", "pointset.count_in_ball", False),
        (p, "seip_density", "pointset.seip_density", False),
        (p, "sup_density", "pointset.sup_density", False),
        (p, "separation", "pointset.separation", False),
        (hi.certificates, "bos_certificate", "certificates.bos_certificate", False),
        (hi.certificates, "theorem1_certificate", "certificates.theorem1_certificate", False),
        (hi.certificates, "theorem2_certificate", "certificates.theorem2_certificate", False),
        (hi.certificates, "laplacian_phi", "certificates.laplacian_phi", False),
        (c, "dbar_energy_report", "construction.dbar_energy_report", False),
        (c.AuxiliaryWeight, "value_grid", "construction.AuxiliaryWeight.value_grid", True),
        (c, "evaluate_extension", "construction.evaluate_extension", False),
        (c, "glued_extension", "construction.glued_extension", False),
        (k.KernelSpace, "normalized_gram", "rkhs.KernelSpace.normalized_gram", True),
        (k, "gram_matrix", "rkhs.gram_matrix", False),
        (k, "min_norm_interpolant", "rkhs.min_norm_interpolant", False),
        (k.MinNormInterpolant, "residuals", "rkhs.MinNormInterpolant.residuals", True),
        (k, "feasibility_sweep", "rkhs.feasibility_sweep", False),
    ]
    # dump_json/dump_csv are imported by name into cli and rkhs, so the
    # names there are wrapped as well as the defining module's
    for owner in (r, cli, k):
        for fn in ("dump_json", "dump_csv"):
            if hasattr(owner, fn):
                out.append((owner, fn, f"reporting.{fn}", False))
    return out


class Tracer:
    """Installs and removes the wrappers around one Recorder."""

    def __init__(self, hi):
        self.hi = hi
        self.rec = Recorder()
        self._saved = []

    def _wrap(self, fn, name, is_method, hook):
        rec = self.rec

        def wrapper(*args, **kwargs):
            span = rec.open(name, args[0] if is_method else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if hook is not None:
                try:
                    hook(rec, span, args, kwargs, result)
                except Exception:  # a changed signature must not fail the job
                    rec.add("trace", "hook_errors", 1)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_solves(self, fn):
        rec = self.rec

        def solve(*args, **kwargs):
            cur = rec.current()
            if cur is not None and cur.name == "rkhs.min_norm_interpolant":
                rec.add(cur.name, "solves", 1)
            return fn(*args, **kwargs)
        return solve

    def install(self):
        hooks = _hooks(self.hi)
        for owner, attr, name, is_method in targets(self.hi):
            fn = owner.__dict__.get(attr)
            if fn is None:  # gone from the program: its metrics read 0
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, is_method, hooks.get(name)))
        # solves are counted, not timed: min_norm_interpolant's self time
        # keeps its solves
        self._saved.append((np.linalg, "solve", np.linalg.solve))
        np.linalg.solve = self._count_solves(np.linalg.solve)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def job(self, job_id, run):
        """Run one CLI job under a root span ``cli.run``."""
        self.rec.job = job_id
        span = self.rec.open("cli.run")
        try:
            return run()
        finally:
            self.rec.close(span)
