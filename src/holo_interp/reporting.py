"""Report plumbing: the convention block every artifact embeds, plus
deterministic JSON/CSV formatting (17 significant digits, sorted keys)."""

from __future__ import annotations

import json

SCHEMA_VERSION = 1

#: Embedded in every report so emitted numbers are self-describing.
CONVENTIONS = {
    "omega_normalization": "omega = (i/2) sum_j dz_j ^ dzbar_j; i ddbar |z|^2 = 2 omega",
    "relative_eigenvalue": "eigenvalues of 2*H against the metric coefficient matrix G",
    "delta_phi_factor": "Delta Phi = 4 * d^2 Phi / dz dzbar (n = 1)",
    "ball_openness": "ball counts use strict inequality (open balls)",
    "density_cutoff": "density sums over nodes at geodesic distance >= cutoff",
}


def report_envelope(kind: str, body: dict) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "kind": kind, "conventions": CONVENTIONS}
    out.update(body)
    return out


def dump_json(obj) -> str:
    """Deterministic JSON rendering (sorted keys, stable float repr)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _cell_format(t: type) -> str:
    """``%`` code of a CSV cell of type ``t``: integers (and booleans, as 1/0)
    exactly, strings as they are, every other number to 17 significant digits."""
    if issubclass(t, int):
        return "%d"
    return "%s" if issubclass(t, str) else "%.17g"


def dump_csv(header, rows) -> str:
    """CSV text with one ``%`` operation per row; the row format is built
    once per sequence of cell types."""
    lines = [",".join(header)]
    formats: dict = {}
    for row in rows:
        row = tuple(row)
        key = tuple(map(type, row))
        f = formats.get(key)
        if f is None:
            f = formats[key] = ",".join(map(_cell_format, key))
        lines.append(f % row)
    return "\n".join(lines) + "\n"
