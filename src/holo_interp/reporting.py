"""Report plumbing: the convention block every artifact embeds, plus
deterministic JSON/CSV formatting (17 significant digits, sorted keys)."""

from __future__ import annotations

import json

import numpy as np

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


def dump_csv(header, columns) -> str:
    """CSV text from equally long columns, one ``%`` operation per row.

    Integer and boolean columns are written exactly (booleans as 1/0), as
    is a column of Python integers beyond int64 (numpy holds it as objects);
    other columns go to 17 significant digits.  A cell that is not a real
    number, or such an integer among other cells, raises ``TypeError``.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    row = ",".join(map(_column_format, columns))
    return "\n".join([",".join(header), *map(row.__mod__, zip(*(c.tolist() for c in columns)))]) + "\n"


def _column_format(c) -> str:
    if c.dtype.kind == "O" and any(isinstance(x, (int, np.integer, np.bool_)) for x in c.flat):
        if not all(isinstance(x, (int, np.integer, np.bool_)) for x in c.flat):
            raise TypeError("CSV column mixes integers beyond int64 with other cells")
        return "%d"
    return "%d" if c.dtype.kind in "biu" else "%.17g"
