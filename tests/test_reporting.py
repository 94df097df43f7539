import math

import numpy as np
import pytest

from holo_interp import reporting


def per_cell_csv(header, rows):
    """CSV rendering one cell at a time, as ``dump_csv`` formatted before it
    took one ``%`` operation per row; kept as the reference."""
    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, bool):
            return "1" if x else "0"
        if isinstance(x, int):
            return str(x)
        return format(float(x), ".17g")

    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"


CELLS = [True, False, 0, -7, 2 ** 70, np.int64(-3), np.int64(2 ** 62 + 1), np.int32(9),
         np.uint8(200), np.bool_(True), 0.1, np.float64(1 / 3), np.float32(0.1), math.inf,
         -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, -1.5e-300, 123456789012345678.0,
         "label", "", "a%sb%d", np.str_("np")]


class TestDumpCsv:
    def test_equals_per_cell_rendering(self):
        header = ["i", "a", "b", "c"]
        rows = [[i, CELLS[i], CELLS[-1 - i], CELLS[(3 * i) % len(CELLS)]] for i in range(len(CELLS))]
        rows += [tuple(r) for r in rows]
        assert reporting.dump_csv(header, rows) == per_cell_csv(header, rows)

    def test_every_cell_alone_and_empty_rows(self):
        for c in CELLS:
            assert reporting.dump_csv(["x"], [[c]]) == per_cell_csv(["x"], [[c]])
        assert reporting.dump_csv(["x"], []) == "x\n"
        assert reporting.dump_csv([], [[]]) == per_cell_csv([], [[]])

    def test_numpy_rows(self):
        rows = np.array([[1.0, -0.0, np.nan], [np.inf, 5e-324, 1e300]])
        assert reporting.dump_csv(["a", "b", "c"], rows) == per_cell_csv(["a", "b", "c"], rows)

    def test_non_numbers_still_refused(self):
        for bad in (None, 1j, [1.0]):
            with pytest.raises(TypeError):
                reporting.dump_csv(["x"], [[bad]])
