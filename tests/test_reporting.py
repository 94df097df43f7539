import math

import numpy as np
import pytest

from holo_interp import reporting


def per_cell_csv(header, rows):
    """CSV rendering one cell at a time, as ``dump_csv`` formatted before it
    took one ``%`` operation per row; kept as the reference."""
    def cell(x):
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")

    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"


COLUMNS = [
    [0, -7, 2 ** 40, 12, 3, 0, 1, 5],
    [0, -7, 2 ** 70, -2 ** 70, True, np.int64(-3), np.bool_(False), 5],
    [True, False, True, True, False, False, True, False],
    np.array([-3, 2 ** 62 + 1, 9, 0, -1, 7, 2 ** 63 - 1, -2 ** 63], np.int64),
    np.array([200, 0, 1, 255, 2, 3, 4, 5], np.uint8),
    np.array([True, False] * 4),
    np.array([0.1, 1 / 3, -2.5, 1e30, -0.0, 7.0, 1e-40, 3.4e38], np.float32),
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, -1.5e-300],
    np.array([0.1, 1 / 3, 123456789012345678.0, -1e-300, 2.0, math.inf, math.nan, -0.0]),
]


class TestDumpCsv:
    def test_equals_per_cell_rendering(self):
        header = [f"c{j}" for j in range(len(COLUMNS))]
        for shift in range(len(COLUMNS)):
            columns = COLUMNS[shift:] + COLUMNS[:shift]
            assert reporting.dump_csv(header, columns) == per_cell_csv(header, zip(*columns))

    def test_every_cell_alone_and_empty_rows(self):
        for column in COLUMNS:
            for c in column:
                assert reporting.dump_csv(["x"], [[c]]) == per_cell_csv(["x"], [[c]])
        assert reporting.dump_csv(["x", "y"], [[], np.zeros(0)]) == "x,y\n"
        assert reporting.dump_csv(["x", "y"], [[], []]) == per_cell_csv(["x", "y"], zip([], []))
        assert reporting.dump_csv([], []) == per_cell_csv([], [])

    def test_numpy_rows(self):
        rows = np.array([[1.0, -0.0, np.nan], [np.inf, 5e-324, 1e300]])
        assert reporting.dump_csv(["a", "b", "c"], rows.T) == per_cell_csv(["a", "b", "c"], rows)

    def test_non_numbers_still_refused(self):
        for bad in (None, 1j, [1.0], "label"):
            with pytest.raises(TypeError):
                reporting.dump_csv(["x"], [[bad]])

    def test_integers_beyond_int64_exact(self):
        text = reporting.dump_csv(["x", "y"], [[2 ** 70], [0.1]])
        assert text == "x,y\n1180591620717411303424,0.10000000000000001\n"
        with pytest.raises(TypeError, match="mixes integers"):
            reporting.dump_csv(["x"], [[2 ** 70, 1.5]])

    def test_unequal_columns_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            reporting.dump_csv(["x", "y"], [[1, 2], [1.0]])
