import argparse
import json
import math

import numpy as np
import pytest

from holo_interp import cli

FLAT = '{"kind": "flat", "n": 1, "k": 0.0}'
DISK = '{"kind": "hyperbolic_ball", "n": 1, "kappa": 1.0}'
FOCK = '{"builtin": "fock", "alpha": 1.0}'
# sigma = z + 0.05 z^3, Phi_def = (x^2 + y^2)/2
POLY = json.dumps({
    "sigmas": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.05, 0.0]]],
    "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2, 0], "coeff": 0.5},
                                                 {"powers": [0, 2], "coeff": 0.5}]}},
    "M2": 1.0, "r0": 1.0, "mu": 1.0,
})


@pytest.fixture
def sparse_points(tmp_path):
    pts = {
        "space": {"kind": "flat", "n": 1, "k": 0.0},
        "points": [[5.0 * a, 5.0 * b] for a in range(-2, 3) for b in range(-2, 3)],
        "values": [[1.0, 0.0]] * 25,
    }
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(pts))
    return str(path)


@pytest.fixture
def disk_points(tmp_path):
    pts = {
        "space": {"kind": "hyperbolic_ball", "n": 1, "kappa": 1.0},
        "points": [[0.5, 0.0], [-0.5, 0.0]],
        "values": [[1.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "disk_pts.json"
    path.write_text(json.dumps(pts))
    return str(path)


class TestExitCodes:
    def test_passing_certificate_exits_zero(self, tmp_path, sparse_points):
        out = tmp_path / "t1.json"
        csv = tmp_path / "t1.csv"
        code = cli.run(["certify-t1", "--space", FLAT, "--weight", FOCK,
                        "--points", sparse_points, "--rho", "2", "--eps", "1",
                        "--grid=-3:3:13", "--out", str(out), "--csv", str(csv)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["worst_margin"] == pytest.approx(0.5)
        assert csv.read_text().startswith("index,re,im,required,available,margin")

    def test_failing_certificate_exits_one(self, sparse_points):
        code = cli.run(["certify-t1", "--space", FLAT, "--weight", FOCK,
                        "--points", sparse_points, "--rho", "2", "--eps", "3",
                        "--grid=-3:3:5", "--out", "/dev/null"])
        assert code == 1

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [[0, 0],\n  [1,]]}')
        code = cli.run(["separation", "--space", FLAT, "--points", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exits_two(self):
        code = cli.run(["separation", "--space", FLAT, "--points", "/nonexistent.json"])
        assert code == 2

    def test_bad_space_kind_exits_two(self, sparse_points):
        code = cli.run(["separation", "--space", '{"kind": "torus"}',
                        "--points", sparse_points])
        assert code == 2

    @pytest.mark.parametrize("kappa", ["1e200", "1e-200"])
    def test_kappa_square_beyond_normal_floats_exits_two(self, kappa, capsys):
        space = '{"kind": "hyperbolic_ball", "n": 1, "kappa": %s}' % kappa
        code = cli.run(["separation", "--space", space, "--points", '{"points": [[0.0, 0.0]]}',
                        "--out", "/dev/null"])
        assert code == 2
        assert "normal float" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", ["1e-170", "1e300"])
    def test_bergman_weight_kappa_square_beyond_normal_floats_exits_two(self, kappa, capsys):
        # the space's rule for the weight's kappa: 1e-170 raised a
        # ZeroDivisionError (exit 1) in the second-derivative bound, 1e300
        # exited 2 with a bare overflow message
        weight = '{"builtin": "bergman", "A": 4, "kappa": %s}' % kappa
        code = cli.run(["separation", "--space", FLAT, "--weight", weight,
                        "--points", '{"points": [[0.0, 0.0], [0.5, 0.0]]}', "--out", "/dev/null"])
        assert code == 2
        assert "normal float" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", [1e-100, 1e150, 2.0 ** -511])
    @pytest.mark.parametrize("command", ["certify-t1", "certify-t2", "construct"])
    def test_bergman_kappa_at_the_float_scales_raises_nothing(self, kappa, command):
        # the default m2 = 1.05 * 2A (kappa^2 + r^2) / (kappa^2 - r^2)^2 at
        # r = 0.9 kappa: the squared difference underflowed to 0 (a
        # ZeroDivisionError, exit 1) at 1e-100 and 2**-511 and overflowed
        # (an OverflowError) at 1e150; at 2**-511 the bound itself is beyond
        # the floats, an input error
        space = '{"kind": "hyperbolic_ball", "n": 1, "kappa": %r}' % kappa
        weight = '{"builtin": "bergman", "A": 4.0, "kappa": %r}' % kappa
        options = {"certify-t1": ["--rho", repr(0.5 * kappa), "--eps", "0.5"],
                   "certify-t2": ["--eps", "0.5"],
                   "construct": ["--rho", repr(0.5 * kappa), "--nr", "2", "--ntheta", "4"]}
        code = cli.run([command, "--space", space, "--weight", weight,
                        "--points", '{"points": [[0.0, 0.0]], "values": [[1.0, 0.0]]}',
                        "--grid=0:0:1", *options[command], "--out", "/dev/null"])
        if kappa == 2.0 ** -511:
            assert code == 2
        else:
            assert code in (0, 1)

    def test_conditioning_guard_exits_three(self, tmp_path, capsys):
        pts = {"points": [[0.0, 0.0], [1e-9, 0.0]], "values": [[1.0, 0.0], [1.0, 0.0]]}
        path = tmp_path / "close.json"
        path.write_text(json.dumps(pts))
        code = cli.run(["interpolate", "--weight", FOCK, "--points", str(path)])
        assert code == 3
        assert "eig_min" in capsys.readouterr().err

    def test_overflowing_interpolant_exits_three(self, capsys):
        # the solve's norm_sq overflows to NaN: no non-finite number in a report
        pts = ('{"points": [[0.0, 0.0], [2.0, 0.0]],'
               ' "values": [[1e308, 1e308], [1.0, 0.0]]}')
        code = cli.run(["interpolate", "--weight", FOCK, "--points", pts, "--out", "/dev/null"])
        assert code == 3
        assert "non-finite interpolant" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("argv", [
        ["interpolate"],
        ["construct", "--space", FLAT, "--rho", "1", "--grid=-1:1:3", "--nr", "4", "--ntheta", "8"]])
    def test_non_finite_value_exits_two(self, argv, value, capsys):
        pts = f'{{"points": [[0.0, 0.0], [3.0, 0.0]], "values": [[{value}, 0.0], [0.0, 1.0]]}}'
        code = cli.run([*argv, "--weight", FOCK, "--points", pts, "--out", "/dev/null"])
        assert code == 2
        assert "values must be finite" in capsys.readouterr().err

    def test_construct_grid_outside_disk_exits_two(self, disk_points):
        code = cli.run(["construct", "--space", DISK,
                        "--weight", '{"builtin": "bergman", "A": 3.0, "kappa": 1.0}',
                        "--points", disk_points, "--rho", "0.5", "--grid=-1:1:5",
                        "--nr", "4", "--ntheta", "8", "--out", "/dev/null"])
        assert code == 2

    @pytest.mark.parametrize("counts", [["--nr", "0"], ["--ntheta", "0"], ["--nr", "-4"]])
    def test_construct_quadrature_count_below_one_exits_two(self, sparse_points, counts, capsys):
        code = cli.run(["construct", "--space", FLAT, "--weight", FOCK,
                        "--points", sparse_points, "--rho", "1", "--grid=-1:1:3",
                        *counts, "--out", "/dev/null"])
        assert code == 2
        assert "nr >= 1 and ntheta >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_verify_geometry_without_samples_exits_two(self, samples, capsys):
        code = cli.run(["verify-geometry", "--space", DISK, "--samples", samples,
                        "--out", "/dev/null"])
        assert code == 2
        assert "--samples" in capsys.readouterr().err

    def test_interpolate_nodes_outside_the_kernel_dimension_exit_two(self, capsys):
        # the Bergman kernel lives on the disk in C^1; these nodes are in C^2
        code = cli.run(["interpolate", "--weight", '{"builtin": "bergman", "A": 4.0}',
                        "--points", '{"points": [[[0.1, 0], [0.2, 0]], [[0, 0.3], [-0.1, 0.1]]],'
                                    ' "values": [[1, 0], [0, 1]]}', "--out", "/dev/null"])
        assert code == 2
        assert "given nodes in C^2" in capsys.readouterr().err

    def test_density_node_outside_disk_exits_two(self, capsys):
        code = cli.run(["density", "--space", DISK,
                        "--points", '{"points": [[0.5, 0.0], [1.5, 0.0]]}',
                        "--grid=-0.5:0.5:3", "--out", "/dev/null"])
        assert code == 2
        assert "outside the open ball" in capsys.readouterr().err

    def test_density_grid_outside_disk_exits_two(self, disk_points, capsys):
        code = cli.run(["density", "--space", DISK, "--points", disk_points,
                        "--grid=-1:1:5", "--out", "/dev/null"])
        assert code == 2
        assert "outside the open ball" in capsys.readouterr().err

    def test_non_finite_grid_exits_two(self, sparse_points):
        code = cli.run(["certify-t1", "--space", FLAT, "--weight", FOCK,
                        "--points", sparse_points, "--rho", "2", "--eps", "1",
                        "--grid=nan:1:2", "--out", "/dev/null"])
        assert code == 2

    def test_unknown_command_exits_two(self):
        assert cli.run(["frobnicate"]) == 2

    def test_nan_frame_radius_exits_two(self, sparse_points, capsys):
        # a NaN r0 used to pass the r0 <= 0 test and leave delta0 blind to r0
        weight = '{"builtin": "fock", "alpha": 1, "r0": "nan"}'
        code = cli.run(["separation", "--space", FLAT, "--weight", weight,
                        "--points", sparse_points, "--out", "/dev/null"])
        assert code == 2
        assert "r0 must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ['"M2": "nan"', '"M2": "inf"', '"mu": "nan"',
                                       '"mu": "inf"', '"lam": "nan"'])
    def test_non_finite_frame_bound_exits_two(self, sparse_points, field, capsys):
        # "M2": "nan" used to give a passing certificate
        weight = '{"sigmas": [[[0.0, 0.0], [1.0, 0.0]]], %s}' % field
        code = cli.run(["certify-bos", "--weight", weight, "--points", sparse_points,
                        "--rho", "2", "--eps", "0.5", "--grid=-1:1:3", "--out", "/dev/null"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("n", ["1.9", "true", '"1"'])
    def test_non_integer_space_dimension_exits_two(self, sparse_points, n, capsys):
        # int() used to run these as n = 1
        code = cli.run(["separation", "--space", '{"kind": "flat", "n": %s}' % n,
                        "--points", sparse_points, "--out", "/dev/null"])
        assert code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ['{"builtin": "fock", "alpha": 1.0, "n": 1.5}',
                                        '{"builtin": "bergman", "A": 4.0, "n": 1.9}',
                                        '{"builtin": "bergman", "A": 4.0, "n": 2}'])
    @pytest.mark.parametrize("command", [["interpolate"],
                                         ["certify-t2", "--space", DISK, "--eps", "0.5",
                                          "--grid=-0.2:0.2:2"]])
    def test_weight_dimension_exits_two(self, disk_points, command, weight, capsys):
        # int() used to run n = 1.5 as 1, and the Bergman spec's n was not read
        code = cli.run([*command, "--weight", weight, "--points", disk_points,
                        "--out", "/dev/null"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("points", [
        '{"points": [["a", 1]]}',                           # non-numeric coordinate
        '{"points": [[0.1, 0.2], [0.3]]}',                  # ragged: a one-number point
        '{"points": [[0.1, 0.2]], "values": [[1]]}',        # value of the wrong length
        '{"points": [[true, 0.2]]}',                        # boolean coordinate
        '{"points": [[[0.1, 0.2, 0.3]]]}',                  # pair of the wrong length
        '{"points": [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6]]]}',  # ragged dimensions
    ])
    def test_malformed_point_file_exits_two(self, points, capsys):
        code = cli.run(["separation", "--space", '{"kind": "flat", "n": 1}', "--points", points])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["separation", "--space", FLAT],
        ["density", "--space", DISK, "--grid=-0.5:0.5:3"],
    ], ids=["separation", "density"])
    def test_coordinate_beyond_float_range_exits_two(self, argv, capsys):
        # a 401-digit integer literal has no float: OverflowError is an input error
        points = '{"points": [[1%s, 0.0], [0.5, 0.0]]}' % ("0" * 400)
        assert cli.run([*argv, "--points", points, "--out", "/dev/null"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    T2_DENSITY = ["certify-t2", "--space", DISK,
                  "--weight", '{"builtin": "bergman", "A": 4.0, "kappa": 1.0}',
                  "--eps", "0.5", "--grid=-0.25:0.25:3,0:0:1", "--density-threshold", "0.1"]

    def test_t2_density_clause_fails_at_default_cutoff(self, disk_points):
        # the reproducer below is a failing certificate when the cutoff is a number
        assert cli.run([*self.T2_DENSITY, "--points", disk_points, "--out", "/dev/null"]) == 1

    def test_t2_threshold_below_density_sup_exits_one(self, tmp_path, disk_points):
        # the grid-sup 2 log 4 at the origin against the threshold 2
        out = tmp_path / "t2.json"
        code = cli.run([*self.T2_DENSITY[:-1], "2", "--points", disk_points, "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["worst_margin"] == -0.7725887222397811

    @pytest.mark.parametrize("threshold", ["-inf", "nan"])
    def test_t2_threshold_no_density_meets_exits_two(self, threshold, disk_points, capsys):
        # -inf once dropped out as "no threshold" and passed with exit 0
        argv = [*self.T2_DENSITY[:-2], f"--density-threshold={threshold}"]
        assert cli.run([*argv, "--points", disk_points, "--out", "/dev/null"]) == 2
        assert "density threshold must be" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        T2_DENSITY,
        ["density", "--space", DISK, "--grid=-0.25:0.25:3,0:0:1"],
    ], ids=["certify-t2", "density"])
    def test_non_finite_cutoff_exits_two(self, argv, cutoff, disk_points, capsys):
        # a NaN cutoff excluded every node: density 0, a passing t2 and a
        # JSON NaN token in the report
        code = cli.run([*argv, "--points", disk_points, f"--cutoff={cutoff}", "--out", "/dev/null"])
        assert code == 2
        assert "density cutoff must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        T2_DENSITY,
        ["density", "--space", DISK, "--grid=-0.25:0.25:3,0:0:1"],
    ], ids=["certify-t2", "density"])
    def test_nan_cutoff_with_empty_set_exits_two(self, argv, tmp_path):
        pts = tmp_path / "empty.json"
        pts.write_text('{"points": []}')
        assert cli.run([*argv, "--points", str(pts), "--cutoff=nan", "--out", "/dev/null"]) == 2

    @pytest.mark.parametrize("args", [
        ["--spacings", "1", "--radius", "inf"],
        ["--spacings", "1", "--radius", "nan"],
        ["--spacings", "inf", "--radius", "6"],
        ["--spacings", "4,3", "--radius", "6", "--extra-radii", "inf"],
        ["--spacings", "4,3", "--radius", "6", "--extra-radii", "nan"],
    ])
    def test_sweep_non_finite_lattice_exits_two(self, args, capsys):
        code = cli.run(["sweep", "--weight", FOCK, *args, "--out", "/dev/null"])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["--spacings", ",", "--radius", "4"], "at least one spacing, got []"),
        (["--spacings", "2", "--radius", "4", "--extra-radii", "-1"], "got -1.0"),
        (["--spacings", "2", "--radius", "-1"], "got -1.0"),
    ], ids=["no_spacing", "negative_extra_radius", "negative_radius"])
    def test_sweep_that_checks_nothing_exits_two(self, args, message, capsys):
        code = cli.run(["sweep", "--weight", FOCK, *args, "--out", "/dev/null"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        # sigmas in C^1 with a deformation in C^2: the (..., 2, 2) ddbar
        # broadcast onto the (..., 1, 1) sigma term and the certificate passed
        {"phi_def": {"real_poly": {"n": 2, "terms": [{"powers": [2, 0, 0, 0], "coeff": 1}]}}},
        {"n": 2},
        {"n": 1, "phi_def": {"real_poly": {"n": 2, "terms": []}}},
    ], ids=["deformation", "spec_n", "spec_n_and_deformation"])
    def test_weight_dimensions_that_disagree_exit_two(self, sparse_points, spec, capsys):
        weight = json.dumps(dict({"sigmas": [[[0, 0], [1, 0]]]}, **spec))
        code = cli.run(["certify-bos", "--weight", weight, "--points", sparse_points,
                        "--rho", "1", "--eps", "0.5", "--grid=-1:1:2", "--out", "/dev/null"])
        assert code == 2
        assert "disagree on the dimension" in capsys.readouterr().err

    #: a valid argv of each command with a float option
    FLOAT_OPTION_ARGV = {
        "density": ["--space", DISK, "--grid=-0.2:0.2:2"],
        "certify-bos": ["--weight", FOCK, "--rho", "2", "--eps", "1", "--grid=-1:1:2"],
        "certify-t1": ["--space", FLAT, "--weight", FOCK, "--rho", "2", "--eps", "1",
                       "--grid=-1:1:2"],
        "certify-t2": ["--space", DISK, "--weight", '{"builtin": "bergman", "A": 4.0}',
                       "--eps", "0.5", "--grid=-0.2:0.2:2", "--density-threshold", "50"],
        "construct": ["--space", FLAT, "--weight", FOCK, "--rho", "1", "--grid=-1:1:3",
                      "--nr", "2", "--ntheta", "4"],
        "sweep": ["--weight", FOCK, "--spacings", "3", "--radius", "2"],
    }

    @staticmethod
    def float_options():
        """``(command, option)`` for every ``type=float`` option of the parser."""
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return [(name, action.option_strings[0]) for name, p in sub.choices.items()
                for action in p._actions if action.type is float]

    def test_every_float_option_is_listed(self):
        assert sorted({name for name, _ in self.float_options()}) == sorted(self.FLOAT_OPTION_ARGV)
        assert len(self.float_options()) == 11

    @pytest.mark.parametrize("command,option", float_options.__func__())
    def test_nan_float_option_exits_two(self, command, option, tmp_path):
        # construct --rho nan used to exit 0 and write "rho": NaN
        pts = tmp_path / "pts.json"
        pts.write_text('{"points": [[0.5, 0.0], [-0.5, 0.0]], "values": [[1, 0], [0, 1]]}')
        argv = [command, *self.FLOAT_OPTION_ARGV[command], "--out", "/dev/null"]
        if command != "sweep":
            argv += ["--points", str(pts)]
        assert cli.run(argv) in (0, 1)
        assert cli.run([*argv, f"{option}=nan"]) == 2

    @pytest.mark.parametrize("bad", ["null", "true", "[1.0]", '{"v": 1.0}', '"one"'])
    @pytest.mark.parametrize("argv,field", [
        (["interpolate", "--weight", '{"builtin": "fock", "alpha": %s}'], "alpha"),
        (["interpolate", "--weight", '{"builtin": "bergman", "A": 2.0, "kappa": %s}'], "kappa"),
        (["separation", "--weight", '{"builtin": "fock", "r0": %s}', "--space", FLAT], "r0"),
        (["separation", "--space", '{"kind": "hyperbolic_ball", "n": 1, "kappa": %s}'], "kappa"),
        (["separation", "--space", '{"kind": "hyperbolic_ball", "n": 1, "kappa": 1, "k": %s}'],
         "k"),
    ], ids=["kernel_alpha", "kernel_kappa", "weight_r0", "space_kappa", "space_k"])
    def test_non_numeric_spec_field_exits_two(self, argv, field, bad, capsys):
        # "alpha": null ended in a TypeError traceback and "kappa": true ran
        # as kappa = 1
        argv = [a % bad if "%s" in a else a for a in argv]
        pts = '{"points": [[0.5, 0.0], [-0.5, 0.0]], "values": [[1, 0], [0, 1]]}'
        assert cli.run([*argv, "--points", pts, "--out", "/dev/null"]) == 2
        assert f"spec field {field!r} must be a number" in capsys.readouterr().err

    def test_zero_kappa_without_k_exits_two(self, capsys):
        # 1 / kappa used to raise ZeroDivisionError before the space check
        code = cli.run(["separation", "--space", '{"kind": "hyperbolic_ball", "n": 1, "kappa": 0}',
                        "--points", '{"points": [[0.0, 0.0]]}', "--out", "/dev/null"])
        assert code == 2
        assert "normal float" in capsys.readouterr().err

    #: a valid argv of each command less one JSON option it needs, and that option
    MISSING_OPTION_ARGV = {
        "separation": (["--space", FLAT], "--points"),
        "density": (["--space", DISK, "--grid=-0.2:0.2:2"], "--points"),
        "certify-bos": (["--points", '{"points": [[0.0, 0.0]]}', "--rho", "2", "--eps", "1",
                         "--grid=-1:1:2"], "--weight"),
        "certify-t1": (["--space", FLAT, "--points", '{"points": [[0.0, 0.0]]}', "--rho", "2",
                        "--eps", "1", "--grid=-1:1:2"], "--weight"),
        "certify-t2": (["--space", DISK, "--points", '{"points": [[0.0, 0.0]]}', "--eps", "0.5",
                        "--grid=-0.2:0.2:2"], "--weight"),
        "construct": (["--space", FLAT, "--points",
                       '{"points": [[0.0, 0.0]], "values": [[1.0, 0.0]]}', "--rho", "1",
                       "--grid=-1:1:3"], "--weight"),
        "interpolate": (["--points", '{"points": [[0.0, 0.0]], "values": [[1.0, 0.0]]}'],
                        "--weight"),
        "sweep": (["--spacings", "3", "--radius", "2"], "--weight"),
        "verify-geometry": ([], "--space"),
    }

    @pytest.mark.parametrize("command", sorted(MISSING_OPTION_ARGV))
    def test_missing_json_option_exits_two(self, command, capsys):
        # interpolate and sweep without --weight raised an AttributeError
        argv, option = self.MISSING_OPTION_ARGV[command]
        assert cli.run([command, *argv, "--out", "/dev/null"]) == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("command,option,spec", [
        ("interpolate", "--weight", [1]),
        ("certify-bos", "--weight", [1]),
        ("separation", "--space", [1]),
        ("certify-bos", "--weight", {"phi_def": {"real_poly": [1]}}),
        ("certify-bos", "--weight", {"sigmas": [[1]]}),
        ("certify-bos", "--weight", {"sigmas": 5}),
        ("certify-bos", "--weight", {"sigmas": ["ab"]}),
        ("certify-bos", "--weight", {"phi_def": "x"}),
        ("certify-bos", "--weight", {"sigmas": [[["1", 0]]]}),
    ], ids=["interpolate_list", "weight_list", "space_list", "real_poly_list", "sigma_term",
            "sigmas_number", "sigma_string", "phi_def_string", "sigma_string_coefficient"])
    def test_spec_that_is_not_an_object_exits_two(self, command, option, spec, tmp_path,
                                                   capsys):
        # each raised an AttributeError or a TypeError out of cli.run
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = {"interpolate": ["--points", '{"points": [[0.0, 0.0]], "values": [[1.0, 0.0]]}'],
                "certify-bos": ["--points", '{"points": [[0.0, 0.0]]}', "--rho", "2",
                                "--eps", "1", "--grid=-1:1:2"],
                "separation": ["--points", '{"points": [[0.0, 0.0]]}']}[command]
        assert cli.run([command, option, str(path), *argv, "--out", "/dev/null"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,message", [
        ({"sigmas": [[[True, 0], [1, 0]]]}, "sigma coefficient"),
        ({"sigmas": [[[1, 0, 5], [1, 0]]]}, "sigma coefficient"),
        ({"sigmas": [{"n": 1, "terms": [{"powers": [1.9], "coeff": [1, 0]}]}]}, "power"),
        ({"sigmas": [{"n": 1, "terms": [{"powers": [True], "coeff": [1, 0]}]}]}, "power"),
        ({"sigmas": [[[0, 0], [1, 0]]],
          "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2.5, 0], "coeff": 1}]}}},
         "power"),
        ({"sigmas": [[[0, 0], [1, 0]]],
          "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2, 0], "coeff": True}]}}},
         "'coeff' must be a number"),
        ({"sigmas": [[[0, 0], [1, 0]]],
          "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2, 0], "coeff": "nan"}]}}},
         "must be finite"),
    ], ids=["bool_coefficient", "three_entry_coefficient", "fractional_power", "bool_power",
            "fractional_real_power", "bool_real_coefficient", "nan_real_coefficient"])
    def test_polynomial_spec_read_as_another_weight_exits_two(self, spec, message, capsys):
        # the first six exited 0 with the margins of an altered weight
        # (true as 1, the 5 dropped, int() of each power); "nan" exited 3
        code = cli.run(["certify-bos", "--weight", json.dumps(spec),
                        "--points", '{"points": [[0.0, 0.0]]}', "--rho", "2", "--eps", "1",
                        "--grid=-1:1:2", "--out", "/dev/null"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_integral_float_power_accepted(self):
        spec = {"sigmas": [{"n": 1, "terms": [{"powers": [1.0], "coeff": [1, 0]}]}],
                "phi_def": {"real_poly": {"n": 1, "terms": [{"powers": [2.0, 0], "coeff": 0.5}]}}}
        code = cli.run(["certify-bos", "--weight", json.dumps(spec),
                        "--points", '{"points": [[0.0, 0.0]]}', "--rho", "2", "--eps", "1",
                        "--grid=-1:1:2", "--out", "/dev/null"])
        assert code == 0

    @pytest.mark.parametrize("kappa", [1e103, 1e110, 1e150])
    def test_construct_at_a_large_bergman_kappa_exits_zero(self, kappa, tmp_path):
        # (z - p)(kappa^2 - conj(p) z) overflowed from about 1e103: exit 3
        out = tmp_path / "construct.json"
        code = cli.run(["construct",
                        "--space", '{"kind": "hyperbolic_ball", "n": 1, "kappa": %r}' % kappa,
                        "--weight", '{"builtin": "bergman", "A": 4.0, "kappa": %r}' % kappa,
                        "--points", '{"points": [[0.0, 0.0]], "values": [[1.0, 0.0]]}',
                        "--rho", repr(0.5 * kappa), "--grid=0:0:1", "--nr", "4", "--ntheta", "8",
                        "--out", str(out)])
        assert code == 0
        energy = json.loads(out.read_text())["energy"]
        assert 0.0 < energy["energy"] < math.inf and math.isfinite(energy["refined_energy"])


class TestJsonArguments:
    @pytest.mark.parametrize("argv", [
        ["separation"],
        ["density", "--grid=-0.5:0.5:3"],
    ])
    def test_point_file_decoded_once_without_space(self, argv, disk_points, monkeypatch):
        # the point file carries the space, so it is read for both
        text = open(disk_points, encoding="utf-8").read()
        decoded = []
        real_loads = json.loads

        def counting_loads(s, *a, **kw):
            decoded.append(s)
            return real_loads(s, *a, **kw)

        monkeypatch.setattr(cli.json, "loads", counting_loads)
        assert cli.run(argv + ["--points", disk_points, "--out", "/dev/null"]) == 0
        assert decoded.count(text) == 1


class TestParser:
    def test_consecutive_runs_share_no_state(self, sparse_points, monkeypatch):
        seen = []
        real_map_fn = cli._map_fn

        def recording_map_fn(args):
            seen.append(args.threads)
            return real_map_fn(args)

        monkeypatch.setattr(cli, "_map_fn", recording_map_fn)
        argv = ["certify-bos", "--weight", FOCK, "--points", sparse_points, "--rho", "2",
                "--eps", "1", "--grid=-3:3:5", "--out", "/dev/null"]
        assert cli.run(argv + ["--threads", "4"]) == 0
        assert cli.run(argv) == 0
        assert seen == [4, None]

    def test_bad_argv_then_valid_call(self, sparse_points, capsys):
        assert cli.run(["separation", "--space", FLAT, "--bogus"]) == 2
        assert cli.run(["certify-bos", "--weight", FOCK, "--rho", "2"]) == 2
        assert cli.run(["separation", "--space", FLAT, "--points", sparse_points,
                        "--out", "/dev/null"]) == 0

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert cli.run(["construct", "--help"]) == 0
        assert "usage: holo-interp" in capsys.readouterr().out

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestCommands:
    def test_separation(self, tmp_path, sparse_points):
        out = tmp_path / "sep.json"
        code = cli.run(["separation", "--points", sparse_points, "--weight", FOCK,
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["min_pairwise_distance"] == 5.0
        assert rep["delta0"] == 0.5
        assert rep["conventions"]["ball_openness"].startswith("ball counts")

    @pytest.mark.parametrize("space", [FLAT, DISK])
    def test_separation_of_nodes_1e_200_apart(self, tmp_path, space):
        out = tmp_path / "sep.json"
        code = cli.run(["separation", "--space", space, "--out", str(out),
                        "--points", '{"points": [[1e-200, 0.0], [2e-200, 0.0]]}'])
        assert code == 0
        # the disk's conformal factor at the origin is 2
        scale = 1.0 if space == FLAT else 2.0
        assert json.loads(out.read_text())["min_pairwise_distance"] == scale * 1e-200
        assert '"min_pairwise_distance": %r' % (scale * 1e-200) in out.read_text()

    def test_density_empty_set(self, tmp_path):
        pts = tmp_path / "empty.json"
        pts.write_text(json.dumps({"space": json.loads(DISK), "points": []}))
        out = tmp_path / "density.json"
        code = cli.run(["density", "--points", str(pts), "--grid=-0.5:0.5:5",
                        "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["grid_sup"] == 0.0

    def test_density_with_nodes(self, tmp_path, disk_points):
        out = tmp_path / "d.json"
        csv = tmp_path / "d.csv"
        code = cli.run(["density", "--points", disk_points, "--grid=-0.2:0.2:3",
                        "--out", str(out), "--csv", str(csv)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["grid_sup"] > 0
        assert csv.read_text().startswith("index,re,im,density")

    def test_certify_bos(self, tmp_path, sparse_points):
        code = cli.run(["certify-bos", "--weight", FOCK, "--points", sparse_points,
                        "--rho", "2", "--eps", "3", "--grid=-3:3:7", "--out", "/dev/null"])
        assert code == 0

    def test_certify_t2(self, tmp_path, disk_points):
        out = tmp_path / "t2.json"
        code = cli.run(["certify-t2", "--space", DISK,
                        "--weight", '{"builtin": "bergman", "A": 4.0, "kappa": 1.0}',
                        "--points", disk_points, "--eps", "0.5", "--grid=-0.2:0.2:3",
                        "--density-threshold", "50", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["density_grid_sup"] > 0

    def test_construct(self, tmp_path, sparse_points):
        out = tmp_path / "c.json"
        csv = tmp_path / "c.csv"
        code = cli.run(["construct", "--space", FLAT, "--weight", FOCK,
                        "--points", sparse_points, "--rho", "2", "--grid=-6:6:5",
                        "--nr", "8", "--ntheta", "16", "--out", str(out), "--csv", str(csv)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["energy"]["relative_drift"] <= 0.05
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "index,re,im,F_re,F_im"
        assert len(lines) == 26

    def test_interpolate(self, tmp_path, sparse_points):
        out = tmp_path / "itp.json"
        code = cli.run(["interpolate", "--weight", FOCK, "--points", sparse_points,
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["max_residual"] <= 1e-10
        assert rep["warnings"] == []
        assert len(rep["coefficients"]) == 25

    def test_interpolate_warns_on_raw_residual(self, tmp_path):
        # spacing-2 lattice out to R = 10: the raw residual |f(p) - a| grows
        # with e^{|p|^2/2} while the weighted one stays at rounding level
        pts = {"points": [[2.0 * a, 2.0 * b] for a in range(-5, 6) for b in range(-5, 6)
                          if a * a + b * b <= 25],
               "values": [[math.cos(k), math.sin(k)] for k in range(81)]}
        path = tmp_path / "graded.json"
        path.write_text(json.dumps(pts))
        out = tmp_path / "itp.json"
        code = cli.run(["interpolate", "--weight", FOCK, "--points", str(path),
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["max_residual"] > 1e-10
        assert rep["max_weighted_residual"] <= 1e-14
        assert len(rep["warnings"]) == 1 and "raw nodal residual" in rep["warnings"][0]

    def test_interpolate_reads_the_residual_from_the_solve(self, tmp_path, sparse_points,
                                                            monkeypatch):
        from holo_interp import rkhs
        calls = []
        real = rkhs.KernelSpace.log_kernel

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rkhs.KernelSpace, "log_kernel", counting)
        out = tmp_path / "itp.json"
        code = cli.run(["interpolate", "--weight", FOCK, "--points", sparse_points,
                        "--out", str(out)])
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out.read_text())["max_residual"] <= 1e-10

    def test_interpolate_warns_on_double_long_double(self, tmp_path, sparse_points,
                                                      monkeypatch):
        from holo_interp import rkhs
        monkeypatch.setattr(rkhs, "LONGDOUBLE_MANTISSA", 52)
        out = tmp_path / "itp.json"
        code = cli.run(["interpolate", "--weight", FOCK, "--points", sparse_points,
                        "--out", str(out)])
        assert code == 0
        warnings = json.loads(out.read_text())["warnings"]
        assert len(warnings) == 1 and "52 mantissa bits" in warnings[0]

    @pytest.mark.parametrize("weight", ['{"builtin": "fock", "alpha": NaN}',
                                        '{"builtin": "fock", "alpha": Infinity}',
                                        '{"builtin": "bergman", "A": NaN}',
                                        '{"builtin": "bergman", "A": 1.0, "kappa": Infinity}'])
    def test_interpolate_non_finite_kernel_refused(self, weight, sparse_points, capsys):
        assert cli.run(["interpolate", "--weight", weight, "--points", sparse_points]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.json"
        csv = tmp_path / "sweep.csv"
        code = cli.run(["sweep", "--weight", FOCK, "--spacings", "4,3",
                        "--radius", "6", "--out", str(out), "--csv", str(csv)])
        assert code == 0
        assert json.loads(out.read_text())["monotone_in_spacing"] is True
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "s,eig_min,eig_max,R,n_points"
        assert len(lines) == 3

    def test_verify_geometry(self, tmp_path):
        for space in (FLAT, DISK):
            code = cli.run(["verify-geometry", "--space", space, "--samples", "10",
                            "--out", str(tmp_path / "vg.json")])
            assert code == 0


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path, sparse_points):
        outputs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{tag}.json"
            csv = tmp_path / f"{tag}.csv"
            code = cli.run(["certify-t1", "--space", FLAT, "--weight", FOCK,
                            "--points", sparse_points, "--rho", "2", "--eps", "1",
                            "--grid=-3:3:9", "--threads", threads,
                            "--out", str(out), "--csv", str(csv)])
            assert code == 0
            outputs.append((out.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_construct_disk_byte_identical_across_threads(self, tmp_path, disk_points):
        outputs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{tag}.json"
            csv = tmp_path / f"{tag}.csv"
            code = cli.run(["construct", "--space", DISK,
                            "--weight", '{"builtin": "bergman", "A": 3.0, "kappa": 1.0}',
                            "--points", disk_points, "--rho", "0.5", "--grid=-0.5:0.5:5",
                            "--nr", "8", "--ntheta", "16", "--threads", threads,
                            "--out", str(out), "--csv", str(csv)])
            assert code == 0
            outputs.append((out.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]
        rows = [line.split(",") for line in outputs[0][1].decode().strip().split("\n")[1:]]
        assert len(rows) == 25
        # the nodes +-0.5 sit on the grid, where F reproduces the values
        at = {(float(r[1]), float(r[2])): (float(r[3]), float(r[4])) for r in rows}
        assert at[(0.5, 0.0)] == (1.0, 0.0) and at[(-0.5, 0.0)] == (0.0, 1.0)

    @pytest.mark.parametrize("argv", [
        ["certify-t1", "--space", DISK, "--weight", POLY, "--rho", "0.5", "--eps", "0.1",
         "--grid=-0.6:0.6:7"],
        ["certify-bos", "--weight", POLY, "--rho", "0.5", "--eps", "0.1", "--grid=-0.6:0.6:7"],
        ["certify-t2", "--space", DISK, "--eps", "0.5", "--grid=-0.6:0.6:7",
         "--weight", '{"builtin": "bergman", "A": 4.0, "kappa": 1.0}'],
        ["density", "--space", DISK, "--grid=-0.6:0.6:7"],
    ])
    def test_certificates_byte_identical_across_threads(self, tmp_path, disk_points, argv):
        outputs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{tag}.json"
            csv = tmp_path / f"{tag}.csv"
            code = cli.run(argv + ["--points", disk_points, "--threads", threads,
                                   "--out", str(out), "--csv", str(csv)])
            assert code in (0, 1)
            outputs.append((out.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1].decode().strip().split("\n")) == 50

    def test_threads_env_fallback(self, tmp_path, sparse_points, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        out = tmp_path / "env.json"
        code = cli.run(["certify-t1", "--space", FLAT, "--weight", FOCK,
                        "--points", sparse_points, "--rho", "2", "--eps", "1",
                        "--grid=-3:3:9", "--out", str(out)])
        assert code == 0
