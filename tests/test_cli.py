import json
import struct

import numpy as np
import pytest

from llgeo import (
    EuclideanAlgebraElement,
    Grid,
    make_bp_soliton,
    make_constant,
    read_snapshot,
    write_snapshot,
)
from llgeo.cli import main
from llgeo.cocycle import cocycle_direct
from llgeo.io import format_float

from conftest import off_axis_texture
from test_dynamics import unsettle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    pairs = {}
    for line in out.strip().split("\n"):
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_no_command_prints_usage_and_fails(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_init_bp_snapshot_and_degree(tmp_path, capsys):
    out_path = tmp_path / "f.llgf"
    code, out, _ = run_cli(
        capsys, "init", "--kind", "bp", "--m", "2", "--lambda", "1.5",
        "--grid", "128x128", "--box", "16", "--cutoff", "5.5", "--out", str(out_path),
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["SNAPSHOT"] == str(out_path)
    assert abs(float(pairs["DEG"]) - 2.0) < 0.03
    field = read_snapshot(out_path)
    assert field.grid.dims == (128, 128)


def test_init_default_grid(tmp_path, capsys):
    # defaults pass through the same converters as flag values
    code, out, _ = run_cli(capsys, "init", "--kind", "bp", "--out", str(tmp_path / "x.llgf"))
    assert code == 0
    assert kv(out)["CELLS"] == "9216"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "bp", "m": 1, "grid": "48x48", "out": "ignored"}))
    out_path = tmp_path / "o.llgf"
    code, out, _ = run_cli(
        capsys, "init", "--config", str(cfg), "--m", "0", "--out", str(out_path),
        "--print-config",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["M"] == "0"            # flag beat the file
    assert pairs["GRID"] == "48x48"     # file beat the default


@pytest.mark.parametrize("argv", [
    ["init", "--out", "x.llgf"],
    ["init", "--kind", "random", "--grid", "40x48", "--box", "12.5", "--out", "x.llgf"],
    ["simulate", "--in", "a.llgf", "--out", "b", "--dt", "2.5e-4", "--report-every", "7"],
    ["diagnose", "--in", "a.llgf", "--format", "text"],
    ["bracket-check", "--in", "a.llgf"],
    ["cocycle", "--in", "a.llgf", "--e1", "0,1,0", "--e2", "0,0,1"],
    ["lift-check", "--in", "a.llgf", "--tol", "0.1"],
])
def test_print_config_echo_replays(tmp_path, capsys, argv):
    code, echo, _ = run_cli(capsys, *argv, "--print-config")
    assert code == 0
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(
        {key.lower().replace("_", "-"): value for key, value in kv(echo).items()}
    ))
    code, replay, err = run_cli(capsys, argv[0], "--config", str(cfg), "--print-config")
    assert code == 0, err
    assert replay == echo


@pytest.mark.parametrize("argv, echo", [
    (["init", "--out", "x.llgf"],
     "BOX=16.0\nCUTOFF=6.0\nGRID=96x96\nKIND=bp\nLAMBDA=1.5\nM=1\nOUT=x.llgf\nSEED=0\n"),
    (["simulate", "--in", "a.llgf", "--out", "b"],
     "A=0.0\nDT=0.001\nIN=a.llgf\nOUT=b\nREPORT_EVERY=50\nSCHEME=rk4\nSTEPS=100\n"),
    (["diagnose", "--in", "a.llgf"], "A=0.0\nFORMAT=csv\nIN=a.llgf\n"),
    (["bracket-check", "--in", "a.llgf"], "IN=a.llgf\nTOL=0.03\n"),
    (["cocycle", "--in", "a.llgf", "--e1", "0,1,0", "--e2", "0,0,1"],
     "E1=0,1,0\nE2=0,0,1\nIN=a.llgf\nTOL=0.01\n"),
    (["lift-check", "--in", "a.llgf"], "IN=a.llgf\nTOL=0.02\n"),
])
def test_print_config_echoes_every_default(capsys, argv, echo):
    # only the required options are given, so every other line is a default
    code, out, err = run_cli(capsys, *argv, "--print-config")
    assert code == 0, err
    assert out == echo


@pytest.mark.parametrize("values, argv", [
    ({"m": 1.7}, ["init", "--out", "o.llgf"]),
    ({"steps": 2.5}, ["simulate", "--in", "in.llgf", "--out", "o"]),
    ({"steps": True}, ["simulate", "--in", "in.llgf", "--out", "o"]),
    ({"out": None}, ["init"]),
    ({"in": None}, ["simulate", "--out", "o"]),
], ids=["m-1.7", "steps-2.5", "steps-true", "out-null", "in-null"])
def test_config_value_is_read_like_the_flag_text(tmp_path, capsys, monkeypatch, values, argv):
    # a file value is a JSON string or number, read as its flag's text would be:
    # --m 1.7 and --steps 2.5 are refused, so 1.7 and 2.5 are too
    monkeypatch.chdir(tmp_path)
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0), "in.llgf")
    (tmp_path / "cfg.json").write_text(json.dumps(values))
    code, out, err = run_cli(capsys, *argv, "--config", "cfg.json")
    key = next(iter(values))
    assert code == 2 and out == ""
    assert f"config error: {key}: bad value" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.llgf"]


@pytest.mark.parametrize("command", ["init", "simulate"])
def test_output_in_a_missing_directory_is_refused_before_any_field_work(
        tmp_path, capsys, monkeypatch, command):
    import llgeo.cli

    snap = tmp_path / "in.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((48, 48), 16.0), 1, 1.5, 6.0), snap)

    def no_field_work(*args, **kwargs):
        raise AssertionError("a field was built or stepped before the output check")

    monkeypatch.setattr(llgeo.cli, "make_bp_soliton", no_field_work)
    monkeypatch.setattr(llgeo.cli, "simulate", no_field_work)
    out_path = tmp_path / "missing_dir" / "run"
    argv = (["init", "--out", str(out_path)] if command == "init" else
            ["simulate", "--in", str(snap), "--out", str(out_path), "--steps", "3000"])
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("io error: out: directory") and "does not exist" in err
    assert not out_path.parent.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, out, err = run_cli(capsys, "init", "--config", str(cfg), "--out", "x.llgf")
    assert code == 2
    assert "bogus" in err


def test_bad_flag_value_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "init", "--grid", "96xABC", "--out", "x.llgf")
    assert code == 2
    assert "grid" in err
    assert err.count("grid") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_non_finite_or_non_positive_tol_is_config_error(tmp_path, capsys, tol):
    path = tmp_path / "vac.llgf"
    write_snapshot(make_constant(Grid.centered((16, 16), 8.0), (0, 0, -1)), path)
    code, out, err = run_cli(capsys, "bracket-check", "--in", str(path), "--tol", tol)
    assert code == 2
    assert "tol: must be finite and positive" in err
    assert "PASS" not in out and "FAIL" not in out


def test_non_finite_box_is_grid_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "init", "--box", "nan", "--out", str(tmp_path / "x.llgf"))
    assert code == 2
    assert "config error: grid: spacing must be finite" in err


def test_random_init_on_too_small_grid_names_the_minimum(tmp_path, capsys):
    code, _, err = run_cli(capsys, "init", "--kind", "random", "--grid", "10x10",
                           "--out", str(tmp_path / "x.llgf"))
    assert code == 2
    assert "grid 10x10 is too small" in err and "need at least 12 cells per axis" in err


@pytest.mark.parametrize("cutoff", ["nan", "0", "-3"])
def test_radial_init_bad_cutoff_is_config_error(tmp_path, capsys, cutoff):
    out_path = tmp_path / "r.llgf"
    code, out, err = run_cli(capsys, "init", "--kind", "radial", "--grid", "32x32",
                             "--cutoff", cutoff, "--out", str(out_path))
    assert code == 2
    assert "cutoff: must be finite and positive" in err
    assert "DEG" not in out and not out_path.exists()


@pytest.mark.parametrize("cutoff", ["0.01", "1e-300"])
def test_radial_init_unresolved_cutoff_is_config_error(tmp_path, capsys, cutoff):
    # the support sits between cell centres (h = 0.5): the texture would be
    # -k everywhere; 1e-300 also overflowed (r / cutoff)**2
    out_path = tmp_path / "r.llgf"
    code, out, err = run_cli(capsys, "init", "--kind", "radial", "--grid", "32x32",
                             "--cutoff", cutoff, "--out", str(out_path))
    assert code == 2
    assert "config error: cutoff:" in err and "-k on every cell" in err
    assert "DEG" not in out and not out_path.exists()


@pytest.mark.parametrize("command", ["diagnose", "bracket-check"])
def test_nan_spacing_snapshot_is_io_error(tmp_path, capsys, command):
    path = tmp_path / "nan.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((48, 48), 16.0), 1, 1.5, 6.0), path)
    blob = bytearray(path.read_bytes())
    blob[16:24] = struct.pack("<d", float("nan"))  # first spacing entry
    path.write_bytes(bytes(blob))
    code, out, err = run_cli(capsys, command, "--in", str(path))
    assert code == 3
    assert "bad grid in header" in err
    assert "BRACKET" not in out


def test_missing_input_is_io_error(capsys):
    code, _, err = run_cli(capsys, "diagnose", "--in", "/does/not/exist.llgf")
    assert code == 3


def test_diagnose_vacuum_zeros(tmp_path, capsys):
    path = tmp_path / "vac.llgf"
    write_snapshot(make_constant(Grid.centered((32, 32), 8.0), (0, 0, -1)), path)
    code, out, _ = run_cli(capsys, "diagnose", "--in", str(path), "--format", "text")
    assert code == 0
    pairs = kv(out)
    assert float(pairs["N"]) == 0.0
    assert float(pairs["E"]) == 0.0
    assert float(pairs["P_1"]) == 0.0 and float(pairs["P_2"]) == 0.0
    assert float(pairs["DEG"]) == 0.0
    # every zero prints as 0, in the text and in the CSV row: L = (m^T - m)/p
    # has no -0 on its diagonal
    assert pairs["L_12"] == "0" and "-0" not in out
    code, out, _ = run_cli(capsys, "diagnose", "--in", str(path))
    assert code == 0 and out.strip().split("\n")[1] == "0,0,0,0,0,0,0,0"


@pytest.mark.parametrize("dims", [(32, 32), (32,)], ids=["2d", "1d"])
def test_cocycle_of_a_vacuum_prints_no_negative_zero(tmp_path, capsys, dims):
    path = tmp_path / "vac.llgf"
    write_snapshot(make_constant(Grid.centered(dims, 8.0), (0, 0, -1)), path)
    e1, e2 = ("0,1,0", "0,0,1") if len(dims) == 2 else ("1", "1")
    code, out, _ = run_cli(capsys, "cocycle", "--in", str(path), "--e1", e1, "--e2", e2)
    assert code == 0
    assert kv(out)["SIGMA_DIRECT"] == "0" and kv(out)["SIGMA_PAIRING"] == "0"
    assert "-0" not in out


def test_simulate_zero_steps_header_and_row(tmp_path, capsys):
    snap = tmp_path / "in.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0), snap)
    out_prefix = tmp_path / "run"
    code, out, _ = run_cli(
        capsys, "simulate", "--in", str(snap), "--out", str(out_prefix),
        "--steps", "0",
    )
    assert code == 0
    csv_lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 2  # header plus the t = 0 row
    assert csv_lines[0].startswith("t,E,N,")
    assert (tmp_path / "run.llgf").exists()


def test_simulate_outputs_are_deterministic(tmp_path, capsys):
    snap = tmp_path / "in.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0), snap)
    outputs = []
    for name in ("r1", "r2"):
        code, _, _ = run_cli(
            capsys, "simulate", "--in", str(snap), "--out", str(tmp_path / name),
            "--steps", "20", "--dt", "1e-3", "--a", "0.4", "--report-every", "5",
        )
        assert code == 0
        outputs.append(
            ((tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.llgf").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_simulate_refuses_to_overwrite_its_input(tmp_path, capsys):
    snap = tmp_path / "run.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0), snap)
    before = snap.read_bytes()
    code, out, err = run_cli(capsys, "simulate", "--in", str(snap),
                             "--out", str(tmp_path / "run"), "--steps", "2")
    assert code == 2 and "out:" in err and "overwrite the input" in err
    assert out == "" and snap.read_bytes() == before
    assert not (tmp_path / "run.csv").exists()


def test_simulate_output_prefix_may_equal_input_path(tmp_path, capsys):
    # the outputs are a.csv and a.llgf, so neither touches the input a
    snap = tmp_path / "a"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0), snap)
    before = snap.read_bytes()
    code, out, _ = run_cli(capsys, "simulate", "--in", str(snap), "--out", str(snap),
                           "--steps", "2")
    assert code == 0 and kv(out)["REPORTS"] == "2"
    assert snap.read_bytes() == before
    assert (tmp_path / "a.csv").exists() and (tmp_path / "a.llgf").exists()


def test_simulate_midpoint_blowup_is_numeric_error(tmp_path, capsys, monkeypatch):
    # rho = 4 * (64 + 64) = 512, so dt*rho = 1.8: inside the contraction limit 2,
    # where the plain sweep did not converge in 50 iterations; the two-step
    # sweep does, so an effective field that never settles stands in for it
    unsettle(monkeypatch)
    snap = tmp_path / "in.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 4.0), 1, 0.5, 1.2), snap)
    code, _, err = run_cli(
        capsys, "simulate", "--in", str(snap), "--out", str(tmp_path / "r"),
        "--steps", "1", "--dt", str(1.8 / 512.0), "--scheme", "midpoint",
    )
    assert code == 4
    assert "midpoint did not converge in 50 iterations" in err


def test_simulate_midpoint_beyond_contraction_limit_is_config_error(tmp_path, capsys):
    # dt*rho = 2560: the midpoint used to overflow, warn and spend 50 iterations
    snap = tmp_path / "in.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 4.0), 1, 0.5, 1.2), snap)
    code, out, err = run_cli(
        capsys, "simulate", "--in", str(snap), "--out", str(tmp_path / "r"),
        "--steps", "1", "--dt", "5.0", "--scheme", "midpoint",
    )
    assert code == 2
    assert "dt*rho = 2560" in err and "use dt <= 0.003906" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("scheme", ["rk4", "midpoint"])
def test_simulate_non_finite_dt_is_config_error(tmp_path, capsys, scheme):
    # a NaN dt used to run: RK4 exited 4 at step 1, the midpoint spent its
    # 50 iterations and raised ConvergenceError
    snap = tmp_path / "in.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0), snap)
    code, _, err = run_cli(
        capsys, "simulate", "--in", str(snap), "--out", str(tmp_path / "r"),
        "--steps", "3", "--dt", "nan", "--scheme", scheme,
    )
    assert code == 2
    assert "dt: must be finite and positive, got nan" in err
    assert not (tmp_path / "r.csv").exists()


def test_simulate_rk4_beyond_stability_limit_is_config_error(tmp_path, capsys):
    # h = 1/32 gives dt*rho = 8.19 at the default dt = 1e-3; unchecked, the run
    # exits 0 with E 18 -> 3.5e4 while renormalization hides the blow-up
    init = str(tmp_path / "s.llgf")
    assert main(["init", "--kind", "bp", "--grid", "128x128", "--box", "4",
                 "--lambda", "0.4", "--cutoff", "1.2", "--out", init]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "simulate", "--in", init,
                             "--out", str(tmp_path / "run"), "--steps", "200")
    assert code == 2
    assert "dt*rho = 8.19" in err and "use dt <= 0.0003453" in err
    assert not (tmp_path / "run.csv").exists()


def test_bracket_check_degree_zero_field_is_judged_on_the_unit_degree_scale(tmp_path,
                                                                            capsys):
    # relative to 4*pi*deg ~ 1e-4 itself the error read 0.62
    snap = str(tmp_path / "r.llgf")
    assert main(["init", "--kind", "random", "--seed", "0", "--out", snap]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "bracket-check", "--in", snap)
    pairs = kv(out)
    gap = abs(float(pairs["BRACKET"]) - float(pairs["FOURPI_DEG"]))
    assert float(pairs["REL_ERR"]) == pytest.approx(gap / (4.0 * np.pi), rel=1e-12)
    assert code == 0 and out.strip().endswith("PASS")


def test_bracket_check_verdicts(tmp_path, capsys):
    snap = tmp_path / "bp.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((48, 48), 16.0), 1, 1.5, 6.0), snap)
    code, out, _ = run_cli(capsys, "bracket-check", "--in", str(snap), "--tol", "0.08")
    pairs = kv(out)
    assert code == 0 and out.strip().endswith("PASS")
    # 4*pi floor: the relative error of a field of degree below one is
    # measured on the unit-degree scale
    assert abs(float(pairs["BRACKET"]) - float(pairs["FOURPI_DEG"])) / max(
        abs(float(pairs["FOURPI_DEG"])), 4.0 * np.pi
    ) == pytest.approx(float(pairs["REL_ERR"]), rel=1e-12)

    code, out, _ = run_cli(capsys, "bracket-check", "--in", str(snap), "--tol", "1e-6")
    assert code == 1 and out.strip().endswith("FAIL")


def test_bracket_check_on_3d_snapshot_is_config_error(tmp_path, capsys):
    from llgeo import make_random_smooth

    snap = tmp_path / "s3.llgf"
    write_snapshot(make_random_smooth(Grid.centered((16, 16, 16), 12.0), seed=1), snap)
    code, out, err = run_cli(capsys, "bracket-check", "--in", str(snap))
    assert code == 2
    assert "config error:" in err and "p = 2" in err
    assert "BRACKET" not in out


def test_cocycle_subcommand(tmp_path, capsys):
    snap = tmp_path / "bp.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((64, 64), 16.0), 1, 1.5, 6.0), snap)
    code, out, _ = run_cli(
        capsys, "cocycle", "--in", str(snap), "--e1", "0,1,0", "--e2", "0,0,1",
    )
    assert code == 0
    pairs = kv(out)
    # unit translations on a degree-1 field: close to -4*pi
    assert float(pairs["SIGMA_DIRECT"]) == pytest.approx(-4.0 * np.pi, rel=0.05)
    assert float(pairs["REL_GAP"]) < 0.01
    assert out.strip().endswith("PASS")


def test_cocycle_element_with_a_leading_minus_in_the_equals_form(tmp_path, capsys):
    f = make_bp_soliton(Grid.centered((64, 64), 16.0), 1, 1.5, 6.0)
    snap = tmp_path / "bp.llgf"
    write_snapshot(f, snap)
    code, out, _ = run_cli(capsys, "cocycle", "--in", str(snap), "--e1", "0.3,1,0",
                           "--e2=-0.2,0,1")
    assert code == 0 and out.strip().endswith("PASS")
    e1 = EuclideanAlgebraElement(2, (0.3,), (1.0, 0.0))
    e2 = EuclideanAlgebraElement(2, (-0.2,), (0.0, 1.0))
    assert kv(out)["SIGMA_DIRECT"] == format_float(cocycle_direct(f, e1, e2))


def test_cocycle_refuses_a_non_decaying_field(tmp_path, capsys):
    snap = tmp_path / "off.llgf"
    write_snapshot(off_axis_texture(Grid.centered((48, 48), 16.0)), snap)
    code, out, err = run_cli(capsys, "cocycle", "--in", str(snap), "--e1", "0,1,0",
                             "--e2", "0,0,1")
    assert code == 2
    assert "config error:" in err and "requires a field decaying" in err
    assert "SIGMA_" not in out


def test_cocycle_degree_zero_field_is_judged_on_the_unit_degree_scale(tmp_path, capsys):
    # seed 11 after 200 steps: the routes differ by about 3.4e-6 on a cocycle
    # of about 1e-5; relative to the cocycle itself the gap reads 0.34
    init, run = str(tmp_path / "r.llgf"), str(tmp_path / "run")
    assert main(["init", "--kind", "random", "--seed", "11", "--grid", "96x96",
                 "--box", "16", "--out", init]) == 0
    assert main(["simulate", "--in", init, "--out", run, "--steps", "200",
                 "--report-every", "200", "--a", "0.5"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "cocycle", "--in", run + ".llgf",
                           "--e1", "0,1,0", "--e2", "0,0,1")
    pairs = kv(out)
    gap = abs(float(pairs["SIGMA_DIRECT"]) - float(pairs["SIGMA_PAIRING"]))
    assert 1e-6 < gap < 1e-5
    assert float(pairs["REL_GAP"]) == pytest.approx(gap / (4.0 * np.pi), rel=1e-12)
    assert code == 0 and out.strip().endswith("PASS")


def test_cocycle_requires_elements(tmp_path, capsys):
    snap = tmp_path / "bp.llgf"
    write_snapshot(make_constant(Grid.centered((32, 32), 8.0), (0, 0, -1)), snap)
    code, _, err = run_cli(capsys, "cocycle", "--in", str(snap))
    assert code == 2 and "e1" in err


@pytest.mark.parametrize("e1", ["nan,1,0", "0,inf,0"])
def test_cocycle_non_finite_element_is_config_error(tmp_path, capsys, e1):
    snap = tmp_path / "bp.llgf"
    write_snapshot(make_constant(Grid.centered((32, 32), 8.0), (0, 0, -1)), snap)
    code, out, err = run_cli(capsys, "cocycle", "--in", str(snap), "--e1", e1,
                             "--e2", "0,0,1")
    assert code == 2
    assert "config error: e1:" in err and "must be finite" in err
    assert "SIGMA" not in out


def test_lift_check_on_smooth_field(tmp_path, capsys):
    from llgeo import make_random_smooth

    snap = tmp_path / "s.llgf"
    write_snapshot(make_random_smooth(Grid.centered((96, 96), 16.0), seed=7, amplitude=1.8), snap)
    code, out, _ = run_cli(capsys, "lift-check", "--in", str(snap), "--tol", "0.02")
    assert code == 0
    pairs = kv(out)
    assert float(pairs["RESIDUAL"]) < 0.02
    assert pairs["SINGULAR_CELLS"] == "0"


def test_lift_check_refuses_fat_singular_set(tmp_path, capsys):
    from llgeo import make_radial_profile

    # 19.6% of the cells sit at +k, and the residual over the other cells is 0
    snap = tmp_path / "fat.llgf"
    f = make_radial_profile(Grid.centered((96, 96), 16.0),
                            lambda r: np.where(r < 4.0, np.pi, 0.0))
    write_snapshot(f, snap)
    code, out, err = run_cli(capsys, "lift-check", "--in", str(snap))
    assert code == 4
    assert "PASS" not in out and "RESIDUAL" not in out
    assert "19.57% of cells are singular" in err
