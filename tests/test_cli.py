import json

import numpy as np
import pytest

from llgeo import Grid, make_bp_soliton, make_constant, read_snapshot, write_snapshot
from llgeo.cli import main


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


def test_simulate_midpoint_blowup_is_numeric_error(tmp_path, capsys):
    snap = tmp_path / "in.llgf"
    write_snapshot(make_bp_soliton(Grid.centered((32, 32), 4.0), 1, 0.5, 1.2), snap)
    code, _, err = run_cli(
        capsys, "simulate", "--in", str(snap), "--out", str(tmp_path / "r"),
        "--steps", "1", "--dt", "5.0", "--scheme", "midpoint",
    )
    assert code == 4
    assert "midpoint" in err


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
