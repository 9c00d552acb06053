"""Command-line surface: one binary, six subcommands.

  init           build an initial condition and write a snapshot
  simulate       advance a snapshot, writing a time-series CSV + final snapshot
  diagnose       one MomentumReport row for a snapshot
  bracket-check  {P_x,P_y} against 4*pi*deg with a PASS/FAIL verdict
  cocycle        both cocycle routes for a snapshot + two algebra elements
  lift-check     residual of the rotation-lift derivative identity

Each subcommand is one `_COMMANDS` entry: its handler and its options with
their defaults, None marking a required option.  `_convert` is the one rule
that reads a default, a `--config` value or a flag: a string or a number,
read as the flag's text would be, choices included.  A handler reads its
`--in` snapshot itself and returns its KEY=VALUE lines; the three checks
also return the value judged against `--tol`, and `run` prints the lines,
then TOL= and PASS/FAIL.

All outputs are line-oriented KEY=VALUE (diagnose can also emit a CSV row).
Exit codes: 0 ok / PASS, 1 FAIL verdict, 2 config error, 3 io error,
4 numeric error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, NumericsError, SnapshotError
from .grid import Grid
from .fields import K_AXIS, EuclideanAlgebraElement, SpinField, plane_pairs
from .generators import (bump, make_bp_soliton, make_constant, make_radial_profile,
                         make_random_smooth)
from .dynamics import EnergyParams, SimConfig, make_report, simulate
from .momenta import check_lift_identity, degree, lift_singular_mask
from .cocycle import check_px_py_bracket, cocycle_direct, cocycle_via_pairing, omega0
from . import io as snapio


def _grid(text):
    try:
        return tuple(int(tok) for tok in text.lower().split("x"))
    except ValueError:
        raise ValueError("want e.g. 96x96") from None


def _echo(value):
    """Option value as --print-config shows it: the form the flags accept."""
    return "x".join(map(str, value)) if isinstance(value, tuple) else value


def _parse_algebra(key, text, p):
    try:
        vals = [float(tok) for tok in text.split(",")]
        n_upper = len(plane_pairs(p))
        if len(vals) != n_upper + p:
            raise ValueError(f"algebra element needs {n_upper} upper-triangle entries "
                             f"plus {p} translation entries")
        return EuclideanAlgebraElement(p, vals[:n_upper], vals[n_upper:])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


# option -> converter of the flag's text, or the tuple of its choices
_CONVERT = {
    "grid": _grid, "box": float, "kind": ("constant", "bp", "radial", "random"),
    "m": int, "lambda": float, "cutoff": float, "seed": int, "out": str, "in": str,
    "a": float, "dt": float, "steps": int, "scheme": ("rk4", "midpoint"),
    "report-every": int, "format": ("csv", "text"), "e1": str, "e2": str, "tol": float,
}

_HELP = {key: f"so(p) entries of the planes i < j in row order, then the p translation "
              f"entries, comma-separated; write --{key}=-0.2,0,1 if the first is negative"
         for key in ("e1", "e2")}


class RunConfig(dict):
    """The resolved options of one subcommand; cfg[key] reads an option."""

    def __init__(self, command, options):
        super().__init__(options)
        self.command = command


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="llgeo", description="Landau-Lifshitz simulation and momentum-map diagnostics")
    sub = parser.add_subparsers(dest="command")
    for command, (_, options) in _COMMANDS.items():
        cp = sub.add_parser(command)
        cp.add_argument("--config", help="JSON file with option defaults")
        cp.add_argument("--print-config", action="store_true",
                        help="echo the resolved configuration and exit")
        for key in options:
            choices = _CONVERT[key] if isinstance(_CONVERT[key], tuple) else None
            cp.add_argument(f"--{key}", choices=choices, help=_HELP.get(key))
    return parser


def parse_config(argv):
    """argv -> RunConfig.  Defaults, then file values, then explicit flags,
    each read by `_convert`; unknown file keys are rejected."""
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    command = args["command"]
    if command is None:
        parser.print_usage(sys.stderr)
        raise SystemExit(2)
    options = _COMMANDS[command][1]
    resolved = {key: None if default is None else _convert(key, default)
                for key, default in options.items()}

    if args["config"]:
        try:
            with open(args["config"]) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise SnapshotError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in options:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            resolved[key] = _convert(key, value)

    for key in options:
        flag = args[key.replace("-", "_")]
        if flag is not None:
            resolved[key] = _convert(key, flag)

    cfg = RunConfig(command, resolved)
    _validate(cfg)
    if args["print_config"]:
        for key in sorted(resolved):
            print(f"{key.upper().replace('-', '_')}={_echo(resolved[key])}")
        raise SystemExit(0)
    return cfg


def _convert(key, value):
    """The one rule for defaults, --config values and flags: a string or a
    number, read as the flag's text would be, with the choices checked."""
    conv = _CONVERT[key]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{key}: bad value {value!r} (want a string or a number)")
    text = str(value)
    if isinstance(conv, tuple):
        if text not in conv:
            raise ConfigError(f"{key}: must be one of {', '.join(conv)}")
        return text
    try:
        return conv(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: bad value {value!r} ({exc})") from exc


def _validate(cfg):
    for key, value in cfg.items():
        if value is None:
            raise ConfigError(f"{key}: {cfg.command} needs --{key}")
    if cfg.command == "init" and cfg["kind"] == "radial" and not (
            np.isfinite(cfg["cutoff"]) and cfg["cutoff"] > 0):
        raise ConfigError(f"cutoff: must be finite and positive, got {cfg['cutoff']}")
    if cfg.command == "simulate" and os.path.realpath(cfg["in"]) in [
            os.path.realpath(cfg["out"] + ext) for ext in (".csv", ".llgf")]:
        raise ConfigError("out: an output path would overwrite the input snapshot")
    tol = cfg.get("tol")
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol: must be finite and positive, got {tol}")


def _make_field(cfg):
    try:
        grid = Grid.centered(cfg["grid"], cfg["box"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    kind = cfg["kind"]
    try:
        if kind == "constant":
            return make_constant(grid, (0.0, 0.0, -1.0))
        if kind == "bp":
            return make_bp_soliton(grid, cfg["m"], cfg["lambda"], cfg["cutoff"])
        if kind == "random":
            return make_random_smooth(grid, seed=cfg["seed"])
        amp, radius = cfg["lambda"], cfg["cutoff"]
        field = make_radial_profile(
            grid, lambda r: amp * bump(np.minimum(r / radius, 1.0) ** 2))
    except ValueError as exc:
        raise ConfigError(f"{kind}: {exc}") from exc
    if (field.values == -K_AXIS).all():
        raise ConfigError(f"cutoff: the radial texture is -k on every cell "
                          f"(cutoff {radius:g}, lambda {amp:g})")
    return field


def _read_spin(path):
    try:
        f = snapio.read_snapshot(path)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from exc
    if not isinstance(f, SpinField):
        raise SnapshotError("snapshot does not hold a spin field")
    return f


def _check_out_dir(path):
    """Refuse an output path in a missing directory before any field work."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise SnapshotError(f"out: directory {folder!r} does not exist")


# Each handler takes the RunConfig and returns its (KEY, value) result lines
# and the value a check judges against --tol (None for the other commands);
# diagnose prints its CSV form, which is not KEY=VALUE, itself.

def _init(cfg):
    _check_out_dir(cfg["out"])
    field = _make_field(cfg)
    try:
        snapio.write_snapshot(field, cfg["out"])
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot: {exc}") from exc
    lines = [("SNAPSHOT", cfg["out"]), ("CELLS", math.prod(field.grid.dims))]
    if field.grid.p == 2 and field.decaying:
        lines.append(("DEG", degree(field)))
    return lines, None


def _simulate(cfg):
    # SimConfig owns the dt and steps rules; it refuses before any file is read
    sim = SimConfig(dt=cfg["dt"], steps=cfg["steps"], report_every=cfg["report-every"],
                    scheme="rk4_project" if cfg["scheme"] == "rk4" else "midpoint",
                    params=EnergyParams(a=cfg["a"]))
    _check_out_dir(cfg["out"])
    n = _read_spin(cfg["in"])
    reports, final = simulate(n, sim)
    csv_path, snap_path = cfg["out"] + ".csv", cfg["out"] + ".llgf"
    try:
        snapio.write_report_csv(reports, n.grid.p, csv_path)
        snapio.write_snapshot(final, snap_path)
    except OSError as exc:
        raise SnapshotError(f"cannot write output: {exc}") from exc
    return [("CSV", csv_path), ("SNAPSHOT", snap_path), ("REPORTS", len(reports))], None


def _diagnose(cfg):
    n = _read_spin(cfg["in"])
    header = snapio.report_header(n.grid.p)
    row = snapio.report_row(make_report(n, 0.0, EnergyParams(a=cfg["a"])), n.grid.p)
    if cfg["format"] == "csv":
        print(",".join(header), ",".join(row), sep="\n")
        return [], None
    return [(key.upper(), value if value else "NA") for key, value in zip(header, row)], None


def _bracket_check(cfg):
    bracket, fourpi_deg = check_px_py_bracket(_read_spin(cfg["in"]))
    # floor: a unit-degree field's 4*pi, since a degree-0 one is ~0
    rel = abs(bracket - fourpi_deg) / max(abs(fourpi_deg), 4.0 * np.pi)
    return [("BRACKET", bracket), ("FOURPI_DEG", fourpi_deg), ("REL_ERR", rel)], rel


def _cocycle(cfg):
    n = _read_spin(cfg["in"])
    e1 = _parse_algebra("e1", cfg["e1"], n.grid.p)
    e2 = _parse_algebra("e2", cfg["e2"], n.grid.p)
    direct = cocycle_direct(n, e1, e2)
    paired = cocycle_via_pairing(n, e1, e2)
    # 2D floor: a unit-degree field's cocycle, since a degree-0 one is ~0
    floor = 4.0 * np.pi * abs(omega0(e1.adot, e2.adot)) if n.grid.p == 2 else 0.0
    gap = abs(direct - paired) / max(abs(direct), abs(paired), floor, 1e-300)
    return [("SIGMA_DIRECT", direct), ("SIGMA_PAIRING", paired), ("REL_GAP", gap)], gap


def _lift_check(cfg):
    n = _read_spin(cfg["in"])
    residual = check_lift_identity(n)
    singular = int(lift_singular_mask(n).sum())
    return [("RESIDUAL", residual), ("SINGULAR_CELLS", singular)], residual


# command -> (handler, {option: default}); a None default marks a required option
_COMMANDS = {
    "init": (_init, {"grid": "96x96", "box": 16.0, "kind": "bp", "m": 1, "lambda": 1.5,
                     "cutoff": 6.0, "seed": 0, "out": None}),
    "simulate": (_simulate, {"in": None, "out": None, "a": 0.0, "dt": 1e-3, "steps": 100,
                             "scheme": "rk4", "report-every": 50}),
    "diagnose": (_diagnose, {"in": None, "a": 0.0, "format": "csv"}),
    "bracket-check": (_bracket_check, {"in": None, "tol": 0.03}),
    "cocycle": (_cocycle, {"in": None, "e1": None, "e2": None, "tol": 0.01}),
    "lift-check": (_lift_check, {"in": None, "tol": 0.02}),
}


def run(cfg):
    """Run cfg.command's handler and print its KEY=VALUE lines, floats by
    format_float; a check adds TOL= and its verdict.  Returns the exit status."""
    lines, judged = _COMMANDS[cfg.command][0](cfg)
    if judged is not None:
        lines.append(("TOL", cfg["tol"]))
    for key, value in lines:
        print(f"{key}={snapio.format_float(value) if isinstance(value, float) else value}")
    if judged is None:
        return 0
    passed = judged <= cfg["tol"]
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def main(argv=None):
    """argv (sys.argv[1:] when None) -> the process exit status."""
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except SystemExit as exc:
        # argparse usage errors and --print-config funnel through here
        return 0 if exc.code is None else int(exc.code)
    except (SnapshotError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
