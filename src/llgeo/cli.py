"""Command-line surface: one binary, six subcommands.

  init           build an initial condition and write a snapshot
  simulate       advance a snapshot, writing a time-series CSV + final snapshot
  diagnose       one MomentumReport row for a snapshot
  bracket-check  {P_x,P_y} against 4*pi*deg with a PASS/FAIL verdict
  cocycle        both cocycle routes for a snapshot + two algebra elements
  lift-check     residual of the rotation-lift derivative identity

All outputs are line-oriented KEY=VALUE (diagnose can also emit a CSV row).
Exit codes: 0 ok / PASS, 1 FAIL verdict, 2 config error, 3 io error,
4 numeric error.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, NumericsError, SnapshotError
from .grid import Grid
from .fields import K_AXIS, EuclideanAlgebraElement, SpinField, plane_pairs
from .generators import (
    bump,
    make_bp_soliton,
    make_constant,
    make_radial_profile,
    make_random_smooth,
)
from .dynamics import EnergyParams, SimConfig, make_report, simulate
from .momenta import check_lift_identity, degree, lift_singular_mask
from .cocycle import check_px_py_bracket, cocycle_direct, cocycle_via_pairing, omega0
from . import io as snapio


def _parse_grid(text):
    try:
        return tuple(int(tok) for tok in str(text).lower().split("x"))
    except ValueError:
        raise ValueError("want e.g. 96x96") from None


def _echo(value):
    """Option value as --print-config shows it: the form the flags accept."""
    return "x".join(map(str, value)) if isinstance(value, tuple) else value


def _parse_algebra(key, text, p):
    try:
        vals = [float(tok) for tok in str(text).split(",")]
        n_upper = len(plane_pairs(p))
        if len(vals) != n_upper + p:
            raise ValueError(
                f"algebra element needs {n_upper} upper-triangle entries plus {p} translation entries"
            )
        return EuclideanAlgebraElement(p, vals[:n_upper], vals[n_upper:])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


# option name -> (converter from string, default)
_OPTIONS = {
    "grid": (_parse_grid, "96x96"),
    "box": (float, 16.0),
    "kind": (str, "bp"),
    "m": (int, 1),
    "lambda": (float, 1.5),
    "cutoff": (float, 6.0),
    "a": (float, 0.0),
    "dt": (float, 1e-3),
    "steps": (int, 100),
    "scheme": (str, "rk4"),
    "seed": (int, 0),
    "tol": (float, None),
    "out": (str, None),
    "in": (str, None),
    "report-every": (int, 50),
    "e1": (str, None),
    "e2": (str, None),
    "format": (str, "csv"),
}

_DEFAULT_TOL = {"bracket-check": 0.03, "cocycle": 0.01, "lift-check": 0.02}

_COMMANDS = {
    "init": ("grid", "box", "kind", "m", "lambda", "cutoff", "seed", "out"),
    "simulate": ("in", "out", "a", "dt", "steps", "scheme", "report-every"),
    "diagnose": ("in", "a", "format"),
    "bracket-check": ("in", "tol"),
    "cocycle": ("in", "e1", "e2", "tol"),
    "lift-check": ("in", "tol"),
}


_HELP = {key: f"so(p) entries of the planes i < j in row order, then the p translation "
              f"entries, comma-separated; write --{key}=-0.2,0,1 if the first is negative"
         for key in ("e1", "e2")}

_CHOICES = {
    "kind": ("constant", "bp", "radial", "random"),
    "scheme": ("rk4", "midpoint"),
    "format": ("csv", "text"),
}


@dataclass
class RunConfig:
    command: str
    options: dict = dc_field(default_factory=dict)

    def __getitem__(self, key):
        return self.options[key]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="llgeo",
        description="Landau-Lifshitz simulation and momentum-map diagnostics",
    )
    sub = parser.add_subparsers(dest="command")
    for command, keys in _COMMANDS.items():
        cp = sub.add_parser(command)
        cp.add_argument("--config", help="JSON file with option defaults")
        cp.add_argument("--print-config", action="store_true",
                        help="echo the resolved configuration and exit")
        for key in keys:
            cp.add_argument(f"--{key}", dest=key.replace("-", "_"),
                            choices=_CHOICES.get(key), help=_HELP.get(key))
    return parser


def parse_config(argv):
    """argv -> RunConfig.  File values fill in unset flags; explicit flags win;
    unknown file keys are rejected."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise SystemExit(2)
    keys = _COMMANDS[args.command]

    resolved = {}
    for key in keys:
        default = _OPTIONS[key][1]
        if key == "tol" and default is None:
            default = _DEFAULT_TOL.get(args.command)
        resolved[key] = None if default is None else _convert(key, default)

    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise SnapshotError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in keys:
                raise ConfigError(f"unknown config key {key!r} for {args.command}")
            resolved[key] = _convert(key, value)

    for key in keys:
        cli_value = getattr(args, key.replace("-", "_"))
        if cli_value is not None:
            resolved[key] = _convert(key, cli_value)

    cfg = RunConfig(args.command, resolved)
    _validate(cfg)
    if args.print_config:
        for key in sorted(resolved):
            print(f"{key.upper().replace('-', '_')}={_echo(resolved[key])}")
        raise SystemExit(0)
    return cfg


def _convert(key, value):
    conv, _ = _OPTIONS[key]
    try:
        return conv(value) if not (conv is str and isinstance(value, str)) else value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: bad value {value!r} ({exc})") from exc


def _validate(cfg):
    opt = cfg.options
    for key, allowed in _CHOICES.items():
        if key in opt and opt[key] not in allowed:
            raise ConfigError(f"{key}: must be one of {', '.join(allowed)}")
    if cfg.command == "init":
        if opt["out"] is None:
            raise ConfigError("out: init needs an output path")
        if opt["kind"] == "radial" and not (np.isfinite(opt["cutoff"]) and opt["cutoff"] > 0):
            raise ConfigError(f"cutoff: must be finite and positive, got {opt['cutoff']}")
    else:
        if opt.get("in") is None:
            raise ConfigError("in: this command needs an input snapshot")
    if cfg.command == "simulate":
        if opt["out"] is None:
            raise ConfigError("out: simulate needs an output prefix")
        outputs = (opt["out"] + ".csv", opt["out"] + ".llgf")
        if os.path.realpath(opt["in"]) in map(os.path.realpath, outputs):
            raise ConfigError("out: an output path would overwrite the input snapshot")
    if cfg.command == "cocycle" and (opt["e1"] is None or opt["e2"] is None):
        raise ConfigError("e1/e2: cocycle needs two algebra elements")
    tol = opt.get("tol")
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


def _verdict(value, tol):
    print(f"TOL={snapio.format_float(tol)}")
    if value <= tol:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def run(cfg):
    """Dispatch a RunConfig; returns the process exit status."""
    command = cfg.command
    if command == "init":
        field = _make_field(cfg)
        try:
            snapio.write_snapshot(field, cfg["out"])
        except OSError as exc:
            raise SnapshotError(f"cannot write snapshot: {exc}") from exc
        print(f"SNAPSHOT={cfg['out']}")
        print(f"CELLS={int(np.prod(field.grid.dims))}")
        if field.grid.p == 2 and field.decaying:
            print(f"DEG={snapio.format_float(degree(field))}")
        return 0

    if command == "simulate":
        # SimConfig owns the dt and steps rules; it refuses before any file is read
        sim = SimConfig(
            dt=cfg["dt"],
            steps=cfg["steps"],
            scheme="rk4_project" if cfg["scheme"] == "rk4" else "midpoint",
            report_every=cfg["report-every"],
            params=EnergyParams(a=cfg["a"]),
        )
    n = _read_spin(cfg["in"])

    if command == "simulate":
        reports, final = simulate(n, sim)
        csv_path = cfg["out"] + ".csv"
        snap_path = cfg["out"] + ".llgf"
        try:
            snapio.write_report_csv(reports, n.grid.p, csv_path)
            snapio.write_snapshot(final, snap_path)
        except OSError as exc:
            raise SnapshotError(f"cannot write output: {exc}") from exc
        print(f"CSV={csv_path}")
        print(f"SNAPSHOT={snap_path}")
        print(f"REPORTS={len(reports)}")
        return 0

    if command == "diagnose":
        report = make_report(n, 0.0, EnergyParams(a=cfg["a"]))
        if cfg["format"] == "csv":
            print(",".join(snapio.report_header(n.grid.p)))
            print(",".join(snapio.report_row(report, n.grid.p)))
        else:
            for key, row in zip(snapio.report_header(n.grid.p),
                                snapio.report_row(report, n.grid.p)):
                print(f"{key.upper()}={row if row else 'NA'}")
        return 0

    if command == "bracket-check":
        bracket, fourpi_deg = check_px_py_bracket(n)
        # floor: a unit-degree field's 4*pi, since a degree-0 one is ~0
        rel = abs(bracket - fourpi_deg) / max(abs(fourpi_deg), 4.0 * np.pi)
        print(f"BRACKET={snapio.format_float(bracket)}")
        print(f"FOURPI_DEG={snapio.format_float(fourpi_deg)}")
        print(f"REL_ERR={snapio.format_float(rel)}")
        return _verdict(rel, cfg["tol"])

    if command == "cocycle":
        e1 = _parse_algebra("e1", cfg["e1"], n.grid.p)
        e2 = _parse_algebra("e2", cfg["e2"], n.grid.p)
        direct = cocycle_direct(n, e1, e2)
        paired = cocycle_via_pairing(n, e1, e2)
        # 2D floor: a unit-degree field's cocycle, since a degree-0 one is ~0
        floor = 4.0 * np.pi * abs(omega0(e1.adot, e2.adot)) if n.grid.p == 2 else 0.0
        scale = max(abs(direct), abs(paired), floor, 1e-300)
        gap = abs(direct - paired) / scale
        print(f"SIGMA_DIRECT={snapio.format_float(direct)}")
        print(f"SIGMA_PAIRING={snapio.format_float(paired)}")
        print(f"REL_GAP={snapio.format_float(gap)}")
        return _verdict(gap, cfg["tol"])

    # lift-check
    residual = check_lift_identity(n)
    print(f"RESIDUAL={snapio.format_float(residual)}")
    print(f"SINGULAR_CELLS={int(lift_singular_mask(n).sum())}")
    return _verdict(residual, cfg["tol"])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
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
