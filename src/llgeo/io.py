"""Snapshot persistence and the report CSV.

Binary snapshot layout (all little-endian):

  magic "LLGF" | version u16 | p u16 | dims p*u32 | spacing p*f64 |
  origin p*f64 | payload kind u8 (0 spin, 1 rotation) | payload f64 row-major

Round trips are bit-exact; every malformed-input mode gets its own message.
"""

import math
import struct

import numpy as np

from .errors import SnapshotError
from .fields import K_AXIS, RotationField, SpinField
from .grid import Grid

MAGIC = b"LLGF"
VERSION = 1
KIND_SPIN = 0
KIND_ROTATION = 1


def write_snapshot(field, path):
    """Serialize a SpinField or RotationField."""
    if isinstance(field, SpinField):
        kind = KIND_SPIN
    elif isinstance(field, RotationField):
        kind = KIND_ROTATION
    else:
        raise TypeError("field must be a SpinField or RotationField")
    grid = field.grid
    p = grid.p
    header = MAGIC + struct.pack("<HH", VERSION, p)
    header += struct.pack(f"<{p}I", *grid.dims)
    header += struct.pack(f"<{p}d", *grid.spacing)
    header += struct.pack(f"<{p}d", *grid.origin)
    header += struct.pack("<B", kind)
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_snapshot(path):
    """Deserialize a snapshot; returns a SpinField or RotationField.

    Spin fields are flagged decaying when the boundary layer is exactly -k,
    which is how write/read round trips preserve the far-field marker.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(n, what):
        nonlocal offset
        if offset + n > len(blob):
            raise SnapshotError(
                f"truncated {what}: expected {offset + n} bytes, found {len(blob)}"
            )
        out = blob[offset:offset + n]
        offset += n
        return out

    offset = 0
    if take(4, "header") != MAGIC:
        raise SnapshotError(f"bad magic: not a {MAGIC.decode()} snapshot")
    version, p = struct.unpack("<HH", take(4, "header"))
    if version != VERSION:
        raise SnapshotError(f"unsupported version {version} (expected {VERSION})")
    if p not in (1, 2, 3):
        raise SnapshotError(f"invalid dimension {p}")
    dims = struct.unpack(f"<{p}I", take(4 * p, "header"))
    spacing = struct.unpack(f"<{p}d", take(8 * p, "header"))
    origin = struct.unpack(f"<{p}d", take(8 * p, "header"))
    (kind,) = struct.unpack("<B", take(1, "header"))
    if kind not in (KIND_SPIN, KIND_ROTATION):
        raise SnapshotError(f"unknown payload kind {kind}")
    comp = (3,) if kind == KIND_SPIN else (3, 3)
    # math.prod: Python integers, so huge header dims cannot wrap around
    count = math.prod(dims) * math.prod(comp)
    payload = take(8 * count, "payload")
    if offset != len(blob):
        raise SnapshotError(f"trailing bytes: {len(blob) - offset} past the payload")
    values = np.frombuffer(payload, dtype="<f8").reshape(dims + comp)
    if not np.isfinite(values).all():
        raise SnapshotError("non-finite payload values")
    try:
        grid = Grid(dims, spacing, origin)
    except ValueError as exc:
        raise SnapshotError(f"bad grid in header: {exc}") from exc
    try:
        if kind == KIND_SPIN:
            layer_ok = bool((values[grid.boundary_mask()] == -K_AXIS).all())
            return SpinField(grid, values, decaying=layer_ok)
        return RotationField(grid, values)
    except ValueError as exc:
        raise SnapshotError(f"payload violates field invariants: {exc}") from exc


def _fmt(x):
    return "%.17g" % x


def report_header(p):
    cols = ["t", "E", "N"]
    if p >= 2:
        cols += [f"P_{i + 1}" for i in range(p)]
        cols += [f"L_{i + 1}{j + 1}" for i in range(p) for j in range(i + 1, p)]
    if p == 2:
        cols.append("deg")
    cols.append("norm_dev")
    return cols


def report_row(report, p):
    def opt(x):
        return "" if x is None else _fmt(x)

    row = [_fmt(report.t), opt(report.energy), _fmt(report.N)]
    if p >= 2:
        if report.P is None:
            row += [""] * p
        else:
            row += [_fmt(v) for v in report.P]
        n_upper = p * (p - 1) // 2
        if report.L is None:
            row += [""] * n_upper
        else:
            row += [_fmt(report.L[i, j]) for i in range(p) for j in range(i + 1, p)]
    if p == 2:
        row.append(opt(report.deg))
    row.append(_fmt(report.norm_dev))
    return row


def write_report_csv(reports, p, path):
    """Time series of MomentumReports with fixed 17-digit floats."""
    with open(path, "w") as fh:
        fh.write(",".join(report_header(p)) + "\n")
        for rep in reports:
            fh.write(",".join(report_row(rep, p)) + "\n")
