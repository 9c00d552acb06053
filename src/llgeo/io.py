"""Snapshot persistence and the report CSV.

Binary snapshot layout (little-endian; MAGIC, _PREAMBLE, _geometry_layout(p)):

  magic "LLGF" | version u16 | p u16 | dims p*u32 | spacing p*f64 |
  origin p*f64 | payload kind u8 | payload f64 in C order

The payload holds, per cell, n = (n_x, n_y, n_z) for a spin field (kind
0) or the unit quaternion (w, x, y, z) for a rotation field (kind 2).
Kind 1, the 3x3 rotation matrices of earlier files, is refused as an
unknown kind.  Round trips are bit-exact; every malformed-input mode gets
its own message.
"""

import math
import struct

import numpy as np

from .errors import SnapshotError
from .fields import K_AXIS, RotationField, SpinField, plane_pairs
from .grid import Grid

MAGIC = b"LLGF"
VERSION = 1
KIND_SPIN = 0
KIND_ROTATION = 2
_PREAMBLE = struct.Struct("<HH")


def _geometry_layout(p):
    """The header after _PREAMBLE: dims, spacing, origin and payload kind."""
    return struct.Struct(f"<{p}I{p}d{p}dB")


def format_float(x):
    """17 significant digits, which read back exactly: the text form of every
    float in the report CSV and the CLI's result lines."""
    return "%.17g" % x


def write_snapshot(field, path):
    """Serialize a SpinField or RotationField; the payload is written in C
    order, from one contiguous copy when the field is stored otherwise."""
    if isinstance(field, SpinField):
        kind = KIND_SPIN
    elif isinstance(field, RotationField):
        kind = KIND_ROTATION
    else:
        raise TypeError("field must be a SpinField or RotationField")
    grid = field.grid
    header = MAGIC + _PREAMBLE.pack(VERSION, grid.p) + _geometry_layout(grid.p).pack(
        *grid.dims, *grid.spacing, *grid.origin, kind)
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_snapshot(path):
    """Deserialize a snapshot; returns a SpinField or RotationField.

    Spin fields are flagged decaying when the boundary layer is exactly -k,
    which is how write/read round trips preserve the far-field marker.  The
    payload is viewed in place in the file's bytes and copied once, into the
    field's own layout.
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
    if take(len(MAGIC), "header") != MAGIC:
        raise SnapshotError(f"bad magic: not a {MAGIC.decode()} snapshot")
    version, p = _PREAMBLE.unpack(take(_PREAMBLE.size, "header"))
    if version != VERSION:
        raise SnapshotError(f"unsupported version {version} (expected {VERSION})")
    if p not in (1, 2, 3):
        raise SnapshotError(f"invalid dimension {p}")
    layout = _geometry_layout(p)
    entries = layout.unpack(take(layout.size, "header"))
    dims, spacing, origin, kind = entries[:p], entries[p:2 * p], entries[2 * p:3 * p], entries[-1]
    if kind not in (KIND_SPIN, KIND_ROTATION):
        raise SnapshotError(f"unknown payload kind {kind}")
    comp = (3,) if kind == KIND_SPIN else (4,)
    # math.prod: Python integers, so huge header dims cannot wrap around
    count = math.prod(dims) * comp[0]
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


def _columns(p):
    """The one column rule of the report CSV, as (name, report attribute,
    index into it): t, E, N, the P_i, the L_ij in plane_pairs order, deg
    when p = 2, then norm_dev."""
    cols = [("t", "t", ()), ("E", "energy", ()), ("N", "N", ())]
    if p >= 2:
        cols += [(f"P_{i + 1}", "P", (i,)) for i in range(p)]
        cols += [(f"L_{i + 1}{j + 1}", "L", (i, j)) for i, j in plane_pairs(p)]
    if p == 2:
        cols.append(("deg", "deg", ()))
    return cols + [("norm_dev", "norm_dev", ())]


def report_header(p):
    """The column names of the report CSV, read from the one column list
    (_columns) that report_row reads, so header and rows cannot drift."""
    return [name for name, _, _ in _columns(p)]


def report_row(report, p):
    """The report_header columns, read from the same column list:
    format_float, or empty where the report has None."""
    cells = [(getattr(report, attr), index) for _, attr, index in _columns(p)]
    return ["" if x is None else format_float(x[index] if index else x) for x, index in cells]


def write_report_csv(reports, p, path):
    """Time series of MomentumReports with fixed 17-digit floats."""
    with open(path, "w") as fh:
        fh.write(",".join(report_header(p)) + "\n")
        for rep in reports:
            fh.write(",".join(report_row(rep, p)) + "\n")
