import functools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llgeo import (
    Grid,
    RotationField,
    SnapshotError,
    SpinField,
    make_bp_soliton,
    make_constant,
    make_gauge_bump_alpha,
    make_gauge_field,
    make_random_smooth,
    read_snapshot,
    write_snapshot,
)
from llgeo.fields import plane_pairs
from llgeo.io import format_float, report_header, report_row, write_report_csv
from llgeo.dynamics import EnergyParams, make_report


def test_spin_snapshot_round_trip_is_byte_identical(tmp_path):
    f = make_bp_soliton(Grid.centered((48, 48), 16.0), 1, 1.5, 6.0)
    p1 = tmp_path / "a.llgf"
    p2 = tmp_path / "b.llgf"
    write_snapshot(f, p1)
    g = read_snapshot(p1)
    assert isinstance(g, SpinField) and g.decaying
    assert np.array_equal(f.values, g.values)
    assert g.grid == f.grid
    write_snapshot(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("kind", [0, 2], ids=["spin", "rotation"])
def test_snapshot_header_is_the_documented_layout(tmp_path, kind):
    # magic | version u16 | p u16 | dims p*u32 | spacing p*f64 | origin p*f64
    # | payload kind u8, little-endian, then the f64 payload in C order:
    # (n_x, n_y, n_z) or the quaternion (w, x, y, z) per cell
    g = Grid((20, 22, 24), (0.5, 0.25, 0.125), (-5.0, -2.75, -1.5))
    if kind == 0:
        f = make_constant(g, (0, 0, -1))
    else:
        f = make_gauge_field(g, make_gauge_bump_alpha(g, winding=1))
    path = tmp_path / "h.llgf"
    write_snapshot(f, path)
    header = struct.pack("<4sHH3I3d3dB", b"LLGF", 1, 3, *g.dims, *g.spacing, *g.origin, kind)
    blob = path.read_bytes()
    assert blob[:len(header)] == header
    c_order = np.stack([f.values[..., c] for c in range(f.values.shape[-1])], axis=-1)
    assert c_order.flags.c_contiguous and c_order.shape == g.dims + (4 if kind else 3,)
    assert blob[len(header):] == c_order.astype("<f8").tobytes()


def test_spin_payload_is_written_in_c_order_and_read_into_planes(tmp_path):
    g = Grid.centered((20, 24), 8.0)
    f = make_random_smooth(g, seed=3)
    c_order = np.stack([f.values[..., c] for c in range(3)], axis=-1)
    assert c_order.flags.c_contiguous and not f.values.flags.c_contiguous
    path = tmp_path / "f.llgf"
    write_snapshot(f, path)
    blob = path.read_bytes()
    header = struct.calcsize("<4sHH2I2d2dB")
    assert len(blob) == header + c_order.nbytes
    assert blob[header:] == c_order.astype("<f8").tobytes()
    back = read_snapshot(path)
    assert np.moveaxis(back.values, -1, 0).flags.c_contiguous
    assert not back.values.flags.writeable
    assert np.array_equal(back.values, c_order)


def test_rotation_snapshot_round_trip(tmp_path):
    g = Grid.centered((24, 24), 8.0)
    A = make_gauge_field(g, make_gauge_bump_alpha(g, winding=1))
    path = tmp_path / "rot.llgf"
    write_snapshot(A, path)
    back = read_snapshot(path)
    assert isinstance(back, RotationField)
    assert np.array_equal(A.values, back.values)
    assert back.values[..., 0].min() < -0.999  # a full turn about k near the centre
    write_snapshot(back, tmp_path / "again.llgf")
    assert (tmp_path / "again.llgf").read_bytes() == path.read_bytes()


def test_matrix_rotation_snapshot_is_refused(tmp_path):
    # kind 1 held 3x3 rotation matrices; it is no longer a payload kind
    g = Grid.centered((8, 8), 4.0)
    header = b"LLGF" + struct.pack("<HH2I2d2dB", 1, 2, *g.dims, *g.spacing, *g.origin, 1)
    eye = np.broadcast_to(np.eye(3), g.dims + (3, 3))
    path = tmp_path / "m.llgf"
    path.write_bytes(header + np.ascontiguousarray(eye, dtype="<f8").tobytes())
    with pytest.raises(SnapshotError, match="^unknown payload kind 1$"):
        read_snapshot(path)


def test_non_decaying_flag_survives_round_trip(tmp_path):
    g = Grid.centered((16, 16), 8.0)
    f = make_constant(g, (1.0, 0.0, 0.0))
    path = tmp_path / "c.llgf"
    write_snapshot(f, path)
    assert not read_snapshot(path).decaying


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.llgf"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(path)


def test_future_version_rejected(tmp_path):
    g = Grid.centered((16, 16), 8.0)
    f = make_constant(g, (0, 0, -1))
    path = tmp_path / "v.llgf"
    write_snapshot(f, path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="version 99"):
        read_snapshot(path)


def test_truncated_payload_reports_byte_counts(tmp_path):
    g = Grid.centered((16, 16), 8.0)
    f = make_constant(g, (0, 0, -1))
    path = tmp_path / "t.llgf"
    write_snapshot(f, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(SnapshotError, match=r"truncated payload: expected \d+ bytes, found \d+"):
        read_snapshot(path)


def test_huge_header_dims_report_truncated_payload(tmp_path):
    # (2**32 - 1)**2 cells overflow int64 byte counts; the message must still
    # name the true size instead of a wrapped one
    dims = (2 ** 32 - 1,) * 2
    header = b"LLGF" + struct.pack("<HH2I2d2dB", 1, 2, *dims, 1.0, 1.0, 0.0, 0.0, 0)
    path = tmp_path / "huge.llgf"
    path.write_bytes(header + b"\0" * 64)
    expected = len(header) + 8 * 3 * dims[0] * dims[1]
    with pytest.raises(SnapshotError,
                       match=f"truncated payload: expected {expected} bytes, "
                             f"found {len(header) + 64}"):
        read_snapshot(path)


def test_nan_spacing_header_rejected(tmp_path):
    g = Grid.centered((16, 16), 8.0)
    path = tmp_path / "nan.llgf"
    write_snapshot(make_constant(g, (0, 0, -1)), path)
    blob = bytearray(path.read_bytes())
    # magic, version, p and two u32 dims come before the spacing
    blob[16:24] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="bad grid in header: spacing"):
        read_snapshot(path)


def test_trailing_bytes_rejected(tmp_path):
    g = Grid.centered((16, 16), 8.0)
    f = make_constant(g, (0, 0, -1))
    path = tmp_path / "x.llgf"
    write_snapshot(f, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(SnapshotError, match="trailing"):
        read_snapshot(path)


def test_non_finite_payload_rejected(tmp_path):
    g = Grid.centered((16, 16), 8.0)
    f = make_constant(g, (0, 0, -1))
    path = tmp_path / "n.llgf"
    write_snapshot(f, path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="non-finite"):
        read_snapshot(path)


def _with_last_entry(field, value, path):
    """Write field to path with its last payload entry replaced by value."""
    write_snapshot(field, path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.float64(value).tobytes()
    path.write_bytes(bytes(blob))
    return path


def test_unit_norm_violation_rejected_on_read(tmp_path):
    # 1e200 is finite, but its square overflows |n| to inf: the check must
    # refuse it without a RuntimeWarning
    f = make_constant(Grid.centered((16, 16), 8.0), (0, 0, -1))
    for value, dev in ((-3.0, r"2\.000e\+00"), (1e200, "inf")):
        path = _with_last_entry(f, value, tmp_path / "u.llgf")
        with pytest.raises(SnapshotError, match=f"invariant.*deviates from 1 by {dev}"):
            read_snapshot(path)


@pytest.mark.parametrize("value, message", [
    (np.nan, "non-finite payload values"),
    (1e200, r"invariants: \|psi\|\^2 deviates from 1 by inf"),
    (0.5, r"invariants: \|psi\|\^2 deviates from 1 by 2\.500e-01"),
], ids=["nan", "huge", "non_unit"])
def test_bad_rotation_payload_refused_without_warning(tmp_path, value, message):
    # the last entry is the z part of a boundary cell's quaternion
    g = Grid.centered((16, 16), 8.0)
    path = _with_last_entry(make_gauge_field(g, np.zeros(g.dims)), value, tmp_path / "r.llgf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SnapshotError, match=message):
            read_snapshot(path)


@functools.cache
def _fuzz_bases(path):
    """The valid snapshots to corrupt, each as (bytes, header length): a 2D
    spin, a 3D spin and a rotation field, each written once through path."""
    g2, g3 = Grid.centered((12, 12), 8.0), Grid.centered((12, 12, 12), 8.0)
    fields = (make_random_smooth(g2, seed=1), make_random_smooth(g3, seed=2),
              make_gauge_field(g2, make_gauge_bump_alpha(g2, winding=1)))
    bases = []
    for f in fields:
        write_snapshot(f, path)
        blob = path.read_bytes()
        bases.append((blob, len(blob) - 8 * f.values.size))
    return bases


@settings(max_examples=150, deadline=None)
@given(base=st.integers(0, 2), mode=st.sampled_from(["truncate", "header", "payload"]),
       spots=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
                      min_size=1, max_size=3))
def test_read_snapshot_fuzz_yields_a_field_or_snapshot_error(tmp_path_factory, base, mode,
                                                             spots):
    # a truncation at any offset, 1-3 corrupt header bytes or one corrupt
    # payload byte, each spot a fraction of the span it falls in; any
    # warning is an error too
    path = tmp_path_factory.getbasetemp() / "fuzz.llgf"
    blob, header = _fuzz_bases(path)[base]
    blob = bytearray(blob)
    if mode == "truncate":
        del blob[int(spots[0][0] * len(blob)):]
    else:
        lo, hi = (0, header) if mode == "header" else (header, len(blob))
        for where, value in spots if mode == "header" else spots[:1]:
            blob[lo + int(where * (hi - lo))] = value
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            field = read_snapshot(path)
        except SnapshotError:
            return
    assert isinstance(field, (SpinField, RotationField))


def test_report_csv_round_trips_floats(tmp_path):
    f = make_bp_soliton(Grid.centered((48, 48), 16.0), 1, 1.5, 6.0)
    rep = make_report(f, 0.0, EnergyParams(a=0.3))
    path = tmp_path / "r.csv"
    write_report_csv([rep], 2, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(report_header(2))
    row = lines[1].split(",")
    assert float(row[1]) == rep.energy  # 17 significant digits round-trip
    assert float(row[-1]) == rep.norm_dev
    assert float(row[-2]) == rep.deg


def test_report_csv_p1_omits_momentum_columns(tmp_path):
    g = Grid.centered((32,), 8.0)
    f = make_constant(g, (0, 0, -1))
    rep = make_report(f, 0.0, EnergyParams())
    path = tmp_path / "p1.csv"
    write_report_csv([rep], 1, path)
    header = path.read_text().strip().split("\n")[0]
    assert header == "t,E,N,norm_dev"


@pytest.mark.parametrize("decaying", [True, False], ids=["decaying", "non-decaying"])
@pytest.mark.parametrize("p, header", [
    (1, "t,E,N,norm_dev"),
    (2, "t,E,N,P_1,P_2,L_12,deg,norm_dev"),
    (3, "t,E,N,P_1,P_2,P_3,L_12,L_13,L_23,norm_dev"),
])
def test_report_row_fills_each_named_column(p, header, decaying):
    # the header and the row read one column list: each named column holds
    # its entry of the report, and the cell is empty where the entry is None
    n = make_random_smooth(Grid.centered((16,) * p, 8.0), seed=p)
    rep = make_report(SpinField(n.grid, n.values, decaying=decaying), 0.5)
    expected = {"t": rep.t, "E": rep.energy, "N": rep.N, "norm_dev": rep.norm_dev}
    if p >= 2:
        expected.update({f"P_{i + 1}": None if rep.P is None else rep.P[i] for i in range(p)})
        expected.update({f"L_{i + 1}{j + 1}": None if rep.L is None else rep.L[i, j]
                         for i, j in plane_pairs(p)})
    if p == 2:
        expected["deg"] = rep.deg
    assert (rep.energy is None) != decaying
    row = report_row(rep, p)
    assert report_header(p) == header.split(",") and len(row) == len(report_header(p))
    assert dict(zip(report_header(p), row)) == {
        name: "" if x is None else format_float(x) for name, x in expected.items()}
