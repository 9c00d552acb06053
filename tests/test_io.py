import struct

import numpy as np
import pytest

from llgeo import (
    Grid,
    RotationField,
    SnapshotError,
    SpinField,
    make_bp_soliton,
    make_constant,
    make_gauge_bump_alpha,
    make_gauge_field,
    read_snapshot,
    write_snapshot,
)
from llgeo.io import export_csv, report_header, write_report_csv
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


def test_rotation_snapshot_round_trip(tmp_path):
    g = Grid.centered((24, 24), 8.0)
    A = make_gauge_field(g, make_gauge_bump_alpha(g, winding=1))
    path = tmp_path / "rot.llgf"
    write_snapshot(A, path)
    back = read_snapshot(path)
    assert isinstance(back, RotationField)
    assert np.array_equal(A.values, back.values)


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


def test_unit_norm_violation_rejected_on_read(tmp_path):
    g = Grid.centered((16, 16), 8.0)
    f = make_constant(g, (0, 0, -1))
    path = tmp_path / "u.llgf"
    write_snapshot(f, path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.float64(-3.0).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="invariant"):
        read_snapshot(path)


def test_csv_export_layout(tmp_path):
    g = Grid.centered((8, 8), 4.0)
    f = make_constant(g, (0, 0, -1))
    path = tmp_path / "f.csv"
    export_csv(f, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,c1,c2,c3"
    assert len(lines) == 1 + 64
    first = lines[1].split(",")
    assert float(first[0]) == g.axis_coords(0)[0]
    assert float(first[4]) == -1.0


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
