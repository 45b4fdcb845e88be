import tracemalloc
from functools import partial

import numpy as np
import pytest

import fedsim.data
import fedsim.reports
from fedsim.data import (
    CSV_HEADER,
    BBox,
    make_windows,
    parse_csv,
    partition_by_vehicle,
    synth_trajectories,
    utf8_lines,
    write_csv,
)
from fedsim.errors import ConfigError, FedsimError, ParseError

from oracles import parse_rows_by_loop, windows_by_slices


def fixture_csv(tmp_path, rows, header=True):
    path = tmp_path / "points.csv"
    lines = ["vehicle_id,timestamp,lat,lon"] if header else []
    lines += rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseCsv:
    def test_two_vehicles_ten_points_each(self, tmp_path):
        rows = []
        for vid in ("a", "b"):
            for k in range(10):
                rows.append(f"{vid},{1000 + k},{30 + 0.01 * k},{120 + 0.01 * k}")
        trajectories, rejected = parse_csv(fixture_csv(tmp_path, rows))
        assert rejected == 0
        assert [t.vehicle_id for t in trajectories] == ["a", "b"]
        assert all(t.n_points == 10 for t in trajectories)

    def test_out_of_range_latitude_dropped_and_counted(self, tmp_path):
        rows = [
            "a,1000,30.0,120.0",
            "a,1001,95.0,120.0",
            "a,1002,30.2,120.2",
        ]
        trajectories, rejected = parse_csv(fixture_csv(tmp_path, rows))
        assert rejected == 1
        assert trajectories[0].n_points == 2

    def test_unsorted_timestamps_sorted_ascending(self, tmp_path):
        rows = [
            "a,1002,30.2,120.2",
            "a,1000,30.0,120.0",
            "a,1001,30.1,120.1",
        ]
        trajectories, _ = parse_csv(fixture_csv(tmp_path, rows))
        assert np.array_equal(trajectories[0].timestamps, [1000.0, 1001.0, 1002.0])
        assert np.all(np.diff(trajectories[0].timestamps) > 0)

    def test_iso_timestamps_accepted(self, tmp_path):
        rows = [
            "a,2020-01-01T00:00:00,30.0,120.0",
            "a,2020-01-01T00:01:00,30.1,120.1",
        ]
        trajectories, _ = parse_csv(fixture_csv(tmp_path, rows))
        assert trajectories[0].timestamps[1] - trajectories[0].timestamps[0] == 60.0

    def test_malformed_row_reports_line_number(self, tmp_path):
        rows = ["a,1000,30.0,120.0", "a,not-a-time,xx,120.0"]
        path = fixture_csv(tmp_path, rows)
        with pytest.raises(ParseError) as err:
            parse_csv(path)
        assert str(err.value).startswith(f"{path}:3: ")

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        trajectories, rejected = parse_csv(path)
        assert trajectories == [] and rejected == 0

    def test_round_trip_write_then_parse(self, tmp_path):
        source = synth_trajectories(seed=5, n_vehicles=3, points_each=17, kind="random-walk")
        path = tmp_path / "out.csv"
        write_csv(path, source)
        parsed, rejected = parse_csv(path)
        assert rejected == 0
        assert len(parsed) == len(source)
        for a, b in zip(parsed, sorted(source, key=lambda t: t.vehicle_id)):
            assert a.vehicle_id == b.vehicle_id
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.array_equal(a.coords, b.coords)

    def test_parse_peak_memory_stays_small(self, tmp_path):
        # 160 vehicles x 90 points, as on the fleet_churn benchmark workload;
        # a reader that holds one Python tuple per row peaks near 4 MiB
        path = tmp_path / "fleet.csv"
        write_csv(path, synth_trajectories(0, 160, 90, "sinusoid"))
        tracemalloc.start()
        try:
            parse_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestParseTdrive:
    def test_swapped_axis_order(self, tmp_path):
        path = tmp_path / "tdrive.txt"
        path.write_text(
            "1,2008-02-02 15:36:08,116.51172,39.92123\n"
            "1,2008-02-02 15:46:08,116.51135,39.93883\n",
            encoding="utf-8",
        )
        trajectories, rejected = parse_csv(path, tdrive=True)
        assert rejected == 0
        assert trajectories[0].coords[0, 0] == pytest.approx(39.92123)  # lat
        assert trajectories[0].coords[0, 1] == pytest.approx(116.51172)  # lon

    def test_csv_header_is_not_skipped(self, tmp_path):
        path = tmp_path / "tdrive.txt"
        path.write_text("vehicle_id,timestamp,lat,lon\n1,1000,116.5,39.9\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_csv(path, tdrive=True)
        assert str(err.value).startswith(f"{path}:1: ")


# (vehicle, timestamp, lat, lon): an ISO timestamp, a duplicate timestamp
# whose first occurrence is kept, and an out-of-range latitude
LAYOUT_ROWS = [
    ("b", "1000", "30.0", "120.0"),
    ("a", "2020-01-01T00:00:00", "30.1", "120.1"),
    ("a", "1577836860", "30.2", "120.2"),
    ("a", "1577836860", "30.3", "120.3"),
    ("b", "1001", "95.0", "120.0"),
    ("b", "1002", "30.4", "120.4"),
]

# layout -> (reader, line format); T-Drive puts longitude before latitude
LAYOUTS = {
    "csv": (parse_csv, "{0},{1},{2},{3}"),
    "tdrive": (partial(parse_csv, tdrive=True), "{0},{1},{3},{2}"),
}


class TestBothLayouts:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_same_rows_parse_alike_in_either_layout(self, tmp_path, layout):
        parse, line = LAYOUTS[layout]

        def write(rows):
            path = tmp_path / f"{layout}.txt"
            path.write_text("".join(line.format(*row) + "\n" for row in rows), encoding="utf-8")
            return path

        trajectories, rejected = parse(write(LAYOUT_ROWS))
        assert rejected == 1
        assert [t.vehicle_id for t in trajectories] == ["a", "b"]
        a, b = trajectories
        assert np.array_equal(a.timestamps, [1577836800.0, 1577836860.0])
        assert np.array_equal(a.coords, [[30.1, 120.1], [30.2, 120.2]])
        assert np.array_equal(b.timestamps, [1000.0, 1002.0])
        assert np.array_equal(b.coords, [[30.0, 120.0], [30.4, 120.4]])

        malformed = ("a", "1003", "bad-lat", "bad-lon")
        path = write(LAYOUT_ROWS[:2] + [malformed] + LAYOUT_ROWS[2:])
        with pytest.raises(ParseError) as err:
            parse(path)
        assert str(err.value).startswith(f"{path}:3: ")
        # the third field of the line is the first coordinate read
        assert repr(line.format(*malformed).split(",")[2]) in str(err.value)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path, layout):
        parse, line = LAYOUTS[layout]
        # the CSV copy starts with its header, which the mark would hide
        header = "vehicle_id,timestamp,lat,lon\n" if layout == "csv" else ""
        text = header + "".join(line.format(*row) + "\n" for row in LAYOUT_ROWS)
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, want_rejected = parse(plain)
        got, got_rejected = parse(marked)
        assert got_rejected == want_rejected == 1
        assert [t.vehicle_id for t in got] == [t.vehicle_id for t in want] == ["a", "b"]
        for a, b in zip(got, want):
            assert a.timestamps.tobytes() == b.timestamps.tobytes()
            assert a.coords.tobytes() == b.coords.tobytes()

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_empty_vehicle_id_is_a_parse_error(self, tmp_path, layout):
        parse, line = LAYOUTS[layout]
        path = tmp_path / f"{layout}.txt"
        # the parser strips the id, so a blank one is empty
        rows = LAYOUT_ROWS[:2] + [(" ", "1003", "30.0", "120.0")] + LAYOUT_ROWS[2:]
        path.write_text("".join(line.format(*row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse(path)
        assert str(err.value) == f"{path}:3: empty vehicle id"

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path, layout):
        parse, line = LAYOUTS[layout]
        path = tmp_path / f"{layout}.txt"
        rows = [line.format(*row).encode() for row in LAYOUT_ROWS[:2]]
        path.write_bytes(b"\n".join(rows + [b"\xffa,1003,30.0,120.0", b""]))
        with pytest.raises(ParseError) as err:
            parse(path)
        assert str(err.value).startswith(f"{path}:3: not UTF-8 text (")

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", " -Infinity "])
    def test_non_finite_timestamp_is_a_parse_error(self, tmp_path, layout, stamp):
        parse, line = LAYOUTS[layout]
        path = tmp_path / f"{layout}.txt"
        # out of range too: the timestamp is checked before the row is dropped
        rows = LAYOUT_ROWS[:3] + [("a", stamp, "95.0", "120.0")] + LAYOUT_ROWS[3:]
        path.write_text("".join(line.format(*row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse(path)
        assert str(err.value) == f"{path}:4: non-finite timestamp {stamp.strip()!r}"

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_error_names_the_physical_line_after_a_multiline_field(self, tmp_path, layout):
        parse, line = LAYOUTS[layout]
        path = tmp_path / f"{layout}.txt"
        # the quoted id spans lines 2 and 3, so the 3-field row is on line 4
        rows = [LAYOUT_ROWS[0], ('"x\ny"', "1003", "30.0", "120.0")]
        text = "".join(line.format(*row) + "\n" for row in rows) + "c,1004,30.0\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse(path)
        assert str(err.value) == f"{path}:4: expected 4 fields, got 3"


# each reader of utf8_lines, the module it looks the name up in, and its header
READERS = {
    "parse_csv": (fedsim.data, CSV_HEADER),
    "read_rounds_csv": (fedsim.reports, fedsim.reports.CSV_COLUMNS),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_kept_error_holds_no_open_file(tmp_path, monkeypatch, reader):
    # the error's traceback keeps the reader's frame and the line generator in
    # it; the reader closes that generator, and so its file, as the error leaves
    module, header = READERS[reader]
    closed = []

    def recorded_lines(path):
        try:
            yield from utf8_lines(path)
        finally:
            closed.append(path)

    monkeypatch.setattr(module, "utf8_lines", recorded_lines)
    path = tmp_path / "bad.csv"
    path.write_text(",".join(header) + "\nbad,row\nnever,read\n", encoding="utf-8")
    with pytest.raises(FedsimError) as err:
        getattr(module, reader)(path)
    assert "bad.csv:2" in str(err.value)
    assert closed == [path]


# padded ids name the same vehicle as their stripped form, and "10" sorts
# before "9"
FLEET_IDS = ["a", " a", "b\t", "v9", "v10", "10", "9"]


def random_fleet_rows(rng):
    """(id, timestamp, lat, lon) text rows of an interleaved, unsorted fleet.

    Few distinct seconds make duplicate timestamps, written as ISO or as
    numbers; some coordinates are out of range or NaN.
    """
    rows = []
    for _ in range(int(rng.integers(0, 40))):
        second = int(rng.integers(0, 12))
        stamp = [
            str(1577836800 + second),
            repr(1577836800.0 + second),
            f"2020-01-01T00:00:{second:02d}",
            f"2020-01-01T08:00:{second:02d}+08:00",
        ][rng.integers(4)]
        lat, lon = rng.uniform(-95.0, 95.0), rng.uniform(-185.0, 185.0)
        if rng.random() < 0.1:
            lat = float("nan")
        if rng.random() < 0.1:
            lon = float("nan")
        rows.append((FLEET_IDS[rng.integers(len(FLEET_IDS))], stamp, repr(lat), repr(lon)))
    return rows


def assert_parses_as_loop(path, layout):
    parse, _ = LAYOUTS[layout]
    trajectories, rejected = parse(path)
    want, want_rejected = parse_rows_by_loop(path, tdrive=layout == "tdrive")
    assert rejected == want_rejected
    assert [t.vehicle_id for t in trajectories] == [vid for vid, _, _ in want]
    for traj, (_, ts, coords) in zip(trajectories, want):
        assert traj.timestamps.shape == ts.shape and traj.coords.shape == coords.shape
        assert traj.timestamps.tobytes() == ts.tobytes()
        assert traj.coords.tobytes() == coords.tobytes()


class TestParseAgainstLoop:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_random_fleets_parse_as_the_loop_does(self, tmp_path, layout):
        _, line = LAYOUTS[layout]
        rng = np.random.default_rng(8)
        path = tmp_path / f"{layout}.txt"
        for trial in range(150):
            rows = random_fleet_rows(rng)
            header = ["vehicle_id,timestamp,lat,lon"] if layout == "csv" and trial % 2 else []
            text = "".join(f"{row}\n" for row in header + [line.format(*r) for r in rows])
            path.write_text(text, encoding="utf-8")
            assert_parses_as_loop(path, layout)

    @pytest.mark.parametrize(
        "layout, text",
        [
            ("csv", ""),
            ("tdrive", ""),
            ("csv", "vehicle_id,timestamp,lat,lon\n"),
            ("csv", "a,1000,95.0,120.0\nb,1000,nan,120.0\n"),
            ("tdrive", "a,1000,120.0,95.0\nb,1000,120.0,nan\n"),
            ("csv", "b,1002,30.2,120.2\n a ,1001,30.1,120.1\nb,1002,30.3,120.3\na,1000,30.0,120.0\n"),
            ("csv", "v,2020-01-01T00:00:01,30.0,120.0\nv,1577836801,30.1,120.1\nv,1e3,30.2,120.2\n"),
        ],
    )
    def test_hand_picked_files_parse_as_the_loop_does(self, tmp_path, layout, text):
        path = tmp_path / f"{layout}.txt"
        path.write_text(text, encoding="utf-8")
        assert_parses_as_loop(path, layout)


class TestNormalize:
    def test_corners(self):
        bbox = BBox(0.0, 10.0, 0.0, 20.0)
        assert np.array_equal(bbox.normalize(np.array([[0.0, 0.0]])), [[0.0, 0.0]])
        assert np.array_equal(bbox.normalize(np.array([[10.0, 20.0]])), [[1.0, 1.0]])

    def test_hand_computed_point(self):
        bbox = BBox(0.0, 10.0, 0.0, 20.0)
        assert np.allclose(bbox.normalize(np.array([[5.0, 5.0]])), [[0.5, 0.25]])

    def test_inverse_recovers_degrees(self):
        rng = np.random.default_rng(0)
        coords = np.column_stack([rng.uniform(20, 40, 100), rng.uniform(100, 140, 100)])
        bbox = BBox.from_points(coords)
        # the per-axis scale that converts unit-square errors back to degrees
        back = bbox.normalize(coords) * bbox.scale() + [bbox.lat_min, bbox.lon_min]
        assert np.max(np.abs(back - coords)) < 1e-9

    def test_zero_extent_rejected(self):
        with pytest.raises(ConfigError):
            BBox(1.0, 1.0, 0.0, 2.0)


class TestPartitionByVehicle:
    def test_eight_vehicles_in_chunks_of_four(self):
        trajectories = synth_trajectories(seed=4, n_vehicles=8, points_each=12, kind="circle")
        clients = partition_by_vehicle(trajectories, vehicles_per_client=4)
        assert len(clients) == 2
        assert all(len(segments) == 4 for segments in clients)

    def test_one_vehicle_per_client(self):
        trajectories = synth_trajectories(seed=5, n_vehicles=5, points_each=9, kind="circle")
        clients = partition_by_vehicle(trajectories, vehicles_per_client=1)
        assert len(clients) == 5
        assert all(len(segments) == 1 for segments in clients)

    def test_leftover_vehicles_go_to_last_client(self):
        trajectories = synth_trajectories(seed=6, n_vehicles=9, points_each=7, kind="circle")
        clients = partition_by_vehicle(trajectories, vehicles_per_client=4)
        assert len(clients) == 2
        assert len(clients[0]) == 4
        assert len(clients[1]) == 5

    def test_zero_vehicles_rejected(self):
        with pytest.raises(ConfigError):
            partition_by_vehicle([], vehicles_per_client=1)


def test_partitions_hand_out_views_of_the_parsed_points():
    trajectories = synth_trajectories(seed=7, n_vehicles=5, points_each=30, kind="circle")
    clients = partition_by_vehicle(trajectories, vehicles_per_client=2)
    for segments in clients:
        for seg in segments:
            sources = [t for t in trajectories if np.shares_memory(seg, t.coords)]
            assert len(sources) == 1


class TestMakeWindows:
    def test_seven_points_one_window(self):
        inputs, targets = make_windows(np.zeros((7, 2)), seq_len=6)
        assert inputs.shape == (1, 6, 2) and targets.shape == (1, 2)

    def test_six_points_no_window(self):
        inputs, targets = make_windows(np.zeros((6, 2)), seq_len=6)
        assert inputs.shape == (0, 6, 2) and targets.shape == (0, 2)

    def test_enumerated_starts_for_ten_points(self):
        points = np.column_stack([np.arange(10.0), np.arange(10.0) * 2.0])
        inputs, targets = make_windows(points, seq_len=6)
        assert inputs.shape[0] == 4
        for k in range(4):
            assert np.array_equal(inputs[k], points[k : k + 6])
            assert np.array_equal(targets[k], points[k + 6])

    @pytest.mark.parametrize("seq_len", [1, 6])
    def test_matches_slices_as_read_only_views_of_the_points(self, seq_len):
        rng = np.random.default_rng(seq_len)
        for n in range(seq_len + 4):
            wide = rng.normal(size=(n, 4))
            # contiguous, a column-strided view, and a row-strided view
            for points in (wide[:, :2].copy(), wide[:, ::2], np.repeat(wide[:, :2], 2, axis=0)[::2]):
                inputs, targets = make_windows(points, seq_len)
                want_inputs, want_targets = windows_by_slices(points, seq_len)
                assert inputs.shape == want_inputs.shape and targets.shape == want_targets.shape
                assert np.array_equal(inputs, want_inputs) and np.array_equal(targets, want_targets)
                for out in (inputs, targets):
                    assert not out.flags.writeable
                    if inputs.shape[0]:
                        assert np.shares_memory(out, points)


class TestSynthTrajectories:
    def test_deterministic_under_seed(self):
        a = synth_trajectories(seed=7, n_vehicles=3, points_each=20, kind="random-walk")
        b = synth_trajectories(seed=7, n_vehicles=3, points_each=20, kind="random-walk")
        for ta, tb in zip(a, b):
            assert ta.vehicle_id == tb.vehicle_id
            assert np.array_equal(ta.coords, tb.coords)
            assert np.array_equal(ta.timestamps, tb.timestamps)

    def test_circle_points_stay_near_center(self):
        for traj in synth_trajectories(seed=8, n_vehicles=4, points_each=30, kind="circle"):
            center = traj.coords.mean(axis=0)
            radii = np.linalg.norm(traj.coords - center, axis=1)
            assert np.max(radii) < 1.0

    def test_sinusoid_vehicles_differ(self):
        a, b = synth_trajectories(seed=9, n_vehicles=2, points_each=25, kind="sinusoid")
        assert not np.allclose(a.coords, b.coords)

    def test_coordinates_within_valid_ranges(self):
        for kind in ("random-walk", "sinusoid", "circle"):
            for traj in synth_trajectories(seed=10, n_vehicles=3, points_each=50, kind=kind):
                assert np.all(np.abs(traj.coords[:, 0]) <= 90.0)
                assert np.all(np.abs(traj.coords[:, 1]) <= 180.0)
