import numpy as np
import pytest

from fedsim.data import (
    BBox,
    make_windows,
    parse_csv,
    parse_tdrive,
    partition_by_vehicle,
    partition_equal,
    synth_trajectories,
    write_csv,
)
from fedsim.errors import ConfigError, ParseError


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
        with pytest.raises(ParseError) as err:
            parse_csv(fixture_csv(tmp_path, rows))
        assert err.value.line == 3

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


class TestParseTdrive:
    def test_swapped_axis_order(self, tmp_path):
        path = tmp_path / "tdrive.txt"
        path.write_text(
            "1,2008-02-02 15:36:08,116.51172,39.92123\n"
            "1,2008-02-02 15:46:08,116.51135,39.93883\n",
            encoding="utf-8",
        )
        trajectories, rejected = parse_tdrive(path)
        assert rejected == 0
        assert trajectories[0].coords[0, 0] == pytest.approx(39.92123)  # lat
        assert trajectories[0].coords[0, 1] == pytest.approx(116.51172)  # lon

    def test_csv_header_is_not_skipped(self, tmp_path):
        path = tmp_path / "tdrive.txt"
        path.write_text("vehicle_id,timestamp,lat,lon\n1,1000,116.5,39.9\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_tdrive(path)
        assert err.value.line == 1


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
    "tdrive": (parse_tdrive, "{0},{1},{3},{2}"),
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
        with pytest.raises(ParseError) as err:
            parse(write(LAYOUT_ROWS[:2] + [malformed] + LAYOUT_ROWS[2:]))
        assert err.value.line == 3
        # the third field of the line is the first coordinate read
        assert repr(line.format(*malformed).split(",")[2]) in str(err.value)


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


class TestPartitionEqual:
    def test_four_clients_twenty_five_each(self):
        trajectories = synth_trajectories(seed=1, n_vehicles=2, points_each=50, kind="circle")
        clients = partition_equal(trajectories, n_clients=4, points_per_client=25)
        assert len(clients) == 4
        assert all(c.n_points == 25 for c in clients)
        stacked = np.concatenate([c.all_points() for c in clients])
        source = np.concatenate([t.coords for t in trajectories])
        assert np.array_equal(stacked, source[:100])

    def test_every_point_assigned_to_at_most_one_client(self):
        trajectories = synth_trajectories(seed=2, n_vehicles=3, points_each=40, kind="sinusoid")
        clients = partition_equal(trajectories, n_clients=3, points_per_client=30)
        seen = set()
        for c in clients:
            for row in c.all_points():
                key = (row[0], row[1])
                assert key not in seen
                seen.add(key)

    def test_insufficient_data_rejected(self):
        trajectories = synth_trajectories(seed=3, n_vehicles=1, points_each=10, kind="circle")
        with pytest.raises(ConfigError):
            partition_equal(trajectories, n_clients=2, points_per_client=10)


class TestPartitionByVehicle:
    def test_eight_vehicles_in_chunks_of_four(self):
        trajectories = synth_trajectories(seed=4, n_vehicles=8, points_each=12, kind="circle")
        clients = partition_by_vehicle(trajectories, vehicles_per_client=4)
        assert len(clients) == 2
        assert all(len(c.segments) == 4 for c in clients)

    def test_one_vehicle_per_client(self):
        trajectories = synth_trajectories(seed=5, n_vehicles=5, points_each=9, kind="circle")
        clients = partition_by_vehicle(trajectories, vehicles_per_client=1)
        assert len(clients) == 5
        assert all(len(c.segments) == 1 for c in clients)

    def test_leftover_vehicles_go_to_last_client(self):
        trajectories = synth_trajectories(seed=6, n_vehicles=9, points_each=7, kind="circle")
        clients = partition_by_vehicle(trajectories, vehicles_per_client=4)
        assert len(clients) == 2
        assert len(clients[0].segments) == 4
        assert len(clients[1].segments) == 5

    def test_zero_vehicles_rejected(self):
        with pytest.raises(ConfigError):
            partition_by_vehicle([], vehicles_per_client=1)


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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            synth_trajectories(seed=1, n_vehicles=1, points_each=5, kind="zigzag")

    def test_coordinates_within_valid_ranges(self):
        for kind in ("random-walk", "sinusoid", "circle"):
            for traj in synth_trajectories(seed=10, n_vehicles=3, points_each=50, kind=kind):
                assert np.all(np.abs(traj.coords[:, 0]) <= 90.0)
                assert np.all(np.abs(traj.coords[:, 1]) <= 180.0)
