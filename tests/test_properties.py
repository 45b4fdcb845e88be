"""Property tests over generated inputs: the parsers against the scalar
oracles, and the invariants of the streaming reveal.

The examples come from the derandomized profile in conftest.py.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from fedsim.availability import RevealState, reveal_round  # noqa: E402
from fedsim.data import Trajectory, parse_csv, parse_tdrive, write_csv  # noqa: E402

from oracles import parse_rows_by_loop  # noqa: E402

# ids that csv quoting and the parser's strip leave as they are
VEHICLE_IDS = st.text(st.sampled_from("ab9_ ,\"'-é"), min_size=1, max_size=6).filter(
    lambda vid: vid == vid.strip()
)
FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def fleets(draw):
    """Distinct vehicles with distinct, unsorted timestamps and in-range points."""
    fleet = []
    for vid in draw(st.lists(VEHICLE_IDS, max_size=5, unique=True)):
        ts = draw(st.lists(st.floats(**FINITE), min_size=1, max_size=8, unique=True))
        lat = draw(st.lists(st.floats(-90.0, 90.0), min_size=len(ts), max_size=len(ts)))
        lon = draw(st.lists(st.floats(-180.0, 180.0), min_size=len(ts), max_size=len(ts)))
        fleet.append(Trajectory(vid, ts, np.column_stack([lat, lon])))
    return fleet


@given(fleets())
def test_write_then_parse_round_trips(tmp_path_factory, fleet):
    path = tmp_path_factory.mktemp("round_trip") / "fleet.csv"
    write_csv(path, fleet)
    parsed, rejected = parse_csv(path)
    assert rejected == 0
    assert [t.vehicle_id for t in parsed] == sorted(t.vehicle_id for t in fleet)
    for traj in parsed:
        (source,) = [t for t in fleet if t.vehicle_id == traj.vehicle_id]
        order = np.argsort(source.timestamps, kind="stable")
        assert traj.timestamps.tobytes() == source.timestamps[order].tobytes()
        assert traj.coords.tobytes() == source.coords[order].tobytes()


# a few distinct values, so rows share vehicles and timestamps; coordinates
# may be out of range or NaN
ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", " b ", "10", "9"]),
        st.integers(0, 5).map(lambda s: str(1000 + s)),
        st.one_of(st.floats(-95.0, 95.0), st.just(float("nan"))).map(repr),
        st.one_of(st.floats(-185.0, 185.0), st.just(float("inf"))).map(repr),
    ),
    max_size=30,
)


@given(ROWS)
def test_csv_and_its_tdrive_copy_parse_alike(tmp_path_factory, rows):
    folder = tmp_path_factory.mktemp("layouts")
    csv_path, tdrive_path = folder / "fleet.csv", folder / "fleet.txt"
    csv_path.write_text(
        "vehicle_id,timestamp,lat,lon\n" + "".join(f"{v},{t},{a},{o}\n" for v, t, a, o in rows),
        encoding="utf-8",
    )
    tdrive_path.write_text("".join(f"{v},{t},{o},{a}\n" for v, t, a, o in rows), encoding="utf-8")
    from_csv, csv_rejected = parse_csv(csv_path)
    from_tdrive, tdrive_rejected = parse_tdrive(tdrive_path)
    want, want_rejected = parse_rows_by_loop(csv_path, tdrive=False)
    assert csv_rejected == tdrive_rejected == want_rejected
    assert len(from_csv) == len(from_tdrive) == len(want)
    for a, b, (vid, ts, coords) in zip(from_csv, from_tdrive, want):
        assert a.vehicle_id == b.vehicle_id == vid
        assert a.timestamps.tobytes() == b.timestamps.tobytes() == ts.tobytes()
        assert a.coords.tobytes() == b.coords.tobytes() == coords.tobytes()


@given(
    st.lists(st.floats(0.0, 1.0), max_size=60),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
def test_reveal_sets_only_grow_and_classify_the_processed_prefix(probs, slice_size, seed):
    state = RevealState(np.array(probs, dtype=float), slice_size)
    rng = np.random.default_rng(seed)
    while True:
        cursor, available, lost = state.cursor, state.available.copy(), state.lost
        new = reveal_round(state, rng)
        assert state.cursor == min(cursor + slice_size, state.n_points)
        # the returned indices are exactly the points that just became available
        assert new.tolist() == np.flatnonzero(state.available & ~available).tolist()
        # neither set shrinks, and they never overlap
        assert np.all(state.available[available]) and np.all(state.lost[lost])
        assert not np.any(state.available & state.lost)
        # the processed prefix is fully classified and nothing past it is marked
        assert state.n_available + state.n_lost == state.cursor
        assert not np.any(state.available[state.cursor :] | state.lost[state.cursor :])
        if state.cursor == cursor:  # past the end: a no-op
            assert new.size == 0
            break
