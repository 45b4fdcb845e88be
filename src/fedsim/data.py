"""Trajectory dataset handling: parsing, normalization, partitioning, windows.

Coordinates are kept as (lat, lon) degree pairs until normalization maps them
into the unit square for training. Partitioning never copies points into two
clients, and sliding windows never cross a trajectory (or split) boundary.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

CSV_HEADER = ["vehicle_id", "timestamp", "lat", "lon"]

SYNTH_KINDS = ("random-walk", "sinusoid", "circle")


@dataclass
class Trajectory:
    """All points of one vehicle, time-sorted; coords is an (n, 2) lat/lon array."""

    vehicle_id: str
    timestamps: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (self.timestamps.size, 2):
            raise ConfigError(
                f"coords shape {self.coords.shape} inconsistent with "
                f"{self.timestamps.size} timestamps"
            )
        if self.timestamps.size < 1:
            raise ConfigError("a trajectory needs at least one point")

    @property
    def n_points(self) -> int:
        return self.timestamps.size


@dataclass
class ClientDataset:
    """One client's share of the data as contiguous raw-coordinate segments."""

    client_id: int
    segments: list[np.ndarray] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return sum(seg.shape[0] for seg in self.segments)

    def all_points(self) -> np.ndarray:
        if not self.segments:
            return np.zeros((0, 2))
        return np.concatenate(self.segments, axis=0)


def _parse_timestamp(raw: str) -> float:
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        try:
            parsed = datetime.fromisoformat(raw)
        except ValueError as exc:
            raise ValueError(f"unparseable timestamp {raw!r}") from exc
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed.timestamp()
    if not math.isfinite(value):
        raise ValueError(f"non-finite timestamp {raw!r}")
    return value


def utf8_lines(path: str | Path):
    """The lines of a text file, ends kept, for csv.reader.

    An unreadable path, or bytes that are not UTF-8, raise ParseError; the
    decoder reads ahead, so a bad byte's line is found from the raw bytes.
    """
    try:
        fh = Path(path).open(newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read ({exc.strerror})", path=path) from None
    with fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError as exc:
            reason = exc.reason
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
        line = None
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
    raise ParseError(f"not UTF-8 text ({reason})", path=path, line=line)


def _read_rows(path: str | Path, tdrive: bool) -> tuple[list[Trajectory], int]:
    """Rows of four fields into per-vehicle trajectories, plus the rejected count.

    The CSV layout is `vehicle_id,timestamp,lat,lon` with an optional header
    line; the T-Drive layout is headerless `id,datetime,longitude,latitude`.
    One streaming pass checks each row (ParseError at its line) into typed
    columns. Rows out of the degree ranges (NaN too) are dropped and counted;
    a stable lexsort keeps the first row of a duplicate timestamp in file order.
    """
    path = Path(path)
    ids: dict[str, int] = {}
    vix, ts, first, second = array("q"), array("d"), array("d"), array("d")
    reader = csv.reader(utf8_lines(path))
    for row in reader:
        # the physical line a row ends on; a quoted field may span lines
        lineno = reader.line_num
        header = not tdrive and lineno == 1 and [c.strip() for c in row] == CSV_HEADER
        if not row or header:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", path=path, line=lineno)
        try:
            vid = row[0].strip()
            ts.append(_parse_timestamp(row[1]))
            first.append(float(row[2]))
            second.append(float(row[3]))
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from exc
        if not vid:
            raise ParseError("empty vehicle id", path=path, line=lineno)
        vix.append(ids.setdefault(vid, len(ids)))
    names = sorted(ids)
    rank = np.argsort([ids[name] for name in names])  # vehicle index -> id rank
    vehicle, ts = rank[np.frombuffer(vix, dtype=np.int64)], np.frombuffer(ts)
    lat, lon = map(np.frombuffer, (second, first) if tdrive else (first, second))
    keep = (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)
    order = np.flatnonzero(keep)[np.lexsort((ts[keep], vehicle[keep]))]
    vehicle, ts = vehicle[order], ts[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (vehicle[1:] != vehicle[:-1]) | (ts[1:] != ts[:-1])
    order, vehicle, ts = order[new], vehicle[new], ts[new]
    cuts = np.flatnonzero(vehicle[1:] != vehicle[:-1]) + 1
    coords = np.column_stack((lat[order], lon[order]))
    parts = zip(np.split(vehicle, cuts), np.split(ts, cuts), np.split(coords, cuts))
    trajectories = [Trajectory(names[v[0]], t, c) for v, t, c in parts if t.size]
    return trajectories, int(keep.size - np.count_nonzero(keep))


def parse_csv(path: str | Path) -> tuple[list[Trajectory], int]:
    """Read `vehicle_id,timestamp,lat,lon` rows into per-vehicle trajectories.

    Rows with out-of-range coordinates are dropped; the second return value
    counts them. Structurally malformed rows raise :class:`ParseError` with
    the line number.
    """
    return _read_rows(path, tdrive=False)


def parse_tdrive(path: str | Path) -> tuple[list[Trajectory], int]:
    """Read headerless T-Drive rows `id,datetime,longitude,latitude`, as
    :func:`parse_csv` does; note the swapped axis order."""
    return _read_rows(path, tdrive=True)


def write_csv(path: str | Path, trajectories: list[Trajectory]) -> None:
    """Write trajectories in the `vehicle_id,timestamp,lat,lon` format.

    Floats are written with repr precision so a parse round-trips exactly.
    Missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for traj in trajectories:
            for ts, (lat, lon) in zip(traj.timestamps, traj.coords):
                writer.writerow([traj.vehicle_id, repr(float(ts)), repr(float(lat)), repr(float(lon))])


@dataclass(frozen=True)
class BBox:
    """Axis-aligned lat/lon box: the normalization map, or a weak-signal area."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise ConfigError(f"bbox must have positive extent on both axes: {self}")

    @classmethod
    def from_points(cls, coords: np.ndarray) -> "BBox":
        coords = np.asarray(coords, dtype=float)
        if coords.size == 0:
            raise ConfigError("cannot build a bbox from zero points")
        return cls(
            float(coords[:, 0].min()),
            float(coords[:, 0].max()),
            float(coords[:, 1].min()),
            float(coords[:, 1].max()),
        )

    def contains(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return (
            (coords[..., 0] >= self.lat_min)
            & (coords[..., 0] <= self.lat_max)
            & (coords[..., 1] >= self.lon_min)
            & (coords[..., 1] <= self.lon_max)
        )

    def normalize(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        out = np.empty_like(coords)
        out[..., 0] = (coords[..., 0] - self.lat_min) / (self.lat_max - self.lat_min)
        out[..., 1] = (coords[..., 1] - self.lon_min) / (self.lon_max - self.lon_min)
        return out

    def scale(self) -> np.ndarray:
        """Per-axis degree extent; converts unit-square errors back to degrees."""
        return np.array([self.lat_max - self.lat_min, self.lon_max - self.lon_min])


def partition_equal(
    trajectories: list[Trajectory], n_clients: int, points_per_client: int
) -> list[ClientDataset]:
    """Give each client `points_per_client` consecutive points in file order.

    A trajectory may be split across a client boundary; each client's share of
    it becomes its own segment so windows never span the split.
    """
    total = sum(t.n_points for t in trajectories)
    needed = n_clients * points_per_client
    if total < needed:
        raise ConfigError(f"need {needed} points for {n_clients} clients, have {total}")
    clients = [ClientDataset(client_id=i) for i in range(n_clients)]
    cid = 0
    room = points_per_client
    for traj in trajectories:
        offset = 0
        while offset < traj.n_points and cid < n_clients:
            take = min(room, traj.n_points - offset)
            clients[cid].segments.append(traj.coords[offset : offset + take].copy())
            offset += take
            room -= take
            if room == 0:
                cid += 1
                room = points_per_client
        if cid >= n_clients:
            break
    return clients


def partition_by_vehicle(
    trajectories: list[Trajectory], vehicles_per_client: int
) -> list[ClientDataset]:
    """Chunk vehicles (sorted by id) into clients; leftovers go to the last.

    Client data sizes may be highly skewed; that is the point of this mode.
    """
    ordered = sorted(trajectories, key=lambda t: t.vehicle_id)
    if not ordered:
        raise ConfigError("no vehicles to partition")
    if len(ordered) < vehicles_per_client:
        raise ConfigError(
            f"have {len(ordered)} vehicles, need at least {vehicles_per_client}"
        )
    n_clients = len(ordered) // vehicles_per_client
    clients = [ClientDataset(client_id=i) for i in range(n_clients)]
    for idx, traj in enumerate(ordered):
        cid = min(idx // vehicles_per_client, n_clients - 1)
        clients[cid].segments.append(traj.coords.copy())
    return clients


def make_windows(points: np.ndarray, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 sliding windows over one contiguous point run.

    Returns (inputs, targets) with shapes (m, seq_len, 2) and (m, 2) where
    m = max(0, n - seq_len); window k covers points k..k+seq_len.
    """
    points = np.asarray(points, dtype=float)
    m = max(0, points.shape[0] - seq_len)
    # one slice copy per time step; the result owns its memory
    inputs = np.empty((m, seq_len, points.shape[1]))
    for k in range(seq_len):
        inputs[:, k] = points[k : k + m]
    return inputs, points[seq_len : seq_len + m].copy()


def synth_trajectories(
    seed: int, n_vehicles: int, points_each: int, kind: str
) -> list[Trajectory]:
    """Deterministic synthetic fleets with per-vehicle heterogeneity.

    Each vehicle gets its own heading / phase / radius so client datasets are
    non-i.i.d. when partitioned by vehicle. Coordinates stay near (30N, 120E)
    with small extents, well inside valid degree ranges.
    """
    rng = np.random.default_rng(seed)
    base_lat, base_lon = 30.0, 120.0
    t0 = 1_600_000_000.0
    step_s = 60.0
    trajectories = []
    for v in range(n_vehicles):
        vid = f"v{v:03d}"
        ts = t0 + step_s * np.arange(points_each)
        k = np.arange(points_each, dtype=float)
        if kind == "random-walk":
            heading = rng.uniform(0.0, 2.0 * np.pi)
            drift = 0.004 * np.array([np.sin(heading), np.cos(heading)])
            steps = drift + rng.normal(scale=0.002, size=(points_each, 2))
            start = np.array([base_lat, base_lon]) + rng.uniform(-0.5, 0.5, size=2)
            coords = start + np.cumsum(steps, axis=0)
        elif kind == "sinusoid":
            # one motion law for the whole fleet; heterogeneity comes from the
            # per-vehicle phase and corridor offset, not from the dynamics
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp, freq = 0.4, 0.1
            lat = base_lat + amp * np.sin(freq * k + phase) + rng.normal(scale=0.01, size=points_each)
            lon = base_lon + 0.01 * k + rng.uniform(-0.5, 0.5) + rng.normal(scale=0.01, size=points_each)
            coords = np.column_stack([lat, lon])
        else:  # circle
            radius = rng.uniform(0.1, 0.5)
            omega = rng.uniform(0.05, 0.2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            center = np.array([base_lat, base_lon]) + rng.uniform(-0.3, 0.3, size=2)
            lat = center[0] + radius * np.sin(omega * k + phase)
            lon = center[1] + radius * np.cos(omega * k + phase)
            coords = np.column_stack([lat, lon])
        trajectories.append(Trajectory(vid, ts, coords))
    return trajectories
