"""Trajectory dataset handling: parsing, normalization, partitioning, windows.

Coordinates are kept as (lat, lon) degree pairs until normalization maps them
into the unit square for training. Partitioning gives each point to at most
one client, and sliding windows never cross a trajectory (or split) boundary.
No point is copied: a partition's segments are views of the parsed coords,
and windows are read-only views of the points they slide over, so a run of n
points is held once, not once per window step.
"""

from __future__ import annotations

import contextlib
import csv
import math
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ParseError

CSV_HEADER = ["vehicle_id", "timestamp", "lat", "lon"]

SYNTH_KINDS = ("random-walk", "sinusoid", "circle")


@dataclass
class Trajectory:
    """All points of one vehicle, time-sorted: float64 ``timestamps`` of
    shape (n,) and lat/lon ``coords`` of shape (n, 2), with n >= 1."""

    vehicle_id: str
    timestamps: np.ndarray
    coords: np.ndarray

    @property
    def n_points(self) -> int:
        return self.timestamps.size


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
    """The lines of a text file, ends kept, for csv.reader; one leading
    byte-order mark, as Windows tools write, is dropped.

    An unreadable path, or bytes that are not UTF-8, raise ParseError; the
    decoder reads ahead, so a bad byte's line is found from the raw bytes.
    """
    try:
        fh = Path(path).open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from None
    with fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError as exc:
            reason = exc.reason
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
        where = path
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        where = f"{path}:{line}"
    raise ParseError(f"{where}: not UTF-8 text ({reason})")


def parse_csv(path: str | Path, tdrive: bool = False) -> tuple[list[Trajectory], int]:
    """Rows of four fields into per-vehicle trajectories, plus the rejected count.

    The CSV layout is `vehicle_id,timestamp,lat,lon` with an optional header
    line; the T-Drive layout (``tdrive=True``) is headerless
    `id,datetime,longitude,latitude`. One streaming pass checks each row
    (ParseError at its line, also for a field over csv's size limit) into
    typed columns. Rows out of the degree ranges
    (NaN too) are dropped and counted; a stable lexsort keeps the first row of
    a duplicate timestamp in file order.
    """
    path = Path(path)
    ids: dict[str, int] = {}
    vix, ts, first, second = array("q"), array("d"), array("d"), array("d")
    # closed on the way out, so an error that is kept holds no open file
    with contextlib.closing(utf8_lines(path)) as lines:
        reader = csv.reader(lines)
        try:
            for row in reader:
                # the physical line a row ends on; a quoted field may span lines
                lineno = reader.line_num
                header = not tdrive and lineno == 1 and [c.strip() for c in row] == CSV_HEADER
                if not row or header:
                    continue
                if len(row) != 4:
                    raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
                try:
                    vid = row[0].strip()
                    ts.append(_parse_timestamp(row[1]))
                    first.append(float(row[2]))
                    second.append(float(row[3]))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                if not vid:
                    raise ParseError(f"{path}:{lineno}: empty vehicle id")
                vix.append(ids.setdefault(vid, len(ids)))
        except csv.Error as exc:  # a field over csv's size limit
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
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
    """Axis-aligned lat/lon box: the normalization map, or a weak-signal area.

    Its methods take float64 coordinate arrays whose last axis is (lat, lon).
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise ConfigError(f"bbox must have positive extent on both axes: {self}")

    @classmethod
    def from_points(cls, coords: np.ndarray) -> "BBox":
        return cls(
            float(coords[:, 0].min()),
            float(coords[:, 0].max()),
            float(coords[:, 1].min()),
            float(coords[:, 1].max()),
        )

    def contains(self, coords: np.ndarray) -> np.ndarray:
        return (
            (coords[..., 0] >= self.lat_min)
            & (coords[..., 0] <= self.lat_max)
            & (coords[..., 1] >= self.lon_min)
            & (coords[..., 1] <= self.lon_max)
        )

    def normalize(self, coords: np.ndarray) -> np.ndarray:
        out = np.empty_like(coords)
        out[..., 0] = (coords[..., 0] - self.lat_min) / (self.lat_max - self.lat_min)
        out[..., 1] = (coords[..., 1] - self.lon_min) / (self.lon_max - self.lon_min)
        return out

    def scale(self) -> np.ndarray:
        """Per-axis degree extent; converts unit-square errors back to degrees."""
        return np.array([self.lat_max - self.lat_min, self.lon_max - self.lon_min])


def partition_by_vehicle(
    trajectories: list[Trajectory], vehicles_per_client: int
) -> list[list[np.ndarray]]:
    """Chunk vehicles (sorted by id) into clients; leftovers go to the last.

    Returns each client's list of segments, by client id: its vehicles' coords.
    Client data sizes may be highly skewed; that is the point of this mode.
    """
    ordered = sorted(trajectories, key=lambda t: t.vehicle_id)
    if len(ordered) < vehicles_per_client:
        raise ConfigError(
            f"have {len(ordered)} vehicles, need at least {vehicles_per_client}"
        )
    n_clients = len(ordered) // vehicles_per_client
    clients: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for idx, traj in enumerate(ordered):
        cid = min(idx // vehicles_per_client, n_clients - 1)
        clients[cid].append(traj.coords)
    return clients


def make_windows(points: np.ndarray, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 sliding windows over one contiguous run of float64 (n, 2) points.

    Returns (inputs, targets) with shapes (m, seq_len, 2) and (m, 2) where
    m = max(0, n - seq_len); window k covers points k..k+seq_len. Both are
    read-only strided views of ``points``: no point is copied, and a gather
    such as ``inputs[rows]`` makes the copy it needs.
    """
    m = max(0, points.shape[0] - seq_len)
    row, col = points.strides
    # as_strided rather than sliding_window_view: under half the cost per call
    inputs = as_strided(points, (m, seq_len, points.shape[1]), (row, row, col), writeable=False)
    targets = points[seq_len:]
    targets.flags.writeable = False
    return inputs, targets


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
    try:
        k = np.arange(points_each, dtype=float)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{points_each} points per vehicle: {exc}") from exc
    trajectories = []
    for v in range(n_vehicles):
        vid = f"v{v:03d}"
        ts = t0 + step_s * k
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
