"""Trajectory dataset handling: parsing, normalization, partitioning, windows.

Coordinates are kept as (lat, lon) degree pairs until normalization maps them
into the unit square for training. Partitioning never copies points into two
clients, and sliding windows never cross a trajectory (or split) boundary.
"""

from __future__ import annotations

import csv
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
        return float(raw)
    except ValueError:
        pass
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {raw!r}") from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


def _group_rows(rows: list[tuple[str, float, float, float]]) -> list[Trajectory]:
    by_vehicle: dict[str, list[tuple[float, float, float]]] = {}
    for vid, ts, lat, lon in rows:
        by_vehicle.setdefault(vid, []).append((ts, lat, lon))
    trajectories = []
    for vid in sorted(by_vehicle):
        pts = sorted(by_vehicle[vid], key=lambda p: p[0])
        # Duplicate timestamps cannot be ordered; keep the first occurrence.
        deduped = [pts[0]]
        for p in pts[1:]:
            if p[0] != deduped[-1][0]:
                deduped.append(p)
        ts = np.array([p[0] for p in deduped])
        coords = np.array([[p[1], p[2]] for p in deduped])
        trajectories.append(Trajectory(vid, ts, coords))
    return trajectories


def _coords_in_bounds(lat: float, lon: float) -> bool:
    return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0


def _read_rows(path: str | Path, tdrive: bool) -> tuple[list[Trajectory], int]:
    """Rows of four fields into per-vehicle trajectories, plus the rejected count.

    The CSV layout is `vehicle_id,timestamp,lat,lon` with an optional header
    line; the T-Drive layout is headerless `id,datetime,longitude,latitude`.
    """
    path = Path(path)
    rows: list[tuple[str, float, float, float]] = []
    rejected = 0
    with path.open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            header = not tdrive and lineno == 1 and [c.strip() for c in row] == CSV_HEADER
            if not row or header:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", path=path, line=lineno)
            try:
                vid = row[0].strip()
                ts = _parse_timestamp(row[1])
                first, second = float(row[2]), float(row[3])
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from exc
            if not vid:
                raise ParseError("empty vehicle id", path=path, line=lineno)
            lat, lon = (second, first) if tdrive else (first, second)
            if not _coords_in_bounds(lat, lon):
                rejected += 1
                continue
            rows.append((vid, ts, lat, lon))
    return _group_rows(rows), rejected


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
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for traj in trajectories:
            for ts, (lat, lon) in zip(traj.timestamps, traj.coords):
                writer.writerow([traj.vehicle_id, repr(float(ts)), repr(float(lat)), repr(float(lon))])


@dataclass(frozen=True)
class BBox:
    """Axis-aligned lat/lon box defining the normalization map."""

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
    if n_clients < 1 or points_per_client < 1:
        raise ConfigError("n_clients and points_per_client must be >= 1")
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
    if vehicles_per_client < 1:
        raise ConfigError("vehicles_per_client must be >= 1")
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
    n = points.shape[0]
    m = max(0, n - seq_len)
    if m == 0:
        return np.zeros((0, seq_len, 2)), np.zeros((0, 2))
    inputs = np.stack([points[k : k + seq_len] for k in range(m)])
    targets = points[seq_len : seq_len + m].copy()
    return inputs, targets


def synth_trajectories(
    seed: int, n_vehicles: int, points_each: int, kind: str
) -> list[Trajectory]:
    """Deterministic synthetic fleets with per-vehicle heterogeneity.

    Each vehicle gets its own heading / phase / radius so client datasets are
    non-i.i.d. when partitioned by vehicle. Coordinates stay near (30N, 120E)
    with small extents, well inside valid degree ranges.
    """
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}, expected one of {SYNTH_KINDS}")
    if n_vehicles < 1 or points_each < 1:
        raise ConfigError("n_vehicles and points_each must be >= 1")
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
