"""Per-point availability plans and the streaming reveal process.

Every training point of a client carries a probability of ever becoming
usable. Points arrive slice by slice as rounds progress; each point either
joins the available set or is permanently lost the moment its slice is
processed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class WeakArea:
    """A lat/lon box with degraded signal coverage."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise ConfigError(f"weak area must have positive extent: {self}")

    def contains(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        return (
            (coords[..., 0] >= self.lat_min)
            & (coords[..., 0] <= self.lat_max)
            & (coords[..., 1] >= self.lon_min)
            & (coords[..., 1] <= self.lon_max)
        )


@dataclass
class AvailabilityPlan:
    """One inclusion probability per point of a client's training stream."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 1:
            raise ConfigError("plan probabilities must be a flat vector")
        if self.probs.size and (self.probs.min() < 0.0 or self.probs.max() > 1.0):
            raise ConfigError("plan probabilities must lie in [0, 1]")

    @property
    def n_points(self) -> int:
        return self.probs.size


@dataclass
class RevealState:
    """Progress of the streaming reveal over one client's training stream.

    Points in [0, cursor) have been processed; each is either available or
    lost, and neither set ever shrinks.
    """

    n_points: int
    slice_size: int
    cursor: int = 0
    available: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.slice_size < 1:
            raise ConfigError("slice size must be >= 1")
        if self.available is None:
            self.available = np.zeros(self.n_points, dtype=bool)

    @property
    def lost(self) -> np.ndarray:
        """Processed points that did not join the available set."""
        return (np.arange(self.n_points) < self.cursor) & ~self.available

    @property
    def n_available(self) -> int:
        return int(self.available.sum())

    @property
    def n_lost(self) -> int:
        return int(self.lost.sum())


def assign_random(n_points: int, alpha_dir: float, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet availability: heterogeneous per-point inclusion probabilities.

    A symmetric Dirichlet draw sums to 1, so it is rescaled by the point count
    (making the mean 1) and clipped into [0, 1]. Small concentrations produce
    bursty plans where a few points are near-certain and many are unlikely.
    """
    if alpha_dir <= 0:
        raise ConfigError(f"Dirichlet concentration must be positive, got {alpha_dir}")
    if n_points < 1:
        raise ConfigError("need at least one point")
    draw = rng.dirichlet(np.full(n_points, alpha_dir))
    return np.minimum(1.0, n_points * draw)


def assign_regional(
    coords: np.ndarray, weak_areas: list[WeakArea], p_low: float, p_high: float
) -> np.ndarray:
    """Region availability: p_low inside any weak-signal area, p_high outside."""
    if not (0.0 <= p_low <= p_high <= 1.0):
        raise ConfigError(f"need 0 <= p_low <= p_high <= 1, got {p_low}, {p_high}")
    coords = np.asarray(coords, dtype=float)
    probs = np.full(coords.shape[0], p_high)
    for area in weak_areas:
        probs[area.contains(coords)] = p_low
    return probs


def assign_by_datasize(
    client_point_counts: list[int], threshold: float, p_company: float, p_private: float
) -> np.ndarray:
    """Data-size availability: one probability per client, by fleet size.

    Clients at or above the threshold count as company devices and receive
    p_company; the rest are private devices at p_private.
    """
    if threshold <= 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    counts = np.asarray(client_point_counts, dtype=float)
    return np.where(counts >= threshold, p_company, p_private)


def datasize_threshold(client_point_counts: list[int], percentile: float) -> float:
    """Count threshold at the given percentile of per-client point counts."""
    if not 0.0 < percentile < 100.0:
        raise ConfigError(f"percentile must be in (0, 100), got {percentile}")
    counts = np.asarray(client_point_counts, dtype=float)
    return float(np.percentile(counts, percentile, method="higher"))


def reveal_round(
    state: RevealState, plan: AvailabilityPlan, rng: np.random.Generator
) -> np.ndarray:
    """Process the next slice of the stream; returns newly available indices.

    Each point of the slice independently joins the available set with its
    plan probability, otherwise it is permanently lost. Past the end of the
    stream this is a no-op returning an empty array.
    """
    if plan.n_points != state.n_points:
        raise ConfigError(
            f"plan covers {plan.n_points} points, state tracks {state.n_points}"
        )
    start = state.cursor
    stop = min(start + state.slice_size, state.n_points)
    if start >= stop:
        return np.zeros(0, dtype=int)
    draws = rng.random(stop - start)
    joined = draws < plan.probs[start:stop]
    idx = np.arange(start, stop)
    state.available[idx[joined]] = True
    state.cursor = stop
    return idx[joined]
