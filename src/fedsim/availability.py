"""Per-point availability and the streaming reveal process.

Every training point of a client carries a probability of ever becoming
usable, and the availability scenarios differ only in how those
probabilities are assigned. A client's :class:`RevealState` holds them
with its reveal progress. Points arrive slice by slice as rounds progress;
each point either joins the available set or is permanently lost the moment
its slice is processed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import BBox


@dataclass
class RevealState:
    """One client's training stream and the progress of its reveal.

    ``probs[i]`` is the probability that point i ever becomes usable. Points
    in [0, cursor) have been processed; each is either available or lost,
    and neither set ever shrinks.
    """

    probs: np.ndarray
    slice_size: int
    cursor: int = 0
    available: np.ndarray = field(init=False)

    def __post_init__(self):
        self.available = np.zeros(self.n_points, dtype=bool)

    @property
    def n_points(self) -> int:
        return self.probs.size


def assign_random(n_points: int, alpha_dir: float, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet availability: heterogeneous per-point inclusion probabilities.

    A symmetric Dirichlet draw sums to 1, so it is rescaled by the point count
    (making the mean 1) and clipped into [0, 1]. Small concentrations produce
    bursty plans where a few points are near-certain and many are unlikely.
    """
    draw = rng.dirichlet(np.full(n_points, alpha_dir))
    return np.minimum(1.0, n_points * draw)


def assign_regional(
    coords: np.ndarray, weak_areas: list[BBox], p_low: float, p_high: float
) -> np.ndarray:
    """Region availability: p_low inside any weak-signal box, p_high outside."""
    coords = np.asarray(coords, dtype=float)
    probs = np.full(coords.shape[0], p_high, dtype=float)
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
    counts = np.asarray(client_point_counts, dtype=float)
    return np.where(counts >= threshold, p_company, p_private)


def datasize_threshold(client_point_counts: list[int], percentile: float) -> float:
    """Count threshold at the given percentile of per-client point counts."""
    counts = np.asarray(client_point_counts, dtype=float)
    return float(np.percentile(counts, percentile, method="higher"))


def reveal_round(state: RevealState, rng: np.random.Generator) -> np.ndarray:
    """Process the next slice of the stream; returns newly available indices.

    Each point of the slice independently joins the available set with its
    probability, otherwise it is permanently lost. Past the end of the
    stream this is a no-op returning an empty array.
    """
    start = state.cursor
    stop = min(start + state.slice_size, state.n_points)
    if start >= stop:
        return np.zeros(0, dtype=int)
    draws = rng.random(stop - start)
    joined = draws < state.probs[start:stop]
    idx = np.arange(start, stop)
    state.available[idx[joined]] = True
    state.cursor = stop
    return idx[joined]
