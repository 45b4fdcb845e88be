"""Per-point availability and the streaming reveal process.

Every training point of a client carries a probability of ever becoming
usable, and the availability scenarios differ only in how those
probabilities are assigned. Each point's fate, joined or lost, is drawn once
when the client is set up; points arrive slice by slice as rounds progress,
and a fate becomes known the moment its slice is revealed. A lost point
never joins later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BBox

# Regional scenario: a point's availability inside any weak-signal box, and outside them all.
P_LOW = 0.2
P_HIGH = 0.9
# Datasize scenario: clients at or above this percentile of point counts are company
# devices, available at P_COMPANY; the others are private devices, at P_PRIVATE.
DATASIZE_PERCENTILE = 90.0
P_COMPANY = 0.95
P_PRIVATE = 0.3


@dataclass
class RevealState:
    """One client's training stream and the progress of its reveal.

    ``joins[i]`` is point i's fate, drawn at set-up: whether it ever becomes
    usable. Points in [0, cursor) have been revealed.
    """

    joins: np.ndarray
    slice_size: int
    cursor: int = 0


def assign_random(n_points: int, alpha_dir: float, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet availability: heterogeneous per-point inclusion probabilities.

    A symmetric Dirichlet draw sums to 1, so it is rescaled by the point count
    (making the mean 1) and clipped into [0, 1]. Small concentrations produce
    bursty plans where a few points are near-certain and many are unlikely.
    """
    draw = rng.dirichlet(np.full(n_points, alpha_dir))
    return np.minimum(1.0, n_points * draw)


def assign_regional(coords: np.ndarray, weak_areas: list[BBox]) -> np.ndarray:
    """Region availability over float64 (n, 2) coordinates: P_LOW inside any
    weak-signal box, P_HIGH outside."""
    probs = np.full(coords.shape[0], P_HIGH, dtype=float)
    for area in weak_areas:
        probs[area.contains(coords)] = P_LOW
    return probs


def assign_by_datasize(counts: list[int]) -> np.ndarray:
    """Data-size availability: one probability per client, by its point count.

    The threshold is the DATASIZE_PERCENTILE of the counts, rounded up to a
    count that occurs, so the largest client always reaches it. Clients at or
    above it are company devices at P_COMPANY; the rest are private devices
    at P_PRIVATE.
    """
    counts = np.asarray(counts)
    threshold = np.percentile(counts, DATASIZE_PERCENTILE, method="higher")
    return np.where(counts >= threshold, P_COMPANY, P_PRIVATE)


def reveal_round(state: RevealState) -> np.ndarray:
    """Reveal the next slice of the stream; returns its joined indices.

    Past the end of the stream this is a no-op returning an empty array.
    """
    start = state.cursor
    state.cursor = min(start + state.slice_size, state.joins.size)
    return start + np.flatnonzero(state.joins[start : state.cursor])
