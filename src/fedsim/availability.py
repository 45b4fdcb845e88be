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


def assign_regional(
    coords: np.ndarray, weak_areas: list[BBox], p_low: float, p_high: float
) -> np.ndarray:
    """Region availability over float64 (n, 2) coordinates: p_low inside any
    weak-signal box, p_high outside."""
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


def reveal_round(state: RevealState) -> np.ndarray:
    """Reveal the next slice of the stream; returns its joined indices.

    Past the end of the stream this is a no-op returning an empty array.
    """
    start = state.cursor
    state.cursor = min(start + state.slice_size, state.joins.size)
    return start + np.flatnonzero(state.joins[start : state.cursor])
