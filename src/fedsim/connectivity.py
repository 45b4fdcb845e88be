"""Client connectivity dynamics, upload counts, and the neighbor graph.

Each client's online/offline state evolves as an independent two-state
Markov chain driven by its own RNG stream, so stepping order never changes
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Distance entries per row block of the neighbor graph, bounding its temporaries.
NEIGHBOR_BLOCK_ENTRIES = 1 << 16


@dataclass
class LinkState:
    """One client's connectivity record: online now, and server uploads so far."""

    online: bool = True
    n_uploads: int = 0


def step_connectivity(
    states: dict[int, LinkState],
    p_offline: float,
    p_recover: float,
    rngs: dict[int, np.random.Generator],
) -> tuple[list[int], list[int], list[int]]:
    """Advance every client's chain one round.

    Returns (online, recovered, offline) id lists; recovered clients are those
    offline last round and online now, and are included in the online list.
    """
    online, recovered, offline = [], [], []
    for cid in sorted(states):
        state = states[cid]
        was_online = state.online
        draw = rngs[cid].random()
        if was_online:
            state.online = draw >= p_offline
        else:
            state.online = draw < p_recover
        if state.online:
            online.append(cid)
            if not was_online:
                recovered.append(cid)
        else:
            offline.append(cid)
    return online, recovered, offline


def participation(n_uploads: int, t: int) -> float:
    """Fraction of rounds so far in which the client uploaded to the server."""
    return n_uploads / t


def build_neighbor_graph(positions: dict[int, np.ndarray], chi: int) -> dict[int, list[int]]:
    """For every client, the ids of its chi nearest other clients, nearest first.

    Distance is Euclidean, and ties break toward the lower client id. Needs at
    least two clients.
    """
    ids = sorted(positions)
    n = len(ids)
    pts = np.array([positions[cid] for cid in ids], dtype=float)
    k = min(chi, n - 1)
    graph: dict[int, list[int]] = {}
    n_rows = max(1, NEIGHBOR_BLOCK_ENTRIES // n)
    for start in range(0, n, n_rows):
        rows = np.arange(start, min(start + n_rows, n))
        dists = np.linalg.norm(pts - pts[rows, None], axis=2)
        # ids are sorted, so the stable sort sends distance ties to the lower id
        order = np.argsort(dists, axis=1, kind="stable")
        order = order[order != rows[:, None]].reshape(rows.size, n - 1)[:, :k]
        for i, row in zip(rows.tolist(), order.tolist()):
            graph[ids[i]] = [ids[j] for j in row]
    return graph
