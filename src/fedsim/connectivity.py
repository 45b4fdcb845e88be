"""Client connectivity and the neighbor graph. A client's id is its row in
every array here.

Each client is online or offline in a round, by its own two-state Markov
chain. Every client is online in round 1. From round 2 on, one draw per
client per round, from that client's own stream, moves its chain: an online
client stays online when its draw is at least ``p_offline``, and an offline
one recovers when its draw is under ``p_recover``. The draws are made when
the client is set up, so only the online flags are kept, and the fleet's
chains step together as one array expression per round.

The neighbor graph maps the fleet's (n, 2) positions to each client's
nearest others; in a peer round an offline client scores their heads.
"""

from __future__ import annotations

import numpy as np

# Distance entries per row block of the neighbor graph, bounding its temporaries.
NEIGHBOR_BLOCK_ENTRIES = 1 << 16


def online_chains(stays: np.ndarray, recovers: np.ndarray) -> np.ndarray:
    """The (n_clients, rounds) online flags of every client's chain; column j
    is round j + 1, and round 1 is all online. ``stays`` and ``recovers`` are
    (n_clients, rounds - 1) bools whose column j is round j + 2's draw: does
    it keep an online client online, and does it bring an offline one back."""
    online = np.ones((stays.shape[0], stays.shape[1] + 1), dtype=bool)
    for t in range(stays.shape[1]):
        online[:, t + 1] = np.where(online[:, t], stays[:, t], recovers[:, t])
    return online


def step_connectivity(online: np.ndarray, t: int) -> tuple[list[int], list[int], list[int]]:
    """Round t's (online, recovered, offline) ids, from the flags of
    ``online_chains``. A recovered client, offline in round t - 1, is also
    online; nobody has recovered in round 1."""
    now = online[:, t - 1]
    # round 1 is compared with itself
    recovered = now & ~online[:, max(t - 2, 0)]
    return (
        np.flatnonzero(now).tolist(),
        np.flatnonzero(recovered).tolist(),
        np.flatnonzero(~now).tolist(),
    )


def build_neighbor_graph(
    positions: np.ndarray, chi: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """The k = min(chi, n - 1) nearest other clients of each client in
    ``rows``, nearest first, from the (n, 2) array of every client's position;
    a client's id is its row. Returns one row of the (len(rows), k) array per
    entry of ``rows``, every client's by default.

    Distance is Euclidean, and ties break toward the lower row. Needs at least
    two clients.
    """
    n = positions.shape[0]
    k = min(chi, n - 1)
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    graph = np.empty((rows.size, k), dtype=np.intp)
    x, y = positions[:, 0], positions[:, 1]
    n_rows = max(1, NEIGHBOR_BLOCK_ENTRIES // n)
    for start in range(0, rows.size, n_rows):
        block = rows[start : start + n_rows]
        dx, dy = x - x[block, None], y - y[block, None]
        dists = np.sqrt(dx * dx + dy * dy)
        # the stable sort sends distance ties to the lower row
        order = np.argsort(dists, axis=1, kind="stable")
        others = order[order != block[:, None]].reshape(block.size, n - 1)
        graph[start : start + n_rows] = others[:, :k]
    return graph
