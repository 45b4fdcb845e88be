"""Client connectivity dynamics, upload budgets, and the neighbor graph.

Each client's online/offline state evolves as an independent two-state
Markov chain driven by its own RNG stream, so stepping order never changes
outcomes. Budgets cap server uploads only; offline computation is free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError


@dataclass
class LinkState:
    """One client's connectivity record.

    ``budget_remaining`` of None means an unlimited budget.
    """

    online: bool = True
    n_uploads: int = 0
    budget_remaining: int | None = None
    last_position: np.ndarray | None = None

    @property
    def can_upload(self) -> bool:
        return self.budget_remaining is None or self.budget_remaining > 0


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
    if not (0.0 <= p_offline <= 1.0 and 0.0 <= p_recover <= 1.0):
        raise ConfigError("transition probabilities must lie in [0, 1]")
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
    if t < 1:
        raise ConfigError(f"round index must be >= 1, got {t}")
    if not 0 <= n_uploads <= t:
        raise ConfigError(f"uploads {n_uploads} outside [0, {t}]")
    return n_uploads / t


def charge_upload(state: LinkState) -> LinkState:
    """Account one server upload against the client's budget."""
    if not state.can_upload:
        raise BudgetError("upload charged with zero budget remaining")
    if state.budget_remaining is not None:
        state.budget_remaining -= 1
    state.n_uploads += 1
    return state


def build_neighbor_graph(
    positions: dict[int, np.ndarray], chi: int
) -> dict[int, list[tuple[int, float]]]:
    """For every client, its chi nearest other clients by Euclidean distance.

    Ties break toward the lower client id. Needs at least two clients.
    """
    if chi < 1:
        raise ConfigError(f"chi must be >= 1, got {chi}")
    ids = sorted(positions)
    if len(ids) < 2:
        raise ConfigError("neighbor graph needs at least two clients")
    pts = np.array([positions[cid] for cid in ids], dtype=float)
    graph: dict[int, list[tuple[int, float]]] = {}
    for i, cid in enumerate(ids):
        dists = np.linalg.norm(pts - pts[i], axis=1)
        order = sorted(
            (float(dists[j]), ids[j]) for j in range(len(ids)) if j != i
        )
        graph[cid] = [(nid, dist) for dist, nid in order[:chi]]
    return graph
