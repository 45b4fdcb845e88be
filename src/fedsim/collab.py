"""Peer collaboration for offline clients: head exchange and candidate scoring.

Offline clients trade only head blocks with geographic neighbors. Each client
computes its sequence embedding once, scores every candidate head (its own
included) on a sampled batch of local data, and caches the winning head as
the KL anchor of its subsequent local updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import ParamSet, _fc_views, lstm_hidden


@dataclass
class CollabCache:
    """Best head found in the latest peer exchange, and where it came from."""

    head: np.ndarray
    source_id: int
    loss: float


def evaluate_candidates(
    own_model: ParamSet,
    own_id: int,
    neighbor_heads: list[tuple[int, np.ndarray]],
    eval_inputs: np.ndarray,
    eval_targets: np.ndarray,
) -> CollabCache:
    """Pick the head minimizing loss on the client's sampled data.

    The embedding is computed once with the client's own recurrent block and
    reused for every candidate, so all losses come from the same forward pass.
    Ties keep the client's own head, then the lowest neighbor id.
    """
    dims = own_model.dims
    hidden = lstm_hidden(own_model, eval_inputs)
    eval_targets = np.asarray(eval_targets, dtype=float)
    if eval_targets.shape != (hidden.shape[0], dims.n_out):
        raise ConfigError(
            f"targets shape {eval_targets.shape} != ({hidden.shape[0]}, {dims.n_out})"
        )
    neighbor_heads = sorted(neighbor_heads, key=lambda kv: kv[0])
    sources = [own_id] + [nid for nid, _ in neighbor_heads]
    heads = np.stack([own_model.fc_block] + [head for _, head in neighbor_heads])
    w, b = _fc_views(heads, dims)
    # one stacked product scores every head; each (M, O) slice has the bits of
    # the 2-D product apply_fc would give
    diff = np.matmul(hidden, w) + b[:, None, :] - eval_targets
    losses = np.mean(diff * diff, axis=(1, 2)).tolist()
    # strict < over [own, neighbors by id]: ties keep the earlier, NaN never wins
    best = 0
    for k in range(1, len(losses)):
        if losses[k] < losses[best]:
            best = k
    return CollabCache(head=heads[best], source_id=sources[best], loss=losses[best])


def head_payload_values(n_neighbors: int, dims) -> int:
    """Values received in one exchange: one head block per neighbor."""
    return n_neighbors * dims.fc_size

