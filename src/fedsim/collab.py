"""Peer collaboration for offline clients: head exchange and candidate scoring.

Offline clients trade only head blocks with geographic neighbors. Each client
computes its sequence embedding once, scores every candidate head (its own
included) on a sampled batch of local data, and caches the winner as the
anchor for subsequent local updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ParamSet, apply_fc, fc_inject, lstm_hidden, mse_loss


@dataclass
class CollabCache:
    """Best collaborative model found in the latest peer exchange."""

    model: ParamSet
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
    best_source = own_id
    best_head = own_model.fc_block
    best_loss = mse_loss(apply_fc(own_model.fc_block, hidden, dims), eval_targets)
    for nid, head in sorted(neighbor_heads, key=lambda kv: kv[0]):
        loss = mse_loss(apply_fc(head, hidden, dims), eval_targets)
        if loss < best_loss:
            best_source, best_head, best_loss = nid, head, loss
    return CollabCache(
        model=fc_inject(own_model, best_head), source_id=best_source, loss=best_loss
    )


def head_payload_values(n_neighbors: int, dims) -> int:
    """Values received in one exchange: one head block per neighbor."""
    return n_neighbors * dims.fc_size

