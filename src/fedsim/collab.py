"""Peer collaboration for offline clients: head exchange and candidate scoring.

Offline clients trade only head blocks with geographic neighbors. Each client
computes its sequence embedding once, scores every candidate head (its own
included) on a sampled batch of local data, and caches the winning head as
the KL anchor of its subsequent local updates.

A peer round scores all its exchanges in one call. Exchanges whose batches
have the same row count M form a group, never padded; a group of C >= 2
embeds its batches as one (C, M, ·) stack (``nn.stacked_hidden``) and scores
every candidate head in one (C, k + 1, M, O) product. Each slice of either
stack has the bits of the one exchange's own products, so every exchange picks
the head ``evaluate_candidates`` picks; a group of one goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ParamSet, _fc_views, lstm_hidden, stacked_hidden


@dataclass
class CollabCache:
    """Best head found in the latest peer exchange, and where it came from."""

    head: np.ndarray
    source_id: int


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
    neighbor_heads = sorted(neighbor_heads, key=lambda kv: kv[0])
    sources = [own_id] + [nid for nid, _ in neighbor_heads]
    heads = np.stack([own_model.fc_block] + [head for _, head in neighbor_heads])
    # a diverged head's loss overflows to inf or NaN, and neither wins; the
    # run's events report the divergence, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        losses = _head_losses(lstm_hidden(own_model, eval_inputs), heads, eval_targets, dims)
    best = _first_best(losses)
    return CollabCache(head=heads[best], source_id=sources[best])


def _head_losses(hidden, heads, targets, dims) -> list:
    # the MSE of each candidate head on an embedded batch: hidden (..., M, H),
    # heads (..., k + 1, fc_size) and targets (..., M, O) give (..., k + 1).
    # One stacked product scores every head; each (M, O) slice has the bits of
    # the 2-D product apply_fc would give
    w, b = _fc_views(heads, dims)
    diff = np.matmul(hidden[..., None, :, :], w) + b[..., None, :] - targets[..., None, :, :]
    return np.mean(diff * diff, axis=(-2, -1)).tolist()


def _first_best(losses: list[float]) -> int:
    # strict < over [own, neighbors by id]: ties keep the earlier, NaN never wins
    best = 0
    for k in range(1, len(losses)):
        if losses[k] < losses[best]:
            best = k
    return best


def evaluate_exchanges(
    models: list[ParamSet],
    own_ids: list[int],
    neighbor_ids: np.ndarray,
    heads: np.ndarray,
    batches: list[tuple[np.ndarray, np.ndarray]],
) -> list[CollabCache]:
    """``evaluate_candidates`` of every exchange of a peer round, in order.

    Exchange j is client ``own_ids[j]`` with model ``models[j]`` and eval
    batch ``batches[j]`` (inputs, targets); its neighbors are the ids in row j
    of the (C, k) ``neighbor_ids``, and their heads the rows of ``heads`` that
    those ids index.
    """
    dims = models[0].dims
    own = np.array(own_ids)
    groups: dict[int, list[int]] = {}
    for j, (inputs, _) in enumerate(batches):
        groups.setdefault(inputs.shape[0], []).append(j)
    best: list[CollabCache | None] = [None] * len(models)
    for group in groups.values():
        if len(group) == 1:
            (j,) = group
            neighbors = [(nid, heads[nid]) for nid in neighbor_ids[j].tolist()]
            best[j] = evaluate_candidates(models[j], own_ids[j], neighbors, *batches[j])
            continue
        ids = np.sort(neighbor_ids[group], axis=1)
        sources = np.column_stack([own[group], ids]).tolist()
        own_heads = np.stack([models[j].fc_block for j in group])
        candidates = np.concatenate([own_heads[:, None], heads[ids]], axis=1)
        inputs = np.stack([batches[j][0] for j in group])
        targets = np.stack([batches[j][1] for j in group])
        # as in evaluate_candidates: a diverged head's inf or NaN loss never wins
        with np.errstate(over="ignore", invalid="ignore"):
            hidden = stacked_hidden([models[j] for j in group], inputs)
            losses = _head_losses(hidden, candidates, targets, dims)
        for row, j in enumerate(group):
            k = _first_best(losses[row])
            best[j] = CollabCache(head=candidates[row, k], source_id=sources[row][k])
    return best


def head_payload_values(n_neighbors: int, dims) -> int:
    """Values received in one exchange: one head block per neighbor."""
    return n_neighbors * dims.fc_size

