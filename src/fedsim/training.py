"""Local SGD over a client's usable windows, with optional penalty terms."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .nn import ParamSet, TrainBatch, backward, forward, mse_loss, sgd_step


def iterate_batches(
    n_items: int, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled index batches covering every item once; the tail may be short."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    order = rng.permutation(n_items)
    return [order[i : i + batch_size] for i in range(0, n_items, batch_size)]


def train_local(
    model: ParamSet,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
    kl_anchor: ParamSet | None = None,
    prox_mu: float = 0.0,
) -> ParamSet:
    """Run `epochs` passes of minibatch SGD and return the updated model.

    kl_anchor adds the head-distribution divergence penalty to every batch
    objective; prox_mu adds the proximal pull (mu/2)*||w - w0||^2 toward the
    starting model w0. With zero epochs or zero windows the model is returned unchanged.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    n = inputs.shape[0]
    if epochs == 0 or n == 0:
        return model.copy()
    if prox_mu < 0:
        raise ConfigError(f"prox_mu must be >= 0, got {prox_mu}")
    prox_ref = model.copy() if prox_mu > 0 else None
    current = model
    for _ in range(epochs):
        for idx in iterate_batches(n, batch_size, rng):
            batch = TrainBatch(inputs[idx], targets[idx])
            grads = backward(current, batch, bias_target=kl_anchor)
            if prox_mu > 0:
                grads = ParamSet(
                    grads.lstm_block + prox_mu * (current.lstm_block - prox_ref.lstm_block),
                    grads.fc_block + prox_mu * (current.fc_block - prox_ref.fc_block),
                    grads.dims,
                )
            current = sgd_step(current, grads, eta)
    return current


def evaluate_mse(model: ParamSet, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared prediction error over a window set."""
    if inputs.shape[0] == 0:
        raise ConfigError("cannot evaluate on an empty window set")
    preds, _ = forward(model, TrainBatch(inputs, targets))
    return mse_loss(preds, targets)


def evaluate_rmse(model: ParamSet, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error over all predicted components."""
    return float(np.sqrt(evaluate_mse(model, inputs, targets)))
