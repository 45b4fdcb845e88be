"""Local SGD over a client's usable windows, with optional penalty terms."""

from __future__ import annotations

import numpy as np

from .nn import ParamSet, TrainBatch, backward, forward, sgd_step


def train_local(
    model: ParamSet,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
    kl_anchor: np.ndarray | None = None,
    prox_mu: float = 0.0,
) -> ParamSet:
    """Run `epochs` passes of minibatch SGD and return the updated model.

    kl_anchor, a head block, adds the head-distribution divergence penalty to
    every batch objective; prox_mu adds the proximal pull (mu/2)*||w - w0||^2
    toward the starting model w0. With zero epochs or zero windows the model is
    returned unchanged.
    """
    n = inputs.shape[0]
    if epochs == 0 or n == 0:
        return model.copy()
    prox_ref = model.copy() if prox_mu > 0 else None
    current = model
    # a step that overflows leaves a model that the next backward raises on,
    # or that the run's events report, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            # one shuffle per epoch covers every window once; the tail may be short
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch = TrainBatch(inputs[idx], targets[idx])
                grads = backward(current, batch, kl_anchor=kl_anchor)
                if prox_mu > 0:
                    grads = ParamSet(
                        grads.values + prox_mu * (current.values - prox_ref.values), grads.dims
                    )
                current = sgd_step(current, grads, eta)
    return current


def evaluate_rmse(model: ParamSet, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error over all predicted components."""
    # a diverged model's error overflows; reports write it as null
    with np.errstate(over="ignore", invalid="ignore"):
        # (preds - targets) squared, in place: no B-sized temporaries
        err = forward(model, TrainBatch(inputs, targets))
        err -= targets
        err *= err
        # np.mean's own arithmetic, without its per-call overhead
        return float(np.sqrt(err.sum() / err.size))
