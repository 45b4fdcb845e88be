"""Single-layer LSTM sequence model with a linear head, trained by hand.

The model is kept as one flat float64 vector: the recurrent block (all gate
weights and biases) followed by the head block (output weights and bias),
both read as views into it. Everything here is a pure function over that
vector, which makes parameter exchange, averaging, and gradient checking
trivial.

Recurrent block layout: the stacked input ``z = [x, h]`` multiplies a single
``(I+H) x 4H`` matrix stored row-major, followed by a ``4H`` bias; gate
columns are ordered input | forget | candidate | output. Head block layout:
``H x O`` weights row-major, then ``O`` bias.

Gate math per step, with ``a = z @ W + b`` split into the four gate slabs::

    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o)
    g = tanh(a_g)
    c = f * c_prev + i * g
    h = o * tanh(c)

where ``sigmoid(x) = 0.5 * (1 + tanh(x / 2))``. That form equals the logistic
``1 / (1 + exp(-x))`` to within 2.2e-16, never overflows, and needs one
elementwise pass where the exp form needs sign masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

DIST_EPS = 1e-8


@dataclass(frozen=True)
class Dims:
    """Model dimensions: input features, hidden units, output features."""

    n_in: int
    n_hidden: int
    n_out: int

    def __post_init__(self):
        if min(self.n_in, self.n_hidden, self.n_out) < 1:
            raise ConfigError(f"all dims must be >= 1, got {self}")

    @property
    def lstm_size(self) -> int:
        return 4 * ((self.n_in + self.n_hidden) * self.n_hidden + self.n_hidden)

    @property
    def fc_size(self) -> int:
        return self.n_hidden * self.n_out + self.n_out

    @property
    def total_size(self) -> int:
        return self.lstm_size + self.fc_size


@dataclass(eq=False)
class ParamSet:
    """Model parameters as one flat vector, recurrent block then head block.

    A float64 ``values`` array is kept as given, without a copy.
    ``lstm_block`` and ``fc_block`` are views into it, so writing through them
    changes ``values``. ``==`` compares identity; compare ``values`` with
    ``np.array_equal`` for equal parameters.
    """

    values: np.ndarray
    dims: Dims

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.dims.total_size,):
            raise ConfigError(
                f"parameter vector has shape {self.values.shape}, "
                f"expected ({self.dims.total_size},)"
            )

    @property
    def lstm_block(self) -> np.ndarray:
        return self.values[: self.dims.lstm_size]

    @property
    def fc_block(self) -> np.ndarray:
        return self.values[self.dims.lstm_size :]

    def copy(self) -> "ParamSet":
        return ParamSet(self.values.copy(), self.dims)


@dataclass
class TrainBatch:
    """A batch of input sequences (B x S x I) and next-step targets (B x O)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 3:
            raise ConfigError(f"inputs must be B x S x I, got shape {self.inputs.shape}")
        if self.targets.ndim != 2 or self.targets.shape[0] != self.inputs.shape[0]:
            raise ConfigError(
                f"targets must be B x O with B={self.inputs.shape[0]}, "
                f"got shape {self.targets.shape}"
            )
        if self.inputs.shape[0] < 1:
            raise ConfigError("batch must contain at least one sequence")

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]

    @property
    def seq_len(self) -> int:
        return self.inputs.shape[1]


def init_params(dims: Dims, rng: np.random.Generator) -> ParamSet:
    """Uniform(-0.08, 0.08) initialization of every parameter."""
    return ParamSet(rng.uniform(-0.08, 0.08, size=dims.total_size), dims)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form of the logistic (see the module docstring), in one new array
    out = x * 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _check_batch(model: ParamSet, batch: TrainBatch) -> None:
    d = model.dims
    if batch.inputs.shape[2] != d.n_in:
        raise ConfigError(
            f"batch has {batch.inputs.shape[2]} input features, model expects {d.n_in}"
        )
    if batch.targets.shape[1] != d.n_out:
        raise ConfigError(
            f"batch has {batch.targets.shape[1]} target features, model expects {d.n_out}"
        )


def _lstm_views(model: ParamSet):
    d = model.dims
    n_z = d.n_in + d.n_hidden
    w = model.lstm_block[: n_z * 4 * d.n_hidden].reshape(n_z, 4 * d.n_hidden)
    b = model.lstm_block[n_z * 4 * d.n_hidden :]
    return w, b


def _fc_views(fc_block: np.ndarray, dims: Dims):
    w = fc_block[: dims.n_hidden * dims.n_out].reshape(dims.n_hidden, dims.n_out)
    b = fc_block[dims.n_hidden * dims.n_out :]
    return w, b


def _run_lstm(model: ParamSet, inputs: np.ndarray, keep_cache: bool):
    d = model.dims
    H = d.n_hidden
    w, b = _lstm_views(model)
    n_batch, n_steps = inputs.shape[0], inputs.shape[1]
    h = np.zeros((n_batch, H))
    c = np.zeros((n_batch, H))
    cache = [] if keep_cache else None
    for t in range(n_steps):
        z = np.concatenate([inputs[:, t, :], h], axis=1)
        a = z @ w
        a += b
        # input and forget gates are adjacent columns: one sigmoid over both
        g_if = _sigmoid(a[:, : 2 * H])
        gi, gf = g_if[:, :H], g_if[:, H:]
        gg = np.tanh(a[:, 2 * H : 3 * H])
        go = _sigmoid(a[:, 3 * H :])
        c_prev = c
        c = gf * c_prev
        c += gi * gg
        hc = np.tanh(c)
        h = go * hc
        if keep_cache:
            cache.append((z, gi, gf, gg, go, c_prev, hc))
    return h, cache


def lstm_hidden(model: ParamSet, inputs: np.ndarray) -> np.ndarray:
    """Final-step hidden state (the sequence embedding), B x H."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 3 or inputs.shape[2] != model.dims.n_in:
        raise ConfigError(
            f"inputs must be B x S x {model.dims.n_in}, got shape {inputs.shape}"
        )
    h, _ = _run_lstm(model, inputs, keep_cache=False)
    return h


def apply_fc(fc_block: np.ndarray, hidden: np.ndarray, dims: Dims) -> np.ndarray:
    """Apply a head block to precomputed hidden states."""
    fc_block = np.asarray(fc_block, dtype=float)
    if fc_block.shape != (dims.fc_size,):
        raise ConfigError(f"fc block has {fc_block.size} entries, expected {dims.fc_size}")
    w, b = _fc_views(fc_block, dims)
    return hidden @ w + b


def forward(model: ParamSet, batch: TrainBatch) -> tuple[np.ndarray, np.ndarray]:
    """Predictions (B x O) and the final hidden state (B x H)."""
    _check_batch(model, batch)
    hidden, _ = _run_lstm(model, batch.inputs, keep_cache=False)
    return apply_fc(model.fc_block, hidden, model.dims), hidden


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ConfigError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}"
        )
    diff = predictions - targets
    return float(np.mean(diff * diff))


def param_distribution(block: np.ndarray) -> np.ndarray:
    """Normalize a parameter block into a strictly positive distribution.

    Uses absolute magnitudes smoothed by DIST_EPS so zero vectors map to the
    uniform distribution.
    """
    block = np.asarray(block, dtype=float)
    if block.size == 0:
        raise ConfigError("cannot form a distribution over an empty block")
    mass = np.abs(block) + DIST_EPS
    return mass / mass.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ConfigError(f"distribution lengths differ: {p.shape} vs {q.shape}")
    if np.any(p <= 0) or np.any(q <= 0):
        raise ConfigError("distributions must be strictly positive")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ConfigError("distributions must each sum to 1")
    return float(np.sum(p * np.log(p / q)))


def model_divergence(model: ParamSet, reference: ParamSet) -> float:
    """KL divergence of the full parameter vector against a reference model."""
    return kl_divergence(param_distribution(model.values), param_distribution(reference.values))


def _fc_kl_gradient(fc: np.ndarray, target_fc: np.ndarray) -> tuple[float, np.ndarray]:
    # d/dv_k of KL(dist(v) || dist(target)) with the |.|-normalized distribution;
    # sign(0) = 0 gives the subgradient choice at exactly-zero parameters.
    mass = np.abs(fc) + DIST_EPS
    z = mass.sum()
    p = mass / z
    q = param_distribution(target_fc)
    log_ratio = np.log(p / q)
    kl = float(np.sum(p * log_ratio))
    grad = np.sign(fc) * (log_ratio - kl) / z
    return kl, grad


def backward(
    model: ParamSet,
    batch: TrainBatch,
    bias_target: ParamSet | None = None,
) -> ParamSet:
    """Gradients of the batch objective with respect to every parameter.

    The objective is the mean squared error of the predictions; when
    ``bias_target`` is given, the KL divergence between the head-block
    distributions of ``model`` and ``bias_target`` is added, pulling the head
    toward the target's.
    """
    _check_batch(model, batch)
    d = model.dims
    I = d.n_in
    if bias_target is not None and bias_target.dims != d:
        raise ConfigError(f"bias target dims {bias_target.dims} != model dims {d}")

    hidden, cache = _run_lstm(model, batch.inputs, keep_cache=True)
    preds = apply_fc(model.fc_block, hidden, d)

    n_terms = batch.targets.size
    d_pred = 2.0 * (preds - batch.targets) / n_terms

    fc_w, _ = _fc_views(model.fc_block, d)
    grads = ParamSet(np.zeros(d.total_size), d)
    grad_fc_w, grad_fc_b = _fc_views(grads.fc_block, d)
    grad_fc_w[...] = hidden.T @ d_pred
    grad_fc_b[...] = d_pred.sum(axis=0)

    w, _ = _lstm_views(model)
    grad_w, grad_b = _lstm_views(grads)
    d_h = d_pred @ fc_w.T
    d_c_carry = np.zeros_like(d_h)
    for z, gi, gf, gg, go, c_prev, hc in reversed(cache):
        d_o = d_h * hc
        d_c = d_c_carry + d_h * go * (1.0 - hc * hc)
        d_i = d_c * gg
        d_g = d_c * gi
        d_f = d_c * c_prev
        d_c_carry = d_c * gf
        d_a = np.concatenate(
            [
                d_i * gi * (1.0 - gi),
                d_f * gf * (1.0 - gf),
                d_g * (1.0 - gg * gg),
                d_o * go * (1.0 - go),
            ],
            axis=1,
        )
        grad_w += z.T @ d_a
        grad_b += d_a.sum(axis=0)
        d_h = d_a @ w[I:].T

    if bias_target is not None:
        _, kl_grad = _fc_kl_gradient(model.fc_block, bias_target.fc_block)
        grads.fc_block[:] += kl_grad

    if not np.all(np.isfinite(grads.values)):
        raise NumericError("non-finite gradient")
    return grads


def batch_objective(
    model: ParamSet,
    batch: TrainBatch,
    bias_target: ParamSet | None = None,
) -> float:
    """Scalar value of the objective differentiated by :func:`backward`."""
    preds, _ = forward(model, batch)
    loss = mse_loss(preds, batch.targets)
    if bias_target is not None:
        loss += kl_divergence(
            param_distribution(model.fc_block),
            param_distribution(bias_target.fc_block),
        )
    return loss


def sgd_step(model: ParamSet, grads: ParamSet, eta: float) -> ParamSet:
    """One plain gradient descent step; returns a new parameter set."""
    if eta <= 0:
        raise ConfigError(f"learning rate must be positive, got {eta}")
    if grads.dims != model.dims:
        raise ConfigError(f"gradient dims {grads.dims} != model dims {model.dims}")
    return ParamSet(model.values - eta * grads.values, model.dims)


def fc_inject(model: ParamSet, fc_block: np.ndarray) -> ParamSet:
    """New model with the head replaced; the recurrent block is untouched."""
    fc_block = np.asarray(fc_block, dtype=float)
    if fc_block.shape != (model.dims.fc_size,):
        raise ConfigError(
            f"fc block has {fc_block.size} entries, expected {model.dims.fc_size}"
        )
    new = model.copy()
    new.fc_block[:] = fc_block
    return new
