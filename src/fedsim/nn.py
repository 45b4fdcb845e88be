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

where ``sigmoid(x) = 0.5 * (1 + tanh(x / 2))``, which equals the logistic
to within 2.2e-16 and never overflows. The halving lives in the weights:
each call multiplies the i, f and o columns of ``W`` and ``b`` by 0.5 once.
Scaling by a power of two is exact (barring subnormals) in every product
and every partial sum of the GEMM and in the bias add, so those columns of
``a`` hold ``a_i / 2``, ``a_f / 2`` and ``a_o / 2`` bit for bit. One
in-place tanh then covers all four slabs. The g slab is copied out before
``a += 1; a *= 0.5``, which turns i, f and o into sigmoids in place and
leaves a spent g slab that ``backward`` overwrites.

Evaluation (``forward``, ``lstm_hidden``) keeps no cache, and it walks the
batch in blocks of ``EVAL_BLOCK_ROWS`` rows, so each step's temporaries stay
a fixed size however large the pooled holdout grows. A tail of one row joins
the block before it: a 1-row GEMM goes to gemv, which rounds differently from
the same row inside a larger GEMM. Each block's final hidden state is written
into one B x H result, and the head GEMM then runs once over all B rows. The
head GEMM is not blocked because it is narrow (H x O, O = 2 for lat/lon), and
a narrow GEMM may round a row differently when its row count changes. With
these rules the blocked pass is bit-identical to a single pass at even hidden
widths. At odd widths of 15 and more it is not: there the gate GEMM ``z @ w``
rounds a row differently as its row count changes (at H=21, from two rows
upward, under OpenBLAS's SkylakeX kernel). Training (``backward``) runs its
batch, at most ``batch_size`` rows, as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

DIST_EPS = 1e-8
# Rows per block of the cache-free LSTM pass (see the module docstring). Of
# 128, 256 and 512 (sweep in BENCH_6.json), only 512 keeps pace with a single
# pass at H=8, where smaller blocks pay per-call overhead; at H=32 and 64 the
# three are within noise of each other and faster than a single pass.
EVAL_BLOCK_ROWS = 512


@dataclass(frozen=True)
class Dims:
    """Model dimensions: input features, hidden units, output features."""

    n_in: int
    n_hidden: int
    n_out: int

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


def init_params(dims: Dims, rng: np.random.Generator) -> ParamSet:
    """Uniform(-0.08, 0.08) initialization of every parameter."""
    try:
        values = rng.uniform(-0.08, 0.08, size=dims.total_size)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(
            f"hidden width {dims.n_hidden} needs {dims.total_size} parameters: {exc}"
        ) from exc
    return ParamSet(values, dims)


def _lstm_views(model: ParamSet):
    d = model.dims
    n_z = d.n_in + d.n_hidden
    w = model.lstm_block[: n_z * 4 * d.n_hidden].reshape(n_z, 4 * d.n_hidden)
    b = model.lstm_block[n_z * 4 * d.n_hidden :]
    return w, b


def _fc_views(fc_block: np.ndarray, dims: Dims):
    """Weight (..., H, O) and bias (..., O) views of one head block or a stack."""
    n_weights = dims.n_hidden * dims.n_out
    w = fc_block[..., :n_weights].reshape(fc_block.shape[:-1] + (dims.n_hidden, dims.n_out))
    b = fc_block[..., n_weights:]
    return w, b


def _run_lstm(model: ParamSet, inputs: np.ndarray) -> np.ndarray:
    # cache-free pass in row blocks; a 0- or 1-row tail joins the block before it
    n_batch = inputs.shape[0]
    hidden = np.empty((n_batch, model.dims.n_hidden))
    start = 0
    while start < n_batch:
        stop = start + EVAL_BLOCK_ROWS
        if n_batch - stop <= 1:
            stop = n_batch
        hidden[start:stop], _ = _lstm_steps(model, inputs[start:stop], keep_cache=False)
        start = stop
    return hidden


def _lstm_steps(model: ParamSet, inputs: np.ndarray, keep_cache: bool):
    H = model.dims.n_hidden
    w, b = _lstm_views(model)
    # halve the i, f and o columns once, so each step's sigmoid is one tanh
    # (see the module docstring); the cache holds (z, a, gg, c_prev, hc) with
    # the i, f and o gates in their slabs of a
    scale = np.full(4 * H, 0.5)
    scale[2 * H : 3 * H] = 1.0
    w, b = w * scale, b * scale
    n_batch, n_steps = inputs.shape[0], inputs.shape[1]
    h = np.zeros((n_batch, H))
    c = np.zeros((n_batch, H))
    cache = [] if keep_cache else None
    for t in range(n_steps):
        z = np.concatenate([inputs[:, t, :], h], axis=1)
        a = z @ w
        a += b
        np.tanh(a, out=a)
        gg = a[:, 2 * H : 3 * H].copy()
        a += 1.0
        a *= 0.5
        c_prev = c
        c = a[:, H : 2 * H] * c_prev
        c += a[:, :H] * gg
        hc = np.tanh(c)
        h = a[:, 3 * H :] * hc
        if keep_cache:
            cache.append((z, a, gg, c_prev, hc))
    return h, cache


def lstm_hidden(model: ParamSet, inputs: np.ndarray) -> np.ndarray:
    """Final-step hidden state (the sequence embedding), B x H."""
    return _run_lstm(model, inputs)


def apply_fc(fc_block: np.ndarray, hidden: np.ndarray, dims: Dims) -> np.ndarray:
    """Apply a head block to precomputed hidden states."""
    w, b = _fc_views(fc_block, dims)
    return hidden @ w + b


def forward(model: ParamSet, batch: TrainBatch) -> tuple[np.ndarray, np.ndarray]:
    """Predictions (B x O) and the final hidden state (B x H)."""
    hidden = _run_lstm(model, batch.inputs)
    return apply_fc(model.fc_block, hidden, model.dims), hidden


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    diff = predictions - targets
    return float(np.mean(diff * diff))


def param_distribution(block: np.ndarray) -> np.ndarray:
    """Normalize a parameter block into a strictly positive distribution.

    Uses absolute magnitudes smoothed by DIST_EPS so zero vectors map to the
    uniform distribution.
    """
    mass = np.abs(block) + DIST_EPS
    return mass / mass.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q)))


def model_divergence(model: ParamSet, reference: ParamSet) -> float:
    """KL divergence of the full parameter vector against a reference model."""
    return kl_divergence(param_distribution(model.values), param_distribution(reference.values))


def _fc_kl_gradient(fc: np.ndarray, target_fc: np.ndarray) -> np.ndarray:
    # d/dv_k of KL(dist(v) || dist(target)) with the |.|-normalized distribution;
    # sign(0) = 0 gives the subgradient choice at exactly-zero parameters.
    mass = np.abs(fc) + DIST_EPS
    z = mass.sum()
    p = mass / z
    q = param_distribution(target_fc)
    log_ratio = np.log(p / q)
    kl = float(np.sum(p * log_ratio))
    return np.sign(fc) * (log_ratio - kl) / z


def backward(
    model: ParamSet,
    batch: TrainBatch,
    kl_anchor: np.ndarray | None = None,
) -> ParamSet:
    """Gradients of the batch objective with respect to every parameter.

    The objective is the mean squared error of the predictions; when the head
    block ``kl_anchor`` is given, the KL divergence between the head-block
    distributions of ``model`` and the anchor is added, pulling the head
    toward the anchor.
    """
    d = model.dims
    I, H = d.n_in, d.n_hidden
    # a diverging model overflows to inf and NaN; the finite check below
    # raises on that, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        hidden, cache = _lstm_steps(model, batch.inputs, keep_cache=True)
        preds = apply_fc(model.fc_block, hidden, d)

        n_terms = batch.targets.size
        d_pred = 2.0 * (preds - batch.targets) / n_terms

        fc_w, _ = _fc_views(model.fc_block, d)
        grads = ParamSet(np.zeros(d.total_size), d)
        grad_fc_w, grad_fc_b = _fc_views(grads.fc_block, d)
        grad_fc_w[...] = hidden.T @ d_pred
        grad_fc_b[...] = d_pred.sum(axis=0)

        w, _ = _lstm_views(model)
        w_h_t = w[I:].T
        grad_w, grad_b = _lstm_views(grads)
        d_h = d_pred @ fc_w.T
        d_c_carry = 0.0
        for t in range(len(cache) - 1, -1, -1):
            z, a, gg, c_prev, hc = cache[t]
            d_c = d_c_carry + d_h * a[:, 3 * H :] * (1.0 - hc * hc)
            d_g = d_c * a[:, :H]
            d_a = np.concatenate([d_c * gg, d_c * c_prev, d_g, d_h * hc], axis=1)
            # sigmoid' = s * (1 - s) on the i, f and o slabs; the g slab is
            # then overwritten with tanh' = 1 - g * g
            d_a *= a
            d_a *= 1.0 - a
            d_a[:, 2 * H : 3 * H] = d_g * (1.0 - gg * gg)
            grad_w += z.T @ d_a
            grad_b += d_a.sum(axis=0)
            if t:  # the first step's carries are never read
                d_c_carry = d_c * a[:, H : 2 * H]
                d_h = d_a @ w_h_t

        if kl_anchor is not None:
            grads.fc_block[:] += _fc_kl_gradient(model.fc_block, kl_anchor)

    if not np.all(np.isfinite(grads.values)):
        raise NumericError("non-finite gradient")
    return grads


def batch_objective(
    model: ParamSet,
    batch: TrainBatch,
    kl_anchor: np.ndarray | None = None,
) -> float:
    """Scalar value of the objective differentiated by :func:`backward`."""
    preds, _ = forward(model, batch)
    loss = mse_loss(preds, batch.targets)
    if kl_anchor is not None:
        loss += kl_divergence(
            param_distribution(model.fc_block), param_distribution(kl_anchor)
        )
    return loss


def sgd_step(model: ParamSet, grads: ParamSet, eta: float) -> ParamSet:
    """One plain gradient descent step; returns a new parameter set."""
    return ParamSet(model.values - eta * grads.values, model.dims)
