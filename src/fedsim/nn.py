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

This step exists once, in ``_lstm_step``, and both passes call it. Training
(``backward``) lets it write each step's results into fresh arrays, because
the backward sweep reads every step's arrays from the cache. Evaluation
(``forward``, ``lstm_hidden``, ``stacked_hidden``) keeps no cache: it
allocates one working set per call, sized for the largest block, and every
block and step writes into it in place. Each step's ``h`` goes straight into
the hidden half of the next step's ``z``, and ``h`` and ``c`` are zeroed at
the start of each block. With no fresh arrays per step, the allocator does
not hand pages back to the kernel and fault them in again on every step.

Evaluation walks the batch in row blocks and holds one block at a time, so
its working set stays a fixed size however large the pooled holdout grows.
A row of a block takes I + 8H floats of working set, and a block has as many
rows as fit in ``EVAL_WORK_BYTES``, rounded down to a multiple of 16 and at
least 16: at I = 2 that is 3,840 rows at H = 4, 1,984 at H = 8, 496 at
H = 32 and 240 at H = 64. A tail of one row joins the block
before it: a 1-row GEMM goes to gemv, which rounds differently from the same
row inside a larger GEMM. Each block writes its own result into the B-row
output: ``lstm_hidden`` its final ``h``, ``forward`` its head output
(``apply_fc`` on the hidden half of ``z``). So no B x H array exists, and
``forward``'s only B-sized array is its B x O result.

``stacked_hidden`` runs C models of one shape, each over its own batch of M
rows, as ``(C, M, ·)`` stacks; ``_lstm_step`` indexes gate slabs with
``...``, so it serves ``(B, ·)`` rows and such stacks alike. A block holds
as many whole batches as fit its rows, or, for a batch over them, that
batch's rows blocked as above. ``np.matmul`` makes one BLAS call per slice
of a stack, with the M rows of the client's own 2-D call, and every other
operation is elementwise, so each slice has the bits of ``lstm_hidden`` on
that client alone, at every width.

The head GEMM is narrow (H x O, O = 2 for lat/lon), and a narrow GEMM may
round a row differently when its row count changes. Over random shapes with
H up to 128, O up to 5 and fewer than 3,000 rows, at one BLAS thread, blocks
of arbitrary sizes moved bits in 65 to 312 of 480 shapes, by OpenBLAS kernel
(SkylakeX, Haswell, Sandybridge, Prescott, Zen). Blocks of 16-row multiples
with the one-row tail joined kept the bits of one GEMM over every row in all
2,000 shapes under Haswell, Sandybridge, Prescott and Zen. Under SkylakeX
they kept them in every shape below about 2^20 multiply-adds (M x H x O); at
and above it SkylakeX takes another path for the one large GEMM, and 30
shapes differed. Every benchmark workload stays far below that size (3,184
rows at H = 64 is 0.39 x 2^20). The blocked result is the defined one.

With these rules the blocked pass is bit-identical to a single pass at even
hidden widths. At odd widths of 15 and more it is not: there the gate GEMM
``z @ w`` rounds a row differently as its row count changes (at H=21, from
two rows upward, under OpenBLAS's SkylakeX kernel). Training (``backward``)
runs its batch, at most ``batch_size`` rows, as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

DIST_EPS = 1e-8
# Byte cap on one block's working set: half the 2 MiB L2 per core of the host
# it was swept on (two sweeps in BENCH_17.json, at the benchmark's holdout
# shapes). 256 KiB ran 3-12% slower at H=32 and 64. 512 KiB and 1 MiB ran
# within 2% of no cap at H=8 and 32, and 3-5% faster at H=64. It alone sets a
# block's rows: at I=2, 1,984 at H=8, 496 at H=32 and 240 at H=64.
EVAL_WORK_BYTES = 1 << 20


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

    ``values`` is a float64 array of shape ``(dims.total_size,)``, kept as
    given, without a copy or a check. ``lstm_block`` and ``fc_block`` are
    views into it, so writing through them changes ``values``. ``==``
    compares identity; compare ``values`` with ``np.array_equal`` for equal
    parameters.
    """

    values: np.ndarray
    dims: Dims

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
    """A batch of float input sequences (B x S x I, B >= 1) and next-step
    targets (B x O); a plain record that the benchmark tracer reads."""

    inputs: np.ndarray
    targets: np.ndarray


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


def _halved_gates(lstm_block: np.ndarray, n_hidden: int):
    # halve the i, f and o columns once, so each step's sigmoid is one tanh
    # (see the module docstring). A recurrent block read as 4H-wide rows is
    # the I+H weight rows, then the bias row; the g columns are copied back.
    # One block gives (I+H, 4H) and (1, 4H), a (C, lstm_size) stack of blocks
    # (C, I+H, 4H) and (C, 1, 4H)
    H = n_hidden
    rows = lstm_block.reshape(lstm_block.shape[:-1] + (-1, 4 * H))
    half = rows * 0.5
    half[..., 2 * H : 3 * H] = rows[..., 2 * H : 3 * H]
    return half[..., :-1, :], half[..., -1:, :]


def _lstm_step(z, w, b, c_prev, a=None, gg=None, c=None, hc=None, h=None):
    # one step of the gate math over rows (B, ·), or a stack of them (C, M, ·)
    # with one w and b per stack entry; each result goes into the array given
    # for it, or into a fresh one. Returns a (i, f and o as sigmoids in their
    # slabs), gg, c, hc = tanh(c) and h. c may be c_prev itself
    H = c_prev.shape[-1]
    a = np.matmul(z, w, out=a)
    a += b
    np.tanh(a, out=a)
    if gg is None:
        gg = a[..., 2 * H : 3 * H].copy()
    else:
        np.copyto(gg, a[..., 2 * H : 3 * H])
    a += 1.0
    a *= 0.5
    c = np.multiply(a[..., H : 2 * H], c_prev, out=c)
    hc = np.multiply(a[..., :H], gg, out=hc)
    c += hc
    np.tanh(c, out=hc)
    h = np.multiply(a[..., 3 * H :], hc, out=h)
    return a, gg, c, hc, h


def _eval_block_rows(n_in: int, n_hidden: int) -> int:
    # rows per block of the cache-free pass: a multiple of 16 whose working
    # set fits EVAL_WORK_BYTES, and at least 16
    return max(16, EVAL_WORK_BYTES // (8 * (n_in + 8 * n_hidden)) // 16 * 16)


def _run_lstm(w, b, inputs: np.ndarray, head: ParamSet | None = None) -> np.ndarray:
    # cache-free pass of C models, each over its own batch: w (C, I+H, 4H),
    # b (C, 1, 4H) and inputs (C, B, S, I). A block is as many whole batches
    # as fit the block rows, or, when one batch is over them, a run of block
    # rows of one batch; a 0- or 1-row tail joins the run before it. One
    # working set, sized for the largest block, serves every block and step:
    # x and h are the two halves of z, and c is updated in place. Each block's
    # final h, or with a head (C = 1) its predictions, goes into the result
    n_models, n_batch, n_steps, n_in = inputs.shape
    H = w.shape[-1] // 4
    block_rows = _eval_block_rows(n_in, H)
    per = min(n_models, max(1, block_rows // max(n_batch, 1)))
    rows = min(n_batch, block_rows + 1)
    spans = []
    start = 0
    while start < n_batch:
        stop = start + block_rows
        if n_batch - stop <= 1:
            stop = n_batch
        spans.append((start, stop))
        start = stop
    # one allocation for z, a, gg, c and hc. When glibc's malloc frees a mapped
    # block above its mmap threshold, it raises that threshold to the block's
    # size and its trim threshold to twice that; so after the first call, the
    # working set and the result come from heap pages already faulted in, not
    # from fresh pages each call (counts in BENCH_15.json). One model's blocks
    # are (rows, ·) arrays, as in training; blocks of several models' whole
    # batches are (models, rows, ·) stacks
    lead = () if per == 1 else (per,)
    size = per * rows
    work = np.empty(size * (n_in + 8 * H))
    z_buf = work[: size * (n_in + H)].reshape(lead + (rows, n_in + H))
    a_buf = work[size * (n_in + H) : size * (n_in + 5 * H)].reshape(lead + (rows, 4 * H))
    gg_buf, c_buf, hc_buf = work[size * (n_in + 5 * H) :].reshape((3,) + lead + (rows, H))
    out = np.empty((n_models, n_batch, head.dims.n_out if head else H))
    for first in range(0, n_models, per):
        models = first if per == 1 else slice(first, first + per)
        w_block, b_block = w[models], b[models]
        for start, stop in spans:
            # the buffers' first axis is rows, or models in blocks of whole batches
            cut = slice(stop - start) if per == 1 else slice(min(per, n_models - first))
            z, a, gg, c, hc = (buf[cut] for buf in (z_buf, a_buf, gg_buf, c_buf, hc_buf))
            x, h = z[..., :n_in], z[..., n_in:]
            block = inputs[models, start:stop]
            h.fill(0.0)
            c.fill(0.0)
            for t in range(n_steps):
                x[...] = block[..., t, :]
                _lstm_step(z, w_block, b_block, c, a, gg, c, hc, h)
            out[models, start:stop] = apply_fc(head.fc_block, h, head.dims) if head else h
    return out


def _lstm_steps(model: ParamSet, inputs: np.ndarray):
    # training pass: every step's arrays are fresh, because backward reads
    # each step's (z, a, gg, c_prev, hc) from the cache
    n_batch, n_steps = inputs.shape[0], inputs.shape[1]
    H = model.dims.n_hidden
    w, b = _halved_gates(model.lstm_block, H)
    h = np.zeros((n_batch, H))
    c = np.zeros((n_batch, H))
    cache = []
    for t in range(n_steps):
        z = np.concatenate([inputs[:, t, :], h], axis=1)
        a, gg, c_next, hc, h = _lstm_step(z, w, b, c)
        cache.append((z, a, gg, c, hc))
        c = c_next
    return h, cache


def lstm_hidden(model: ParamSet, inputs: np.ndarray) -> np.ndarray:
    """Final-step hidden state (the sequence embedding), B x H."""
    w, b = _halved_gates(model.lstm_block, model.dims.n_hidden)
    return _run_lstm(w[None], b[None], inputs[None])[0]


def stacked_hidden(models: list[ParamSet], inputs: np.ndarray) -> np.ndarray:
    """Final-step hidden states of C models of one shape, each over its own
    batch of the (C, M, S, I) ``inputs``: C x M x H. Slice c has the bits of
    ``lstm_hidden(models[c], inputs[c])``."""
    blocks = np.stack([m.lstm_block for m in models])
    w, b = _halved_gates(blocks, models[0].dims.n_hidden)
    return _run_lstm(w, b, inputs)


def apply_fc(fc_block: np.ndarray, hidden: np.ndarray, dims: Dims) -> np.ndarray:
    """Apply a head block to precomputed hidden states."""
    w, b = _fc_views(fc_block, dims)
    return hidden @ w + b


def forward(model: ParamSet, batch: TrainBatch) -> np.ndarray:
    """Predictions, B x O."""
    w, b = _halved_gates(model.lstm_block, model.dims.n_hidden)
    return _run_lstm(w[None], b[None], batch.inputs[None], model)[0]


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
    # a diverged model's mass overflows and its KL is NaN; the run's events
    # already report the divergence, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return kl_divergence(
            param_distribution(model.values), param_distribution(reference.values)
        )


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
    # a diverging model overflows to inf and NaN, and its head's KL term takes
    # the log of 0; the finite check below raises on that, so numpy's warnings
    # would only repeat it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hidden, cache = _lstm_steps(model, batch.inputs)
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
    preds = forward(model, batch)
    loss = mse_loss(preds, batch.targets)
    if kl_anchor is not None:
        loss += kl_divergence(
            param_distribution(model.fc_block), param_distribution(kl_anchor)
        )
    return loss


def sgd_step(model: ParamSet, grads: ParamSet, eta: float) -> ParamSet:
    """One plain gradient descent step; returns a new parameter set."""
    return ParamSet(model.values - eta * grads.values, model.dims)
