import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedsim.nn import (
    Dims,
    ParamSet,
    TrainBatch,
    backward,
    batch_objective,
    forward,
    init_params,
    kl_divergence,
    mse_loss,
    param_distribution,
    sgd_step,
)
from fedsim import nn
from fedsim.nn import _lstm_steps
from fedsim.training import evaluate_rmse

from oracles import (
    finite_difference_gradient,
    gradcheck_relative_error,
    kl_scalar,
    lstm_forward_scalar,
    sigmoid_scalar,
)


def random_model(dims, seed):
    return init_params(dims, np.random.default_rng(seed))


def random_batch(dims, batch_size, seq_len, seed):
    rng = np.random.default_rng(seed)
    return TrainBatch(
        rng.normal(size=(batch_size, seq_len, dims.n_in)),
        rng.normal(size=(batch_size, dims.n_out)),
    )


class TestForward:
    def test_zero_params_give_zero_predictions(self):
        dims = Dims(2, 4, 2)
        model = ParamSet(np.zeros(dims.total_size), dims)
        batch = random_batch(dims, 3, 5, seed=1)
        preds = forward(model, batch)
        hidden = nn.lstm_hidden(model, batch.inputs)
        assert np.all(preds == 0.0)
        assert np.all(hidden == 0.0)

    def test_duplicated_sequences_get_identical_rows(self):
        dims = Dims(2, 6, 2)
        model = random_model(dims, seed=2)
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(1, 4, 2))
        batch = TrainBatch(np.repeat(seq, 3, axis=0), rng.normal(size=(3, 2)))
        preds = forward(model, batch)
        hidden = nn.lstm_hidden(model, batch.inputs)
        assert np.array_equal(preds[0], preds[1]) and np.array_equal(preds[1], preds[2])
        assert np.array_equal(hidden[0], hidden[1])

    def test_matches_scalar_reference(self):
        # Oracle: an independent scalar re-implementation of the gate equations.
        dims = Dims(3, 5, 2)
        model = random_model(dims, seed=11)
        batch = random_batch(dims, 4, 6, seed=12)
        preds = forward(model, batch)
        hidden = nn.lstm_hidden(model, batch.inputs)
        ref_preds, ref_hidden = lstm_forward_scalar(
            model.lstm_block.tolist(),
            model.fc_block.tolist(),
            dims.n_in,
            dims.n_hidden,
            dims.n_out,
            batch.inputs.tolist(),
        )
        assert np.max(np.abs(preds - np.array(ref_preds))) < 1e-10
        assert np.max(np.abs(hidden - np.array(ref_hidden))) < 1e-10

    def test_matches_scalar_reference_across_row_blocks(self):
        # two blocks, the second taking the 1-row remainder
        dims = Dims(2, 3, 2)
        model = random_model(dims, seed=13)
        batch = random_batch(dims, 2 * nn._eval_block_rows(2, 3) + 1, 3, seed=14)
        preds = forward(model, batch)
        hidden = nn.lstm_hidden(model, batch.inputs)
        ref_preds, ref_hidden = lstm_forward_scalar(
            model.lstm_block.tolist(),
            model.fc_block.tolist(),
            dims.n_in,
            dims.n_hidden,
            dims.n_out,
            batch.inputs.tolist(),
        )
        assert np.max(np.abs(preds - np.array(ref_preds))) < 1e-10
        assert np.max(np.abs(hidden - np.array(ref_hidden))) < 1e-10

    def test_is_pure(self):
        dims = Dims(2, 4, 2)
        model = random_model(dims, seed=4)
        batch = random_batch(dims, 2, 3, seed=5)
        p1, h1 = forward(model, batch), nn.lstm_hidden(model, batch.inputs)
        p2, h2 = forward(model, batch), nn.lstm_hidden(model, batch.inputs)
        assert np.array_equal(p1, p2) and np.array_equal(h1, h2)


# fixed row counts: several blocks at H=32 (496 rows each) and H=64 (240),
# one block at H=8 (1,984). Cases sized from each width's own block are in
# test_equals_a_single_pass_at_byte_capped_blocks
BLOCKED_SIZES = [1024, 1025, 1026, 513]
# rows of one block at I=2 and H=31: 512
ROWS_AT_31 = nn._eval_block_rows(2, 31)


class TestBlockedEval:
    """The cache-free pass walks the batch in row blocks, bit for bit."""

    @staticmethod
    def check_equals_a_single_pass(monkeypatch, hidden, n_rows):
        dims = Dims(2, hidden, 2)
        model = random_model(dims, seed=hidden)
        batch = random_batch(dims, n_rows, 6, seed=n_rows)
        hidden_blocked = nn.lstm_hidden(model, batch.inputs)
        preds_blocked = forward(model, batch)
        # lift the byte cap, so every row runs in one block and one head GEMM
        monkeypatch.setattr(nn, "EVAL_WORK_BYTES", 10**15)
        assert nn._eval_block_rows(dims.n_in, hidden) >= n_rows
        assert np.array_equal(hidden_blocked, nn.lstm_hidden(model, batch.inputs))
        assert np.array_equal(preds_blocked, forward(model, batch))

    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("hidden", [8, 32, 64])
    @pytest.mark.parametrize("n_rows", BLOCKED_SIZES)
    def test_equals_a_single_pass(self, monkeypatch, hidden, n_rows):
        self.check_equals_a_single_pass(monkeypatch, hidden, n_rows)

    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("hidden", [8, 32, 64])
    @pytest.mark.parametrize("n_blocks, tail", [(2, 0), (2, 1), (2, 2), (1, 1), (3, 15)])
    def test_equals_a_single_pass_at_byte_capped_blocks(self, monkeypatch, hidden, n_blocks, tail):
        # the byte cap sets the block: 1,984 rows at H=8, 496 at H=32, 240 at H=64
        rows = nn._eval_block_rows(2, hidden)
        self.check_equals_a_single_pass(monkeypatch, hidden, n_blocks * rows + tail)

    @pytest.mark.parametrize(
        "n_in, hidden, rows",
        [
            (2, 4, 3840), (2, 8, 1984), (2, 31, 512), (3, 31, 512), (2, 32, 496),
            (2, 64, 240), (2, 1000, 16),
        ],
    )
    def test_block_rows_are_the_smaller_cap_in_multiples_of_16(self, n_in, hidden, rows):
        # EVAL_WORK_BYTES / (8 (I + 8H)) rounded down to 16, and at least 16
        assert nn._eval_block_rows(n_in, hidden) == rows

    @pytest.mark.parametrize(
        "n_rows, blocks",
        [
            (2, [2]),
            (ROWS_AT_31, [ROWS_AT_31]),
            (ROWS_AT_31 + 1, [ROWS_AT_31 + 1]),
            (2 * ROWS_AT_31, [ROWS_AT_31, ROWS_AT_31]),
            (2 * ROWS_AT_31 + 1, [ROWS_AT_31, ROWS_AT_31 + 1]),
            (2 * ROWS_AT_31 + 2, [ROWS_AT_31, ROWS_AT_31, 2]),
        ],
    )
    def test_row_blocks_never_leave_a_one_row_tail(self, monkeypatch, n_rows, blocks):
        dims = Dims(2, 31, 2)
        model = random_model(dims, seed=1)
        inputs = np.zeros((n_rows, 3, 2))
        seen = []
        step = nn._lstm_step

        # both passes run every step of every block through the one step function
        def recording(z, *args):
            seen.append(z.shape[0])
            return step(z, *args)

        monkeypatch.setattr(nn, "_lstm_step", recording)
        nn.lstm_hidden(model, inputs)
        assert seen == [rows for rows in blocks for _ in range(3)]
        seen.clear()
        backward(model, TrainBatch(inputs, np.zeros((n_rows, 2))))
        assert seen == [n_rows] * 3

    def test_byte_capped_blocks_never_leave_a_one_row_tail(self, monkeypatch):
        model = random_model(Dims(2, 64, 2), seed=1)
        seen = []
        step = nn._lstm_step

        def recording(z, *args):
            seen.append(z.shape[0])
            return step(z, *args)

        monkeypatch.setattr(nn, "_lstm_step", recording)
        nn.lstm_hidden(model, np.zeros((2 * 240 + 1, 1, 2)))
        assert seen == [240, 241]

    def test_eval_holds_one_block_and_no_hidden_array(self):
        # at H=64 and 20,000 rows a (B, H) hidden array would be 10 MB; the
        # eval may hold one block's working set, the halved gate weights and
        # a few (B, O) arrays
        dims = Dims(2, 64, 2)
        n_rows = 20_000
        model = random_model(dims, seed=7)
        batch = random_batch(dims, n_rows, 6, seed=8)
        work = 8 * (nn._eval_block_rows(2, 64) + 1) * (2 + 8 * 64)
        gates = 8 * dims.lstm_size
        preds = 8 * n_rows * dims.n_out
        tracemalloc.start()
        try:
            evaluate_rmse(model, batch.inputs, batch.targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < work + gates + 3 * preds

    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("hidden", [8, 21, 32, 64])
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 16, 513])
    def test_reused_buffers_give_the_training_pass_bits(self, hidden, n_rows):
        # both passes run one block of n_rows here, so odd widths hold too,
        # except 513 rows at H=32 and 64: the byte cap cuts that eval in two,
        # and at even widths blocks keep the bits
        dims = Dims(2, hidden, 2)
        model = random_model(dims, seed=hidden)
        inputs = random_batch(dims, n_rows, 6, seed=n_rows).inputs
        trained, _ = _lstm_steps(model, inputs)
        assert np.array_equal(nn.lstm_hidden(model, inputs), trained)

    def test_back_to_back_evals_match_each_alone(self):
        # every block after the first starts from zero h and c in buffers
        # that held the block before it
        dims = Dims(2, 32, 2)
        rows = nn._eval_block_rows(2, 32)
        first, second = random_model(dims, seed=3), random_model(dims, seed=4)
        large = random_batch(dims, 2 * rows + 2, 6, seed=5).inputs
        small = random_batch(dims, 5, 6, seed=6).inputs
        small_alone = nn.lstm_hidden(second, small)
        hidden = nn.lstm_hidden(first, large)
        assert np.array_equal(nn.lstm_hidden(second, small), small_alone)
        for start in (0, rows, 2 * rows):
            block = slice(start, start + rows)
            assert np.array_equal(hidden[block], nn.lstm_hidden(first, large[block]))


# The global holdout evals of the benchmark workloads: fleet_churn (H=8,
# 2720 rows), headline (H=32, 1720 rows) and sgd_bulk (H=64, 3184 rows).
# evaluate_rmse's float can hide a one-ulp move of one prediction, so the
# script also prints a digest of the predictions it squared.
EVAL_BITS_SCRIPT = """
import hashlib
import numpy as np
from fedsim import training
from fedsim.nn import Dims, init_params
digests = []
def forward(model, batch):
    preds = training_forward(model, batch)
    digests.append(hashlib.sha256(preds.tobytes()).hexdigest())
    return preds
training_forward, training.forward = training.forward, forward
for hidden in (8, 32, 64):
    for n_rows in (1720, 2720, 3184):
        rng = np.random.default_rng(10_000 * hidden + n_rows)
        model = init_params(Dims(2, hidden, 2), rng)
        inputs = rng.normal(size=(n_rows, 6, 2))
        targets = rng.normal(size=(n_rows, 2))
        rmse = training.evaluate_rmse(model, inputs, targets)
        print(hidden, n_rows, rmse.hex(), digests[-1])
"""

KERNELS = {
    "native": {},
    # what an AVX2 host runs: OpenBLAS's Haswell kernel, numpy without AVX-512
    "haswell": {
        "OPENBLAS_CORETYPE": "Haswell",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    },
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_eval_bits_hold_at_one_and_two_blas_threads(kernel):
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env.update(KERNELS[kernel], OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", EVAL_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines())
    assert len(outputs[0]) == 9
    assert outputs[0] == outputs[1]


class TestMseLoss:
    def test_exact_match_is_zero(self):
        x = np.arange(6.0).reshape(2, 3)
        assert mse_loss(x, x) == 0.0

    def test_unit_errors_give_one(self):
        x = np.zeros((2, 3))
        assert mse_loss(x + 1.0, x) == 1.0

    def test_hand_computed_case(self):
        # errors {1, 1, 3, 1} -> (1 + 1 + 9 + 1) / 4 = 3
        preds = np.array([[1.0, 1.0], [3.0, 1.0]])
        targets = np.zeros((2, 2))
        assert mse_loss(preds, targets) == pytest.approx(3.0)


class TestBackward:
    def test_zero_error_batch_has_zero_data_gradient(self):
        dims = Dims(2, 4, 2)
        model = random_model(dims, seed=8)
        inputs = np.random.default_rng(9).normal(size=(3, 4, 2))
        preds = forward(model, TrainBatch(inputs, np.zeros((3, 2))))
        grads = backward(model, TrainBatch(inputs, preds))
        assert np.max(np.abs(grads.lstm_block)) < 1e-14
        assert np.max(np.abs(grads.fc_block)) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        dims = Dims(2, 6, 2)
        model = random_model(dims, seed=100 + seed)
        batch = random_batch(dims, 3, 4, seed=200 + seed)
        grads = backward(model, batch)

        def loss_at(vec):
            return batch_objective(ParamSet(vec, dims), batch)

        numeric = finite_difference_gradient(loss_at, model.values)
        assert gradcheck_relative_error(grads.values, numeric) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_kl_term_matches_finite_differences(self, seed):
        dims = Dims(2, 5, 2)
        model = random_model(dims, seed=300 + seed)
        target = random_model(dims, seed=400 + seed).fc_block
        batch = random_batch(dims, 3, 4, seed=500 + seed)
        grads = backward(model, batch, kl_anchor=target)

        def loss_at(vec):
            return batch_objective(ParamSet(vec, dims), batch, kl_anchor=target)

        numeric = finite_difference_gradient(loss_at, model.values)
        assert gradcheck_relative_error(grads.values, numeric) < 1e-4

    def test_self_target_adds_nothing(self):
        dims = Dims(2, 4, 2)
        model = random_model(dims, seed=13)
        batch = random_batch(dims, 3, 4, seed=14)
        plain = backward(model, batch)
        biased = backward(model, batch, kl_anchor=model.fc_block)
        assert np.array_equal(plain.fc_block, biased.fc_block)
        assert np.array_equal(plain.lstm_block, biased.lstm_block)


class TestGateEdgeCases:
    def saturated_model(self, dims, seed):
        # gate biases of +-1e3 dwarf the weight terms, so every pre-activation
        # sits near +-1e3 and every gate saturates
        model = random_model(dims, seed)
        n_bias = 4 * dims.n_hidden
        model.lstm_block[-n_bias:] = np.where(np.arange(n_bias) % 2, 1e3, -1e3)
        return model

    def test_saturated_gates_stay_finite_without_fp_errors(self):
        dims = Dims(2, 6, 2)
        model = self.saturated_model(dims, seed=21)
        batch = random_batch(dims, 5, 4, seed=22)
        with np.errstate(all="raise"):
            preds = forward(model, batch)
            hidden = nn.lstm_hidden(model, batch.inputs)
            grads = backward(model, batch)
            _, cache = _lstm_steps(model, batch.inputs)
        assert np.all(np.isfinite(preds)) and np.all(np.isfinite(hidden))
        assert np.all(np.isfinite(grads.values))
        H = dims.n_hidden
        for _, a, gg, _, _ in cache:
            for gate in (a[:, :H], a[:, H : 2 * H], a[:, 3 * H :]):
                assert np.all((gate >= 0.0) & (gate <= 1.0))
            assert np.all(np.abs(gg) <= 1.0)

    def test_sigmoid_matches_scalar_oracle(self):
        # one step with the grid as the only input and a unit weight row, so
        # every gate's pre-activation is the grid value. Absolute error: far
        # below zero the tanh form gives exactly 0, where the logistic is
        # tiny but positive (about 4e-18 at -40)
        dims = Dims(1, 2, 1)
        H = dims.n_hidden
        model = ParamSet(np.zeros(dims.total_size), dims)
        model.lstm_block[: 4 * H] = 1.0
        grid = np.linspace(-40.0, 40.0, 8001)
        _, cache = _lstm_steps(model, grid.reshape(-1, 1, 1))
        (_, a, gg, _, _), = cache
        expected = np.array([sigmoid_scalar(x) for x in grid])[:, None]
        for gate in (a[:, :H], a[:, H : 2 * H], a[:, 3 * H :]):
            assert np.max(np.abs(gate - expected)) <= 1e-15
        tanh = np.array([math.tanh(x) for x in grid])[:, None]
        assert np.max(np.abs(gg - tanh)) <= 1e-15


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        dims = Dims(2, 3, 2)
        model = random_model(dims, seed=15)
        zero = ParamSet(np.zeros(dims.total_size), dims)
        stepped = sgd_step(model, zero, 0.01)
        assert np.array_equal(stepped.values, model.values)

    def test_single_parameter_arithmetic(self):
        # w = 1, g = 2, eta = 0.1 -> 0.8
        dims = Dims(1, 1, 1)
        model = ParamSet(np.ones(dims.total_size), dims)
        grads = ParamSet(np.full(dims.total_size, 2.0), dims)
        stepped = sgd_step(model, grads, 0.1)
        assert np.allclose(stepped.values, 0.8)

    def test_two_steps_are_linear(self):
        dims = Dims(1, 2, 1)
        model = random_model(dims, seed=16)
        grads = random_model(dims, seed=17)
        twice = sgd_step(sgd_step(model, grads, 0.05), grads, 0.05)
        assert np.allclose(twice.values, model.values - 0.1 * grads.values)


class TestParamDistribution:
    def test_symmetric_block_is_uniform(self):
        assert np.allclose(param_distribution(np.ones(4)), 0.25)

    def test_hand_computed_case(self):
        dist = param_distribution(np.array([3.0, -1.0]))
        eps = 1e-8
        assert dist[0] == pytest.approx((3 + eps) / (4 + 2 * eps))
        assert dist[1] == pytest.approx((1 + eps) / (4 + 2 * eps))

    def test_zero_block_is_uniform(self):
        assert np.allclose(param_distribution(np.zeros(7)), 1.0 / 7.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_sums_to_one_with_positive_entries(self, seed):
        rng = np.random.default_rng(seed)
        block = rng.normal(scale=rng.uniform(1e-6, 10.0), size=rng.integers(1, 200))
        dist = param_distribution(block)
        assert abs(dist.sum() - 1.0) <= 1e-12
        assert np.all(dist > 0)


class TestKlDivergence:
    def test_identical_distributions_give_zero(self):
        p = param_distribution(np.arange(1.0, 6.0))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_pair(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected)
        assert kl_divergence(p, q) == pytest.approx(0.14384, abs=5e-6)

    def test_asymmetry_witness(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert kl_divergence(q, p) == pytest.approx(0.13081, abs=5e-6)
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), abs=1e-3)

    @pytest.mark.parametrize("seed", range(25))
    def test_nonnegative_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        p = param_distribution(rng.normal(size=n))
        q = param_distribution(rng.normal(size=n))
        value = kl_divergence(p, q)
        assert value >= 0.0
        assert value == pytest.approx(kl_scalar(p.tolist(), q.tolist()), abs=1e-12)


class TestFcHead:
    def test_zero_head_zeroes_the_output(self):
        dims = Dims(2, 4, 2)
        model = random_model(dims, seed=20)
        zeroed = ParamSet(np.concatenate([model.lstm_block, np.zeros(dims.fc_size)]), dims)
        batch = random_batch(dims, 3, 4, seed=21)
        preds = forward(zeroed, batch)
        hidden = nn.lstm_hidden(zeroed, batch.inputs)
        assert np.all(preds == 0.0)
        assert np.any(hidden != 0.0)

    def test_reported_head_size_for_128_by_5(self):
        dims = Dims(2, 128, 5)
        assert dims.fc_size == 645
        model = ParamSet(np.zeros(dims.total_size), dims)
        assert model.fc_block.size == 645


class TestParamSetViews:
    def test_writing_a_block_changes_values(self):
        dims = Dims(2, 3, 2)
        model = ParamSet(np.zeros(dims.total_size), dims)
        model.fc_block[0] = 1.5
        model.lstm_block[-1] = -2.5
        assert model.values[dims.lstm_size] == 1.5
        assert model.values[dims.lstm_size - 1] == -2.5

    def test_blocks_share_memory_with_values(self):
        model = random_model(Dims(2, 3, 2), seed=24)
        assert np.shares_memory(model.fc_block, model.values)
        assert np.shares_memory(model.lstm_block, model.values)

    def test_values_are_taken_without_a_copy(self):
        dims = Dims(1, 2, 1)
        vec = np.zeros(dims.total_size)
        assert ParamSet(vec, dims).values is vec

    def test_equality_is_a_bool_and_never_raises(self):
        model = random_model(Dims(2, 3, 2), seed=25)
        assert (model == model) is True
        assert (model == model.copy()) is False
