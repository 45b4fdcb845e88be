import math

import numpy as np
import pytest

from fedsim.errors import ConfigError
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
from fedsim.nn import EVAL_BLOCK_ROWS, _lstm_steps

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
        preds, hidden = forward(model, batch)
        assert np.all(preds == 0.0)
        assert np.all(hidden == 0.0)

    def test_duplicated_sequences_get_identical_rows(self):
        dims = Dims(2, 6, 2)
        model = random_model(dims, seed=2)
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(1, 4, 2))
        batch = TrainBatch(np.repeat(seq, 3, axis=0), rng.normal(size=(3, 2)))
        preds, hidden = forward(model, batch)
        assert np.array_equal(preds[0], preds[1]) and np.array_equal(preds[1], preds[2])
        assert np.array_equal(hidden[0], hidden[1])

    def test_matches_scalar_reference(self):
        # Oracle: an independent scalar re-implementation of the gate equations.
        dims = Dims(3, 5, 2)
        model = random_model(dims, seed=11)
        batch = random_batch(dims, 4, 6, seed=12)
        preds, hidden = forward(model, batch)
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
        batch = random_batch(dims, 2 * EVAL_BLOCK_ROWS + 1, 3, seed=14)
        preds, hidden = forward(model, batch)
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
        p1, h1 = forward(model, batch)
        p2, h2 = forward(model, batch)
        assert np.array_equal(p1, p2) and np.array_equal(h1, h2)


BLOCKED_SIZES = [
    2 * EVAL_BLOCK_ROWS,
    2 * EVAL_BLOCK_ROWS + 1,
    2 * EVAL_BLOCK_ROWS + 2,
    EVAL_BLOCK_ROWS + 1,
]


class TestBlockedEval:
    """The cache-free pass walks the batch in row blocks, bit for bit."""

    @pytest.mark.parametrize("hidden", [8, 32, 64])
    @pytest.mark.parametrize("n_rows", BLOCKED_SIZES)
    def test_equals_a_single_pass(self, monkeypatch, hidden, n_rows):
        dims = Dims(2, hidden, 2)
        model = random_model(dims, seed=hidden)
        batch = random_batch(dims, n_rows, 6, seed=n_rows)
        hidden_blocked = nn.lstm_hidden(model, batch.inputs)
        preds_blocked, _ = forward(model, batch)
        monkeypatch.setattr(nn, "EVAL_BLOCK_ROWS", 10**9)
        assert np.array_equal(hidden_blocked, nn.lstm_hidden(model, batch.inputs))
        preds_single, hidden_single = forward(model, batch)
        assert np.array_equal(hidden_blocked, hidden_single)
        assert np.array_equal(preds_blocked, preds_single)

    @pytest.mark.parametrize(
        "n_rows, blocks",
        [
            (2, [2]),
            (EVAL_BLOCK_ROWS, [EVAL_BLOCK_ROWS]),
            (EVAL_BLOCK_ROWS + 1, [EVAL_BLOCK_ROWS + 1]),
            (2 * EVAL_BLOCK_ROWS, [EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS]),
            (2 * EVAL_BLOCK_ROWS + 1, [EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1]),
            (2 * EVAL_BLOCK_ROWS + 2, [EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS, 2]),
        ],
    )
    def test_row_blocks_never_leave_a_one_row_tail(self, monkeypatch, n_rows, blocks):
        dims = Dims(2, 4, 2)
        model = random_model(dims, seed=1)
        inputs = np.zeros((n_rows, 3, 2))
        seen = []
        steps = nn._lstm_steps

        def recording(model, inputs, keep_cache):
            seen.append(inputs.shape[0])
            return steps(model, inputs, keep_cache)

        monkeypatch.setattr(nn, "_lstm_steps", recording)
        nn.lstm_hidden(model, inputs)
        assert seen == blocks
        seen.clear()
        backward(model, TrainBatch(inputs, np.zeros((n_rows, 2))))
        assert seen == [n_rows]


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
        preds, _ = forward(model, TrainBatch(inputs, np.zeros((3, 2))))
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
            preds, hidden = forward(model, batch)
            grads = backward(model, batch)
            _, cache = _lstm_steps(model, batch.inputs, keep_cache=True)
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
        _, cache = _lstm_steps(model, grid.reshape(-1, 1, 1), keep_cache=True)
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
        preds, hidden = forward(zeroed, random_batch(dims, 3, 4, seed=21))
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

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_rejected(self, delta):
        dims = Dims(2, 3, 2)
        with pytest.raises(ConfigError):
            ParamSet(np.zeros(dims.total_size + delta), dims)
