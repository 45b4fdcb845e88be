import numpy as np

import fedsim.collab
from fedsim.collab import evaluate_candidates, head_payload_values
from fedsim.nn import (
    Dims,
    ParamSet,
    TrainBatch,
    _fc_views,
    forward,
    init_params,
    kl_divergence,
    lstm_hidden,
    mse_loss,
    param_distribution,
)
from fedsim.training import train_local

from oracles import best_head_by_loop


def make_model(dims, seed):
    return init_params(dims, np.random.default_rng(seed))


def with_head(model, head):
    return ParamSet(np.concatenate([model.lstm_block, head]), model.dims)


def holdout_mse(model, inputs, targets):
    return mse_loss(forward(model, TrainBatch(inputs, targets)), targets)


def make_eval_data(dims, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 4, dims.n_in)), rng.normal(size=(n, dims.n_out))


class RecordingNumpy:
    """numpy as a module sees it, except that np.matmul keeps its left operand
    and its product."""

    def __init__(self):
        self.products = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b):
        product = np.matmul(a, b)
        self.products.append((a, product))
        return product


class TestEvaluateCandidates:
    def test_zero_neighbors_choose_own_model(self):
        dims = Dims(2, 5, 2)
        model = make_model(dims, 0)
        inputs, targets = make_eval_data(dims, 6, 1)
        cache = evaluate_candidates(model, own_id=3, neighbor_heads=[], eval_inputs=inputs, eval_targets=targets)
        assert cache.source_id == 3
        assert np.array_equal(cache.head, model.fc_block)

    def test_identical_neighbor_head_ties_to_own(self):
        dims = Dims(2, 5, 2)
        model = make_model(dims, 2)
        inputs, targets = make_eval_data(dims, 6, 3)
        cache = evaluate_candidates(
            model, own_id=1, neighbor_heads=[(0, model.fc_block.copy())], eval_inputs=inputs, eval_targets=targets
        )
        assert cache.source_id == 1

    def test_better_neighbor_head_selected(self):
        # Fixture: the neighbor's head was trained on this client's own data,
        # so it scores strictly lower than the client's untouched head.
        dims = Dims(2, 6, 2)
        own = make_model(dims, 4)
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(32, 4, 2))
        targets = rng.normal(scale=0.1, size=(32, 2)) + 0.5
        trained = train_local(own, inputs, targets, epochs=40, eta=0.05, batch_size=8, rng=rng)
        neighbor_head = trained.fc_block.copy()
        cache = evaluate_candidates(
            own, own_id=0, neighbor_heads=[(7, neighbor_head)], eval_inputs=inputs, eval_targets=targets
        )
        own_loss = holdout_mse(own, inputs, targets)
        assert cache.source_id == 7
        assert holdout_mse(with_head(own, cache.head), inputs, targets) < own_loss

    def test_argmin_contract_over_all_candidates(self):
        dims = Dims(2, 4, 2)
        own = make_model(dims, 6)
        inputs, targets = make_eval_data(dims, 10, 7)
        heads = [(nid, make_model(dims, 100 + nid).fc_block.copy()) for nid in range(5)]
        cache = evaluate_candidates(own, own_id=9, neighbor_heads=heads, eval_inputs=inputs, eval_targets=targets)
        candidate_losses = [holdout_mse(own, inputs, targets)] + [
            holdout_mse(with_head(own, head), inputs, targets) for _, head in heads
        ]
        chosen = holdout_mse(with_head(own, cache.head), inputs, targets)
        assert chosen <= min(candidate_losses) + 1e-15

    def test_lstm_block_of_winner_is_local(self):
        # the cache holds a head only: the recurrent block stays the client's
        dims = Dims(2, 4, 2)
        own = make_model(dims, 8)
        other = make_model(dims, 9)
        inputs, targets = make_eval_data(dims, 8, 10)
        cache = evaluate_candidates(
            own, own_id=0, neighbor_heads=[(1, other.fc_block.copy())], eval_inputs=inputs, eval_targets=targets
        )
        winner = {0: own.fc_block, 1: other.fc_block}[cache.source_id]
        assert cache.head.shape == (dims.fc_size,) and np.array_equal(cache.head, winner)

    def test_candidate_evaluation_never_mutates_neighbor_state(self):
        dims = Dims(2, 4, 2)
        own = make_model(dims, 24)
        neighbor_head = make_model(dims, 25).fc_block.copy()
        snapshot = neighbor_head.copy()
        inputs, targets = make_eval_data(dims, 8, 26)
        cache = evaluate_candidates(
            own, own_id=0, neighbor_heads=[(1, neighbor_head)],
            eval_inputs=inputs, eval_targets=targets,
        )
        cache.head[:] = -1.0
        assert np.array_equal(neighbor_head, snapshot)


class TestStackedScoringOracle:
    """The stacked product picks the head that one 2-D product per head picks."""

    def check(self, own, own_id, neighbor_heads, inputs, targets):
        dims = own.dims
        cache = evaluate_candidates(own, own_id, neighbor_heads, inputs, targets)
        hidden = lstm_hidden(own, inputs)
        expected = best_head_by_loop(
            hidden, targets, own_id, own.fc_block, neighbor_heads, dims.n_hidden, dims.n_out
        )
        assert cache.source_id == expected
        winner = dict([(own_id, own.fc_block)] + list(neighbor_heads))[cache.source_id]
        assert np.array_equal(cache.head, winner)
        return cache

    def test_random_heads_batches_and_sizes(self):
        rng = np.random.default_rng(61)
        for hidden in (3, 8, 32):
            dims = Dims(2, hidden, 2)
            for m in (1, 2, 3, 5, 8, 16, 40):
                for k in (0, 1, 4, 7):
                    own = make_model(dims, int(rng.integers(1 << 30)))
                    ids = rng.permutation(50)[:k].tolist()
                    heads = [(int(nid), rng.normal(size=dims.fc_size)) for nid in ids]
                    inputs, targets = make_eval_data(dims, m, int(rng.integers(1 << 30)))
                    self.check(own, 50, heads, inputs, targets)

    def test_each_slice_of_the_stacked_product_has_the_bits_of_the_2d_one(self, monkeypatch):
        # the stacked product scores each head as apply_fc's hidden @ w_k would
        spy = RecordingNumpy()
        monkeypatch.setattr(fedsim.collab, "np", spy)
        rng = np.random.default_rng(71)
        for hidden_units in (3, 8, 32):
            dims = Dims(2, hidden_units, 2)
            for m in range(1, 41):
                for k in range(8):
                    own = make_model(dims, int(rng.integers(1 << 30)))
                    heads = [(nid, rng.normal(size=dims.fc_size)) for nid in range(k)]
                    inputs, targets = make_eval_data(dims, m, int(rng.integers(1 << 30)))
                    evaluate_candidates(own, k, heads, inputs, targets)
                    (hidden, product), = spy.products
                    spy.products.clear()
                    assert hidden.tobytes() == lstm_hidden(own, inputs).tobytes()
                    assert product.shape == (k + 1, m, dims.n_out)
                    for head, stacked in zip([own.fc_block] + [h for _, h in heads], product):
                        w, _ = _fc_views(head, dims)
                        assert stacked.tobytes() == (hidden @ w).tobytes(), (hidden_units, m, k)

    def test_duplicate_heads_tie_to_own_then_lowest_id(self):
        dims = Dims(2, 6, 2)
        own = make_model(dims, 62)
        inputs, _ = make_eval_data(dims, 5, 64)
        # targets the neighbors' head predicts exactly, so it beats the own head
        better = with_head(own, make_model(dims, 63).fc_block)
        targets = forward(better, TrainBatch(inputs, np.zeros((5, dims.n_out))))
        tied = self.check(own, 4, [(9, own.fc_block.copy()), (2, own.fc_block.copy())], inputs, targets)
        assert tied.source_id == 4
        heads = [(9, better.fc_block.copy()), (2, better.fc_block.copy()), (5, better.fc_block.copy())]
        assert self.check(own, 4, heads, inputs, targets).source_id == 2

    def test_nan_head_never_wins(self):
        dims = Dims(2, 5, 2)
        own = make_model(dims, 65)
        inputs, targets = make_eval_data(dims, 1, 66)
        nan_head = make_model(dims, 67).fc_block.copy()
        nan_head[0] = np.nan
        for heads in ([(1, nan_head)], [(1, nan_head), (3, make_model(dims, 68).fc_block.copy())]):
            cache = self.check(own, 0, heads, inputs, targets)
            assert cache.source_id != 1
            assert np.isfinite(holdout_mse(with_head(own, cache.head), inputs, targets))

    def test_single_row_batch_without_neighbors(self):
        dims = Dims(2, 8, 2)
        own = make_model(dims, 69)
        inputs, targets = make_eval_data(dims, 1, 70)
        cache = self.check(own, 7, [], inputs, targets)
        assert cache.source_id == 7


class TestCollaborativeLocalUpdate:
    def test_anchor_equal_to_model_reduces_to_plain_update(self):
        # The divergence penalty vanishes at the anchor itself, so a single
        # step starting there matches the plain update exactly.
        dims = Dims(2, 5, 2)
        model = make_model(dims, 11)
        inputs, targets = make_eval_data(dims, 12, 12)
        with_anchor = train_local(
            model, inputs, targets, epochs=1, eta=0.01, batch_size=12,
            rng=np.random.default_rng(13), kl_anchor=model.fc_block.copy(),
        )
        plain = train_local(
            model, inputs, targets, epochs=1, eta=0.01, batch_size=12,
            rng=np.random.default_rng(13),
        )
        assert np.array_equal(with_anchor.values, plain.values)

    def test_kl_only_objective_descends(self):
        # Freeze the data term by using targets the model already predicts
        # exactly; the update must then strictly shrink the head divergence.
        dims = Dims(2, 5, 2)
        model = make_model(dims, 14)
        rng = np.random.default_rng(15)
        inputs = rng.normal(size=(8, 4, 2))
        preds = forward(model, TrainBatch(inputs, np.zeros((8, dims.n_out))))
        anchor = make_model(dims, 16)

        def head_divergence(m):
            return kl_divergence(
                param_distribution(m.fc_block), param_distribution(anchor.fc_block)
            )

        before = head_divergence(model)
        updated = train_local(
            model, inputs, preds, epochs=1, eta=0.005, batch_size=8,
            rng=np.random.default_rng(17), kl_anchor=anchor.fc_block,
        )
        assert head_divergence(updated) < before

    def test_no_cache_and_no_data_is_identity(self):
        dims = Dims(2, 4, 2)
        model = make_model(dims, 18)
        out = train_local(
            model, np.zeros((0, 4, 2)), np.zeros((0, 2)), epochs=1, eta=0.01,
            batch_size=4, rng=np.random.default_rng(19),
        )
        assert np.array_equal(out.values, model.values)


class TestPayloadAccounting:
    def test_payload_counts_head_values_only(self):
        dims = Dims(2, 128, 5)
        assert head_payload_values(1, dims) == 645
        assert head_payload_values(3, dims) == 3 * 645

    def test_desk_scale_head(self):
        dims = Dims(2, 32, 2)
        assert head_payload_values(2, dims) == 2 * (32 * 2 + 2)

