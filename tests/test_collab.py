import numpy as np

from fedsim.collab import evaluate_candidates, head_payload_values
from fedsim.nn import (
    Dims,
    TrainBatch,
    fc_inject,
    forward,
    init_params,
    kl_divergence,
    param_distribution,
)
from fedsim.training import evaluate_mse, train_local


def make_model(dims, seed):
    return init_params(dims, np.random.default_rng(seed))


def make_eval_data(dims, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 4, dims.n_in)), rng.normal(size=(n, dims.n_out))


class TestEvaluateCandidates:
    def test_zero_neighbors_choose_own_model(self):
        dims = Dims(2, 5, 2)
        model = make_model(dims, 0)
        inputs, targets = make_eval_data(dims, 6, 1)
        cache = evaluate_candidates(model, own_id=3, neighbor_heads=[], eval_inputs=inputs, eval_targets=targets)
        assert cache.source_id == 3
        assert np.array_equal(cache.model.flat(), model.flat())

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
        own_loss = evaluate_mse(own, inputs, targets)
        assert cache.source_id == 7
        assert cache.loss < own_loss

    def test_argmin_contract_over_all_candidates(self):
        dims = Dims(2, 4, 2)
        own = make_model(dims, 6)
        inputs, targets = make_eval_data(dims, 10, 7)
        heads = [(nid, make_model(dims, 100 + nid).fc_block.copy()) for nid in range(5)]
        cache = evaluate_candidates(own, own_id=9, neighbor_heads=heads, eval_inputs=inputs, eval_targets=targets)
        candidate_losses = [evaluate_mse(own, inputs, targets)] + [
            evaluate_mse(fc_inject(own, head), inputs, targets) for _, head in heads
        ]
        assert cache.loss <= min(candidate_losses) + 1e-15

    def test_lstm_block_of_winner_is_local(self):
        dims = Dims(2, 4, 2)
        own = make_model(dims, 8)
        other = make_model(dims, 9)
        inputs, targets = make_eval_data(dims, 8, 10)
        cache = evaluate_candidates(
            own, own_id=0, neighbor_heads=[(1, other.fc_block.copy())], eval_inputs=inputs, eval_targets=targets
        )
        assert np.array_equal(cache.model.lstm_block, own.lstm_block)

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
        cache.model.fc_block[:] = -1.0
        assert np.array_equal(neighbor_head, snapshot)


class TestCollaborativeLocalUpdate:
    def test_anchor_equal_to_model_reduces_to_plain_update(self):
        # The divergence penalty vanishes at the anchor itself, so a single
        # step starting there matches the plain update exactly.
        dims = Dims(2, 5, 2)
        model = make_model(dims, 11)
        inputs, targets = make_eval_data(dims, 12, 12)
        with_anchor = train_local(
            model, inputs, targets, epochs=1, eta=0.01, batch_size=12,
            rng=np.random.default_rng(13), kl_anchor=model.copy(),
        )
        plain = train_local(
            model, inputs, targets, epochs=1, eta=0.01, batch_size=12,
            rng=np.random.default_rng(13),
        )
        assert np.array_equal(with_anchor.flat(), plain.flat())

    def test_kl_only_objective_descends(self):
        # Freeze the data term by using targets the model already predicts
        # exactly; the update must then strictly shrink the head divergence.
        dims = Dims(2, 5, 2)
        model = make_model(dims, 14)
        rng = np.random.default_rng(15)
        inputs = rng.normal(size=(8, 4, 2))
        preds, _ = forward(model, TrainBatch(inputs, np.zeros((8, dims.n_out))))
        anchor = make_model(dims, 16)

        def head_divergence(m):
            return kl_divergence(
                param_distribution(m.fc_block), param_distribution(anchor.fc_block)
            )

        before = head_divergence(model)
        updated = train_local(
            model, inputs, preds, epochs=1, eta=0.005, batch_size=8,
            rng=np.random.default_rng(17), kl_anchor=anchor,
        )
        assert head_divergence(updated) < before

    def test_no_cache_and_no_data_is_identity(self):
        dims = Dims(2, 4, 2)
        model = make_model(dims, 18)
        out = train_local(
            model, np.zeros((0, 4, 2)), np.zeros((0, 2)), epochs=1, eta=0.01,
            batch_size=4, rng=np.random.default_rng(19),
        )
        assert np.array_equal(out.flat(), model.flat())


class TestPayloadAccounting:
    def test_payload_counts_head_values_only(self):
        dims = Dims(2, 128, 5)
        assert head_payload_values(1, dims) == 645
        assert head_payload_values(3, dims) == 3 * 645

    def test_desk_scale_head(self):
        dims = Dims(2, 32, 2)
        assert head_payload_values(2, dims) == 2 * (32 * 2 + 2)

