import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import fedsim.experiment
import fedsim.ranking
from fedsim.availability import reveal_round
from fedsim.config import ExperimentConfig
from fedsim.data import (
    Trajectory,
    make_windows,
    parse_csv,
    partition_by_vehicle,
    synth_trajectories,
    write_csv,
)
from fedsim.errors import ConfigError
from fedsim.experiment import aggregate, prepare_clients, run_experiment
from fedsim.nn import Dims, ParamSet, TrainBatch, forward, init_params, model_divergence
from fedsim.reports import rows_for_log, write_rounds_csv
from fedsim.training import evaluate_rmse, train_local

from conftest import REDUCTIONS, log_bytes, write_ragged_fleet_csv
from oracles import (
    brute_force_neighbors,
    brute_force_top_k,
    markov_chain_by_steps,
    training_window_starts,
)


def small_config(**overrides):
    base = dict(
        n_clients=6,
        rounds=10,
        synth_vehicles=6,
        synth_points_each=120,
        hidden=8,
        seq_len=4,
        batch_size=8,
        scenario="constant",
        constant_p=1.0,
        budget=5,
        seed=3,
        variant="feddecab",
        chi=2,
        sample_ratio=0.34,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestAggregate:
    def dims(self):
        return Dims(2, 3, 2)

    def test_single_model_is_identity(self):
        model = init_params(self.dims(), np.random.default_rng(0))
        agg = aggregate([model])
        assert np.array_equal(agg.values, model.values)

    def test_weighted_mean(self):
        a = init_params(self.dims(), np.random.default_rng(10))
        b = init_params(self.dims(), np.random.default_rng(11))
        agg = aggregate([a, b], weights=[3.0, 1.0])
        assert np.allclose(agg.values, 0.75 * a.values + 0.25 * b.values)

    def test_opposite_models_cancel(self):
        model = init_params(self.dims(), np.random.default_rng(1))
        negated = ParamSet(-model.values, model.dims)
        agg = aggregate([model, negated])
        assert np.allclose(agg.values, 0.0)

    def test_mean_is_idempotent_on_identical_models(self):
        model = init_params(self.dims(), np.random.default_rng(2))
        agg = aggregate([model.copy(), model.copy(), model.copy()])
        assert np.allclose(agg.values, model.values)


class TestLocalUpdate:
    def test_zero_epochs_returns_init_with_zero_divergence(self):
        dims = Dims(2, 4, 2)
        global_model = init_params(dims, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(6, 3, 2))
        targets = rng.normal(size=(6, 2))
        updated = train_local(
            global_model.copy(), inputs, targets, epochs=0, eta=0.01, batch_size=4, rng=rng
        )
        assert np.array_equal(updated.values, global_model.values)
        assert model_divergence(updated, global_model) == pytest.approx(0.0, abs=1e-12)

    def test_huge_prox_mu_pins_update_to_init(self):
        # proximal dominance: the update's fixed point sits within
        # |grad_data| / mu of init, so mu = 1e6 pins the model there;
        # eta must keep eta * mu < 2 for the explicit step to be stable
        dims = Dims(2, 4, 2)
        init = init_params(dims, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        inputs = rng.normal(size=(16, 3, 2))
        targets = rng.normal(size=(16, 2))
        updated = train_local(
            init.copy(), inputs, targets,
            epochs=5, eta=1e-7, batch_size=8, rng=rng, prox_mu=1e6,
        )
        assert np.max(np.abs(updated.values - init.values)) < 1e-3
        plain = train_local(
            init.copy(), inputs, targets,
            epochs=5, eta=1e-7, batch_size=8, rng=np.random.default_rng(6),
        )
        # and it is the penalty doing the pinning, not the tiny step size:
        # the proximal run ends strictly closer to init than the plain run
        assert np.linalg.norm(updated.values - init.values) < np.linalg.norm(
            plain.values - init.values
        )

    def test_divergence_positive_after_real_update(self):
        dims = Dims(2, 4, 2)
        global_model = init_params(dims, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(12, 3, 2))
        targets = rng.normal(size=(12, 2))
        updated = train_local(
            global_model.copy(), inputs, targets, epochs=2, eta=0.05, batch_size=4, rng=rng
        )
        assert model_divergence(updated, global_model) > 0.0


class TestEvaluateRmse:
    def test_perfect_predictions_zero(self):
        dims = Dims(2, 4, 2)
        model = init_params(dims, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        inputs = rng.normal(size=(5, 3, 2))
        from fedsim.nn import TrainBatch, forward

        preds = forward(model, TrainBatch(inputs, np.zeros((5, 2))))
        assert evaluate_rmse(model, inputs, preds) == 0.0

    def test_constant_unit_error(self):
        dims = Dims(2, 4, 2)
        model = ParamSet(np.zeros(dims.total_size), dims)
        inputs = np.zeros((4, 3, 2))
        targets = np.ones((4, 2))
        assert evaluate_rmse(model, inputs, targets) == pytest.approx(1.0)

    def test_hand_computed_two_components(self):
        # errors {3, 4} over n=2 components -> sqrt(25/2)
        dims = Dims(2, 2, 2)
        model = ParamSet(np.zeros(dims.total_size), dims)
        inputs = np.zeros((1, 3, 2))
        targets = np.array([[3.0, 4.0]])
        assert evaluate_rmse(model, inputs, targets) == pytest.approx(np.sqrt(12.5))


class TestRoundLoop:
    def test_determinism_same_seed_same_bytes(self):
        cfg = small_config(scenario="random", p_offline=0.3, p_recover=0.2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert log_bytes(a) == log_bytes(b)

    def test_different_seed_changes_logs(self):
        a = run_experiment(small_config(seed=3))
        b = run_experiment(small_config(seed=4))
        assert log_bytes(a) != log_bytes(b)

    def test_budget_ceiling_respected(self):
        cfg = small_config(budget=2, rounds=12)
        result = run_experiment(cfg)
        uploads = {cid: 0 for cid in range(cfg.n_clients)}
        for log in result.logs:
            for cid in log.selected:
                uploads[cid] += 1
        assert all(n <= 2 for n in uploads.values())

    def test_selection_cardinality_every_round(self):
        cfg = small_config(p_offline=0.4, p_recover=0.3, budget=3)
        result = run_experiment(cfg)
        uploads = {cid: 0 for cid in range(cfg.n_clients)}
        for log in result.logs:
            m_t = len(log.entries)
            assert len(log.selected) == min(cfg.k_selected, m_t)
            assert set(log.selected) <= {e.client_id for e in log.entries}
            for entry in log.entries:
                assert uploads[entry.client_id] < 3  # only budgeted clients rank
            for cid in log.selected:
                uploads[cid] += 1

    @pytest.mark.parametrize("budget", [1, None])
    def test_clients_past_their_budget_are_logged_and_never_rank(self, budget):
        cfg = small_config(p_offline=0.3, p_recover=0.5, budget=budget, rounds=12)
        result = run_experiment(cfg)
        uploads = {cid: 0 for cid in range(cfg.n_clients)}
        n_events = 0
        for log in result.logs:
            trained = sorted(cid for cid, how in log.provenance.items() if how != "skip")
            spent = [cid for cid in trained if budget is not None and uploads[cid] >= budget]
            events = [e for e in log.events if e.startswith("budget_exhausted:")]
            assert events == [f"budget_exhausted:{cid}" for cid in spent]
            assert not set(spent) & {e.client_id for e in log.entries}
            n_events += len(events)
            for cid in log.selected:
                uploads[cid] += 1
        assert (n_events > 0) == (budget is not None)

    def test_ranked_rounds_select_the_top_k_weights(self):
        cfg = small_config(variant="fedcab", p_offline=0.4, p_recover=0.3, rounds=16)
        result = run_experiment(cfg)
        ranked = [log for log in result.logs if len(log.entries) > cfg.k_selected]
        assert ranked
        for log in result.logs:
            weights = {e.client_id: e.weight for e in log.entries}
            assert log.selected == brute_force_top_k(weights, cfg.k_selected)

    def test_rank_rows_count_the_uploads_of_earlier_rounds(self):
        cfg = small_config(
            variant="fedcab", n_clients=8, synth_vehicles=8, synth_points_each=80, rounds=10,
            hidden=4, p_offline=0.3, p_recover=0.4, budget=3, sample_ratio=0.25, eta0=0.05,
            seed=4,
        )
        result = run_experiment(cfg)
        # n is a client's uploads before round t, and A = n / t
        uploads = [0] * cfg.n_clients
        for log in result.logs:
            for entry in log.entries:
                assert entry.n_updates == uploads[entry.client_id]
                assert entry.participation == uploads[entry.client_id] / log.t
            for cid in log.selected:
                uploads[cid] += 1
        entries = [entry for log in result.logs for entry in log.entries]
        assert any(entry.n_updates and entry.pos_participation for entry in entries)
        assert any(e.startswith("budget_exhausted:") for log in result.logs for e in log.events)

    def test_each_peer_scores_its_own_row_of_the_graph(self, monkeypatch):
        graphs = []  # (positions, chi, rows, graph) of every peer round
        scored = []  # (index of the round's graph, client, neighbour ids) of every exchange
        build = fedsim.experiment.build_neighbor_graph
        evaluate = fedsim.experiment.evaluate_exchanges

        def graph_spy(positions, chi, rows):
            graphs.append((positions, chi, rows, build(positions, chi, rows)))
            return graphs[-1][3]

        def scoring_spy(models, own_ids, neighbor_ids, heads, batches):
            for u, ids in zip(own_ids, neighbor_ids.tolist()):
                scored.append((len(graphs) - 1, u, ids))
            return evaluate(models, own_ids, neighbor_ids, heads, batches)

        monkeypatch.setattr(fedsim.experiment, "build_neighbor_graph", graph_spy)
        monkeypatch.setattr(fedsim.experiment, "evaluate_exchanges", scoring_spy)
        cfg = small_config(
            n_clients=9, synth_vehicles=9, decentral_freq=1.0, chi=3, p_offline=0.5,
            p_recover=0.3, seed=6,
        )
        result = run_experiment(cfg)
        # a peer round asks for the rows of its offline clients only
        peer_rounds = [log.offline for log in result.logs if log.decentralized and log.offline]
        assert [rows.tolist() for _, _, rows, _ in graphs] == peer_rounds
        for positions, chi, rows, graph in graphs:
            brute = brute_force_neighbors(positions, chi)
            assert graph.tolist() == [brute[u] for u in rows.tolist()]
        for g, u, ids in scored:
            rows, graph = graphs[g][2], graphs[g][3]
            assert ids == graph[rows.tolist().index(u)].tolist()
        assert scored
        assert len(scored) == sum(len(log.collab_sources) for log in result.logs)

    def test_recovered_clients_never_get_global_push(self):
        cfg = small_config(p_offline=0.5, p_recover=0.5, rounds=20)
        result = run_experiment(cfg)
        saw_recovered = 0
        for log in result.logs:
            for cid in log.recovered:
                saw_recovered += 1
                assert log.provenance[cid] in ("local", "skip")
        assert saw_recovered > 0

    def test_online_continuing_clients_get_global_push(self):
        cfg = small_config(p_offline=0.2, p_recover=0.5)
        result = run_experiment(cfg)
        for log in result.logs:
            recovered = set(log.recovered)
            for cid in log.online:
                if cid not in recovered and log.provenance[cid] != "skip":
                    assert log.provenance[cid] == "global"

    def test_decentral_round_schedule(self):
        cfg = small_config(decentral_freq=0.5, rounds=8)
        result = run_experiment(cfg)
        assert [log.decentralized for log in result.logs] == [
            t % 2 == 0 for t in range(1, 9)
        ]

    def test_decentral_freq_zero_never_schedules(self):
        cfg = small_config(decentral_freq=0.0)
        result = run_experiment(cfg)
        assert not any(log.decentralized for log in result.logs)

    def test_all_offline_complete_graph_payloads(self):
        # with everyone offline and chi >= N-1, every client with an eval
        # batch scores all N-1 neighbor heads plus its own
        cfg = small_config(
            p_offline=1.0, p_recover=0.0, rounds=4, chi=5,
            n_clients=6, synth_vehicles=6, decentral_freq=0.5,
        )
        result = run_experiment(cfg)
        head_size = Dims(2, cfg.hidden, 2).fc_size
        peer_logs = [log for log in result.logs if log.decentralized and log.payloads]
        assert peer_logs
        for log in peer_logs:
            for payload in log.payloads.values():
                assert payload == 5 * head_size

    def test_recovered_clients_are_rankable(self):
        cfg = small_config(p_offline=0.5, p_recover=0.5, rounds=20, budget=None)
        result = run_experiment(cfg)
        ranked_recovered = 0
        for log in result.logs:
            entry_ids = {e.client_id for e in log.entries}
            for cid in log.recovered:
                if log.provenance.get(cid) == "local":
                    assert cid in entry_ids
                    ranked_recovered += 1
        assert ranked_recovered > 0

    def test_payload_bounded_by_chi_heads(self):
        cfg = small_config(p_offline=0.5, p_recover=0.2, rounds=16, chi=2)
        result = run_experiment(cfg)
        head_size = Dims(2, cfg.hidden, 2).fc_size
        seen = 0
        for log in result.logs:
            for cid, payload in log.payloads.items():
                seen += 1
                assert cid in log.offline
                assert payload <= cfg.chi * head_size
        assert seen > 0

    def test_offline_clients_never_selected(self):
        cfg = small_config(p_offline=0.5, p_recover=0.3, rounds=16)
        result = run_experiment(cfg)
        for log in result.logs:
            assert not set(log.selected) & set(log.offline)

    def test_alpha_logged_and_decaying_in_ranked_mode(self):
        # alpha starts at 2 and decays by 2 * (2 - 1) / rounds a round
        cfg = small_config(rounds=6)
        result = run_experiment(cfg)
        alphas = [log.alpha for log in result.logs]
        assert alphas == pytest.approx([2.0 - t * 2.0 / 6 for t in range(1, 7)])

    def test_uniform_mode_logs_no_alpha_or_positions(self):
        cfg = small_config(variant="fedavg")
        result = run_experiment(cfg)
        for log in result.logs:
            assert log.alpha is None
            assert not {"P_L", "P_A", "R"} & {row[3] for row in rows_for_log(log)}


class TestVariantReduction:
    def test_feddecab_at_a_subnormal_freq_equals_freq_zero(self, tmp_path):
        # 1 / 5e-324 overflows to inf: a period that never comes
        base = dict(variant="feddecab", p_offline=0.4, p_recover=0.3, rounds=6, seed=9)
        for name, freq in (("subnormal", 5e-324), ("zero", 0.0)):
            result = run_experiment(small_config(decentral_freq=freq, **base))
            write_rounds_csv(result.logs, tmp_path / f"{name}.csv")
        assert (tmp_path / "subnormal.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()

    def test_fedprox_differs_from_fedavg(self):
        base = dict(rounds=8, seed=11)
        a = run_experiment(small_config(variant="fedprox", prox_mu=0.5, **base))
        b = run_experiment(small_config(variant="fedavg", **base))
        assert log_bytes(a) != log_bytes(b)

    @pytest.mark.parametrize(
        "proximal, plain", [("fedprox", "fedavg"), ("fedprox_plus", "fedcab")]
    )
    def test_a_proximal_variant_at_zero_mu_equals_its_plain_one(self, proximal, plain):
        base = dict(p_offline=0.4, p_recover=0.3, budget=6, rounds=14, scenario="random", seed=9)

        def logs(variant, **mu):
            return log_bytes(run_experiment(small_config(variant=variant, **mu, **base)))

        want = logs(plain)
        assert logs(proximal, prox_mu=0.0) == want
        # the penalty is on: at a positive mu the runs part
        assert logs(proximal, prox_mu=0.5) != want

    @pytest.mark.parametrize("edge", sorted(REDUCTIONS))
    def test_reductions_are_bit_exact(self, edge):
        richer, identity, poorer, apart = REDUCTIONS[edge]
        base = dict(p_offline=0.4, p_recover=0.3, budget=6, rounds=14, scenario="random", seed=9)

        def logs(variant, **overrides):
            return log_bytes(run_experiment(small_config(variant=variant, **overrides, **base)))

        want = logs(poorer)
        assert logs(richer, **identity) == want
        # the feature is on: away from its identity value the runs part
        assert logs(richer, **{**identity, **apart}) != want


class TestScenariosEndToEnd:
    def test_regional_scenario_runs(self):
        # weak boxes around the synthetic fleet's corridor
        cfg = small_config(scenario="regional", weak_areas=[[29.0, 30.0, 119.0, 121.0]])
        result = run_experiment(cfg)
        assert len(result.logs) == cfg.rounds

    def test_datasize_scenario_runs(self):
        cfg = small_config(scenario="datasize")
        result = run_experiment(cfg)
        assert len(result.logs) == cfg.rounds

    def test_logged_client_rmse_is_its_holdout_eval(self, monkeypatch):
        # local_only's round RMSE is the mean client RMSE, so every round's
        # number comes from the per-client holdout evals
        config = small_config(variant="local_only", seed=2, rounds=3)
        scored = []  # (model, inputs, targets) of every holdout eval, in call order
        original = fedsim.experiment.evaluate_rmse

        def recording(model, inputs, targets):
            scored.append((model.copy(), inputs, targets))
            return original(model, inputs, targets)

        monkeypatch.setattr(fedsim.experiment, "evaluate_rmse", recording)
        result = run_experiment(config)

        def recomputed(model, inputs, targets):
            preds = forward(model, TrainBatch(inputs, targets))
            return np.sqrt(np.mean(np.square(preds - targets)))

        logged = [rmse for log in result.logs for rmse in log.client_rmse.values()]
        assert logged == pytest.approx([recomputed(*call) for call in scored], rel=1e-12)
        for log in result.logs:
            assert log.rmse_global == pytest.approx(np.mean(list(log.client_rmse.values())))

    def test_csv_dataset_round_trips_through_engine(self, tmp_path):
        from fedsim.data import synth_trajectories, write_csv

        path = tmp_path / "fleet.csv"
        write_csv(path, synth_trajectories(seed=5, n_vehicles=6, points_each=120, kind="circle"))
        cfg = small_config(dataset="csv", data_path=str(path))
        result = run_experiment(cfg)
        assert len(result.logs) == cfg.rounds

    def test_tdrive_dataset_supported(self, tmp_path):
        rows = []
        for vid in range(1, 5):
            for k in range(120):
                rows.append(f"{vid},2008-02-02 15:{k // 60:02d}:{k % 60:02d},116.{500 + k},39.{900 + k}")
        path = tmp_path / "tdrive.txt"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = small_config(dataset="tdrive", data_path=str(path), n_clients=4)
        result = run_experiment(cfg)
        assert len(result.logs) == cfg.rounds


class TestEngineEdgeCases:
    def test_proportional_selection_respects_cardinality(self):
        cfg = small_config(selection="proportional", rounds=8)
        result = run_experiment(cfg)
        for log in result.logs:
            assert len(log.selected) == min(cfg.k_selected, len(log.entries))
            assert set(log.selected) <= {e.client_id for e in log.entries}

    def test_everyone_offline_gives_empty_selection_event(self):
        cfg = small_config(p_offline=1.0, p_recover=0.0, rounds=3)
        result = run_experiment(cfg)
        for log in result.logs[1:]:
            assert log.online == [] and log.selected == []
            assert "empty_selection" in log.events

    def test_offline_train_every_round_flag(self):
        base = dict(p_offline=1.0, p_recover=0.0, rounds=3, decentral_freq=0.0, seed=12)
        with_flag = run_experiment(small_config(offline_train_every_round=True, **base))
        without = run_experiment(small_config(offline_train_every_round=False, **base))
        # global RMSE traces match (no uploads either way), but the flag makes
        # offline clients consume their training streams
        assert [l.rmse_global for l in with_flag.logs] == [l.rmse_global for l in without.logs]

    def test_offline_training_is_pulled_toward_the_cached_head(self, monkeypatch):
        # everyone is offline from round 2, whose peer pass caches a head for
        # every client; round 3 trains them offline and round 4 in a peer
        # pass, and both pull each toward its cached head
        anchored = []
        original = fedsim.experiment.train_local

        def recording(*args, kl_anchor=None, **kwargs):
            anchored.append(kl_anchor is not None)
            return original(*args, kl_anchor=kl_anchor, **kwargs)

        monkeypatch.setattr(fedsim.experiment, "train_local", recording)
        cfg = small_config(
            offline_train_every_round=True, p_offline=1.0, p_recover=0.0, rounds=4
        )
        result = run_experiment(cfg)
        assert sorted(result.logs[1].collab_sources) == list(range(cfg.n_clients))
        assert anchored == [False] * 2 * cfg.n_clients + [True] * 2 * cfg.n_clients

    def test_offline_training_divergence_skips_the_client(self):
        # everyone is offline from round 2, and round 3 trains them at eta 5e16
        cfg = small_config(
            offline_train_every_round=True, eta0=0.05, eta_decay=1e9,
            p_offline=1.0, p_recover=0.0, decentral_freq=0.0, rounds=3,
        )
        result = run_experiment(cfg)
        assert len(result.logs) == 3
        last = result.logs[-1]
        aborted = [e for e in last.events if e.startswith("numeric_abort_offline:")]
        assert aborted == [f"numeric_abort_offline:{u}" for u in last.offline]
        assert not any(e.startswith("numeric_abort:") for log in result.logs for e in log.events)

    def test_peer_round_divergence_skips_the_client(self):
        # everyone is offline from round 2, whose peer round trains them at
        # eta 5e18; every client has revealed usable windows by then
        cfg = small_config(p_offline=1.0, p_recover=0.0, eta_decay=1e20, rounds=3)
        result = run_experiment(cfg)
        assert len(result.logs) == 3
        peer = result.logs[1]
        assert peer.decentralized and peer.offline == list(range(cfg.n_clients))
        aborted = [e for e in peer.events if e.startswith("numeric_abort_peer:")]
        assert aborted == [f"numeric_abort_peer:{u}" for u in peer.offline]
        assert peer.collab_sources == {} and peer.payloads == {}
        assert not any(e.startswith("numeric_abort:") for log in result.logs for e in log.events)

    def test_numeric_divergence_aborts_with_partial_logs(self):
        cfg = small_config(eta0=1e18, rounds=10)
        result = run_experiment(cfg)
        assert 1 <= len(result.logs) < 10
        assert any(
            event.startswith("numeric_abort:") for log in result.logs for event in log.events
        )

    def test_client_without_a_window_stands_at_its_points_mean_and_skips(self, tmp_path):
        # vehicle v002 has seq_len = 4 points: no window, so no training stream
        fleet = synth_trajectories(seed=5, n_vehicles=6, points_each=120, kind="circle")
        fleet[2] = short = Trajectory("v002", fleet[2].timestamps[:4], fleet[2].coords[:4])
        path = tmp_path / "fleet.csv"
        write_csv(path, fleet)
        cfg = small_config(
            dataset="csv", data_path=str(path), p_offline=0.5, p_recover=0.5,
            decentral_freq=1.0,
        )
        clients, _, bbox, *_ = prepare_clients(cfg)
        client = clients[2]
        assert client.stream_coords.shape == (0, 2)
        assert training_window_starts(cfg)[2].size == 0 and client.hold_inputs.shape[0] == 0
        np.testing.assert_array_equal(client.position, bbox.normalize(short.coords).mean(axis=0))

        result = run_experiment(cfg)
        assert len(result.logs) == cfg.rounds
        online = [log for log in result.logs if 2 in log.online]
        peer = [log for log in result.logs if log.decentralized and 2 in log.offline]
        assert online and peer
        for log in online:
            assert log.provenance[2] == "skip" and "no_usable_windows:2" in log.events
        for log in peer:
            assert {"peer_update_skipped:2", "peer_eval_skipped:2"} <= set(log.events)
            assert 2 not in log.collab_sources

    def test_aggregate_by_datasize_changes_global_path(self):
        base = dict(rounds=6, seed=13)
        plain = run_experiment(small_config(**base))
        weighted = run_experiment(small_config(aggregate_by_datasize=True, **base))
        # one vehicle of 120 points per client: weighting by size must not
        # change anything
        assert [l.rmse_global for l in plain.logs] == [l.rmse_global for l in weighted.logs]


class TestLocalOnly:
    def test_runs_and_logs_per_client_rmse(self):
        cfg = small_config(variant="local_only", rounds=4)
        result = run_experiment(cfg)
        assert len(result.logs) == 4
        final = result.final_client_rmse()
        assert len(final) >= 1
        assert all(v >= 0 for v in final.values())

    def test_zero_epoch_runs_report_initial_loss_only(self):
        cfg = small_config(variant="local_only", rounds=2, epochs=0)
        result = run_experiment(cfg)
        first, last = result.logs[0], result.logs[-1]
        assert first.client_rmse == last.client_rmse

    def test_seeded_determinism(self):
        cfg = small_config(variant="local_only", rounds=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert log_bytes(a) == log_bytes(b)

    def test_runs_with_no_server(self):
        cfg = small_config(variant="local_only", rounds=4, p_offline=1.0, p_recover=0.0)
        result = run_experiment(cfg)
        assert result.global_model is None
        for log in result.logs:
            # every client stays online and trains its own model
            assert log.online == sorted(range(cfg.n_clients))
            assert log.recovered == [] and log.offline == []
            assert set(log.provenance.values()) <= {"local", "skip"}
            assert not (log.entries or log.selected or log.decentralized)
            assert log.alpha is None and log.payloads == {}
            assert log.rmse_global == pytest.approx(np.mean(list(log.client_rmse.values())))

    def test_numeric_divergence_aborts_with_partial_logs(self):
        cfg = small_config(variant="local_only", eta0=1e18, rounds=10)
        result = run_experiment(cfg)
        assert 1 <= len(result.logs) < 10
        assert any(
            event.startswith("numeric_abort:") for log in result.logs for event in log.events
        )


class TestConnectivityStreams:
    def test_a_churning_run_follows_the_chain_of_each_clients_connectivity_stream(self):
        # a client's five streams are spawned (plan, reveal, connectivity,
        # train, eval); its chain takes one draw of the third per round
        config = small_config(p_offline=0.4, p_recover=0.3, rounds=14, seed=4)
        _, _, clients_ss = np.random.SeedSequence(config.seed).spawn(3)
        draws = [
            np.random.default_rng(ss.spawn(5)[2]).random(config.rounds - 1).tolist()
            for ss in clients_ss.spawn(config.n_clients)
        ]
        chains = markov_chain_by_steps(draws, config.p_offline, config.p_recover)
        result = run_experiment(config)
        assert len(result.logs) == config.rounds
        ids = range(config.n_clients)
        for log in result.logs:
            now = [chains[cid][log.t - 1] for cid in ids]
            before = [chains[cid][max(log.t - 2, 0)] for cid in ids]
            assert log.online == [cid for cid in ids if now[cid]]
            assert log.recovered == [cid for cid in ids if now[cid] and not before[cid]]
            assert log.offline == [cid for cid in ids if not now[cid]]
        assert any(log.recovered for log in result.logs)


class TestPrepareClients:
    def test_too_many_rounds_to_hold_is_a_config_error(self):
        # numpy refuses the flags of 10**15 rounds before touching a page
        with pytest.raises(ConfigError, match="rounds=1000000000000000"):
            prepare_clients(small_config(rounds=10**15))

    def test_holdout_and_training_windows_are_disjoint(self):
        cfg = small_config()
        clients, _, _, (hold_in, hold_tg), *_ = prepare_clients(cfg)
        assert hold_in.shape[0] == sum(c.hold_inputs.shape[0] for c in clients)
        for client, starts in zip(clients, training_window_starts(cfg)):
            train_windows = client.train_inputs[starts]
            if train_windows.shape[0] and client.hold_inputs.shape[0]:
                # stream-tail holdout: no training window may equal a holdout window
                train_keys = {window.tobytes() for window in train_windows}
                hold_keys = {window.tobytes() for window in client.hold_inputs}
                assert not train_keys & hold_keys

    def test_holdout_fraction_honored(self):
        # the fixed 20% of each client's windows, rounded and at least one
        cfg = small_config(synth_points_each=37)
        clients, *_ = prepare_clients(cfg)
        for client, starts in zip(clients, training_window_starts(cfg)):
            m = starts.size + client.hold_inputs.shape[0]
            assert m == 33 and client.hold_inputs.shape[0] == 7

    @pytest.mark.parametrize("points_each", [6, 10])
    def test_a_client_of_a_few_windows_keeps_one_to_train_on(self, points_each):
        # 6 points at seq_len 4 give m = 2 windows and 10 give m = 6; the
        # holdout takes one of them and the rest train
        cfg = small_config(synth_points_each=points_each)
        clients, *_ = prepare_clients(cfg)
        m = points_each - cfg.seq_len
        for client, starts in zip(clients, training_window_starts(cfg)):
            assert client.hold_inputs.shape[0] == 1
            assert starts.size == m - 1

    def test_bootstrap_not_yet_revealed_at_build(self):
        cfg = small_config()
        clients, *_ = prepare_clients(cfg)
        for client in clients:
            assert client.reveal.cursor == 0

    def test_split_is_the_full_window_list_cut_at_n_train(self, tmp_path):
        # whole vehicles, two per client: some clients hold a vehicle too
        # short for a window, and some holdouts span both vehicles
        path = tmp_path / "ragged.csv"
        write_ragged_fleet_csv(path)
        cfg = ExperimentConfig(
            dataset="csv", data_path=str(path), n_clients=16, vehicles_per_client=2, seq_len=4,
            seed=5,
        )
        clients, _, bbox, *_ = prepare_clients(cfg)
        datasets = partition_by_vehicle(parse_csv(path)[0], 2)
        short_segments = spanning_holdouts = 0
        for cid, (segments, starts) in enumerate(zip(datasets, training_window_starts(cfg))):
            client = clients[cid]
            windows = [make_windows(bbox.normalize(seg), cfg.seq_len) for seg in segments]
            inputs = np.concatenate([w[0] for w in windows])
            targets = np.concatenate([w[1] for w in windows])
            m = inputs.shape[0]
            n_hold = max(1, round(0.2 * m)) if m >= 2 else 0
            n_train = m - n_hold
            np.testing.assert_array_equal(client.train_inputs[starts], inputs[:n_train])
            np.testing.assert_array_equal(client.train_targets[starts], targets[:n_train])
            np.testing.assert_array_equal(client.hold_inputs, inputs[n_train:])
            np.testing.assert_array_equal(client.hold_targets, targets[n_train:])
            sizes = [w[0].shape[0] for w in windows]
            short_segments += sizes.count(0)
            spanning_holdouts += any(n_train < edge < m for edge in np.cumsum(sizes))
        assert short_segments and spanning_holdouts

    def test_usable_windows_never_span_two_runs(self):
        # two vehicles per client: a client's training stream is both of its
        # trajectories end to end, and the windows across the seam are not
        # training windows however much of the stream is revealed
        cfg = small_config(
            vehicles_per_client=2, n_clients=3, synth_points_each=40,
            reveal_slice_points=7,
        )
        clients, *_ = prepare_clients(cfg)
        seams = 0
        for client, starts in zip(clients, training_window_starts(cfg)):
            positions = np.arange(client.train_inputs.shape[0])
            spanning = np.setdiff1d(positions, starts)
            seams += spanning.size > 0
            while client.reveal.cursor < client.reveal.joins.size:
                reveal_round(client.reveal)
                assert not np.isin(client.usable_window_indices(), spanning).any()
            # with every point revealed, every training window is usable
            np.testing.assert_array_equal(client.usable_window_indices(), starts)
        assert seams == len(clients)

    def test_client_arrays_are_views_of_the_stream_and_the_pooled_holdout(self):
        cfg = small_config(vehicles_per_client=2, n_clients=3)
        clients, _, _, holdout, *_ = prepare_clients(cfg)
        for client in clients:
            for train in (client.train_inputs, client.train_targets):
                assert not train.flags.writeable
                assert np.shares_memory(train, client.stream_coords)
            for hold, pooled in zip((client.hold_inputs, client.hold_targets), holdout):
                assert not hold.flags.writeable
                assert np.shares_memory(hold, pooled)
            # no client holds a window array of its own
            for value in vars(client).values():
                if isinstance(value, np.ndarray) and value.ndim == 3:
                    assert not value.flags.owndata


def test_every_runtime_and_compensator_field_is_read_by_the_package():
    # state that set-up or a round writes and no code reads is dead weight
    # on every client; a field read only by tests counts as unread
    read = {
        node.attr
        for path in Path(fedsim.experiment.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    for record in (fedsim.experiment.ClientRuntime, fedsim.ranking.CompensatorState):
        unread = [f.name for f in dataclasses.fields(record) if f.name not in read]
        assert not unread, f"{record.__name__} fields never read: {unread}"
