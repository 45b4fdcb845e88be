"""Smoke test of the benchmark harness at a size small enough to count by hand.

    python3 -m pytest -q fedbench/test_harness.py
"""

import hashlib
import json
import sys

import pytest

import run  # puts the checkout's src/ on sys.path before fedsim is imported
from tracer import Tracer, layer_metrics

from fedsim.config import ExperimentConfig


def tiny_config() -> ExperimentConfig:
    # 2 clients of 26 points, seq_len 6: 20 windows each, the last 4 held out,
    # so 16 train windows (one batch of 16) on a 22-point stream. Everything is
    # revealed before round 1, nobody goes offline and both clients are
    # selected in both rounds.
    return ExperimentConfig(
        variant="fedavg", dataset="synthetic", synth_vehicles=2, synth_points_each=26,
        n_clients=2, rounds=2, hidden=4, epochs=1, scenario="constant", constant_p=1.0,
        reveal_slice_points=1000, p_offline=0.0, budget=None, sample_ratio=1.0,
        eta0=0.05, seed=0,
    )


def module_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "fedsim" or name.startswith("fedsim.")
        for attr, value in vars(module).items()
    }


def test_wrappers_replace_every_binding_and_are_restored():
    before = module_bindings()
    original = sys.modules["fedsim.nn"].backward
    with Tracer():
        for module in ("fedsim", "fedsim.nn", "fedsim.training"):
            traced = sys.modules[module].backward
            assert traced is not original and traced.__wrapped__ is original
    assert module_bindings() == before

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert module_bindings() == before


def test_counts_match_hand_computed_case(tmp_path):
    with Tracer() as tracer:
        result = run.experiment.run_experiment(tiny_config())
        paths = run.reports.emit_reports(result, tmp_path)
    m = {k: v for k, (v, _unit) in layer_metrics(
        tracer, result, paths["rounds"].stat().st_size).items()}

    # per round, each client: one train_local over 16 windows (one batch),
    # one divergence, one 4-row holdout eval; then one 8-row global eval
    assert m["training.train_local.calls"] == 4
    assert m["training.windows"] == 4 * 16
    assert m["nn.backward.calls"] == m["nn.sgd_step.calls"] == 4
    assert m["nn.model_divergence.calls"] == 4
    assert m["training.eval_client.calls"] == 4
    assert m["training.eval_global.calls"] == 2
    assert m["nn.forward.calls"] == 6
    assert m["training.eval_rows"] == 4 * 4 + 2 * 8
    assert m["experiment.aggregate.calls"] == 2
    assert m["experiment.models_aggregated"] == 4
    # Dims(2, 4, 2): 4 * ((2 + 4) * 4 + 4) + (4 * 2 + 2) = 122 values per upload
    assert m["experiment.server_values"] == 4 * 122
    assert m["experiment.empty_selection_rounds"] == 0
    assert m["training.eval_global.redundant"] == 0
    # one reveal before round 1 and one per round, per client; the first
    # reveals the whole 22-point stream
    assert m["availability.reveal_round.calls"] == 6
    assert m["availability.points_revealed"] == 44
    assert m["availability.points_lost"] == 0
    assert m["availability.reveal_yield"] == 1.0
    # one train-region and one holdout windowing per client
    assert m["data.make_windows.calls"] == 4
    assert m["collab.exchanges"] == m["collab.peer_values"] == 0
    assert m["ranking.participants"] == m["ranking.build_rank_entries.calls"] == 0

    def lstm(batch):  # gate GEMM flop: S * 2 * B * (I + H) * 4H
        return 6 * 2 * batch * (2 + 4) * 16

    def head(batch):
        return 2 * batch * 4 * 2

    backward = 3 * lstm(16) + 3 * head(16)
    forward = 4 * (lstm(4) + head(4)) + 2 * (lstm(8) + head(8))
    assert m["nn.gemm_gflop_computed"] == pytest.approx((4 * backward + forward) / 1e9)

    span = tracer.spans["training.train_local"]
    assert 0 <= span.self_s <= span.total_s
    assert m["experiment.self_s"] <= m["experiment.run_s"]


def test_traced_and_untraced_rounds_csv_match(tmp_path):
    config = tiny_config()
    untraced = run.reports.emit_reports(run.experiment.run_experiment(config), tmp_path / "a")
    with Tracer():
        traced = run.reports.emit_reports(run.experiment.run_experiment(config), tmp_path / "b")
    digest = [hashlib.sha256(p["rounds"].read_bytes()).hexdigest() for p in (untraced, traced)]
    assert digest[0] == digest[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_result_line(monkeypatch, capsys, trace):
    monkeypatch.setitem(run.WORKLOADS, "tiny", lambda seed, work: tiny_config())
    assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    if trace:
        assert out["metrics"]["training.windows"]["value"] == 64
    else:
        assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
        assert out["attempted"] == 1 + run.MIN_RUNS


def test_summary_with_nan_fails_the_check():
    with pytest.raises(run.CheckFailed):
        json.loads('{"best_rmse": NaN}', parse_constant=run._reject_constant)
