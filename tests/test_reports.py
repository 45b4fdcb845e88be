import json
import math

import pytest

from fedsim.config import ExperimentConfig
from fedsim.errors import ConfigError
from fedsim.experiment import run_experiment
from fedsim.reports import (
    collect_series,
    emit_reports,
    read_rounds_csv,
    rmse_series,
    rows_for_log,
    write_curves_svg,
    write_rounds_csv,
)
from test_experiment import small_config


def tiny_result(**overrides):
    base = dict(
        n_clients=4,
        rounds=5,
        synth_vehicles=4,
        synth_points_each=90,
        hidden=6,
        seq_len=4,
        batch_size=8,
        scenario="constant",
        constant_p=1.0,
        budget=None,
        seed=1,
        variant="feddecab",
        chi=2,
        p_offline=0.4,
        p_recover=0.5,
        sample_ratio=0.5,
    )
    base.update(overrides)
    return run_experiment(ExperimentConfig(**base))


def nan_first_round_config(**overrides):
    """local_only where round 1 reveals 6 points, too few for a 7-point
    window, so no client has a holdout RMSE and the round's RMSE is NaN."""
    base = dict(
        variant="local_only",
        n_clients=4,
        synth_vehicles=4,
        synth_points_each=80,
        hidden=6,
        rounds=3,
        scenario="constant",
        constant_p=1.0,
        reveal_slice_points=3,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not valid strict JSON")

    return json.loads(text, parse_constant=reject)


class TestRoundsCsv:
    def test_single_round_has_header_and_rows(self, tmp_path):
        result = tiny_result(rounds=1)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(result.logs, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "round,record,client,key,value"
        assert len(lines) > 1
        assert all(line.startswith("1,") for line in lines[1:])

    def test_parse_back_equals_in_memory_logs(self, tmp_path):
        result = tiny_result()
        path = tmp_path / "rounds.csv"
        write_rounds_csv(result.logs, path)
        parsed = read_rounds_csv(path)
        assert len(parsed) == len(result.logs)
        for orig, back in zip(result.logs, parsed):
            assert back.t == orig.t
            assert back.eta == orig.eta
            assert back.online == orig.online
            assert back.recovered == orig.recovered
            assert back.offline == orig.offline
            assert back.selected == orig.selected
            assert back.alpha == orig.alpha
            assert back.rmse_global == orig.rmse_global
            assert back.decentralized == orig.decentralized
            assert back.provenance == orig.provenance
            assert back.client_rmse == orig.client_rmse
            assert back.payloads == orig.payloads
            assert back.collab_sources == orig.collab_sources
            assert back.events == orig.events
            assert len(back.entries) == len(orig.entries)
            for ea, eb in zip(orig.entries, sorted(back.entries, key=lambda e: e.client_id)):
                assert eb.client_id == ea.client_id
                assert eb.divergence == ea.divergence
                assert eb.participation == ea.participation
                assert eb.n_updates == ea.n_updates
                assert eb.pos_divergence == ea.pos_divergence
                assert eb.pos_participation == ea.pos_participation
                assert eb.weight == ea.weight

    def test_unranked_rounds_write_no_positions_weights_or_alpha(self, tmp_path):
        result = tiny_result(variant="fedavg")
        keys = {row[3] for log in result.logs for row in rows_for_log(log)}
        assert {"L", "A", "n"} <= keys and not keys & {"P_L", "P_A", "R", "alpha"}
        path = tmp_path / "rounds.csv"
        write_rounds_csv(result.logs, path)
        assert not any(log.alpha is not None for log in read_rounds_csv(path))

    def test_rows_deterministic(self):
        result = tiny_result()
        rows1 = [rows_for_log(log) for log in result.logs]
        rows2 = [rows_for_log(log) for log in result.logs]
        assert rows1 == rows2


class TestSummaryJson:
    def test_summary_fields(self, tmp_path):
        result = tiny_result()
        paths = emit_reports(result, tmp_path / "run")
        with paths["summary"].open(encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["variant"] == "feddecab"
        assert summary["rounds"] == 5
        assert summary["final_rmse"] == result.final_rmse()
        assert summary["best_rmse"] <= summary["final_rmse"] or True
        assert summary["config"]["seed"] == 1

    def test_nan_round_is_skipped_by_best_rmse(self, tmp_path):
        result = run_experiment(nan_first_round_config())
        rmse = [log.rmse_global for log in result.logs]
        assert math.isnan(rmse[0]) and all(math.isfinite(v) for v in rmse[1:])
        assert result.best_rmse() == min(rmse[1:])
        paths = emit_reports(result, tmp_path / "run")
        summary = strict_json(paths["summary"].read_text(encoding="utf-8"))
        assert summary["best_rmse"] == min(rmse[1:])

    def test_all_nan_rounds_write_null(self, tmp_path):
        result = run_experiment(nan_first_round_config(rounds=1))
        assert result.best_rmse() is None
        paths = emit_reports(result, tmp_path / "run")
        summary = strict_json(paths["summary"].read_text(encoding="utf-8"))
        assert summary["best_rmse"] is None and summary["final_rmse"] is None

    def test_overflowed_rmse_writes_null(self, tmp_path):
        # the learning rate grows tenfold a round until the error overflows
        result = run_experiment(small_config(variant="fedcab", eta0=2.0, eta_decay=10.0))
        assert math.isinf(result.final_rmse()) and math.isfinite(result.best_rmse())
        paths = emit_reports(result, tmp_path / "run")
        summary = strict_json(paths["summary"].read_text(encoding="utf-8"))
        assert summary["final_rmse"] is None
        assert summary["best_rmse"] == result.best_rmse()
        per_client = result.final_client_rmse()
        assert any(math.isinf(value) for value in per_client.values())
        assert summary["final_client_rmse"] == {
            str(cid): value if math.isfinite(value) else None
            for cid, value in per_client.items()
        }


class TestCurvesSvg:
    def test_two_series_give_two_polylines_with_legend(self, tmp_path):
        a = tiny_result(variant="feddecab")
        b = tiny_result(variant="fedavg")
        path = tmp_path / "curves.svg"
        write_curves_svg(
            {"feddecab": rmse_series(a.logs), "fedavg": rmse_series(b.logs)}, path
        )
        svg = path.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 2
        assert ">feddecab</text>" in svg
        assert ">fedavg</text>" in svg

    def test_diverged_run_plots_finite_rounds_only(self, tmp_path):
        # eta 1e18 blows the global error up to ~1e147 in round 1, and round 2
        # aborts with that same error: a flat series past 2**53
        result = run_experiment(small_config(eta0=1e18))
        rmse = [log.rmse_global for log in result.logs]
        assert len(rmse) >= 2 and len(set(rmse)) == 1 and rmse[0] >= 2.0**53
        paths = emit_reports(result, tmp_path / "run")
        svg = paths["curves"].read_text(encoding="utf-8")
        assert "nan" not in svg and svg.count("<polyline") == 1

    def test_infinite_round_is_dropped(self, tmp_path):
        path = tmp_path / "curves.svg"
        write_curves_svg({"a": [(1.0, 0.5), (2.0, math.inf), (3.0, 0.25)]}, path)
        svg = path.read_text(encoding="utf-8")
        assert "nan" not in svg and "inf" not in svg
        (polyline,) = [line for line in svg.splitlines() if line.startswith("<polyline")]
        assert len(polyline.split('points="')[1].split()) == 2

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_curves_svg({}, tmp_path / "x.svg")

    def test_collect_series_labels_by_variant(self, tmp_path):
        for variant in ("feddecab", "fedavg"):
            emit_reports(tiny_result(variant=variant), tmp_path / variant)
        series = collect_series([tmp_path / "feddecab", tmp_path / "fedavg"])
        assert sorted(series) == ["fedavg (seed 1)", "feddecab (seed 1)"]
        assert all(len(points) == 5 for points in series.values())

    def test_collect_series_keeps_runs_of_the_same_variant_and_seed_apart(self, tmp_path):
        for name in ("first", "second"):
            emit_reports(tiny_result(variant="fedavg"), tmp_path / name)
        series = collect_series([tmp_path / "first", tmp_path / "second"])
        assert list(series) == ["fedavg (seed 1)", "fedavg (seed 1) [second]"]


class TestEmitReports:
    def test_writes_all_three_files(self, tmp_path):
        result = tiny_result()
        paths = emit_reports(result, tmp_path / "out")
        for p in paths.values():
            assert p.exists() and p.stat().st_size > 0
