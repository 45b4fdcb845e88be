import json

import pytest

from fedsim.cli import main
from fedsim.config import ExperimentConfig
from fedsim.data import parse_csv


def write_config(tmp_path, **overrides):
    base = dict(
        n_clients=4,
        rounds=3,
        synth_vehicles=4,
        synth_points_each=80,
        hidden=6,
        seq_len=4,
        batch_size=8,
        scenario="constant",
        constant_p=1.0,
        budget=None,
        seed=7,
        variant="feddecab",
        chi=2,
        sample_ratio=0.5,
    )
    base.update(overrides)
    ExperimentConfig(**base)  # validate before writing
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    return path


class TestRunCommand:
    def test_run_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "rounds.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "curves.svg").exists()
        assert "final RMSE" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--rounds", "2"])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["rounds"] == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("FEDSIM_SEED", "123")
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["seed"] == 123

    def test_run_whose_every_round_is_nan_prints_no_best(self, tmp_path, capsys):
        # 3 revealed points per round never fill a 7-point window in round 1,
        # so the only round's RMSE is NaN and there is no best RMSE
        config = write_config(
            tmp_path, variant="local_only", seq_len=6, reveal_slice_points=3, rounds=1
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert "best n/a" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["best_rmse"] is None

    def test_invalid_config_returns_error_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"variant": "nonsense"}', encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            {"rounds": "5"},
            {"budget": "x"},
            {"offline_train_every_round": 1},
            {"weak_areas": [[0.0, 1.0]]},
            {"alpha_dir": float("nan")},
            {"alpha_dir": 0},
            {"p_low": 0.9, "p_high": 0.2},
            {"gamma": 0},
            {"datasize_percentile": 0},
            {"synth_kind": "spiral"},
            {"vehicles_per_client": 0},
        ],
    )
    def test_bad_field_is_an_error_with_exit_code_2(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_unreadable_config_file_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["run", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_integer_env_seed_is_an_error(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        monkeypatch.setenv("FEDSIM_SEED", "abc")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "FEDSIM_SEED" in capsys.readouterr().err


class TestLocalOnlyCommand:
    def test_local_only_runs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "local"
        argv = ["run", "--config", str(config), "--out", str(out), "--variant", "local_only"]
        assert main(argv) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["variant"] == "local_only"
        assert "local_only" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--hidden", "4", "--steps", "3"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestPlotCommand:
    def test_plot_merges_run_dirs(self, tmp_path):
        config = write_config(tmp_path)
        for variant in ("fedavg", "feddecab"):
            main([
                "run", "--config", str(config), "--out", str(tmp_path / "runs" / variant),
                "--variant", variant,
            ])
        out = tmp_path / "merged.svg"
        assert main(["plot", "--in", str(tmp_path / "runs"), "--out", str(out)]) == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 2

    def test_plot_missing_dir_fails(self, tmp_path, capsys):
        assert main(["plot", "--in", str(tmp_path / "nothing")]) == 1


class TestSynthCommand:
    def test_synth_writes_parseable_csv(self, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        code = main([
            "synth", "--kind", "circle", "--out", str(out),
            "--vehicles", "3", "--points", "25", "--seed", "5",
        ])
        assert code == 0
        trajectories, rejected = parse_csv(out)
        assert rejected == 0
        assert len(trajectories) == 3
        assert all(t.n_points == 25 for t in trajectories)
