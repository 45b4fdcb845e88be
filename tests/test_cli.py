import json
import xml.etree.ElementTree as ET

import pytest

import fedsim.cli
from fedsim.cli import main
from fedsim.config import ExperimentConfig
from fedsim.data import parse_csv, synth_trajectories, write_csv
from fedsim.reports import read_rounds_csv
from test_experiment import small_config


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

    def test_retired_n_clients_flag_is_an_error(self, tmp_path, capsys):
        # the data fixes the client count; no flag sets it
        config = write_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config), "--out", str(out), "--n-clients", "4"])
        assert exc.value.code == 2
        assert "--n-clients" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_that_is_not_utf8_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "fleet.csv"
        data.write_bytes(b"vehicle_id,timestamp,lat,lon\nv\xff,1000,30.0,120.0\n")
        config = write_config(tmp_path, dataset="csv", data_path=str(data))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"{data}:2: not UTF-8" in capsys.readouterr().err

    def test_dataset_with_an_over_long_field_is_an_error(self, tmp_path, capsys):
        # csv refuses a field over 131,072 characters
        data = tmp_path / "fleet.csv"
        data.write_text(
            "vehicle_id,timestamp,lat,lon\nv,1000,30.0," + "1" * 131_073 + "\n", encoding="utf-8"
        )
        config = write_config(tmp_path, dataset="csv", data_path=str(data))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {data}:2: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "nope.csv"
        config = write_config(tmp_path, dataset="csv", data_path=str(data))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {data}: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dataset_of_only_a_header_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "fleet.csv"
        data.write_text("vehicle_id,timestamp,lat,lon\n", encoding="utf-8")
        config = write_config(tmp_path, dataset="csv", data_path=str(data))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"error: no trajectories parsed from {data}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dataset_path_that_is_a_directory_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "fleet"
        data.mkdir()
        config = write_config(tmp_path, dataset="tdrive", data_path=str(data))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {data}: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_rows_the_parser_rejected_are_reported(self, tmp_path, capsys):
        data = tmp_path / "fleet.csv"
        write_csv(data, synth_trajectories(3, 4, 80, "sinusoid"))
        with data.open("a", encoding="utf-8") as fh:
            fh.writelines(f"v{i},{5000 + i},95.0,120.0\n" for i in range(5))
        config = write_config(tmp_path, dataset="csv", data_path=str(data), rounds=1)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert f"{data}: 5 rows rejected" in capsys.readouterr().out

    def test_diverged_run_writes_every_report(self, tmp_path, capsys):
        # eta 1e18 aborts the run in round 2 with a flat global RMSE of ~1e147;
        # the overflow warns nothing and the RMSE prints in exponent form
        config = tmp_path / "config.json"
        config.write_text(small_config(eta0=1e18).to_json(), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        for name in ("rounds.csv", "summary.json", "curves.svg"):
            assert (out / name).stat().st_size > 0
        (line,) = [x for x in capsys.readouterr().out.splitlines() if "final RMSE" in x]
        assert "e+" in line and len(line) <= 200

    def test_run_whose_only_step_overflows_every_model_warns_nothing(self, tmp_path):
        # at eta 1e308 the one step of each epoch leaves parameters whose
        # divergence sum overflows; round 2 aborts, and the RMSE is inf
        config = write_config(tmp_path, variant="fedcab", eta0=1e308, batch_size=512, hidden=8)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        last = read_rounds_csv(out / "rounds.csv")[-1]
        assert last.t == 2 and any(e.startswith("numeric_abort:") for e in last.events)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["final_rmse"] is None

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_output_path_under_a_file_is_an_error(self, tmp_path, capsys, monkeypatch, sub):
        # --out names an existing file, or a directory inside one; the path
        # is rejected before any round runs
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = blocker / sub if sub else blocker
        config = write_config(tmp_path, rounds=1)

        def never_called(config):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(fedsim.cli, "run_experiment", never_called)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: ")
        assert blocker.read_text(encoding="utf-8") == ""

    def test_invalid_config_returns_error_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"variant": "nonsense"}', encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


# Each case is bound to its id, so deleting one case leaves every other id as it was.
BAD_FIELDS = {
    "bad0": {"rounds": "5"},
    "bad1": {"budget": "x"},
    "bad2": {"offline_train_every_round": 1},
    "bad3": {"weak_areas": [[0.0, 1.0]]},
    "bad4": {"alpha_dir": float("nan")},
    "bad5": {"alpha_dir": 0},
    "bad6": {"p_low": 0.9, "p_high": 0.2},
    "bad7": {"gamma": 0},
    "bad8": {"datasize_percentile": 0},
    "bad9": {"synth_kind": "spiral"},
    "bad10": {"vehicles_per_client": 0},
    "bad11": {"n_in": 3},
    "bad12": {"scenario": "constant", "constant_p": 1.5},
    "bad13": {"reveal_slice_points": 0},
    "bad14": {"scenario": "regional", "weak_areas": [[30.0, 30.0, 120.0, 121.0]]},
    "bad15": {"partition": "equal", "points_per_client": 0},
    "bad16": {"synth_points_each": 0},
    # retired: a client holds whole vehicles, the holdout is a fixed 20%, the
    # datasize threshold a fixed 90th percentile (bad8), the scenario
    # probabilities (bad6) and the ranking compensators (bad7) are constants,
    # and RMSE is normalized
    "bad17": {"partition": "equal"},
    "bad18": {"points_per_client": 2500},
    "bad19": {"holdout_fraction": 0.2},
    "retired_rmse_units": {"rmse_units": "degrees"},
    "retired_p_company": {"p_company": 0.95},
    "retired_p_private": {"p_private": 0.3},
}


class TestConfigErrors:
    @pytest.mark.parametrize("bad", list(BAD_FIELDS.values()), ids=list(BAD_FIELDS))
    def test_bad_field_is_an_error_with_exit_code_2(self, tmp_path, capsys, monkeypatch, bad):
        def never_called(config):
            raise AssertionError("the run started with a config that should not load")

        monkeypatch.setattr(fedsim.cli, "run_experiment", never_called)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and any(key in err for key in bad)
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]\n", encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [10**15, 10**19])
    def test_oversized_synthetic_fleet_is_an_error(self, tmp_path, capsys, points):
        # numpy refuses either size at once: too much memory, or past its size limit
        config = write_config(tmp_path, synth_points_each=points)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {points} points per vehicle" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_oversized_model_is_an_error(self, tmp_path, capsys):
        config = write_config(tmp_path, hidden=10**11)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "hidden width 100000000000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_too_many_rounds_is_an_error(self, tmp_path, capsys):
        # numpy refuses the online flags of 10**15 rounds before touching a page
        config = write_config(tmp_path)
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "o")]
        assert main(argv + ["--rounds", "1000000000000000"]) == 2
        assert "error: rounds=1000000000000000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreadable_config_file_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["run", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed_in_the_config_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": -2}), encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_is_an_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "o"), "--seed", "-5"]
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestLocalOnlyCommand:
    def test_local_only_runs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "local"
        argv = ["run", "--config", str(config), "--out", str(out), "--variant", "local_only"]
        assert main(argv) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["variant"] == "local_only"
        assert "local_only" in capsys.readouterr().out

    def test_diverging_run_warns_nothing(self, tmp_path, capsys):
        # at eta 50 the models blow up: training aborts and the holdout RMSE
        # overflows to inf, with no numpy warning on the way
        config = tmp_path / "config.json"
        config.write_text(small_config(eta0=50.0, variant="local_only").to_json(), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "final RMSE inf" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--hidden", "4", "--steps", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_head_parameter_near_zero_under_a_kl_anchor_passes(self, capsys):
        # trial 15 of seed 3 at H=16 has a KL anchor and a head parameter of
        # 1.485e-4, where a 1e-5 central difference missed by 1.1e-4
        assert main(["gradcheck", "--hidden", "16", "--seed", "3", "--trials", "16"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("fault", ["kl_term_dropped", "one_entry_off"])
    def test_corrupted_backward_fails(self, monkeypatch, capsys, fault):
        original = fedsim.cli.backward

        def corrupted(model, batch, kl_anchor=None):
            if fault == "kl_term_dropped":
                return original(model, batch)
            grads = original(model, batch, kl_anchor=kl_anchor)
            grads.fc_block[0] += 1e-3
            return grads

        monkeypatch.setattr(fedsim.cli, "backward", corrupted)
        assert main(["gradcheck", "--hidden", "16", "--seed", "3", "--trials", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_nan_error_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(fedsim.cli, "batch_objective", lambda *a, **k: float("nan"))
        assert main(["gradcheck", "--hidden", "2", "--steps", "2", "--trials", "2"]) == 1
        assert "max relative error nan (FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "0"),
            ("--eps", "-1e-5"),
            ("--eps", "nan"),
            ("--trials", "0"),
            ("--steps", "0"),
            ("--steps", "-1"),
            ("--tolerance", "0"),
            ("--tolerance", "-1"),
            ("--seed", "-1"),
            ("--hidden", "0"),
            ("--batch", "0"),
            ("--batch", "-1"),
        ],
    )
    def test_degenerate_setting_is_an_error(self, capsys, flag, value):
        assert main(["gradcheck", "--hidden", "2", "--steps", "2", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "PASS" not in captured.out

    def test_oversized_model_is_an_error(self, capsys):
        # sizes of PiB scale, whose allocation fails at once on any host
        for flag, named in [
            ("--hidden", "hidden width"), ("--batch", "--batch"), ("--steps", "--steps")
        ]:
            assert main(["gradcheck", flag, str(10**14)]) == 2, flag
            assert named in capsys.readouterr().err, flag


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

    def test_labels_with_markup_characters_are_escaped(self, tmp_path):
        # one label is a run directory's name, the other a summary's variant
        runs = tmp_path / "runs"
        for name, variant in (("a&b<c", None), ("b", "fedavg<&>")):
            (runs / name).mkdir(parents=True)
            (runs / name / "rounds.csv").write_text(
                "round,record,client,key,value\n1,round,,rmse_global,0.5\n", encoding="utf-8"
            )
            if variant:
                summary = json.dumps({"variant": variant, "seed": 0})
                (runs / name / "summary.json").write_text(summary, encoding="utf-8")
        out = tmp_path / "merged.svg"
        assert main(["plot", "--in", str(runs), "--out", str(out)]) == 0
        texts = [el.text for el in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert {"a&b<c", "fedavg<&> (seed 0)"} <= set(texts)

    def test_plot_into_a_missing_directory_is_an_error(self, tmp_path, capsys):
        config = write_config(tmp_path, rounds=1)
        main(["run", "--config", str(config), "--out", str(tmp_path / "run")])
        out = tmp_path / "missing" / "curves.svg"
        assert main(["plot", "--in", str(tmp_path / "run"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: ")

    @pytest.mark.parametrize("name", ["rounds.csv", "summary.json"])
    @pytest.mark.parametrize("merged", [False, True])
    def test_plot_onto_a_run_file_it_reads_is_an_error(self, tmp_path, capsys, name, merged):
        config = write_config(tmp_path, rounds=1)
        run_dir = tmp_path / "runs" / "a"
        main(["run", "--config", str(config), "--out", str(run_dir)])
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        # the same file reached through a detour, from a single run or a parent
        out = run_dir / ".." / "a" / name
        source = run_dir.parent if merged else run_dir
        assert main(["plot", "--in", str(source), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: ")
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before

    def test_plot_missing_dir_fails(self, tmp_path, capsys):
        assert main(["plot", "--in", str(tmp_path / "nothing")]) == 1

    @pytest.mark.parametrize(
        "bad_row, line, message",
        [
            ("1,round,,rmse_global", 3, "expected 5 fields, got 4"),
            ("x,round,,rmse_global,0.5", 3, "invalid literal for int()"),
            ("1,round,,rmse_globl,0.5", 3, "unknown round key 'rmse_globl'"),
            ("1,bogus,3,rmse,0.2", 3, "unknown record 'bogus'"),
            ("1,client,3,rmsee,0.2", 3, "unknown client key 'rmsee'"),
            ("1,rank,3,Q,0.2", 3, "unknown rank key 'Q'"),
            pytest.param(
                "1,round,,eta," + "9" * 131_073, 3, "field larger than field limit",
                id="over_long_field",
            ),
        ],
    )
    def test_malformed_rounds_csv_is_an_error(self, tmp_path, capsys, bad_row, line, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        rounds = run_dir / "rounds.csv"
        rounds.write_text(
            f"round,record,client,key,value\n1,round,,eta,0.1\n{bad_row}\n", encoding="utf-8"
        )
        assert main(["plot", "--in", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{rounds}:{line}:" in err
        assert message in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("round,record,client,value\n1,round,,0.5\n", "{rounds}: unexpected header"),
            ("round,record,client,key,value\n", "series contain no plottable points"),
        ],
    )
    def test_rounds_csv_with_a_wrong_header_or_no_rows_is_an_error(
        self, tmp_path, capsys, text, message
    ):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        rounds = run_dir / "rounds.csv"
        rounds.write_text(text, encoding="utf-8")
        assert main(["plot", "--in", str(run_dir)]) == 2
        assert message.format(rounds=rounds) in capsys.readouterr().err
        assert not (run_dir / "curves.svg").exists()

    @pytest.mark.parametrize(
        "text, location",
        [
            ('{\n  "variant": "fedavg",\n  "seed":\n', ":4: "),
            ("[1, 2]\n", ": expected a JSON object"),
        ],
        ids=["truncated_object", "not_an_object"],
    )
    def test_malformed_summary_json_is_an_error(self, tmp_path, capsys, text, location):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "rounds.csv").write_text(
            "round,record,client,key,value\n1,round,,rmse_global,0.5\n", encoding="utf-8"
        )
        summary = run_dir / "summary.json"
        summary.write_text(text, encoding="utf-8")
        assert main(["plot", "--in", str(run_dir)]) == 2
        assert f"{summary}{location}" in capsys.readouterr().err
        assert not (run_dir / "curves.svg").exists()

    @pytest.mark.parametrize("name", ["rounds.csv", "summary.json"])
    def test_run_file_that_is_not_utf8_is_an_error(self, tmp_path, capsys, name):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "rounds.csv").write_text(
            "round,record,client,key,value\n1,round,,rmse_global,0.5\n", encoding="utf-8"
        )
        (run_dir / "summary.json").write_text('{"variant": "fedavg"}\n', encoding="utf-8")
        bad = run_dir / name
        bad.write_bytes(bad.read_bytes().replace(b"fedavg", b"fed\xff\xfe").replace(b"0.5", b"0.\xff"))
        assert main(["plot", "--in", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:" in err and "not UTF-8" in err
        assert not (run_dir / "curves.svg").exists()


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

    def test_synth_creates_missing_parent_directories(self, tmp_path, capsys):
        out = tmp_path / "not" / "yet" / "there.csv"
        code = main([
            "synth", "--kind", "sinusoid", "--out", str(out),
            "--vehicles", "2", "--points", "10",
        ])
        assert code == 0
        trajectories, rejected = parse_csv(out)
        assert rejected == 0 and len(trajectories) == 2

    def test_output_under_a_file_is_an_error(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        code = main(["synth", "--kind", "sinusoid", "--out", str(blocker / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {blocker}: ")

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        code = main(["synth", "--kind", "sinusoid", "--out", str(out), "--seed", "-1"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", [10**15, 10**19])
    def test_oversized_fleet_is_an_error(self, tmp_path, capsys, points):
        out = tmp_path / "synthetic.csv"
        code = main(["synth", "--kind", "sinusoid", "--out", str(out), "--points", str(points)])
        assert code == 2
        assert f"error: {points} points per vehicle" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--vehicles", "--points"])
    def test_empty_fleet_is_an_error(self, tmp_path, capsys, flag):
        out = tmp_path / "synthetic.csv"
        code = main(["synth", "--kind", "sinusoid", "--out", str(out), flag, "0"])
        assert code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not out.exists()
