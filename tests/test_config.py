import json
import re
from pathlib import Path

import pytest

from fedsim.config import VARIANTS, ExperimentConfig
from fedsim.errors import ConfigError


class TestDefaults:
    def test_headline_defaults(self):
        # the documented default setting: 40 clients, 240 rounds, budget 20,
        # 10% sampling, offline 0.2 / recovery 0.1, peer rounds at half
        # cadence, E=1 at eta 0.001, 6-step windows in batches of 16, one
        # vehicle per client
        cfg = ExperimentConfig()
        assert cfg.n_clients == 40
        assert cfg.rounds == 240
        assert cfg.budget == 20
        assert cfg.sample_ratio == 0.10 and cfg.k_selected == 4
        assert cfg.p_offline == 0.2 and cfg.p_recover == 0.1
        assert cfg.decentral_freq == 0.5
        assert [t for t in range(1, 7) if cfg.is_decentral_round(t)] == [2, 4, 6]
        assert cfg.epochs == 1 and cfg.eta0 == 0.001
        assert cfg.seq_len == 6 and cfg.batch_size == 16
        assert cfg.vehicles_per_client == 1
        assert cfg.chi == 3
        assert cfg.slice_points == 16 * 6

    def test_compensator_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.alpha0 == 2.0
        assert cfg.alpha_step == pytest.approx(2.0 * (2.0 - 1.0) / 240)
        assert cfg.beta0 == 1.5 and cfg.delta_beta == 0.05
        assert cfg.gamma == 1.2

    def test_variant_presets(self):
        assert ExperimentConfig(variant="fedavg").selection_mode == "uniform"
        assert ExperimentConfig(variant="fedavg").proximal_mu == 0.0
        assert ExperimentConfig(variant="fedprox").proximal_mu == 0.01
        assert ExperimentConfig(variant="fedcab").selection_mode == "ranked"
        # only feddecab has peer rounds; at the default f=0.5 every second round
        for variant in VARIANTS:
            cfg = ExperimentConfig(variant=variant)
            peer_rounds = [t for t in range(1, 5) if cfg.is_decentral_round(t)]
            assert peer_rounds == ([2, 4] if variant == "feddecab" else []), variant
        assert ExperimentConfig(variant="fedprox_plus").selection_mode == "ranked"
        assert ExperimentConfig(variant="fedprox_plus").proximal_mu == 0.01

    def test_selection_override_beats_preset(self):
        cfg = ExperimentConfig(variant="feddecab", selection="uniform")
        assert cfg.selection_mode == "uniform"

    def test_schedule_helpers(self):
        cfg = ExperimentConfig(variant="feddecab", decentral_freq=0.25)
        assert [t for t in range(1, 13) if cfg.is_decentral_round(t)] == [4, 8, 12]
        never = ExperimentConfig(variant="feddecab", decentral_freq=0.0)
        assert not any(never.is_decentral_round(t) for t in range(1, 13))

    def test_eta_schedule(self):
        cfg = ExperimentConfig(eta0=0.1, eta_decay=0.5)
        assert [cfg.eta_at(t) for t in (1, 2, 3)] == pytest.approx([0.1, 0.05, 0.025])

    def test_a_ratio_of_k_to_n_clients_selects_k(self):
        # how a config that set K directly says it now: sample_ratio = k / n.
        # Each ratio is in (0, 1], so the fields are set without validating again
        cfg = ExperimentConfig()
        for n in range(2, 101):
            cfg.n_clients = n
            for k in range(1, n + 1):
                cfg.sample_ratio = k / n
                assert cfg.k_selected == k, (k, n)


# Each case is bound to its id, so deleting one case leaves every other id as it was.
REJECTED = {
    "bad0": dict(variant="moon"),
    "bad1": dict(scenario="foggy"),
    "bad2": dict(selection="lottery"),
    "bad3": dict(n_clients=1),
    "bad4": dict(rounds=0),
    "bad5": dict(sample_ratio=0.0),
    "bad6": dict(sample_ratio=1.5),
    "bad7": dict(partition="equal"),  # clients hold whole vehicles only
    "bad8": dict(p_offline=1.5),
    "bad9": dict(decentral_freq=2.0),
    "bad10": dict(budget=-1),
    "bad11": dict(eta0=0.0),
    "bad12": dict(eta_decay=1e-300),  # the learning rate underflows to 0.0
    "bad13": dict(eta_decay=1e300),  # and here it overflows
    "bad14": dict(prox_mu=-0.01),
    "bad15": dict(epochs=-1),
    "bad16": dict(chi=0),
    "bad17": dict(rmse_units="miles"),
    "bad18": dict(dataset="csv"),  # missing data_path
    "bad19": dict(dataset="parquet", data_path="x"),
    "bad20": dict(rounds="5"),
    "bad21": dict(rounds=5.0),
    "bad22": dict(seed=True),
    "bad23": dict(budget="20"),
    "bad24": dict(offline_train_every_round=1),
    "bad25": dict(weak_areas=[[0.0, 1.0]]),
    "bad26": dict(weak_areas=[["a", 1.0, 2.0, 3.0]]),
    "bad27": dict(alpha_dir=float("nan")),
    "bad28": dict(eta0=float("inf")),
    "bad29": dict(alpha_dir=0.0),
    "bad30": dict(p_low=0.9, p_high=0.2),
    "bad31": dict(gamma=0.0),
    "bad32": dict(datasize_percentile=100.0),
    "bad33": dict(synth_kind="spiral"),
    "bad34": dict(vehicles_per_client=0),
    "bad35": dict(seed=-1),
    "bad36": dict(constant_p=1.5),
    "bad37": dict(p_company=-0.1),
    "bad38": dict(p_private=1.01),
    "bad39": dict(batch_size=0),
    "bad40": dict(synth_vehicles=0),
    "bad41": dict(synth_points_each=0),
    "bad42": dict(reveal_slice_points=0),
    "bad43": dict(weak_areas=[[1.0, 1.0, 0.0, 2.0]]),
    "bad44": dict(weak_areas=[[0.0, 1.0, 2.0, -2.0]]),
    "bad45": dict(hidden=0),
    "bad46": dict(partition="striped"),
    "bad47": dict(alpha0=10**400),  # an int past the largest float
}


class TestValidation:
    @pytest.mark.parametrize("bad", list(REJECTED.values()), ids=list(REJECTED))
    def test_rejects(self, bad):
        # the message names the field at fault, or one of the fields whose
        # joint rule the case breaks
        with pytest.raises(ConfigError, match="|".join(bad)):
            ExperimentConfig(**bad)


class TestSerialization:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(variant="fedprox", seed=9, weak_areas=[[0.0, 1.0, 2.0, 3.0]])
        again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_from_file(self, tmp_path, encoding):
        # utf-8-sig writes a leading byte-order mark, as Windows tools do
        path = tmp_path / "cfg.json"
        path.write_text('{"variant": "fedcab", "seed": 4}', encoding=encoding)
        cfg = ExperimentConfig.from_file(path)
        assert cfg.variant == "fedcab" and cfg.seed == 4

    def test_every_json_block_of_the_readme_loads(self):
        # a key deleted from the config but left in the README fails here
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"^```json\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
        assert blocks
        for block in blocks:
            ExperimentConfig.from_dict(json.loads(block))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"not_a_knob": 1})

    @pytest.mark.parametrize("raw", [None, [], 3, "x"])
    def test_non_object_rejected(self, raw):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict(raw)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)
