"""Golden digests: sha256 of rounds.csv and summary.json for tiny runs.

The determinism tests compare two runs inside one process, so a change that
moves the numerics between commits would pass them. These digests pin the
bytes across commits: one uniform-selection run (fedavg), one ranked run
(fedcab), one with peer rounds (feddecab), both proximal variants, the
isolated local_only baseline, fedavg and feddecab with offline clients
training every round, feddecab over several batches and epochs, fedavg weighted by
client data size, fedavg over an equal-points partition, feddecab at the
headline's hidden width of 32, feddecab over a CSV fleet with peer
rounds every round, and two feddecab runs that diverge: one aborts in its
online phase, one loses clients in peer rounds. The values were taken with numpy
2.4 and OpenBLAS on x86-64; another BLAS may round GEMMs differently. A change that alters any output bit must
re-pin them and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

import fedsim.training
from fedsim.config import ExperimentConfig
from fedsim.data import Trajectory, synth_trajectories, write_csv
from fedsim.experiment import run_experiment
from fedsim.reports import emit_reports

BASE = dict(
    dataset="synthetic",
    synth_kind="sinusoid",
    synth_vehicles=8,
    synth_points_each=100,
    n_clients=8,
    rounds=6,
    hidden=8,
    seq_len=4,
    batch_size=8,
    scenario="random",
    alpha_dir=0.5,
    budget=4,
    p_offline=0.3,
    p_recover=0.3,
    sample_ratio=0.25,
    decentral_freq=0.5,
    chi=2,
    eta0=0.05,
    seed=5,
)

# case -> overrides of BASE. No BASE client trains on more than 7 windows, one
# batch at batch_size=8, and the proximal pull is zero on a round's first
# step; so the proximal variants run at batch_size=4, where the pull acts.
# On BASE every client holds 100 points, so size weights equal the uniform
# ones; the datasize case uses uneven clients and selects every client. BASE
# gives each client one whole vehicle; the equal-partition case cuts vehicles
# at 51 points, so some clients hold a segment too short for a window and some
# holdouts span two segments. Every other case runs hidden=8; the hidden32 case
# pins the LSTM step at the width of the benchmark's headline, over batches of
# one, three and four rows.
CASES = {
    "fedavg": dict(variant="fedavg"),
    "fedcab": dict(variant="fedcab"),
    "feddecab": dict(variant="feddecab"),
    "fedprox": dict(variant="fedprox", batch_size=4),
    "fedprox_plus": dict(variant="fedprox_plus", batch_size=4),
    "local_only": dict(variant="local_only"),
    "fedavg_offline": dict(variant="fedavg", offline_train_every_round=True),
    "feddecab_offline": dict(variant="feddecab", offline_train_every_round=True),
    "feddecab_multi_batch": dict(variant="feddecab", epochs=2, batch_size=3),
    "fedavg_by_datasize": dict(
        variant="fedavg",
        synth_vehicles=17,
        vehicles_per_client=2,
        sample_ratio=1.0,
        aggregate_by_datasize=True,
    ),
    "fedavg_equal_partition": dict(variant="fedavg", partition="equal", points_per_client=51),
    "feddecab_hidden32": dict(variant="feddecab", hidden=32, batch_size=4, epochs=2),
}

# feddecab over a CSV of 32 vehicles of 12 to 52 points, one client each, with
# a peer round every round: neighbour ordering, head adoption and CSV windowing
# all reach the bytes. The CSV is written into the test's working directory and
# named relative to it, so the config in summary.json does not hold a temporary
# path.
FLEET_CSV = "fleet.csv"
FLEET = dict(
    BASE,
    variant="feddecab",
    dataset="csv",
    data_path=FLEET_CSV,
    n_clients=32,
    decentral_freq=1.0,
    chi=5,
    p_offline=0.4,
)


def _write_fleet_csv(path) -> None:
    trajectories = synth_trajectories(11, 32, 52, "sinusoid")
    lengths = [12 + 5 * (i % 9) for i in range(len(trajectories))]
    write_csv(path, [
        Trajectory(t.vehicle_id, t.timestamps[:n], t.coords[:n])
        for t, n in zip(trajectories, lengths)
    ])


# case -> (rounds.csv sha256, summary.json sha256)
DIGESTS = {
    "fedavg": (
        "dfa6d476fcee47400f2c8d97aa93aa0623bf8b3521a96d1c3342083af54ae2a2",
        "2955b5cdb8071831bcfbf4a4052dab7a51f50702fb25942738060cb25e4cc70f",
    ),
    "fedcab": (
        "a493e40cbc56f0a805d50263dc3dc1464896f3b042939218a10cd2a7d7d518cc",
        "246463462e8b8c8d030bd34329034120829885204762d67ef009c8623c564834",
    ),
    "feddecab": (
        "be7397d3fba2a497386a7103982e288fc309558254488312d5d4bbf581b33f46",
        "08c0556b77d2b8bea48814e08da809f3a814a3938080621faebc104adfb4e124",
    ),
    "fedprox": (
        "a403b7d8865754df55cc4c385f6429b2771be9adbe5301c166ad9be89ae98c2b",
        "abd448c8fa905b8d96cc55ee44a5e221d6908695bbbdaf82261c29ffeb2228b1",
    ),
    "fedprox_plus": (
        "b326b619e77d03d27c8c5a900df9716e32436eaec57dc9007784a96f1e78133e",
        "b8206990e46e6ea81ea6b8030700adc8198dca79f9711166390463aa1189b946",
    ),
    "local_only": (
        "804ceccc0248ade120cf7390db84b2d8f57a31ae763ce3ef0fc594350703f6d1",
        "624cef4f3d2cd6ce709c3f47fed8473bb94bc3c86a2964f7646b36d5e1e00537",
    ),
    "fedavg_offline": (
        "279831935ead16ce931c3d69bb51d7f9d6d0d71feea837e3dce8cf8e2674b818",
        "886b4c64d727386a51a53ce8910f5c7e8dd65acc71d70fc9891c1c93a5e178ae",
    ),
    "feddecab_offline": (
        "3f586e615e3c3a46e24483de8df2cb93d1262abc320efdb0a948609ce78ef974",
        "1b08772f5c9befab0feeaf1f98391f0c18a9bd076b4458bed72955b70a5de967",
    ),
    "feddecab_multi_batch": (
        "d4d9381dbb06fd4dd163f0d82b7fcf868c958cee85693bd9f668a883973b9449",
        "a7ec7773f0ba095d14f5356bb07ec8f3736d84d35269b998ce26369c4d398e07",
    ),
    "fedavg_by_datasize": (
        "fe6d80ee45e427d801646501a589aab986dad2624d8ac584afc4fa49172f2878",
        "9cdf0595652c3fb0746479d3f68e7be37d2fa068a5bdf336e335f599f837ede4",
    ),
    "fedavg_equal_partition": (
        "c1c1d690e6bfcb3ac93c5c76b2ac808d8d1fc929b836ad24b02ad8c19eca5130",
        "ed1eb59636e90f0ea981d92536ad9663126d959693e223752d5a3b0183995c0d",
    ),
    "feddecab_hidden32": (
        "0e22ddb9b191035f6d0046e8e3af1c7ef2278caac056b3918b9cff1d811f3d87",
        "1a2fa53888aedc46d80bf122dd64ac1d13d8ae92371cb4623583fc0a0eed5579",
    ),
}

FLEET_DIGESTS = (
    "30abdcf23353dd1daab36fe2b81397a5a6125f9a6926f129b0d1478619ad7105",
    "fd799b3f499c0b5df458a83e2619e8286966433e1a31dea697a85eb56518c3f2",
)


# rounds.csv of a feddecab run where every client goes offline after round 1,
# so rounds 2-4 aggregate nothing; pinned before unchanged global models
# stopped being re-scored
EMPTY_SELECTION = dict(BASE, variant="feddecab", p_offline=1.0, p_recover=0.0, rounds=4)
EMPTY_SELECTION_ROUNDS_SHA256 = "ccc2187916dcb9ee740cc1940d10c6a3109c77ccb82b8b48e0f4db88f7c0fad7"


# case -> (overrides of BASE, event that shows the divergence). The online
# abort: round 2 trains from a global model that eta 1e60 blew up, and its
# first trained client diverges on its second batch of three, so the run
# stops there. The peer-round divergence: every client is offline from round
# 2 and trains only in peer rounds, at a rate that grows 1e35-fold a round, so
# some clients diverge in round 4 and more in round 6 while the rest still
# score heads. Neither writes a non-finite RMSE.
DIVERGING = {
    "online_abort": (dict(variant="feddecab", eta0=1e60, batch_size=3), "numeric_abort:"),
    "peer_abort": (
        dict(variant="feddecab", p_offline=1.0, p_recover=0.0, eta_decay=1e35, batch_size=3),
        "numeric_abort_peer:",
    ),
}
DIVERGING_DIGESTS = {
    "online_abort": (
        "9e4e36d3af2ab7da27fcf8d3609689a3bfbd6126ad9424dd99e1e42413f89eee",
        "9171142d3c4ef2d3578f639bcc7e27a9ad2787f37d90f6e06f65f8e17d630c8f",
    ),
    "peer_abort": (
        "3a90b6fd9d4a6768d79bb12e05f4f4d8bf4d3fbb38c9c8873f90ae925dd3d263",
        "bf4e2d1e74086bfd6cb16633c863fd977bf1a7f9fdf33bb46221c5f9545e6573",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rounds_and_summary_sha256(overrides, out_dir) -> tuple[str, str]:
    result = run_experiment(ExperimentConfig(**dict(BASE, **overrides)))
    paths = emit_reports(result, out_dir)
    return _sha256(paths["rounds"]), _sha256(paths["summary"])


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_outputs_match_pinned_digests(case, tmp_path):
    assert _rounds_and_summary_sha256(CASES[case], tmp_path) == DIGESTS[case]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_diverging_runs_match_pinned_digests(case, tmp_path):
    overrides, event = DIVERGING[case]
    result = run_experiment(ExperimentConfig(**dict(BASE, **overrides)))
    assert any(e.startswith(event) for log in result.logs for e in log.events)
    paths = emit_reports(result, tmp_path)
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    assert None not in (summary["final_rmse"], *summary["final_client_rmse"].values())
    assert (_sha256(paths["rounds"]), _sha256(paths["summary"])) == DIVERGING_DIGESTS[case]


def test_feddecab_fleet_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_fleet_csv(tmp_path / FLEET_CSV)
    result = run_experiment(ExperimentConfig(**FLEET))
    paths = emit_reports(result, tmp_path / "out")
    assert (_sha256(paths["rounds"]), _sha256(paths["summary"])) == FLEET_DIGESTS


@pytest.mark.parametrize("proximal,plain", [("fedprox", "fedavg"), ("fedprox_plus", "fedcab")])
def test_proximal_pins_differ_from_their_plain_variant(proximal, plain, tmp_path):
    # the same batches without the proximal pull: equal bytes would mean the
    # pinned proximal run never exercised the penalty
    rounds_sha, _ = _rounds_and_summary_sha256(dict(CASES[proximal], variant=plain), tmp_path)
    assert rounds_sha != DIGESTS[proximal][0]
    assert DIGESTS[proximal][0] not in (DIGESTS["fedavg"][0], DIGESTS["fedcab"][0])


def test_datasize_pin_differs_from_uniform_weights(tmp_path):
    # equal bytes would mean the pinned run never weighted clients unequally
    overrides = dict(CASES["fedavg_by_datasize"], aggregate_by_datasize=False)
    rounds_sha, _ = _rounds_and_summary_sha256(overrides, tmp_path)
    assert rounds_sha != DIGESTS["fedavg_by_datasize"][0]


def test_rounds_that_aggregate_nothing_reuse_the_global_rmse(tmp_path, monkeypatch):
    n_forward = 0
    original = fedsim.training.forward

    def counting_forward(model, batch):
        nonlocal n_forward
        n_forward += 1
        return original(model, batch)

    monkeypatch.setattr(fedsim.training, "forward", counting_forward)
    result = run_experiment(ExperimentConfig(**EMPTY_SELECTION))
    assert result.logs[0].selected and not any(log.selected for log in result.logs[1:])
    # one holdout eval per trained client, and one global eval (round 1)
    assert n_forward == sum(len(log.client_rmse) for log in result.logs) + 1
    paths = emit_reports(result, tmp_path)
    assert _sha256(paths["rounds"]) == EMPTY_SELECTION_ROUNDS_SHA256
