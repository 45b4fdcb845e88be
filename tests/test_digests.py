"""Golden digests: sha256 of rounds.csv and summary.json for tiny runs.

The determinism tests compare two runs inside one process, so a change that
moves the numerics between commits would pass them. These digests pin the
bytes across commits: one uniform-selection run (fedavg), one ranked run
(fedcab), one with peer rounds (feddecab), both proximal variants, the
isolated local_only baseline, fedavg and feddecab with offline clients
training every round, feddecab over several batches and epochs, fedavg
weighted by client data size, feddecab at the headline's hidden width of 32,
feddecab under the regional and the datasize availability scenarios, feddecab
over a CSV fleet with peer rounds every round, the rounds of fedavg over a
ragged CSV fleet of two vehicles per client, and two feddecab runs that
diverge: one aborts in its online phase, one loses clients in peer rounds. The values were taken with numpy
2.4 and OpenBLAS on x86-64; another BLAS may round GEMMs differently. A change that alters any output bit must
re-pin them and say why in CHANGES.md. A failed pin names the numeric platform
it ran on: the pins were taken with OpenBLAS's SkylakeX kernel and numpy's
X86_V4 dispatch, and another kernel moves bits.
"""

import hashlib
import json

import numpy as np
import pytest

import fedsim.training
from fedsim.config import ExperimentConfig
from fedsim.data import Trajectory, synth_trajectories, write_csv
from fedsim.experiment import run_experiment
from fedsim.reports import emit_reports

from conftest import openblas, prepare_clients_and_plans, write_ragged_fleet_csv

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
# ones; the datasize case uses uneven clients and selects every client. Every
# other case runs hidden=8; the hidden32 case pins the LSTM step at the width
# of the benchmark's headline, over batches of one, three and four rows. Every other case runs the random scenario: the
# regional case lays one weak box over part of the fleet, and the datasize case
# runs the uneven fleet, whose one client of three vehicles is the company
# device.
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
    "feddecab_hidden32": dict(variant="feddecab", hidden=32, batch_size=4, epochs=2),
    "feddecab_regional": dict(
        variant="feddecab", scenario="regional", weak_areas=[[29.9, 30.5, 120.0, 120.6]]
    ),
    "feddecab_datasize": dict(
        variant="feddecab", scenario="datasize", synth_vehicles=17, vehicles_per_client=2
    ),
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


# rounds.csv of fedavg over a CSV of 32 whole vehicles, two per client, some
# too short for a window and some whose client's holdout spans both of its
# vehicles; summary.json holds the config, so only the rounds are pinned
RAGGED_CSV = "ragged.csv"
RAGGED = dict(
    BASE, variant="fedavg", dataset="csv", data_path=RAGGED_CSV, n_clients=16,
    vehicles_per_client=2,
)


# case -> (rounds.csv sha256, summary.json sha256)
DIGESTS = {
    "fedavg": (
        "dfa6d476fcee47400f2c8d97aa93aa0623bf8b3521a96d1c3342083af54ae2a2",
        "1a5d98c1554493e838e87266932a75995fed2c80122ed8e68baf5ce17e07fa50",
    ),
    "fedcab": (
        "a493e40cbc56f0a805d50263dc3dc1464896f3b042939218a10cd2a7d7d518cc",
        "bd942bfc5cc693fe23a50f8370dc7eee2b2bcc5b05e6b79cf5da78950cbd8be3",
    ),
    "feddecab": (
        "be7397d3fba2a497386a7103982e288fc309558254488312d5d4bbf581b33f46",
        "2500158437f8781fe50d5312d42897c4630affc74d05bedecdb7caf6f9095aab",
    ),
    "fedprox": (
        "a403b7d8865754df55cc4c385f6429b2771be9adbe5301c166ad9be89ae98c2b",
        "1a95d4d2fab1b97d1d4abb2890221e11d7125c3c034305488a0decaecbe2b0a8",
    ),
    "fedprox_plus": (
        "b326b619e77d03d27c8c5a900df9716e32436eaec57dc9007784a96f1e78133e",
        "0eaea19053d29d7443d57275b7141df7a27ee034bc76e005b6df1de99a02ff36",
    ),
    "local_only": (
        "804ceccc0248ade120cf7390db84b2d8f57a31ae763ce3ef0fc594350703f6d1",
        "61fa0dc503707d6ea5211aa9a5dad45f2baef7cb2f8dab73e5f7f07f78abd706",
    ),
    "fedavg_offline": (
        "279831935ead16ce931c3d69bb51d7f9d6d0d71feea837e3dce8cf8e2674b818",
        "781cf41caa6f064d668543f15de36f4bf8509d1172ca01c50ad656305eac3610",
    ),
    "feddecab_offline": (
        "3f586e615e3c3a46e24483de8df2cb93d1262abc320efdb0a948609ce78ef974",
        "5e7239cadc8a356e87795a99a579908e1ed068ad42fe16d8c1c5dd1e059bd0b3",
    ),
    "feddecab_multi_batch": (
        "d4d9381dbb06fd4dd163f0d82b7fcf868c958cee85693bd9f668a883973b9449",
        "0f278e6112487caf081a9aa82fed37ce60c00f75129db32bf0103f884f584413",
    ),
    "fedavg_by_datasize": (
        "fe6d80ee45e427d801646501a589aab986dad2624d8ac584afc4fa49172f2878",
        "80455d4d2451e9a040e99beea8bfcce2f479adfef13e60319d0aef446f8a95b6",
    ),
    "feddecab_hidden32": (
        "0e22ddb9b191035f6d0046e8e3af1c7ef2278caac056b3918b9cff1d811f3d87",
        "9c5bf2fe8f6ec1d2dcbff88ffb30c1038fb634f717f77ec3aaa7f716bb173714",
    ),
    "feddecab_regional": (
        "1d395b71d9170cc1669c3f1282c7b74d522a00619a74e3744cc1b2a8f4cfdb38",
        "db7e470f77fb314aa0504408057bc8cfc49ac4f064398bbdacff0482c7ebc1cc",
    ),
    "feddecab_datasize": (
        "c3b1afb8ec9d1375fb5d1722203a40bcbbf119c6f346c9a8e5b028e8c61791b4",
        "54e67e7519d3af41690722897ad6d10df46e7f0afef96168d5471fd33ac60c51",
    ),
}

FLEET_DIGESTS = (
    "30abdcf23353dd1daab36fe2b81397a5a6125f9a6926f129b0d1478619ad7105",
    "51b5b20224220943f429a89b88a8d68b15ec0f79f80a01a3d3133b697ef97917",
)

RAGGED_ROUNDS_SHA256 = "cb768ffc838824fffab89e76195be20159efc2111985ba0430dc618914375dbc"


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
        "0f12df7f5241a03cd83ad53eeb66cefcb8ba1d55ec1a6a669806762d23954002",
    ),
    "peer_abort": (
        "3a90b6fd9d4a6768d79bb12e05f4f4d8bf4d3fbb38c9c8873f90ae925dd3d263",
        "82bbb733d02d853d134255c6015a0e1a7bc22ae354686a03bdd47dfe7978684c",
    ),
}


def _numeric_platform() -> str:
    """numpy's version, the OpenBLAS kernel and thread count, and numpy's
    enabled SIMD dispatch targets; "unknown" where numpy bundles no OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    core = threads = "unknown"
    lib = openblas()
    if lib is not None:
        core = lib.scipy_openblas_get_corename64_().decode()
        threads = lib.scipy_openblas_get_num_threads64_()
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (
        f"numpy {np.__version__}, OpenBLAS core {core}, {threads} BLAS threads, "
        f"dispatch {' '.join(dispatch) or 'none'}"
    )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rounds_and_summary_sha256(overrides, out_dir) -> tuple[str, str]:
    result = run_experiment(ExperimentConfig(**dict(BASE, **overrides)))
    paths = emit_reports(result, out_dir)
    return _sha256(paths["rounds"]), _sha256(paths["summary"])


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_outputs_match_pinned_digests(case, tmp_path):
    assert _rounds_and_summary_sha256(CASES[case], tmp_path) == DIGESTS[case], _numeric_platform()


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_diverging_runs_match_pinned_digests(case, tmp_path):
    overrides, event = DIVERGING[case]
    result = run_experiment(ExperimentConfig(**dict(BASE, **overrides)))
    assert any(e.startswith(event) for log in result.logs for e in log.events)
    paths = emit_reports(result, tmp_path)
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    assert None not in (summary["final_rmse"], *summary["final_client_rmse"].values())
    digests = (_sha256(paths["rounds"]), _sha256(paths["summary"]))
    assert digests == DIVERGING_DIGESTS[case], _numeric_platform()


def test_feddecab_fleet_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_fleet_csv(tmp_path / FLEET_CSV)
    result = run_experiment(ExperimentConfig(**FLEET))
    paths = emit_reports(result, tmp_path / "out")
    digests = (_sha256(paths["rounds"]), _sha256(paths["summary"]))
    assert digests == FLEET_DIGESTS, _numeric_platform()


def test_ragged_fleet_matches_pinned_rounds(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_ragged_fleet_csv(tmp_path / RAGGED_CSV)
    result = run_experiment(ExperimentConfig(**RAGGED))
    paths = emit_reports(result, tmp_path / "out")
    assert _sha256(paths["rounds"]) == RAGGED_ROUNDS_SHA256, _numeric_platform()


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


def test_scenario_pins_reach_both_probabilities():
    # a box over every point, or none, would pin a constant plan
    config = ExperimentConfig(**dict(BASE, **CASES["feddecab_regional"]))
    _, plans = prepare_clients_and_plans(config)
    assert any({config.p_low, config.p_high} <= set(plan) for plan in plans)
    config = ExperimentConfig(**dict(BASE, **CASES["feddecab_datasize"]))
    _, plans = prepare_clients_and_plans(config)
    assert {float(p) for plan in plans for p in plan} == {config.p_company, config.p_private}


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
    assert _sha256(paths["rounds"]) == EMPTY_SELECTION_ROUNDS_SHA256, _numeric_platform()


def test_a_failed_pin_names_the_numeric_platform():
    note = _numeric_platform()
    assert note.startswith(f"numpy {np.__version__}, OpenBLAS core ")
    assert " BLAS threads, dispatch " in note
