"""Golden digests: sha256 of rounds.csv and summary.json for three tiny runs.

The determinism tests compare two runs inside one process, so a change that
moves the numerics between commits would pass them. These digests pin the
bytes across commits: one uniform-selection run (fedavg), one ranked run
(fedcab) and one with peer rounds (feddecab). The values were taken with
numpy 2.4 and OpenBLAS on x86-64; another BLAS may round GEMMs differently.
A change that alters any output bit must re-pin them and say why in
CHANGES.md.
"""

import hashlib

import pytest

import fedsim.experiment
import fedsim.training
from fedsim.config import ExperimentConfig
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

# variant -> (rounds.csv sha256, summary.json sha256)
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
}


# rounds.csv of a feddecab run where every client goes offline after round 1,
# so rounds 2-4 aggregate nothing; pinned before unchanged global models
# stopped being re-scored
EMPTY_SELECTION = dict(BASE, variant="feddecab", p_offline=1.0, p_recover=0.0, rounds=4)
EMPTY_SELECTION_ROUNDS_SHA256 = "ccc2187916dcb9ee740cc1940d10c6a3109c77ccb82b8b48e0f4db88f7c0fad7"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", sorted(DIGESTS))
def test_outputs_match_pinned_digests(variant, tmp_path):
    result = run_experiment(ExperimentConfig(variant=variant, **BASE))
    paths = emit_reports(result, tmp_path)
    got = (_sha256(paths["rounds"]), _sha256(paths["summary"]))
    assert got == DIGESTS[variant]


def test_rounds_that_aggregate_nothing_reuse_the_global_rmse(tmp_path, monkeypatch):
    n_forward = 0
    original = fedsim.training.forward

    def counting_forward(model, batch):
        nonlocal n_forward
        n_forward += 1
        return original(model, batch)

    monkeypatch.setattr(fedsim.training, "forward", counting_forward)
    monkeypatch.setattr(fedsim.experiment, "forward", counting_forward)
    result = run_experiment(ExperimentConfig(**EMPTY_SELECTION))
    assert result.logs[0].selected and not any(log.selected for log in result.logs[1:])
    # one holdout eval per trained client, and one global eval (round 1)
    assert n_forward == sum(len(log.client_rmse) for log in result.logs) + 1
    paths = emit_reports(result, tmp_path)
    assert _sha256(paths["rounds"]) == EMPTY_SELECTION_ROUNDS_SHA256
