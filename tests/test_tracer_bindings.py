"""The benchmark tracer's hooks must keep binding to fedsim functions.

``fedbench/tracer.py`` reads its work counters through hooks keyed by
``layer.function``. A renamed or removed function silently drops its hook, so
this test loads the tracer from its file, checks every hook key against the
functions it can wrap, and runs a small traced feddecab config that reaches
every hooked function: ranked selection, aggregation and a peer round.
"""

import importlib.util
import sys
from pathlib import Path

from fedsim.config import ExperimentConfig
from fedsim.experiment import run_experiment

TRACER_PATH = Path(__file__).resolve().parent.parent / "fedbench" / "tracer.py"


# registered before it runs: its dataclasses look their module up by name
_spec = importlib.util.spec_from_file_location("fedbench_tracer", TRACER_PATH)
tracer = sys.modules["fedbench_tracer"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_hook_names_a_traced_function():
    assert set(tracer._HOOKS) <= set(tracer.public_functions())


def test_every_hook_fires_on_a_feddecab_run():
    config = ExperimentConfig(
        variant="feddecab", dataset="synthetic", synth_vehicles=6, synth_points_each=60,
        n_clients=6, rounds=4, hidden=4, seq_len=4, scenario="constant", constant_p=1.0,
        p_offline=0.5, p_recover=0.5, budget=None, sample_ratio=0.5, decentral_freq=1.0,
        chi=2, eta0=0.05, seed=0,
    )
    with tracer.Tracer() as traced:
        result = run_experiment(config)
    assert any(log.collab_sources for log in result.logs)
    assert any(log.alpha is not None and log.entries for log in result.logs)
    assert [key for key in tracer._HOOKS if traced.spans[key].calls == 0] == []
