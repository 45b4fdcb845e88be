#!/usr/bin/env python3
"""End-to-end comparison at desk scale, with charts written to ./demo_out.

Runs the full round loop under availability stress (Dirichlet point loss,
offline/recovery churn, upload budgets) for three variants and emits
rounds.csv / summary.json / curves.svg per run plus a merged chart.
"""

from pathlib import Path

from fedsim.config import ExperimentConfig
from fedsim.experiment import run_experiment
from fedsim.reports import collect_series, emit_reports, write_curves_svg

OUT = Path("demo_out")

base = dict(
    dataset="synthetic",
    synth_kind="sinusoid",
    synth_vehicles=20,
    synth_points_each=160,
    vehicles_per_client=1,
    n_clients=20,
    rounds=60,
    sample_ratio=0.2,
    epochs=1,
    eta0=0.05,
    scenario="random",
    alpha_dir=0.5,
    budget=15,
    p_offline=0.2,
    p_recover=0.1,
    decentral_freq=0.5,
    chi=3,
    hidden=32,
    seed=0,
)

for variant in ("fedavg", "fedcab", "feddecab"):
    result = run_experiment(ExperimentConfig(variant=variant, **base))
    emit_reports(result, OUT / variant)
    uploads = sum(len(log.selected) for log in result.logs)
    offline_rounds = sum(len(log.offline) for log in result.logs)
    print(
        f"{variant:9s}: final RMSE {result.final_rmse():.4f}, "
        f"best {result.best_rmse():.4f}, {uploads} uploads, "
        f"{offline_rounds} offline client-rounds"
    )

write_curves_svg(collect_series([OUT / v for v in ("fedavg", "fedcab", "feddecab")]),
                 OUT / "comparison.svg")
print(f"\ncharts written under {OUT}/ (open comparison.svg for the merged view)")
