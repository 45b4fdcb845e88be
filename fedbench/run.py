#!/usr/bin/env python3
"""fedsim benchmark: end-to-end run metrics, or a traced per-layer split.

    python3 fedbench/run.py --workload headline --seed 0 --seconds 30 --trace 0

Runs one workload in this process as a closed loop: one simulation, then the
next, back to back, until ``--seconds`` have passed (at least ``MIN_RUNS``
untraced simulations). It drives fedsim only through ``prepare_clients``,
``run_experiment`` and ``emit_reports``, checks every run's outputs, and
prints a machine record, the reference-loop speed, a metric table and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer split from runs under
:class:`tracer.Tracer`. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Load comes from this one process: the BLAS gets no worker threads unless the
# caller asks for them. The GEMMs here are small, so this costs no speed on
# two cores and keeps runs steady when the machine is shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

try:
    import fedsim  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"fedbench: cannot import fedsim from {SRC}: {exc}")
if not Path(fedsim.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"fedbench: fedsim was imported from {fedsim.__file__}, not from {SRC}")

# The engine and reports are called through their modules, so that calls
# made while a Tracer is active go through its wrappers.
from fedsim import experiment, reports  # noqa: E402
from fedsim.config import ExperimentConfig  # noqa: E402
from fedsim.data import synth_trajectories, write_csv  # noqa: E402

from tracer import TIME_UNITS, Tracer, layer_metrics  # noqa: E402

MIN_RUNS = 3      # untraced simulations per untraced invocation, whatever --seconds says
HARD_STOP_S = 150  # no new simulation starts after this much wall time
SETUP_REPS = 3    # prepare_clients timings per untraced simulation
REF_REPS = 5      # reference-loop timings per simulation
# About the median of reference_loop() on the 2-core host the bounds were
# set on (numpy 2.4.6, OpenBLAS 0.3.31, one thread); it only fixes the unit.
REF_NOMINAL_S = 0.008
WORK_DIR = Path(__file__).resolve().parent / ".work"

# Every workload trains at the learning rate of the headline setting, so
# final_rmse is the error of a model that learned, not of its initialization.
ETA0 = 0.05


def headline(seed: int, work: Path) -> ExperimentConfig:
    """CRIT6_BASE of the acceptance suite with feddecab, at 20 of its 120 rounds.

    Global holdout eval (one B~1700 forward per round) dominates, so
    eval-path changes show here.
    """
    return ExperimentConfig(
        variant="feddecab", seed=seed, dataset="synthetic", synth_kind="sinusoid",
        synth_vehicles=40, synth_points_each=220, partition="by_vehicle",
        vehicles_per_client=1, n_clients=40, rounds=20, sample_ratio=0.1, epochs=1,
        scenario="random", alpha_dir=0.5, budget=20, p_offline=0.2, p_recover=0.1,
        decentral_freq=0.5, chi=3, hidden=32, eta0=ETA0,
    )


def sgd_bulk(seed: int, work: Path) -> ExperimentConfig:
    """fedavg over 16 equal, always-available clients of 1000 points, H=64.

    Nearly all time is local SGD at B=16 (nn.backward); there is no peer round
    and no ranking, so kernel changes move it and collab/ranking changes must not.
    """
    return ExperimentConfig(
        variant="fedavg", seed=seed, dataset="synthetic", synth_kind="sinusoid",
        synth_vehicles=16, synth_points_each=1000, n_clients=16, rounds=1,
        hidden=64, epochs=2, scenario="constant", constant_p=1.0,
        reveal_slice_points=1_000_000, p_offline=0.0, budget=None, sample_ratio=1.0,
        eta0=ETA0,
    )


def fleet_churn(seed: int, work: Path) -> ExperimentConfig:
    """feddecab over 160 tiny, uneven clients read from a CSV, with heavy churn.

    Kernel calls are tiny and bound by per-call overhead; the O(N^2) neighbour
    graph, head scoring and per-client loops carry the time, and set-up parses
    a CSV. The CSV is written here, before anything is timed.
    """
    csv_path = work / "fleet.csv"
    write_csv(csv_path, synth_trajectories(seed, 160, 90, "sinusoid"))
    return ExperimentConfig(
        variant="feddecab", seed=seed, dataset="csv", data_path=str(csv_path),
        n_clients=160, rounds=12, hidden=8, sample_ratio=0.1, decentral_freq=1.0,
        chi=5, p_offline=0.4, p_recover=0.3, budget=10, alpha_dir=1.0,
        reveal_slice_points=8, eta0=ETA0,
    )


WORKLOADS = {"headline": headline, "sgd_bulk": sgd_bulk, "fleet_churn": fleet_churn}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_rmse": "nRMSE",
    "ok_frac": "ratio",
}


_REF_X = np.linspace(-1.0, 1.0, 16 * 34).reshape(16, 34)
_REF_W = np.linspace(-0.5, 0.5, 34 * 128).reshape(34, 128)


def reference_loop() -> float:
    """Wall time of a fixed mix of the work fedsim does: small GEMMs, gate
    nonlinearities, reductions and float formatting.

    The code and inputs never change, so its time moves only with the speed
    the machine gives this process. On a shared 2-core host that speed drifts
    by 20-35% over tens of seconds, for every kind of work alike; end-to-end
    times are scaled by REF_NOMINAL_S / this loop's median to cancel it.
    """
    start = perf_counter()
    rows = []
    for i in range(300):
        a = _REF_X @ _REF_W
        gates = np.tanh(a) / (1.0 + np.exp(-a))
        rows.append(f"{i},{float(gates.sum())!r}")
    "\n".join(rows)
    return perf_counter() - start


class CheckFailed(Exception):
    """A simulation's outputs broke one of the benchmark's output checks."""


def _reject_constant(token: str):
    raise CheckFailed(f"summary.json holds {token}, which strict JSON forbids")


def machine_record() -> dict:
    """Hardware and library versions to keep beside every number."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class Bench:
    """Runs simulations of one config, checks their outputs, keeps timings."""

    def __init__(self, config: ExperimentConfig, out_dir: Path):
        self.config = config
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.final_rmse: float | None = None
        self.run_s: list[float] = []
        self.setup_s: list[float] = []
        self.layers: list[dict[str, tuple[float, str]]] = []
        self.ref_s: list[float] = []

    def simulate(self, traced: bool, time_setup: bool = False) -> None:
        """One simulation and its reports; a raise or a failed check is a failure."""
        self.ref_s.extend(reference_loop() for _ in range(REF_REPS))
        self.attempted += 1
        try:
            if traced:
                self._traced()
            else:
                self._untraced(time_setup)
        except Exception:  # the loop goes on; the failure is counted and shown
            self.failed += 1
            traceback.print_exc(file=sys.stderr)

    def _untraced(self, time_setup: bool) -> None:
        start = perf_counter()
        result = experiment.run_experiment(self.config)
        run_s = perf_counter() - start
        self.check(result, reports.emit_reports(result, self.out_dir))
        self.run_s.append(run_s)
        if time_setup:
            for _ in range(SETUP_REPS):
                start = perf_counter()
                experiment.prepare_clients(self.config)
                self.setup_s.append(perf_counter() - start)

    def _traced(self) -> None:
        with Tracer() as tracer:
            result = experiment.run_experiment(self.config)
            paths = reports.emit_reports(result, self.out_dir)
        self.check(result, paths)
        metrics = layer_metrics(tracer, result, paths["rounds"].stat().st_size)
        if self.layers:
            first = self.layers[0]
            moved = [k for k, (v, unit) in metrics.items()
                     if unit not in TIME_UNITS and v != first[k][0]]
            if moved:
                raise CheckFailed(f"exact counts differ between runs at one seed: {moved}")
        self.layers.append(metrics)

    def check(self, result, paths) -> None:
        """Output checks; they hold for any correct fedsim at any commit."""
        digest = hashlib.sha256(paths["rounds"].read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("rounds.csv differs from the first run at this seed")
        json.loads(paths["summary"].read_text(encoding="utf-8"), parse_constant=_reject_constant)
        final = result.final_rmse()
        if not math.isfinite(final):
            raise CheckFailed(f"final_rmse is {final}")
        n_read = len(reports.read_rounds_csv(paths["rounds"]))
        if not n_read == len(result.logs) == self.config.rounds:
            raise CheckFailed(
                f"rounds.csv reads back {n_read} rounds; the run logged "
                f"{len(result.logs)} of {self.config.rounds}"
            )
        self.final_rmse = final


def measure(bench: Bench, seconds: float, trace: bool) -> None:
    """Closed loop until the deadline. A first traced simulation warms caches
    and gives the exact counts and the traced rounds.csv digest."""
    start = perf_counter()
    bench.simulate(traced=True)
    min_runs = 1 if trace else MIN_RUNS
    runs = 0
    while True:
        iteration_start = perf_counter()
        bench.simulate(traced=False, time_setup=not trace)
        if trace:
            bench.simulate(traced=True)
        runs += 1
        now = perf_counter()
        if runs >= min_runs and now + (now - iteration_start) > start + seconds:
            break
        if now - start > HARD_STOP_S:
            break


def speed_scale(bench: Bench) -> float:
    """Factor that puts wall times on the reference machine's clock."""
    return REF_NOMINAL_S / median(bench.ref_s)


def end_to_end(bench: Bench) -> dict[str, float]:
    """Medians of the timings, scaled to the reference speed, and the rest."""
    scale = speed_scale(bench)
    return {
        "run_s": median(bench.run_s) * scale,
        "setup_s": median(bench.setup_s) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_rmse": bench.final_rmse,
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
    }


def per_layer(bench: Bench) -> dict[str, tuple[float, str]]:
    """Medians of the timed layer metrics; counts are equal in every run.
    The first traced run warmed the caches, so it is left out when others exist."""
    runs = bench.layers[1:] or bench.layers
    out = {}
    for key, (value, unit) in bench.layers[0].items():
        if unit in TIME_UNITS:
            value = median(run[key][0] for run in runs)
        out[key] = (value, unit)
    run_s = median(bench.run_s)
    out["training.windows_per_s"] = (out["training.windows"][0] / run_s, "windows/s")
    traced_run_s = median(run["experiment.run_s"][0] for run in runs)
    out["trace.overhead_frac"] = (traced_run_s / run_s - 1.0, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"fedbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_record(), sort_keys=True))

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        work = Path(tmp)
        bench = Bench(WORKLOADS[args.workload](args.seed, work), work / "out")
        measure(bench, args.seconds, bool(args.trace))

    if not bench.run_s or not bench.layers or (not args.trace and not bench.setup_s):
        print(f"fedbench: no simulation passed its checks ({bench.failed} of "
              f"{bench.attempted} failed)", file=sys.stderr)
        return 1
    print("speed " + json.dumps({"reference_loop_s": median(bench.ref_s),
                                 "samples": len(bench.ref_s), "scale": speed_scale(bench)}))
    if args.trace:
        metrics = per_layer(bench)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(bench).items()}
    walls = {"run_s": bench.run_s, "setup_s": bench.setup_s}
    for name, (value, unit) in metrics.items():
        note = ""
        if name in walls and not args.trace:
            note = f"  (scaled median of {len(walls[name])}; wall {median(walls[name]):.6g} s)"
        print(f"{name:40s} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
