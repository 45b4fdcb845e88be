"""Command-line entry point: run experiments, check gradients, plot, synth."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import _RANGES, ExperimentConfig, _Interval
from .data import SYNTH_KINDS, synth_trajectories, write_csv
from .errors import ConfigError, FedsimError
from .experiment import run_experiment
from .nn import Dims, ParamSet, TrainBatch, backward, batch_objective, init_params
from .reports import collect_series, emit_reports, write_curves_svg


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    overrides = {}
    for name in ("seed", "variant", "rounds"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return replace(config, **overrides)


def _cmd_run(args) -> int:
    config = _load_config(args)
    # an --out that is, or lies under, a file fails before any round runs;
    # nothing is created until the reports are written
    out = Path(args.out)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigError(f"{out}: {nearest} is not a directory")
    result = run_experiment(config)
    paths = emit_reports(result, out)
    best = result.best_rmse()
    best_text = "n/a" if best is None else f"{best:.6g}"
    print(
        f"{config.variant}: {len(result.logs)} rounds, "
        f"final RMSE {result.final_rmse():.6g}, best {best_text}"
    )
    if config.dataset != "synthetic":
        print(f"{config.data_path}: {result.rejected_rows} rows rejected")
    print(f"wrote {paths['rounds']}, {paths['summary']}, {paths['curves']}")
    return 0


_POSITIVE = _Interval(0, math.inf, "()")


def _check_flags(args, **ranges) -> None:
    # in order; a flag that repeats a config field has that field's range
    for name, interval in ranges.items():
        value = getattr(args, name)
        if value not in interval:  # NaN is in no interval
            raise ConfigError(f"--{name} must be {interval}, got {value}")


def _cmd_gradcheck(args) -> int:
    """Analytic gradients against central finite differences on small models."""
    _check_flags(args, seed=_RANGES["seed"], trials=_Interval(1, math.inf, "[)"),
                 hidden=_RANGES["hidden"], steps=_RANGES["seq_len"], batch=_RANGES["batch_size"],
                 eps=_POSITIVE, tolerance=_POSITIVE)
    rng = np.random.default_rng(args.seed)
    dims = Dims(2, args.hidden, 2)
    worst = 0.0
    for trial in range(args.trials):
        model = init_params(dims, rng)
        target = init_params(dims, rng).fc_block if trial % 2 else None
        try:
            inputs = rng.normal(size=(args.batch, args.steps, dims.n_in))
            batch = TrainBatch(inputs, rng.normal(size=(args.batch, dims.n_out)))
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"--batch {args.batch} and --steps {args.steps}: {exc}") from exc
        analytic = backward(model, batch, kl_anchor=target).values
        flat = model.values
        # the KL term's log(|v| + 1e-8) bends sharply near v = 0, and a central
        # difference's error grows as (step / |v|)^2 there: a step of at most
        # |v| / 1000 holds it near 1e-7 of the derivative, where --eps alone
        # gave 1e-4 at |v| = 1.5e-4
        steps = np.where(flat != 0.0, np.minimum(args.eps, np.abs(flat) / 1000), args.eps)
        numeric = np.zeros_like(flat)
        for k in range(flat.size):
            bumped = flat.copy()
            bumped[k] += steps[k]
            hi = batch_objective(ParamSet(bumped, dims), batch, kl_anchor=target)
            bumped[k] -= 2 * steps[k]
            lo = batch_objective(ParamSet(bumped, dims), batch, kl_anchor=target)
            numeric[k] = (hi - lo) / (2 * steps[k])
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        # np.maximum, unlike max, keeps a NaN error, which then fails the check
        worst = float(np.maximum(worst, np.max(np.abs(analytic - numeric) / denom)))
    ok = worst < args.tolerance
    print(f"gradcheck: {args.trials} trials, max relative error {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {args.tolerance:g})")
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    root = Path(args.input)
    if (root / "rounds.csv").exists():
        run_dirs = [root]
    else:
        run_dirs = sorted(p.parent for p in root.glob("*/rounds.csv"))
    if not run_dirs:
        print(f"no rounds.csv found under {root}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else root / "curves.svg"
    inputs = {(d / name).resolve() for d in run_dirs for name in ("rounds.csv", "summary.json")}
    if out.resolve() in inputs:
        raise ConfigError(f"{out}: --out would overwrite a run file that plot reads")
    write_curves_svg(collect_series(run_dirs), out)
    print(f"wrote {out}")
    return 0


def _cmd_synth(args) -> int:
    _check_flags(args, seed=_RANGES["seed"], vehicles=_RANGES["synth_vehicles"],
                 points=_RANGES["synth_points_each"])
    trajectories = synth_trajectories(args.seed, args.vehicles, args.points, args.kind)
    write_csv(args.out, trajectories)
    total = sum(t.n_points for t in trajectories)
    print(f"wrote {args.out}: {len(trajectories)} vehicles, {total} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Availability-budgeted federated trajectory-prediction simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a federated experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON config file")
    run.add_argument("--out", required=True, help="output directory for reports")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--variant", default=None, help="override the algorithm variant")
    run.add_argument("--rounds", type=int, default=None, help="override the round count")
    run.set_defaults(func=_cmd_run)

    grad = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    grad.add_argument("--trials", type=int, default=20)
    grad.add_argument("--hidden", type=int, default=8)
    grad.add_argument("--steps", type=int, default=4)
    grad.add_argument("--batch", type=int, default=4)
    grad.add_argument("--eps", type=float, default=1e-5,
                      help="largest finite-difference step; a parameter v gets at most |v|/1000")
    grad.add_argument("--tolerance", type=float, default=1e-4)
    grad.add_argument("--seed", type=int, default=0)
    grad.set_defaults(func=_cmd_gradcheck)

    plot = sub.add_parser("plot", help="merge run directories into one RMSE chart")
    plot.add_argument("--in", dest="input", required=True, help="run dir or parent of run dirs")
    plot.add_argument("--out", default=None, help="output SVG path")
    plot.set_defaults(func=_cmd_plot)

    synth = sub.add_parser("synth", help="write a synthetic trajectory CSV")
    synth.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--vehicles", type=int, default=10)
    synth.add_argument("--points", type=int, default=200)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FedsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an output path that cannot be created or written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
