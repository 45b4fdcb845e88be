"""Per-layer tracing of fedsim from outside the package.

Package modules import each other's functions by name (``from .nn import
backward``), so a function is reachable through every module that binds it:
``training.backward``, ``collab.train_local``, ``experiment.evaluate_rmse``.
:class:`Tracer` replaces each public function of each layer under every name
that binds it, times every call, and puts the originals back on exit. A
layer's self time is its span time minus the time of the traced spans it
called. Spans are aggregated per function as they close, so memory stays flat
however long the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "fedsim"

# The package's modules, one layer each. config defines no public function
# today, so nothing of it is traced and it has no metric.
LAYERS = (
    "data",
    "availability",
    "connectivity",
    "nn",
    "training",
    "collab",
    "ranking",
    "experiment",
    "reports",
    "config",
)

# Units of layer metrics that are wall-clock times; every other layer metric
# is an exact count that must repeat between runs at one seed.
TIME_UNITS = ("s", "us/row")


@dataclass
class Span:
    """Aggregate of every call to one traced function."""

    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def public_functions() -> dict[str, object]:
    """``layer.name`` -> function, for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[f"{layer}.{name}"] = obj
    return found


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lstm_flop(dims, batch: int, steps: int) -> int:
    # one (B, I+H) @ (I+H, 4H) gate GEMM per timestep
    return steps * 2 * batch * (dims.n_in + dims.n_hidden) * 4 * dims.n_hidden


class Tracer:
    """Context manager that traces every public fedsim function while active.

    ``spans`` maps ``layer.function`` to its :class:`Span`; the pseudo-spans
    ``training.eval_global`` and ``training.eval_client`` split
    ``evaluate_rmse`` by whether it scored the global holdout. ``counts``
    holds work counters read from call arguments and results.
    """

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self.global_rows: int | None = None
        self._open: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, key: str) -> Span:
        return self.spans.setdefault(key, Span())

    def __enter__(self) -> "Tracer":
        originals = public_functions()
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in originals.items()}
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        hook = _HOOKS.get(key)
        span = self.span(key)
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = hook(self, args, kwargs) if hook else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                span.child_s += stack.pop()
                span.calls += 1
                span.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if after:
                after(result, elapsed)
            return result

        return traced


# ---------------------------------------------------------------------------
# counters read at layer boundaries. A hook runs before the call and may
# return a callback that receives the result and the call's wall time.


def _on_prepare_clients(tracer, args, kwargs):
    def after(result, _elapsed):
        # the global holdout is the fourth return value: (inputs, targets)
        tracer.global_rows = result[3][0].shape[0]

    return after


def _on_train_local(tracer, args, kwargs):
    epochs = _arg(args, kwargs, 3, "epochs")
    tracer.count("windows", _arg(args, kwargs, 1, "inputs").shape[0] * max(epochs, 0))


def _on_forward(tracer, args, kwargs):
    dims = _arg(args, kwargs, 0, "model").dims
    rows, steps = _arg(args, kwargs, 1, "batch").inputs.shape[:2]
    tracer.count("forward_rows", rows)
    tracer.count("flop", _lstm_flop(dims, rows, steps))


def _on_backward(tracer, args, kwargs):
    dims = _arg(args, kwargs, 0, "model").dims
    rows, steps = _arg(args, kwargs, 1, "batch").inputs.shape[:2]
    tracer.count("backward_rows", rows)
    # forward pass, then two gate-sized GEMMs per step and two head GEMMs;
    # the head's forward GEMM is counted by apply_fc
    head = 2 * rows * dims.n_hidden * dims.n_out
    tracer.count("flop", 3 * _lstm_flop(dims, rows, steps) + 2 * head)


def _on_lstm_hidden(tracer, args, kwargs):
    dims = _arg(args, kwargs, 0, "model").dims
    rows, steps = _arg(args, kwargs, 1, "inputs").shape[:2]
    tracer.count("flop", _lstm_flop(dims, rows, steps))


def _on_apply_fc(tracer, args, kwargs):
    dims = _arg(args, kwargs, 2, "dims")
    rows = _arg(args, kwargs, 1, "hidden").shape[0]
    tracer.count("flop", 2 * rows * dims.n_hidden * dims.n_out)


def _on_evaluate_rmse(tracer, args, kwargs):
    rows = _arg(args, kwargs, 1, "inputs").shape[0]
    tracer.count("eval_rows", rows)
    key = "training.eval_global" if rows == tracer.global_rows else "training.eval_client"

    def after(_result, elapsed):
        span = tracer.span(key)
        span.calls += 1
        span.total_s += elapsed

    return after


def _on_reveal_round(tracer, args, kwargs):
    state = _arg(args, kwargs, 0, "state")
    start = state.cursor

    def after(result, _elapsed):
        tracer.count("points_revealed", result.size)
        tracer.count("points_lost", state.cursor - start - result.size)

    return after


def _on_aggregate(tracer, args, kwargs):
    tracer.count("models_aggregated", len(_arg(args, kwargs, 0, "models")))


def _on_build_rank_entries(tracer, args, kwargs):
    tracer.count("participants", len(_arg(args, kwargs, 0, "participants")))


_HOOKS = {
    "experiment.prepare_clients": _on_prepare_clients,
    "training.train_local": _on_train_local,
    "training.evaluate_rmse": _on_evaluate_rmse,
    "nn.forward": _on_forward,
    "nn.backward": _on_backward,
    "nn.lstm_hidden": _on_lstm_hidden,
    "nn.apply_fc": _on_apply_fc,
    "availability.reveal_round": _on_reveal_round,
    "experiment.aggregate": _on_aggregate,
    "ranking.build_rank_entries": _on_build_rank_entries,
}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced simulation


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, result, rounds_csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced ``run_experiment`` + ``emit_reports``.

    Spans and counters come from the tracer; the values sent to the server
    and between peers are read from the run's round logs.
    """
    spans, counts = tracer.spans, tracer.counts

    def span(key):
        return spans.get(key, Span())

    logs = result.logs
    total_size = result.global_model.dims.total_size
    exchanges = [(cid, src) for log in logs for cid, src in log.collab_sources.items()]
    backward, forward = span("nn.backward"), span("nn.forward")
    revealed = counts.get("points_revealed", 0)
    lost = counts.get("points_lost", 0)

    m = {}

    def timed(key, *fields):
        s = span(key)
        if "calls" in fields:
            m[f"{key}.calls"] = (s.calls, "count")
        if "s" in fields:
            m[f"{key}.s"] = (s.total_s, "s")
        if "self_s" in fields:
            m[f"{key}.self_s"] = (s.self_s, "s")

    timed("nn.backward", "calls", "s")
    m["nn.backward.us_per_row"] = (
        1e6 * _ratio(backward.total_s, counts.get("backward_rows", 0)), "us/row")
    timed("nn.sgd_step", "calls", "s")
    timed("nn.forward", "calls", "s")
    m["nn.forward.us_per_row"] = (
        1e6 * _ratio(forward.total_s, counts.get("forward_rows", 0)), "us/row")
    timed("nn.lstm_hidden", "calls", "s")
    timed("nn.model_divergence", "calls", "s")
    m["nn.gemm_gflop_computed"] = (counts.get("flop", 0) / 1e9, "GFLOP")

    timed("training.train_local", "calls", "s", "self_s")
    m["training.windows"] = (counts.get("windows", 0), "windows")
    timed("training.eval_global", "calls", "s")
    timed("training.eval_client", "calls", "s")
    m["training.eval_rows"] = (counts.get("eval_rows", 0), "rows")
    # rounds after the first with nothing aggregated re-score an unchanged model
    m["training.eval_global.redundant"] = (
        sum(1 for log in logs if log.t > 1 and not log.selected), "count")

    timed("collab.evaluate_candidates", "calls", "s")
    m["collab.exchanges"] = (len(exchanges), "count")
    m["collab.adopted_frac"] = (
        _ratio(sum(1 for cid, src in exchanges if cid != src), len(exchanges)), "ratio")
    m["collab.peer_values"] = (
        sum(sum(log.payloads.values()) for log in logs), "values")

    timed("connectivity.build_neighbor_graph", "calls", "s")
    timed("connectivity.step_connectivity", "s")

    timed("availability.reveal_round", "calls", "s")
    m["availability.points_revealed"] = (revealed, "points")
    m["availability.points_lost"] = (lost, "points")
    m["availability.reveal_yield"] = (_ratio(revealed, revealed + lost), "ratio")

    timed("ranking.build_rank_entries", "calls", "s")
    timed("ranking.select_top_k", "s")
    m["ranking.participants"] = (counts.get("participants", 0), "count")

    m["experiment.run_s"] = (span("experiment.run_experiment").total_s, "s")
    m["experiment.self_s"] = (span("experiment.run_experiment").self_s, "s")
    timed("experiment.prepare_clients", "s")
    timed("experiment.aggregate", "calls", "s")
    m["experiment.models_aggregated"] = (counts.get("models_aggregated", 0), "count")
    m["experiment.server_values"] = (
        sum(len(log.selected) for log in logs) * total_size, "values")
    m["experiment.empty_selection_rounds"] = (
        sum(1 for log in logs if not log.selected), "count")

    timed("data.parse_csv", "s")
    timed("data.synth_trajectories", "s")
    timed("data.make_windows", "calls", "s")

    timed("reports.emit_reports", "s")
    timed("reports.write_rounds_csv", "s")
    timed("reports.write_summary_json", "s")
    timed("reports.write_curves_svg", "s")
    m["reports.rounds_csv_bytes"] = (rounds_csv_bytes, "bytes")
    return m
