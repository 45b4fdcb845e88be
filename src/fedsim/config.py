"""Experiment configuration: every knob of a run, JSON in and out.

Defaults mirror the headline setting this simulator targets: 40 clients, an
upload budget of 20, 240 rounds, a 10% sampling ratio, offline probability
0.2, recovery probability 0.1, peer rounds at half the cadence of server
rounds, one local epoch at learning rate 0.001, and 6-step windows in batches
of 16.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import types
import typing
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .data import SYNTH_KINDS
from .errors import ConfigError

VARIANTS = ("fedavg", "fedprox", "fedcab", "feddecab", "fedprox_plus", "local_only")
SCENARIOS = ("random", "regional", "datasize", "constant")
SELECTION_MODES = ("ranked", "uniform", "proportional")

# Variant presets: (selection mode, peer rounds enabled, proximal penalty on).
_VARIANT_FLAGS = {
    "fedavg": ("uniform", False, False),
    "fedprox": ("uniform", False, True),
    "fedcab": ("ranked", False, False),
    "feddecab": ("ranked", True, False),
    "fedprox_plus": ("ranked", False, True),
    "local_only": ("uniform", False, False),
}


@dataclass(frozen=True)
class _Interval:
    """The numbers from ``lo`` to ``hi``, an infinite bound being no bound. The
    brackets in ``ends`` say which bounds are in: ``[]`` both, ``()`` neither."""

    lo: float
    hi: float
    ends: str

    def __contains__(self, value) -> bool:
        above = value >= self.lo if self.ends[0] == "[" else value > self.lo
        below = value <= self.hi if self.ends[1] == "]" else value < self.hi
        return above and below

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>=' if self.ends[0] == '[' else '>'} {self.lo}"
        return f"in {self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"


# Each field's range: an interval, or a tuple of the values allowed. A field
# left out takes any value of its type; validate checks the rules that tie
# fields together. None passes wherever the type allows it.
_RANGES = {
    **dict.fromkeys(
        ("synth_vehicles", "synth_points_each", "vehicles_per_client", "reveal_slice_points",
         "rounds", "chi", "hidden", "seq_len", "batch_size"),
        _Interval(1, math.inf, "[)"),
    ),
    **dict.fromkeys(("epochs", "budget", "prox_mu", "seed"), _Interval(0, math.inf, "[)")),
    **dict.fromkeys(("alpha_dir", "eta0", "eta_decay", "gamma"), _Interval(0, math.inf, "()")),
    **dict.fromkeys(
        ("p_low", "p_high", "p_company", "p_private", "constant_p", "p_offline", "p_recover",
         "decentral_freq"),
        _Interval(0, 1, "[]"),
    ),
    "datasize_percentile": _Interval(0, 100, "()"),
    "n_clients": _Interval(2, math.inf, "[)"),
    "sample_ratio": _Interval(0, 1, "(]"),
    "dataset": ("synthetic", "csv", "tdrive"),
    "synth_kind": SYNTH_KINDS,
    "partition": ("by_vehicle",),
    "scenario": SCENARIOS,
    "variant": VARIANTS,
    "selection": SELECTION_MODES,
    "rmse_units": ("normalized", "degrees"),
}


@dataclass
class ExperimentConfig:
    # dataset
    dataset: str = "synthetic"            # synthetic | csv | tdrive
    data_path: str | None = None
    synth_kind: str = "sinusoid"
    synth_vehicles: int = 40
    synth_points_each: int = 420

    # partitioning: each client holds whole vehicles
    partition: str = "by_vehicle"         # by_vehicle, the only partition
    vehicles_per_client: int = 1

    # availability scenario
    scenario: str = "random"
    alpha_dir: float = 1.0
    # weak-signal boxes as [lat_min, lat_max, lon_min, lon_max] in degrees
    weak_areas: list[list[float]] = field(default_factory=list)
    p_low: float = 0.2
    p_high: float = 0.9
    datasize_percentile: float = 90.0
    p_company: float = 0.95
    p_private: float = 0.3
    constant_p: float = 1.0
    reveal_slice_points: int | None = None  # None -> batch_size * seq_len

    # federation
    n_clients: int = 40
    rounds: int = 240
    sample_ratio: float = 0.10
    epochs: int = 1
    eta0: float = 0.001
    eta_decay: float = 1.0
    budget: int | None = 20
    p_offline: float = 0.2
    p_recover: float = 0.1
    decentral_freq: float = 0.5
    chi: int = 3
    offline_train_every_round: bool = False
    aggregate_by_datasize: bool = False

    # compensators
    alpha0: float = 2.0
    delta_alpha: float | None = None      # None -> alpha reaches 1 mid-run
    beta0: float = 1.5
    delta_beta: float = 0.05
    gamma: float = 1.2

    # algorithm
    variant: str = "feddecab"
    selection: str | None = None          # None -> variant preset
    prox_mu: float = 0.01

    # model
    hidden: int = 32
    seq_len: int = 6
    batch_size: int = 16

    # evaluation / reproducibility
    rmse_units: str = "normalized"        # normalized | degrees
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        hints = typing.get_type_hints(type(self))
        for f in fields(self):
            value, rule = getattr(self, f.name), _RANGES.get(f.name)
            if not _matches_type(value, hints[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if value is not None and rule is not None and value not in rule:
                allowed = rule if isinstance(rule, _Interval) else f"one of {rule}"
                raise ConfigError(f"{f.name} must be {allowed}, got {value!r}")
        if self.dataset != "synthetic" and not self.data_path:
            raise ConfigError(f"dataset {self.dataset!r} requires data_path")
        if self.p_low > self.p_high:
            raise ConfigError(f"p_low must be <= p_high, got {self.p_low} and {self.p_high}")
        # the schedule is monotone, so its last round holds its extreme rate
        try:
            eta_last = self.eta_at(self.rounds)
        except OverflowError:
            eta_last = math.inf
        if not 0.0 < eta_last < math.inf:
            raise ConfigError(
                f"eta0={self.eta0} and eta_decay={self.eta_decay} give a learning rate "
                f"of {eta_last} in round {self.rounds}; it must stay positive and finite"
            )
        for box in self.weak_areas:
            if len(box) != 4 or not (box[0] < box[1] and box[2] < box[3]):
                raise ConfigError(
                    "each box of weak_areas must be [lat_min, lat_max, lon_min, lon_max] "
                    f"with each min below its max, got {box}"
                )

    # resolved knobs -------------------------------------------------------

    @property
    def k_selected(self) -> int:
        return max(1, round(self.sample_ratio * self.n_clients))

    @property
    def slice_points(self) -> int:
        if self.reveal_slice_points is not None:
            return self.reveal_slice_points
        return self.batch_size * self.seq_len

    @property
    def alpha_step(self) -> float:
        if self.delta_alpha is not None:
            return self.delta_alpha
        # reach the linear phase halfway through the run
        return 2.0 * max(self.alpha0 - 1.0, 0.0) / self.rounds

    @property
    def selection_mode(self) -> str:
        if self.selection is not None:
            return self.selection
        return _VARIANT_FLAGS[self.variant][0]

    @property
    def proximal_mu(self) -> float:
        return self.prox_mu if _VARIANT_FLAGS[self.variant][2] else 0.0

    def is_decentral_round(self, t: int) -> bool:
        """Peer rounds run every ceil(1/f)-th round of a variant with them; f=0 is never."""
        if not (_VARIANT_FLAGS[self.variant][1] and self.decentral_freq > 0.0):
            return False
        period = 1.0 / self.decentral_freq  # inf for a subnormal f: no peer round
        return period <= t and t % math.ceil(period) == 0

    def eta_at(self, t: int) -> float:
        return self.eta0 * self.eta_decay ** (t - 1)

    # serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with Path(path).open(encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw)


def _matches_type(value, hint) -> bool:
    """Whether a config value fits its field annotation. JSON booleans are
    not numbers, an int is accepted where a float is expected, and a float
    must be finite (a NaN would reach summary.json as invalid JSON), as must
    an int in its place."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_matches_type(value, arg) for arg in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_matches_type(v, item) for v in value)
    return isinstance(value, hint)
