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

# Fields that must be >= 1 when set, and fields that are probabilities.
_COUNTS = (
    "rounds", "k_per_round", "chi", "hidden", "seq_len", "batch_size",
    "synth_vehicles", "synth_points_each", "points_per_client", "vehicles_per_client",
    "reveal_slice_points",
)
_PROBABILITIES = (
    "p_offline", "p_recover", "decentral_freq", "constant_p", "p_company", "p_private",
)


@dataclass
class ExperimentConfig:
    # dataset
    dataset: str = "synthetic"            # synthetic | csv | tdrive
    data_path: str | None = None
    synth_kind: str = "sinusoid"
    synth_vehicles: int = 40
    synth_points_each: int = 420

    # partitioning
    partition: str = "by_vehicle"         # equal | by_vehicle
    points_per_client: int = 2500
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
    k_per_round: int | None = None        # overrides sample_ratio when set
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
    n_in: int = 2
    hidden: int = 32
    n_out: int = 2
    seq_len: int = 6
    batch_size: int = 16

    # evaluation / reproducibility
    holdout_fraction: float = 0.2
    rmse_units: str = "normalized"        # normalized | degrees
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        hints = typing.get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _matches_type(value, hints[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.selection is not None and self.selection not in SELECTION_MODES:
            raise ConfigError(
                f"unknown selection {self.selection!r}, expected one of {SELECTION_MODES}"
            )
        if self.dataset not in ("synthetic", "csv", "tdrive"):
            raise ConfigError(f"unknown dataset source {self.dataset!r}")
        if self.dataset != "synthetic" and not self.data_path:
            raise ConfigError(f"dataset {self.dataset!r} requires data_path")
        if self.partition not in ("equal", "by_vehicle"):
            raise ConfigError(f"unknown partition mode {self.partition!r}")
        if self.n_clients < 2:
            raise ConfigError(f"n_clients must be >= 2, got {self.n_clients}")
        for name in _COUNTS:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ConfigError(f"sample_ratio must be in (0, 1], got {self.sample_ratio}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        for name in _PROBABILITIES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.budget is not None and self.budget < 0:
            raise ConfigError(f"budget must be >= 0 or null, got {self.budget}")
        if self.eta0 <= 0 or self.eta_decay <= 0:
            raise ConfigError("eta0 and eta_decay must be positive")
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
        if self.prox_mu < 0:
            raise ConfigError(f"prox_mu must be >= 0, got {self.prox_mu}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.rmse_units not in ("normalized", "degrees"):
            raise ConfigError(f"unknown rmse_units {self.rmse_units!r}")
        if (self.n_in, self.n_out) != (2, 2):
            raise ConfigError(
                f"n_in and n_out must be 2, a lat/lon pair, got {self.n_in} and {self.n_out}"
            )
        if self.alpha_dir <= 0:
            raise ConfigError(f"alpha_dir must be > 0, got {self.alpha_dir}")
        if not 0.0 <= self.p_low <= self.p_high <= 1.0:
            raise ConfigError(
                f"need 0 <= p_low <= p_high <= 1, got {self.p_low}, {self.p_high}"
            )
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if not 0.0 < self.datasize_percentile < 100.0:
            raise ConfigError(
                f"datasize_percentile must be in (0, 100), got {self.datasize_percentile}"
            )
        if self.synth_kind not in SYNTH_KINDS:
            raise ConfigError(
                f"unknown synth_kind {self.synth_kind!r}, expected one of {SYNTH_KINDS}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for box in self.weak_areas:
            if len(box) != 4 or not (box[0] < box[1] and box[2] < box[3]):
                raise ConfigError(
                    "each weak area must be [lat_min, lat_max, lon_min, lon_max] "
                    f"with each min below its max, got {box}"
                )

    # resolved knobs -------------------------------------------------------

    @property
    def k_selected(self) -> int:
        if self.k_per_round is not None:
            return self.k_per_round
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
    def decentralized_enabled(self) -> bool:
        return _VARIANT_FLAGS[self.variant][1] and self.decentral_freq > 0.0

    @property
    def proximal_mu(self) -> float:
        return self.prox_mu if _VARIANT_FLAGS[self.variant][2] else 0.0

    def decentral_period(self) -> int | None:
        """Peer rounds run every ceil(1/f)-th round; None means never."""
        if not self.decentralized_enabled:
            return None
        return math.ceil(1.0 / self.decentral_freq)

    def is_decentral_round(self, t: int) -> bool:
        period = self.decentral_period()
        return period is not None and t % period == 0

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
            with Path(path).open(encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw)


def _matches_type(value, hint) -> bool:
    """Whether a config value fits its field annotation. JSON booleans are
    not numbers, an int is accepted where a float is expected, and a float
    must be finite (a NaN would reach summary.json as invalid JSON)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_matches_type(value, arg) for arg in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_matches_type(v, item) for v in value)
    return isinstance(value, hint)
