"""Run configuration: defaults, YAML loading, validation, and assembly.

Every protocol constant has a default, so an empty config file reproduces
the stock setup: three domains sized 0.1x their corpus sizes, budgets
Dreaddit 2.0 / IRF 0.5 / MultiWD 1.5 with 0.1 multiplicative decay, the
stock noise calibration, and the domain-aware strategy. The ``budgets``,
``calibration`` and ``strategy`` sections load straight into the runtime types
``dp.BudgetConfig``, ``dp.NoiseCalibration`` and ``PrivacyStrategy`` (defined
here), which hold their own defaults and validation.

``build_experiment`` resolves the strategy into the server's decay schedule,
noise calibration and gate thresholds, so the round loop never sees it:

    domain_aware       the config's budgets, calibration and thresholds
    uniform            every domain's eps starts at eps_glob
    utility_threshold  every metric's threshold is tau
    static_noise       sigma at every position, both kind multipliers 1.0, every
                       eps 1.0 at decay rate 0, no thresholds, no clip_norm
    off                static_noise with sigma 0: plain FedAvg

A section the strategy replaces (``budgets.entries`` under uniform,
``thresholds`` under utility_threshold, all three sections under static_noise
and off) would be ignored, so setting it to anything but its default is an
error.

Every RunConfig checks itself the same way when it is built, from YAML, a
dict, code or ``dataclasses.replace``: first the loader's walk (``_load``)
types each value by its annotation, then the ranges and cross-field rules
run. A broken rule raises :class:`ConfigError` naming the field. The walk
rejects a bool where a number is due, a non-int where an int is, and any NaN
or infinite float; an int given for a float is stored as a float, from YAML
or code alike. ``PrivacyStrategy``, ``dp.NoiseCalibration`` and
``dp.BudgetConfig`` also check their own values when built, as they are used
alone too: a lone strategy in tests, the dp types in ``federation.ServerState``.
"""
from __future__ import annotations

import collections.abc
import dataclasses
import math
import re
import types
import typing
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Mapping

import yaml

from .data import DEFAULT_DOMAIN_SIZES, DomainSpec, default_federation_specs, make_domain
from .dp import DEFAULT_BUDGETS, BudgetConfig, NoiseCalibration
from .federation import ClientState, ServerState
from .linalg import Rng, single_blas_thread
from .metrics import METRIC_NAMES
from .trainer import BackboneModel, init_adapters

__all__ = [
    "ConfigError",
    "ModelConfig",
    "DomainOverride",
    "DataConfig",
    "STRATEGY_KINDS",
    "PrivacyStrategy",
    "BudgetConfig",
    "RunConfig",
    "Experiment",
    "load_config",
    "config_from_dict",
    "build_experiment",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the field."""


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    input_dim: int = 8
    hidden_dim: int = 16
    rank: int = 4


@dataclass(frozen=True)
class DomainOverride:
    n_train: int | None = None
    n_val: int | None = None
    rotation_angle: float | None = None
    label_noise: float | None = None


@dataclass(frozen=True)
class DataConfig:
    scale: float = 0.1
    label_noise: float = 0.0
    domains: tuple[str, ...] = tuple(sorted(DEFAULT_BUDGETS))
    overrides: Mapping[str, DomainOverride] = field(default_factory=dict)


STRATEGY_KINDS = ("domain_aware", "uniform", "static_noise", "utility_threshold", "off")


@dataclass(frozen=True)
class PrivacyStrategy:
    """Which privatization variant a run uses; ``build_experiment`` maps it."""

    kind: str = "domain_aware"
    eps_glob: float | None = None
    sigma: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; expected one of {STRATEGY_KINDS}")
        # A parameter its kind does not read would be echoed as if it had been applied.
        readers = {"eps_glob": "uniform", "sigma": "static_noise", "tau": "utility_threshold"}
        for name, reader in readers.items():
            if getattr(self, name) is not None and self.kind != reader:
                raise ValueError(f"strategy {self.kind!r} does not read {name}; leave it unset")
        # An unset value reads as NaN, which fails the comparisons as a NaN value does.
        eps_glob = math.nan if self.eps_glob is None else self.eps_glob
        if self.kind == "uniform" and not 0 < eps_glob < math.inf:
            raise ValueError(f"uniform strategy requires eps_glob > 0, finite; got {self.eps_glob}")
        sigma = math.nan if self.sigma is None else self.sigma
        if self.kind == "static_noise" and not 0 <= sigma < math.inf:
            raise ValueError(f"static_noise strategy requires sigma >= 0, finite; got {self.sigma}")
        if self.kind == "utility_threshold" and self.tau is None:
            raise ValueError("utility_threshold strategy requires tau")

    @property
    def per_domain(self) -> bool:
        """True when noise follows the per-domain budgets of the config."""
        return self.kind in ("domain_aware", "utility_threshold")


# The sections build_experiment replaces for each strategy; a value set there
# would be silently ignored, so it is rejected instead.
_REPLACED_SECTIONS = {
    "uniform": ("budgets.entries",),
    "utility_threshold": ("thresholds",),
    "static_noise": ("budgets", "calibration", "thresholds"),
    "off": ("budgets", "calibration", "thresholds"),
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    rounds: int = 8
    local_epochs: int = 2
    learning_rate: float = 0.25
    batch_size: int = 32
    model: ModelConfig = ModelConfig()
    data: DataConfig = DataConfig()
    strategy: PrivacyStrategy = PrivacyStrategy()
    budgets: BudgetConfig = BudgetConfig()
    calibration: NoiseCalibration = NoiseCalibration()
    thresholds: Mapping[str, float] = field(default_factory=lambda: {"accuracy": 0.8})
    output_dir: str = "runs"

    def __post_init__(self):
        # The loader's walk types every value, however this config was built.
        hints = typing.get_type_hints(RunConfig)
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _load(hints[f.name], getattr(self, f.name), f.name))
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        if not self.rounds >= 1:
            raise ConfigError(f"rounds: must be >= 1, got {self.rounds}")
        if not self.local_epochs >= 0:
            raise ConfigError(f"local_epochs: must be >= 0, got {self.local_epochs}")
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate: must be >= 0, got {self.learning_rate}")
        if not self.batch_size >= 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if not self.model.n_layers >= 1:
            raise ConfigError(f"model.n_layers: must be >= 1, got {self.model.n_layers}")
        if not self.model.rank >= 1:
            raise ConfigError(f"model.rank: must be >= 1, got {self.model.rank}")
        if self.model.rank > min(self.model.hidden_dim, self.model.input_dim):
            raise ConfigError(
                f"model.rank: {self.model.rank} exceeds "
                f"min(hidden_dim={self.model.hidden_dim}, input_dim={self.model.input_dim})"
            )
        if not self.data.scale > 0:
            raise ConfigError(f"data.scale: must be > 0, got {self.data.scale}")
        if not 0.0 <= self.data.label_noise < 0.5:
            raise ConfigError(f"data.label_noise: must be in [0, 0.5), got {self.data.label_noise}")
        if not self.data.domains:
            raise ConfigError("data.domains: expected a nonempty list of domain names")
        if len(set(self.data.domains)) != len(self.data.domains):
            raise ConfigError(f"data.domains: duplicate names in {list(self.data.domains)}")
        for name, ov in self.data.overrides.items():
            where = f"data.overrides.{name}"
            for k, size in (("n_train", ov.n_train), ("n_val", ov.n_val)):
                if size is not None and size < 1:
                    raise ConfigError(f"{where}: {k} must be >= 1, got {size}")
            if ov.label_noise is not None and not 0.0 <= ov.label_noise < 0.5:
                raise ConfigError(f"{where}: label_noise must be in [0, 0.5), got {ov.label_noise}")
            if name not in self.data.domains:
                raise ConfigError(f"{where}: domain not in data.domains")
        if self.model.input_dim < 2:
            # A boundary rotation acts on the plane of the first two input coordinates.
            for name in self.data.domains:
                angle = (self.data.overrides.get(name) or DomainOverride()).rotation_angle
                if angle not in (None, 0.0):
                    raise ConfigError(
                        f"data.overrides.{name}.rotation_angle: {angle} needs "
                        f"model.input_dim >= 2, got {self.model.input_dim}"
                    )
                if name in DEFAULT_DOMAIN_SIZES:
                    raise ConfigError(
                        f"model.input_dim: stock domain {name!r} needs input_dim >= 2, got "
                        f"{self.model.input_dim}; the stock domains are built together, and "
                        f"some are rotated"
                    )
        for name in self.thresholds:
            if name not in METRIC_NAMES:
                raise ConfigError(f"thresholds.{name}: unknown metric; expected one of {METRIC_NAMES}")
        if self.strategy.per_domain:
            missing = [d for d in self.data.domains if d not in self.budgets.entries]
            if missing:
                raise ConfigError(
                    f"budgets.entries: missing budgets for domains {missing} "
                    f"required by strategy {self.strategy.kind!r}"
                )
        kind = self.strategy.kind
        if kind in ("static_noise", "off") and self.calibration.clip_norm is not None:
            raise ConfigError(f"calibration.clip_norm: strategy {kind!r} clips nothing")
        for section in _REPLACED_SECTIONS.get(kind, ()):
            if attrgetter(section)(self) != attrgetter(section)(_DEFAULTS):
                raise ConfigError(
                    f"{section}: strategy {kind!r} replaces this section, so it must be left unset"
                )

    def to_dict(self) -> dict:
        """Canonical plain-dict echo; feeding it back reproduces this config."""
        out = asdict(self)
        out["data"]["domains"] = list(self.data.domains)
        out["data"]["overrides"] = {
            name: {k: v for k, v in asdict(ov).items() if v is not None}
            for name, ov in self.data.overrides.items()
        }
        out["strategy"] = {
            k: v for k, v in asdict(self.strategy).items() if v is not None
        }
        out["thresholds"] = dict(self.thresholds)
        return out


def _load(kind, value, path: str):
    """Coerce a raw (YAML-shaped) value to the annotated type ``kind``.

    Handles dataclasses, given as a mapping or an instance of ``kind``
    (missing keys keep their defaults), ``X | None`` (``None`` means unset),
    ``tuple[X, ...]``, ``Mapping[K, V]``, and the scalars int/float/str: a
    bool is no number, and a float is finite and returned as one. Errors
    name ``path``.
    """
    where = path or "config"
    if dataclasses.is_dataclass(kind):
        if isinstance(value, kind):
            value = {f.name: getattr(value, f.name) for f in dataclasses.fields(kind)}
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
        hints = typing.get_type_hints(kind)
        allowed = {f.name for f in dataclasses.fields(kind)}
        unknown = sorted(set(value) - allowed)
        if unknown:
            raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")
        prefix = f"{path}." if path else ""
        kwargs = {k: _load(hints[k], v, prefix + k) for k, v in value.items()}
        try:
            return kind(**kwargs)
        except ConfigError:
            raise  # a RunConfig's own message names the field already
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):  # only ever X | None here
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _load(inner, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        return tuple(_load(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is collections.abc.Mapping:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
        return {
            _load(args[0], k, f"{where} key"): _load(args[1], v, f"{where}.{k}")
            for k, v in value.items()
        }
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{where}: must be finite, got an integer too large for a float"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value!r}")
        return value
    if kind in (int, str) and isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")


_DEFAULTS = RunConfig()


def config_from_dict(raw: Mapping) -> RunConfig:
    """Build a RunConfig, checked as every one is, from a nested mapping of overrides."""
    return _load(RunConfig, raw, "")


class _Loader(yaml.SafeLoader):
    """Safe YAML 1.1 loading that also reads YAML 1.2 floats such as ``1e-5`` and ``1E5``."""


_Loader.add_implicit_resolver(  # YAML 1.1 wants a dot and a signed exponent
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path) -> RunConfig:
    """Parse and check a YAML config file; an empty file yields the stock defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)


@dataclass(frozen=True)
class Experiment:
    """Fully assembled run: the clients and the initial server state (backbone, schedule)."""

    clients: tuple[ClientState, ...]
    server: ServerState


def _domain_specs(cfg: RunConfig, rng: Rng) -> list[DomainSpec]:
    stock = {}
    # Deriving never advances ``rng``, so skipping an unused stock trio keeps every bit.
    if not DEFAULT_DOMAIN_SIZES.keys().isdisjoint(cfg.data.domains):
        stock = {
            s.domain: s
            for s in default_federation_specs(
                rng, scale=cfg.data.scale, input_dim=cfg.model.input_dim,
                label_noise=cfg.data.label_noise,
            )
        }
    # Custom domains: the stock trio's recipe, sized like the mean, around one shared base.
    base = rng.derive("base-weights").standard_normal(1, cfg.model.input_dim)[0]
    base = base / (base**2).sum() ** 0.5
    chosen = []
    for name in cfg.data.domains:
        spec = stock.get(name)
        if spec is None:
            jitter = rng.derive("weights", name).standard_normal(1, cfg.model.input_dim)[0]
            w = base + 0.05 * jitter
            w /= (w**2).sum() ** 0.5
            n_train = max(1, round(cfg.data.scale * 3452))
            n_val = max(1, round(0.1 * cfg.data.scale * 3452))
            weights, angle = w.tolist(), 0.0
        else:
            n_train, n_val = spec.n_train, spec.n_val
            weights, angle = spec.true_weights, spec.rotation_angle
        ov = cfg.data.overrides.get(name) or DomainOverride()
        chosen.append(DomainSpec(
            domain=name,
            n_train=n_train if ov.n_train is None else ov.n_train,
            n_val=n_val if ov.n_val is None else ov.n_val,
            input_dim=cfg.model.input_dim,
            true_weights=weights,
            rotation_angle=angle if ov.rotation_angle is None else ov.rotation_angle,
            label_noise=cfg.data.label_noise if ov.label_noise is None else ov.label_noise,
        ))
    return chosen


def build_experiment(cfg: RunConfig) -> Experiment:
    """Deterministically materialize data, model, clients, and server state.

    Client ids are assigned by sorted domain name, so declaration order in
    the config can never influence results.

    Set-up runs with numpy's OpenBLAS on one thread, as the rounds do in
    ``federation.run_training`` (see ``linalg.single_blas_thread``): on two
    threads a train split's rotation gemm took about 50x longer on a 2-vCPU
    host. The previous thread count is back when this returns or raises.
    """
    with single_blas_thread():
        master = Rng(cfg.seed)
        specs = _domain_specs(cfg, master.derive("specs"))
        specs = sorted(specs, key=lambda s: s.domain)

        datasets = {
            spec.domain: make_domain(spec, master.derive("dataset", spec.domain)) for spec in specs
        }
        backbone = BackboneModel.random(
            master.derive("model"), cfg.model.input_dim, cfg.model.hidden_dim, cfg.model.n_layers
        )
        adapters0 = init_adapters(backbone, cfg.model.rank, master.derive("adapters"))

        clients = tuple(
            ClientState(i, spec.domain, datasets[spec.domain]) for i, spec in enumerate(specs)
        )

        strategy = cfg.strategy
        schedule, calibration, thresholds = cfg.budgets, cfg.calibration, cfg.thresholds
        if strategy.kind == "uniform":
            schedule = replace(schedule, entries={d: strategy.eps_glob for d in cfg.data.domains})
        elif strategy.kind == "utility_threshold":
            thresholds = {m: strategy.tau for m in METRIC_NAMES}
        elif strategy.kind in ("static_noise", "off"):
            sigma = strategy.sigma if strategy.kind == "static_noise" else 0.0
            calibration = NoiseCalibration(sigma, sigma, sigma, multiplier_a=1.0, multiplier_b=1.0)
            schedule = BudgetConfig({d: 1.0 for d in cfg.data.domains}, decay_rate=0.0)
            thresholds = {}

        server = ServerState(
            backbone=backbone,
            global_adapters=adapters0,
            schedule=schedule,
            calibration=calibration,
            thresholds=thresholds,
            learning_rate=cfg.learning_rate,
            local_epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
            round_index=0,
            rng_seed=cfg.seed,
        )
        return Experiment(clients, server)
