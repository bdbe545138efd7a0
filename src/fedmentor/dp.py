"""Domain-aware Gaussian privatization of adapter updates.

A client's update is one flat adapter vector (``lora.AdapterSet``), made of
one segment per matrix: B then A for each layer. Every entry of a segment is
perturbed before transmission with independent Gaussian noise of standard
deviation

    sigma = base_scale(position) * kind_multiplier(kind) * scale_multiplier / eps_domain

where the base scale depends on layer depth (early layers get more noise),
the kind multiplier on whether the matrix is an A or B factor, and eps is the
transmitting domain's privacy budget. ``NoiseCalibration`` holds the fixed
part: the base scales, kind multipliers and gate factor, whose stock values
are written only there. The config's ``calibration`` section loads straight
into it. ``scale_multiplier`` is round state kept by the server: the utility
gate multiplies it by the gate factor whenever any utility proxy drops below
its threshold, and budgets decay every round so privacy tightens over time.

No clipping bound is enforced by default and no delta-dependent sigma rule
exists, so the (eps, delta) labels are nominal: this module implements the
stated mechanism literally rather than a formally accounted one. An optional
Frobenius clipping norm, applied to each segment on its own before the noise,
is available for experimentation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .linalg import Rng
from .lora import AdapterKind, AdapterSet, LayerPosition, classify_layer

__all__ = [
    "DomainId",
    "UnknownDomainError",
    "NoiseCalibration",
    "BudgetTable",
    "DEFAULT_BUDGETS",
    "noise_std",
    "privatize",
    "privatize_static",
    "apply_utility_gate",
    "decay_budget",
]

# Domains are plain string identifiers (e.g. "IRF"); budget tables key on them.
DomainId = str

# Default per-domain budgets; smaller eps = more noise = stronger nominal privacy.
DEFAULT_BUDGETS: dict[DomainId, float] = {"IRF": 0.5, "Dreaddit": 2.0, "MultiWD": 1.5}


class UnknownDomainError(KeyError):
    """A client's domain has no entry in the budget table."""


@dataclass(frozen=True)
class NoiseCalibration:
    """Noise scales by layer position and adapter kind; the config's ``calibration``.

    ``early``/``middle``/``late`` are the base scales by layer depth, and
    ``multiplier_a``/``multiplier_b`` the factors for A and B matrices.
    ``nominal_delta`` is recorded for reporting but drives nothing.
    """

    early: float = 0.01
    middle: float = 0.008
    late: float = 0.005
    multiplier_a: float = 1.2
    multiplier_b: float = 0.8
    gate_factor: float = 0.8
    nominal_delta: float = 1e-5
    clip_norm: float | None = None

    def __post_init__(self):
        for name in ("early", "middle", "late", "multiplier_a", "multiplier_b"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 < self.gate_factor < 1.0:
            raise ValueError(f"gate_factor must be in (0, 1), got {self.gate_factor}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive when set, got {self.clip_norm}")


@dataclass(frozen=True)
class BudgetTable:
    """Per-domain privacy budgets with a decay schedule and a positive floor.

    ``decay_mode`` selects how the per-round decrement is read:
      * "multiplicative" (default): eps <- eps - decay_rate * eps, i.e. the
        current budget shrinks geometrically and stays positive forever.
      * "linear": eps <- eps - decay_rate * initial_eps, subtracting a fixed
        slice of the starting budget each round.
    Either way budgets never drop below ``floor``.
    """

    entries: Mapping[DomainId, float]
    initial: Mapping[DomainId, float]
    decay_rate: float = 0.1
    floor: float = 0.05
    decay_mode: str = "multiplicative"

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        object.__setattr__(self, "initial", dict(self.initial))
        if set(self.entries) != set(self.initial):
            raise ValueError("entries and initial must cover the same domains")
        for domain, eps in self.entries.items():
            if eps <= 0:
                raise ValueError(f"budget for {domain!r} must be > 0, got {eps}")
        if not 0.0 <= self.decay_rate < 1.0:
            raise ValueError(f"decay_rate must be in [0, 1), got {self.decay_rate}")
        if self.floor <= 0:
            raise ValueError(f"floor must be > 0, got {self.floor}")
        if self.decay_mode not in ("multiplicative", "linear"):
            raise ValueError(f"unknown decay_mode {self.decay_mode!r}")

    @classmethod
    def from_initial(
        cls,
        budgets: Mapping[DomainId, float] | None = None,
        decay_rate: float = 0.1,
        floor: float = 0.05,
        decay_mode: str = "multiplicative",
    ) -> "BudgetTable":
        budgets = dict(DEFAULT_BUDGETS if budgets is None else budgets)
        return cls(budgets, dict(budgets), decay_rate, floor, decay_mode)

    @classmethod
    def uniform(cls, domains, eps: float, **kwargs) -> "BudgetTable":
        """One global budget applied to every domain."""
        return cls.from_initial({d: eps for d in domains}, **kwargs)

    def epsilon(self, domain: DomainId) -> float:
        try:
            return self.entries[domain]
        except KeyError:
            raise UnknownDomainError(
                f"domain {domain!r} has no budget; known: {sorted(self.entries)}"
            ) from None


def noise_std(
    position: LayerPosition,
    kind: AdapterKind,
    eps: float,
    cal: NoiseCalibration,
    scale_multiplier: float,
) -> float:
    """Effective Gaussian std for one matrix: base * kind_mult * scale_multiplier / eps."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    base = getattr(cal, position.value)  # the field named after the position
    kind_mult = cal.multiplier_a if kind is AdapterKind.A else cal.multiplier_b
    return base * kind_mult * scale_multiplier / eps


def _noised(adapters: AdapterSet, stds, clip_norm: float | None, rng: Rng) -> AdapterSet:
    """Clip each matrix to ``clip_norm``, then add noise of its std from ``stds``.

    ``stds`` holds one std per matrix in vector order (B then A per layer).
    One draw covers the entries whose std is nonzero, in vector order, which
    equals drawing matrix by matrix; an entry with std 0 keeps its bits, as
    adding 0.0 would turn -0.0 into +0.0.
    """
    vec = np.array(adapters.vec)
    sizes = adapters.segment_sizes
    if clip_norm is not None:
        start = 0
        for size in sizes:
            segment = vec[start : start + size]
            norm = float(np.sqrt(np.sum(segment * segment)))
            if norm > clip_norm:
                segment *= clip_norm / norm
            start += size
    std = np.repeat(stds, sizes)
    noisy = std != 0.0
    count = int(np.count_nonzero(noisy))
    if count:
        vec[noisy] += std[noisy] * rng.standard_normal(count)
    return AdapterSet(adapters.shapes, vec)


def privatize(
    adapters: AdapterSet,
    domain: DomainId,
    budgets: BudgetTable,
    cal: NoiseCalibration,
    scale_multiplier: float,
    rng: Rng,
) -> AdapterSet:
    """Perturb every adapter matrix with its calibrated Gaussian noise.

    Noise std per matrix follows :func:`noise_std` with the layer position
    from :func:`classify_layer` and the domain's current budget. With
    ``cal.clip_norm`` set, each matrix is first scaled down to that Frobenius
    norm if it exceeds it. The input is never modified; with
    ``scale_multiplier == 0`` (and no clipping) the output equals the input
    exactly. Noise is drawn in vector order, B before A per layer, so a fixed
    rng stream gives a fixed result.
    """
    eps = budgets.epsilon(domain)
    n_layers = len(adapters.shapes)
    stds = []
    for i in range(n_layers):
        position = classify_layer(i, n_layers)
        stds += [
            noise_std(position, kind, eps, cal, scale_multiplier)
            for kind in (AdapterKind.B, AdapterKind.A)
        ]
    return _noised(adapters, stds, cal.clip_norm, rng)


def privatize_static(adapters: AdapterSet, sigma: float, rng: Rng) -> AdapterSet:
    """Fixed-std variant: the same sigma for every parameter, no eps division."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return _noised(adapters, [sigma] * len(adapters.segment_sizes), None, rng)


def apply_utility_gate(
    scale_multiplier: float,
    gate_factor: float,
    utilities: Mapping[str, float],
    thresholds: Mapping[str, float],
) -> tuple[float, bool]:
    """Shrink the noise scale multiplier once if any utility fell below its threshold.

    The comparison is strict (utility < threshold) and ``gate_factor`` is
    applied at most once per call no matter how many metrics fail. Raises
    ``KeyError`` if a threshold names a metric absent from ``utilities``.
    """
    missing = [m for m in thresholds if m not in utilities]
    if missing:
        raise KeyError(f"thresholds reference unknown metrics: {missing}")
    triggered = any(utilities[m] < tau for m, tau in thresholds.items())
    if not triggered:
        return scale_multiplier, False
    return scale_multiplier * gate_factor, True


def decay_budget(budgets: BudgetTable) -> BudgetTable:
    """One round of budget decay; monotone nonincreasing, floored."""
    new_entries = {}
    for domain, eps in budgets.entries.items():
        if budgets.decay_mode == "multiplicative":
            decayed = eps - budgets.decay_rate * eps
        else:
            decayed = eps - budgets.decay_rate * budgets.initial[domain]
        # At (or below) the floor the budget freezes; it never increases.
        new_entries[domain] = max(budgets.floor, decayed) if eps > budgets.floor else eps
    return replace(budgets, entries=new_entries)
