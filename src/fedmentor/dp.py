"""Domain-aware Gaussian privatization of adapter updates.

A client's update is one flat adapter vector (``lora.AdapterSet``), made of
one segment per matrix: B then A for each layer. Every entry of a segment is
perturbed before transmission with independent Gaussian noise of standard
deviation

    sigma = noise_scales(cal, n_layers)[segment] * scale_multiplier / eps_domain

where a segment's noise scale is its layer's depth-band base scale (early
layers get more noise) times the multiplier of its factor, A or B, and eps
is the transmitting domain's current privacy budget. ``NoiseCalibration``
holds the fixed part: the base scales, kind multipliers and gate factor,
whose stock values are written only there. ``BudgetConfig`` holds each
domain's starting eps and the decay schedule. The config's ``calibration``
and ``budgets`` sections load straight into these two types. The server
keeps the round state: ``scale_multiplier``, which the utility gate
multiplies by the gate factor whenever any utility proxy drops below its
threshold, and each domain's current eps, which ``decay_budgets`` shrinks
every round so privacy tightens over time.

This is the only noise path and it never sees a strategy: ``config`` turns
each strategy into a calibration and budgets (no noise is sigma 0).

No clipping bound is enforced by default and no delta-dependent sigma rule
exists, so the (eps, delta) labels are nominal: this module implements the
stated mechanism literally rather than a formally accounted one. An optional
Frobenius clipping norm, applied to each segment on its own before the noise,
is available for experimentation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import Rng
from .lora import AdapterSet

__all__ = [
    "DomainId",
    "UnknownDomainError",
    "NoiseCalibration",
    "BudgetConfig",
    "DEFAULT_BUDGETS",
    "noise_scales",
    "privatize",
    "apply_utility_gate",
    "decay_budgets",
]

# Domains are plain string identifiers (e.g. "IRF"); budgets key on them.
DomainId = str

# Default per-domain budgets; smaller eps = more noise = stronger nominal privacy.
DEFAULT_BUDGETS: dict[DomainId, float] = {"IRF": 0.5, "Dreaddit": 2.0, "MultiWD": 1.5}


class UnknownDomainError(KeyError):
    """A client's domain has no privacy budget."""


@dataclass(frozen=True)
class NoiseCalibration:
    """Noise scales by layer depth and adapter kind; the config's ``calibration``.

    ``early``/``middle``/``late`` are the base scales by depth band, and
    ``multiplier_a``/``multiplier_b`` the factors for A and B matrices. Of L
    layers, indices [0, ceil(L/3)) are early, [ceil(L/3), ceil(2L/3)) middle
    and the rest late: contiguous, ordered bands. ``nominal_delta``, in
    (0, 1), is recorded for reporting but drives nothing.
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
        if not 0.0 < self.nominal_delta < 1.0:  # also rejects NaN
            raise ValueError(f"nominal_delta must be in (0, 1), got {self.nominal_delta}")


@dataclass(frozen=True)
class BudgetConfig:
    """Per-domain starting budgets and their decay; the config's ``budgets``.

    ``decay_mode`` selects how the per-round decrement is read:
      * "multiplicative" (default): eps <- eps - decay_rate * eps, i.e. the
        current budget shrinks geometrically and stays positive forever.
      * "linear": eps <- eps - decay_rate * entries[domain], subtracting a
        fixed slice of the starting budget each round.
    Either way budgets never drop below ``floor``.
    """

    entries: Mapping[DomainId, float] = field(default_factory=lambda: dict(DEFAULT_BUDGETS))
    decay_rate: float = 0.1
    floor: float = 0.05
    decay_mode: str = "multiplicative"

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        for domain, eps in self.entries.items():
            if not 0.0 < eps < math.inf:  # also rejects NaN
                raise ValueError(f"entries[{domain!r}] must be finite and > 0, got {eps}")
        if not 0.0 <= self.decay_rate < 1.0:
            raise ValueError(f"decay_rate must be in [0, 1), got {self.decay_rate}")
        if not 0.0 < self.floor < math.inf:
            raise ValueError(f"floor must be finite and > 0, got {self.floor}")
        if self.decay_mode not in ("multiplicative", "linear"):
            raise ValueError(
                f"decay_mode must be 'multiplicative' or 'linear', got {self.decay_mode!r}"
            )


def noise_scales(cal: NoiseCalibration, n_layers: int) -> np.ndarray:
    """Each segment's base scale times kind multiplier, in vector order: B then A per layer."""
    early_end, middle_end = -(-n_layers // 3), -(-2 * n_layers // 3)  # ceil(L/3), ceil(2L/3)
    bases = [
        cal.early if i < early_end else cal.middle if i < middle_end else cal.late
        for i in range(n_layers)
    ]
    kinds = (cal.multiplier_b, cal.multiplier_a)
    return np.array([base * mult for base in bases for mult in kinds])


def privatize(
    adapters: AdapterSet,
    eps: float,
    cal: NoiseCalibration,
    scale_multiplier: float,
    rng: Rng,
) -> AdapterSet:
    """Perturb every adapter matrix with its calibrated Gaussian noise.

    A segment's std is its :func:`noise_scales` entry times
    ``scale_multiplier`` over the budget ``eps``, which must be finite and
    > 0. With ``cal.clip_norm`` set, each matrix is first scaled down to that
    Frobenius norm if it exceeds it. The input is never modified; a matrix
    whose std is 0 (with no clipping) comes out exactly as it went in. Noise
    is drawn in vector order, B before A per layer, so a fixed rng stream
    gives a fixed result.
    """
    if not 0.0 < eps < math.inf:  # an infinite eps would silently drop the noise
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    stds = (noise_scales(cal, len(adapters.shapes)) * scale_multiplier / eps).tolist()
    vec = np.array(adapters.vec)
    sizes = adapters.segment_sizes
    # One draw covers the segments whose std is nonzero, in vector order, which
    # equals drawing matrix by matrix; a segment with std 0 keeps its bits, as
    # adding 0.0 would turn -0.0 into +0.0.
    count = sum(size for std, size in zip(stds, sizes) if std != 0.0)
    noise = rng.standard_normal(count) if count else None
    start = drawn = 0
    for std, size in zip(stds, sizes):
        segment = vec[start : start + size]
        start += size
        if cal.clip_norm is not None:
            norm = float(np.sqrt(np.sum(segment * segment)))
            if norm > cal.clip_norm:
                segment *= cal.clip_norm / norm
        if std != 0.0:
            segment += std * noise[drawn : drawn + size]
            drawn += size
    return AdapterSet(adapters.shapes, vec)


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


def decay_budgets(
    schedule: BudgetConfig, budgets: Mapping[DomainId, float]
) -> dict[DomainId, float]:
    """One round of decay of the current ``budgets``; monotone nonincreasing, floored."""
    decayed = {}
    for domain, eps in budgets.items():
        if schedule.decay_mode == "multiplicative":
            new_eps = eps - schedule.decay_rate * eps
        else:
            new_eps = eps - schedule.decay_rate * schedule.entries[domain]
        # At (or below) the floor the budget freezes; it never increases.
        decayed[domain] = max(schedule.floor, new_eps) if eps > schedule.floor else eps
    return decayed
