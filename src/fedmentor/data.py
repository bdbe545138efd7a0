"""Synthetic per-client datasets with controlled domain shift.

Each domain draws features from a standard Gaussian and labels them by a
linear boundary. The shift between domains comes from rotating the boundary
relative to the feature axes (the rotation acts on the plane of the first
two coordinates) and from giving each domain its own boundary normal, so the
joint distributions P_d(x, y) genuinely differ across domains while each
domain on its own stays linearly separable (up to the configured label
noise). With zero label noise the generating boundary itself classifies a
domain perfectly, which the learning acceptance checks rely on.

``domain_specs`` is the one recipe for a domain's spec. A stock domain (the
paper's Dreaddit / IRF / MultiWD corpora) is scaled from its corpus size and
rotated by its ``DEFAULT_ROTATIONS`` angle; any other name is a custom domain,
scaled from ``CUSTOM_CORPUS_SIZE`` and unrotated.

Train and validation splits are generated from disjoint derived rng streams,
so they never overlap and either split can be regenerated independently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .linalg import Rng

__all__ = [
    "DomainSpec", "DomainOverride", "Dataset", "make_domain", "domain_specs",
    "DEFAULT_DOMAIN_SIZES", "DEFAULT_ROTATIONS", "CUSTOM_CORPUS_SIZE",
]

# Per-domain corpus sizes the stock domains are scaled from.
DEFAULT_DOMAIN_SIZES: dict[str, int] = {"Dreaddit": 3553, "IRF": 3522, "MultiWD": 3281}

# Distinct boundary rotations (radians). Kept small so the three domains
# remain jointly learnable by one global model while still being non-IID.
DEFAULT_ROTATIONS: dict[str, float] = {"Dreaddit": 0.0, "IRF": 0.15, "MultiWD": 0.3}

# The corpus size a custom domain is scaled from, about the stock sizes' mean.
CUSTOM_CORPUS_SIZE = 3452

VALIDATION_FRACTION = 0.1


@dataclass(frozen=True)
class DomainOverride:
    """Values that replace a domain's generated ones; ``None`` keeps the recipe's."""

    n_train: int | None = None
    n_val: int | None = None
    rotation_angle: float | None = None
    label_noise: float | None = None


@dataclass(frozen=True)
class DomainSpec:
    """Generator parameters for one client domain."""

    domain: str
    n_train: int
    n_val: int
    input_dim: int
    true_weights: tuple[float, ...]
    rotation_angle: float = 0.0
    label_noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "true_weights", tuple(map(float, self.true_weights)))
        if self.n_train < 1 or self.n_val < 1:
            raise ValueError(
                f"n_train and n_val must be >= 1, got {self.n_train}/{self.n_val}"
            )
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.true_weights) != self.input_dim:
            raise ValueError(
                f"true_weights has {len(self.true_weights)} entries, expected {self.input_dim}"
            )
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError(f"label_noise must be in [0, 0.5), got {self.label_noise}")
        if self.input_dim < 2 and self.rotation_angle != 0.0:
            raise ValueError("rotation_angle requires input_dim >= 2")


@dataclass(frozen=True)
class Dataset:
    """Train/val feature-label arrays for one domain, held as read-only copies.

    Each array is copied once, so the caller's arrays stay writable and no
    later write to them, or to an array they view, reaches the dataset.
    """

    train_x: np.ndarray  # (n_train, input_dim)
    train_y: np.ndarray  # (n_train,) in {0, 1}
    val_x: np.ndarray
    val_y: np.ndarray

    def __post_init__(self):
        for name in ("train_x", "train_y", "val_x", "val_y"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shapes = [getattr(self, n).shape for n in ("train_x", "val_x", "train_y", "val_y")]
        if [len(s) for s in shapes] != [2, 2, 1, 1] or shapes[0][1] != shapes[1][1]:
            raise ValueError(f"need 2-D features of one width and 1-D labels, got {shapes}")
        if self.train_x.shape[0] != self.train_y.shape[0]:
            raise ValueError("train features/labels length mismatch")
        if self.val_x.shape[0] != self.val_y.shape[0]:
            raise ValueError("val features/labels length mismatch")

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @property
    def n_val(self) -> int:
        return self.val_x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]


def _rotation(input_dim: int, angle: float) -> np.ndarray:
    """Rotation of the (0, 1) coordinate plane by ``angle``, identity elsewhere."""
    rot = np.eye(input_dim)
    c, s = np.cos(angle), np.sin(angle)
    rot[0, 0], rot[0, 1] = c, -s
    rot[1, 0], rot[1, 1] = s, c
    return rot


def _sample_split(
    spec: DomainSpec, w: np.ndarray, rotation: np.ndarray | None, n: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    z = rng.standard_normal(n, spec.input_dim)
    # An unrotated domain's features are its draws; a rotated one keeps the
    # full gemm, whose summation order its recorded results depend on.
    x = z if rotation is None else z @ rotation.T
    # Labels follow the boundary in pre-rotation coordinates, i.e. the
    # effective boundary normal in feature space is the rotated w — rotating
    # the angle shifts P(y|x) while P(x) stays standard Gaussian.
    y = (z @ w > 0.0).astype(np.int64)
    if spec.label_noise > 0.0:
        flips = rng.uniform(n) < spec.label_noise
        y = np.where(flips, 1 - y, y)
    return x, y


def make_domain(spec: DomainSpec, rng: Rng) -> Dataset:
    """Generate the domain's dataset; deterministic in (spec, rng stream)."""
    w = np.array(spec.true_weights)
    angle = spec.rotation_angle
    rotation = _rotation(spec.input_dim, angle) if angle != 0.0 else None
    train_x, train_y = _sample_split(spec, w, rotation, spec.n_train, rng.derive("train"))
    val_x, val_y = _sample_split(spec, w, rotation, spec.n_val, rng.derive("val"))
    return Dataset(train_x, train_y, val_x, val_y)


def domain_specs(
    rng: Rng, domains: Iterable[str], *, scale: float, input_dim: int,
    label_noise: float = 0.0, overrides: Mapping[str, DomainOverride] | None = None,
) -> list[DomainSpec]:
    """One spec per name in ``domains``, in that order; each depends on its name alone.

    Train sizes are round(scale * corpus size), validation about 10% of that.
    Each boundary normal is a shared base direction plus a small perturbation
    drawn from ``rng`` by the domain's name, keeping the domains correlated
    enough that a single global model can fit them all. A domain's entry in
    ``overrides`` replaces the values it sets.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    overrides = overrides or {}
    unset = DomainOverride()
    drawn = rng.derive("base-weights").standard_normal(1, input_dim)[0]
    # ROADMAP item 10's ⚑ step: a custom domain keeps its own norm and its
    # own n_val rounding, on which recorded results depend; they are the only
    # differences from a stock domain's recipe.
    stock_base = drawn / np.linalg.norm(drawn)
    custom_base = drawn / (drawn**2).sum() ** 0.5
    specs = []
    for name in domains:
        jitter = rng.derive("weights", name).standard_normal(1, input_dim)[0]
        size = DEFAULT_DOMAIN_SIZES.get(name, CUSTOM_CORPUS_SIZE)
        n_train = max(1, round(scale * size))
        if name in DEFAULT_DOMAIN_SIZES:
            n_val = max(1, round(VALIDATION_FRACTION * n_train))
            w = stock_base + 0.05 * jitter
            w /= np.linalg.norm(w)
        else:
            n_val = max(1, round(VALIDATION_FRACTION * scale * size))
            w = custom_base + 0.05 * jitter
            w /= (w**2).sum() ** 0.5
        ov = overrides.get(name, unset)
        angle = DEFAULT_ROTATIONS.get(name, 0.0)
        specs.append(DomainSpec(
            domain=name,
            n_train=n_train if ov.n_train is None else ov.n_train,
            n_val=n_val if ov.n_val is None else ov.n_val,
            input_dim=input_dim,
            true_weights=w.tolist(),
            rotation_angle=angle if ov.rotation_angle is None else ov.rotation_angle,
            label_noise=label_noise if ov.label_noise is None else ov.label_noise,
        ))
    return specs
