"""Synthetic per-client datasets with controlled domain shift.

Each domain draws features from a standard Gaussian and labels them by a
linear boundary. The shift between domains comes from rotating the boundary
relative to the feature axes (the rotation acts on the plane of the first
two coordinates) and from giving each domain its own boundary normal, so the
joint distributions P_d(x, y) genuinely differ across domains while each
domain on its own stays linearly separable (up to the configured label
noise). With zero label noise the generating boundary itself classifies a
domain perfectly, which the learning acceptance checks rely on.

Train and validation splits are generated from disjoint derived rng streams,
so they never overlap and either split can be regenerated independently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Rng

__all__ = [
    "DomainSpec",
    "Dataset",
    "make_domain",
    "default_federation_specs",
    "DEFAULT_DOMAIN_SIZES",
    "DEFAULT_ROTATIONS",
]

# Per-domain corpus sizes the default federation is scaled from.
DEFAULT_DOMAIN_SIZES: dict[str, int] = {"Dreaddit": 3553, "IRF": 3522, "MultiWD": 3281}

# Distinct boundary rotations (radians). Kept small so the three domains
# remain jointly learnable by one global model while still being non-IID.
DEFAULT_ROTATIONS: dict[str, float] = {"Dreaddit": 0.0, "IRF": 0.15, "MultiWD": 0.3}

VALIDATION_FRACTION = 0.1


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


def default_federation_specs(
    rng: Rng,
    scale: float = 1.0,
    input_dim: int = 8,
    label_noise: float = 0.0,
) -> list[DomainSpec]:
    """The three-domain federation: Dreaddit / IRF / MultiWD.

    Train sizes are round(scale * corpus size) per domain, validation is 10%
    of that. Each domain gets a distinct rotation angle and its own boundary
    normal: a shared base direction plus a small per-domain perturbation
    drawn from ``rng``, keeping the domains correlated enough that a single
    global model can fit all three.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    base = rng.derive("base-weights").standard_normal(1, input_dim)[0]
    base /= np.linalg.norm(base)
    specs = []
    for name, size in DEFAULT_DOMAIN_SIZES.items():
        n_train = max(1, round(scale * size))
        n_val = max(1, round(VALIDATION_FRACTION * n_train))
        jitter = rng.derive("weights", name).standard_normal(1, input_dim)[0]
        w = base + 0.05 * jitter
        w /= np.linalg.norm(w)
        specs.append(
            DomainSpec(
                domain=name,
                n_train=n_train,
                n_val=n_val,
                input_dim=input_dim,
                true_weights=tuple(w),
                rotation_angle=DEFAULT_ROTATIONS[name],
                label_noise=label_noise,
            )
        )
    return specs

