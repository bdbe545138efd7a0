"""Federated LoRA fine-tuning simulator with domain-aware DP noise.

A client's adapters cross module boundaries as one ``lora.AdapterSet``: one
flat, finite, read-only float64 vector in wire order (B then A per layer),
which privatization noises and aggregation averages as a whole. Local SGD in
``trainer`` runs on plain ``(a, b)`` numpy array pairs, views into that
vector. ``linalg.Matrix`` types only the frozen backbone's weights.

Submodules:
    linalg      the validated Matrix weight type and reproducible random streams
    lora        flat adapter vectors and their wire format
    dp          per-segment noise scales, the one Gaussian noise path, gate, decay
    data        synthetic domain-shifted datasets
    trainer     frozen backbone, analytic gradients on plain array pairs, local SGD
    federation  the strategy-free round engine (no file I/O): broadcast, train,
                privatize, aggregate, gate, decay
    metrics     the pooled validation utilities the gate reads
    config      run configuration, strategies, and experiment assembly
    cli         command-line entry point; writes and reads the run directory
                (metrics.csv, adapters.bin, summary.json)
"""
from .linalg import Matrix, Rng

__version__ = "0.1.0"

__all__ = ["Matrix", "Rng", "__version__"]
