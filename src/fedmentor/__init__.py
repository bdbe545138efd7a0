"""Federated LoRA fine-tuning simulator with domain-aware DP noise.

Adapters cross module boundaries as ``lora.AdapterSet`` values built from
``linalg.Matrix``, which is 2-D, finite and read-only by construction; local
SGD in ``trainer`` runs on plain ``(a, b)`` numpy array pairs in between.

Submodules:
    linalg      the validated Matrix boundary type and reproducible random streams
    lora        adapter pairs of Matrix factors, layer classification, wire format
    dp          Gaussian privatization, utility gate, budget decay
    data        synthetic domain-shifted datasets
    trainer     frozen backbone, analytic gradients on plain array pairs, local SGD
    federation  the round loop: broadcast/train/privatize/aggregate/gate/decay
    metrics     utility proxies and fairness spread statistics
    config      run configuration and experiment assembly
    cli         command-line entry point
"""
from .linalg import Matrix, Rng

__version__ = "0.1.0"

__all__ = ["Matrix", "Rng", "__version__"]
