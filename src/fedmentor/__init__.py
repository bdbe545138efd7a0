"""Federated LoRA fine-tuning simulator with domain-aware DP noise.

Submodules:
    linalg      dense float64 matrices and reproducible random streams
    lora        adapter pairs, layer classification, wire format
    dp          Gaussian privatization, utility gate, budget decay
    data        synthetic domain-shifted datasets
    trainer     frozen backbone, analytic adapter gradients, local SGD
    federation  the round loop: broadcast/train/privatize/aggregate/gate/decay
    metrics     utility proxies and fairness spread statistics
    config      run configuration and experiment assembly
    cli         command-line entry point
"""
from .linalg import Matrix, Rng

__version__ = "0.1.0"

__all__ = ["Matrix", "Rng", "__version__"]
