"""Matrix-preconditioned optimizers, width/depth transfer rules, and a
verification harness built around closed-form oracles.

Submodules, each importing only those listed above it:
  scaling  per-layer learning-rate / epsilon / init / weight-decay multipliers,
           block tiling and the testbed manifests
  config   the optimizer and sweep config dataclasses and their option tuples
  linalg   dense kernels (eigendecomposition, orthogonalization, power iteration)
  optim    optimizer update rules, grafting, blocking, normalization
  models   the scalar-input testbed network, plain or residual, with analytic gradients
  harness  coordinate checks, sweeps, rank scans, oracles, compute multipliers
  cli      command-line entry points; imports harness only when an experiment runs

scaling and config are pure Python; linalg, optim, models and harness import
NumPy. `mupre plan` and config validation load only the pure-Python layer.
"""

__version__ = "0.1.0"
