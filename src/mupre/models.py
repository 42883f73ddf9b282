"""Desk-scale testbed networks with analytic backpropagation.

Two architectures: a plain MLP on scalar inputs for width scaling, and a
residual MLP for depth scaling. Both expose forward passes that cache every
pre-activation (for coordinate probes) and exact closed-form gradients.
Training data is synthetic: standard-normal scalars labeled by a fixed
random teacher network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ACTIVATIONS
from .linalg import Matrix
from .scaling import LayerHyper, ModelManifest

TEACHER_WIDTHS = (1, 8, 8, 1)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    targets: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.float64))
        if self.inputs.ndim != 1 or self.inputs.shape != self.targets.shape:
            raise ValueError("inputs and targets must be equal-length vectors")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ForwardCache:
    """Everything the backward pass and the coordinate probes need.

    hs maps layer name to its pre-activation (the readout entry is the
    prediction row itself); xs maps layer name to the features the next
    layer consumes.
    """

    loss: float
    f: Matrix
    x0: Matrix
    hs: dict[str, Matrix]
    xs: dict[str, Matrix]
    batch: Batch


def _phi(h: Matrix, kind: str) -> Matrix:
    if kind == "tanh":
        return np.tanh(h)
    return np.maximum(h, 0.0)


def _dphi(h: Matrix, kind: str) -> Matrix:
    if kind == "tanh":
        y = np.tanh(h)
        return 1.0 - y * y
    return (h > 0.0).astype(np.float64)


def _check_activation(kind: str) -> None:
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


def _mse(f: Matrix, y: Matrix) -> float:
    return float(np.mean((f - y) ** 2))


def _mse_grad(f: Matrix, y: Matrix) -> Matrix:
    # loss = mean over the batch of (f - y)^2 for a scalar output
    return 2.0 * (f - y) / f.shape[1]


class MlpModel:
    """x_0 = xi; h_l = W_l x_{l-1}; x_l = phi(h_l); f = W_out x_{L-1}."""

    def __init__(self, weights: dict[str, Matrix], activation: str = "tanh"):
        _check_activation(activation)
        if len(weights) < 2:
            raise ValueError("need at least one hidden layer and a readout")
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        self.activation = activation
        names = list(self.weights)
        prev = 1
        for name in names:
            w = self.weights[name]
            if w.ndim != 2:
                raise ValueError(f"layer {name!r}: weights must be matrices")
            if w.shape[1] != prev:
                raise ValueError(
                    f"layer {name!r}: expected fan-in {prev}, got {w.shape[1]}"
                )
            prev = w.shape[0]
        if prev != 1:
            raise ValueError("readout must produce a scalar output")
        self.layer_names = names

    @classmethod
    def build(
        cls,
        manifest: ModelManifest,
        table: dict[str, LayerHyper],
        seed: int,
        activation: str = "tanh",
    ) -> "MlpModel":
        return cls(_init_weights(manifest, table, seed), activation)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        x = np.asarray(inputs, dtype=np.float64).reshape(1, -1)
        for name in self.layer_names[:-1]:
            x = _phi(self.weights[name] @ x, self.activation)
        return (self.weights[self.layer_names[-1]] @ x).ravel()

    def forward(self, batch: Batch) -> tuple[float, ForwardCache]:
        x0 = batch.inputs.reshape(1, -1)
        y = batch.targets.reshape(1, -1)
        hs: dict[str, Matrix] = {}
        xs: dict[str, Matrix] = {}
        x = x0
        for name in self.layer_names[:-1]:
            h = self.weights[name] @ x
            x = _phi(h, self.activation)
            hs[name], xs[name] = h, x
        readout = self.layer_names[-1]
        f = self.weights[readout] @ x
        hs[readout] = xs[readout] = f
        loss = _mse(f, y)
        return loss, ForwardCache(loss=loss, f=f, x0=x0, hs=hs, xs=xs, batch=batch)

    def backward(self, cache: ForwardCache) -> dict[str, Matrix]:
        if cache is None:
            raise ValueError("backward needs the forward cache")
        readout = self.layer_names[-1]
        hidden = self.layer_names[:-1]
        y = cache.batch.targets.reshape(1, -1)
        delta = _mse_grad(cache.f, y)
        grads: dict[str, Matrix] = {}
        grads[readout] = delta @ cache.xs[hidden[-1]].T
        g = self.weights[readout].T @ delta
        for i in range(len(hidden) - 1, -1, -1):
            name = hidden[i]
            d = g * _dphi(cache.hs[name], self.activation)
            below = cache.xs[hidden[i - 1]] if i > 0 else cache.x0
            grads[name] = d @ below.T
            if i > 0:
                g = self.weights[name].T @ d
        return grads


class ResMlpModel:
    """Residual stream: x_l = x_{l-1} + r_l phi(W_l x_{l-1}), readout on x_L."""

    def __init__(
        self,
        weights: dict[str, Matrix],
        residual_mults: dict[str, float],
        activation: str = "tanh",
    ):
        _check_activation(activation)
        names = list(weights)
        if len(names) < 3:
            raise ValueError("need embed, at least one block, and readout")
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        self.activation = activation
        self.embed, self.readout = names[0], names[-1]
        self.block_names = names[1:-1]
        self.layer_names = names
        self.residual_mults = dict(residual_mults)
        d = self.weights[self.embed].shape[0]
        if self.weights[self.embed].shape[1] != 1:
            raise ValueError("embedding consumes a scalar input")
        for name in self.block_names:
            if self.weights[name].shape != (d, d):
                raise ValueError(f"block {name!r} must be {d}x{d}")
            if name not in self.residual_mults:
                raise ValueError(f"block {name!r} missing a residual multiplier")
        if self.weights[self.readout].shape != (1, d):
            raise ValueError("readout must map the stream to a scalar")

    @classmethod
    def build(
        cls,
        manifest: ModelManifest,
        table: dict[str, LayerHyper],
        seed: int,
        activation: str = "tanh",
    ) -> "ResMlpModel":
        mults = {
            spec.name: table[spec.name].residual_mult
            for spec in manifest.layers
            if spec.in_residual
        }
        return cls(_init_weights(manifest, table, seed), mults, activation)

    def forward(self, batch: Batch) -> tuple[float, ForwardCache]:
        x0 = batch.inputs.reshape(1, -1)
        y = batch.targets.reshape(1, -1)
        hs: dict[str, Matrix] = {}
        xs: dict[str, Matrix] = {}
        x = self.weights[self.embed] @ x0
        hs[self.embed] = xs[self.embed] = x
        for name in self.block_names:
            h = self.weights[name] @ x
            x = x + self.residual_mults[name] * _phi(h, self.activation)
            hs[name], xs[name] = h, x
        f = self.weights[self.readout] @ x
        hs[self.readout] = xs[self.readout] = f
        loss = _mse(f, y)
        return loss, ForwardCache(loss=loss, f=f, x0=x0, hs=hs, xs=xs, batch=batch)

    def backward(self, cache: ForwardCache) -> dict[str, Matrix]:
        if cache is None:
            raise ValueError("backward needs the forward cache")
        y = cache.batch.targets.reshape(1, -1)
        delta = _mse_grad(cache.f, y)
        grads: dict[str, Matrix] = {}
        grads[self.readout] = delta @ cache.xs[self.block_names[-1] if self.block_names else self.embed].T
        g = self.weights[self.readout].T @ delta
        for i in range(len(self.block_names) - 1, -1, -1):
            name = self.block_names[i]
            stream_in = cache.xs[self.block_names[i - 1]] if i > 0 else cache.xs[self.embed]
            d = self.residual_mults[name] * _dphi(cache.hs[name], self.activation) * g
            grads[name] = d @ stream_in.T
            g = g + self.weights[name].T @ d
        grads[self.embed] = g @ cache.x0.T
        return grads


def _init_weights(
    manifest: ModelManifest, table: dict[str, LayerHyper], seed: int
) -> dict[str, Matrix]:
    rng = np.random.default_rng(seed)
    weights: dict[str, Matrix] = {}
    for spec in manifest.layers:
        sigma = table[spec.name].sigma_init
        weights[spec.name] = sigma * rng.standard_normal((spec.d_out, spec.d_in))
    return weights


def coord_probe(before: ForwardCache, after: ForwardCache, layer: str) -> float:
    """RMS of the feature update at one layer between two caches."""
    if layer not in before.hs or layer not in after.hs:
        raise ValueError(f"layer {layer!r} not present in both caches")
    a, b = before.hs[layer], after.hs[layer]
    if a.shape != b.shape:
        raise ValueError("caches disagree on probe shape")
    return float(np.sqrt(np.mean((b - a) ** 2)))


def make_teacher(seed: int) -> MlpModel:
    """Fixed random tanh MLP that labels the synthetic data."""
    rng = np.random.default_rng(seed)
    weights: dict[str, Matrix] = {}
    dims = list(zip(TEACHER_WIDTHS[1:], TEACHER_WIDTHS[:-1]))
    for i, (d_out, d_in) in enumerate(dims):
        name = "readout" if i == len(dims) - 1 else f"fc{i + 1}"
        weights[name] = rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)
    return MlpModel(weights, activation="tanh")


def synth_batch(seed: int, batch_size: int, teacher: MlpModel) -> Batch:
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal(batch_size)
    return Batch(inputs=inputs, targets=teacher.predict(inputs), seed=seed)
