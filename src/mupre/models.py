"""Desk-scale testbed network with analytic backpropagation.

One class runs both architectures on scalar inputs: a plain MLP for width
scaling and, given residual multipliers, a residual MLP for depth scaling.
Its one forward pass caches every pre-activation (for coordinate probes);
its backward pass gives exact closed-form gradients, each with the pair of
batch factors whose product it is.
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

# layer name -> dense gradient, and layer name -> (left, right): every
# gradient is the batch product left @ right.T, left d_out x B and right
# d_in x B, so its row and column spaces lie in the spans of the factors
Gradients = dict[str, Matrix]
GradientFactors = dict[str, tuple[Matrix, Matrix]]


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    targets: np.ndarray

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


def _outer(
    grads: Gradients, factors: GradientFactors, name: str, left: Matrix, right: Matrix
) -> None:
    """Record one layer's gradient left @ right.T and its factor pair."""
    grads[name] = left @ right.T
    factors[name] = (left, right)


def _mse(f: Matrix, y: Matrix) -> float:
    return float(np.mean((f - y) ** 2))


def _mse_grad(f: Matrix, y: Matrix) -> Matrix:
    # loss = mean over the batch of (f - y)^2 for a scalar output
    return 2.0 * (f - y) / f.shape[1]


class MlpModel:
    """One testbed network on scalar inputs, plain or residual.

    Plain (no residual multipliers): x_0 = xi; h_l = W_l x_{l-1};
    x_l = phi(h_l); f = W_out x_{L-1}.
    Residual: the first layer is a linear embedding, x_1 = h_1 = W_1 xi; each
    block l named in residual_mults adds to the stream,
    x_l = x_{l-1} + r_l phi(W_l x_{l-1}); the readout is linear in both.
    """

    def __init__(
        self,
        weights: dict[str, Matrix],
        activation: str = "tanh",
        residual_mults: dict[str, float] | None = None,
    ):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        self.activation = activation
        self.layer_names = names = list(self.weights)
        self.residual_mults = dict(residual_mults or {})
        if len(names) < 2:
            raise ValueError("need at least one hidden layer and a readout")
        if self.residual_mults and set(self.residual_mults) != set(names[1:-1]):
            raise ValueError(
                f"residual multipliers {sorted(self.residual_mults)} must name exactly "
                f"the blocks between embedding and readout, {names[1:-1]}"
            )
        prev = 1
        for name in names:
            w = self.weights[name]
            if w.ndim != 2:
                raise ValueError(f"layer {name!r}: weights must be matrices")
            if w.shape[1] != prev:
                raise ValueError(
                    f"layer {name!r}: expected fan-in {prev}, got {w.shape[1]}"
                )
            if name in self.residual_mults and w.shape[0] != prev:
                raise ValueError(f"block {name!r} must be square, got {w.shape[0]}x{prev}")
            prev = w.shape[0]
        if prev != 1:
            raise ValueError("readout must produce a scalar output")

    @classmethod
    def build(
        cls,
        manifest: ModelManifest,
        table: dict[str, LayerHyper],
        seed: int,
        activation: str = "tanh",
    ) -> "MlpModel":
        """The manifest's network; its in_residual layers are the blocks."""
        mults = {s.name: table[s.name].residual_mult for s in manifest.layers if s.in_residual}
        return cls(_init_weights(manifest, table, seed), activation, mults)

    def _propagate(self, x0: Matrix) -> tuple[Matrix, dict[str, Matrix], dict[str, Matrix]]:
        """(f, hs, xs) of the 1 x B input row x0; see ForwardCache."""
        *hidden, readout = self.layer_names
        hs: dict[str, Matrix] = {}
        xs: dict[str, Matrix] = {}
        x = x0
        for name in hidden:
            h = self.weights[name] @ x
            if name in self.residual_mults:
                x = x + self.residual_mults[name] * _phi(h, self.activation)
            elif self.residual_mults:  # the embedding is linear
                x = h
            else:
                x = _phi(h, self.activation)
            hs[name], xs[name] = h, x
        f = self.weights[readout] @ x
        hs[readout] = xs[readout] = f
        return f, hs, xs

    def forward(self, batch: Batch) -> tuple[float, ForwardCache]:
        x0 = batch.inputs.reshape(1, -1)
        f, hs, xs = self._propagate(x0)
        loss = _mse(f, batch.targets.reshape(1, -1))
        return loss, ForwardCache(f=f, x0=x0, hs=hs, xs=xs, batch=batch)

    def backward(self, cache: ForwardCache) -> tuple[Gradients, GradientFactors]:
        """(grads, factors): each layer's gradient and its batch factors."""
        if cache is None:
            raise ValueError("backward needs the forward cache")
        *hidden, readout = self.layer_names
        y = cache.batch.targets.reshape(1, -1)
        delta = _mse_grad(cache.f, y)
        grads: Gradients = {}
        factors: GradientFactors = {}
        _outer(grads, factors, readout, delta, cache.xs[hidden[-1]])
        g = self.weights[readout].T @ delta
        for i in range(len(hidden) - 1, -1, -1):
            name = hidden[i]
            below = cache.xs[hidden[i - 1]] if i > 0 else cache.x0
            if name in self.residual_mults:
                d = self.residual_mults[name] * _dphi(cache.hs[name], self.activation) * g
            elif self.residual_mults:  # the embedding is linear
                d = g
            else:
                d = g * _dphi(cache.hs[name], self.activation)
            _outer(grads, factors, name, d, below)
            if i > 0:
                back = self.weights[name].T @ d
                # a block's input also feeds the stream past it
                g = g + back if name in self.residual_mults else back
        return grads, factors


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
    return Batch(inputs=inputs, targets=teacher._propagate(inputs.reshape(1, -1))[0].ravel())
