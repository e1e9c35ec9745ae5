"""Embedding network, momentum twin, and the Adam optimizer.

The embedder is a small fully connected network (tanh hidden layers, linear
output) whose rows are projected onto the unit sphere. Everything runs in
float64 with a hand-written reverse pass, which keeps the whole gradient
chain inspectable and bit-reproducible. Each layer computes its output in
place, so embedding (``forward``) holds at most two activations at a time;
only ``forward_cached``, the training pass, keeps every layer's input for
``backward``.

A second parameter set tracks the trained one by exponential moving average;
similarities are always computed from this slower twin so they act as
constants with respect to the trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg

NORM_FLOOR = 1e-12
# Adam's first and second moment decays and its denominator floor.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class MLPParams:
    """Weights and biases per layer; weights are (fan_in, fan_out)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def initialize(
        cls, layer_sizes: Sequence[int], seed: int | np.random.SeedSequence, gain: float = 1.0
    ) -> "MLPParams":
        """Uniform fan-in init: W ~ U(-gain/sqrt(fan_in), gain/sqrt(fan_in)), b = 0.

        ``layer_sizes`` is the full chain including input and output widths,
        e.g. (32, 256, 32) for one hidden layer.
        """
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        rng = np.random.default_rng(seed)
        weights = []
        biases = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = gain / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def tensors(self) -> list[np.ndarray]:
        """Flat parameter list in a fixed order: W0, b0, W1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "MLPParams":
        return MLPParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Embed rows of x onto the unit sphere, keeping no layer inputs."""
    return _run_layers(params, x, None)[0]


def forward_cached(params: MLPParams, x: np.ndarray):
    """Forward pass that also returns the activations needed for backward.

    Returns:
        (y, cache): y is the (n, d_out) row-normalized embedding; cache holds
        the per-layer inputs, the pre-normalization output's row norms and y.
    """
    layer_inputs: list[np.ndarray] = []
    y, norms = _run_layers(params, x, layer_inputs)
    return y, {"layer_inputs": layer_inputs, "norms": norms, "y": y}


def _run_layers(params: MLPParams, x: np.ndarray, layer_inputs: list | None):
    """The layer loop of both passes: returns (y, row norms before normalization).

    In-place ``z += b`` and ``tanh(z, out=z)`` run the ufuncs of
    ``tanh(h @ w + b)`` on the same operands, so every bit is kept. Each
    layer input is appended to ``layer_inputs`` when a list is given.
    """
    x = linalg.checked_points(x)
    if x.shape[1] != params.weights[0].shape[0]:
        raise ValueError(
            f"input dim {x.shape[1]} does not match network input {params.weights[0].shape[0]}"
        )
    h = x
    last = len(params.weights) - 1
    for idx, (w, b) in enumerate(zip(params.weights, params.biases)):
        if layer_inputs is not None:
            layer_inputs.append(h)
        z = h @ w
        z += b
        if idx != last:
            np.tanh(z, out=z)
        h = z
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms < NORM_FLOOR):
        raise FloatingPointError("embedding collapsed to the origin before normalization")
    h /= norms[:, None]
    return h, norms


def backward(params: MLPParams, cache: dict, grad_y: np.ndarray) -> list[np.ndarray]:
    """Reverse pass; returns gradients aligned with ``params.tensors()``.

    The normalization Jacobian for a row z with y = z/|z| is
    (I - y y^T) / |z|, applied before the affine/tanh chain.
    """
    grad_y = np.asarray(grad_y, dtype=np.float64)
    y = cache["y"]
    norms = cache["norms"]
    inner = np.sum(grad_y * y, axis=1, keepdims=True)
    grad_z = (grad_y - inner * y) / norms[:, None]
    grads: list[np.ndarray] = []
    last = len(params.weights) - 1
    for idx in range(last, -1, -1):
        h_in = cache["layer_inputs"][idx]
        if idx != last:
            # grad_z holds the gradient at this layer's tanh output, cached
            # as the next layer's input; scale it by 1 - tanh^2 in place.
            grad_z *= 1.0 - cache["layer_inputs"][idx + 1] ** 2
        grads.append(np.sum(grad_z, axis=0))
        grads.append(h_in.T @ grad_z)
        grad_z = grad_z @ params.weights[idx].T
    grads.reverse()
    return grads


@dataclass
class EmbedderPair:
    """Trained parameters plus their exponential-moving-average twin."""

    trained: MLPParams
    averaged: MLPParams
    momentum: float = 0.999

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")
        if self.trained.layer_sizes != self.averaged.layer_sizes:
            raise ValueError("trained and averaged networks must share an architecture")

    @classmethod
    def initialize(
        cls, layer_sizes: Sequence[int], seed: int | np.random.SeedSequence,
        momentum: float = 0.999, gain: float = 1.0,
    ) -> "EmbedderPair":
        trained = MLPParams.initialize(layer_sizes, seed, gain)
        return cls(trained, trained.copy(), momentum)

    def ema_update(self) -> None:
        """averaged <- momentum * averaged + (1 - momentum) * trained."""
        g = self.momentum
        for avg, cur in zip(self.averaged.tensors(), self.trained.tensors()):
            avg *= g
            avg += (1.0 - g) * cur


@dataclass
class AdamState:
    """Adam with bias correction over a fixed list of parameter tensors."""

    lr: float
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_tensors(cls, tensors: Sequence[np.ndarray], lr: float) -> "AdamState":
        state = cls(lr=lr)
        state.m = [np.zeros_like(t) for t in tensors]
        state.v = [np.zeros_like(t) for t in tensors]
        return state


def adam_step(state: AdamState, tensors: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
    """One in-place Adam update across the tensor list."""
    if len(tensors) != len(state.m) or len(grads) != len(state.m):
        raise ValueError("tensor/gradient lists do not match the optimizer state")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for tensor, grad, m, v in zip(tensors, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad**2
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        tensor -= state.lr * update
