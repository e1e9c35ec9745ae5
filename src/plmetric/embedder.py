"""Embedding network, momentum twin, and the Adam optimizer.

The embedder is a small fully connected network (tanh hidden layers, linear
output) whose rows are projected onto the unit sphere. Everything runs in
float64 with a hand-written reverse pass, which keeps the whole gradient
chain inspectable and bit-reproducible.

A second parameter set tracks the trained one by exponential moving average;
similarities are always computed from this slower twin so they act as
constants with respect to the trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

NORM_FLOOR = 1e-12


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
    """Embed rows of x onto the unit sphere."""
    out, _ = forward_cached(params, x)
    return out


def forward_cached(params: MLPParams, x: np.ndarray):
    """Forward pass that also returns the activations needed for backward.

    Returns:
        (y, cache): y is the (n, d_out) row-normalized embedding; cache holds
        the per-layer inputs, the pre-normalization output's row norms and y.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d input batch, got shape {x.shape}")
    if x.shape[1] != params.weights[0].shape[0]:
        raise ValueError(
            f"input dim {x.shape[1]} does not match network input {params.weights[0].shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input batch contains non-finite entries")
    layer_inputs = []
    h = x
    last = len(params.weights) - 1
    for idx, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(h)
        z = h @ w + b
        h = z if idx == last else np.tanh(z)
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms < NORM_FLOOR):
        raise FloatingPointError("embedding collapsed to the origin before normalization")
    y = h / norms[:, None]
    cache = {"layer_inputs": layer_inputs, "norms": norms, "y": y}
    return y, cache


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
            # grad_z currently holds the gradient at this layer's tanh output,
            # which was cached as the next layer's input.
            activated = cache["layer_inputs"][idx + 1]
            grad_z = grad_z * (1.0 - activated**2)
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_tensors(cls, tensors: Sequence[np.ndarray], lr: float, **kwargs) -> "AdamState":
        state = cls(lr=lr, **kwargs)
        state.m = [np.zeros_like(t) for t in tensors]
        state.v = [np.zeros_like(t) for t in tensors]
        return state


def adam_step(state: AdamState, tensors: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
    """One in-place Adam update across the tensor list."""
    if len(tensors) != len(state.m) or len(grads) != len(state.m):
        raise ValueError("tensor/gradient lists do not match the optimizer state")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for tensor, grad, m, v in zip(tensors, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad**2
        update = (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        tensor -= state.lr * update
