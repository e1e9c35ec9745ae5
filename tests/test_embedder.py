"""Tests for the embedding network, its reverse pass, EMA twin, and Adam."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmetric import embedder
from plmetric.embedder import AdamState, EmbedderPair, MLPParams

from oracles import (
    backward_reference,
    central_difference_gradient,
    forward_reference,
    relative_gradient_error,
    same_bits,
)

# The benchmark's eval-large probe: 32 inputs, six tanh layers of 64, 4 outputs.
PROBE_SIZES = (32, 64, 64, 64, 64, 64, 64, 4)


class TestInitialization:
    def test_layer_sizes_round_trip(self):
        params = MLPParams.initialize((8, 16, 4), seed=0)
        assert params.layer_sizes == (8, 16, 4)
        assert params.weights[0].shape == (8, 16)
        assert params.weights[1].shape == (16, 4)

    def test_deterministic_for_seed(self):
        a = MLPParams.initialize((5, 7, 3), seed=42)
        b = MLPParams.initialize((5, 7, 3), seed=42)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_fan_in_bound_and_gain(self):
        params = MLPParams.initialize((100, 50), seed=1, gain=2.0)
        bound = 2.0 / np.sqrt(100)
        w = params.weights[0]
        assert np.max(np.abs(w)) <= bound
        assert np.std(w) > bound / 4.0
        assert np.all(params.biases[0] == 0.0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            MLPParams.initialize((4,), seed=0)
        with pytest.raises(ValueError, match="positive"):
            MLPParams.initialize((4, 0, 2), seed=0)


class TestForward:
    def test_rows_are_unit_norm(self):
        rng = np.random.default_rng(3)
        params = MLPParams.initialize((6, 32, 5), seed=3)
        y = embedder.forward(params, rng.standard_normal((11, 6)))
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)

    def test_identity_like_network_normalizes_input(self):
        # Single linear layer with identity weights: output is x / |x|.
        params = MLPParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([[3.0, 0.0, 4.0]])
        np.testing.assert_allclose(embedder.forward(params, x), [[0.6, 0.0, 0.8]], atol=1e-15)

    def test_input_validation(self):
        params = MLPParams.initialize((4, 3), seed=0)
        with pytest.raises(ValueError, match="input dim"):
            embedder.forward(params, np.zeros((2, 5)))
        with pytest.raises(ValueError, match="non-finite"):
            embedder.forward(params, np.full((1, 4), np.nan))

    def test_collapse_to_origin_raises(self):
        params = MLPParams(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        with pytest.raises(FloatingPointError, match="collapsed"):
            embedder.forward(params, np.ones((1, 2)))


class TestInPlaceLayers:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.one_of(
            st.sampled_from([(5, 3), (32, 4), PROBE_SIZES, (8, 256, 256, 4), (16, 256, 32)]),
            st.lists(st.integers(1, 12), min_size=2, max_size=5).map(tuple),
        ),
        n=st.sampled_from([1, 2, 7, 40]),
        gain=st.sampled_from([1.0, 12.0]),
        zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_passes_equal_the_allocating_loop_bit_for_bit(self, sizes, n, gain, zeros, seed):
        # Gain 12 saturates the tanh layers (slope 1 - tanh^2 rounds to 0);
        # signed zeros in the input and the upstream gradient check that
        # the in-place slope keeps every zero's sign.
        rng = np.random.default_rng(seed)
        params = MLPParams.initialize(sizes, seed=rng.integers(2**32), gain=gain)
        for b in params.biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        x = rng.standard_normal((n, sizes[0]))
        grad_y = rng.standard_normal((n, sizes[-1]))
        if zeros:
            x[rng.random(x.shape) < 0.3] = -0.0
            grad_y[rng.random(grad_y.shape) < 0.3] = -0.0
        x_before = x.copy()
        want_y, want_cache = forward_reference(params, x)
        if np.any(want_cache["norms"] < embedder.NORM_FLOOR):
            with pytest.raises(FloatingPointError, match="collapsed"):
                embedder.forward(params, x)
            return
        assert same_bits(embedder.forward(params, x), want_y)
        y, cache = embedder.forward_cached(params, x)
        assert same_bits(y, want_y) and same_bits(cache["y"], want_y)
        assert same_bits(cache["norms"], want_cache["norms"])
        grads = embedder.backward(params, cache, grad_y)
        want_grads = backward_reference(params, want_cache, grad_y)
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            assert same_bits(got, want)
        # Neither pass writes into the cached layer inputs or the caller's x.
        assert len(cache["layer_inputs"]) == len(want_cache["layer_inputs"])
        for got, want in zip(cache["layer_inputs"], want_cache["layer_inputs"]):
            assert same_bits(got, want)
        assert same_bits(x, x_before)

    def test_forward_holds_two_activations_and_no_cache(self):
        # 2,400 x 32 points through the probe: one (2400, 64) activation is
        # 1.17 MiB, so the layer's input and output fit in 3 MiB, while
        # keeping every layer's input (as the training pass does) takes
        # more than 8 MiB.
        params = MLPParams.initialize(PROBE_SIZES, seed=1000, gain=10.0)
        x = np.random.default_rng(0).standard_normal((2400, 32))
        embedder.forward(params, x)
        tracemalloc.start()
        try:
            y = embedder.forward(params, x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(y, np.ndarray) and y.shape == (2400, 4)
        assert peak < 3 * 2**20
        # Nothing but the embedding outlives the call.
        assert held < y.nbytes + 2**16


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = MLPParams.initialize((5, 8, 4), seed=7)
        x = rng.standard_normal((6, 5))
        target = rng.standard_normal((6, 4))

        def loss_from(params_mod):
            y = embedder.forward(params_mod, x)
            return float(np.sum((y - target) ** 2))

        y, cache = embedder.forward_cached(params, x)
        grads = embedder.backward(params, cache, 2.0 * (y - target))
        tensors = params.tensors()
        for t_idx in range(len(tensors)):
            def value(tensor, t_idx=t_idx):
                mod = params.copy()
                mod.tensors()[t_idx][...] = tensor
                return loss_from(mod)

            numeric = central_difference_gradient(value, tensors[t_idx].copy())
            assert relative_gradient_error(grads[t_idx], numeric) < 1e-6

    def test_normalization_jacobian_kills_radial_component(self):
        # Gradient along y itself must vanish after the normalization.
        params = MLPParams.initialize((4, 6, 3), seed=9)
        x = np.random.default_rng(9).standard_normal((5, 4))
        y, cache = embedder.forward_cached(params, x)
        grads = embedder.backward(params, cache, y.copy())
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_gradient_order_matches_tensors(self):
        params = MLPParams.initialize((3, 4, 2), seed=1)
        x = np.ones((2, 3))
        y, cache = embedder.forward_cached(params, x)
        grads = embedder.backward(params, cache, np.ones_like(y))
        assert len(grads) == len(params.tensors())
        for g, t in zip(grads, params.tensors()):
            assert g.shape == t.shape


class TestEmbedderPair:
    def test_initial_twins_are_identical(self):
        pair = EmbedderPair.initialize((4, 8, 3), seed=5)
        for a, b in zip(pair.trained.tensors(), pair.averaged.tensors()):
            assert np.array_equal(a, b)

    def test_ema_update_formula(self):
        pair = EmbedderPair.initialize((3, 4), seed=2, momentum=0.9)
        old = [t.copy() for t in pair.averaged.tensors()]
        for t in pair.trained.tensors():
            t += 1.0
        pair.ema_update()
        for avg, prev, cur in zip(pair.averaged.tensors(), old, pair.trained.tensors()):
            np.testing.assert_allclose(avg, 0.9 * prev + 0.1 * cur, atol=1e-15)

    def test_momentum_one_freezes_twin(self):
        pair = EmbedderPair.initialize((3, 4), seed=2, momentum=1.0)
        frozen = [t.copy() for t in pair.averaged.tensors()]
        for t in pair.trained.tensors():
            t += 5.0
        pair.ema_update()
        for avg, prev in zip(pair.averaged.tensors(), frozen):
            assert np.array_equal(avg, prev)

    def test_momentum_validation(self):
        with pytest.raises(ValueError, match="momentum"):
            EmbedderPair.initialize((3, 4), seed=0, momentum=1.5)


class TestAdam:
    def test_single_step_matches_reference_formula(self):
        tensor = np.array([1.0, -2.0])
        grad = np.array([0.5, 0.25])
        state = AdamState.for_tensors([tensor], lr=0.1)
        embedder.adam_step(state, [tensor], [grad])
        # After one step the bias-corrected update is lr * g / (|g| + eps).
        expected = np.array([1.0, -2.0]) - 0.1 * grad / (np.abs(grad) + 1e-8)
        np.testing.assert_allclose(tensor, expected, atol=1e-12)

    def test_converges_on_quadratic(self):
        tensor = np.array([5.0, -3.0, 2.0])
        state = AdamState.for_tensors([tensor], lr=0.05)
        for _ in range(2000):
            embedder.adam_step(state, [tensor], [2.0 * tensor])
        np.testing.assert_allclose(tensor, 0.0, atol=1e-4)

    def test_state_shapes_validated(self):
        tensor = np.zeros(3)
        state = AdamState.for_tensors([tensor], lr=0.1)
        with pytest.raises(ValueError, match="optimizer state"):
            embedder.adam_step(state, [tensor, tensor], [tensor, tensor])

    def test_zero_gradient_leaves_parameters_unchanged(self):
        tensor = np.array([1.0, 2.0])
        state = AdamState.for_tensors([tensor], lr=0.1)
        embedder.adam_step(state, [tensor], [np.zeros(2)])
        assert np.array_equal(tensor, [1.0, 2.0])
