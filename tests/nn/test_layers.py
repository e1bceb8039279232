"""Tests for the layer zoo."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Embedding,
    FeedForward,
    Identity,
    LayerNorm,
    Linear,
    ResidualMLP,
    Tensor,
)
from repro.nn.gradcheck import check_gradient
from tests.tape_oracle import tape


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, np.random.default_rng(0))
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_affine_values(self):
        layer = Linear(2, 2, np.random.default_rng(0))
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_gradcheck_through_layer(self):
        layer = Linear(3, 2, np.random.default_rng(1))
        ok, err = check_gradient(
            lambda t: (layer(t) ** 2).sum(), np.random.default_rng(2).normal(size=(4, 3))
        )
        assert ok, err


class TestLayerNorm:
    def test_normalises_rows(self):
        layer = LayerNorm(6)
        x = np.random.default_rng(3).normal(2.0, 5.0, size=(4, 6))
        out = layer(Tensor(x)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradient(self):
        layer = LayerNorm(4)
        ok, err = check_gradient(
            lambda t: (layer(t) ** 2).sum(),
            np.random.default_rng(4).normal(size=(3, 4)),
        )
        assert ok, err


class TestMLP:
    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4], np.random.default_rng(0))

    def test_forward_shape(self):
        mlp = MLP([4, 8, 8, 2], np.random.default_rng(0))
        assert mlp(Tensor(np.zeros((5, 4)))).shape == (5, 2)

    def test_final_activation_flag(self):
        mlp = MLP([2, 2], np.random.default_rng(0), final_activation=True)
        out = mlp(Tensor(np.random.default_rng(1).normal(size=(20, 2)))).data
        assert (out >= 0).all()  # ReLU applied at the output


class TestResidualMLP:
    def test_identity_at_init(self):
        layer = ResidualMLP(6, [12], np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 6))
        assert np.allclose(layer(Tensor(x)).data, x)

    def test_gate_opens(self):
        layer = ResidualMLP(4, [8], np.random.default_rng(0))
        layer.gate.data[:] = 1.0
        x = np.random.default_rng(2).normal(size=(3, 4))
        assert not np.allclose(layer(Tensor(x)).data, x)

    def test_gradient_reaches_inner_weights(self):
        layer = ResidualMLP(4, [8], np.random.default_rng(0))
        layer.gate.data[:] = 0.5
        out = layer(Tensor(np.random.default_rng(3).normal(size=(2, 4)))).sum()
        out.backward()
        inner_weight = layer.inner.parameters()[0]
        assert inner_weight.grad is not None
        assert np.abs(inner_weight.grad).sum() > 0


class TestFeedForwardEmbeddingIdentity:
    def test_ffn_shape_preserved(self):
        ffn = FeedForward(5, 9, np.random.default_rng(0))
        assert ffn(Tensor(np.zeros((3, 5)))).shape == (3, 5)

    def test_embedding_lookup(self):
        emb = Embedding(10, 4, np.random.default_rng(0))
        out = emb(np.array([1, 1, 7]))
        assert out.shape == (3, 4)
        assert np.allclose(out.data[0], out.data[1])

    def test_embedding_gradient_accumulates_for_repeats(self):
        emb = Embedding(5, 3, np.random.default_rng(0))
        emb(np.array([2, 2])).sum().backward()
        assert np.allclose(emb.weight.grad[2], 2.0)

    def test_identity(self):
        x = Tensor(np.arange(4.0))
        assert Identity()(x) is x


class TestFusedStackParity:
    """MLP / ResidualMLP single-node stack against the layers' tape."""

    def test_mlp_fused_matches_reference(self):
        mlp = MLP([4, 8, 8, 3], np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(7, 4))

        x_ref = Tensor(x.copy(), requires_grad=True)
        with tape():
            reference = mlp(x_ref)
            reference.sum().backward()
        ref_grads = [p.grad.copy() for p in mlp.parameters()]
        mlp.zero_grad()
        x_stack = Tensor(x.copy(), requires_grad=True)
        out = mlp(x_stack)
        out.sum().backward()

        assert np.array_equal(out.data, reference.data)
        np.testing.assert_allclose(x_stack.grad, x_ref.grad, rtol=0, atol=1e-12)
        for ref_grad, param in zip(ref_grads, mlp.parameters()):
            np.testing.assert_allclose(param.grad, ref_grad, rtol=1e-12, atol=1e-14)

    def test_mlp_with_dropout_keeps_reference_path(self):
        # Dropout draws from the module RNG; a stack node would change the
        # draw order contract, so a stack with dropout runs its layers.
        def build():
            return MLP([4, 8, 2], np.random.default_rng(7), dropout=0.5,
                       final_activation=True)

        x = np.random.default_rng(8).normal(size=(5, 4))
        reference = build()
        with tape():
            expected = reference(Tensor(x)).data
        mlp = build()
        assert not mlp._stacked
        assert np.array_equal(mlp(Tensor(x)).data, expected)

    def test_residual_mlp_fused_matches_reference(self):
        block = ResidualMLP(5, [10], np.random.default_rng(9))
        block.gate.data[:] = 0.7
        x = np.random.default_rng(10).normal(size=(6, 5))

        x_ref = Tensor(x.copy(), requires_grad=True)
        with tape():
            reference = block(x_ref)
            reference.sum().backward()
        ref_gate = block.gate.grad.copy()
        ref_grads = [p.grad.copy() for p in block.inner.parameters()]
        block.zero_grad()
        x_stack = Tensor(x.copy(), requires_grad=True)
        out = block(x_stack)
        out.sum().backward()

        assert np.array_equal(out.data, reference.data)
        np.testing.assert_allclose(x_stack.grad, x_ref.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block.gate.grad, ref_gate, rtol=1e-12, atol=1e-14)
        for ref_grad, param in zip(ref_grads, block.inner.parameters()):
            np.testing.assert_allclose(param.grad, ref_grad, rtol=1e-12, atol=1e-14)

    def test_fused_gradcheck(self):
        mlp = MLP([3, 6, 2], np.random.default_rng(11))
        x = np.random.default_rng(12).normal(size=(4, 3))
        ok, err = check_gradient(lambda t: (mlp(t) * mlp(t)).sum(), x)
        assert ok, f"stacked MLP gradcheck failed: {err}"
