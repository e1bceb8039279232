"""The tape-free backbone pass: ``infer``, and the model API built on it.

``Linear`` / ``MLP`` / ``ResidualMLP.infer`` must return the eval-mode tape
forward's bits — the stack node's or the tape oracle's, with dropout layers
in the stack or not — because
``LightLT.embed`` / ``encode`` / ``build_index`` and the light query
encoder now run on it. The tape path below (``eval()``, ``no_grad``, the
same 512-row chunks) is the oracle those surfaces were computed with before
``infer`` existed. They must also leave the model's mode alone: an embed in
the middle of training used to switch every module to eval.
"""

import contextlib

import numpy as np
import pytest

from repro.core.model import LightLT, LightLTConfig
from repro.encoding.light import LightQueryEncoder
from repro.nn import MLP, Linear, ResidualMLP, Tensor, no_grad
from tests.tape_oracle import tape


def tape_eval(module, x, fused=False):
    """The eval-mode graph forward: the production stack node when
    ``fused``, the tape oracle's layer-by-layer pass otherwise."""
    module.eval()
    with no_grad(), (contextlib.nullcontext() if fused else tape()):
        return module(Tensor(x)).data


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def flags(model):
    return [module.training for module in model.modules()]


@pytest.mark.parametrize("rows", [1, 7, 600])
@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
class TestInferIsTheEvalTape:
    def test_mlp(self, rows, fused, dropout):
        rng = np.random.default_rng(rows)
        mlp = MLP([12, 20, 16, 9], rng, dropout=dropout, final_activation=True)
        x = rng.normal(size=(rows, 12))
        assert same_bits(mlp.infer(x), tape_eval(mlp, x, fused))

    def test_residual_mlp(self, rows, fused, dropout):
        rng = np.random.default_rng(rows + 1)
        block = ResidualMLP(10, [24, 8], rng, dropout=dropout)
        block.gate.data[:] = 0.41
        x = rng.normal(size=(rows, 10))
        assert same_bits(block.infer(x), tape_eval(block, x, fused))


def test_linear_infer_with_and_without_bias():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    for bias in (True, False):
        layer = Linear(4, 3, rng, bias=bias)
        if bias:
            layer.bias.data[:] = rng.normal(size=3)
        assert same_bits(layer.infer(x), tape_eval(layer, x))


def tape_embed(model, features, batch_size=512):
    """``LightLT.embed`` as the tape computes it: eval mode, no grad, chunks."""
    model.eval()
    with no_grad(), tape():
        return np.concatenate([
            model.backbone(Tensor(features[lo:lo + batch_size])).data
            for lo in range(0, len(features), batch_size)
        ])


def tape_codes(model, features, batch_size=512):
    codebooks = model.dsq.materialized_codebooks()
    embedded = tape_embed(model, features, batch_size)
    return np.concatenate([
        model.dsq.encode(embedded[lo:lo + batch_size], _stacked=codebooks)
        for lo in range(0, len(features), batch_size)
    ])


T_SHAPE = LightLTConfig(
    input_dim=64, num_classes=20, embed_dim=64, num_codebooks=8, num_codewords=128
)
MLP_SHAPE = LightLTConfig(
    input_dim=24, num_classes=5, embed_dim=16, hidden_dims=(32, 20), dropout=0.25,
    num_codebooks=4, num_codewords=16,
)


@pytest.mark.parametrize("config", [T_SHAPE, MLP_SHAPE], ids=["T-residual", "mlp-dropout"])
class TestModelSurfaces:
    def make(self, config):
        model = LightLT(config, rng=1)
        if hasattr(model.backbone, "gate"):
            model.backbone.gate.data[:] = 0.35  # an open gate: the inner MLP counts
        features = np.random.default_rng(2).normal(size=(1100, config.input_dim))
        return model, features

    def test_embed_and_build_index_codes_are_the_tape_bits(self, config):
        """1 100 rows: two full 512-row chunks and a ragged one, plus one row."""
        model, features = self.make(config)
        assert same_bits(model.embed(features), tape_embed(model, features))
        assert same_bits(model.embed(features[:1]), tape_embed(model, features[:1]))
        want = tape_codes(model, features)
        assert np.array_equal(model.encode(features), want)
        index = model.build_index(features)
        assert np.array_equal(index.codes, want)

    def test_inference_leaves_the_training_flags_alone(self, config):
        model, features = self.make(config)
        model.train()
        model.embed(features[:3])
        model.encode(features[:3])
        model.build_index(features[:40])
        assert all(flags(model))
        model.eval()
        model.embed(features[:3])
        model.encode(features[:3])
        assert not any(flags(model))

    def test_float32_and_empty_input(self, config):
        model, features = self.make(config)
        narrow = features[:9].astype(np.float32)
        assert same_bits(model.embed(narrow), tape_embed(model, narrow))
        assert model.embed(features[:0]).shape == (0, config.embed_dim)
        assert model.encode(features[:0]).shape == (0, config.num_codebooks)


@pytest.mark.parametrize("hidden_dim", [None, 12])
def test_light_encoder_embed_is_its_tape(hidden_dim):
    rng = np.random.default_rng(hidden_dim or 0)
    encoder = LightQueryEncoder(10, 6, hidden_dim=hidden_dim, rng=3)
    x = rng.normal(size=(33, 10))
    assert same_bits(encoder.embed(x), tape_eval(encoder, x))
    assert same_bits(encoder.embed(x[0]), tape_eval(encoder, x[:1])[0])
