"""Tests for the LightLT model wrapper."""

import numpy as np
import pytest

from repro.core.model import LightLT, LightLTConfig
from repro.nn import Tensor


def make_model(dim: int = 12, classes: int = 6, **overrides) -> LightLT:
    config = LightLTConfig(
        input_dim=dim,
        num_classes=classes,
        embed_dim=dim,
        hidden_dims=(16,),
        num_codebooks=3,
        num_codewords=8,
        **overrides,
    )
    return LightLT(config, rng=0)


class TestConfig:
    def test_code_bits(self):
        config = LightLTConfig(input_dim=8, num_classes=4, num_codebooks=4, num_codewords=256)
        assert config.code_bits == 32.0

    def test_auto_backbone_residual_when_dims_match(self):
        model = make_model()
        assert type(model.backbone).__name__ == "ResidualMLP"

    def test_auto_backbone_mlp_when_dims_differ(self):
        config = LightLTConfig(input_dim=10, num_classes=3, embed_dim=6)
        model = LightLT(config, rng=0)
        assert type(model.backbone).__name__ == "MLP"

    def test_explicit_residual_with_mismatched_dims_raises(self):
        config = LightLTConfig(input_dim=10, num_classes=3, embed_dim=6, backbone="residual")
        with pytest.raises(ValueError):
            LightLT(config, rng=0)

    def test_unknown_backbone(self):
        config = LightLTConfig(input_dim=6, num_classes=3, embed_dim=6, backbone="cnn")
        with pytest.raises(ValueError):
            LightLT(config, rng=0)


class TestForward:
    def test_output_shapes(self):
        model = make_model()
        out = model(np.random.default_rng(0).normal(size=(7, 12)))
        assert out.embedding.shape == (7, 12)
        assert out.quantized.shape == (7, 12)
        assert out.logits.shape == (7, 6)
        assert out.codes.shape == (7, 3)

    def test_accepts_tensor_input(self):
        model = make_model()
        out = model(Tensor(np.zeros((2, 12))))
        assert out.logits.shape == (2, 6)


class TestInferenceAPI:
    def test_embed_encode_consistency(self):
        model = make_model()
        features = np.random.default_rng(1).normal(size=(30, 12))
        codes = model.encode(features)
        assert codes.shape == (30, 3)
        assert codes.dtype == np.int64
        # Batched processing must match single-shot.
        assert np.array_equal(codes, model.encode(features, batch_size=7))
        assert np.allclose(model.embed(features), model.embed(features, batch_size=7))

    def test_quantized_embeddings_shape(self):
        model = make_model()
        features = np.random.default_rng(2).normal(size=(9, 12))
        assert model.quantized_embeddings(features).shape == (9, 12)

    def test_build_index_and_search(self):
        model = make_model()
        rng = np.random.default_rng(3)
        database = rng.normal(size=(40, 12))
        labels = rng.integers(0, 6, size=40)
        index = model.build_index(database, labels=labels)
        assert len(index) == 40
        ranked = model.search_ranked_labels(rng.normal(size=(5, 12)), index)
        assert ranked.shape == (5, 40)

    def test_index_codes_match_model_encoding(self):
        model = make_model()
        database = np.random.default_rng(4).normal(size=(25, 12))
        index = model.build_index(database)
        assert np.array_equal(index.codes, model.encode(database))

    def test_deterministic_construction(self):
        a = make_model()
        b = make_model()
        x = np.random.default_rng(5).normal(size=(4, 12))
        assert np.allclose(a(x).logits.data, b(x).logits.data)


class TestOneCodebookResolvePerEncode:
    def test_chunked_encode_hashes_once(self, fingerprints):
        model = make_model()
        features = np.random.default_rng(6).normal(size=(4096, 12))
        codes = model.encode(features)  # eight 512-row chunks
        assert len(fingerprints) == 1
        chunked = np.concatenate([
            model.dsq.encode(model.embed(features[lo : lo + 512]))
            for lo in range(0, len(features), 512)
        ])
        assert np.array_equal(codes, chunked)

    def test_build_index_hashes_once(self, fingerprints):
        model = make_model()
        database = np.random.default_rng(7).normal(size=(1500, 12))
        index = model.build_index(database)
        assert len(fingerprints) == 1
        assert np.array_equal(index.codebooks, model.dsq.materialized_codebooks())
        assert np.array_equal(index.codes, model.encode(database))

    def test_bare_dsq_encode_still_checks_every_call(self, fingerprints):
        model = make_model()
        embeddings = np.random.default_rng(8).normal(size=(10, 12))
        model.dsq.encode(embeddings)
        model.dsq.encode(embeddings)
        assert len(fingerprints) == 2

    def test_optimiser_step_between_encodes_is_seen(self):
        model = make_model()
        chain = model.dsq.codebooks
        features = np.random.default_rng(9).normal(size=(600, 12))
        before = model.encode(features)
        assert chain.materializations == 1
        for param in chain.parameters():  # what an optimiser step does: in place
            param.data *= -1.5
        after = model.encode(features)
        assert chain.materializations == 2
        assert not np.array_equal(before, after)
        assert np.array_equal(after, model.dsq.encode(model.embed(features)))

    def test_load_state_dict_between_encodes_is_seen(self):
        model, donor = make_model(), LightLT(make_model().config, rng=1)
        chain = model.dsq.codebooks
        features = np.random.default_rng(10).normal(size=(600, 12))
        model.encode(features)
        model.load_state_dict(donor.state_dict())
        assert np.array_equal(model.encode(features), donor.encode(features))
        assert chain.materializations == 2
