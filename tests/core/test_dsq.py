"""Tests for the DSQ module (Eqn. 2 topology, ablation switches)."""

import numpy as np
import pytest

from repro.core.dsq import DSQ
from repro.core.model import LightLTConfig
from repro.core.warmstart import residual_kmeans_codebooks
from repro.nn import Tensor
from tests.tape_oracle import tape


def make_dsq(seed: int = 0, **kwargs) -> DSQ:
    defaults = dict(num_codebooks=3, num_codewords=8, dim=6, rng=seed)
    defaults.update(kwargs)
    return DSQ(**defaults)


def warm_dsq(features: np.ndarray, **kwargs) -> DSQ:
    dsq = make_dsq(**kwargs)
    books = residual_kmeans_codebooks(
        features, dsq.num_codebooks, dsq.num_codewords, rng=0
    )
    for level, parameter in enumerate(dsq.codebooks.main_codebooks):
        parameter.data = books[level].copy()
    return dsq


class TestForward:
    def test_output_shapes(self):
        dsq = make_dsq()
        out = dsq(Tensor(np.random.default_rng(0).normal(size=(10, 6))))
        assert out.codes.shape == (10, 3)
        assert out.reconstruction.shape == (10, 6)
        assert len(out.level_outputs) == 3
        assert len(out.soft_assignments) == 3

    def test_reconstruction_is_sum_of_levels(self):
        dsq = make_dsq()
        out = dsq(Tensor(np.random.default_rng(1).normal(size=(5, 6))))
        summed = sum(level.data for level in out.level_outputs)
        assert np.allclose(out.reconstruction.data, summed)

    def test_codes_within_range(self):
        dsq = make_dsq()
        codes = dsq.encode(np.random.default_rng(2).normal(size=(20, 6)))
        assert codes.min() >= 0 and codes.max() < 8

    def test_invalid_topology(self):
        with pytest.raises(ValueError):
            make_dsq(topology="ring")


class TestEncodingConsistency:
    def test_encode_matches_materialized_nearest_residual(self):
        # The DSQ's own hard path must agree with external residual
        # nearest-codeword encoding over its materialized codebooks —
        # this is what makes the QuantizedIndex exact at inference time.
        from repro.retrieval.adc import encode_nearest

        rng = np.random.default_rng(3)
        features = rng.normal(size=(50, 6))
        dsq = warm_dsq(features)
        internal = dsq.encode(features)
        external = encode_nearest(features, dsq.materialized_codebooks())
        assert np.array_equal(internal, external)

    def test_reconstruct_roundtrip(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(50, 6))
        dsq = warm_dsq(features)
        recon = dsq.reconstruct(features)
        assert recon.shape == features.shape
        assert dsq.reconstruction_error(features) == pytest.approx(
            ((features - recon) ** 2).mean()
        )

    def test_more_codebooks_reduce_error(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(200, 6))
        errors = []
        for m in (1, 2, 4):
            dsq = warm_dsq(features, num_codebooks=m)
            errors.append(dsq.reconstruction_error(features))
        assert errors[0] >= errors[1] >= errors[2]


class TestTopologies:
    def test_residual_beats_independent_reconstruction(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(200, 6))
        residual = warm_dsq(features, topology="residual")
        independent = warm_dsq(features, topology="independent")
        assert residual.reconstruction_error(features) <= independent.reconstruction_error(
            features
        )

    def test_independent_levels_see_same_input(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(30, 6))
        dsq = warm_dsq(features, topology="independent")
        # With identical codebooks per level, independent topology repeats
        # the same code at every level.
        first_book = dsq.codebooks.main_codebooks[0].data.copy()
        for parameter in dsq.codebooks.main_codebooks:
            parameter.data = first_book.copy()
        codes = dsq.encode(features)
        assert np.array_equal(codes[:, 0], codes[:, 1])
        assert np.array_equal(codes[:, 0], codes[:, 2])


class TestGradients:
    def test_backward_reaches_all_main_codebooks(self):
        dsq = make_dsq(use_codebook_skip=True)
        out = dsq(Tensor(np.random.default_rng(8).normal(size=(12, 6))))
        (out.reconstruction**2).sum().backward()
        for parameter in dsq.codebooks.main_codebooks:
            assert parameter.grad is not None

    def test_backward_reaches_input(self):
        dsq = make_dsq()
        x = Tensor(np.random.default_rng(9).normal(size=(4, 6)), requires_grad=True)
        (dsq(x).reconstruction ** 2).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0


class TestFusedKernelParity:
    """The batched single-node kernel against the per-codebook tape loop."""

    @pytest.mark.parametrize("topology", ["residual", "independent"])
    @pytest.mark.parametrize("similarity", ["neg_l2", "dot"])
    @pytest.mark.parametrize("use_codebook_skip", [True, False])
    def test_outputs_bit_equal(self, topology, similarity, use_codebook_skip):
        dsq = make_dsq(
            topology=topology,
            similarity=similarity,
            use_codebook_skip=use_codebook_skip,
            temperature=0.5,
        )
        x = np.random.default_rng(20).normal(size=(9, 6))
        with tape():
            out_ref = dsq(Tensor(x))
        out = dsq(Tensor(x))
        assert np.array_equal(out.codes, out_ref.codes)
        assert np.array_equal(out.reconstruction.data, out_ref.reconstruction.data)
        for k in range(dsq.num_codebooks):
            assert np.array_equal(
                out.soft_assignments[k].data,
                out_ref.soft_assignments[k].data,
            ), f"soft assignment mismatch at level {k}"
            assert np.array_equal(
                out.level_outputs[k].data,
                out_ref.level_outputs[k].data,
            ), f"level output mismatch at level {k}"

    def test_single_sample_batch(self):
        dsq = make_dsq()
        x = np.random.default_rng(21).normal(size=(1, 6))
        with tape():
            out_ref = dsq(Tensor(x))
        out = dsq(Tensor(x))
        assert np.array_equal(out.codes, out_ref.codes)
        assert np.array_equal(out.reconstruction.data, out_ref.reconstruction.data)

    def test_similarity_without_a_kernel_is_refused(self):
        # Cosine has no DSQ kernel, so no DSQ (and no model config) takes it.
        with pytest.raises(ValueError, match="similarity"):
            make_dsq(similarity="cosine")
        with pytest.raises(ValueError, match="similarity"):
            LightLTConfig(input_dim=6, num_classes=3, similarity="cosine")

    def test_scratch_reuse_across_training_rounds(self):
        # The kernel reuses persistent scratch buffers between steps; a
        # second forward/backward round must match a fresh module's first
        # round exactly (no stale-state leakage).
        x1 = np.random.default_rng(23).normal(size=(6, 6))
        x2 = np.random.default_rng(24).normal(size=(6, 6))

        def round_trip(dsq, data):
            t = Tensor(data.copy(), requires_grad=True)
            out = dsq(t)
            out.reconstruction.sum().backward()
            grads = {
                name: p.grad.copy() for name, p in dsq.named_parameters()
            }
            dsq.zero_grad()
            return out.reconstruction.data.copy(), t.grad.copy(), grads

        # Second round on the reused-scratch module vs first round on a
        # fresh one: same weights (same seed), same data.
        reused = make_dsq()
        round_trip(reused, x1)
        recon_2, input_grad_2, grads_2 = round_trip(reused, x2)

        fresh = make_dsq()
        recon_f, input_grad_f, grads_f = round_trip(fresh, x2)

        assert np.array_equal(recon_2, recon_f)
        np.testing.assert_array_equal(input_grad_2, input_grad_f)
        for name, grad in grads_f.items():
            np.testing.assert_array_equal(grads_2[name], grad)
