"""Gradcheck and parity coverage for the fused single-node training ops.

Each fused kernel is validated two ways: numerically (central differences
via :func:`repro.nn.gradcheck.check_gradient`) and against the op-per-op
tape reference it replaces (bit-equal forward values, gradients within
accumulation-order rounding). Edge shapes — a single sample (B=1) and the
minimum codebook width (K=2) — and float32-typed inputs are exercised
explicitly, per the fused-kernel acceptance checklist.
"""

import numpy as np
import pytest

from repro.core.dsq import DSQ
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.fused import (
    fused_center_loss,
    fused_commitment_loss,
    fused_cross_entropy,
    fused_ranking_loss,
    fused_scaled_sum,
    fused_softmax,
    fused_softmax_ste,
)
from repro.nn.gradcheck import check_gradient
from tests.tape_oracle import tape


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestFusedCrossEntropyGradcheck:
    @pytest.mark.parametrize("shape", [(5, 4), (1, 4), (5, 2), (1, 2)])
    def test_unweighted(self, shape):
        n, c = shape
        labels = _rng(1).integers(0, c, size=n)
        logits = _rng(2).normal(size=shape)
        ok, err = check_gradient(lambda t: fused_cross_entropy(t, labels), logits)
        assert ok, f"fused CE gradcheck failed at {shape}: {err}"

    @pytest.mark.parametrize("shape", [(6, 5), (1, 5), (4, 2), (1, 2)])
    def test_class_weighted(self, shape):
        n, c = shape
        labels = _rng(3).integers(0, c, size=n)
        weights = _rng(4).uniform(0.2, 3.0, size=c)
        logits = _rng(5).normal(size=shape)
        ok, err = check_gradient(
            lambda t: fused_cross_entropy(t, labels, weights=weights), logits
        )
        assert ok, f"weighted fused CE gradcheck failed at {shape}: {err}"

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_reference_bitwise(self, weighted):
        labels = _rng(6).integers(0, 7, size=9)
        weights = _rng(7).uniform(0.5, 2.0, size=7) if weighted else None
        data = _rng(8).normal(size=(9, 7))

        reference = Tensor(data.copy(), requires_grad=True)
        ref_loss = F.cross_entropy(reference, labels, weights=weights)
        ref_loss.backward()

        fused = Tensor(data.copy(), requires_grad=True)
        fused_loss = fused_cross_entropy(fused, labels, weights=weights)
        fused_loss.backward()

        assert fused_loss.data == ref_loss.data  # bit-equal forward
        np.testing.assert_allclose(fused.grad, reference.grad, rtol=0, atol=1e-12)


class TestFusedSoftmaxGradcheck:
    @pytest.mark.parametrize("shape", [(4, 6), (1, 2), (3, 1, 2), (2, 4, 5)])
    @pytest.mark.parametrize("temperature", [1.0, 0.25])
    def test_numerical(self, shape, temperature):
        # Scalarize through a fixed projection so every output entry
        # contributes to the checked gradient. 3-D shapes cover the
        # batched (M, B, K) layout the DSQ kernel feeds.
        proj = _rng(9).normal(size=shape)
        logits = _rng(10).normal(size=shape)
        ok, err = check_gradient(
            lambda t: (fused_softmax(t, temperature=temperature) * Tensor(proj)).sum(),
            logits,
        )
        assert ok, f"fused softmax gradcheck failed at {shape}, t={temperature}: {err}"

    def test_matches_reference_bitwise(self):
        data = _rng(11).normal(size=(5, 8))
        assert np.array_equal(
            fused_softmax(Tensor(data), temperature=0.5).data,
            F.softmax(Tensor(data), temperature=0.5).data,
        )


class TestFusedSoftmaxSTE:
    """The STE forward is an exact one-hot; its gradient is the soft path."""

    @pytest.mark.parametrize("shape", [(6, 4), (1, 2), (3, 5, 7), (2, 1, 2)])
    def test_forward_is_argmax_one_hot(self, shape):
        logits = Tensor(_rng(12).normal(size=shape))
        assignment, codes, soft = fused_softmax_ste(logits, temperature=0.7)
        np.testing.assert_array_equal(codes, logits.data.argmax(axis=-1))
        np.testing.assert_array_equal(assignment.data, F.one_hot(codes, shape[-1]))
        np.testing.assert_allclose(soft.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 4), (1, 2), (2, 3, 5)])
    def test_gradient_matches_tape_ste_oracle(self, shape):
        # Oracle: softmax + straight_through on the tape, driven by the
        # same upstream gradient. The fused node must route exactly the
        # tempered-softmax Jacobian (Eqn. 6 semantics).
        data = _rng(13).normal(size=shape)
        upstream = _rng(14).normal(size=shape)

        reference = Tensor(data.copy(), requires_grad=True)
        soft_ref = F.softmax(reference, axis=-1, temperature=0.7)
        hard_ref = F.one_hot(soft_ref.data.argmax(axis=-1), shape[-1])
        (F.straight_through(hard_ref, soft_ref) * Tensor(upstream)).sum().backward()

        fused = Tensor(data.copy(), requires_grad=True)
        assignment, _, _ = fused_softmax_ste(fused, temperature=0.7)
        (assignment * Tensor(upstream)).sum().backward()

        np.testing.assert_allclose(fused.grad, reference.grad, rtol=0, atol=1e-12)


class TestFusedLossGradchecks:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [1, 5])
    def test_center_loss_embeddings(self, p, n):
        labels = _rng(15).integers(0, 3, size=n)
        protos = Tensor(_rng(16).normal(size=(3, 4)))
        emb = _rng(17).normal(size=(n, 4))
        ok, err = check_gradient(
            lambda t: fused_center_loss(t, labels, protos, p=p), emb
        )
        assert ok, f"center loss gradcheck (embeddings, p={p}, n={n}): {err}"

    @pytest.mark.parametrize("p", [1, 2])
    def test_center_loss_prototypes(self, p):
        labels = _rng(18).integers(0, 3, size=6)
        emb = Tensor(_rng(19).normal(size=(6, 4)))
        protos = _rng(20).normal(size=(3, 4))
        ok, err = check_gradient(
            lambda t: fused_center_loss(emb, labels, t, p=p), protos
        )
        assert ok, f"center loss gradcheck (prototypes, p={p}): {err}"

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [1, 6])
    def test_ranking_loss_both_sides(self, p, n):
        labels = _rng(21).integers(0, 4, size=n)
        emb_data = _rng(22).normal(size=(n, 5))
        proto_data = _rng(23).normal(size=(4, 5))
        protos = Tensor(proto_data)
        ok, err = check_gradient(
            lambda t: fused_ranking_loss(t, labels, protos, tau=0.8, p=p), emb_data
        )
        assert ok, f"ranking loss gradcheck (embeddings, p={p}, n={n}): {err}"
        emb = Tensor(emb_data)
        ok, err = check_gradient(
            lambda t: fused_ranking_loss(emb, labels, t, tau=0.8, p=p), proto_data
        )
        assert ok, f"ranking loss gradcheck (prototypes, p={p}, n={n}): {err}"

    @pytest.mark.parametrize("n", [1, 7])
    def test_commitment_loss_matches_detach_split_tape(self, n):
        # Stop-gradients make central differences see both detached terms,
        # so (as with the STE) the oracle is the tape's detach-split form,
        # not numerical differentiation.
        emb_data = _rng(24).normal(size=(n, 4))
        q_data = _rng(25).normal(size=(n, 4))

        emb_ref = Tensor(emb_data.copy(), requires_grad=True)
        q_ref = Tensor(q_data.copy(), requires_grad=True)
        codebook_diff = emb_ref.detach() - q_ref
        codebook_term = (codebook_diff * codebook_diff).sum(axis=1).mean()
        commit_diff = emb_ref - q_ref.detach()
        commit_term = (commit_diff * commit_diff).sum(axis=1).mean()
        ref_loss = codebook_term + commit_term * 0.25
        ref_loss.backward()

        emb_fused = Tensor(emb_data.copy(), requires_grad=True)
        q_fused = Tensor(q_data.copy(), requires_grad=True)
        fused_loss = fused_commitment_loss(emb_fused, q_fused, commitment=0.25)
        fused_loss.backward()

        assert fused_loss.data == ref_loss.data  # bit-equal forward
        np.testing.assert_allclose(emb_fused.grad, emb_ref.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_fused.grad, q_ref.grad, rtol=0, atol=1e-12)

    def test_scaled_sum(self):
        fixed = [Tensor(np.asarray(0.7)), Tensor(np.asarray(-1.3))]
        scales = [1.0, 0.5, 0.25]
        ok, err = check_gradient(
            lambda t: fused_scaled_sum([t.sum(), *fixed], scales), _rng(26).normal(size=4)
        )
        assert ok, f"scaled sum gradcheck: {err}"

    def test_scaled_sum_matches_incremental_bitwise(self):
        values = [Tensor(np.asarray(v)) for v in (1.37, -0.251, 0.993)]
        scales = [1.0, 0.37, 2.5]
        incremental = values[0]
        for term, scale in zip(values[1:], scales[1:]):
            incremental = incremental + term * scale
        assert fused_scaled_sum(values, scales).data == incremental.data


class TestFloat32Inputs:
    """float32-typed inputs are coerced to the float64 substrate losslessly."""

    def test_cross_entropy(self):
        labels = _rng(27).integers(0, 4, size=5)
        data64 = _rng(28).normal(size=(5, 4))
        data32 = data64.astype(np.float32)

        t32 = Tensor(data32, requires_grad=True)
        loss32 = fused_cross_entropy(t32, labels)
        loss32.backward()
        t64 = Tensor(data32.astype(np.float64), requires_grad=True)
        loss64 = fused_cross_entropy(t64, labels)
        loss64.backward()

        assert t32.data.dtype == np.float64
        assert loss32.data == loss64.data
        np.testing.assert_array_equal(t32.grad, t64.grad)

    def test_softmax_ste(self):
        data32 = _rng(29).normal(size=(3, 4, 5)).astype(np.float32)
        t32 = Tensor(data32, requires_grad=True)
        assignment, codes, _ = fused_softmax_ste(t32, temperature=0.5)
        assignment.sum().backward()
        assert assignment.data.dtype == np.float64
        np.testing.assert_array_equal(codes, data32.argmax(axis=-1))
        assert t32.grad is not None and t32.grad.dtype == np.float64


class TestBatchedDSQForward:
    """The fused DSQ kernel against the tape oracle across topologies."""

    @pytest.mark.parametrize("topology", ["residual", "independent"])
    @pytest.mark.parametrize("similarity", ["neg_l2", "dot"])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_gradients_match_reference_tape(self, topology, similarity, batch):
        def build():
            return DSQ(
                num_codebooks=3, num_codewords=5, dim=4, rng=0,
                temperature=0.6, similarity=similarity, topology=topology,
            )

        data = _rng(30).normal(size=(batch, 4))
        upstream = _rng(31).normal(size=(batch, 4))

        reference = build()
        x_ref = Tensor(data.copy(), requires_grad=True)
        with tape():
            out_ref = reference(x_ref)
            (out_ref.reconstruction * Tensor(upstream)).sum().backward()

        fused = build()
        x_fused = Tensor(data.copy(), requires_grad=True)
        out_fused = fused(x_fused)
        (out_fused.reconstruction * Tensor(upstream)).sum().backward()

        np.testing.assert_array_equal(out_fused.codes, out_ref.codes)
        np.testing.assert_array_equal(
            out_fused.reconstruction.data, out_ref.reconstruction.data
        )
        np.testing.assert_allclose(x_fused.grad, x_ref.grad, rtol=0, atol=1e-12)
        ref_params = dict(reference.named_parameters())
        for name, param in fused.named_parameters():
            assert param.grad is not None, name
            np.testing.assert_allclose(
                param.grad, ref_params[name].grad, rtol=1e-10, atol=1e-12,
                err_msg=f"gradient mismatch on {name}",
            )

    def test_soft_path_gradcheck_through_chain(self):
        # Numerical anchor for the chain + scoring path: the tempered
        # softmax of the fused kernel over materialized codebooks is
        # differentiable, so gradcheck the *soft* reconstruction the STE
        # gradient routes through, on the tape (the oracle the fused
        # backward is compared against above).
        dsq = DSQ(num_codebooks=2, num_codewords=3, dim=3, rng=1, temperature=0.8)
        data = _rng(32).normal(size=(2, 3))

        def soft_recon(t):
            books = dsq.codebooks.materialize()
            recon = None
            residual = t
            for book in books:
                scores = residual @ book.T * 2.0
                scores = scores - (residual * residual).sum(axis=1, keepdims=True)
                scores = scores - Tensor((book.data * book.data).sum(axis=1))
                soft = F.softmax(scores, temperature=dsq.temperature)
                level = soft @ book
                recon = level if recon is None else recon + level
                residual = residual - level
            return (recon * recon).sum()

        ok, err = check_gradient(soft_recon, data)
        assert ok, f"soft-path DSQ gradcheck failed: {err}"
