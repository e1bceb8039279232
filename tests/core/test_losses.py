"""Tests for the LightLT loss functions (Eqns. 12-16, Proposition 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.losses import (
    LightLTCriterion,
    LossConfig,
    center_loss,
    ranking_loss,
    triplet_loss,
)
from repro.nn import Tensor
from repro.nn.gradcheck import check_gradient
from tests.tape_oracle import tape


def clustered_embeddings(seed: int = 0, per_class: int = 8, classes: int = 3, dim: int = 5):
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(classes, dim)) * 4.0
    labels = np.repeat(np.arange(classes), per_class)
    points = prototypes[labels] + rng.normal(scale=0.3, size=(len(labels), dim))
    return points, labels, prototypes


class TestCenterLoss:
    def test_zero_when_on_prototypes(self):
        _, labels, prototypes = clustered_embeddings()
        loss = center_loss(Tensor(prototypes[labels]), labels, Tensor(prototypes))
        assert loss.item() < 1e-5

    def test_grows_with_distance(self):
        points, labels, prototypes = clustered_embeddings()
        near = center_loss(Tensor(points), labels, Tensor(prototypes)).item()
        far = center_loss(Tensor(points + 5.0), labels, Tensor(prototypes)).item()
        assert far > near

    def test_l1_variant(self):
        points, labels, prototypes = clustered_embeddings()
        loss = center_loss(Tensor(points), labels, Tensor(prototypes), p=1)
        assert loss.item() > 0

    def test_invalid_p(self):
        points, labels, prototypes = clustered_embeddings()
        with pytest.raises(ValueError):
            center_loss(Tensor(points), labels, Tensor(prototypes), p=3)

    def test_gradcheck(self):
        points, labels, prototypes = clustered_embeddings(per_class=3)
        protos = Tensor(prototypes)
        ok, err = check_gradient(
            lambda t: center_loss(t, labels, protos), points
        )
        assert ok, err


class TestRankingLoss:
    def test_lower_when_correctly_clustered(self):
        points, labels, prototypes = clustered_embeddings()
        good = ranking_loss(Tensor(points), labels, Tensor(prototypes)).item()
        wrong_labels = (labels + 1) % 3
        bad = ranking_loss(Tensor(points), wrong_labels, Tensor(prototypes)).item()
        assert good < bad

    def test_invalid_tau(self):
        points, labels, prototypes = clustered_embeddings()
        with pytest.raises(ValueError):
            ranking_loss(Tensor(points), labels, Tensor(prototypes), tau=0.0)

    def test_gradcheck_wrt_embeddings(self):
        points, labels, prototypes = clustered_embeddings(per_class=3)
        protos = Tensor(prototypes)
        ok, err = check_gradient(
            lambda t: ranking_loss(t, labels, protos, tau=1.5), points
        )
        assert ok, err

    def test_gradcheck_wrt_prototypes(self):
        points, labels, prototypes = clustered_embeddings(per_class=3)
        emb = Tensor(points)
        ok, err = check_gradient(
            lambda t: ranking_loss(emb, labels, t), prototypes
        )
        assert ok, err


class TestTripletAndProposition1:
    def test_triplet_zero_for_perfectly_separated(self):
        points, labels, _ = clustered_embeddings(per_class=4)
        loss = triplet_loss(Tensor(points), labels, margin=0.0)
        assert loss.item() < 0.5

    def test_triplet_positive_when_mixed(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(12, 4))
        labels = np.array([0, 1] * 6)
        assert triplet_loss(Tensor(points), labels, margin=1.0).item() > 0

    def test_triplet_degenerate_batches(self):
        # Single class -> no negatives -> loss 0.
        points = np.random.default_rng(1).normal(size=(5, 3))
        assert triplet_loss(Tensor(points), np.zeros(5, dtype=int)).item() == 0.0

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_property_center_plus_ranking_tracks_triplet(self, seed):
        # Proposition 1: L_c + L_r approximately upper-bounds the triplet
        # loss (margin 0, tau=1). We verify the practical reading: whenever
        # the triplet loss is large (bad clustering), the combined loss is
        # at least as large.
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(12, 4)) * 2.0
        labels = rng.integers(0, 3, size=12)
        if len(np.unique(labels)) < 2:
            return
        prototypes = np.stack(
            [
                points[labels == c].mean(axis=0) if (labels == c).any() else np.zeros(4)
                for c in range(3)
            ]
        )
        combined = (
            center_loss(Tensor(points), labels, Tensor(prototypes)).item()
            + ranking_loss(Tensor(points), labels, Tensor(prototypes), tau=1.0).item()
        )
        triplet = triplet_loss(Tensor(points), labels, margin=0.0).item()
        assert combined >= triplet - 1.0  # approximate bound, §III-D slack


class TestCriterion:
    def test_breakdown_contains_all_terms(self, tiny_dataset):
        counts = np.bincount(tiny_dataset.train.labels, minlength=tiny_dataset.num_classes)
        criterion = LightLTCriterion(
            tiny_dataset.num_classes, 4, counts, LossConfig(), rng=0
        )
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(10, tiny_dataset.num_classes)))
        quantized = Tensor(rng.normal(size=(10, 4)))
        embedding = Tensor(rng.normal(size=(10, 4)))
        labels = rng.integers(0, tiny_dataset.num_classes, size=10)
        breakdown = criterion(logits, quantized, labels, embedding=embedding)
        values = breakdown.to_floats()
        assert set(values) == {
            "total",
            "classification",
            "center",
            "ranking",
            "reconstruction",
        }
        assert values["total"] > 0

    def test_terms_can_be_disabled(self):
        config = LossConfig(use_center=False, use_ranking=False, beta=0.0)
        criterion = LightLTCriterion(3, 4, np.array([5, 3, 2]), config, rng=0)
        rng = np.random.default_rng(1)
        breakdown = criterion(
            Tensor(rng.normal(size=(6, 3))),
            Tensor(rng.normal(size=(6, 4))),
            rng.integers(0, 3, size=6),
            embedding=Tensor(rng.normal(size=(6, 4))),
        )
        assert breakdown.center is None
        assert breakdown.ranking is None
        assert breakdown.reconstruction is None
        assert breakdown.total.item() == breakdown.classification.item()

    def test_gamma_zero_equals_unweighted(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(6, 3)))
        quantized = Tensor(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 3, size=6)
        flat = LightLTCriterion(
            3, 4, np.array([100, 10, 1]), LossConfig(gamma=0.0, use_center=False, use_ranking=False, beta=0.0), rng=0
        )
        unweighted = LightLTCriterion(
            3, 4, np.array([100, 10, 1]), LossConfig(use_class_weights=False, use_center=False, use_ranking=False, beta=0.0), rng=0
        )
        a = flat(logits, quantized, labels).total.item()
        b = unweighted(logits, quantized, labels).total.item()
        assert a == pytest.approx(b)

    def test_count_length_mismatch(self):
        with pytest.raises(ValueError):
            LightLTCriterion(3, 4, np.array([1, 2]), LossConfig(), rng=0)

    def test_reconstruction_term_penalises_mismatch(self):
        criterion = LightLTCriterion(
            2, 3, np.array([4, 4]), LossConfig(use_center=False, use_ranking=False), rng=0
        )
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(4, 2)))
        labels = np.array([0, 1, 0, 1])
        embedding = Tensor(rng.normal(size=(4, 3)))
        matched = criterion(logits, embedding, labels, embedding=embedding)
        mismatched = criterion(
            logits, embedding + 2.0, labels, embedding=embedding
        )
        assert mismatched.reconstruction.item() > matched.reconstruction.item()


class TestTripletVectorizationRegression:
    """Pin the broadcast triplet cube to the per-anchor loop it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("margin", [0.0, 0.5, 1.0])
    def test_value_matches_loop_reference(self, seed, margin):
        from repro.core.losses import triplet_loss_reference

        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=9)
        points = rng.normal(size=(9, 4))
        fast = triplet_loss(Tensor(points), labels, margin=margin).item()
        loop = triplet_loss_reference(Tensor(points), labels, margin=margin).item()
        assert fast == pytest.approx(loop, rel=1e-12, abs=1e-12)

    def test_gradient_matches_loop_reference(self):
        from repro.core.losses import triplet_loss_reference

        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=8)
        points = rng.normal(size=(8, 4))

        vec = Tensor(points.copy(), requires_grad=True)
        triplet_loss(vec, labels, margin=0.7).backward()
        loop = Tensor(points.copy(), requires_grad=True)
        triplet_loss_reference(loop, labels, margin=0.7).backward()
        np.testing.assert_allclose(vec.grad, loop.grad, rtol=1e-10, atol=1e-12)

    def test_degenerate_batches_agree(self):
        from repro.core.losses import triplet_loss_reference

        points = np.random.default_rng(4).normal(size=(5, 3))
        for labels in (np.zeros(5, dtype=int), np.arange(5)):
            assert (
                triplet_loss(Tensor(points), labels).item()
                == triplet_loss_reference(Tensor(points), labels).item()
                == 0.0
            )

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=6)
        points = rng.normal(size=(6, 3))
        ok, err = check_gradient(
            lambda t: triplet_loss(t, labels, margin=0.5), points
        )
        assert ok, f"vectorized triplet gradcheck failed: {err}"


class TestFusedCriterionParity:
    """The kernel criterion follows the tape's term combination exactly."""

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_total_and_terms_bit_equal(self, beta):
        points, labels, prototypes = clustered_embeddings(seed=6)
        config = LossConfig(beta=beta)
        logits = np.random.default_rng(7).normal(size=(len(labels), 3))
        quantized = points + np.random.default_rng(8).normal(
            scale=0.05, size=points.shape
        )

        def run():
            criterion = LightLTCriterion(
                num_classes=3,
                dim=points.shape[1],
                train_class_counts=np.bincount(labels),
                config=config,
                rng=0,
            )
            quant = Tensor(quantized.copy(), requires_grad=True)
            emb = Tensor(points.copy(), requires_grad=True)
            out = criterion(
                Tensor(logits.copy()), quant, labels, embedding=emb
            )
            out.total.backward()
            return out, quant, criterion

        with tape():
            ref_out, ref_quant, ref_crit = run()
        out, quant, crit = run()
        assert out.total.data == ref_out.total.data
        assert out.classification.data == ref_out.classification.data
        np.testing.assert_allclose(
            quant.grad, ref_quant.grad, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            crit.prototypes.grad,
            ref_crit.prototypes.grad,
            rtol=1e-10,
            atol=1e-12,
        )
