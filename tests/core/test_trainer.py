"""Tests for the training loop (Algorithm 1, lines 2-6)."""

import numpy as np
import pytest

from repro.core.losses import LossConfig
from repro.core.model import LightLTConfig
from repro.core.trainer import (
    Trainer,
    TrainingConfig,
    clip_gradients,
    evaluate_map,
    train_lightlt,
    warm_start_prototypes,
)
from repro.nn import Parameter
from repro.retrieval.metrics import mean_average_precision
from repro.retrieval.search import exhaustive_search
from tests.tape_oracle import tape


def quick_training_config(**overrides) -> TrainingConfig:
    defaults = dict(epochs=6, batch_size=32, learning_rate=2e-3)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def model_config_for(dataset) -> LightLTConfig:
    return LightLTConfig(
        input_dim=dataset.dim,
        num_classes=dataset.num_classes,
        embed_dim=dataset.dim,
        hidden_dims=(16,),
        num_codebooks=3,
        num_codewords=8,
    )


class TestTrainingConfigValidation:
    def test_fused_is_a_compatibility_spelling(self):
        assert TrainingConfig(fused=True) == TrainingConfig()
        with pytest.raises(ValueError, match="fused"):
            TrainingConfig(fused=False)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            TrainingConfig(schedule="exponential")

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)


class TestFit:
    def test_loss_decreases(self, tiny_dataset):
        trainer = Trainer(
            model_config_for(tiny_dataset),
            LossConfig(),
            quick_training_config(epochs=8),
            seed=0,
        )
        _, _, history = trainer.fit(tiny_dataset)
        losses = history.series("total")
        assert losses[-1] < losses[0]

    def test_history_contains_all_terms(self, tiny_dataset):
        trainer = Trainer(
            model_config_for(tiny_dataset), LossConfig(), quick_training_config(epochs=2)
        )
        _, _, history = trainer.fit(tiny_dataset)
        assert len(history.epochs) == 2
        assert {"total", "classification", "center", "ranking", "reconstruction"} <= set(
            history.last()
        )

    def test_empty_history_raises(self):
        from repro.core.trainer import TrainingHistory

        with pytest.raises(RuntimeError):
            TrainingHistory().last()

    def test_reproducible_given_seed(self, tiny_dataset):
        def run():
            trainer = Trainer(
                model_config_for(tiny_dataset), LossConfig(), quick_training_config(epochs=2), seed=9
            )
            model, _, _ = trainer.fit(tiny_dataset)
            return model.state_dict()

        a, b = run(), run()
        for key in a:
            assert np.allclose(a[key], b[key]), key

    def test_trainable_params_restriction(self, tiny_dataset):
        trainer = Trainer(
            model_config_for(tiny_dataset), LossConfig(), quick_training_config(epochs=2)
        )
        model, criterion = trainer.build(tiny_dataset)
        backbone_before = model.backbone.state_dict()
        trainer.fit(
            tiny_dataset,
            model=model,
            criterion=criterion,
            trainable_params=model.dsq.parameters(),
        )
        backbone_after = model.backbone.state_dict()
        for key in backbone_before:
            assert np.array_equal(backbone_before[key], backbone_after[key])

    def test_retrieval_beats_chance(self, tiny_dataset):
        model, _ = train_lightlt(
            tiny_dataset,
            model_config_for(tiny_dataset),
            training_config=quick_training_config(epochs=8),
        )
        score = evaluate_map(model, tiny_dataset)
        chance = 1.0 / tiny_dataset.num_classes
        assert score > 2 * chance

    def test_quantized_map_close_to_continuous(self, tiny_dataset):
        model, _ = train_lightlt(
            tiny_dataset,
            model_config_for(tiny_dataset),
            training_config=quick_training_config(epochs=8),
        )
        quantized = evaluate_map(model, tiny_dataset)
        emb_q = model.embed(tiny_dataset.query.features)
        emb_db = model.embed(tiny_dataset.database.features)
        ranked = exhaustive_search(emb_q, emb_db)
        continuous = mean_average_precision(
            tiny_dataset.database.labels[ranked], tiny_dataset.query.labels
        )
        assert quantized > 0.6 * continuous  # compression costs a bounded amount


class TestWarmStartProtoypes:
    def test_prototypes_match_class_means(self, tiny_dataset):
        trainer = Trainer(
            model_config_for(tiny_dataset), LossConfig(), quick_training_config()
        )
        model, criterion = trainer.build(tiny_dataset)
        warm_start_prototypes(model, criterion, tiny_dataset)
        embeddings = model.embed(tiny_dataset.train.features)
        for class_id in range(tiny_dataset.num_classes):
            mask = tiny_dataset.train.labels == class_id
            if mask.any():
                assert np.allclose(
                    criterion.prototypes.data[class_id], embeddings[mask].mean(axis=0)
                )


class TestClipGradients:
    def test_scales_large_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_gradients([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_gradients([p], max_norm=10.0)
        assert np.allclose(p.grad, 0.1)

    def test_ignores_missing_gradients(self):
        p = Parameter(np.zeros(4))
        assert clip_gradients([p], max_norm=1.0) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_norm_zeroes_gradients(self, bad):
        # A NaN/Inf norm must not scale every gradient to NaN — the step is
        # zeroed and the non-finite norm surfaced to the caller instead.
        poisoned = Parameter(np.zeros(4))
        poisoned.grad = np.array([1.0, bad, 2.0, 3.0])
        healthy = Parameter(np.zeros(3))
        healthy.grad = np.full(3, 5.0)
        norm = clip_gradients([poisoned, healthy], max_norm=1.0)
        assert not np.isfinite(norm)
        assert np.array_equal(poisoned.grad, np.zeros(4))
        assert np.array_equal(healthy.grad, np.zeros(3))


class TestFusedTrainingParity:
    def test_fused_session_follows_reference_trajectory(self, tiny_dataset):
        def run():
            trainer = Trainer(
                model_config_for(tiny_dataset),
                LossConfig(),
                quick_training_config(epochs=2),
                seed=0,
            )
            session = trainer.start_session(tiny_dataset, epochs=2)
            while not session.finished:
                report = session.run_epoch()
                assert report.healthy
            return session

        with tape():
            reference = run()
        session = run()

        # Loss values are built from bit-identical kernels; only gradient
        # accumulation order differs from the tape, so the final epoch-mean
        # losses agree to parity tolerance (in practice they come out
        # exactly equal on this profile) and the trained weights stay
        # within accumulated float rounding.
        ref_loss = reference.history.last()["total"]
        assert session.history.last()["total"] == pytest.approx(ref_loss, rel=1e-6)

        ref_state = reference.model.state_dict()
        state = session.model.state_dict()
        assert ref_state.keys() == state.keys()
        for key, value in ref_state.items():
            np.testing.assert_allclose(
                state[key], value, rtol=1e-8, atol=1e-10,
                err_msg=f"parameter {key} diverged",
            )

    def test_prototypes_without_prototype_terms_only_decay(self, tiny_dataset):
        # The CE-only objective (Figs. 5 and 8): no gradient reaches the
        # prototypes, and AdamW steps them with a zero one — decoupled
        # weight decay alone, the same factor for every entry.
        trainer = Trainer(
            model_config_for(tiny_dataset),
            LossConfig(use_center=False, use_ranking=False),
            quick_training_config(epochs=1),
            seed=0,
        )
        session = trainer.start_session(tiny_dataset, epochs=1)
        start = session.criterion.prototypes.data.copy()
        session.run_epoch()
        ratio = session.criterion.prototypes.data / start
        assert 0.0 < ratio.min() and ratio.max() < 1.0
        np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-12)

    def test_fused_session_checkpoint_round_trip(self, tiny_dataset):
        trainer = Trainer(
            model_config_for(tiny_dataset),
            LossConfig(),
            quick_training_config(epochs=3),
            seed=1,
        )
        session = trainer.start_session(tiny_dataset, epochs=3)
        session.run_epoch()
        state = session.capture()

        resumed = trainer.start_session(tiny_dataset, epochs=3)
        resumed.restore(state)
        # The tape oracle resumes the same checkpoint: the state is the
        # same whichever path wrote or reads it.
        oracle = trainer.start_session(tiny_dataset, epochs=3)
        oracle.restore(state)
        while not session.finished:
            session.run_epoch()
        while not resumed.finished:
            resumed.run_epoch()
        with tape():
            while not oracle.finished:
                oracle.run_epoch()

        direct = session.model.state_dict()
        for key, value in resumed.model.state_dict().items():
            np.testing.assert_array_equal(value, direct[key], err_msg=key)
        for key, value in oracle.model.state_dict().items():
            np.testing.assert_allclose(
                direct[key], value, rtol=1e-8, atol=1e-10, err_msg=key
            )
