"""Distillation of the light query encoder from a trained teacher."""

import dataclasses

import numpy as np
import pytest

from repro.core.trainer import Trainer
from repro.encoding import (
    DistillationConfig,
    DistillationModel,
    LightQueryEncoder,
    default_distill_training_config,
    distill_query_encoder,
)
from repro.experiments import (
    default_loss_config,
    default_model_config,
    default_training_config,
)
from repro.nn import Tensor, no_grad
from repro.obs.bench import load_profile_dataset
from tests.tape_oracle import tape


@pytest.fixture(scope="module")
def teacher_and_dataset():
    """One fast-config teacher on the tiny profile — treat as read-only."""
    dataset = load_profile_dataset("tiny", 0)
    trainer = Trainer(
        default_model_config(dataset),
        default_loss_config(dataset),
        default_training_config(dataset, fast=True),
        seed=0,
    )
    teacher, _, _ = trainer.fit(dataset)
    teacher.eval()
    return teacher, dataset


def short_budget(epochs=25):
    return dataclasses.replace(default_distill_training_config(), epochs=epochs)


class TestDistillationConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            DistillationConfig(mode="hard")
        with pytest.raises(ValueError, match="positive"):
            DistillationConfig(temperature=0.0)
        with pytest.raises(ValueError, match="positive"):
            DistillationConfig(tau=-1.0)
        with pytest.raises(ValueError, match="anchor"):
            DistillationConfig(anchor=-0.5)


class TestDistillationModel:
    def test_dimension_mismatch_rejected(self, teacher_and_dataset):
        teacher, _ = teacher_and_dataset
        with pytest.raises(ValueError, match="input_dim"):
            DistillationModel(
                teacher,
                LightQueryEncoder(
                    teacher.config.input_dim + 1, teacher.config.embed_dim
                ),
            )
        with pytest.raises(ValueError, match="embed_dim"):
            DistillationModel(
                teacher,
                LightQueryEncoder(
                    teacher.config.input_dim, teacher.config.embed_dim + 1
                ),
            )

    def test_forward_slots_carry_teacher_quantities(self, teacher_and_dataset):
        """The LightLT-shaped output contract: embedding is the student's
        (with gradients), quantized is the teacher's continuous embedding,
        logits argmax reproduces the teacher's hard codes."""
        teacher, dataset = teacher_and_dataset
        student = LightQueryEncoder(
            teacher.config.input_dim, teacher.config.embed_dim, rng=0
        )
        wrapper = DistillationModel(teacher, student)
        features = np.asarray(dataset.query.features[:6], dtype=np.float64)
        out = wrapper(features)
        assert np.array_equal(
            out.quantized.data, teacher.embed(features)
        )
        m = teacher.dsq.num_codebooks
        k = teacher.dsq.num_codewords
        scores = out.logits.data.reshape(len(features), m, k)
        assert np.array_equal(scores.argmax(axis=2), out.codes)
        assert np.array_equal(out.embedding.data, student.embed(features))

    def test_frozen_teacher_is_hashed_once_per_fit(
        self, teacher_and_dataset, fingerprints
    ):
        """The wrapper resolves the teacher's codebooks at construction;
        steps score against them without re-hashing its parameters, and get
        what a checked ``assignment_scores`` call returns."""
        teacher, dataset = teacher_and_dataset
        wrapper = DistillationModel(
            teacher,
            LightQueryEncoder(teacher.config.input_dim, teacher.config.embed_dim, rng=0),
        )
        assert len(fingerprints) == 1
        features = np.asarray(dataset.query.features[:8], dtype=np.float64)
        outputs = [wrapper(features) for _ in range(5)]
        assert len(fingerprints) == 1
        scores, codes = teacher.dsq.assignment_scores(teacher.embed(features))
        assert np.array_equal(outputs[-1].logits.data, scores.reshape(len(features), -1))
        assert np.array_equal(outputs[-1].codes, codes)


class TestDistillQueryEncoder:
    def test_kl_fit_converges_and_tracks_teacher(self, teacher_and_dataset):
        teacher, dataset = teacher_and_dataset
        student, history = distill_query_encoder(
            teacher, dataset, training_config=short_budget(), seed=0
        )
        assert len(history.epochs) == 25
        losses = history.series("total")
        assert losses[-1] < losses[0]
        # The distilled projection tracks the teacher far better than an
        # untrained student of the same shape.
        features = np.asarray(dataset.query.features, dtype=np.float64)
        target = teacher.embed(features)
        cold = LightQueryEncoder(
            teacher.config.input_dim, teacher.config.embed_dim, rng=0
        )
        fitted_err = np.linalg.norm(student.embed(features) - target)
        cold_err = np.linalg.norm(cold.embed(features) - target)
        assert fitted_err < 0.5 * cold_err

    def test_contrastive_mode_runs(self, teacher_and_dataset):
        teacher, dataset = teacher_and_dataset
        student, history = distill_query_encoder(
            teacher,
            dataset,
            config=DistillationConfig(mode="contrastive"),
            training_config=short_budget(10),
            seed=0,
        )
        assert len(history.epochs) == 10
        assert np.isfinite(history.series("total")).all()
        assert student.embed(
            np.asarray(dataset.query.features[:2], dtype=np.float64)
        ).shape == (2, teacher.config.embed_dim)

    def test_hidden_student_supported(self, teacher_and_dataset):
        teacher, dataset = teacher_and_dataset
        student, _ = distill_query_encoder(
            teacher, dataset, hidden_dim=16,
            training_config=short_budget(5), seed=0,
        )
        assert student.hidden_dim == 16

    def test_hidden_student_follows_the_tape_oracle(self, teacher_and_dataset):
        """A hidden-layer student trains through the MLP stack node and the
        AdamW arena; the tape oracle's fit lands on the same weights within
        the trainer's trajectory tolerances."""
        teacher, dataset = teacher_and_dataset

        def fit():
            student, history = distill_query_encoder(
                teacher, dataset, hidden_dim=16,
                training_config=short_budget(5), seed=0,
            )
            return student, history.last()["total"]

        with tape():
            reference, ref_loss = fit()
        student, loss = fit()
        assert student.net._stacked
        assert loss == pytest.approx(ref_loss, rel=1e-6)
        ref_state = reference.state_dict()
        for key, value in student.state_dict().items():
            np.testing.assert_allclose(
                value, ref_state[key], rtol=1e-8, atol=1e-10, err_msg=key
            )

    def test_teacher_parameters_frozen(self, teacher_and_dataset):
        """Only the student trains: the teacher's parameters are bitwise
        unchanged by a distillation fit."""
        teacher, dataset = teacher_and_dataset
        before = {
            name: value.copy()
            for name, value in teacher.state_dict().items()
        }
        distill_query_encoder(
            teacher, dataset, training_config=short_budget(5), seed=0
        )
        after = teacher.state_dict()
        assert before.keys() == after.keys()
        for name, value in before.items():
            assert np.array_equal(value, after[name]), name

    def test_teacher_infer_pass_matches_the_eval_mode_tape(self, teacher_and_dataset, monkeypatch):
        """The frozen teacher runs its tape-free ``infer`` and sets no mode
        flag; the distilled weights are byte-equal to a fit whose teacher
        runs the eval-mode tape under ``no_grad``."""
        teacher, dataset = teacher_and_dataset
        features = np.asarray(dataset.query.features[:4], dtype=np.float64)
        teacher.train()
        try:
            student = LightQueryEncoder(teacher.config.input_dim, teacher.config.embed_dim)
            DistillationModel(teacher, student)(features)
            assert all(module.training for module in teacher.modules())
        finally:
            teacher.eval()
        fitted, _ = distill_query_encoder(teacher, dataset, training_config=short_budget(3), seed=4)

        def tape(x):
            teacher.backbone.eval()
            with no_grad():
                return teacher.backbone(Tensor(x)).data

        monkeypatch.setattr(teacher.backbone, "infer", tape)
        taped, _ = distill_query_encoder(teacher, dataset, training_config=short_budget(3), seed=4)
        for name, value in fitted.state_dict().items():
            assert value.tobytes() == taped.state_dict()[name].tobytes(), name

    def test_deterministic_for_fixed_seed(self, teacher_and_dataset):
        teacher, dataset = teacher_and_dataset
        first, _ = distill_query_encoder(
            teacher, dataset, training_config=short_budget(5), seed=3
        )
        second, _ = distill_query_encoder(
            teacher, dataset, training_config=short_budget(5), seed=3
        )
        features = np.asarray(dataset.query.features[:4], dtype=np.float64)
        assert np.array_equal(first.embed(features), second.embed(features))
