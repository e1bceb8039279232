"""Distilling the light query encoder from a trained LightLT model.

The trick is shape compatibility: :class:`DistillationModel` presents the
teacher/student pair through the exact output contract
``TrainingSession.run_epoch`` expects from ``LightLT`` (``.embedding``,
``.quantized``, ``.logits``), and :class:`DistillationCriterion` consumes
those slots with distillation semantics:

- ``embedding`` — the *student's* projection (the only tensor carrying
  gradients; the teacher runs its tape-free ``infer`` pass);
- ``quantized`` — the teacher's continuous embedding ``f(x)`` — the
  quantity the full query path feeds to ADC search, hence the student's
  anchor-regression target;
- ``logits`` — the teacher's per-level assignment scores flattened to
  ``(n, M·K)``, the soft codeword posteriors for the KL objective (their
  argmax also reproduces the teacher's hard codes, from which the
  criterion derives the quantized MoPQ matching targets itself).

Because the contract matches, the ordinary :class:`repro.core.trainer.Trainer`
drives the whole fit — the distillation run inherits checkpoint/resume,
the non-finite loss/gradient guards, LR schedules, and observability
without a custom loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.losses import (
    LossBreakdown,
    assignment_kl_loss,
    matching_contrastive_loss,
)
from repro.core.model import LightLT
from repro.core.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.data.datasets import RetrievalDataset
from repro.encoding.light import LightQueryEncoder
from repro.nn import Module, Tensor
from repro.retrieval.adc import reconstruct

DISTILL_MODES = ("kl", "contrastive")


@dataclass(frozen=True)
class DistillationConfig:
    """Objective selection and temperatures for the distillation fit.

    ``anchor`` weights an auxiliary MSE pulling the student embedding onto
    the teacher's — the exact vector the full query path hands to ADC
    search, which neither posterior matching nor the contrastive head pins
    down on its own. Set it to 0 to train with the bare matching
    objective.
    """

    mode: str = "kl"
    temperature: float = 1.0  # posterior softening (KL mode)
    tau: float = 0.1  # InfoNCE temperature (contrastive mode)
    anchor: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in DISTILL_MODES:
            raise ValueError(
                f"mode must be one of {DISTILL_MODES}, got {self.mode!r}"
            )
        if self.temperature <= 0 or self.tau <= 0:
            raise ValueError("temperature and tau must be positive")
        if self.anchor < 0:
            raise ValueError("anchor weight must be non-negative")


@dataclass
class DistillationOutput:
    """Forward result of :class:`DistillationModel` (LightLT-shaped)."""

    embedding: Tensor  # student projection, (n, d) — carries gradients
    quantized: Tensor  # teacher continuous embedding, (n, d) — constant
    logits: Tensor  # teacher level scores, (n, M·K) — constant
    codes: np.ndarray  # teacher hard codes, (n, M)


class DistillationModel(Module):
    """Frozen teacher + trainable student behind the LightLT forward shape.

    Frozen by contract: the teacher's codebooks are resolved here, once,
    and every forward scores against that array without re-hashing the
    teacher's parameters (0.5–2 ms a step) — as
    :class:`DistillationCriterion` holds its own copy from construction.
    """

    def __init__(self, teacher: LightLT, student: LightQueryEncoder):
        super().__init__()
        if student.input_dim != teacher.config.input_dim:
            raise ValueError(
                f"student input_dim {student.input_dim} != teacher "
                f"input_dim {teacher.config.input_dim}"
            )
        if student.embed_dim != teacher.config.embed_dim:
            raise ValueError(
                f"student embed_dim {student.embed_dim} != teacher "
                f"embed_dim {teacher.config.embed_dim}"
            )
        self.teacher = teacher
        self.student = student
        self._teacher_codebooks = teacher.dsq.materialized_codebooks()

    def forward(self, features: Tensor | np.ndarray) -> DistillationOutput:
        if not isinstance(features, Tensor):
            features = Tensor(np.asarray(features, dtype=np.float64))
        # The teacher is inference-only here: its tape-free eval-mode pass,
        # whatever mode the session's model.train() left its flags in.
        teacher_emb = self.teacher.backbone.infer(features.data)
        scores, codes = self.teacher.dsq.assignment_scores(
            teacher_emb, _stacked=self._teacher_codebooks
        )
        student_emb = self.student(features)
        return DistillationOutput(
            embedding=student_emb,
            quantized=Tensor(teacher_emb),
            logits=Tensor(scores.reshape(len(codes), -1)),
            codes=codes,
        )


class DistillationCriterion(Module):
    """Assignment-matching objective over the distillation output slots.

    Holds the teacher's materialized codebooks as constants; student
    per-level scores are recomputed differentiably against them, with the
    residual offsets taken from the *teacher's* hard codes so each level's
    posterior is matched at the teacher's operating point.
    """

    def __init__(
        self,
        codebooks: np.ndarray,
        similarity: str = "neg_l2",
        topology: str = "residual",
        config: DistillationConfig = DistillationConfig(),
    ):
        super().__init__()
        if similarity not in ("neg_l2", "dot"):
            raise ValueError(
                f"distillation supports neg_l2/dot similarities, got {similarity!r}"
            )
        self.config = config
        self.similarity = similarity
        self.topology = topology
        # Dict-wrapped so Module's attribute scan never mistakes the frozen
        # codebook tensors for trainable parameters.
        codebooks = np.asarray(codebooks, dtype=np.float64).copy()
        self._frozen: dict[str, object] = {
            "codebooks": codebooks,
            "tensors": [Tensor(book) for book in codebooks],
            "code_sq": (codebooks * codebooks).sum(axis=2),
        }

    def forward(
        self,
        logits: Tensor,
        quantized: Tensor,
        labels: np.ndarray,
        embedding: Tensor | None = None,
    ) -> LossBreakdown:
        del labels  # distillation is self-supervised
        if embedding is None:
            raise ValueError("DistillationCriterion requires the student embedding")
        student = embedding
        teacher_emb = quantized.data
        config = self.config
        codebooks: np.ndarray = self._frozen["codebooks"]  # type: ignore[assignment]
        num_books, num_words, _ = codebooks.shape
        teacher_scores = logits.data.reshape(len(teacher_emb), num_books, num_words)
        codes = teacher_scores.argmax(axis=2)
        if config.mode == "kl":
            use_dot = self.similarity == "dot"
            offset = np.zeros((len(teacher_emb), codebooks.shape[2]))
            total_kl: Tensor | None = None
            for k in range(num_books):
                if self.topology == "residual" and k:
                    x = student - Tensor(offset.copy())
                else:
                    x = student
                cross = x @ self._frozen["tensors"][k].T  # type: ignore[index]
                if use_dot:
                    level_scores = cross
                else:
                    sq = (x * x).sum(axis=1, keepdims=True)
                    level_scores = (
                        cross * 2.0 - sq - Tensor(self._frozen["code_sq"][k])  # type: ignore[index]
                    )
                term = assignment_kl_loss(
                    level_scores, teacher_scores[:, k], temperature=config.temperature
                )
                total_kl = term if total_kl is None else total_kl + term
                if self.topology == "residual" and k + 1 < num_books:
                    offset += codebooks[k][codes[:, k]]
            assert total_kl is not None  # M >= 1 guaranteed by CodebookChain
            main = total_kl * (1.0 / num_books)
        else:
            # MoPQ matches against the *quantized* representations the scan
            # actually ranks; rebuild them from the teacher's hard codes.
            targets = reconstruct(codes, codebooks)
            main = matching_contrastive_loss(student, targets, tau=config.tau)
        total = main
        anchor_term: Tensor | None = None
        if config.anchor > 0:
            diff = student - Tensor(teacher_emb)
            anchor_term = (diff * diff).sum(axis=1).mean()
            total = total + anchor_term * config.anchor
        return LossBreakdown(
            total=total, classification=main, reconstruction=anchor_term
        )


def default_distill_training_config() -> TrainingConfig:
    """The distillation fit budget used when none is given.

    The student is tiny (one or two GEMMs per step), so the default
    budget leans on many cheap epochs; small corpora still see enough
    optimiser steps to converge.
    """
    return TrainingConfig(
        epochs=120,
        batch_size=32,
        learning_rate=2e-2,
        weight_decay=0.0,
        schedule="cosine",
        warm_start=False,
    )


def distill_query_encoder(
    teacher: LightLT,
    dataset: RetrievalDataset,
    hidden_dim: int | None = None,
    config: DistillationConfig = DistillationConfig(),
    training_config: TrainingConfig | None = None,
    seed: int = 0,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> tuple[LightQueryEncoder, TrainingHistory]:
    """Fit a :class:`LightQueryEncoder` against a trained teacher.

    Runs a full :class:`~repro.core.trainer.Trainer` fit over the dataset's
    train split with only the student's parameters optimisable, so the run
    inherits every session guarantee (checkpoints via ``checkpoint_dir``/
    ``resume``, non-finite step guards, schedules). Returns the trained
    student in eval mode plus the recorded history.
    """
    if training_config is None:
        training_config = default_distill_training_config()
    student = LightQueryEncoder(
        teacher.config.input_dim,
        teacher.config.embed_dim,
        hidden_dim=hidden_dim,
        rng=seed,
    )
    wrapper = DistillationModel(teacher, student)
    criterion = DistillationCriterion(
        codebooks=teacher.dsq.materialized_codebooks(),
        similarity=teacher.dsq.similarity,
        topology=teacher.dsq.topology,
        config=config,
    )
    trainer = Trainer(
        teacher.config, training_config=training_config, seed=seed
    )
    _, _, history = trainer.fit(
        dataset,
        model=wrapper,
        criterion=criterion,
        trainable_params=student.parameters(),
        run_warm_start=False,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    student.eval()
    teacher.eval()
    return student, history
