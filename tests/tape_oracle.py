"""The op-per-op tape: the oracle LightLT's training kernels are checked against.

LightLT trains on single-node kernels: the batched DSQ node
(``DSQ.forward``), the fused loss ops (``LightLTCriterion.forward``), the
Linear/ReLU stack node (``MLP`` / ``ResidualMLP.forward``) and the
flat-arena AdamW step. This module keeps the composition each of them
replaced, built from primitive tape ops and a per-parameter loop, and
:func:`tape` swaps all of them in for the length of a ``with`` block, so a
module call, a :class:`~repro.core.trainer.Trainer` session or a whole
distillation fit can be replayed on the tape and compared.

The optimiser's arena itself stays in place under :func:`tape` (``zero_grad``
and the trainer's whole-arena gradient clip use it); only the update is
the per-parameter loop, which reads and writes the arena's views.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.dsq import DSQ, DSQOutput
from repro.core.losses import LightLTCriterion, LossBreakdown, center_loss, ranking_loss
from repro.core.quantize import quantize_step
from repro.nn import MLP, Adam, AdamW, ResidualMLP, Tensor, cross_entropy


def dsq_forward(dsq: DSQ, embeddings: Tensor) -> DSQOutput:
    """Eqns. (2)-(7) as a per-codebook loop of :func:`quantize_step` calls."""
    codes = np.zeros((len(embeddings), dsq.num_codebooks), dtype=np.int64)
    level_outputs: list[Tensor] = []
    soft_assignments: list[Tensor] = []
    reconstruction: Tensor | None = None
    for k, codebook in enumerate(dsq.codebooks.materialize()):
        if dsq.topology == "residual" and reconstruction is not None:
            encoder_input = embeddings - reconstruction
        else:
            encoder_input = embeddings
        step = quantize_step(
            encoder_input, codebook, temperature=dsq.temperature, similarity=dsq.similarity
        )
        codes[:, k] = step.codes
        level_outputs.append(step.decoded)
        soft_assignments.append(step.soft_assignment)
        reconstruction = step.decoded if reconstruction is None else reconstruction + step.decoded
    return DSQOutput(
        codes=codes,
        reconstruction=reconstruction,
        level_outputs=level_outputs,
        soft_assignments=soft_assignments,
    )


def criterion_forward(
    criterion: LightLTCriterion,
    logits: Tensor,
    quantized: Tensor,
    labels: np.ndarray,
    embedding: Tensor | None = None,
) -> LossBreakdown:
    """Eqn. (15) composed from primitive tape ops."""
    config = criterion.config
    labels = np.asarray(labels)
    classification = cross_entropy(logits, labels, weights=criterion._weights)
    total = classification
    center_term = ranking_term = reconstruction_term = None
    if config.use_center:
        center_term = center_loss(quantized, labels, criterion.prototypes, p=config.p)
        total = total + center_term * config.alpha
    if config.use_ranking:
        ranking_term = ranking_loss(
            quantized, labels, criterion.prototypes, tau=config.tau, p=config.p
        )
        total = total + ranking_term * config.alpha
    if config.beta > 0 and embedding is not None:
        codebook_diff = embedding.detach() - quantized
        codebook_term = (codebook_diff * codebook_diff).sum(axis=1).mean()
        commit_diff = embedding - quantized.detach()
        commit_term = (commit_diff * commit_diff).sum(axis=1).mean()
        reconstruction_term = codebook_term + commit_term * config.commitment
        total = total + reconstruction_term * config.beta
    return LossBreakdown(
        total=total,
        classification=classification,
        center=center_term,
        ranking=ranking_term,
        reconstruction=reconstruction_term,
    )


def mlp_forward(mlp: MLP, x: Tensor) -> Tensor:
    """The layers one tape node each."""
    return mlp.net(x)


def residual_mlp_forward(block: ResidualMLP, x: Tensor) -> Tensor:
    return x + block.inner.net(x) * block.gate


def adamw_step(optimizer: AdamW) -> None:
    """Per-parameter AdamW: decoupled decay, then the Adam update.

    A parameter whose ``grad`` is ``None`` is skipped.
    """
    if optimizer.decoupled_weight_decay:
        for param, scale in zip(optimizer.params, optimizer.lr_scales):
            if param.grad is not None:
                param.data -= optimizer.lr * scale * optimizer.decoupled_weight_decay * param.data
    Adam.step(optimizer)


@contextlib.contextmanager
def tape():
    """Run every training kernel as its tape composition inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DSQ, "forward", dsq_forward)
        patch.setattr(LightLTCriterion, "forward", criterion_forward)
        patch.setattr(MLP, "forward", mlp_forward)
        patch.setattr(ResidualMLP, "forward", residual_mlp_forward)
        patch.setattr(AdamW, "step", adamw_step)
        yield
