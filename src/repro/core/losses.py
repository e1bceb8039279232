"""The LightLT training objective (§III-D).

Three terms shape the quantized representations:

- **Class-weighted cross-entropy** (Eqn. 12) keeps codes discriminative
  while re-weighting classes by effective sample count so the tail is not
  drowned out by the head.
- **Center loss** (Eqn. 13) pulls each item's quantized representation
  toward its class prototype.
- **Ranking loss** (Eqn. 14) enforces the *relative* ordering: each item
  must sit closer to its own prototype than to any other class's.

The total is ``L = L_ce + α (L_c + L_r)`` (Eqn. 15). Proposition 1 shows
``L_c + L_r`` upper-bounds the O(N³) triplet loss; a direct triplet
implementation is included for that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.longtail import class_weights
from repro.nn import (
    Module,
    Parameter,
    Tensor,
    cross_entropy,
    fused_center_loss,
    fused_commitment_loss,
    fused_cross_entropy,
    fused_ranking_loss,
    fused_scaled_sum,
    log_softmax,
    maximum,
)
from repro.nn import init as nn_init
from repro.rng import make_rng


def _norms_to_prototypes(embeddings: Tensor, prototypes: Tensor, p: int, eps: float = 1e-12) -> Tensor:
    """``(n, C)`` matrix of ℓ_p distances from each item to each prototype."""
    if p == 2:
        emb_sq = (embeddings * embeddings).sum(axis=1, keepdims=True)
        proto_sq = (prototypes * prototypes).sum(axis=1, keepdims=True)
        cross = embeddings @ prototypes.T
        sq = emb_sq + proto_sq.T - cross * 2.0
        return (maximum(sq, 0.0) + eps).sqrt()
    if p == 1:
        n, d = embeddings.shape
        c = prototypes.shape[0]
        diff = embeddings.reshape(n, 1, d) - prototypes.reshape(1, c, d)
        return diff.abs().sum(axis=2)
    raise ValueError(f"p must be 1 or 2, got {p}")


def center_loss(embeddings: Tensor, labels: np.ndarray, prototypes: Tensor, p: int = 2) -> Tensor:
    """Eqn. (13): mean ℓ_p distance of each item to its class prototype."""
    labels = np.asarray(labels)
    own_prototypes = prototypes[labels]
    diff = embeddings - own_prototypes
    if p == 2:
        sq = (diff * diff).sum(axis=1)
        distances = (sq + 1e-12).sqrt()
    elif p == 1:
        distances = diff.abs().sum(axis=1)
    else:
        raise ValueError(f"p must be 1 or 2, got {p}")
    return distances.mean()


def ranking_loss(
    embeddings: Tensor,
    labels: np.ndarray,
    prototypes: Tensor,
    tau: float = 1.0,
    p: int = 2,
) -> Tensor:
    """Eqn. (14): softmax cross-entropy over negative prototype distances.

    ``L_r = -mean_i log [ exp(-‖o_i - z_{y_i}‖/τ) / Σ_c exp(-‖o_i - z_c‖/τ) ]``
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    labels = np.asarray(labels)
    distances = _norms_to_prototypes(embeddings, prototypes, p=p)
    logits = distances * (-1.0 / tau)
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(len(labels)), labels]
    return -picked.mean()


def _pairwise_distances(embeddings: Tensor) -> Tensor:
    """``(n, n)`` Euclidean distances between batch rows, as in Eqn. (16)."""
    emb_sq = (embeddings * embeddings).sum(axis=1, keepdims=True)
    cross = embeddings @ embeddings.T
    sq = maximum(emb_sq + emb_sq.T - cross * 2.0, 0.0)
    return (sq + 1e-12).sqrt()


def triplet_loss(
    embeddings: Tensor, labels: np.ndarray, margin: float = 1.0
) -> Tensor:
    """Direct triplet loss (Eqn. 16) — the O(N³) objective of Proposition 1.

    ``Σ_i Σ_{j∈{y_i}} Σ_{k∉{y_i}} max(‖o_i-o_j‖ - ‖o_i-o_k‖ + m, 0)``,
    normalised by the number of triplets. Vectorised over the full
    ``(n, n, n)`` triplet cube: the anchor/positive/negative loops become
    one broadcast hinge masked by validity, so both memory and time are
    O(n³) but with no Python-level iteration (the loop form this replaces is
    kept as :func:`triplet_loss_reference`). Only usable on small batches;
    provided as the reference point for the upper-bound property test and
    the complexity comparison.
    """
    labels = np.asarray(labels)
    n = len(labels)
    same = labels[:, None] == labels[None, :]
    positive = same & ~np.eye(n, dtype=bool)
    valid = positive[:, :, None] & ~same[:, None, :]
    count = int(valid.sum())
    if count == 0:
        return Tensor(0.0)
    distances = _pairwise_distances(embeddings)
    hinge = maximum(
        distances.reshape(n, n, 1) - distances.reshape(n, 1, n) + margin, 0.0
    )
    total = (hinge * Tensor(valid.astype(np.float64))).sum()
    return total / float(count)


def triplet_loss_reference(
    embeddings: Tensor, labels: np.ndarray, margin: float = 1.0
) -> Tensor:
    """Per-anchor loop form of :func:`triplet_loss`; the parity oracle.

    Same triplets, same ``max(·, 0)`` tie convention — only the summation
    order differs, so values agree to float rounding.
    """
    labels = np.asarray(labels)
    n = len(labels)
    distances = _pairwise_distances(embeddings)

    total: Tensor | None = None
    count = 0
    same = labels[:, None] == labels[None, :]
    for i in range(n):
        positives = np.flatnonzero(same[i])
        positives = positives[positives != i]
        negatives = np.flatnonzero(~same[i])
        if len(positives) == 0 or len(negatives) == 0:
            continue
        pos_d = distances[i][positives].reshape(len(positives), 1)
        neg_d = distances[i][negatives].reshape(1, len(negatives))
        hinge = maximum(pos_d - neg_d + margin, 0.0).sum()
        total = hinge if total is None else total + hinge
        count += len(positives) * len(negatives)
    if total is None:
        return Tensor(0.0)
    return total / float(count)


def assignment_kl_loss(
    student_scores: Tensor,
    teacher_scores: np.ndarray,
    temperature: float = 1.0,
) -> Tensor:
    """Soft codeword-posterior KL for query-encoder distillation.

    ``KL(p_T ‖ q_S)`` per row, averaged over the batch: ``p_T`` is the
    teacher's tempered-softmax codeword posterior (a constant — gradients
    flow only through the student's log-probabilities), ``q_S`` the
    student's posterior over the same codebook. Rows are whatever the
    caller flattens to ``(rows, K)`` — typically ``n·M`` level scores.
    The teacher's (constant) negative entropy is included so the value is
    a true KL divergence, non-negative and zero at an exact match.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    teacher = np.asarray(teacher_scores, dtype=np.float64) / temperature
    teacher = teacher - teacher.max(axis=1, keepdims=True)
    exp = np.exp(teacher)
    norm = exp.sum(axis=1, keepdims=True)
    posterior = exp / norm
    teacher_log = teacher - np.log(norm)
    neg_entropy = float((posterior * teacher_log).sum(axis=1).mean())
    student_log = log_softmax(student_scores * (1.0 / temperature), axis=1)
    cross = -(student_log * Tensor(posterior)).sum(axis=1).mean()
    return cross + neg_entropy


def matching_contrastive_loss(
    student_embeddings: Tensor,
    teacher_targets: np.ndarray,
    tau: float = 0.1,
) -> Tensor:
    """MoPQ-style in-batch contrastive matching loss.

    InfoNCE over the similarity matrix between student query embeddings
    and the teacher's (quantized) representations of the same batch: row
    ``i`` must score its own teacher target above every other row's
    (matching-oriented — the negatives are real quantized representations,
    so the student is trained on exactly the contrast retrieval performs).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    teacher = np.asarray(teacher_targets, dtype=np.float64)
    n = len(teacher)
    if len(student_embeddings) != n:
        raise ValueError("student batch and teacher targets must align")
    if n == 0:
        return Tensor(0.0)
    logits = (student_embeddings @ Tensor(teacher).T) * (1.0 / tau)
    return cross_entropy(logits, np.arange(n))


@dataclass(frozen=True)
class LossConfig:
    """Hyper-parameters of the combined objective (Eqn. 15)."""

    gamma: float = 0.999  # class-weighting strength of Eqn. 12
    alpha: float = 0.01  # weight of (center + ranking)
    tau: float = 1.0  # ranking temperature
    p: int = 2  # prototype distance norm
    use_center: bool = True
    use_ranking: bool = True
    use_class_weights: bool = True
    # Reconstruction weight. The paper's Eqn. (15) omits an explicit
    # reconstruction term because its backbone barely moves (pre-trained,
    # LR 5e-5); with a from-scratch substrate the codebooks otherwise drift
    # away from the embedding distribution and asymmetric search degrades.
    # Documented as a reproduction addition in DESIGN.md; set to 0 to train
    # with the paper's literal objective.
    beta: float = 1.0
    commitment: float = 0.25  # weight of the embedding-side (commitment) term


@dataclass
class LossBreakdown:
    """Scalar tensors per term, plus their weighted total."""

    total: Tensor
    classification: Tensor
    center: Tensor | None = None
    ranking: Tensor | None = None
    reconstruction: Tensor | None = None

    def to_floats(self) -> dict[str, float]:
        values = {"total": self.total.item(), "classification": self.classification.item()}
        if self.center is not None:
            values["center"] = self.center.item()
        if self.ranking is not None:
            values["ranking"] = self.ranking.item()
        if self.reconstruction is not None:
            values["reconstruction"] = self.reconstruction.item()
        return values


class LightLTCriterion(Module):
    """Stateful criterion holding the class prototypes ``z_c``.

    The prototypes of Eqns. (13)-(14) are learnable parameters trained
    jointly with the model, as in the original center-loss formulation.

    Every term is one single-node kernel of :mod:`repro.nn.fused`. Loss
    *values* are bit-identical to the primitive-op compositions (such as
    :func:`center_loss` and :func:`ranking_loss`) whose operation order the
    kernels keep; gradients agree with them to float rounding.
    """

    def __init__(
        self,
        num_classes: int,
        dim: int,
        train_class_counts: np.ndarray,
        config: LossConfig = LossConfig(),
        rng: np.random.Generator | int = 0,
    ):
        super().__init__()
        self.config = config
        self.num_classes = num_classes
        rng = make_rng(rng)
        self.prototypes = Parameter(
            nn_init.normal((num_classes, dim), rng, std=0.05), name="prototypes"
        )
        counts = np.asarray(train_class_counts, dtype=np.float64)
        if len(counts) != num_classes:
            raise ValueError("train_class_counts length must equal num_classes")
        if config.use_class_weights:
            self._weights = class_weights(counts, config.gamma)
        else:
            self._weights = None

    def forward(
        self,
        logits: Tensor,
        quantized: Tensor,
        labels: np.ndarray,
        embedding: Tensor | None = None,
    ) -> LossBreakdown:
        """Eqn. (15): ``L_ce + α (L_c + L_r)``, plus optional β·‖f(x)−o‖²."""
        labels = np.asarray(labels)
        config = self.config
        classification = fused_cross_entropy(logits, labels, weights=self._weights)
        terms, scales = [classification], [1.0]
        center_term: Tensor | None = None
        ranking_term: Tensor | None = None
        reconstruction_term: Tensor | None = None
        if config.use_center:
            center_term = fused_center_loss(quantized, labels, self.prototypes, p=config.p)
            terms.append(center_term)
            scales.append(config.alpha)
        if config.use_ranking:
            ranking_term = fused_ranking_loss(
                quantized, labels, self.prototypes, tau=config.tau, p=config.p
            )
            terms.append(ranking_term)
            scales.append(config.alpha)
        if config.beta > 0 and embedding is not None:
            # VQ-VAE-style split: the codebook term pulls the reconstruction
            # toward the (frozen) embedding; the small commitment term keeps
            # the embedding near the codewords without letting the backbone
            # collapse its variance to cheat the objective.
            reconstruction_term = fused_commitment_loss(
                embedding, quantized, commitment=config.commitment
            )
            terms.append(reconstruction_term)
            scales.append(config.beta)
        # One combine node: ``ce + α·L_c + α·L_r + β·L_rec`` left to right,
        # the tape's scalar mul/add chain bit for bit.
        total = fused_scaled_sum(terms, scales)
        return LossBreakdown(
            total=total,
            classification=classification,
            center=center_term,
            ranking=ranking_term,
            reconstruction=reconstruction_term,
        )
