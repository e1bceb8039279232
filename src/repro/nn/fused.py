"""Single-node training kernels: how LightLT trains.

The primitive implementations in :mod:`repro.nn.functional` and
:mod:`repro.core.losses` build every loss out of tensor ops, so one
softmax-cross-entropy costs a dozen autograd nodes and the backward pass
walks (and allocates through) each of them. At the paper's training scale
— §V-D measures exactly this phase — that Python-level tape walk, not the
arithmetic, dominates each step.

Each op below computes its forward pass in plain NumPy and installs ONE
backward closure with the hand-derived gradient. The op-per-op tape is
the oracle: every kernel is parity-checked in ``tests/nn/test_fused.py``,
via numerical gradient checks where the op is truly differentiable and via
comparison against the tape composition (``tests/tape_oracle.py``) for the
straight-through paths (whose forward value is intentionally piecewise
constant, so finite differences say nothing about the STE gradient).

Numerical contract: forward *values* match the tape bit for bit except
where documented (the straight-through assignment here is an exact one-hot
while the tape's ``soft + (hard - soft)`` carries ~1e-16 residue into its
decode matmul); gradients match up to summation-order rounding, i.e. to
~1e-12 relative rather than bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import accumulate_grad
from repro.nn.functional import one_hot, stable_softmax_array
from repro.nn.tensor import Tensor


def fused_softmax(logits: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Tempered softmax as a single autograd node.

    Same forward values as :func:`repro.nn.functional.softmax`; the
    backward applies the softmax Jacobian ``p * (g - <g, p>) / t`` in one
    shot instead of routing through exp/sum/div nodes.
    """
    soft = stable_softmax_array(logits.data, axis=axis, temperature=temperature)
    inv_t = 1.0 / temperature

    def backward(grad: np.ndarray) -> None:
        inner = (grad * soft).sum(axis=axis, keepdims=True)
        accumulate_grad(logits, soft * (grad - inner) * inv_t)

    return Tensor._from_op(soft, (logits,), backward)


def fused_softmax_ste(
    logits: Tensor, temperature: float = 1.0
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused tempered-softmax + straight-through estimator (Eqns. 5-6).

    Operates over the last axis of ``logits`` (any leading shape — the
    batched DSQ kernel feeds ``(M, B, K)``). Returns ``(assignment, codes,
    soft)``: the assignment tensor's forward value is an *exact* one-hot of
    the argmax while its gradient is the tempered-softmax Jacobian, and
    ``codes`` / ``soft`` are the plain argmax ids and softmax probabilities
    for diagnostics.
    """
    scores = logits.data
    soft = stable_softmax_array(scores, axis=-1, temperature=temperature)
    codes = scores.argmax(axis=-1)
    hard = one_hot(codes, scores.shape[-1])
    inv_t = 1.0 / temperature

    def backward(grad: np.ndarray) -> None:
        inner = (grad * soft).sum(axis=-1, keepdims=True)
        accumulate_grad(logits, soft * (grad - inner) * inv_t)

    return Tensor._from_op(hard, (logits,), backward), codes, soft


def fused_cross_entropy(
    logits: Tensor, labels: np.ndarray, weights: np.ndarray | None = None
) -> Tensor:
    """Class-weighted softmax cross-entropy as one node (Eqn. 12).

    Forward value matches :func:`repro.nn.functional.cross_entropy`
    exactly; the backward is the closed form ``w_y (p - onehot(y)) / n``
    with no exp/log/sum chain.
    """
    labels = np.asarray(labels)
    n = len(labels)
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(denom)
    picked = log_probs[np.arange(n), labels]
    # Scalar reductions mirror the tape exactly: Tensor.mean computes
    # ``sum * (1/n)`` (not ``sum / n``), and the weighted form divides —
    # the two differ in the last ulp.
    if weights is None:
        sample_weights = None
        value = -(picked.sum() * (1.0 / float(n)))
    else:
        sample_weights = np.asarray(weights, dtype=np.float64)[labels]
        value = -(picked * sample_weights).sum() / float(n)

    def backward(grad: np.ndarray) -> None:
        g_logits = exp / denom
        g_logits[np.arange(n), labels] -= 1.0
        if sample_weights is not None:
            g_logits *= sample_weights[:, None]
        g_logits *= grad / float(n)
        accumulate_grad(logits, g_logits)

    return Tensor._from_op(np.asarray(value), (logits,), backward)


def fused_center_loss(
    embeddings: Tensor, labels: np.ndarray, prototypes: Tensor, p: int = 2
) -> Tensor:
    """Eqn. (13) as one node: mean ℓ_p distance to the own-class prototype.

    The backward scatters prototype gradients with one one-hot matmul
    instead of the tape's full-matrix indexing round trip.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    labels = np.asarray(labels)
    n = len(labels)
    diff = embeddings.data - prototypes.data[labels]
    if p == 2:
        sq = (diff * diff).sum(axis=1)
        distances = np.sqrt(sq + 1e-12)
        value = distances.sum() * (1.0 / float(n))  # = Tensor.mean, bit for bit
    else:
        value = np.abs(diff).sum(axis=1).sum() * (1.0 / float(n))

    def backward(grad: np.ndarray) -> None:
        if p == 2:
            g_diff = diff * (grad / (float(n) * distances))[:, None]
        else:
            g_diff = np.sign(diff) * (grad / float(n))
        if embeddings.requires_grad:
            accumulate_grad(embeddings, g_diff)
        if prototypes.requires_grad:
            # One-hot matmul scatter: rows of -g_diff summed per class
            # (faster than np.add.at's buffered fancy-index path).
            onehot = np.zeros((n, len(prototypes.data)))
            onehot[np.arange(n), labels] = 1.0
            accumulate_grad(prototypes, onehot.T @ (-g_diff))

    return Tensor._from_op(np.asarray(value), (embeddings, prototypes), backward)


def fused_ranking_loss(
    embeddings: Tensor,
    labels: np.ndarray,
    prototypes: Tensor,
    tau: float = 1.0,
    p: int = 2,
) -> Tensor:
    """Eqn. (14) as one node: softmax CE over negative prototype distances.

    Mirrors :func:`repro.core.losses.ranking_loss` including the tape's
    subgradient conventions: the ℓ2 branch splits the ``max(·, 0)``
    gradient 50/50 at exact zeros and keeps the ``+1e-12`` smoothing under
    the square root.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    labels = np.asarray(labels)
    n = len(labels)
    emb, protos = embeddings.data, prototypes.data
    if p == 2:
        sq = (
            (emb * emb).sum(axis=1, keepdims=True)
            + (protos * protos).sum(axis=1)
            - 2.0 * (emb @ protos.T)
        )
        clip_mask = (sq > 0) + 0.5 * (sq == 0)
        distances = np.sqrt(np.maximum(sq, 0.0) + 1e-12)
        diff = None
    else:
        diff = emb[:, None, :] - protos[None, :, :]
        distances = np.abs(diff).sum(axis=2)
        clip_mask = None
    logits = distances * (-1.0 / tau)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    picked = (shifted - np.log(denom))[np.arange(n), labels]
    value = -(picked.sum() * (1.0 / float(n)))  # = -Tensor.mean, bit for bit

    def backward(grad: np.ndarray) -> None:
        g_logits = exp / denom
        g_logits[np.arange(n), labels] -= 1.0
        g_logits *= grad / float(n)
        g_dist = g_logits * (-1.0 / tau)
        if p == 2:
            g_sq = g_dist * (0.5 / distances) * clip_mask
            if embeddings.requires_grad:
                accumulate_grad(
                    embeddings,
                    2.0 * emb * g_sq.sum(axis=1, keepdims=True) - 2.0 * (g_sq @ protos),
                )
            if prototypes.requires_grad:
                accumulate_grad(
                    prototypes,
                    2.0 * protos * g_sq.sum(axis=0)[:, None] - 2.0 * (g_sq.T @ emb),
                )
        else:
            g_diff = np.sign(diff) * g_dist[:, :, None]
            if embeddings.requires_grad:
                accumulate_grad(embeddings, g_diff.sum(axis=1))
            if prototypes.requires_grad:
                accumulate_grad(prototypes, -g_diff.sum(axis=0))

    return Tensor._from_op(np.asarray(value), (embeddings, prototypes), backward)


def fused_commitment_loss(
    embedding: Tensor, quantized: Tensor, commitment: float = 0.25
) -> Tensor:
    """The VQ-VAE-style reconstruction term of the criterion as one node.

    Value equals ``mean‖sg(e) - q‖² + commitment · mean‖e - sg(q)‖²``; both
    squared norms share the same array, so the forward is a single pass and
    the backward routes ``-2(e-q)/n`` to the quantized side and
    ``+2c(e-q)/n`` to the embedding side, exactly as the detach-split tape
    does.
    """
    diff = embedding.data - quantized.data
    n = float(len(diff))
    term = (diff * diff).sum(axis=1).sum() * (1.0 / n)  # = Tensor.mean, bit for bit
    value = term + term * commitment

    def backward(grad: np.ndarray) -> None:
        base = diff * (2.0 * grad / n)
        if embedding.requires_grad:
            accumulate_grad(embedding, base * commitment)
        if quantized.requires_grad:
            accumulate_grad(quantized, -base)

    return Tensor._from_op(np.asarray(value), (embedding, quantized), backward)


def fused_scaled_sum(terms: list[Tensor], scales: list[float]) -> Tensor:
    """Left-to-right ``Σ scale_i · term_i`` over scalar tensors as one node.

    Replaces the criterion's chain of scalar mul/add tape nodes when
    combining loss terms. The forward accumulates in the reference order
    (``t_0·s_0``, then ``+ t_i·s_i``), so with ``s_0 = 1.0`` the total is
    bit-identical to ``t_0 + t_1·s_1 + ...`` as the tape computes it; the
    backward hands each term ``grad · s_i``.
    """
    if len(terms) != len(scales) or not terms:
        raise ValueError("need one scale per term and at least one term")
    value = terms[0].data * scales[0]
    for term, scale in zip(terms[1:], scales[1:]):
        value = value + term.data * scale

    def backward(grad: np.ndarray) -> None:
        for term, scale in zip(terms, scales):
            if term.requires_grad:
                accumulate_grad(term, grad * scale)

    return Tensor._from_op(np.asarray(value), tuple(terms), backward)
