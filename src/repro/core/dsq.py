"""Double Skip Quantization (§III-C).

The DSQ module composes ``M`` encoder-decoder pairs with two skip
connections:

1. *Residual skip between pairs* (Eqn. 2): encoder ``k`` quantizes the
   residual ``f(x) - Σ_{j<k} o^j`` rather than the raw input, forcing the
   pairs to capture complementary information.
2. *Codebook skip* (Eqn. 10, in :mod:`repro.core.codebook`): codebook ``k``
   is a gated transform of codebook ``k-1`` plus its own table, which keeps
   gradients alive across many levels (Eqn. 11).

Ablation switches reproduce the paper's comparisons: ``use_codebook_skip``
off gives the "vanilla residual mechanism" of Table IV; ``topology`` set to
``"independent"`` removes the first skip entirely (every encoder sees the
raw input), matching the redundant design the paper criticises after
Eqn. (2)'s introduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.core.codebook import CodebookChain
from repro.nn import Module, Tensor, no_grad, stable_softmax_array
from repro.nn.autograd import accumulate_grad

TOPOLOGIES = ("residual", "independent")

# Codeword similarities the DSQ kernels implement (Eqn. 3). The cosine of
# :mod:`repro.core.quantize` has no kernel and no DSQ user.
SIMILARITIES = ("neg_l2", "dot")


@dataclass
class DSQOutput:
    """Forward result of the DSQ module for a batch.

    Attributes
    ----------
    codes:
        ``(n, M)`` hard codeword ids ``b_i`` (Eqn. 1).
    reconstruction:
        ``(n, d)`` additive reconstruction ``o_i = Σ_k o_i^k``.
    level_outputs:
        Per-level decoded tensors ``o^k`` (list of ``(n, d)``).
    soft_assignments:
        Per-level tempered-softmax matrices (list of ``(n, K)``).
    """

    codes: np.ndarray
    reconstruction: Tensor
    level_outputs: list[Tensor]
    soft_assignments: list[Tensor]
    # ``level_outputs`` and ``soft_assignments`` are detached diagnostic
    # tensors — only ``reconstruction`` carries gradients (as one node
    # covering all M levels).


class DSQ(Module):
    """The Double Skip Quantization module.

    Parameters
    ----------
    num_codebooks, num_codewords, dim:
        ``M``, ``K``, ``d`` of the paper.
    temperature:
        Softmax temperature ``t`` of Eqn. (5).
    similarity:
        Codeword similarity function ``s`` of Eqn. (3), one of
        :data:`SIMILARITIES`.
    use_codebook_skip:
        Toggle for the second skip (Eqn. 10). Off = vanilla residual.
    topology:
        ``"residual"`` applies the first skip (Eqn. 2); ``"independent"``
        feeds the raw input to every encoder.
    """

    def __init__(
        self,
        num_codebooks: int,
        num_codewords: int,
        dim: int,
        rng: np.random.Generator | int = 0,
        temperature: float = 1.0,
        similarity: str = "neg_l2",
        use_codebook_skip: bool = True,
        topology: str = "residual",
        ffn_hidden: int | None = None,
        init_std: float = 0.1,
    ):
        super().__init__()
        if topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")
        if similarity not in SIMILARITIES:
            raise ValueError(
                f"similarity must be one of {SIMILARITIES}, got {similarity!r}"
            )
        self.temperature = temperature
        self.similarity = similarity
        self.topology = topology
        # Dict-wrapped so Module's attribute scan does not re-register the
        # chain's parameters under this module a second time.
        self._cache: dict[str, tuple] = {}
        self.codebooks = CodebookChain(
            num_codebooks,
            num_codewords,
            dim,
            rng=rng,
            use_skip=use_codebook_skip,
            ffn_hidden=ffn_hidden,
            init_std=init_std,
        )

    @property
    def num_codebooks(self) -> int:
        return self.codebooks.num_codebooks

    @property
    def num_codewords(self) -> int:
        return self.codebooks.num_codewords

    @property
    def dim(self) -> int:
        return self.codebooks.dim

    def forward(self, embeddings: Tensor) -> DSQOutput:
        """Quantize a batch of continuous embeddings (Eqns. 2-7).

        All ``M`` encoder-decoder passes run as one autograd node.

        The forward runs in plain NumPy over the stacked ``(M, K, d)``
        codebook array — fully batched ``(M, B, K)`` einsums for the
        ``independent`` topology, a thin per-level loop over batched
        kernels for ``residual`` (whose inputs are sequentially dependent
        through Eqn. 2). The codebook chain itself is folded into the same
        node: :meth:`CodebookChain.materialize_stacked` runs Eqn. (10)
        without tape nodes and the backward closure routes the per-level
        codebook gradients straight into ``P_k`` / FFN / gate parameters
        via :meth:`CodebookChain.accumulate_stacked_grad`. The closure
        replays the straight-through convention level by level: the decode
        gradient scatters into the argmax rows of each codebook (as a
        one-hot matmul — faster than ``np.add.at``), while the encoder
        gradient flows through the tempered-softmax Jacobian exactly as the
        tape's ``soft + Sg(hard - soft)`` construction
        (:func:`repro.core.quantize.quantize_step`) does.
        """
        chain = self.codebooks
        emb = embeddings.data
        n = len(emb)
        num_books, num_words = self.num_codebooks, self.num_codewords
        stacked, chain_cache = chain.materialize_stacked()  # (M, K, d)
        temperature = self.temperature
        inv_t = 1.0 / temperature
        use_dot = self.similarity == "dot"
        if not use_dot:
            # (C*C).sum, not einsum: mirrors the tape's pairwise
            # summation so scores (and argmax tie-breaks) match bit for bit.
            code_sq = (stacked * stacked).sum(axis=2)

        if self.topology == "residual":
            codes = np.empty((n, num_books), dtype=np.int64)
            inputs = np.empty((num_books, n, self.dim))
            soft = np.empty((num_books, n, num_words))
            levels = np.empty((num_books, n, self.dim))
            recon = np.zeros((n, self.dim))
            scores = np.empty((n, num_words))
            for k in range(num_books):
                # In-place score assembly keeps the tape's op order per
                # element (cross·2 − ‖x‖² − ‖c‖²) while reusing one buffer.
                if k:
                    x = np.subtract(emb, recon, out=inputs[k])
                else:
                    x = inputs[0]
                    x[...] = emb
                np.matmul(x, stacked[k].T, out=scores)
                if not use_dot:
                    scores *= 2.0
                    scores -= (x * x).sum(axis=1, keepdims=True)
                    scores -= code_sq[k]
                stable_softmax_array(scores, temperature=temperature, out=soft[k])
                codes[:, k] = scores.argmax(axis=1)
                np.take(stacked[k], codes[:, k], axis=0, out=levels[k])
                recon += levels[k]
        else:  # independent: every level sees the raw input — batched arrays
            # Per-level GEMMs into one (M, B, K) buffer: same BLAS calls as
            # a per-level tape loop, so scores stay bit-identical (einsum's
            # contraction order would drift by an ulp).
            scores = np.empty((num_books, n, num_words))
            for k in range(num_books):
                np.matmul(emb, stacked[k].T, out=scores[k])
            if not use_dot:
                scores *= 2.0
                scores -= (emb * emb).sum(axis=1)[None, :, None]
                scores -= code_sq[:, None, :]
            soft = stable_softmax_array(scores, temperature=temperature)
            codes_mb = scores.argmax(axis=-1)  # (M, B)
            codes = np.ascontiguousarray(codes_mb.T)
            inputs = None
            levels = stacked[np.arange(num_books)[:, None], codes_mb]  # (M, B, d)
            recon = levels.sum(axis=0)

        def backward(grad: np.ndarray) -> None:
            grad_books = np.zeros_like(stacked)
            rows = np.arange(n)
            if self.topology == "residual":
                # Walk levels in reverse, carrying the gradient that later
                # levels' residual inputs (x_j = e - Σ_{m<j} o_m) push back
                # onto earlier decodes. Scratch buffers are reused across
                # levels; gradients are tolerance-checked against the tape,
                # so reductions here are free to use einsum.
                grad_embedding = np.zeros_like(emb)
                onehot = np.empty((n, num_words))
                g_level = np.empty_like(emb)
                g_scores = np.empty((n, num_words))
                g_x = np.empty_like(emb)
                book_scratch = np.empty((num_words, self.dim))
                for k in range(num_books - 1, -1, -1):
                    np.subtract(grad, grad_embedding, out=g_level)
                    onehot[:] = 0.0
                    onehot[rows, codes[:, k]] = 1.0
                    np.matmul(onehot.T, g_level, out=book_scratch)
                    grad_books[k] += book_scratch
                    np.matmul(g_level, stacked[k].T, out=g_scores)
                    soft_k = soft[k]
                    inner = np.einsum("bk,bk->b", g_scores, soft_k)
                    g_scores -= inner[:, None]
                    g_scores *= soft_k
                    g_scores *= inv_t
                    if use_dot:
                        np.matmul(g_scores, stacked[k], out=g_x)
                        np.matmul(g_scores.T, inputs[k], out=book_scratch)
                        grad_books[k] += book_scratch
                    else:
                        np.matmul(g_scores, stacked[k], out=g_x)
                        g_x *= 2.0
                        g_x -= (2.0 * g_scores.sum(axis=1, keepdims=True)) * inputs[k]
                        np.matmul(g_scores.T, inputs[k], out=book_scratch)
                        book_scratch *= 2.0
                        book_scratch -= (2.0 * g_scores.sum(axis=0)[:, None]) * stacked[k]
                        grad_books[k] += book_scratch
                    grad_embedding += g_x
            else:
                onehot = np.zeros((num_books, n, num_words))
                onehot[np.arange(num_books)[:, None], rows[None, :], codes_mb] = 1.0
                grad_books += np.einsum("mbk,bd->mkd", onehot, grad)
                g_assign = np.einsum("bd,mkd->mbk", grad, stacked)
                g_scores = soft * (g_assign - (g_assign * soft).sum(axis=-1, keepdims=True))
                g_scores *= inv_t
                if use_dot:
                    grad_embedding = np.einsum("mbk,mkd->bd", g_scores, stacked)
                    grad_books += np.einsum("mbk,bd->mkd", g_scores, emb)
                else:
                    grad_embedding = 2.0 * np.einsum(
                        "mbk,mkd->bd", g_scores, stacked
                    ) - 2.0 * emb * g_scores.sum(axis=(0, 2))[:, None]
                    grad_books += 2.0 * np.einsum(
                        "mbk,bd->mkd", g_scores, emb
                    ) - 2.0 * stacked * g_scores.sum(axis=1)[:, :, None]
            if embeddings.requires_grad:
                accumulate_grad(embeddings, grad_embedding)
            chain.accumulate_stacked_grad(grad_books, chain_cache)

        params = self._cache.get("chain")
        if params is None:
            params = self._cache["chain"] = tuple(chain.parameters())
        reconstruction = Tensor._from_op(recon, (embeddings, *params), backward)
        return DSQOutput(
            codes=codes,
            reconstruction=reconstruction,
            level_outputs=[Tensor(levels[k]) for k in range(num_books)],
            soft_assignments=[Tensor(soft[k]) for k in range(num_books)],
        )

    def encode(
        self, embeddings: np.ndarray, *, _stacked: np.ndarray | None = None
    ) -> np.ndarray:
        """Hard codes for raw feature rows, without building a graph.

        A dedicated batched inference kernel — the score assembly of
        :meth:`forward` minus the tempered softmax and the tape, over
        persistent scratch buffers and the version-cached stacked
        codebooks — so batch encode costs ``M`` GEMMs plus argmaxes and
        nothing else. Codes equal :meth:`forward`'s (the same operations in
        the same order).

        Each call checks the chain's parameters for change
        (:meth:`CodebookChain.materialize_cached` — a hash of every
        parameter). A caller encoding many chunks between which they cannot
        change resolves :meth:`materialized_codebooks` once and passes it
        as ``_stacked``; nothing is checked then.

        Rows must be finite: a NaN or infinite row raises ``ValueError``
        rather than encoding to arbitrary codes.
        """
        emb = np.asarray(embeddings, dtype=np.float64)
        if not np.isfinite(emb).all():
            raise ValueError("rows to encode must be finite (found NaN or inf)")
        return self._encode(emb, stacked=_stacked)

    def assignment_scores(
        self, embeddings: np.ndarray, *, _stacked: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-level pre-softmax scores ``(n, M, K)`` plus hard codes.

        The teacher side of query-encoder distillation: softmaxing the
        returned scores gives the codeword posteriors of Eqn. (5).
        Inference-only (no tape). ``_stacked`` as in :meth:`encode`.
        """
        emb = np.asarray(embeddings, dtype=np.float64)
        scores = np.empty((len(emb), self.num_codebooks, self.num_codewords))
        codes = self._encode(emb, scores_out=scores, stacked=_stacked)
        return scores, codes

    def _encode(
        self,
        emb: np.ndarray,
        scores_out: np.ndarray | None = None,
        stacked: np.ndarray | None = None,
    ) -> np.ndarray:
        """No-tape batched encode over cached stacked codebooks."""
        if emb.ndim != 2:
            raise ValueError(f"embeddings must be (n, d), got shape {emb.shape}")
        n = len(emb)
        num_books, num_words, dim = self.num_codebooks, self.num_codewords, self.dim
        if stacked is None:
            stacked = self.codebooks.materialize_cached()
        use_dot = self.similarity == "dot"
        cache = self._cache
        code_sq = None
        if not use_dot:
            # ``code_sq`` is tied to the cached stack by identity: a chain
            # parameter update swaps the stack object, invalidating it.
            if cache.get("code_sq_for") is not stacked:
                cache["code_sq"] = (stacked * stacked).sum(axis=2)
                cache["code_sq_for"] = stacked
            code_sq = cache["code_sq"]
        scratch = cache.get("encode")
        if scratch is None or scratch["scores"].shape[0] != n:
            scratch = cache["encode"] = {
                "scores": np.empty((n, num_words)),
                "x": np.empty((n, dim)),
                "recon": np.empty((n, dim)),
                "level": np.empty((n, dim)),
            }
        codes = np.empty((n, num_books), dtype=np.int64)
        scores = scratch["scores"]
        kernel = native.load() if n else None
        if kernel is not None:
            return self._select_compiled(
                kernel, emb, stacked, code_sq, codes, scores, scratch, scores_out
            )
        if self.topology == "residual":
            x, recon, level = scratch["x"], scratch["recon"], scratch["level"]
            recon[...] = 0.0
            for k in range(num_books):
                if k:
                    np.subtract(emb, recon, out=x)
                else:
                    x[...] = emb
                np.matmul(x, stacked[k].T, out=scores)
                if not use_dot:
                    scores *= 2.0
                    scores -= (x * x).sum(axis=1, keepdims=True)
                    scores -= code_sq[k]
                codes[:, k] = scores.argmax(axis=1)
                if scores_out is not None:
                    scores_out[:, k] = scores
                np.take(stacked[k], codes[:, k], axis=0, out=level)
                recon += level
        else:  # independent: every level scores the raw input
            for k in range(num_books):
                np.matmul(emb, stacked[k].T, out=scores)
                if not use_dot:
                    scores *= 2.0
                    scores -= (emb * emb).sum(axis=1, keepdims=True)
                    scores -= code_sq[k]
                codes[:, k] = scores.argmax(axis=1)
                if scores_out is not None:
                    scores_out[:, k] = scores
        return codes

    def _select_compiled(self, kernel, emb, stacked, code_sq, codes, scores, scratch, scores_out):
        """:meth:`_encode`'s levels with the compiled select pass.

        The GEMMs are the NumPy path's, on the same operands; after each,
        one call (:meth:`repro.native.Kernel.select_rows`) assembles the
        scores with that path's operations, takes the first argmax, writes
        ``scores_out`` and — residual topology — updates the running decode
        and the next level's input ``x = emb − recon``. ``‖x‖²`` stays a
        NumPy row sum: its pairwise order is part of every score.
        """
        form = native.DSQ_DOT if self.similarity == "dot" else native.DSQ_L2
        books = np.ascontiguousarray(stacked)  # the C code walks rows
        if code_sq is not None:
            code_sq = np.ascontiguousarray(code_sq)
        last = self.num_codebooks - 1
        if self.topology != "residual":
            row = None if form == native.DSQ_DOT else (emb * emb).sum(axis=1)
        else:
            x, recon = scratch["x"], scratch["recon"]
            x[...] = emb
            emb = np.ascontiguousarray(emb)
        for k in range(self.num_codebooks):
            if self.topology != "residual":
                np.matmul(emb, stacked[k].T, out=scores)
                kernel.select_rows(
                    scores, form, codes[:, k], row=row,
                    col=None if code_sq is None else code_sq[k],
                    scores=None if scores_out is None else scores_out[:, k],
                )
                continue
            np.matmul(x, stacked[k].T, out=scores)
            step = k < last  # the last level's decode feeds nothing
            kernel.select_rows(
                scores, form, codes[:, k],
                row=None if form == native.DSQ_DOT else (x * x).sum(axis=1),
                col=None if code_sq is None else code_sq[k],
                scores=None if scores_out is None else scores_out[:, k],
                book=books[k] if step else None, recon=recon if step else None,
                first=k == 0, emb=emb if step else None, x=x if step else None,
            )
        return codes

    def reconstruct(self, embeddings: np.ndarray) -> np.ndarray:
        """Quantize-then-decode as a plain array (compression round trip)."""
        with no_grad():
            output = self.forward(Tensor(np.asarray(embeddings, dtype=np.float64)))
        return output.reconstruction.data

    def materialized_codebooks(self) -> np.ndarray:
        """Effective ``(M, K, d)`` codebooks for index construction.

        Served from the chain's version-tagged cache; treat as read-only.
        """
        return self.codebooks.materialize_cached()

    def reconstruction_error(self, embeddings: np.ndarray) -> float:
        """Mean squared compression error over a feature matrix."""
        reconstruction = self.reconstruct(embeddings)
        return float(((embeddings - reconstruction) ** 2).mean())
