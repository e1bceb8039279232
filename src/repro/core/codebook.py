"""Codebook chain with the second "skip" of Double Skip Quantization.

Eqn. (10) of the paper: ``C_k = FFN(C_{k-1}) · g_k + P_k`` where ``FFN`` is
a one-hidden-layer ReLU network applied row-wise, ``g_k`` is a learnable
scalar gate, and ``P_k`` is the level's own main codebook. The chain keeps
gradients flowing from late codebooks back to early ones (Eqn. 11), which
is what lets LightLT stack many encoder-decoder pairs without the softmax
gradients vanishing.

Setting ``use_skip=False`` yields independent codebooks ``C_k = P_k`` — the
"vanilla residual mechanism" ablated in Table IV.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.nn import FeedForward, Module, Parameter, Tensor, no_grad
from repro.nn import init as nn_init
from repro.nn.autograd import accumulate_grad
from repro.rng import make_rng, spawn


class CodebookChain(Module):
    """Learnable stack of ``M`` codebooks of ``K`` codewords each.

    Parameters
    ----------
    num_codebooks:
        ``M``, the number of encoder-decoder pairs.
    num_codewords:
        ``K``, rows per codebook.
    dim:
        ``d``, codeword dimensionality (matches the backbone output).
    rng:
        Seed or generator for initialisation.
    use_skip:
        Enable the Eqn. (10) codebook skip (True = DSQ, False = vanilla).
    ffn_hidden:
        Hidden width of the row-wise FFN; defaults to ``2·dim``.
    init_std:
        Standard deviation of the Gaussian codeword initialisation.
    """

    def __init__(
        self,
        num_codebooks: int,
        num_codewords: int,
        dim: int,
        rng: np.random.Generator | int = 0,
        use_skip: bool = True,
        ffn_hidden: int | None = None,
        init_std: float = 0.1,
    ):
        super().__init__()
        if num_codebooks < 1:
            raise ValueError("need at least one codebook")
        if num_codewords < 2:
            raise ValueError("need at least two codewords per codebook")
        rng = make_rng(rng)
        self.num_codebooks = num_codebooks
        self.num_codewords = num_codewords
        self.dim = dim
        self.use_skip = use_skip
        hidden = ffn_hidden or 2 * dim

        child_rngs = spawn(rng, num_codebooks + 1)
        self.main_codebooks = [
            Parameter(
                nn_init.normal((num_codewords, dim), child_rngs[k], std=init_std),
                name=f"P{k}",
            )
            for k in range(num_codebooks)
        ]
        if use_skip and num_codebooks > 1:
            # One FFN + gate per transition C_{k-1} -> C_k (k >= 2). The
            # FFN's output layer starts at zero and the gates at a small
            # positive value, so the skip is an exact no-op at
            # initialisation and opens gently: early training behaves like
            # the vanilla chain while the cross-codebook gradient path of
            # Eqn. (11) stays available.
            self.ffns = []
            for _ in range(num_codebooks - 1):
                ffn = FeedForward(dim, hidden, child_rngs[-1])
                ffn.fc2.weight.data[:] = 0.0
                self.ffns.append(ffn)
            self.gates = [
                Parameter(np.full(1, 0.1), name=f"g{k + 1}")
                for k in range(num_codebooks - 1)
            ]
        else:
            self.ffns = []
            self.gates = []
        # Persistent scratch for the stacked path (dict-wrapped so Module's
        # attribute scan ignores it); allocated lazily on first use.
        self._scratch: dict[str, object] = {}
        # Version-tagged materialization cache (see materialize_cached) and
        # the count of actual re-materializations it has performed — the
        # regression tests assert the count stays at one across repeated
        # encode/index-build calls between parameter updates.
        self._mat_cache: dict[str, object] = {}
        self.materializations = 0

    def materialize(self) -> list[Tensor]:
        """Effective codebooks ``[C_1, ..., C_M]`` as autograd tensors.

        ``C_1 = P_1`` and, with the skip enabled,
        ``C_k = FFN_k(C_{k-1}) · g_k + P_k``.
        """
        codebooks: list[Tensor] = [self.main_codebooks[0]]
        for k in range(1, self.num_codebooks):
            if self.use_skip:
                transformed = self.ffns[k - 1](codebooks[k - 1])
                codebook = transformed * self.gates[k - 1] + self.main_codebooks[k]
            else:
                codebook = self.main_codebooks[k]
            codebooks.append(codebook)
        return codebooks

    def materialize_stacked(self) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
        """Chain forward in plain NumPy: ``(M, K, d)`` stack plus a cache.

        Computes the same values as :meth:`materialize` bit for bit (the op
        order mirrors the tape: ``x @ W1 + b1``, ``pre * (pre > 0)``,
        ``h @ W2 + b2``, ``transformed * g + P``) but builds no graph nodes.
        The DSQ kernel (:meth:`DSQ.forward`) pairs it with :meth:`accumulate_stacked_grad`
        inside its single backward closure, so the whole chain costs zero
        tape traffic per step.

        The returned stack and cache are views into scratch buffers reused
        by the *next* call: run the matching backward before materializing
        again, which the forward→backward→step training loop guarantees
        (diagnostic paths like :meth:`materialize_arrays` go through the
        tape and never touch these buffers).
        """
        sc = self._scratch
        if not sc:
            num_books, num_words, dim = self.num_codebooks, self.num_codewords, self.dim
            sc["stacked"] = np.empty((num_books, num_words, dim))
            hidden_dim = self.ffns[0].fc1.out_features if self.ffns else 0
            sc["pre"] = [np.empty((num_words, hidden_dim)) for _ in self.ffns]
            sc["mask"] = [np.empty((num_words, hidden_dim), dtype=bool) for _ in self.ffns]
            sc["hidden"] = [np.empty((num_words, hidden_dim)) for _ in self.ffns]
            sc["trans"] = [np.empty((num_words, dim)) for _ in self.ffns]
            sc["g_trans"] = np.empty((num_words, dim))
            sc["g_pre"] = np.empty((num_words, hidden_dim))
            sc["g_w1"] = np.empty((dim, hidden_dim))
            sc["g_w2"] = np.empty((hidden_dim, dim))
        stacked = sc["stacked"]
        stacked[0] = self.main_codebooks[0].data
        cache: list[tuple[np.ndarray, ...]] = []
        for k in range(1, self.num_codebooks):
            if self.use_skip:
                t = k - 1
                ffn = self.ffns[t]
                prev = stacked[k - 1]
                pre = np.matmul(prev, ffn.fc1.weight.data, out=sc["pre"][t])
                pre += ffn.fc1.bias.data
                mask = np.greater(pre, 0, out=sc["mask"][t])
                hidden = np.multiply(pre, mask, out=sc["hidden"][t])
                transformed = np.matmul(hidden, ffn.fc2.weight.data, out=sc["trans"][t])
                transformed += ffn.fc2.bias.data
                np.multiply(transformed, self.gates[t].data, out=stacked[k])
                stacked[k] += self.main_codebooks[k].data
                cache.append((prev, mask, hidden, transformed))
            else:
                stacked[k] = self.main_codebooks[k].data
        return stacked, cache

    def accumulate_stacked_grad(
        self, grad_books: np.ndarray, cache: list[tuple[np.ndarray, ...]]
    ) -> None:
        """Route per-level gradients on the *effective* codebooks into params.

        ``grad_books`` holds ``dL/dC_k`` for every level as produced against
        :meth:`materialize_stacked`'s output. The reverse walk adds the
        Eqn. (11) chain contribution ``dC_k/dC_{k-1}`` level by level,
        accumulating into ``P_k``, the FFN weights, and the gates exactly as
        the tape's backward would (up to summation-order rounding in the
        scalar gate reduction).
        """

        def push(param: Parameter, grad: np.ndarray) -> None:
            if param.requires_grad:
                accumulate_grad(param, grad)

        sc = self._scratch
        carried = grad_books[-1]
        for k in range(self.num_codebooks - 1, 0, -1):
            push(self.main_codebooks[k], carried)
            if self.use_skip:
                t = k - 1
                ffn = self.ffns[t]
                prev, mask, hidden, transformed = cache[t]
                push(self.gates[t], np.array([(carried * transformed).sum()]))
                g_trans = np.multiply(carried, self.gates[t].data, out=sc["g_trans"])
                push(ffn.fc2.weight, np.matmul(hidden.T, g_trans, out=sc["g_w2"]))
                push(ffn.fc2.bias, g_trans.sum(axis=0))
                g_pre = np.matmul(g_trans, ffn.fc2.weight.data.T, out=sc["g_pre"])
                g_pre *= mask
                push(ffn.fc1.weight, np.matmul(prev.T, g_pre, out=sc["g_w1"]))
                push(ffn.fc1.bias, g_pre.sum(axis=0))
                carried = grad_books[k - 1] + g_pre @ ffn.fc1.weight.data.T
            else:
                carried = grad_books[k - 1]
        push(self.main_codebooks[0], carried)

    def materialize_arrays(self) -> np.ndarray:
        """Effective codebooks as a plain ``(M, K, d)`` array (inference)."""
        with no_grad():
            stacked = [c.data.copy() for c in self.materialize()]
        return np.stack(stacked, axis=0)

    def parameter_fingerprint(self) -> bytes:
        """Content hash over every chain parameter's current values.

        Hashing the raw bytes (rather than tracking an explicit version
        counter) catches both in-place optimizer updates — which keep the
        same arrays — and ``load_state_dict``, which rebinds them. The
        digest covers every chain parameter, FFN weights included: 0.5 ms
        at ``M=8, K=64, d=32`` and 2.0–2.5 ms at ``M=8, K=128, d=64``
        (1.45 MB), about what an encode of 512 rows costs. A caller with a
        loop inside which the parameters cannot change — a chunked encode,
        a fit against a frozen teacher — resolves
        :meth:`materialize_cached` once outside it and hands the array
        down (``DSQ.encode(..., _stacked=)``).
        """
        digest = hashlib.blake2b(digest_size=16)
        for param in self.parameters():
            digest.update(np.ascontiguousarray(param.data).tobytes())
        return digest.digest()

    def materialize_cached(self) -> np.ndarray:
        """Version-tagged :meth:`materialize_arrays` for inference callers.

        Returns the same owned ``(M, K, d)`` array until a parameter
        changes (detected via :meth:`parameter_fingerprint`), so encode and
        index-build paths invoked many times between updates pay for one
        chain forward. Callers must treat the result as read-only; a fresh
        array replaces it after the next update, so references handed out
        earlier stay valid.
        """
        tag = self.parameter_fingerprint()
        cache = self._mat_cache
        if cache.get("tag") != tag:
            cache["stacked"] = self.materialize_arrays()
            cache["tag"] = tag
            self.materializations += 1
        return cache["stacked"]  # type: ignore[return-value]

    def gate_values(self) -> np.ndarray:
        """Current scalar gate values ``g_2..g_M`` (empty when no skip)."""
        return np.array([float(g.data[0]) for g in self.gates])
