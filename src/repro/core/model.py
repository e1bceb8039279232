"""The LightLT model: backbone + DSQ + classification head (Fig. 1).

The backbone ``f(·)`` plays the role of the pre-trained ResNet-34 / BERT
encoder being fine-tuned: here it is an MLP over the (simulated)
pre-trained features. The DSQ module quantizes ``f(x)`` into ``M`` codeword
ids; the classification layer consumes the *quantized* representation, as
in Eqn. (12), so the discrete codes themselves carry the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dsq import DSQ, SIMILARITIES, DSQOutput
from repro.nn import MLP, Linear, Module, ResidualMLP, Tensor, no_grad
from repro.retrieval.index import QuantizedIndex
from repro.rng import make_rng, spawn


@dataclass(frozen=True)
class LightLTConfig:
    """Architecture and quantization hyper-parameters.

    The paper's default code budget is 32 bits: ``M=4`` codebooks of
    ``K=256`` codewords (4 × log2 256 = 32). The CI default shrinks ``K``
    to keep experiments fast while preserving the 4-codebook structure.
    """

    input_dim: int
    num_classes: int
    embed_dim: int = 32
    hidden_dims: tuple[int, ...] = (64,)
    num_codebooks: int = 4
    num_codewords: int = 64
    temperature: float = 1.0
    similarity: str = "neg_l2"
    use_codebook_skip: bool = True
    topology: str = "residual"
    backbone: str = "auto"  # "residual" (fine-tune-style), "mlp", or "auto"
    dropout: float = 0.0
    ffn_hidden: int | None = None
    codebook_init_std: float = 0.1

    def __post_init__(self) -> None:
        if self.similarity not in SIMILARITIES:
            raise ValueError(
                f"similarity must be one of {SIMILARITIES}, got {self.similarity!r}"
            )

    @property
    def code_bits(self) -> float:
        """Bits per encoded item, ``M · log2 K``."""
        return self.num_codebooks * float(np.log2(self.num_codewords))


@dataclass
class LightLTOutput:
    """Full forward result for a batch."""

    embedding: Tensor  # continuous f(x), (n, d)
    quantized: Tensor  # reconstructed o, (n, d)
    logits: Tensor  # classification scores over C classes
    codes: np.ndarray  # (n, M) discrete ids
    dsq: DSQOutput


class LightLT(Module):
    """Backbone + DSQ + classifier, trained end to end (Algorithm 1)."""

    def __init__(self, config: LightLTConfig, rng: np.random.Generator | int = 0):
        super().__init__()
        self.config = config
        rng = make_rng(rng)
        backbone_rng, dsq_rng, head_rng = spawn(rng, 3)
        backbone_kind = config.backbone
        if backbone_kind == "auto":
            backbone_kind = "residual" if config.input_dim == config.embed_dim else "mlp"
        if backbone_kind == "residual":
            if config.input_dim != config.embed_dim:
                raise ValueError(
                    "residual backbone requires input_dim == embed_dim "
                    f"(got {config.input_dim} != {config.embed_dim})"
                )
            self.backbone = ResidualMLP(
                config.embed_dim, list(config.hidden_dims), backbone_rng, dropout=config.dropout
            )
        elif backbone_kind == "mlp":
            dims = [config.input_dim, *config.hidden_dims, config.embed_dim]
            self.backbone = MLP(dims, backbone_rng, dropout=config.dropout)
        else:
            raise ValueError(f"unknown backbone kind {config.backbone!r}")
        self.dsq = DSQ(
            num_codebooks=config.num_codebooks,
            num_codewords=config.num_codewords,
            dim=config.embed_dim,
            rng=dsq_rng,
            temperature=config.temperature,
            similarity=config.similarity,
            use_codebook_skip=config.use_codebook_skip,
            topology=config.topology,
            ffn_hidden=config.ffn_hidden,
            init_std=config.codebook_init_std,
        )
        self.classifier = Linear(config.embed_dim, config.num_classes, head_rng)

    def forward(self, features: Tensor | np.ndarray) -> LightLTOutput:
        """Backbone → DSQ → classifier over a feature batch."""
        if not isinstance(features, Tensor):
            features = Tensor(np.asarray(features, dtype=np.float64))
        embedding = self.backbone(features)
        dsq_output = self.dsq(embedding)
        logits = self.classifier(dsq_output.reconstruction)
        return LightLTOutput(
            embedding=embedding,
            quantized=dsq_output.reconstruction,
            logits=logits,
            codes=dsq_output.codes,
            dsq=dsq_output,
        )

    # ------------------------------------------------------------------
    # Inference API
    # ------------------------------------------------------------------
    def embed(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Continuous embeddings ``f(x)``: the backbone's eval-mode forward.

        Runs the tape-free ``backbone.infer`` in ``batch_size``-row chunks
        (a GEMM's rounding depends on its row count, so the chunking is part
        of the answer). The model's mode is neither read nor changed.
        """
        blocks = list(self._backbone_chunks(features, batch_size))
        if len(blocks) == 1:
            return blocks[0]
        return np.concatenate(blocks, axis=0) if blocks else np.empty((0, self.config.embed_dim))

    def _backbone_chunks(self, features: np.ndarray, batch_size: int):
        """``backbone.infer`` of each ``batch_size``-row chunk, in order."""
        features = np.asarray(features, dtype=np.float64)
        for start in range(0, len(features), batch_size):
            yield self.backbone.infer(features[start : start + batch_size])

    def encode(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Discrete codes ``b_i`` (Eqn. 1) for raw feature rows.

        Uses :meth:`DSQ.encode`'s batched inference kernel, so only
        the backbone pass touches the autograd machinery. The codebooks are
        resolved — parameters hashed, chain re-run if they changed — once
        per call, not once per ``batch_size`` chunk.
        """
        return self._encode(features, self.dsq.materialized_codebooks(), batch_size)

    def _encode(
        self, features: np.ndarray, codebooks: np.ndarray, batch_size: int = 512
    ) -> np.ndarray:
        """:meth:`encode` against already-resolved ``codebooks``."""
        blocks = [
            self.dsq.encode(embedded, _stacked=codebooks)
            for embedded in self._backbone_chunks(features, batch_size)
        ]
        if not blocks:
            return np.empty((0, self.config.num_codebooks), dtype=np.int64)
        return np.concatenate(blocks, axis=0)

    def quantized_embeddings(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Reconstructed (quantized) representations for raw features."""
        self.eval()
        blocks = []
        with no_grad():
            for start in range(0, len(features), batch_size):
                batch = Tensor(features[start : start + batch_size])
                blocks.append(self.dsq(self.backbone(batch)).reconstruction.data)
        return np.concatenate(blocks, axis=0) if blocks else np.empty((0, self.config.embed_dim))

    def build_index(self, database: np.ndarray, labels: np.ndarray | None = None) -> QuantizedIndex:
        """Index a database with this model's codes and codebooks (Fig. 3)."""
        codebooks = self.dsq.materialized_codebooks()
        return QuantizedIndex.build(
            codebooks=codebooks,
            database=database,
            labels=labels,
            codes=self._encode(database, codebooks),
        )

    def search_ranked_labels(
        self,
        queries: np.ndarray,
        index: QuantizedIndex,
        k: int | None = None,
    ) -> np.ndarray:
        """Ranked database labels for queries embedded by the backbone.

        Queries stay continuous (asymmetric search): only the database side
        is quantized, exactly as in §IV's inference protocol.
        """
        return index.labels[index.search(self.embed(queries), k=k)]
