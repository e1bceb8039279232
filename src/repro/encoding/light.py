"""The light query encoder and its one-file persistence format."""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Linear, Module, Tensor
from repro.rng import make_rng

ENCODER_FORMAT_VERSION = 1

_META_KEY = "__meta__"
_PARAM_PREFIX = "param::"


class LightQueryEncoder(Module):
    """Linear (optionally one-hidden-layer) raw-features → embedding map.

    The query-side counterpart of the full backbone + DSQ stack: after
    distillation (:func:`repro.encoding.distill_query_encoder`) its output
    lives in the same embedding space the index's codebooks were built
    over, so ADC search accepts it unchanged. :meth:`embed` is the serving
    fast path — plain NumPy GEMMs over the stored weights, no tape.

    Parameters
    ----------
    input_dim, embed_dim:
        Raw feature and embedding dimensionalities (must match the
        teacher's ``LightLTConfig``).
    hidden_dim:
        ``None`` (default) for a pure affine projection; a positive width
        inserts one ReLU hidden layer for teachers too non-linear for the
        affine student to track.
    """

    def __init__(
        self,
        input_dim: int,
        embed_dim: int,
        hidden_dim: int | None = None,
        rng: np.random.Generator | int = 0,
    ):
        super().__init__()
        if input_dim < 1 or embed_dim < 1:
            raise ValueError("input_dim and embed_dim must be positive")
        if hidden_dim is not None and hidden_dim < 1:
            raise ValueError("hidden_dim must be positive (or None for linear)")
        self.input_dim = input_dim
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        rng = make_rng(rng)
        if hidden_dim is None:
            self.net: Module = Linear(input_dim, embed_dim, rng)
        else:
            self.net = MLP([input_dim, hidden_dim, embed_dim], rng)

    def forward(self, features: Tensor | np.ndarray) -> Tensor:
        """Autograd projection (training path)."""
        if not isinstance(features, Tensor):
            features = Tensor(np.asarray(features, dtype=np.float64))
        return self.net(features)

    def embed(self, features: np.ndarray) -> np.ndarray:
        """No-tape batched projection — the serving fast path.

        The layers' own tape-free ``infer`` (``x @ W + b``, ``pre * (pre >
        0)``), so values are bit-identical to :meth:`forward`. A single
        ``(d,)`` row is promoted and returned as ``(embed_dim,)``.
        """
        feats = np.asarray(features, dtype=np.float64)
        single = feats.ndim == 1
        if single:
            feats = feats[None, :]
        if feats.ndim != 2 or feats.shape[1] != self.input_dim:
            raise ValueError(
                f"features must be (n, {self.input_dim}), got shape "
                f"{np.asarray(features).shape}"
            )
        out = self.net.infer(feats)
        return out[0] if single else out


def save_encoder(encoder: LightQueryEncoder, path: str) -> None:
    """Write the encoder to ``path`` as a single ``.npz`` archive.

    The archive holds the architecture header plus every parameter array;
    written through an open file handle so the name is used verbatim (no
    implicit ``.npz`` suffix).
    """
    meta = np.array(
        [
            ENCODER_FORMAT_VERSION,
            encoder.input_dim,
            encoder.embed_dim,
            encoder.hidden_dim or 0,
        ],
        dtype=np.int64,
    )
    arrays = {
        f"{_PARAM_PREFIX}{name}": value
        for name, value in encoder.state_dict().items()
    }
    with open(path, "wb") as handle:
        np.savez(handle, **{_META_KEY: meta}, **arrays)


def load_encoder(path: str) -> LightQueryEncoder:
    """Rebuild a :func:`save_encoder` archive; refuses unknown versions."""
    with np.load(path) as archive:
        if _META_KEY not in archive.files:
            raise ValueError(f"{path} is not a light-query-encoder archive")
        version, input_dim, embed_dim, hidden_dim = (
            int(v) for v in archive[_META_KEY]
        )
        if version != ENCODER_FORMAT_VERSION:
            raise ValueError(
                f"unsupported encoder format {version} "
                f"(expected {ENCODER_FORMAT_VERSION})"
            )
        encoder = LightQueryEncoder(
            input_dim, embed_dim, hidden_dim=hidden_dim or None
        )
        state = {
            name[len(_PARAM_PREFIX):]: archive[name]
            for name in archive.files
            if name.startswith(_PARAM_PREFIX)
        }
    encoder.load_state_dict(state)
    encoder.eval()
    return encoder
