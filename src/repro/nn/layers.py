"""Standard neural network layers built on the Module system.

These are the building blocks of the LightLT backbone, classification head,
and the codebook skip-connection FFN of Eqn. (10), as well as of every deep
baseline in :mod:`repro.baselines`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.autograd import accumulate_grad
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Identity(Module):
    """Pass-through layer; useful as a configurable no-op."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine transform ``y = x W + b``.

    Weights use Kaiming-uniform initialisation; the bias starts at zero.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a bare array, no tape: the same ops, the same bits."""
        out = x @ self.weight.data
        return out if self.bias is None else out + self.bias.data


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Hyperbolic tangent activation (used by hashing baselines)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, self.training)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), name="gamma")
        self.beta = Parameter(np.zeros(dim), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered / (variance + self.eps).sqrt()
        return normalised * self.gamma + self.beta


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class FeedForward(Module):
    """One-hidden-layer FFN with ReLU, as required by Eqn. (10).

    ``FFN(C) = ReLU(C W1 + b1) W2 + b2`` applied row-wise to a codebook.
    """

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(dim, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())


class MLP(Module):
    """Multi-layer perceptron with ReLU activations and optional dropout.

    Serves as the trainable backbone ``f(.)`` on top of the (simulated)
    pre-trained features — the role ResNet-34 / BERT play in the paper.

    A stack of only Linear and ReLU layers trains as one autograd node: the
    forward keeps the layer ops' order bit for bit and one backward closure
    walks the stack in reverse, accumulating weight/bias gradients
    directly. A stack with dropout layers runs its layers on the tape — the
    RNG draw order is part of the training trajectory contract.
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator,
        dropout: float = 0.0,
        final_activation: bool = False,
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng))
            is_last = i == len(dims) - 2
            if not is_last or final_activation:
                layers.append(ReLU())
                if dropout > 0:
                    layers.append(Dropout(dropout, rng))
        self.net = Sequential(*layers)
        self._stacked = all(isinstance(layer, (Linear, ReLU)) for layer in self.net)
        # Dict-wrapped so Module's attribute scan does not register the
        # cached parameter tuple a second time.
        self._stack_cache: dict[str, tuple] = {}

    def _stack_params(self) -> tuple:
        params = self._stack_cache.get("params")
        if params is None:
            params = self._stack_cache["params"] = tuple(self.parameters())
        return params

    def forward(self, x: Tensor) -> Tensor:
        if not self._stacked:
            return self.net(x)
        out, cache = self._stack_forward(x.data)

        def backward(grad: np.ndarray) -> None:
            g_input = self._stack_backward(grad, cache)
            if x.requires_grad:
                accumulate_grad(x, g_input)

        return Tensor._from_op(out, (x, *self._stack_params()), backward)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The eval-mode forward on a bare float64 array, with no tape.

        The stack node's op order (``x @ W + b``, then ``pre * (pre > 0)``)
        with ``Dropout`` as the identity, so the values are the eval-mode
        :meth:`forward`'s bit for bit. It reads no mode flag and sets none.
        """
        for layer in self.net:
            if isinstance(layer, Linear):
                x = layer.infer(x)
            elif isinstance(layer, ReLU):
                x = x * (x > 0)
        return x

    def _stack_forward(self, data: np.ndarray) -> tuple[np.ndarray, list]:
        """Run the Linear/ReLU stack in plain NumPy, caching for backward.

        Same op order as the layers' tape ops (``x @ W + b``, then
        ``pre * (pre > 0)``), so outputs are bit-identical to them.
        """
        cache: list[tuple] = []
        out = data
        for layer in self.net:
            if isinstance(layer, Linear):
                cache.append((layer, out))
                out = out @ layer.weight.data
                if layer.bias is not None:
                    out = out + layer.bias.data
            else:  # ReLU
                mask = out > 0
                cache.append((None, mask))
                out = out * mask
        return out, cache

    def _stack_backward(self, grad: np.ndarray, cache: list) -> np.ndarray:
        """Reverse walk of :meth:`_stack_forward`; returns the input grad."""
        g = grad
        for layer, saved in reversed(cache):
            if layer is None:  # ReLU: saved is the mask
                g = g * saved
            else:  # Linear: saved is the layer input
                if layer.bias is not None and layer.bias.requires_grad:
                    accumulate_grad(layer.bias, g.sum(axis=0))
                if layer.weight.requires_grad:
                    accumulate_grad(layer.weight, saved.T @ g)
                g = g @ layer.weight.data.T
        return g


class ResidualMLP(Module):
    """Gated residual network ``f(x) = x + g · MLP(x)`` with ``g`` starting at 0.

    Models *fine-tuning a pre-trained encoder*: at initialisation the output
    equals the input features (the simulated pre-trained representation), so
    training starts from the pre-trained retrieval quality instead of from a
    random embedding — matching the paper's setup where ResNet-34/BERT
    backbones begin already trained.

    Without dropout the whole block, gate included, trains as one node over
    the inner :class:`MLP`'s stack pass.
    """

    def __init__(self, dim: int, hidden_dims: list[int], rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.inner = MLP([dim, *hidden_dims, dim], rng, dropout=dropout)
        self.gate = Parameter(np.zeros(1), name="gate")

    def forward(self, x: Tensor) -> Tensor:
        if not self.inner._stacked:
            return x + self.inner(x) * self.gate
        inner_out, cache = self.inner._stack_forward(x.data)
        out = x.data + inner_out * self.gate.data

        def backward(grad: np.ndarray) -> None:
            if self.gate.requires_grad:
                accumulate_grad(self.gate, np.array([(grad * inner_out).sum()]))
            g_input = self.inner._stack_backward(grad * self.gate.data, cache)
            if x.requires_grad:
                accumulate_grad(x, grad + g_input)

        return Tensor._from_op(
            out, (x, self.gate, *self.inner._stack_params()), backward
        )

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The eval-mode ``x + inner(x) · gate`` on a bare array, no tape
        (:meth:`MLP.infer`): the same bits as :meth:`forward`."""
        return x + self.inner.infer(x) * self.gate.data


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(init.normal((num_embeddings, dim), rng), name="weight")

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight[np.asarray(ids)]
