"""First-order optimisers: SGD (with momentum), Adam, and AdamW.

The paper trains LightLT with AdamW (§V-A4); the baselines reuse the same
implementations. Each optimiser stores its state per parameter so training
can be paused, inspected, and resumed deterministically.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class holding parameters, per-parameter LR scales, and a base LR.

    ``params`` may be a flat list of :class:`Parameter`, or a list of group
    dicts ``{"params": [...], "lr_scale": s}``. Group scales multiply the
    base learning rate — the mechanism used to fine-tune the backbone at a
    much smaller step size than the codebooks (the paper trains its
    pre-trained backbone at 5e-5 while the rest of the model adapts faster).
    """

    def __init__(self, params, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: list[Parameter] = []
        self.lr_scales: list[float] = []
        for entry in params:
            if isinstance(entry, dict):
                scale = float(entry.get("lr_scale", 1.0))
                for param in entry["params"]:
                    self.params.append(param)
                    self.lr_scales.append(scale)
            else:
                self.params.append(entry)
                self.lr_scales.append(1.0)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr

    def zero_grad(self, set_to_none: bool = False) -> None:
        """Clear gradients on all managed parameters.

        Gradient buffers are zeroed in place (and reused by the next
        backward pass) unless ``set_to_none=True`` drops them entirely.
        """
        for param in self.params:
            param.zero_grad(set_to_none)

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable optimisation state (not configuration), as copies.

        Subclasses extend this with their per-parameter buffers; together
        with the parameters themselves this is everything needed to resume
        an interrupted run bit-exactly.
        """
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.lr = float(state["lr"])

    def _load_buffers(
        self, stored: list[np.ndarray], own: list[np.ndarray], name: str
    ) -> list[np.ndarray]:
        if len(stored) != len(own):
            raise ValueError(
                f"optimizer state mismatch: {len(stored)} stored {name} buffers "
                f"for {len(own)} parameters"
            )
        restored = []
        for i, (new, current) in enumerate(zip(stored, own)):
            new = np.asarray(new, dtype=np.float64)
            if new.shape != current.shape:
                raise ValueError(
                    f"optimizer {name}[{i}] shape mismatch: "
                    f"stored {new.shape}, expected {current.shape}"
                )
            restored.append(new.copy())
        return restored


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity, scale in zip(self.params, self._velocity, self.lr_scales):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * scale * grad

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._velocity = self._load_buffers(state["velocity"], self._velocity, "velocity")


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._step_count
        bias2 = 1.0 - beta2**self._step_count
        for param, m, v, scale in zip(self.params, self._m, self._v, self.lr_scales):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                # Classic (L2) coupling; AdamW decouples it instead.
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * scale * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["step_count"] = self._step_count
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._step_count = int(state["step_count"])
        self._m = self._load_buffers(state["m"], self._m, "m")
        self._v = self._load_buffers(state["v"], self._v, "v")


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    This is the optimiser the paper uses for all LightLT training runs.

    The optimiser views every parameter (and its gradient and both moment
    buffers) through one contiguous float64 arena, so ``step`` is a
    handful of whole-arena in-place ufuncs rather than a Python loop over
    per-parameter ndarrays. Each ufunc keeps the per-parameter update's
    operation order and grouping (the loop kept in ``tests/tape_oracle.py``),
    so a trajectory is bit-identical to that loop's.

    A parameter that no gradient reached since ``zero_grad`` (its ``grad``
    is the zeroed arena view, or ``None``) is stepped with a zero gradient,
    not skipped: its moments decay and decoupled weight decay still
    applies. In LightLT training this happens to the criterion's
    prototypes when both the center and the ranking term are off.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 5e-5,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-2,
    ):
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay
        self._build_arena()

    # ------------------------------------------------------------------
    # Flat-buffer machinery
    # ------------------------------------------------------------------
    def _build_arena(self) -> None:
        """Repack data/grad/moment storage into contiguous arenas."""
        sizes = [p.data.size for p in self.params]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total = int(offsets[-1])
        self._flat_data = np.empty(total, dtype=np.float64)
        self._flat_grad = np.zeros(total, dtype=np.float64)
        self._flat_m = np.zeros(total, dtype=np.float64)
        self._flat_v = np.zeros(total, dtype=np.float64)
        self._flat_scale = np.empty(total, dtype=np.float64)
        self._scratch_num = np.empty(total, dtype=np.float64)
        self._scratch_den = np.empty(total, dtype=np.float64)
        self._data_views: list[np.ndarray] = []
        self._grad_views: list[np.ndarray] = []
        m_views, v_views = [], []
        for param, start, stop, scale, m, v in zip(
            self.params, offsets[:-1], offsets[1:], self.lr_scales, self._m, self._v
        ):
            shape = param.data.shape
            data_view = self._flat_data[start:stop].reshape(shape)
            data_view[...] = param.data
            param.data = data_view
            grad_view = self._flat_grad[start:stop].reshape(shape)
            if param.grad is not None:
                grad_view[...] = param.grad
            param.grad = grad_view
            m_view = self._flat_m[start:stop].reshape(shape)
            m_view[...] = m
            v_view = self._flat_v[start:stop].reshape(shape)
            v_view[...] = v
            self._flat_scale[start:stop] = scale
            self._data_views.append(data_view)
            self._grad_views.append(grad_view)
            m_views.append(m_view)
            v_views.append(v_view)
        # Per-parameter moment lists stay the public interface (state_dict,
        # inspection); they are now views into the flat arenas.
        self._m = m_views
        self._v = v_views

    def _sync_arena(self) -> None:
        """Re-adopt parameters whose arrays were replaced out-of-band.

        ``load_state_dict`` / checkpoint restore rebind ``param.data`` (and
        ``zero_grad(set_to_none=True)`` drops ``param.grad``); the arena
        copies the fresh values back into its views and re-binds them so
        whole-arena ops stay valid.
        """
        for param, data_view, grad_view in zip(
            self.params, self._data_views, self._grad_views
        ):
            if param.data is not data_view:
                data_view[...] = param.data
                param.data = data_view
            if param.grad is not grad_view:
                if param.grad is None:
                    grad_view[...] = 0.0
                else:
                    grad_view[...] = param.grad
                param.grad = grad_view

    def zero_grad(self, set_to_none: bool = False) -> None:
        if set_to_none:
            super().zero_grad(set_to_none)
        else:
            self._sync_arena()
            self._flat_grad[...] = 0.0

    def step(self) -> None:
        self._sync_arena()
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._step_count
        bias2 = 1.0 - beta2**self._step_count
        data, grad = self._flat_data, self._flat_grad
        m, v = self._flat_m, self._flat_v
        num, den = self._scratch_num, self._scratch_den
        # Every expression below keeps the per-parameter update's grouping
        # ((lr * scale) first, scalars folded the same way), so the arena
        # trajectory is bit-identical to that loop's.
        np.multiply(self._flat_scale, self.lr, out=num)  # num = lr * scale
        if self.decoupled_weight_decay:
            np.multiply(num, self.decoupled_weight_decay, out=den)
            den *= data
            data -= den
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=den)
        m += den
        v *= beta2
        np.multiply(grad, grad, out=den)
        den *= 1.0 - beta2
        v += den
        np.divide(m, bias1, out=den)  # m_hat
        num *= den  # (lr * scale) * m_hat
        np.divide(v, bias2, out=den)  # v_hat
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        data -= num

    def load_state_dict(self, state: dict) -> None:
        Optimizer.load_state_dict(self, state)
        self._step_count = int(state["step_count"])
        for view, value in zip(self._m, self._load_buffers(state["m"], self._m, "m")):
            view[...] = value
        for view, value in zip(self._v, self._load_buffers(state["v"], self._v, "v")):
            view[...] = value
