"""Tests for SGD / Adam / AdamW, including parameter groups."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, AdamW, Parameter, Tensor
from tests.tape_oracle import tape


def quadratic_loss(param: Parameter) -> Tensor:
    return (param * param).sum()


def run_steps(optimizer, param: Parameter, steps: int = 50):
    for _ in range(steps):
        optimizer.zero_grad()
        quadratic_loss(param).backward()
        optimizer.step()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        run_steps(SGD([p], lr=0.1), p)
        assert np.abs(p.data).max() < 1e-3

    def test_momentum_accelerates(self):
        slow = Parameter(np.array([5.0]))
        fast = Parameter(np.array([5.0]))
        run_steps(SGD([slow], lr=0.01), slow, steps=20)
        run_steps(SGD([fast], lr=0.01, momentum=0.9), fast, steps=20)
        assert abs(fast.data[0]) < abs(slow.data[0])

    def test_weight_decay_shrinks_without_gradient_signal(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        for _ in range(10):
            opt.zero_grad()
            (p * 0.0).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1.0

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()  # no backward happened
        assert p.data[0] == 1.0


class TestAdamFamily:
    def test_adam_converges(self):
        p = Parameter(np.array([4.0, -4.0]))
        run_steps(Adam([p], lr=0.2), p, steps=300)
        assert np.abs(p.data).max() < 0.05

    def test_adamw_converges(self):
        p = Parameter(np.array([4.0, -4.0]))
        run_steps(AdamW([p], lr=0.2, weight_decay=1e-3), p, steps=300)
        assert np.abs(p.data).max() < 0.05

    def test_adamw_decoupled_decay_acts_without_gradients(self):
        p = Parameter(np.array([2.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()  # zero gradient
        opt.step()
        assert p.data[0] < 2.0  # decay still applied

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestParameterGroups:
    def test_lr_scale_slows_group(self):
        fast = Parameter(np.array([1.0]))
        slow = Parameter(np.array([1.0]))
        opt = SGD(
            [
                {"params": [fast], "lr_scale": 1.0},
                {"params": [slow], "lr_scale": 0.01},
            ],
            lr=0.1,
        )
        for _ in range(5):
            opt.zero_grad()
            (quadratic_loss(fast) + quadratic_loss(slow)).backward()
            opt.step()
        assert abs(fast.data[0]) < abs(slow.data[0])

    def test_zero_scale_freezes_group(self):
        frozen = Parameter(np.array([1.0]))
        opt = AdamW([{"params": [frozen], "lr_scale": 0.0}], lr=0.1, weight_decay=0.1)
        opt.zero_grad()
        quadratic_loss(frozen).backward()
        opt.step()
        assert frozen.data[0] == 1.0

    def test_mixed_flat_and_group_entries(self):
        a = Parameter(np.array([1.0]))
        b = Parameter(np.array([1.0]))
        opt = SGD([a, {"params": [b], "lr_scale": 2.0}], lr=0.1)
        opt.zero_grad()
        (quadratic_loss(a) + quadratic_loss(b)).backward()
        opt.step()
        assert abs(b.data[0] - 1.0) > abs(a.data[0] - 1.0) - 1e-12


def make_param_set(seed: int = 0) -> list[Parameter]:
    rng = np.random.default_rng(seed)
    return [
        Parameter(rng.normal(size=(4, 3))),
        Parameter(rng.normal(size=(3,))),
        Parameter(rng.normal(size=(1,))),
    ]


def toy_loss(params: list[Parameter]) -> Tensor:
    total = (params[0] * params[0]).sum()
    for p in params[1:]:
        total = total + (p * p * 0.5).sum()
    return total


class TestFusedAdamW:
    def test_matches_reference_bit_for_bit(self):
        reference = make_param_set(seed=1)
        arena = make_param_set(seed=1)
        ref_opt = AdamW(reference, lr=0.05, weight_decay=0.01)
        arena_opt = AdamW(arena, lr=0.05, weight_decay=0.01)
        for _ in range(25):
            with tape():
                ref_opt.zero_grad()
                toy_loss(reference).backward()
                ref_opt.step()
            arena_opt.zero_grad()
            toy_loss(arena).backward()
            arena_opt.step()
        for ref_p, arena_p in zip(reference, arena):
            # The arena step keeps the per-parameter op grouping exactly, so
            # trajectories are bit-identical, not merely close.
            np.testing.assert_array_equal(arena_p.data, ref_p.data)

    def test_gradless_parameter_steps_with_a_zero_gradient(self):
        # No gradient reaches ``idle`` after the first two steps. It is not
        # skipped: its moments decay, the update they still carry applies,
        # and so does decoupled weight decay.
        params = make_param_set(seed=5)
        idle = params[2]
        opt = AdamW(params, lr=0.05, weight_decay=0.01)
        for _ in range(2):
            opt.zero_grad()
            toy_loss(params).backward()
            opt.step()
        m, v, data = opt._m[2].copy(), opt._v[2].copy(), idle.data.copy()
        opt.zero_grad()
        toy_loss(params[:2]).backward()
        opt.step()
        beta1, beta2 = opt.betas
        np.testing.assert_array_equal(opt._m[2], m * beta1)
        np.testing.assert_array_equal(opt._v[2], v * beta2)
        decayed = data - 0.05 * 0.01 * data
        bias1, bias2 = 1.0 - beta1**3, 1.0 - beta2**3
        moved = decayed - 0.05 * (m * beta1 / bias1) / (np.sqrt(v * beta2 / bias2) + opt.eps)
        np.testing.assert_array_equal(idle.data, moved)

    def test_never_reached_parameter_only_decays(self):
        params = make_param_set(seed=6)
        idle = params[2]
        start = idle.data.copy()
        opt = AdamW(params, lr=0.05, weight_decay=0.01)
        expected = start.copy()
        for _ in range(3):
            opt.zero_grad()
            toy_loss(params[:2]).backward()
            opt.step()
            expected -= 0.05 * 0.01 * expected
        np.testing.assert_array_equal(idle.data, expected)
        assert not np.array_equal(idle.data, start)
        assert not opt._m[2].any() and not opt._v[2].any()

    def test_grads_live_in_arena_and_buffers_are_reused(self):
        params = make_param_set(seed=2)
        opt = AdamW(params, lr=0.05)
        opt.zero_grad()
        toy_loss(params).backward()
        opt.step()
        grad_buffers = [p.grad for p in params]
        data_buffers = [p.data for p in params]
        for _ in range(5):
            opt.zero_grad()
            toy_loss(params).backward()
            opt.step()
        # No per-step reallocation: every gradient and parameter array is
        # the same object (an arena view) on every subsequent step.
        for p, grad_buf, data_buf in zip(params, grad_buffers, data_buffers):
            assert p.grad is grad_buf
            assert p.data is data_buf
            assert np.shares_memory(p.grad, opt._flat_grad)
            assert np.shares_memory(p.data, opt._flat_data)

    def test_state_dict_round_trip_resumes_exactly(self):
        steady = make_param_set(seed=3)
        steady_opt = AdamW(steady, lr=0.05, weight_decay=0.01)
        resumed = make_param_set(seed=3)
        resumed_opt = AdamW(resumed, lr=0.05, weight_decay=0.01)

        def advance(opt, params, steps):
            for _ in range(steps):
                opt.zero_grad()
                toy_loss(params).backward()
                opt.step()

        advance(steady_opt, steady, 10)
        advance(resumed_opt, resumed, 6)

        state = resumed_opt.state_dict()
        fresh = make_param_set(seed=3)
        for fresh_p, resumed_p in zip(fresh, resumed):
            fresh_p.data[...] = resumed_p.data
        fresh_opt = AdamW(fresh, lr=0.05, weight_decay=0.01)
        fresh_opt.load_state_dict(state)
        advance(fresh_opt, fresh, 4)

        for steady_p, fresh_p in zip(steady, fresh):
            np.testing.assert_array_equal(fresh_p.data, steady_p.data)

    def test_out_of_band_rebind_is_readopted(self):
        # Code outside the optimiser may replace param.data wholesale
        # (e.g. warm-start codebook injection); the arena step must adopt
        # the new values instead of stepping a stale arena copy.
        params = make_param_set(seed=4)
        opt = AdamW(params, lr=0.05)
        params[0].data = np.full((4, 3), 2.0)
        opt.zero_grad()
        toy_loss(params).backward()
        opt.step()
        assert np.all(params[0].data < 2.0)  # stepped from the new values
        assert np.shares_memory(params[0].data, opt._flat_data)
