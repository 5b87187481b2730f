"""Optimizer updates against scalar reference loops, schedule endpoints,
decay exclusion rules, and state round-trips."""

import math
import tracemalloc

import numpy as np
import pytest

from tinyvitlab import model as M
from tinyvitlab import optim as O
from tinyvitlab.tensor import Tensor


def scalar_adamw_reference(theta, grads, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Independent loop in plain python floats."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (math.sqrt(vhat) + eps) - lr * wd * theta
    return theta


def scalar_lion_reference(theta, grads, lr, wd, b1=0.9, b2=0.99):
    m = 0.0
    for g in grads:
        update = math.copysign(1.0, b1 * m + (1 - b1) * g) if (b1 * m + (1 - b1) * g) != 0 else 0.0
        theta = theta - lr * update - lr * wd * theta
        m = b2 * m + (1 - b2) * g
    return theta


def run_steps(kind, theta0, grads, lr, wd):
    # a [1,1] matrix: 1-D parameters are biases and affines, which skip decay
    params = {"w.weight": Tensor(np.array([[theta0]]), requires_grad=True)}
    state = O.init_optim(kind, params, weight_decay=wd)
    for g in grads:
        O.step(params, {"w.weight": np.array([[g]])}, state, lr)
    return params["w.weight"].data[0, 0], state


class TestAdamW:
    def test_ten_step_scalar_oracle(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(10).tolist()
        got, _ = run_steps("adamw", 0.5, grads, lr=0.01, wd=0.05)
        want = scalar_adamw_reference(0.5, grads, lr=0.01, wd=0.05)
        assert abs(got - want) <= 1e-12

    def test_first_step_magnitude(self):
        # with zero moments, step 1 moves by ~lr regardless of grad scale
        for g in (1e-4, 1.0, 1e4):
            got, _ = run_steps("adamw", 0.0, [g], lr=0.01, wd=0.0)
            assert got == pytest.approx(-0.01, rel=1e-3)

    def test_zero_grad_still_decays(self):
        got, _ = run_steps("adamw", 1.0, [0.0], lr=0.1, wd=0.5)
        assert got == pytest.approx(1.0 - 0.1 * 0.5 * 1.0, abs=1e-12)

    def test_excluded_parameter_not_decayed(self):
        params = {"norm.gamma": Tensor(np.array([2.0]), requires_grad=True)}
        state = O.init_optim("adamw", params, weight_decay=0.5)
        O.step(params, {"norm.gamma": np.array([0.0])}, state, 0.1)
        assert params["norm.gamma"].data[0] == 2.0

    def test_decay_uses_pre_step_parameter(self):
        theta0, g, lr, wd = 2.0, 1.0, 0.1, 0.25
        got, _ = run_steps("adamw", theta0, [g], lr=lr, wd=wd)
        grad_move = lr * 1.0 / (1.0 + 1e-8 / math.sqrt(1e-3))  # mhat/sqrt(vhat) ~ sign
        # pre-step decay subtracts lr*wd*theta0, not lr*wd*(theta0 - grad_move)
        coupled = theta0 - lr * wd * theta0
        assert got == pytest.approx(coupled - grad_move, rel=1e-6)

    def test_grad_shape_mismatch_rejected(self):
        params = {"w.weight": Tensor(np.zeros((2, 2)), requires_grad=True)}
        state = O.init_optim("adamw", params)
        with pytest.raises(ValueError, match="shape"):
            O.step(params, {"w.weight": np.zeros(3)}, state, 0.01)

    def test_negative_lr_rejected(self):
        params = {"w.weight": Tensor(np.zeros(2), requires_grad=True)}
        state = O.init_optim("adamw", params)
        with pytest.raises(ValueError):
            O.step(params, {"w.weight": np.zeros(2)}, state, -0.01)


class TestLion:
    def test_ten_step_scalar_oracle_exact(self):
        rng = np.random.default_rng(1)
        grads = rng.standard_normal(10).tolist()
        got, _ = run_steps("lion", 0.5, grads, lr=0.0002, wd=0.5)
        want = scalar_lion_reference(0.5, grads, lr=0.0002, wd=0.5)
        assert got == want  # sign updates and decay are exactly reproducible

    def test_update_is_sign_only(self):
        for g in (1e-6, 3.0, 1e6):
            got, _ = run_steps("lion", 0.0, [g], lr=0.01, wd=0.0)
            assert got == -0.01

    def test_momentum_flips_update_direction(self):
        # large positive history, small negative fresh grad: interpolation
        # stays positive so the step still moves down
        params = {"w.weight": Tensor(np.array([0.0]), requires_grad=True)}
        state = O.init_optim("lion", params, weight_decay=0.0)
        O.step(params, {"w.weight": np.array([10.0])}, state, 0.01)
        O.step(params, {"w.weight": np.array([-0.001])}, state, 0.01)
        assert params["w.weight"].data[0] == pytest.approx(-0.02)

    def test_no_second_moment_buffer(self):
        params = {"w.weight": Tensor(np.zeros(2), requires_grad=True)}
        state = O.init_optim("lion", params)
        assert state.v == {}


def expression_step(params, grads, state, lr):
    """O.step as plain numpy expressions, one temporary array per operation:
    the reference whose bits the scratch-buffer update must keep."""
    state.t += 1
    beta1, beta2 = O._BETAS[state.kind]
    bc1, bc2 = 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t
    for path in sorted(params):
        p, g, m = params[path], grads[path], state.m[path]
        wd = 0.0 if O.excluded_from_decay(path, p.shape) else state.weight_decay
        decay = lr * wd * p.data if wd else 0.0
        if state.kind == "adamw":
            v = state.v[path]
            m += (1.0 - beta1) * (g - m)
            v += (1.0 - beta2) * (g * g - v)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + O._EPS)
        else:
            p.data -= lr * np.sign(beta1 * m + (1.0 - beta1) * g)
            m += (1.0 - beta2) * (g - m)
        if wd:
            p.data -= decay


def f32_params(rng):
    """A decayed matrix and an excluded bias, float32."""
    return {"blocks.0.mlp.fc1.weight": Tensor(rng.standard_normal((24, 40)).astype(np.float32),
                                              requires_grad=True),
            "blocks.0.mlp.fc1.bias": Tensor(rng.standard_normal(40).astype(np.float32),
                                            requires_grad=True)}


class TestStepInputs:
    """Grads that do not fit the params are refused by path, before any
    state moves."""

    @pytest.mark.parametrize("kind", ["adamw", "lion"])
    @pytest.mark.parametrize("case, shown", [
        # once KeyError: 'blocks.0.mlp.fc1.weight'
        ("missing", r"grads lack parameter\(s\) blocks\.0\.mlp\.fc1\.weight"),
        ("extra", r"grads have no parameter for blocks\.0\.extra"),
        # once cast into the float32 moments and params without a word
        ("float64", r"grad dtype float64 != param dtype float32 at blocks\.0\.mlp\.fc1\.bias"),
    ])
    def test_refused_by_path(self, kind, case, shown):
        rng = np.random.default_rng(0)
        params = f32_params(rng)
        grads = {k: np.ones(p.shape, np.float32) for k, p in params.items()}
        if case == "missing":
            del grads["blocks.0.mlp.fc1.weight"]
        elif case == "extra":
            grads["blocks.0.extra"] = np.ones(3, np.float32)
        else:
            grads["blocks.0.mlp.fc1.bias"] = grads["blocks.0.mlp.fc1.bias"].astype(np.float64)
        before = {k: p.data.copy() for k, p in params.items()}
        state = O.init_optim(kind, params)
        with pytest.raises(ValueError, match=shown):
            O.step(params, grads, state, 0.01)
        assert state.t == 0
        assert all(np.array_equal(params[k].data, before[k]) for k in params)
        assert not any(m.any() for m in state.m.values())


class TestUpdateBits:
    @pytest.mark.parametrize("kind", ["adamw", "lion"])
    @pytest.mark.parametrize("wd", [0.0, 0.05])
    def test_matches_the_expressions_bitwise(self, kind, wd):
        rng = np.random.default_rng(1)
        params = f32_params(rng)
        ref = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        state, ref_state = O.init_optim(kind, params, wd), O.init_optim(kind, ref, wd)
        for it in range(8):
            grads = {k: (rng.standard_normal(p.shape) * 10.0 ** (it % 3 - 1)).astype(np.float32)
                     for k, p in params.items()}
            lr = O.lr_schedule(it, 8, 2, 2e-3, 1e-5)
            O.step(params, grads, state, lr)
            expression_step(ref, grads, ref_state, lr)
        for k in params:
            assert params[k].data.tobytes() == ref[k].data.tobytes(), k
            assert state.m[k].tobytes() == ref_state.m[k].tobytes(), k
            if kind == "adamw":
                assert state.v[k].tobytes() == ref_state.v[k].tobytes(), k

    def test_adamw_update_holds_three_param_sized_arrays(self):
        # two scratch arrays and the pre-step decay; the expressions held
        # four at the denominator's sqrt, even with numpy's temporary elision
        params = {"w.weight": Tensor(np.ones((512, 512), np.float32), requires_grad=True)}
        grads = {"w.weight": np.full((512, 512), 0.5, np.float32)}
        state = O.init_optim("adamw", params)
        tracemalloc.start()
        try:
            O.step(params, grads, state, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3 * 512 * 512 * 4 <= peak < 3.5 * 512 * 512 * 4


def real_shape(path):
    """The shape `path` has in a depth-4 model whose q projection is
    factored when the path names its latent pair."""
    variant = "q" if path.endswith((".down", ".up")) else "none"
    cfg = M.ModelConfig(embed_dim=32, num_heads=4, depth=4, num_cls_tokens=2,
                        mla=M.MlaConfig(variant, 8))
    return M.param_shapes(cfg)[path]


class TestDecayExclusions:
    @pytest.mark.parametrize("path", [
        "patch_embed.bias", "blocks.0.ffn.b1", "head.b2", "blocks.3.norm1.gamma",
        "norm.beta", "cls_token", "pos_embed"])
    def test_excluded(self, path):
        assert O.excluded_from_decay(path, real_shape(path))

    @pytest.mark.parametrize("path", [
        "patch_embed.weight", "blocks.0.attn.q.weight", "blocks.0.attn.q.down",
        "blocks.0.ffn.w1", "head.w2"])
    def test_decayed(self, path):
        assert not O.excluded_from_decay(path, real_shape(path))


class TestSchedule:
    def test_warmup_endpoint_hits_peak(self):
        assert O.lr_schedule(100, 1000, 100, 0.002, lr_min=1e-5) == pytest.approx(0.002, abs=1e-15)

    def test_final_step_hits_floor(self):
        assert O.lr_schedule(1000, 1000, 100, 0.002, lr_min=1e-5) == pytest.approx(1e-5, abs=1e-12)

    def test_starts_at_zero(self):
        assert O.lr_schedule(0, 1000, 100, 0.002, lr_min=1e-5) == 0.0

    def test_warmup_is_linear(self):
        lrs = [O.lr_schedule(s, 1000, 100, 0.002, lr_min=1e-5) for s in range(101)]
        diffs = np.diff(lrs)
        assert np.allclose(diffs, diffs[0], atol=1e-15)

    def test_midpoint_of_cosine(self):
        # halfway through decay the lr is the mean of peak and floor
        lr = O.lr_schedule(550, 1000, 100, 0.002, lr_min=1e-5)
        assert lr == pytest.approx((0.002 + 1e-5) / 2, abs=1e-12)

    def test_monotone_after_warmup(self):
        lrs = [O.lr_schedule(s, 1000, 100, 0.002, lr_min=1e-5) for s in range(100, 1001)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_no_jump_at_warmup_boundary(self):
        before = O.lr_schedule(99, 1000, 100, 0.002, lr_min=1e-5)
        at = O.lr_schedule(100, 1000, 100, 0.002, lr_min=1e-5)
        assert at - before <= 0.002 / 100 + 1e-12

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            O.lr_schedule(-1, 100, 10, 0.002, lr_min=1e-5)
        with pytest.raises(ValueError):
            O.lr_schedule(101, 100, 10, 0.002, lr_min=1e-5)
        with pytest.raises(ValueError):
            O.lr_schedule(5, 100, 100, 0.002, lr_min=1e-5)


class TestStateRoundTrip:
    def test_arrays_and_meta_reconstruct_state(self):
        rng = np.random.default_rng(2)
        params = {
            "a.weight": Tensor(rng.standard_normal((3, 3)), requires_grad=True),
            "b.bias": Tensor(rng.standard_normal(3), requires_grad=True),
        }
        state = O.init_optim("adamw", params, weight_decay=0.1)
        for _ in range(3):
            grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            O.step(params, grads, state, 0.003)

        # rebuilt as a resume does: the run's optimizer, with the saved t and
        # moments (copies: checkpoint loading hands back fresh arrays)
        meta = state.meta()
        assert meta == {"kind": "adamw", "weight_decay": 0.1, "t": 3}
        arrays = {k: a.copy() for k, a in state.to_arrays().items()}
        rebuilt = O.init_optim("adamw", params, weight_decay=0.1)
        rebuilt.t = meta["t"]
        rebuilt.m = {k: arrays[f"m.{k}"] for k in rebuilt.m}
        rebuilt.v = {k: arrays[f"v.{k}"] for k in rebuilt.v}
        for k in params:
            assert np.array_equal(rebuilt.m[k], state.m[k])
            assert np.array_equal(rebuilt.v[k], state.v[k])

        # continuing from the rebuilt state is bitwise identical
        params2 = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        g = {k: np.full(p.shape, 0.5) for k, p in params.items()}
        O.step(params, g, state, 0.001)
        O.step(params2, g, rebuilt, 0.001)
        for k in params:
            assert np.array_equal(params[k].data, params2[k].data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            O.init_optim("sgd", {})
