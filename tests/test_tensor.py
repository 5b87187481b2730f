"""Autodiff core: op semantics, backward rules, gradient checking."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinyvitlab import tensor as T
from tinyvitlab.tensor import Tensor, Tape, backward, grad_check


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul

class TestMatmul:
    def test_identity_bitwise(self):
        rng = np.random.default_rng(0)
        a = t64(rng.standard_normal((6, 6)))
        out = T.matmul(a, t64(np.eye(6)))
        assert np.array_equal(out.data, a.data)

    def test_hand_arithmetic(self):
        out = T.matmul(t64([[1, 2], [3, 4]]), t64([[5], [6]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        expected = np.zeros((7, 3))
        for i in range(7):
            for j in range(3):
                for k in range(5):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(t64(a), t64(b)).data
        assert np.max(np.abs(out - expected) / np.maximum(np.abs(expected), 1e-12)) <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (t64(rng.standard_normal((8, 8))) for _ in range(3))
            lhs = T.matmul(T.matmul(a, b), c).data
            rhs = T.matmul(a, T.matmul(b, c)).data
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# softmax

class TestSoftmax:
    def test_uniform_logits(self):
        out = T.softmax(t64([0.0, 0.0, 0.0, 0.0]), axis=-1)
        assert np.allclose(out.data, 0.25)

    def test_single_element_axis(self):
        assert T.softmax(t64([3.7]), axis=0).data == pytest.approx([1.0])

    def test_large_logits_no_overflow(self):
        out = T.softmax(t64([1000.0, 0.0]), axis=-1)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one_and_positive(self, logits):
        out = T.softmax(t64(logits), axis=-1).data
        assert abs(out.sum() - 1.0) <= 1e-6
        assert np.all(out >= 0)
        # strictly positive wherever exp(logit - max) is representable;
        # below the float64 underflow threshold 0.0 is unavoidable
        gap = np.asarray(logits) - max(logits)
        assert np.all(out[gap > -700] > 0)

    def test_axis_out_of_bounds(self):
        with pytest.raises(T.ShapeError):
            T.softmax(t64([1.0, 2.0]), axis=3)


# ---------------------------------------------------------------------------
# layer norm

class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = t64([[5.0, 5.0, 5.0]])
        out = T.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)), eps=1e-6)
        assert np.allclose(out.data, 0.0)

    def test_two_point_row(self):
        out = T.layer_norm(t64([[1.0, 3.0]]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
        assert out.data[0] == pytest.approx([-1.0, 1.0], abs=1e-5)

    def test_random_row_statistics(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((4, 64)))
        out = T.layer_norm(x, t64(np.ones(64)), t64(np.zeros(64)), eps=1e-6).data
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-6
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-3

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            T.layer_norm(t64([[1.0]]), t64([1.0]), t64([0.0]), eps=0.0)


# ---------------------------------------------------------------------------
# activations

class TestActivation:
    def test_zero(self):
        assert T.gelu(t64([0.0])).data[0] == 0.0

    def test_gelu_at_one_matches_gaussian_cdf(self):
        assert T.gelu(t64([1.0])).data[0] == pytest.approx(0.841345, abs=1e-6)


# ---------------------------------------------------------------------------
# cross entropy

class TestCrossEntropy:
    def test_uniform_logits_one_hot(self):
        logits = t64(np.zeros((2, 10)))
        targets = np.zeros((2, 10))
        targets[:, 3] = 1.0
        assert T.cross_entropy(logits, targets).item() == pytest.approx(np.log(10), abs=1e-9)

    def test_saturated_softmax(self):
        logits = np.zeros((1, 10))
        logits[0, 4] = 30.0
        targets = np.zeros((1, 10))
        targets[0, 4] = 1.0
        assert T.cross_entropy(t64(logits), targets).item() < 1e-9

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 7))
        targets = rng.random((5, 7))
        targets /= targets.sum(axis=1, keepdims=True)
        expected = 0.0
        for b in range(5):
            z = logits[b] - logits[b].max()
            logp = z - np.log(np.exp(z).sum())
            expected += -sum(targets[b, i] * logp[i] for i in range(7))
        expected /= 5
        assert T.cross_entropy(t64(logits), targets).item() == pytest.approx(expected, abs=1e-10)

    def test_non_normalized_target_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            T.cross_entropy(t64(np.zeros((1, 3))), np.array([[0.5, 0.2, 0.2]]))


# ---------------------------------------------------------------------------
# backward

class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3), grad=True)
        with Tape() as tape:
            backward(T.sum_(x), tape)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_matmul_analytic_rule(self):
        rng = np.random.default_rng(5)
        a = t64(rng.standard_normal((3, 4)), grad=True)
        b = t64(rng.standard_normal((4, 2)), grad=True)
        with Tape() as tape:
            backward(T.sum_(T.matmul(a, b)), tape)
        g = np.ones((3, 2))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)

    def test_accumulation_over_shared_use(self):
        x = t64([1.0, 2.0], grad=True)
        with Tape() as tape:
            backward(T.add(T.sum_(x), T.sum_(x)), tape)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ValueError):
            backward(y, tape)

    def test_off_tape_loss_rejected(self):
        x = t64([1.0], grad=True)
        with Tape():
            pass
        with Tape() as other:
            y = T.sum_(x)
        with Tape() as empty:
            pass
        with pytest.raises(T.GraphError):
            backward(y, empty)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((16, 16))
        x = rng.standard_normal((8, 16))
        grads = []
        for _ in range(2):
            wt = t64(w.copy(), grad=True)
            with Tape() as tape:
                out = T.sum_(T.gelu(T.matmul(t64(x), wt)))
                backward(out, tape)
            grads.append(wt.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_three_block_composite_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = t64(rng.standard_normal((5, 8)) * 0.5, grad=True)
        g1 = t64(np.ones(8), grad=True)
        b1 = t64(np.zeros(8), grad=True)
        w2 = t64(rng.standard_normal((8, 4)) * 0.5, grad=True)
        x = rng.standard_normal((3, 5))
        targets = np.full((3, 4), 0.25)

        def f():
            h = T.gelu(T.matmul(t64(x), w1))
            h = T.layer_norm(h, g1, b1)
            h = T.softmax(T.matmul(h, w2), axis=-1)
            return T.cross_entropy(T.matmul(h, t64(np.eye(4))), targets)

        assert grad_check(f, [w1, g1, b1, w2], h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# grad_check harness

class TestGradCheck:
    def test_quadratic_near_exact(self):
        x = t64([1.0, 2.0, 3.0], grad=True)
        err = grad_check(lambda: T.sum_(T.mul(x, x)), [x], h=1e-5)
        assert err < 1e-8

    def test_detects_planted_backward_bug(self):
        # square op whose backward rule is doubled: reports 2x grad
        x = t64([1.0, 2.0, 3.0], grad=True)

        def bad_square(a):
            return T._make(a.data * a.data, (a,), lambda g: (4.0 * a.data * g,))

        err = grad_check(lambda: T.sum_(bad_square(x)), [x], h=1e-5)
        # |2g - g| / max(2g, g) = 0.5 under the implemented error formula
        assert err > 1e-2
        assert err == pytest.approx(0.5, abs=1e-4)

    def test_rejects_non_scalar(self):
        x = t64([1.0, 2.0], grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: T.mul(x, x), [x])

    def test_coordinate_subsampling(self):
        x = t64(np.linspace(0.1, 1.0, 50), grad=True)
        err = grad_check(lambda: T.sum_(T.mul(x, x)), [x], h=1e-5, max_coords=7,
                         rng=np.random.default_rng(0))
        assert err < 1e-8


# ---------------------------------------------------------------------------
# debug numerics

def test_debug_mode_flags_nonfinite():
    T.set_debug_checks(True)
    try:
        with pytest.raises(T.NumericsError):
            T.scale(Tensor(np.array([1e38], dtype=np.float32)), 1e10)
    finally:
        T.set_debug_checks(False)
    # off by default: same op passes silently
    out = T.scale(Tensor(np.array([1e38], dtype=np.float32)), 1e10)
    assert np.isinf(out.data[0])
