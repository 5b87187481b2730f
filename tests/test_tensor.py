"""Autodiff core: op semantics, backward rules, gradient checking."""

import functools
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from tinyvitlab import tensor as T
from tinyvitlab import train as TR
from tinyvitlab.tensor import Tensor, Tape, backward, grad_check


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def dot(a, b):
    """sum(a * b) for tensors of one shape: one test-local node."""
    return T._make((a.data * b.data).sum(), (a, b), lambda g: (g * b.data, g * a.data))


def total(y, r=None):
    """sum(y * r) (r defaults to ones): y projected onto a constant."""
    return dot(y, Tensor(np.ones(y.shape) if r is None else np.reshape(r, y.shape), dtype=y.dtype))


def add(a, b):
    """a + b for tensors of one shape: one node, one cotangent array for both inputs."""
    return T._make(a.data + b.data, (a, b), lambda g: (g, g))


def project(x, w, b=None):
    """x @ w (+ b) for rows x [L,D] through embed: zero pos, no tokens."""
    c = w.shape[1]
    zeros = [t64(np.zeros(s)) for s in [(c,), (np.shape(x)[0], c), (0, c)]]
    return T.embed(np.asarray(x, np.float64)[None], w, zeros[0] if b is None else b,
                   *zeros[1:]).data[0]


# ---------------------------------------------------------------------------
# the token stem

class TestEmbedProjection:
    """`embed`'s patch projection x @ w + b: one GEMM over the flattened batch."""

    def test_identity_bitwise(self):
        a = np.random.default_rng(0).standard_normal((6, 6))
        assert np.array_equal(project(a, t64(np.eye(6))), a)

    def test_hand_arithmetic(self):
        assert np.array_equal(project([[1, 2], [3, 4]], t64([[5], [6]])), [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"embed needs .*\(1, 2, 3\), \(2, 3\)"):
            project(np.zeros((2, 3)), t64(np.zeros((2, 3))))

    def test_bias_added_to_every_row(self):
        out = project([[1, 2], [3, 4]], t64([[5], [6]]), t64([0.5]))
        assert np.array_equal(out, [[17.5], [39.5]])

    def test_bias_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 2\), \(3,\)"):
            project(np.zeros((1, 2)), t64(np.zeros((2, 2))), t64(np.zeros(3)))

    def test_leading_dims_match_per_sample_products(self):
        rng = np.random.default_rng(3)
        x, w, b, pos = (rng.standard_normal(s) for s in [(3, 4, 5), (5, 6), (6,), (4, 6)])
        out = T.embed(x, t64(w), t64(b), t64(pos), t64(np.zeros((0, 6)))).data
        assert out.shape == (3, 4, 6)
        assert all(np.allclose(out[i], x[i] @ w + b + pos, rtol=0, atol=1e-12) for i in range(3))


class TestEmbedTokens:
    """`embed`'s token prologue: the CLS rows in front of every sample."""

    def test_tokens_lead_every_sample(self):
        rng = np.random.default_rng(10)
        patches, w, b, pos, tokens = map(rng.standard_normal, [(4, 5, 6), (6, 3), (3,), (5, 3), (2, 3)])
        out = T.embed(patches, *map(t64, (w, b, pos, tokens))).data
        assert out.shape == (4, 7, 3)
        assert all(np.array_equal(out[i, :2], tokens) for i in range(4))
        rows = patches.reshape(20, 6) @ w    # the GEMM, then += b, then + pos: bit for bit
        rows += b
        assert out[:, 2:].tobytes() == (rows.reshape(4, 5, 3) + pos).tobytes()

    def test_channel_mismatch_rejected(self):
        shapes = [(6, 3), (3,), (5, 3), (1, 4)]
        with pytest.raises(T.ShapeError, match=r"\(2, 5, 6\), \(6, 3\), \(3,\), \(5, 3\), \(1, 4\)"):
            T.embed(np.zeros((2, 5, 6)), *(t64(np.zeros(s)) for s in shapes))


# ---------------------------------------------------------------------------
# softmax attention, the core of block's attention branch

def attend(q, k, v, heads=1):
    """Multi-head softmax(q k^T / sqrt(d)) v for float64 q, k, v [B,S,C]
    through the attention weights block computes."""
    b, s, c = np.shape(q)

    def split(a):
        return np.asarray(a, np.float64).reshape(b, s, heads, c // heads).transpose(0, 2, 1, 3)

    qh = split(q)
    m, l = np.empty((2, *qh.shape[:-1], 1))     # the row max and sum the forward keeps
    out = T._attention_weights(qh * (1.0 / np.sqrt(c // heads)), split(k), m, l) @ split(v)
    return out.transpose(0, 2, 1, 3).reshape(b, s, c)


def block_inputs(x, wq, wk, wv, wo, grad=False):
    """block's arguments with full projections, the identity affines and the
    FFN branch silenced (all zero, so it adds zeros), as float64 tensors:
    (x, attention, ffn)."""
    c = np.shape(x)[-1]
    gamma, beta, *w = (t64(a, grad) for a in (np.ones(c), np.zeros(c), wq, wk, wv, wo))
    ffn = (gamma, beta, *(t64(np.zeros(shape), grad) for shape in [(c, c), (c,), (c, c), (c,)]))
    return t64(x, grad), (gamma, beta, [(w[0],), (w[1],), (w[2],)], w[3]), ffn


class TestAttentionWeights:
    def test_uniform_logits(self):
        # zero queries score every key equally: each output row is the mean of v
        rng = np.random.default_rng(8)
        v = rng.standard_normal((2, 4, 6))
        out = attend(np.zeros((2, 4, 6)), rng.standard_normal((2, 4, 6)), v, heads=3)
        assert np.allclose(out, np.broadcast_to(v.mean(axis=1, keepdims=True), v.shape),
                           rtol=0, atol=1e-12)

    def test_single_element_axis(self):
        # S=1: the lone key gets weight 1, so the output is v
        v = np.array([[[3.7, -1.0]]])
        assert attend(np.array([[[2.0, 5.0]]]), np.array([[[-4.0, 1.0]]]), v) == pytest.approx(v)

    def test_large_logits_no_overflow(self):
        # the rows [1, -1] and [-1, 1] normalize to themselves; q = k = 1000
        # times them scores each row's own key about 1.4e6 above the other:
        # all weight on it, so with v = o = I the branch adds the row itself
        x = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        big, eye = 1000.0 * np.eye(2), np.eye(2)
        inputs = block_inputs(x, big, big, eye, eye, grad=True)
        with Tape() as tape:
            out = T.block(*inputs, heads=1)
            grads = backward(total(out), tape, [inputs[0], *(w for (w,) in inputs[1][2])])
        assert np.allclose(out.data, 2.0 * x, rtol=0, atol=1e-5)
        assert all(np.all(np.isfinite(g)) for g in grads)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one_and_positive(self, logits):
        s = len(logits)
        # one head of s channels: query 0 is e_0 and key j holds the logit on
        # channel 0, scaled by sqrt(s) to cancel the 1/sqrt(d) score scale
        q = np.zeros((1, s, s))
        q[0, :, 0] = 1.0
        k = np.zeros((1, s, s))
        k[0, :, 0] = np.asarray(logits) * np.sqrt(s)
        assert np.all(np.abs(attend(q, k, np.ones((1, s, s))) - 1.0) <= 1e-6)
        # with v = I the output rows are the attention weights themselves
        weights = attend(q, k, np.eye(s)[None])[0, 0]
        assert abs(weights.sum() - 1.0) <= 1e-6
        assert np.all(weights >= 0)
        # strictly positive wherever exp(logit - max) is representable;
        # below the float64 underflow threshold 0.0 is unavoidable
        gap = np.asarray(logits) - max(logits)
        assert np.all(weights[gap > -700] > 0)

    def test_heads_must_divide_channels(self):
        w = np.zeros((6, 6))
        with pytest.raises(T.ShapeError, match="divisible by 4 heads"):
            T.block(*block_inputs(np.zeros((1, 2, 6)), w, w, w, w), heads=4)

    def test_operand_shapes_must_match(self):
        w = np.zeros((4, 4))
        with pytest.raises(T.ShapeError, match=r"\(1, 2, 4\).*\(3, 4\)"):
            T.block(*block_inputs(np.zeros((1, 2, 4)), w, np.zeros((3, 4)), w, w), heads=1)
        for rows in (0, 3):
            with pytest.raises(T.ShapeError, match=rf"1 <= rows <= S .*\(1, 2, 4\) and rows={rows}"):
                T.block(*block_inputs(np.zeros((1, 2, 4)), w, w, w, w), heads=1, rows=rows)
        x, attention, (gamma, beta, w1, b1, _, _) = block_inputs(np.zeros((1, 2, 4)), w, w, w, w)
        with pytest.raises(T.ShapeError, match=r"block needs w1 \[4, hidden\].*\(3, 4\), \(3,\)$"):
            T.block(x, attention, (gamma, beta, w1, b1, t64(np.zeros((3, 4))), t64(np.zeros(3))), 1)
        with pytest.raises(T.ShapeError, match=r"block's residual needs w2 \[hidden, C\] .*\(4, 3\)"):
            T.block(x, attention, (gamma, beta, w1, b1, t64(np.zeros((4, 3))), t64(np.zeros(3))), 1)


# ---------------------------------------------------------------------------
# layer norm

class TestLayerNorm:
    """`_normalize`, the layer norm of block's two branches and of head, and their checks."""

    def test_constant_row_is_zeroed(self):
        assert np.allclose(T._normalize(np.array([[5.0, 5.0, 5.0]]), 1e-6)[0], 0.0)

    def test_two_point_row(self):
        assert T._normalize(np.array([[1.0, 3.0]]), 1e-12)[0][0] == pytest.approx([-1, 1], abs=1e-5)

    def test_random_row_statistics(self):
        out = T._normalize(np.random.default_rng(3).standard_normal((4, 64)), 1e-6)[0]
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-6
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-3

    # norm_attention and norm_mlp: block's first layer norm and its second (see block_op)
    @pytest.mark.parametrize("name", ["norm_mlp", "norm_attention", "head"])
    def test_affine_must_be_channel_vectors(self, name):
        x, gamma, beta = t64(np.zeros((2, 2, 3))), t64(np.ones((1, 3))), t64(np.zeros(3))
        w, b, ones = t64(np.zeros((3, 3))), t64(np.zeros(3)), t64(np.ones(3))
        bad, good = (gamma, beta), (ones, b)
        norm1, norm2 = (bad, good) if name == "norm_attention" else (good, bad)
        op, args = ("head", (x, gamma, beta, w, b, w, b)) if name == "head" else \
            ("block", (x, (*norm1, [(w,)] * 3, w), (*norm2, w, b, w, b), 1))
        with pytest.raises(T.ShapeError, match=rf"{op} needs .*\(2, 2, 3\), \(1, 3\), \(3,\)"):
            getattr(T, op)(*args)


# ---------------------------------------------------------------------------
# activations and the head

def gelu(v):
    """The exact GELU h * Phi(h) at v."""
    return T._gelu(np.array([v], np.float64))[0]


class TestActivation:
    def test_zero(self):
        assert gelu(0.0) == 0.0

    def test_gelu_at_one_matches_gaussian_cdf(self):
        assert gelu(1.0) == pytest.approx(0.841345, abs=1e-6)

    def test_mlp_shape_mismatch_names_shapes(self):
        x, gamma, beta = t64(np.zeros((2, 1, 3))), t64(np.ones(3)), t64(np.zeros(3))
        w1, b1 = t64(np.zeros((3, 4))), t64(np.zeros(4))
        with pytest.raises(T.ShapeError, match=r"head needs .*\(2, 1, 3\), \(3,\), \(3,\), "
                                               r"\(3, 4\), \(4,\), \(5, 2\), \(2,\)"):
            T.head(x, gamma, beta, w1, b1, t64(np.zeros((5, 2))), t64(np.zeros(2)))

    def test_head_reads_n_rows_side_by_side(self):
        x, gamma, beta = t64(np.zeros((2, 2, 3))), t64(np.ones(3)), t64(np.zeros(3))
        w = [t64(np.zeros(s)) for s in [(3, 4), (4,), (4, 2), (2,)]]
        with pytest.raises(T.ShapeError, match=r"head needs w1 \[6, hidden\].*\(3, 4\)"):
            T.head(x, gamma, beta, *w)
        with pytest.raises(T.ShapeError, match=r"head needs x \[B,n,C\], got \(2, 3\)"):
            T.head(t64(np.zeros((2, 3))), gamma, beta, *w)


def phi64(h):
    """The normal CDF (1 + erf(h / sqrt 2)) / 2 in float64, from scipy."""
    return (1.0 + special.erf(np.asarray(h, np.float64) / np.sqrt(2.0))) / 2.0


def layer_norm_oracle(x, gamma, beta, g, eps=1e-6):
    """Float64 layer norm of x and its VJP (dx, dgamma, dbeta) for the
    cotangent g, by the textbook formulas on whole arrays."""
    sd = np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - x.mean(axis=-1, keepdims=True)) / sd
    dxhat = g * gamma
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / sd
    c = x.shape[-1]
    return xhat * gamma + beta, [dx, (g * xhat).reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0)]


def mlp_oracle(x, w1, b1, w2, b2, g):
    """Float64 gelu(x w1 + b1) w2 + b2 and its VJP for the cotangent g,
    with Phi(h) and GELU'(h) from scipy on whole arrays."""
    x2, g2 = x.reshape(-1, w1.shape[0]), g.reshape(-1, w2.shape[1])
    h = x2 @ w1 + b1
    phi = phi64(h)
    gh = (g2 @ w2.T) * (phi + h * np.exp(-h * h / 2.0) / np.sqrt(2.0 * np.pi))
    y = ((h * phi) @ w2 + b2).reshape(x.shape[:-1] + w2.shape[1:])
    return y, [(gh @ w1.T).reshape(x.shape), x2.T @ gh, gh.sum(axis=0), (h * phi).T @ g2,
               g2.sum(axis=0)]


def norm_mlp_oracle(x, gamma, beta, w1, b1, w2, b2, g, mask=None):
    """The unfused composition: layer_norm_oracle, mlp_oracle, then the
    masked residual x + mask * y."""
    m = 1.0 if mask is None else mask
    xn, _ = layer_norm_oracle(x, gamma, beta, np.zeros_like(x))
    y, (gxn, *gw) = mlp_oracle(xn, w1, b1, w2, b2, g * m)
    dx, *gnorm = layer_norm_oracle(x, gamma, beta, gxn)[1]
    return x + m * y, [dx + g, *gnorm, *gw]


def head_oracle(x, gamma, beta, w1, b1, w2, b2, g):
    """Float64 head and its VJP for g: layer_norm_oracle of every row of x [B,n,C], then mlp_oracle."""
    xn, _ = layer_norm_oracle(x, gamma, beta, np.zeros_like(x))
    y, (gxn, *gw) = mlp_oracle(xn.reshape(x.shape[0], -1), w1, b1, w2, b2, g)
    return y, [*layer_norm_oracle(x, gamma, beta, gxn.reshape(x.shape))[1], *gw]


def embed_oracle(patches, w, b, pos, tokens, g):
    """Float64 embed and its VJP for the cotangent g, by whole-array formulas."""
    n = len(tokens)
    y = np.concatenate([np.broadcast_to(tokens, (len(patches), *tokens.shape)),
                        patches @ w + b + pos], axis=1)
    gp = g[:, n:]
    return y, [np.einsum("bld,blc->dc", patches, gp), gp.sum(axis=(0, 1)), gp.sum(axis=0),
               g[:, :n].sum(axis=0)]


def group(weights, latents):
    """q's, k's and v's weights from a flat sequence: (w,) for a full
    projection (latent 0), (down, up) for one through a latent of that size."""
    it = iter(weights)
    return [tuple(next(it) for _ in range(1 if dc == 0 else 2)) for dc in latents]


def attention_shapes(b, s, c, latents):
    """The attention branch's flat input shapes: x, gamma, beta, the q/k/v
    weights in `group` order, wo."""
    return ([(b, s, c), (c,), (c,)]
            + [shape for dc in latents for shape in ([(c, c)] if dc == 0 else [(c, dc), (dc, c)])]
            + [(c, c)])


def block_shapes(b, s, c, latents, hidden):
    """block's flat input shapes: attention_shapes', then the FFN branch's
    gamma, beta, w1, b1, w2 and b2."""
    return attention_shapes(b, s, c, latents) + [(c,), (c,), (c, hidden), (hidden,), (hidden, c), (c,)]


def sample_bytes(s, rows, c, hidden, itemsize=8):
    """What block chunks the batch by: the bytes of a sample's h or of its
    q, k and v, whichever is larger."""
    return max(rows * hidden, (rows + 2 * s) * c) * itemsize


def block_op(heads, latents, masks=(None, None), rows=None):
    """block over block_shapes' flat inputs. The cases below keep the names
    of its two branches: a norm_attention case varies the attention branch
    (heads, latents, rows, per-sample masks), a norm_mlp case the FFN
    branch (widths, per-row masks), each through the whole block."""
    def op(x, gamma, beta, *w):
        *projections, wo = w[:-6]
        return T.block(x, (gamma, beta, group(projections, latents), wo), w[-6:], heads, masks, rows)
    return op


def drop_masks(seed, shape, dtype=np.float64):
    """The two branches' drop_mask constants, from seeds `seed` and `seed` + 1."""
    return tuple(drop_mask(seed + i, shape).astype(dtype) for i in range(2))


def norm_attention_oracle(heads, latents, mask=None, rows=None):
    """Float64 x + mask * attention(layer_norm(x)) @ wo, the attention
    branch, and its VJP for the cotangent g, over attention_shapes' inputs
    then g: layer_norm_oracle, a naive per-sample, per-head attention over
    all S rows by the textbook softmax formulas, then the masked residual.
    With `rows`, the output is each sample's first `rows` rows, and g
    [B,rows,C] is padded with zero rows."""
    def oracle(x, gamma, beta, *w):
        *w, wo, g = w
        m = 1.0 if mask is None else mask
        b, s, c = x.shape
        g = np.concatenate([g, np.zeros((b, s - g.shape[1], c))], axis=1)
        d = c // heads
        xn, _ = layer_norm_oracle(x, gamma, beta, np.zeros_like(x))
        chains = [[xn] for _ in range(3)]     # each projection's input, latent, output
        for chain, ws in zip(chains, group(w, latents)):
            for wi in ws:
                chain.append(chain[-1] @ wi)
        q, k, v = (chain[-1] for chain in chains)
        gy = g * m
        go = gy @ wo.T
        o, dq, dk, dv = (np.zeros_like(x) for _ in range(4))
        for i in range(b):
            for h in range(heads):
                cols = slice(h * d, (h + 1) * d)
                qi, ki, vi, goi = (a[i, :, cols] for a in (q, k, v, go))
                scores = qi @ ki.T / np.sqrt(d)
                p = np.exp(scores - scores.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                o[i, :, cols] = p @ vi
                dp = goi @ vi.T
                ds = p * (dp - (dp * p).sum(axis=1, keepdims=True)) / np.sqrt(d)
                dq[i, :, cols], dk[i, :, cols], dv[i, :, cols] = ds @ ki, ds.T @ qi, p.T @ goi
        gxn, gw = np.zeros_like(x), []
        for chain, ws, gt in zip(chains, group(w, latents), (dq, dk, dv)):
            gchain = []
            for inp, wi in reversed(list(zip(chain, ws))):
                gchain.insert(0, inp.reshape(-1, inp.shape[-1]).T @ gt.reshape(-1, gt.shape[-1]))
                gt = gt @ wi.T
            gw += gchain
            gxn += gt
        dx, *gnorm = layer_norm_oracle(x, gamma, beta, gxn)[1]
        gwo = o.reshape(-1, c).T @ gy.reshape(-1, c)
        return (x + m * (o @ wo))[:, :rows], [dx + g, *gnorm, *gw, gwo]
    return oracle


def block_oracle(heads, latents, masks=(None, None), rows=None):
    """Float64 block and its VJP for the cotangent g, over block_op's inputs
    then g: norm_attention_oracle's forward gives mid, norm_mlp_oracle the
    output and the cotangent of mid, then norm_attention_oracle the rest."""
    attention = norm_attention_oracle(heads, latents, masks[0], rows)

    def oracle(*arrays):
        inputs, ffn, g = arrays[:-7], arrays[-7:-1], arrays[-1]
        mid, _ = attention(*inputs, np.zeros_like(g))
        y, (gmid, *gffn) = norm_mlp_oracle(mid, *ffn, g, mask=masks[1])
        return y, [*attention(*inputs, gmid)[1], *gffn]
    return oracle


def drop_mask(seed, shape):
    """A drop-path-like constant: each entry 0 or 2, at random."""
    return np.where(np.random.default_rng(seed).random(shape) < 0.5, 0.0, 2.0)


def op_and_vjp(op, arrays, g, dtype=np.float64):
    """op's output and its VJP for the cotangent g, through the tape."""
    ins = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
    with Tape() as tape:
        y = op(*ins)
        loss = total(y, g)
    return y.data, backward(loss, tape, ins)


class TestErf:
    """The rational float32 erf, through the normal CDF that the GELU uses."""

    def test_float32_max_abs_error(self):
        grid = np.linspace(-8.0, 8.0, 2_000_001, dtype=np.float32)   # steps of 8e-6, past the clip at +-4
        got = T._normal_cdf(grid)
        assert got.dtype == np.float32
        # half of erf's 1e-6, since Phi = (1 + erf) / 2
        assert np.abs(got.astype(np.float64) - phi64(grid)).max() <= 5e-7

    def test_float32_special_values(self):
        got = T._normal_cdf(np.array([np.inf, -np.inf, np.nan], np.float32))
        assert got[0] == 1.0 and got[1] == 0.0 and np.isnan(got[2])

    def test_row_bits_independent_of_array_size(self):
        # _gelu runs over blocks of _BLOCK elements: a row's Phi, GELU and
        # scaled cotangent are the row's alone, wherever the blocks fall
        rng = np.random.default_rng(0)
        big = rng.normal(0.0, 2.0, (521, 769)).astype(np.float32)
        g = rng.normal(0.0, 1.0, big.shape).astype(np.float32)
        cdf, scaled = T._normal_cdf(big), g.copy()
        gelu = T._gelu(big, scaled)
        edge = T._BLOCK // big.shape[1]  # the row that straddles the first block boundary
        for i in (0, edge, edge + 1, 520):
            assert np.array_equal(T._normal_cdf(big[i]), cdf[i])
            assert np.array_equal(T._normal_cdf(big[i:i + 1]), cdf[i:i + 1])
            row = g[i].copy()
            assert np.array_equal(T._gelu(big[i], row), gelu[i])
            assert np.array_equal(row, scaled[i])
            assert np.array_equal(T._gelu(big[i:i + 1]), gelu[i:i + 1])

    def test_float64_is_scipy_bitwise(self):
        x = np.random.default_rng(1).normal(0.0, 3.0, 300_001)
        assert np.array_equal(T._normal_cdf(x), (special.erf(x * T._INV_SQRT2) + 1.0) * 0.5)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    def test_mlp_across_blocks_matches_oracle(self, dtype, tol):
        # a block whose FFN runs over 3 x 97 rows of 607 hidden units: a full
        # _gelu block and a partial one
        rng = np.random.default_rng(2)
        arrays = [rng.normal(0.0, 1.0, s) / np.sqrt(s[0] if len(s) == 2 else 1)
                  for s in block_shapes(3, 97, 8, (0, 0, 0), 607)]
        r = rng.standard_normal((3, 97, 8))
        y, grads = op_and_vjp(block_op(1, (0, 0, 0)), arrays, r, dtype)
        want_y, want = block_oracle(1, (0, 0, 0))(*arrays, r)
        for g, w in zip([y] + grads, [want_y] + want):
            assert g.dtype == dtype
            assert np.allclose(g, w, rtol=tol, atol=tol * np.abs(w).max())


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

    @pytest.mark.parametrize("off", [1e-3, -1e-3])
    def test_target_row_a_thousandth_off_rejected(self, off):
        # a soft row (MixUp's) summing to 1 +- 1e-3 is refused; 1 +- 1e-6,
        # float32 rounding, is not
        row = np.array([0.6, 0.3, 0.1])
        targets = np.stack([row, row + off / 3])
        with pytest.raises(ValueError, match="target row 1 sums to"):
            T.cross_entropy(t64(np.zeros((2, 3))), targets)
        T.cross_entropy(t64(np.zeros((2, 3))), np.stack([row, row + off / 3000]))

    @pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [2.0, -1.0, 0.0]], ids=["nan", "negative"])
    def test_target_row_outside_simplex_rejected(self, row):
        # both rows pass a sum test: NaN compares false, and 2 - 1 + 0 is 1
        targets = np.array([[0.0, 1.0, 0.0], row])
        with pytest.raises(ValueError, match=r"target row 1 has an entry that is negative or NaN"):
            T.cross_entropy(t64(np.zeros((2, 3))), targets)


# ---------------------------------------------------------------------------
# backward

class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3), grad=True)
        with Tape() as tape:
            [dx] = backward(total(x), tape, [x])
        assert np.array_equal(dx, np.ones((2, 3)))

    def test_matmul_analytic_rule(self):
        # embed's VJP: dW = X^T g and db = column sums over the patch rows,
        # dpos and dtokens the batch sums of their rows of g
        rng = np.random.default_rng(5)
        x, g = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 5, 2))
        ins = [rng.standard_normal(s) for s in [(5, 2), (2,), (4, 2), (1, 2)]]
        _, grads = op_and_vjp(lambda *a: T.embed(x, *a), ins, g)
        assert all(np.allclose(a, b) for a, b in zip(grads, embed_oracle(x, *ins, g)[1]))

    def test_accumulation_over_shared_use(self):
        x = t64([1.0, 2.0], grad=True)
        with Tape() as tape:
            [dx] = backward(add(total(x), total(x)), tape, [x])
        assert np.array_equal(dx, [2.0, 2.0])

    def test_shared_cotangent_not_accumulated_in_place(self):
        # add hands one array to both of its inputs: y's first cotangent is
        # the one x gets, so adding y's second (from yc = y * c, recorded
        # first) into it in place would leak r * c into dx
        rng = np.random.default_rng(9)
        x, y = t64(rng.standard_normal(4), grad=True), t64(rng.standard_normal(4), grad=True)
        c, r = rng.standard_normal(4), rng.standard_normal(4)
        with Tape() as tape:
            yc = T._make(y.data * c, (y,), lambda g: (g * c,))
            u = add(add(x, y), yc)
            dx, dy = backward(total(u, r), tape, [x, y])
        assert np.array_equal(dx, r)
        assert np.array_equal(dy, r + r * c)

    def test_output_dropped_before_its_vjp(self):
        # once backward held the popped node's output while its VJP ran, and
        # the consumer's last input (the same tensor) in its loop variable.
        # Tensor has no weakref slot: its array, which only it holds, stands in
        x = t64([1.0, 2.0], grad=True)
        dead = []
        with Tape() as tape:
            mid = T._make(2.0 * x.data, (x,), lambda g: (dead.append(ref() is None) or 2.0 * g,))
            ref = weakref.ref(mid.data)
            loss = dot(t64(np.ones(2)), mid)
        del mid
        [dx] = backward(loss, tape, [x])
        assert dead == [True]
        assert np.array_equal(dx, [2.0, 2.0])

    def test_unreached_tensor_gets_zeros(self):
        x, unused = t64([1.0, 2.0], grad=True), t64(np.ones((2, 2)), grad=True)
        with Tape() as tape:
            dx, du = backward(total(add(x, x), [1.0, 2.0]), tape, [x, unused])
        assert np.array_equal(dx, [2.0, 4.0])
        assert np.array_equal(du, np.zeros((2, 2)))

    def test_tape_is_consumed(self):
        x = t64([1.0, 2.0], grad=True)
        with Tape() as tape:
            loss = total(x)
        assert len(tape) == 1
        backward(loss, tape, [x])
        assert len(tape) == 0
        with pytest.raises(T.GraphError):
            backward(loss, tape, [x])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], grad=True)
        with Tape() as tape:
            y = add(x, x)
        with pytest.raises(ValueError):
            backward(y, tape, [x])

    def test_off_tape_loss_rejected(self):
        x = t64([1.0], grad=True)
        with Tape():
            pass
        with Tape() as other:
            y = total(x)
        with Tape() as empty:
            pass
        with pytest.raises(T.GraphError):
            backward(y, empty, [x])

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(6)
        w, x = rng.standard_normal((32, 16)), t64(rng.standard_normal((8, 2, 16)))
        rest = [t64(rng.standard_normal(s)) for s in [(16,), (16,), (16,), (16, 4), (4,)]]
        grads = []
        for wt in (t64(w.copy(), grad=True) for _ in range(2)):
            with Tape() as tape:
                out = total(T.head(x, *rest[:2], wt, *rest[2:]))
            grads += backward(out, tape, [wt])
        assert np.array_equal(grads[0], grads[1])

    def test_three_block_composite_matches_finite_differences(self):
        # embed, a block with a latent k returning the one CLS row, then
        # head; fan-in scaled
        params = random_inputs(7, (5, 8), (8,), (3, 8), (1, 8), (8,), (8,), (8, 8), (8, 3), (3, 8),
                               (8, 8), (8,), (8,), (8, 8), (8,), (8, 4), (4,),
                               (8,), (8,), (8, 16), (16,), (16, 8), (8,))
        for p in params:
            p.data /= np.sqrt(p.shape[0])
        we, be, pos, tok, g1, b1, q1, k1, k2, o1, *rest = params
        head, ffn = rest[:6], rest[6:]
        x = np.random.default_rng(8).standard_normal((2, 3, 5))

        def f():
            h = T.embed(x, we, be, pos, tok)
            h = T.block(h, (g1, b1, [(q1,), (k1, k2), (q1,)], o1), ffn, heads=2, rows=1)
            return T.cross_entropy(T.head(h, *head), np.full((2, 4), 0.25))

        assert grad_check(f, params, h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# grad_check harness

def bad_square(a):
    """a * a with its VJP doubled: 4 a g."""
    return T._make(a.data * a.data, (a,), lambda g: (4.0 * a.data * g,))


class TestGradCheck:
    def test_quadratic_near_exact(self):
        x = t64([1.0, 2.0, 3.0], grad=True)
        err = grad_check(lambda: dot(x, x), [x], h=1e-5)
        assert err < 1e-8

    def test_detects_planted_backward_bug(self):
        # square op whose backward rule is doubled: reports 2x grad
        x = t64([1.0, 2.0, 3.0], grad=True)
        err = grad_check(lambda: total(bad_square(x)), [x], h=1e-5)
        # |2g - g| / max(2g, g) = 0.5 under the implemented error formula
        assert err > 1e-2
        assert err == pytest.approx(0.5, abs=1e-4)

    def test_rounding_floor_hides_no_wrong_gradient(self):
        # f = 1000 + x^2 at x = 1e-9: rounding 1000 +- 1e-10 moves the
        # central difference by about eps * 1000 / h = 2e-8, ten times the
        # true gradient 2e-9; only the error above that floor counts. A
        # doubled VJP on the same f is still caught.
        x = t64([1e-9], grad=True)
        offset = t64(1000.0)
        assert grad_check(lambda: add(dot(x, x), offset), [x], h=1e-5) == 0.0
        y = t64([0.5], grad=True)
        assert grad_check(lambda: add(total(bad_square(y)), offset), [y], h=1e-5) > 0.49

    def test_rejects_non_scalar(self):
        x = t64([1.0, 2.0], grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: add(x, x), [x])

    def test_coordinate_subsampling(self):
        x = t64(np.linspace(0.1, 1.0, 50), grad=True)
        err = grad_check(lambda: dot(x, x), [x], h=1e-5, max_coords=7,
                         rng=np.random.default_rng(0))
        assert err < 1e-8


# ---------------------------------------------------------------------------
# VJPs against finite differences over random shapes

def cotangent_error(op, inputs, seed):
    """grad_check of sum(op(*inputs) * r) for a fixed random cotangent r."""
    r = np.random.default_rng(seed).standard_normal(op(*inputs).shape)
    return grad_check(lambda: total(op(*inputs), r), list(inputs), h=1e-5)


def random_inputs(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [t64(rng.standard_normal(shape), grad=True) for shape in shapes]


def fan_in_scaled(inputs):
    """`inputs` with each matrix divided by the square root of its fan-in,
    in place, as grad_check_point scales the model's: the attention logits
    and h stay O(1). At unscaled standard-normal points a block's central
    differences read above 1e-4 on a correct VJP at about one point in 25,
    with its FFN branch silenced too (a coordinate's gradient near 1e-7)."""
    for p in inputs:
        if p.ndim == 2:
            p.data /= np.sqrt(p.shape[0])
    return inputs


VJP_SETTINGS = settings(max_examples=30, derandomize=True, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)
extents = st.integers(1, 4)
latent_sets = st.tuples(*[st.integers(0, 3)] * 3)   # 0: a full projection


class TestVjpProperties:
    @given(b=extents, length=extents, d=extents, c=extents, n=st.integers(0, 3), seed=seeds)
    @VJP_SETTINGS
    def test_embed(self, b, length, d, c, n, seed):
        op, _, shapes = op_case("embed", (b, length), c, d, n)
        assert cotangent_error(op, random_inputs(seed, *shapes), seed + 1) < 1e-4

    @given(b=st.integers(1, 3), s=st.integers(1, 5), heads=st.integers(1, 3), d=extents,
           hidden=extents, latents=latent_sets, masked=st.booleans(), seed=seeds, data=st.data())
    @VJP_SETTINGS
    def test_norm_attention(self, b, s, heads, d, hidden, latents, masked, seed, data):
        masks = drop_masks(seed + 2, (b, 1, 1)) if masked else (None, None)
        rows = data.draw(st.integers(1, s), label="rows")
        inputs = fan_in_scaled(random_inputs(seed, *block_shapes(b, s, heads * d, latents, hidden)))
        err = cotangent_error(block_op(heads, latents, masks, rows), inputs, seed + 1)
        assert err < 1e-4

    # a row of one or two channels normalizes to a constant, so its dx is
    # all rounding; the numpy oracle covers those widths
    @given(b=extents, s=extents, c=st.integers(3, 5), hidden=extents, n=extents, seed=seeds)
    @VJP_SETTINGS
    def test_head(self, b, s, c, hidden, n, seed):
        op, _, shapes = op_case("head", (b, s), c, hidden, n)
        inputs = random_inputs(seed, *shapes)
        inputs[3].data /= np.sqrt(shapes[3][0])   # w1 fan-in scaled: no GELU deep in its tail
        assert cotangent_error(op, inputs, seed + 1) < 1e-4


# ---------------------------------------------------------------------------
# the stem, the block and the head against numpy oracles

def grid(lead):
    """[B,S]: lead padded with ones."""
    return (*lead, 1, 1)[:2]


def op_case(name, lead, c, hidden, n, masks=(None, None)):
    """(op, oracle, input shapes) of norm_mlp, a block with one head and full projections
    over x [B,S,c], `hidden` FFN units and `masks`, of head over x [B,n,c] into 3 classes,
    or of embed with n tokens in front of constant patch rows [B,S,hidden]; [B,S] is
    grid(lead)."""
    norm = [(c,), (c,)]
    b, s = grid(lead)
    if name == "norm_mlp":
        return (block_op(1, (0, 0, 0), masks), block_oracle(1, (0, 0, 0), masks),
                block_shapes(b, s, c, (0, 0, 0), hidden))
    if name == "head":
        return (T.head, head_oracle, [(b, n, c)] + norm + [(n * c, hidden), (hidden,), (hidden, 3), (3,)])
    patches = np.random.default_rng(n).standard_normal((b, s, hidden))
    return (lambda *a: T.embed(patches, *a), lambda *a: embed_oracle(patches, *a),
            [(hidden, c), (c,), (s, c), (n, c)])


def oracle_error(op, oracle, shapes, seed):
    """Max error of `op`'s output and VJP, in float64, against its numpy
    oracle at random inputs of `shapes` and a random cotangent, relative to
    each array's largest entry or 1 if that is smaller (rows of one or two
    channels normalize to constants, so their dx is O(eps) and all
    rounding)."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    r = rng.standard_normal(op(*[t64(a) for a in arrays]).shape)
    y, grads = op_and_vjp(op, arrays, r)
    want_y, want = oracle(*arrays, r)
    return max(np.abs(g - w).max() / max(np.abs(w).max(), 1.0)
               for g, w in zip([y] + grads, [want_y] + want))


class TestOracleVjp:
    # a per-row mask in each branch, as a [B,S,1] constant
    @given(name=st.sampled_from(["norm_mlp", "head", "embed"]),
           lead=st.lists(st.integers(1, 3), max_size=2), c=st.integers(1, 8),
           hidden=st.integers(1, 8), n=st.integers(1, 3), masked=st.booleans(), seed=seeds)
    @VJP_SETTINGS
    def test_matches_numpy_oracle(self, name, lead, c, hidden, n, masked, seed):
        masks = drop_masks(seed + 2, (*grid(lead), 1)) if masked else (None, None)
        assert oracle_error(*op_case(name, lead, c, hidden, n, masks), seed) < 1e-10

    @given(b=st.integers(1, 3), s=st.integers(1, 5), heads=st.integers(1, 3), d=extents,
           hidden=extents, latents=latent_sets, masked=st.booleans(), seed=seeds, data=st.data())
    @VJP_SETTINGS
    def test_norm_attention_matches_numpy_oracle(self, b, s, heads, d, hidden, latents, masked,
                                                 seed, data):
        masks = drop_masks(seed + 2, (b, 1, 1)) if masked else (None, None)
        rows = data.draw(st.integers(1, s), label="rows")
        err = oracle_error(block_op(heads, latents, masks, rows),
                           block_oracle(heads, latents, masks, rows),
                           block_shapes(b, s, heads * d, latents, hidden), seed)
        assert err < 1e-10

    def test_norm_mlp_is_layer_norm_then_mlp_bitwise_forward(self):
        # with wo zero the attention branch adds zeros, so mid is x, bit for bit
        rng = np.random.default_rng(12)
        x, gamma, beta = (t64(rng.standard_normal(s)) for s in [(2, 5, 6), (6,), (6,)])
        ffn = [t64(rng.standard_normal(s)) for s in [(6, 24), (24,), (24, 6), (6,)]]
        attention = (t64(np.ones(6)), t64(np.zeros(6)),
                     [(t64(rng.standard_normal((6, 6))),) for _ in range(3)], t64(np.zeros((6, 6))))
        fused = T.block(x, attention, (gamma, beta, *ffn), heads=2).data
        xn = T._affine(T._normalize(x.data, 1e-6)[0], gamma, beta).reshape(-1, 6)
        assert fused.tobytes() == (x.data + T._mlp_forward(xn, *ffn).reshape(x.shape)).tobytes()


def _norm_vjp_without_mean_term(xhat, inv, gamma, g, out=None):
    """A planted bug: layer norm's dx without its - mean(g gamma) term."""
    dx, dgamma, dbeta = _REAL_NORM_VJP(xhat, inv, gamma, g, out)
    dx += inv * (g * gamma.data).mean(axis=-1, keepdims=True)
    return dx, dgamma, dbeta


def _gelu_with_phi_as_derivative(h, gh=None, out=None):
    """A planted bug: GELU'(h) taken as Phi(h), without the h pdf(h) term."""
    a = _REAL_GELU(h, out=out)
    if gh is not None:
        gh *= T._normal_cdf(h)
    return a


def _softmax_vjp_without_rowsum(dp, p):
    """A planted bug: dS taken as P * dP, without the - rowsum(dP * P) term."""
    dp *= p
    return dp


def _residual_vjp_without_g(xhat, inv, gamma, gxn, g, out=None):
    """A planted bug: the residual's + g left out of dx."""
    return T._norm_vjp(xhat, inv, gamma, gxn, out)


def _gelu_hidden_without_b1(x2, w1, b1, gh=None):
    """A planted bug: the VJP rebuilds h as x2 w1, without b1."""
    return _REAL_GELU_HIDDEN(x2, w1, b1 if gh is None else t64(np.zeros(b1.shape)), gh)


def _weights_without_row_max(qs, kh, m, l, rebuild=False):
    """A planted bug: the VJP rebuilds P as exp(q k^T) / l, without the kept
    row max m."""
    return _REAL_WEIGHTS(qs, kh, np.zeros_like(m) if rebuild else m, l, rebuild)


_REAL_NORM_VJP, _REAL_GELU = T._norm_vjp, T._gelu
_REAL_GELU_HIDDEN, _REAL_WEIGHTS = T._gelu_hidden, T._attention_weights
PLANTED_CASES = {
    # block over per-row masks as op_case's norm_mlp, and over per-sample masks with two heads
    "norm_mlp": op_case("norm_mlp", (3, 4), 6, 8, 2, drop_masks(5, (3, 4, 1))),
    "head": op_case("head", (3, 4), 6, 8, 2),
    "norm_attention": (block_op(2, (0, 2, 0), drop_masks(5, (2, 1, 1))),
                       block_oracle(2, (0, 2, 0), drop_masks(5, (2, 1, 1))),
                       block_shapes(2, 4, 6, (0, 2, 0), 8)),
    # two of the four query rows, through a latent q
    "norm_attention-rows": (block_op(2, (2, 2, 0), drop_masks(5, (2, 1, 1)), rows=2),
                            block_oracle(2, (2, 2, 0), drop_masks(5, (2, 1, 1)), rows=2),
                            block_shapes(2, 4, 6, (2, 2, 0), 8)),
}


def planted_errors(name):
    """(oracle error, finite-difference error) of PLANTED_CASES[name] with
    the helpers as they are now; a block case's matrices are fan-in scaled."""
    op, oracle, shapes = PLANTED_CASES[name]
    inputs = random_inputs(3, *shapes)
    if name != "head":
        fan_in_scaled(inputs)
    return oracle_error(op, oracle, shapes, seed=3), cotangent_error(op, inputs, 4)


# with no bug planted the errors are the same for every bug: taken once a case
clean_planted_errors = functools.cache(planted_errors)


class TestPlantedVjpBugs:
    """The float64 finite-difference grad_check and the numpy oracle pass
    each op, and each must fail when a planted bug breaks its VJP."""

    @pytest.mark.parametrize("name, helper, planted", [
        ("head", "_norm_vjp", _norm_vjp_without_mean_term),
        ("norm_mlp", "_norm_vjp", _norm_vjp_without_mean_term),
        ("norm_mlp", "_gelu", _gelu_with_phi_as_derivative),
        ("head", "_gelu", _gelu_with_phi_as_derivative),
        ("norm_mlp", "_residual_vjp", _residual_vjp_without_g),
        ("norm_attention", "_softmax_vjp", _softmax_vjp_without_rowsum),
        ("norm_attention", "_residual_vjp", _residual_vjp_without_g),
        ("norm_mlp", "_gelu_hidden", _gelu_hidden_without_b1),
        ("head", "_gelu_hidden", _gelu_hidden_without_b1),
        ("norm_attention", "_attention_weights", _weights_without_row_max),
        ("norm_attention-rows", "_softmax_vjp", _softmax_vjp_without_rowsum),
        ("norm_attention-rows", "_residual_vjp", _residual_vjp_without_g),
        ("norm_attention-rows", "_attention_weights", _weights_without_row_max),
    ], ids=["head-norm", "norm_mlp-norm", "norm_mlp-gelu", "head-gelu", "norm_mlp-residual",
            "norm_attention-softmax", "norm_attention-residual", "norm_mlp-rebuilt-h",
            "head-rebuilt-h", "norm_attention-rebuilt-p", "norm_attention-rows-softmax",
            "norm_attention-rows-residual", "norm_attention-rows-rebuilt-p"])
    def test_planted_bug_is_caught(self, name, helper, planted, monkeypatch):
        oracle, fd = clean_planted_errors(name)
        assert oracle < 1e-10
        assert fd < 1e-6
        monkeypatch.setattr(T, helper, planted)
        oracle, fd = planted_errors(name)
        assert oracle > 1e-2
        assert fd > 1e-2


class TestRebuildBits:
    """In float32, every array a VJP rebuilds from what its node keeps is
    bitwise the forward's: block's q, k and v with any latent's first stage
    (_project) and each sub-chunk's P (_attention_weights), and the
    pre-activation h of block and head (_gelu_hidden's input to _gelu).
    With all 65 query rows the batch spans three P sub-chunks."""

    @staticmethod
    def record(monkeypatch) -> dict[str, list]:
        """The row count of each input to _project with copies of the
        (first, out) it returns, of each P, and of each h entering the GELU,
        tagged by whether the VJP computed it, in call order."""
        seen = {"project": [], "p": [], "h": []}
        real_project, real_weights, real_gelu = T._project, T._attention_weights, T._gelu

        def project(xn, proj):
            first, out = real_project(xn, proj)
            seen["project"].append((len(xn), first.copy(), out.copy()))
            return first, out

        def weights(qs, kh, m, l, rebuild=False):
            p = real_weights(qs, kh, m, l, rebuild)
            seen["p"].append((rebuild, p.copy()))
            return p

        def gelu(h, gh=None, out=None):
            seen["h"].append((gh is not None, h.copy()))
            return real_gelu(h, gh, out)

        for name, fn in (("_project", project), ("_attention_weights", weights), ("_gelu", gelu)):
            monkeypatch.setattr(T, name, fn)
        return seen

    def run(self, op, shapes, out_shape, monkeypatch) -> dict[str, list]:
        """What record() saw over op's float32 forward and VJP at random inputs."""
        rng = np.random.default_rng(2)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        seen = self.record(monkeypatch)
        op_and_vjp(op, arrays, rng.standard_normal(out_shape), dtype=np.float32)
        return seen

    @staticmethod
    def assert_rebuilt_bitwise(tagged):
        forward = [a for rebuilt, a in tagged if not rebuilt]
        rebuilt = [a for was_rebuilt, a in tagged if was_rebuilt]
        assert forward and len(rebuilt) == len(forward)
        assert all(a.dtype == np.float32 and a.tobytes() == b.tobytes()
                   for a, b in zip(forward, rebuilt))

    @pytest.mark.parametrize("latents, rows, chunks", [
        ((0, 0, 0), None, 3), ((8, 0, 12), None, 3), ((0, 0, 0), 40, 2), ((8, 0, 12), 40, 2),
        ((0, 0, 0), 2, 1), ((8, 0, 12), 2, 1),
    ], ids=["full", "latent", "full-40-rows", "latent-40-rows", "full-2-rows", "latent-2-rows"])
    @pytest.mark.parametrize("masked", [False, True], ids=["whole", "drop-path"])
    def test_norm_attention(self, latents, rows, chunks, masked, monkeypatch):
        b, s, c, heads = 16, 65, 64, 4        # 7 samples per sub-chunk at 65 rows: 7, 7, 2
        masks = drop_masks(1, (b, 1, 1), np.float32) if masked else (None, None)
        seen = self.run(block_op(heads, latents, masks, rows),
                        block_shapes(b, s, c, latents, c), (b, rows or s, c), monkeypatch)
        # q from each sample's first rows, then k and v from all S; the forward's, then the VJP's
        assert [count for count, _, _ in seen["project"]] == [b * (rows or s), b * s, b * s] * 2
        forward, rebuilt = seen["project"][:3], seen["project"][3:]
        assert [(first.tobytes(), out.tobytes()) for _, first, out in forward] == \
            [(first.tobytes(), out.tobytes()) for _, first, out in rebuilt]
        assert [was_rebuilt for was_rebuilt, _ in seen["p"]] == [False] * chunks + [True] * chunks
        self.assert_rebuilt_bitwise(seen["p"])
        assert [was_rebuilt for was_rebuilt, _ in seen["h"]] == [False, True]
        self.assert_rebuilt_bitwise(seen["h"])

    @pytest.mark.parametrize("name, masked", [("norm_mlp", False), ("norm_mlp", True),
                                              ("head", False)])
    def test_hidden(self, name, masked, monkeypatch):
        masks = drop_masks(1, (4, 9, 1), np.float32) if masked else (None, None)
        op, _, shapes = op_case(name, (4, 9), 8, 16, 3, masks)
        seen = self.run(op, shapes, (4, 3) if name == "head" else (4, 9, 8), monkeypatch)
        assert [was_rebuilt for was_rebuilt, _ in seen["h"]] == [False, True]
        self.assert_rebuilt_bitwise(seen["h"])

    # the cases above fit one chunk of the _CHUNK budget; these span two or three

    @pytest.mark.parametrize("latents", [(0, 0, 0), (8, 0, 12)], ids=["full", "latent"])
    @pytest.mark.parametrize("rows", [None, 2], ids=["all-rows", "2-rows"])
    @pytest.mark.parametrize("masked", [False, True], ids=["whole", "drop-path"])
    def test_norm_attention_across_chunks(self, latents, rows, masked, monkeypatch):
        # an FFN of c hidden units, so q, k and v size the chunks
        s, c, heads = 65, 64, 4
        b = 2 * (T._CHUNK // (3 * s * c * 4)) + 3     # three chunks at all 65 query rows
        masks = drop_masks(1, (b, 1, 1), np.float32) if masked else (None, None)
        seen = self.run(block_op(heads, latents, masks, rows),
                        block_shapes(b, s, c, latents, c), (b, rows or s, c), monkeypatch)
        counts = [count for count, _, _ in seen["project"]]
        half = len(counts) // 2
        # per chunk q from each sample's first rows, then k and v from all S: the
        # forward's chunks, then the VJP's, the same
        samples = [count // s for count in counts[1:half:3]]
        assert len(samples) >= 2 and sum(samples) == b and max(samples) - min(samples) <= 1
        assert counts == [k * count for k in samples for count in (rows or s, s, s)] * 2
        forward, rebuilt = seen["project"][:half], seen["project"][half:]
        assert [(first.tobytes(), out.tobytes()) for _, first, out in forward] == \
            [(first.tobytes(), out.tobytes()) for _, first, out in rebuilt]
        self.assert_rebuilt_bitwise(seen["p"])
        assert [len(h) for _, h in seen["h"]] == [k * (rows or s) for k in samples] * 2
        self.assert_rebuilt_bitwise(seen["h"])

    @pytest.mark.parametrize("masked", [False, True], ids=["whole", "drop-path"])
    def test_norm_mlp_across_chunks(self, masked, monkeypatch):
        # three chunks of samples sized by h, under a per-sample mask in each branch
        c, hidden, s = 16, 256, 9
        b = 2 * (T._CHUNK // sample_bytes(s, s, c, hidden, 4)) + 3
        masks = drop_masks(1, (b, 1, 1), np.float32) if masked else (None, None)
        op, _, shapes = op_case("norm_mlp", (b, s), c, hidden, 3, masks)
        seen = self.run(op, shapes, (b, s, c), monkeypatch)
        chunks = len(seen["h"]) // 2
        assert chunks >= 2 and [was_rebuilt for was_rebuilt, _ in seen["h"]] == \
            [False] * chunks + [True] * chunks
        assert sum(len(h) for _, h in seen["h"][:chunks]) == b * s
        self.assert_rebuilt_bitwise(seen["h"])


class TestChunks:
    """block cuts the batch into the fewest even chunks of samples within
    _CHUNK bytes of h or of q, k and v, whichever is larger, and is exact
    across chunk boundaries: under a budget of one to three samples, the
    float64 oracles and finite differences still hold."""

    @pytest.mark.parametrize("count, item_bytes", [
        (0, 8), (1, 8), (2080, 768 * 4), (32, 195 * 192 * 4), (8320, 768 * 4), (5, 2 ** 40),
        (3 * (T._CHUNK // 8) + 1, 8)],
        ids=["empty", "one", "paper-h", "paper-qkv", "paper-h-bs128", "item-past-budget",
             "just-past-three"])
    def test_fewest_even_slices_within_budget(self, count, item_bytes):
        chunks = T._chunks(count, item_bytes)
        most = max(1, T._CHUNK // item_bytes)
        sizes = [sl.stop - sl.start for sl in chunks]
        assert chunks[0].start == 0 and chunks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        assert len(chunks) == max(1, -(-count // most))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1

    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=2), c=st.integers(3, 6),
           hidden=st.integers(1, 6), per=st.integers(1, 3), masked=st.booleans(), seed=seeds)
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_norm_mlp(self, lead, c, hidden, per, masked, seed):
        masks = drop_masks(seed + 2, (*grid(lead), 1)) if masked else (None, None)
        op, oracle, shapes = op_case("norm_mlp", lead, c, hidden, 1, masks)
        s = grid(lead)[1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(T, "_CHUNK", per * sample_bytes(s, s, c, hidden))    # `per` samples
            assert oracle_error(op, oracle, shapes, seed) < 1e-10
            assert cotangent_error(op, fan_in_scaled(random_inputs(seed, *shapes)), seed + 1) < 1e-4

    @given(b=st.integers(2, 4), s=st.integers(1, 4), heads=st.integers(1, 2), d=st.integers(1, 3),
           hidden=extents, latents=latent_sets, per=st.integers(1, 2), masked=st.booleans(),
           seed=seeds, data=st.data())
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_norm_attention(self, b, s, heads, d, hidden, latents, per, masked, seed, data):
        masks = drop_masks(seed + 2, (b, 1, 1)) if masked else (None, None)
        rows = data.draw(st.integers(1, s), label="rows")
        op = block_op(heads, latents, masks, rows)
        shapes = block_shapes(b, s, heads * d, latents, hidden)
        with pytest.MonkeyPatch.context() as patch:
            # `per` samples
            patch.setattr(T, "_CHUNK", per * sample_bytes(s, rows, heads * d, hidden))
            assert oracle_error(op, block_oracle(heads, latents, masks, rows), shapes,
                                seed) < 1e-10
            assert cotangent_error(op, fan_in_scaled(random_inputs(seed, *shapes)), seed + 1) < 1e-4


class TestLanes:
    """With lanes, block cuts the batch into a multiple of LANES chunks of
    at most _CHUNK / LANES bytes and runs them through the map it is handed
    (in train, the map of _run_shards' pool, the only pool), forward and
    VJP, with the bits of a serial walk of the same partition; a block on
    any other thread keeps the serial partition."""

    @pytest.mark.parametrize("count, item_bytes", [
        (0, 8), (1, 8), (3, 2 ** 40), (2080, 768 * 4), (32, 195 * 192 * 4), (32, 131 * 192 * 4),
        (5 * (T._CHUNK // 16) - 1, 8)],
        ids=["empty", "one", "items-past-budget", "paper-h", "paper-qkv", "paper-cls-qkv",
             "just-under-five"])
    def test_partition(self, count, item_bytes):
        chunks = T._chunks(count, item_bytes, T.LANES)
        most = max(1, T._CHUNK // T.LANES // item_bytes)
        sizes = [sl.stop - sl.start for sl in chunks]
        assert chunks[0].start == 0 and chunks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        fewest = max(1, -(-count // most))
        assert len(chunks) == min(-(-fewest // T.LANES) * T.LANES, max(count, 1))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1

    # (op, input shapes, cotangent shape, samples the op chunks, bytes of one) at b = 10
    # samples: norm_mlp is one head over two rows a sample, whose h sizes the chunks
    @staticmethod
    def case(name, dtype, masked):
        b, s, c, hidden, heads = 10, 5, 8, 12, 2
        masks = drop_masks(1, (b, 1, 1), dtype) if masked else (None, None)
        size = np.dtype(dtype).itemsize
        if name == "norm_mlp":
            op, _, shapes = op_case("norm_mlp", (b, 2), c, hidden, 1, masks)
            return op, shapes, (b, 2, c), b, sample_bytes(2, 2, c, hidden, size)
        latents, rows = ((3, 0, 2), 2) if name == "norm_attention-latent-rows" else ((0, 0, 0), None)
        return (block_op(heads, latents, masks, rows), block_shapes(b, s, c, latents, hidden),
                (b, rows or s, c), b, sample_bytes(s, rows or s, c, hidden, size))

    @staticmethod
    def watch_chunks(monkeypatch) -> list:
        """(thread, samples) of each chunk a block's forward normalizes from
        now on, in call order: twice a chunk, x's rows and then mid's."""
        seen, real = [], T._normalize

        def normalize(x, eps):
            seen.append((threading.get_ident(), len(x)))
            return real(x, eps)

        monkeypatch.setattr(T, "_normalize", normalize)
        return seen

    def walk(self, op, shapes, out_shape, dtype, run):
        """op's output and VJP at seeded inputs under lanes that run through
        `run` (the builtin map, or a pool's), at one BLAS thread, and
        (thread, rows) of each chunk its forward normalized."""
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        g = rng.standard_normal(out_shape)
        with pytest.MonkeyPatch.context() as patch, TR._one_blas_thread(), T.lanes(run):
            seen = self.watch_chunks(patch)
            out, grads = op_and_vjp(op, arrays, g, dtype=dtype)
        return [out, *grads], seen

    @pytest.mark.parametrize("name", ["norm_mlp", "norm_attention", "norm_attention-latent-rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("masked", [False, True], ids=["whole", "drop-path"])
    @pytest.mark.parametrize("chunks", [2, 3, 5])
    def test_bits_of_a_serial_walk(self, name, dtype, masked, chunks, monkeypatch):
        op, shapes, out_shape, count, item = self.case(name, dtype, masked)
        # a budget of `per` items a lane chunk: `chunks` chunks, rounded up to a multiple of LANES
        per = -(-count // chunks)
        monkeypatch.setattr(T, "_CHUNK", T.LANES * per * item)
        want = [sl.stop - sl.start for sl in T._chunks(count, item, T.LANES)]
        assert len(want) == -(-chunks // T.LANES) * T.LANES
        serial, seen_serial = self.walk(op, shapes, out_shape, dtype, map)
        with ThreadPoolExecutor(2) as pool:
            laned, seen_laned = self.walk(op, shapes, out_shape, dtype, pool.map)
        main = threading.get_ident()
        assert seen_serial == [(main, n) for n in want for _ in range(2)]
        assert sorted(n for _, n in seen_laned) == sorted(want * 2)
        assert main not in {thread for thread, _ in seen_laned}
        assert [a.dtype for a in laned] == [np.dtype(dtype)] * len(laned)
        assert [a.tobytes() for a in laned] == [a.tobytes() for a in serial]

    def test_bits_hold_under_a_short_switch_interval(self, monkeypatch):
        # the lanes hand the interpreter lock back and forth every microsecond,
        # over 6 chunks of single samples and 10 runs: a chunk that wrote
        # outside its slices, or a sum taken in finishing order, would show
        op, shapes, out_shape, items, item = self.case("norm_attention", np.float32, True)
        monkeypatch.setattr(T, "_CHUNK", T.LANES * 2 * item)
        assert len(T._chunks(items, item, T.LANES)) == 6
        want, _ = self.walk(op, shapes, out_shape, np.float32, map)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                runs = [self.walk(op, shapes, out_shape, np.float32, pool.map)[0]
                        for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        for got in runs:
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_lane_exception_reaches_the_caller(self, monkeypatch):
        # a one-shard run's lanes: the error of a chunk's GELU comes out of
        # _run_shards, and the BLAS count from before is back
        count = [3]   # a stand-in OpenBLAS whose thread count is this cell
        monkeypatch.setattr(TR, "_openblas", lambda: TR._OpenBlas(
            lambda: count[0], lambda n: count.__setitem__(0, n)))
        monkeypatch.setattr(TR, "_usable_cpus", lambda: 2)
        op, shapes, out_shape, items, item = self.case("norm_mlp", np.float32, False)
        monkeypatch.setattr(T, "_CHUNK", T.LANES * 3 * item)    # 4 chunks of 2 or 3 samples
        assert len(T._chunks(items, item, T.LANES)) == 4
        failed = []

        def gelu(h, gh=None, out=None):
            failed.append((threading.get_ident(), count[0]))
            raise RuntimeError("lane failed")

        monkeypatch.setattr(T, "_gelu", gelu)
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        with pytest.raises(RuntimeError, match="lane failed"):
            TR._run_shards(lambda _: op_and_vjp(op, arrays, np.ones(out_shape), np.float32), 1)
        assert failed and threading.get_ident() not in {thread for thread, _ in failed}
        assert {blas for _, blas in failed} == {1}
        assert count == [3] and getattr(T._tls, "lanes", None) is None

    def test_shard_threads_keep_the_serial_partition(self, monkeypatch):
        # blocks of _run_shards' shard threads, and of a thread that another
        # thread's lanes do not cover, run the serial chunks one after another
        op, shapes, out_shape, items, item = self.case("norm_attention", np.float32, True)
        monkeypatch.setattr(T, "_CHUNK", 4 * item)    # 3 serial chunks; the lanes would cut 6
        serial = [sl.stop - sl.start for sl in T._chunks(items, item)]
        assert len(serial) == 3 and len(T._chunks(items, item, T.LANES)) == 6
        serial = [n for n in serial for _ in range(2)]   # two layer norms a chunk
        seen = self.watch_chunks(monkeypatch)
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(shape) for shape in shapes]

        def run(_=None):
            return op_and_vjp(op, arrays, np.ones(out_shape), np.float32)

        TR._run_shards(run, 2)
        sharded = seen[:]
        seen.clear()
        with T.lanes(map), ThreadPoolExecutor(1) as pool:
            pool.submit(run).result(timeout=60)
        assert [n for _, n in seen] == serial and seen[0][0] != threading.get_ident()
        assert threading.get_ident() not in {thread for thread, _ in sharded}
        # each shard thread ran one or both shards
        assert sorted(n for _, n in sharded) == sorted(serial * 2)
        for thread in {thread for thread, _ in sharded}:
            assert [n for t, n in sharded if t == thread] in (serial, serial * 2)
