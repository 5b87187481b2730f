"""Model ops against independent oracles: patchify index mapping, naive
attention loops, SVD factorization, finite differences."""

import dataclasses
import math
import tracemalloc
import typing
import zlib

import numpy as np
import pytest
from scipy.special import erf

from tinyvitlab import model as M
from tinyvitlab import tensor as T
from tinyvitlab.tensor import Tensor, grad_check, cross_entropy


def tiny_config(variant="none", d_c=8, n_cls=1, **kw):
    return M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=2,
                         num_cls_tokens=n_cls, mla=M.MlaConfig(variant, d_c), **kw)


def make_attn_params(cfg, rng, dtype=np.float64, prefix="blk"):
    """Block `prefix`'s attention-branch parameters: norm1 with a fixed
    non-trivial affine (drawing nothing from rng), then q, k, v and o."""
    c, dc = cfg.embed_dim, cfg.mla.d_c
    compressed = cfg.mla.compressed()
    params = {f"{prefix}.norm1.gamma": Tensor(np.linspace(0.5, 1.5, c), requires_grad=True, dtype=dtype),
              f"{prefix}.norm1.beta": Tensor(np.linspace(-0.2, 0.2, c), requires_grad=True, dtype=dtype)}
    for proj in ("q", "k", "v"):
        if proj in compressed:   # drawn [out, in] and stored transposed, as init_params does
            drawn = {"down": M.trunc_normal(rng, (dc, c), dtype=dtype).T.copy(),
                     "up": M.trunc_normal(rng, (c, dc), dtype=dtype).T.copy()}
        else:
            drawn = {"weight": M.trunc_normal(rng, (c, c), dtype=dtype)}
        for name, arr in drawn.items():
            params[f"{prefix}.attn.{proj}.{name}"] = Tensor(arr * 10, requires_grad=True)
    params[f"{prefix}.attn.o.weight"] = Tensor(
        M.trunc_normal(rng, (c, c), dtype=dtype) * 10, requires_grad=True)
    return params


def effective_projection(params, prefix):
    """The projection as one [C_in, C_out] matrix (down @ up when factored)."""
    if f"{prefix}.weight" in params:
        return params[f"{prefix}.weight"].data
    return params[f"{prefix}.down"].data @ params[f"{prefix}.up"].data


def norm1(x, params, prefix="blk"):
    """Float64 layer norm of the rows of x with block `prefix`'s norm1 affine."""
    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
    return xhat * params[f"{prefix}.norm1.gamma"].data + params[f"{prefix}.norm1.beta"].data


def attention_oracle(x, params, cfg, prefix="blk"):
    """The attention branch with its residual, x + attention(norm1(x)): a
    float64 layer norm, then a naive per-head loop with explicit Q/K/V
    materialization and a scalar softmax."""
    h, dk = cfg.num_heads, cfg.embed_dim // cfg.num_heads
    wq = effective_projection(params, f"{prefix}.attn.q")
    wk = effective_projection(params, f"{prefix}.attn.k")
    wv = effective_projection(params, f"{prefix}.attn.v")
    wo = params[f"{prefix}.attn.o.weight"].data
    xn = norm1(x, params, prefix)
    q, k, v = xn @ wq, xn @ wk, xn @ wv
    s = x.shape[0]
    heads = []
    for i in range(h):
        qi = q[:, i * dk:(i + 1) * dk]
        ki = k[:, i * dk:(i + 1) * dk]
        vi = v[:, i * dk:(i + 1) * dk]
        out = np.zeros((s, dk))
        for a in range(s):
            scores = np.array([qi[a] @ ki[b] / np.sqrt(dk) for b in range(s)])
            scores -= scores.max()
            w = np.exp(scores)
            w /= w.sum()
            for b in range(s):
                out[a] += w[b] * vi[b]
        heads.append(out)
    return x + np.concatenate(heads, axis=1) @ wo


def make_ffn_params(rng, c=6, hidden=24, dtype=np.float64, scale=1.0):
    """Block "blk"'s FFN-branch parameters: norm2 as the identity affine,
    w1 and w2 drawn from rng, zero biases."""
    return {
        "blk.norm2.gamma": Tensor(np.ones(c), requires_grad=True, dtype=dtype),
        "blk.norm2.beta": Tensor(np.zeros(c), requires_grad=True, dtype=dtype),
        "blk.ffn.w1": Tensor(rng.standard_normal((c, hidden)) * scale, requires_grad=True),
        "blk.ffn.b1": Tensor(np.zeros(hidden), requires_grad=True, dtype=dtype),
        "blk.ffn.w2": Tensor(rng.standard_normal((hidden, c)) * scale, requires_grad=True),
        "blk.ffn.b2": Tensor(np.zeros(c), requires_grad=True, dtype=dtype),
    }


def attention_branch(x, params, cfg):
    """The attention branch with its residual, x + attention(norm1(x)) for
    x [B,S,C]: block "blk" in eval mode with its FFN branch silenced (ffn.w2
    and ffn.b2 zero, so the branch adds zeros)."""
    ffn = make_ffn_params(np.random.default_rng(0), cfg.embed_dim, M.FFN_RATIO * cfg.embed_dim)
    for name in ("blk.ffn.w2", "blk.ffn.b2"):
        ffn[name].data[:] = 0.0
    return M.block(x, {**params, **ffn}, cfg, "blk", drop_prob=0.0, mode="eval")


def ffn_branch(x, params):
    """The FFN branch with its residual, x + ffn(norm2(x)) for x [B,S,C]:
    block "blk" in eval mode, over its norm2 and ffn entries of `params`,
    with its attention branch silenced (attn.o.weight zero, so the branch
    adds zeros)."""
    cfg = M.ModelConfig(embed_dim=params["blk.norm2.gamma"].shape[0], num_heads=1)
    attn = make_attn_params(cfg, np.random.default_rng(0))
    attn["blk.attn.o.weight"].data[:] = 0.0
    return M.block(x, {**params, **attn}, cfg, "blk", drop_prob=0.0, mode="eval")


# ---------------------------------------------------------------------------
# patchify

class TestPatchify:
    def test_shape(self):
        img = np.zeros((1, 3, 32, 32), dtype=np.float32)
        assert M.patchify(img).shape == (1, 64, 48)

    def test_constant_image(self):
        img = np.full((1, 3, 32, 32), 7.0, dtype=np.float32)
        out = M.patchify(img)
        assert np.all(out == 7.0)

    def test_single_pixel_index_mapping(self):
        # every pixel must land in exactly one row, at the grid-index row
        for r, c in [(0, 0), (3, 7), (12, 30), (31, 31), (17, 2)]:
            img = np.zeros((1, 3, 32, 32), dtype=np.float32)
            img[0, 1, r, c] = 1.0
            out = M.patchify(img)[0]
            rows = np.flatnonzero(out.sum(axis=1))
            assert list(rows) == [(r // 4) * 8 + (c // 4)]

    def test_exhaustive_permutation(self):
        # unique value per position: patchify must be a pure permutation
        img = np.arange(3 * 16 * 16, dtype=np.float64).reshape(1, 3, 16, 16)
        out = M.patchify(img)[0]
        assert sorted(out.reshape(-1).tolist()) == sorted(img.reshape(-1).tolist())
        # row 0 = channel-major flattening of the top-left 4x4 patch
        expected = img[0, :, :4, :4].reshape(-1)
        assert np.array_equal(out[0], expected)

    def test_indivisible_extent_rejected(self):
        with pytest.raises(M.ConfigError):
            M.patchify(np.zeros((1, 3, 30, 30), dtype=np.float32))

    def test_unbatched_image_rejected(self):
        with pytest.raises(T.ShapeError, match="B,C,H,W"):
            M.patchify(np.zeros((3, 32, 32), dtype=np.float32))


# ---------------------------------------------------------------------------
# positional tables

class TestPositionalTable:
    def test_sinusoidal_position_zero(self):
        table = M.sinusoidal_table(4, 8)
        assert np.allclose(table[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_sinusoidal_position_one_col_zero(self):
        table = M.sinusoidal_table(4, 8)
        assert table[1, 0] == pytest.approx(np.sin(1.0), abs=1e-6)

    def test_rows_pairwise_distinct(self):
        table = M.sinusoidal_table(64, 192).astype(np.float64)
        diffs = table[:, None, :] - table[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=-1))
        dist[np.diag_indices(64)] = np.inf
        assert dist.min() > 0

    def test_learnable_is_trainable(self):
        # a learnable table is the parameter init_params draws; positional_table
        # builds only the frozen kinds and names them
        cfg = tiny_config(pos_embed="learnable")
        t = M.init_params(cfg, np.random.default_rng(0))["pos_embed"]
        assert t.requires_grad and t.shape == (cfg.num_patches, cfg.embed_dim)
        with pytest.raises(M.ConfigError, match="'sinusoidal', 'zero'"):
            M.positional_table("learnable", 8, 16)

    def test_sinusoidal_frozen(self):
        t = M.positional_table("sinusoidal", 8, 16)
        assert not t.requires_grad

    def test_odd_channels_rejected(self):
        with pytest.raises(M.ConfigError):
            M.positional_table("sinusoidal", 8, 15)


# ---------------------------------------------------------------------------
# whitening init

class TestWhiteningInit:
    def test_iid_normal_sample_gives_identity_covariance(self):
        rng = np.random.default_rng(0)
        d = 48
        sample = rng.standard_normal((10_000, d))
        w = M.whitening_init(sample, d, rng)
        fresh = rng.standard_normal((10_000, d))
        emb = fresh @ w.astype(np.float64)
        cov = np.cov(emb.T)
        assert np.all(np.diag(cov) > 0.8) and np.all(np.diag(cov) < 1.2)

    def test_degenerate_coordinate_floored(self):
        rng = np.random.default_rng(1)
        sample = rng.standard_normal((600, 12))
        sample[:, 5] = 3.0  # constant coordinate: zero variance direction
        w = M.whitening_init(sample, 12, rng)
        assert np.all(np.isfinite(w))

    def test_excess_output_dims_random(self):
        rng = np.random.default_rng(2)
        sample = rng.standard_normal((500, 12))
        w = M.whitening_init(sample, 20, rng)
        assert w.shape == (12, 20)
        # whitened block has large magnitudes; the random tail stays at init scale
        assert np.abs(w[:, 12:]).max() <= 0.04

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            M.whitening_init(np.zeros((5, 12)), 12, np.random.default_rng(0))

    def test_null_directions_scaled_by_the_floor(self):
        # a rank-4 sample of 12-wide patches: the 8 filters of its null
        # space are unit eigenvectors over sqrt(0 + 1e-5), the eigenvalue floor
        rng = np.random.default_rng(3)
        sample = rng.standard_normal((600, 4)) @ rng.standard_normal((4, 12))
        w = M.whitening_init(sample, 12, rng, dtype=np.float64)
        norms = np.linalg.norm(w, axis=0)
        assert np.allclose(norms[4:], 1.0 / np.sqrt(1e-5), rtol=1e-6)
        assert np.all(norms[:4] < 5.0)


# ---------------------------------------------------------------------------
# attention

class TestAttention:
    def test_single_token_weight_is_one(self):
        rng = np.random.default_rng(3)
        cfg = tiny_config()
        params = make_attn_params(cfg, rng)
        x = rng.standard_normal((1, cfg.embed_dim))
        out = attention_branch(Tensor(x[None], dtype=np.float64), params, cfg).data[0]
        wv = effective_projection(params, "blk.attn.v")
        wo = params["blk.attn.o.weight"].data
        assert np.allclose(out, x + (norm1(x, params) @ wv) @ wo, atol=1e-12)

    def test_zero_query_uniform_attention(self):
        rng = np.random.default_rng(4)
        cfg = tiny_config()
        params = make_attn_params(cfg, rng)
        params["blk.attn.q.weight"] = Tensor(np.zeros((32, 32)), requires_grad=True)
        x = rng.standard_normal((5, cfg.embed_dim))
        out = attention_branch(Tensor(x[None], dtype=np.float64), params, cfg).data[0]
        wv = effective_projection(params, "blk.attn.v")
        wo = params["blk.attn.o.weight"].data
        expected = x + np.tile(((norm1(x, params) @ wv).mean(axis=0) @ wo), (5, 1))
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("variant", typing.get_args(M.MlaVariant))
    @pytest.mark.parametrize("seq", [1, 5, 65])
    def test_matches_naive_loop_oracle(self, variant, seq):
        rng = np.random.default_rng((zlib.crc32(variant.encode()), seq))
        cfg = tiny_config(variant=variant)
        params = make_attn_params(cfg, rng)
        x = rng.standard_normal((seq, cfg.embed_dim))
        out = attention_branch(Tensor(x[None], dtype=np.float64), params, cfg).data[0]
        expected = attention_oracle(x, params, cfg)
        scale = np.abs(expected).max()
        assert np.abs(out - expected).max() <= 1e-10 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# MLA factorization

class TestMlaFactor:
    def test_parameter_arithmetic(self):
        shapes = M.param_shapes(M.ModelConfig(mla=M.MlaConfig("q", 48)))
        factored = [math.prod(shapes[f"blocks.0.attn.q.{name}"]) for name in ("down", "up")]
        assert sum(factored) == 2 * 192 * 48 == 18_432
        assert math.prod(shapes["blocks.0.attn.k.weight"]) == 192 * 192 == 36_864

    def test_rank_bound(self):
        rng = np.random.default_rng(6)
        down = M.trunc_normal(rng, (12, 64), dtype=np.float64).T
        up = M.trunc_normal(rng, (64, 12), dtype=np.float64).T
        assert np.linalg.matrix_rank(down @ up) <= 12

    def test_svd_truncation_reproduces_full_attention(self):
        rng = np.random.default_rng(7)
        cfg = tiny_config(variant="none")
        params = make_attn_params(cfg, rng)
        c, dc = cfg.embed_dim, 8
        # rank-dc reference obtained by SVD truncation
        u, s, vt = np.linalg.svd(rng.standard_normal((c, c)))
        w_ref = u[:, :dc] @ np.diag(s[:dc]) @ vt[:dc]
        params["blk.attn.q.weight"] = Tensor(w_ref, requires_grad=True)

        fcfg = tiny_config(variant="q", d_c=dc)
        fparams = dict(params)
        del fparams["blk.attn.q.weight"]
        fparams["blk.attn.q.down"] = Tensor(u[:, :dc] @ np.diag(s[:dc]), requires_grad=True)
        fparams["blk.attn.q.up"] = Tensor(vt[:dc], requires_grad=True)
        assert np.allclose(effective_projection(fparams, "blk.attn.q"), w_ref, atol=1e-12)

        x = Tensor(rng.standard_normal((1, 6, c)), dtype=np.float64)
        full = attention_branch(x, params, cfg).data
        fact = attention_branch(x, fparams, fcfg).data
        assert np.abs(full - fact).max() <= 1e-10 * max(np.abs(full).max(), 1.0)

    def test_compression_must_compress(self):
        with pytest.raises(M.ConfigError):
            M.MlaConfig("q", 32).validate(32)


# ---------------------------------------------------------------------------
# FFN

class TestFfn:
    """The pre-norm FFN branch of a block with its residual: x plus layer
    norm norm2, then the GELU MLP ffn, through M.block with the attention
    branch silenced (ffn_branch)."""

    def test_zero_input_zero_biases(self):
        rng = np.random.default_rng(8)
        p = make_ffn_params(rng)
        out = ffn_branch(Tensor(np.zeros((1, 3, 6))), p).data
        assert np.allclose(out, 0.0)

    def test_identity_like_construction(self):
        # norm2 maps the row [x0, -x0] to [1, -1] * gamma + beta, so gamma
        # x0 / 1 and beta 0 give back the row; w1 routes it into hidden0 with
        # a +5 shift (gelu ~ identity there), b2 removes the shift: the
        # branch gives ~x0 in channel 0 and 0 in channel 1, added to x
        c, hidden = 2, 8
        p = make_ffn_params(np.random.default_rng(0), c, hidden)
        for name in ("ffn.w1", "ffn.w2"):
            p[f"blk.{name}"].data[:] = 0.0
        p["blk.norm2.gamma"].data[:] = 0.37
        p["blk.ffn.w1"].data[0, 0] = 1.0
        p["blk.ffn.b1"].data[0] = 5.0
        p["blk.ffn.w2"].data[0, 0] = 1.0
        p["blk.ffn.b2"].data[0] = -5.0
        x = np.array([[[0.37, -0.37]]])
        out = ffn_branch(Tensor(x, dtype=np.float64), p).data[0]
        assert out[0, 0] == pytest.approx(2 * 0.37, abs=1e-5)
        assert out[0, 1] == pytest.approx(-0.37, abs=1e-12)

    def test_random_matches_composition_oracle(self):
        rng = np.random.default_rng(9)
        p = make_ffn_params(rng)
        p["blk.norm2.gamma"].data += rng.normal(0.0, 0.5, 6)
        p["blk.norm2.beta"].data += rng.normal(0.0, 0.5, 6)
        x = rng.standard_normal((4, 6))
        h = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-6)
        h = h * p["blk.norm2.gamma"].data + p["blk.norm2.beta"].data
        h = h @ p["blk.ffn.w1"].data + p["blk.ffn.b1"].data
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        expected = x + h @ p["blk.ffn.w2"].data + p["blk.ffn.b2"].data
        out = ffn_branch(Tensor(x[None], dtype=np.float64), p).data[0]
        assert np.abs(out - expected).max() <= 1e-10


# ---------------------------------------------------------------------------
# block / drop path

class _ScriptedRng:
    """Returns scripted uniform draws; stands in for a Generator in block()."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        return np.full(n, self.values.pop(0))


class TestBlock:
    @staticmethod
    def block_params(cfg, rng, scale=1.0):
        p = make_attn_params(cfg, rng)
        c = cfg.embed_dim
        p.update(make_ffn_params(rng, c, M.FFN_RATIO * c, scale=scale))
        return p

    def test_no_drop_train_equals_eval(self):
        rng = np.random.default_rng(10)
        cfg = tiny_config()
        p = self.block_params(cfg, rng, scale=0.1)
        x = Tensor(rng.standard_normal((2, 5, cfg.embed_dim)), dtype=np.float64)
        train = M.block(x, p, cfg, "blk", drop_prob=0.0, mode="train",
                        rng=np.random.default_rng(0)).data
        ev = M.block(x, p, cfg, "blk", drop_prob=0.0, mode="eval").data
        assert np.array_equal(train, ev)

    def test_forced_drop_passthrough(self):
        rng = np.random.default_rng(11)
        cfg = tiny_config()
        p = self.block_params(cfg, rng, scale=0.1)
        x = Tensor(rng.standard_normal((1, 5, cfg.embed_dim)), dtype=np.float64)
        drop = 0.4
        # drop the attention branch, keep the ffn branch (scaled by 1/keep)
        out = M.block(x, p, cfg, "blk", drop_prob=drop, mode="train",
                      rng=_ScriptedRng([0.99, 0.0])).data
        ffn = ffn_branch(x, p).data - x.data
        assert np.allclose(out, x.data + ffn / (1.0 - drop), atol=1e-12)

    def test_train_block_keeps_no_normalized_copy_or_phi(self):
        # a float32 train-mode block is one tape node, which keeps, per
        # sample, mid (the FFN branch's input) and the block's output ([S,C]
        # each), the two layer norms' row statistics (four [S] arrays) and
        # the softmax's row max and sum ([h,S] each). Keeping any other
        # [S,C] intermediate (a normalized input, q, k, v, the attention
        # output, the FFN output) would add one more [S,C] array, keeping P
        # h*S/C of them and h four.
        rng = np.random.default_rng(15)
        cfg = M.ModelConfig(embed_dim=64, num_heads=4, depth=1)
        params = M.init_params(cfg, rng)
        b, s, c = 4, cfg.num_patches + cfg.num_cls_tokens, cfg.embed_dim
        x = Tensor(rng.standard_normal((b, s, c)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with T.Tape():
                M.block(x, params, cfg, "blocks.0", drop_prob=0.0, mode="train")
                retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = 4 * b * (2 * s * c + 4 * s + 2 * cfg.num_heads * s)
        assert kept <= retained < kept + x.data.nbytes // 2

    def test_eval_block_peak_frees_attention_early_and_gelu_in_place(self, monkeypatch):
        # the block allocates its output and mid (row = one [S,C] array per
        # sample) and both layer norms' row statistics and the softmax's m
        # and l for the whole batch, then runs over chunks of samples (two
        # here, sized by h), so the rest of its peak is one chunk's, and one
        # half's at a time. The attention half's: the normalized input or
        # the attention output and q, k and v (four [S,C] arrays per sample
        # of the chunk), and one P sub-chunk's scaled q and P; a P of the
        # whole chunk would add 1.4 rows. It is read when the first chunk's
        # FFN half starts. The FFN half writes the GELU over h: its chunk's
        # normalized input and h (five [C] arrays per row of the chunk) and
        # the GELU's four block buffers; a separate GELU output would add
        # two rows. It is the larger half, so it sets the whole call's peak.
        rng = np.random.default_rng(18)
        cfg = M.ModelConfig(embed_dim=64, num_heads=4, depth=1)
        params = M.init_params(cfg, rng)
        b, s, c, heads = 64, cfg.num_patches + cfg.num_cls_tokens, cfg.embed_dim, cfg.num_heads
        hidden = M.FFN_RATIO * c
        x = Tensor(rng.standard_normal((b, s, c)).astype(np.float32))
        attention_peak, mlp_forward = [], T._mlp_forward

        def first_ffn_half(*args, **kwargs):
            if not attention_peak:
                attention_peak.append(tracemalloc.get_traced_memory()[1] - before)
            return mlp_forward(*args, **kwargs)

        monkeypatch.setattr(T, "_mlp_forward", first_ffn_half)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            M.block(x, params, cfg, "blocks.0", drop_prob=0.0, mode="eval")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

        chunks = T._chunks(b, max(s * hidden, 3 * s * c) * 4)
        assert len(chunks) >= 2
        samples = max(sl.stop - sl.start for sl in chunks)
        row = 4 * b * s * c
        whole = 2 * row + 4 * b * (4 * s + 2 * heads * s)
        sub = T._ATTENTION_CHUNK // (4 * heads * s * s)
        softmax = whole + 4 * samples * 4 * s * c + 4 * sub * (s * c + heads * s * s)
        assert softmax <= attention_peak[0] < softmax + row // 2
        gelu = whole + 4 * samples * s * (c + hidden) + 4 * 4 * T._BLOCK
        assert gelu <= peak < gelu + row // 2

    def test_block_vjp_scratch_stays_flat_with_the_batch(self):
        # what a train-mode paper-width block's VJP allocates is one chunk's
        # scratch and the parameter cotangents: its cotangent of x takes the
        # buffer of the mid it keeps. 10.6 MB at batch 32, 12.7 MB at batch
        # 128, whose chunks hold up to a third more samples. With T._CHUNK
        # past the whole batch it read 19.6 MB, then 72.3 MB.
        rng = np.random.default_rng(20)
        cfg = M.ModelConfig()
        params = M.init_params(cfg, rng)

        def scratch(batch):
            x = Tensor(rng.standard_normal((batch, cfg.num_patches + 1, cfg.embed_dim))
                       .astype(np.float32), requires_grad=True)
            with T.Tape() as tape:
                M.block(x, params, cfg, "blocks.0", drop_prob=0.1, mode="train",
                        rng=np.random.default_rng(0))
            sizes = []
            for out, inputs, vjp in tape._nodes:
                g = np.ones(out.shape, np.float32)
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    vjp(g)
                    sizes.append(tracemalloc.get_traced_memory()[1] - before)
                finally:
                    tracemalloc.stop()
            return sizes

        for small, large in zip(scratch(32), scratch(128)):
            assert 0 < large < 1.3 * small

    @pytest.mark.parametrize("zeroed", ["attn", "ffn"])
    def test_monte_carlo_expectation(self, zeroed):
        # silence one branch so the surviving mask enters linearly; then
        # E[train output] equals the eval output exactly
        rng = np.random.default_rng(12)
        cfg = tiny_config()
        p = self.block_params(cfg, rng, scale=0.5)
        if zeroed == "attn":
            p["blk.attn.o.weight"] = Tensor(np.zeros((32, 32)), requires_grad=True)
        else:
            p["blk.ffn.w2"] = Tensor(np.zeros((M.FFN_RATIO * 32, 32)),
                                     requires_grad=True)
        x = Tensor(rng.standard_normal((1, 5, cfg.embed_dim)), dtype=np.float64)
        ev = M.block(x, p, cfg, "blk", drop_prob=0.0, mode="eval").data
        draws = np.stack([
            M.block(x, p, cfg, "blk", drop_prob=0.3, mode="train",
                    rng=np.random.default_rng(1000 + i)).data
            for i in range(10_000)])
        mean = draws.mean(axis=0)
        sem = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(mean - ev) <= 3.5 * sem + 1e-12)


# ---------------------------------------------------------------------------
# head and full forward

class TestClsHead:
    def test_single_cls_standard_head(self):
        rng = np.random.default_rng(13)
        cfg = tiny_config(n_cls=1)
        params = M.init_params(cfg, rng, dtype=np.float64)
        assert params["head.w1"].shape == (cfg.embed_dim, cfg.embed_dim)
        params["norm.gamma"].data += rng.normal(0.0, 0.5, cfg.embed_dim)
        params["norm.beta"].data += rng.normal(0.0, 0.5, cfg.embed_dim)
        tokens = Tensor(rng.standard_normal((2, 1, cfg.embed_dim)), dtype=np.float64)
        out = M.cls_head(tokens, params, cfg).data
        cls = tokens.data[:, 0, :]
        cls = (cls - cls.mean(axis=1, keepdims=True)) / np.sqrt(cls.var(axis=1, keepdims=True) + 1e-6)
        cls = cls * params["norm.gamma"].data + params["norm.beta"].data
        h = cls @ params["head.w1"].data + params["head.b1"].data
        h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        expected = h @ params["head.w2"].data + params["head.b2"].data
        assert np.allclose(out, expected, atol=1e-12)

    def test_mcls_input_dim(self):
        cfg = M.ModelConfig(embed_dim=96, num_heads=12, depth=2, num_cls_tokens=2)
        params = M.init_params(cfg, np.random.default_rng(0))
        assert params["head.w1"].shape == (192, 96)

    def test_logits_shape(self):
        cfg = tiny_config()
        params = M.init_params(cfg, np.random.default_rng(0))
        tokens = Tensor(np.zeros((3, cfg.num_cls_tokens, cfg.embed_dim), dtype=np.float32))
        assert M.cls_head(tokens, params, cfg).shape == (3, 10)


class TestForward:
    @pytest.mark.parametrize("depth, rates", [(1, [0.0]), (2, [0.0, 0.3]),
                                              (4, [0.0, 0.1, 0.2, 0.3])])
    def test_drop_path_rate_ramps_across_blocks(self, depth, rates, monkeypatch):
        # block i drops at drop_path_rate * i / (depth - 1): 0 at the first
        cfg = dataclasses.replace(tiny_config(drop_path_rate=0.3), depth=depth)
        params = M.init_params(cfg, np.random.default_rng(0))
        seen, block = [], M.block
        monkeypatch.setattr(M, "block", lambda *a, **kw: seen.append(kw["drop_prob"])
                            or block(*a, **kw))
        M.forward(cfg, params, Tensor(np.zeros((2, 3, 16, 16), np.float32)), mode="train",
                  rng=np.random.default_rng(1))
        assert seen == pytest.approx(rates, abs=1e-12)

    def test_output_shape(self):
        cfg = tiny_config(n_cls=2)
        params = M.init_params(cfg, np.random.default_rng(0))
        images = Tensor(np.random.default_rng(1).standard_normal((4, 3, 16, 16)).astype(np.float32))
        assert M.forward(cfg, params, images).shape == (4, 10)

    @pytest.mark.parametrize("n_cls", [1, 2])
    def test_head_matches_normalize_affine_and_mlp_on_cls_rows(self, n_cls, monkeypatch):
        # cls_head receives only the n CLS rows, and its logits are, bit for
        # bit, _normalize + _affine + _mlp_forward on those rows side by side
        rng = np.random.default_rng(17)
        cfg = tiny_config(n_cls=n_cls)
        params = M.init_params(cfg, rng)
        params["norm.gamma"].data += rng.normal(0.0, 0.5, cfg.embed_dim).astype(np.float32)
        params["norm.beta"].data += rng.normal(0.0, 0.5, cfg.embed_dim).astype(np.float32)
        images = Tensor(rng.standard_normal((3, 3, 16, 16)).astype(np.float32))
        heads, cls_head = [], M.cls_head
        monkeypatch.setattr(M, "cls_head", lambda x, p, c: heads.append(x) or cls_head(x, p, c))
        logits = M.forward(cfg, params, images).data
        assert heads[0].shape == (3, n_cls, cfg.embed_dim)
        normed = T._affine(T._normalize(heads[0].data, 1e-6)[0], params["norm.gamma"],
                           params["norm.beta"])
        flat = normed.reshape(3, n_cls * cfg.embed_dim)
        expected = T._mlp_forward(flat, *(params[f"head.{k}"] for k in ("w1", "b1", "w2", "b2")))
        assert logits.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("n_cls", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["none", "q", "kv", "qkv"])
    def test_last_block_computes_only_cls_rows(self, variant, n_cls, depth, monkeypatch):
        # the last block returns only the CLS rows the head reads; a reference
        # that runs every block over all S rows and then keeps the first n must
        # give the same logits and gradients, in eval mode and in train mode
        # with drop-path (at depth 1 the only block is the pruned one)
        cfg = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=depth,
                            num_cls_tokens=n_cls, mla=M.MlaConfig(variant, 8), drop_path_rate=0.5)
        params = M.grad_check_point(cfg, np.random.default_rng(19))
        images = Tensor(np.random.default_rng(20).standard_normal((4, 3, 16, 16)), dtype=np.float64)
        targets = np.full((4, 10), 0.1)

        def narrow(x, n):      # each sample's first n rows; the others get a zero cotangent
            pad = ((0, 0), (0, x.shape[1] - n), (0, 0))
            return T._make(x.data[:, :n].copy(), (x,), lambda g: (np.pad(g, pad),))

        def logits_and_grads(mode):
            with T.Tape() as tape:
                logits = M.forward(cfg, params, images, mode, np.random.default_rng(21))
                loss = cross_entropy(logits, targets)
            return [logits.data, *T.backward(loss, tape, list(params.values()))]

        for mode in ("eval", "train"):
            pruned = logits_and_grads(mode)
            with monkeypatch.context() as patch:
                block, cls_head = M.block, M.cls_head
                patch.setattr(M, "block", lambda *a, rows=None, **kw: block(*a, **kw))
                patch.setattr(M, "cls_head", lambda x, p, c: cls_head(narrow(x, n_cls), p, c))
                whole = logits_and_grads(mode)
            for name, got, want in zip(["logits", *params], pruned, whole):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (mode, name)

    @pytest.mark.parametrize("cfg", [
        M.ModelConfig(embed_dim=192, num_heads=12, depth=9, drop_path_rate=0.1),
        M.ModelConfig(embed_dim=64, num_heads=4, depth=3, mla=M.MlaConfig("kv", d_c=16),
                      num_cls_tokens=2, drop_path_rate=0.1),
    ], ids=["paper", "desk"])
    def test_train_tape_records_only_differentiable_ops(self, cfg):
        # embed, one node per block with both drop-path residuals, head and
        # cross_entropy; no node for the patch rearrangement or a weight's
        # layout
        rng = np.random.default_rng(0)
        params = M.init_params(cfg, rng)
        images = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        with T.Tape() as tape:
            cross_entropy(M.forward(cfg, params, images, mode="train", rng=rng),
                          np.full((2, 10), 0.1, np.float32))
        assert len(tape) == cfg.depth + 3

    def test_eval_bitwise_deterministic(self):
        cfg = tiny_config()
        params = M.init_params(cfg, np.random.default_rng(0))
        images = Tensor(np.random.default_rng(1).standard_normal((2, 3, 16, 16)).astype(np.float32))
        a = M.forward(cfg, params, images).data
        b = M.forward(cfg, params, images).data
        assert np.array_equal(a, b)

    def test_sinusoidal_has_no_positional_parameter(self):
        cfg = tiny_config(pos_embed="sinusoidal")
        params = M.init_params(cfg, np.random.default_rng(0))
        assert "pos_embed" not in params

    def test_patch_permutation_sensitivity(self):
        rng = np.random.default_rng(14)
        images = rng.standard_normal((1, 3, 16, 16)).astype(np.float64)
        permuted = images.copy()
        # swap two 4x4 patches
        permuted[:, :, 0:4, 0:4], permuted[:, :, 8:12, 4:8] = \
            images[:, :, 8:12, 4:8].copy(), images[:, :, 0:4, 0:4].copy()

        cfg = tiny_config(pos_embed="learnable")
        params = M.init_params(cfg, np.random.default_rng(2), dtype=np.float64)
        a = M.forward(cfg, params, Tensor(images, dtype=np.float64)).data
        b = M.forward(cfg, params, Tensor(permuted, dtype=np.float64)).data
        assert not np.allclose(a, b, atol=1e-9)

        zcfg = tiny_config(pos_embed="zero")
        zparams = {k: Tensor(v.data, requires_grad=True) for k, v in params.items()
                   if k != "pos_embed"}
        a = M.forward(zcfg, zparams, Tensor(images, dtype=np.float64)).data
        b = M.forward(zcfg, zparams, Tensor(permuted, dtype=np.float64)).data
        assert np.allclose(a, b, atol=1e-10)

    def test_end_to_end_grad_check_tiny(self):
        rng = np.random.default_rng(15)
        cfg = tiny_config(variant="kv")
        params = M.grad_check_point(cfg, rng)
        images = Tensor(rng.standard_normal((2, 3, 16, 16)), dtype=np.float64)
        targets = np.full((2, 10), 0.1)

        def f():
            return cross_entropy(M.forward(cfg, params, images, mode="eval"), targets)

        err = grad_check(f, list(params.values()), h=1e-5, max_coords=3,
                         rng=np.random.default_rng(0))
        assert err < 1e-4

    @pytest.mark.parametrize("n_cls", [1, 2])
    def test_train_mode_grad_check_with_drop_path(self, n_cls):
        # depth 2 at rate 0.5: block 1 draws one mask per residual, each of
        # which keeps some of the 4 samples and drops the others at this
        # seed; the masks enter the block's VJP, for every variant
        mask_seed, batch = 2, 4
        draws = np.random.default_rng(mask_seed)
        masks = [M._drop_path_mask(batch, 0.5, draws, np.dtype(np.float64)) for _ in range(2)]
        assert all(0 < np.count_nonzero(m) < batch for m in masks)
        for variant in typing.get_args(M.MlaVariant):
            rng = np.random.default_rng(16)
            cfg = tiny_config(variant, n_cls=n_cls, drop_path_rate=0.5)
            params = M.grad_check_point(cfg, rng)
            images = Tensor(rng.standard_normal((batch, 3, 16, 16)), dtype=np.float64)
            targets = np.full((batch, 10), 0.1)

            def f():   # the rng is rebuilt per call, so every call draws the same masks
                return cross_entropy(M.forward(cfg, params, images, mode="train",
                                               rng=np.random.default_rng(mask_seed)), targets)

            err = grad_check(f, list(params.values()), h=1e-5, max_coords=3,
                             rng=np.random.default_rng(0))
            assert err < 1e-4, variant

    @pytest.mark.parametrize("variant, n_cls", [("none", 1), ("qkv", 2)])
    def test_train_mode_grad_check_across_chunks(self, variant, n_cls, monkeypatch):
        # a budget of one sample's float64 q, k and v, less than a sample's h
        # (a block chunks samples by the larger) and more than the CLS-only
        # last block's q, k and v: every block runs the batch of 4 as four
        # chunks of one sample
        cfg = tiny_config(variant, n_cls=n_cls, drop_path_rate=0.5)
        s, c, hidden = cfg.num_patches + n_cls, cfg.embed_dim, M.FFN_RATIO * cfg.embed_dim
        monkeypatch.setattr(T, "_CHUNK", 3 * s * c * 8)
        for rows in (s, n_cls):
            assert len(T._chunks(4, max(rows * hidden, (rows + 2 * s) * c) * 8)) == 4
        rng = np.random.default_rng(16)
        params = M.grad_check_point(cfg, rng)
        images = Tensor(rng.standard_normal((4, 3, 16, 16)), dtype=np.float64)
        targets = np.full((4, 10), 0.1)

        def f():
            return cross_entropy(M.forward(cfg, params, images, mode="train",
                                           rng=np.random.default_rng(2)), targets)

        err = grad_check(f, list(params.values()), h=1e-5, max_coords=3,
                         rng=np.random.default_rng(0))
        assert err < 1e-4


class TestModelConfig:
    @pytest.mark.parametrize("value", [0, -4])
    @pytest.mark.parametrize("name", ["num_heads"])
    def test_nonpositive_divisor_is_named(self, name, value):
        # refused before embed_dim % num_heads is taken
        with pytest.raises(M.ConfigError, match=f"{name} must be >= 1, got {value}"):
            M.ModelConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("embed_dim", 0), ("image_size", 0), ("depth", 0), ("depth", -1),
        ("num_classes", 0)])
    def test_nonpositive_size_is_named(self, name, value):
        # each would otherwise build an empty array or a model with no blocks
        with pytest.raises(M.ConfigError, match=f"{name} must be >= 1, got {value}"):
            M.ModelConfig(**{name: value})

    @pytest.mark.parametrize("kwargs, shown", [
        (dict(embed_dim=192.0), "embed_dim must be int, got 192.0"),
        (dict(depth=2.5), "depth must be int, got 2.5"),
        (dict(num_cls_tokens=True), "num_cls_tokens must be int, got True"),
        (dict(mla=M.MlaConfig("kv", 16.0)), "d_c must be int, got 16.0"),
        (dict(pos_embed=None), "pos_embed must be one of 'learnable', 'sinusoidal', 'zero', "
                               "got None"),
        (dict(drop_path_rate="0.1"), "drop_path_rate must be float, got '0.1'"),
        (dict(patch_init="whiten"), "patch_init must be one of 'random', 'whitening', "
                                    "got 'whiten'"),
        (dict(mla=M.MlaConfig("kvq")), "variant must be one of 'none', 'q', 'k', 'qk', 'kv', "
                                       "'qkv', got 'kvq'"),
        # once an AttributeError from its validate
        (dict(mla={"variant": "q"}), r"mla must be MlaConfig, got \{'variant': 'q'\}"),
    ])
    def test_wrong_type_is_named(self, kwargs, shown):
        # a float size or d_c and a bool count once passed validation, then failed
        # in init_params without naming the field
        with pytest.raises(M.ConfigError, match=shown):
            M.ModelConfig(**kwargs)

    def test_image_size_must_be_a_multiple_of_the_patch_size(self):
        with pytest.raises(M.ConfigError, match="image_size 30 not divisible by PATCH_SIZE 4"):
            M.ModelConfig(image_size=30)

    def test_float_field_takes_an_int(self):
        assert M.ModelConfig(drop_path_rate=0).drop_path_rate == 0


# ---------------------------------------------------------------------------
# parameter accounting

class TestParamShapes:
    @pytest.mark.parametrize("variant", typing.get_args(M.MlaVariant))
    def test_init_params_draws_the_listed_layout(self, variant, monkeypatch):
        """init_params gives param_shapes' paths and shapes, sorted by path,
        and draws its matrices in param_shapes' order, a latent pair [out, in]."""
        sample = np.random.default_rng(1).standard_normal((10 * M.PATCH_DIM, M.PATCH_DIM))
        drawn, draw = [], M.trunc_normal

        def recording(rng, shape, dtype=np.float32):
            drawn.append(tuple(shape))
            return draw(rng, shape, dtype)

        monkeypatch.setattr(M, "trunc_normal", recording)
        for n_cls in (1, 2, 3):
            for pos_embed in ("learnable", "sinusoidal", "zero"):
                for patch_init in ("random", "whitening"):
                    cfg = tiny_config(variant, n_cls=n_cls, pos_embed=pos_embed,
                                      patch_init=patch_init)
                    drawn.clear()
                    shapes = M.param_shapes(cfg)
                    params = M.init_params(cfg, np.random.default_rng(0), patch_sample=sample)
                    assert list(params) == sorted(shapes)
                    assert {path: t.shape for path, t in params.items()} == shapes
                    assert drawn == [shape[::-1] if path.endswith((".down", ".up")) else shape
                                     for path, shape in shapes.items() if len(shape) == 2]

    @pytest.mark.parametrize("cfg, crc, count", [
        (M.ModelConfig(), "80147dce", 118),
        (M.ModelConfig(embed_dim=64, num_heads=4, depth=3, num_cls_tokens=2,
                       mla=M.MlaConfig("kv", 16)), "c12e4d86", 52),
    ], ids=["paper", "desk"])
    def test_each_seed_keeps_its_init_values(self, cfg, crc, count):
        """CRC-32 chained over each sorted path's name, then its array's bytes."""
        params = M.init_params(cfg, np.random.default_rng(0))
        chained = 0
        for path in sorted(params):
            chained = zlib.crc32(params[path].data.tobytes(), zlib.crc32(path.encode(), chained))
        assert (f"{chained:08x}", len(params)) == (crc, count)


class TestParamCount:
    def test_baseline_attention_layer(self):
        cfg = M.ModelConfig()  # C=192, h=12, depth=9
        assert M.attention_params_per_layer(cfg) == 4 * 192 * 192 == 147_456

    def test_variant_q_layer(self):
        cfg = M.ModelConfig(mla=M.MlaConfig("q", 48))
        assert M.attention_params_per_layer(cfg) == 3 * 36_864 + 18_432 == 129_024

    def test_counts_match_actual_params(self):
        cfg = M.ModelConfig(depth=2, mla=M.MlaConfig("qk", 48))
        params = M.init_params(cfg, np.random.default_rng(0))
        counts = M.param_count(params)
        assert counts["total"] == sum(p.size for p in params.values())
        assert counts["attention"] == 2 * M.attention_params_per_layer(cfg)

    @pytest.mark.parametrize("variant", ["q", "k", "qk", "kv", "qkv"])
    def test_factoring_strictly_reduces_total(self, variant):
        base = M.param_count(M.init_params(
            M.ModelConfig(depth=2), np.random.default_rng(0)))["total"]
        comp = M.param_count(M.init_params(
            M.ModelConfig(depth=2, mla=M.MlaConfig(variant, 48)),
            np.random.default_rng(0)))["total"]
        assert comp < base
