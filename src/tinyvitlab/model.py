"""Tiny Vision Transformer: tokenization, blocks, latent-compressed attention,
multi-CLS head, and parameter bookkeeping.

All forward math is written against :mod:`tinyvitlab.tensor`, so a single
tape records the whole model and `backward` differentiates it end to end.
Parameters live in a flat path -> Tensor map (e.g. ``blocks.3.attn.q.weight``)
iterated in sorted order everywhere that order matters.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from tinyvitlab import tensor as T
from tinyvitlab.tensor import Tensor

MlaVariant = Literal["none", "q", "k", "qk", "kv", "qkv"]

PATCH_SIZE = 4          # the recipe's fixed values, not options: a patch's side in pixels,
FFN_RATIO = 4           # the FFN's hidden width in multiples of embed_dim,
INIT_STD = 0.02         # and trunc_normal's std, which every weight is drawn with
PATCH_DIM = 3 * PATCH_SIZE ** 2  # a patch row's length: three channels of PATCH_SIZE^2 pixels
_WHITENING_EPS = 1e-5   # floors the patch covariance's eigenvalues in whitening_init


class ConfigError(ValueError):
    """A configuration field has the wrong type or violates an invariant."""


def check_fields(config, **minimums: float) -> None:
    """Refuse, naming it, a field of dataclass `config` annotated bool, int,
    float or str (or one of them or None) whose value has another type (an
    int is not a bool; a float field takes an int), a field annotated with a
    dataclass whose value is not an instance of it, a field annotated with a
    Literal whose value is not one of the Literal's, then a field named in
    `minimums` whose value is below its minimum, NaN or infinite."""
    for name, hint in typing.get_type_hints(type(config)).items():
        kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        value = getattr(config, name)
        if typing.get_origin(hint) is Literal and value not in typing.get_args(hint):
            raise ConfigError(f"{name} must be one of "
                              f"{', '.join(map(repr, typing.get_args(hint)))}, got {value!r}")
        wrong_scalar = set(kinds) <= {bool, int, float, str, type(None)} and not any(
            isinstance(value, (int, float) if k is float else k)
            and (k is bool or not isinstance(value, bool)) for k in kinds)
        if wrong_scalar or (dataclasses.is_dataclass(hint) and not isinstance(value, hint)):
            raise ConfigError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")
    for name, least in minimums.items():
        value = getattr(config, name)
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
        if not value < math.inf:   # NaN fails every comparison
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(slots=True)
class MlaConfig:
    """Low-rank (latent) compression settings for attention projections.

    `variant` names the set of projections replaced by a down/up factored
    pair; `d_c` is the latent dimension shared by all compressed projections.
    """

    variant: MlaVariant = "none"
    d_c: int = 48

    def compressed(self) -> set[str]:
        if self.variant == "none":
            return set()
        return set(self.variant)  # "qk" -> {"q", "k"} etc.

    def validate(self, embed_dim: int) -> None:
        check_fields(self)
        if self.variant != "none":
            if self.d_c < 1:
                raise ConfigError("compression dim d_c must be >= 1")
            if self.d_c >= embed_dim:
                raise ConfigError(f"d_c={self.d_c} must be < embed_dim={embed_dim} to compress")


@dataclass(slots=True)
class ModelConfig:
    image_size: int = 32
    embed_dim: int = 192
    num_heads: int = 12
    depth: int = 9
    num_classes: int = 10
    num_cls_tokens: int = 1
    pos_embed: Literal["learnable", "sinusoidal", "zero"] = "learnable"
    patch_init: Literal["random", "whitening"] = "random"
    mla: MlaConfig = field(default_factory=MlaConfig)
    # block i drops at drop_path_rate * i / max(depth - 1, 1): one block drops nothing
    drop_path_rate: float = 0.1   # the recipe's; the last block's rate

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_fields(self, image_size=1, embed_dim=1, num_heads=1, depth=1, num_classes=1,
                     num_cls_tokens=1)
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")
        if self.image_size % PATCH_SIZE != 0:
            raise ConfigError(f"image_size {self.image_size} not divisible by PATCH_SIZE {PATCH_SIZE}")
        if self.pos_embed == "sinusoidal" and self.embed_dim % 2 != 0:
            raise ConfigError("sinusoidal positional table needs an even embed_dim")
        if not (0.0 <= self.drop_path_rate < 1.0):
            raise ConfigError("drop_path_rate must be in [0, 1)")
        self.mla.validate(self.embed_dim)

    @property
    def num_patches(self) -> int:
        return (self.image_size // PATCH_SIZE) ** 2


def trunc_normal(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Normal(0, INIT_STD) resampled until within +-2 INIT_STD: each round
    redraws the entries still outside, in index order, and checks only
    those."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * INIT_STD)
    while bad.size:
        flat[bad] = rng.normal(0.0, INIT_STD, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0 * INIT_STD]
    return out.astype(dtype)


# ---------------------------------------------------------------------------
# tokenization

def patchify(images: np.ndarray) -> np.ndarray:
    """Rearrange [B,3,H,W] into a patch sequence [B,L,3*P*P].

    Row i*(W/P)+j holds the channel-major flattening of the PxP patch at
    grid position (i, j).
    """
    if images.ndim != 4:
        raise T.ShapeError(f"patchify expects [B,C,H,W] images, got {images.shape}")
    b, c, hh, ww = images.shape
    p = PATCH_SIZE
    if hh % p != 0 or ww % p != 0:
        raise ConfigError(f"image extents {hh}x{ww} not divisible by PATCH_SIZE {p}")
    gh, gw = hh // p, ww // p
    x = images.reshape(b, c, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)  # [B,gh,gw,C,P,P]
    return x.reshape(b, gh * gw, c * p * p)


def sinusoidal_table(length: int, channels: int, dtype=np.float32) -> np.ndarray:
    if channels % 2 != 0:
        raise ConfigError("sinusoidal table needs an even channel count")
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(channels // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * i / channels)
    table = np.zeros((length, channels))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table.astype(dtype)


def positional_table(kind: str, length: int, channels: int, dtype=np.float32) -> Tensor:
    """Build a frozen positional table: sinusoidal or zeros. A learnable
    table is a parameter, `pos_embed`, drawn by init_params."""
    if kind == "sinusoidal":
        return Tensor(sinusoidal_table(length, channels, dtype))
    if kind == "zero":
        return Tensor(np.zeros((length, channels), dtype=dtype))
    raise ConfigError(f"positional table kind {kind!r} is not one of the frozen kinds "
                      "'sinusoidal', 'zero'")


def whitening_init(patch_sample: np.ndarray, out_dim: int,
                   rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Patch-embedding matrix [D, out_dim] whose first min(out_dim, D)
    filters are inverse-sqrt-eigenvalue-scaled eigenvectors of the sample
    patch covariance, so embedded patches are approximately decorrelated
    on those coordinates. Remaining filters are truncated-normal.
    """
    sample = np.asarray(patch_sample, dtype=np.float64)
    n, d = sample.shape
    if n < 10 * d:
        raise ValueError(f"whitening needs a sample of >= {10 * d} patches, got {n}")
    if out_dim < 1:
        raise ValueError("out_dim must be >= 1")
    centered = sample - sample.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    floored = np.maximum(evals, 0.0) + _WHITENING_EPS
    k = min(out_dim, d)
    weight = trunc_normal(rng, (d, out_dim), dtype=np.float64)
    weight[:, :k] = evecs[:, :k] / np.sqrt(floored[:k])[None, :]
    return weight.astype(dtype)


# ---------------------------------------------------------------------------
# parameters

def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's path and shape, in the order init_params draws them.
    Matrices are [in, out]; q, k or v, when cfg.mla compresses it, is a
    `down` [C,d_c] then `up` [d_c,C] pair, else a full `weight` [C,C]. The
    positional table, when learnable, comes last."""
    c, hidden = cfg.embed_dim, FFN_RATIO * cfg.embed_dim
    shapes = {"patch_embed.weight": (PATCH_DIM, c), "patch_embed.bias": (c,),
              "cls_token": (cfg.num_cls_tokens, c)}
    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        shapes.update({f"{pre}.norm1.gamma": (c,), f"{pre}.norm1.beta": (c,)})
        for proj in ("q", "k", "v"):
            if proj in cfg.mla.compressed():
                shapes.update({f"{pre}.attn.{proj}.down": (c, cfg.mla.d_c),
                               f"{pre}.attn.{proj}.up": (cfg.mla.d_c, c)})
            else:
                shapes[f"{pre}.attn.{proj}.weight"] = (c, c)
        shapes.update({f"{pre}.attn.o.weight": (c, c),
                       f"{pre}.norm2.gamma": (c,), f"{pre}.norm2.beta": (c,),
                       f"{pre}.ffn.w1": (c, hidden), f"{pre}.ffn.b1": (hidden,),
                       f"{pre}.ffn.w2": (hidden, c), f"{pre}.ffn.b2": (c,)})
    shapes.update({"norm.gamma": (c,), "norm.beta": (c,),
                   "head.w1": (cfg.num_cls_tokens * c, c), "head.b1": (c,),
                   "head.w2": (c, cfg.num_classes), "head.b2": (cfg.num_classes,)})
    if cfg.pos_embed == "learnable":
        shapes["pos_embed"] = (cfg.num_patches, c)
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32,
                patch_sample: np.ndarray | None = None) -> dict[str, Tensor]:
    """Build the full parameter map, sorted by path, drawing in param_shapes
    order: a `gamma` is ones and any other vector zeros; a latent `down` or
    `up` is drawn [out, in] and stored transposed, so each seed keeps its
    init values; any other matrix is trunc-normal, but the patch projection
    is whitened under cfg.patch_init "whitening", which needs
    `patch_sample` (raw patch rows)."""
    whiten = cfg.patch_init == "whitening"
    if whiten and patch_sample is None:
        raise ConfigError("whitening patch_init needs a patch_sample")
    params = {}
    for path, shape in param_shapes(cfg).items():
        if len(shape) == 1:
            arr = (np.ones if path.endswith("gamma") else np.zeros)(shape, dtype=dtype)
        elif whiten and path == "patch_embed.weight":
            arr = whitening_init(patch_sample, shape[1], rng, dtype=dtype)
        elif path.endswith((".down", ".up")):
            arr = trunc_normal(rng, shape[::-1], dtype=dtype).T.copy()
        else:
            arr = trunc_normal(rng, shape, dtype=dtype)
        params[path] = Tensor(arr, requires_grad=True)
    return dict(sorted(params.items()))


# ---------------------------------------------------------------------------
# forward pieces

def _drop_path_mask(batch: int, drop_prob: float, rng: np.random.Generator,
                    dtype) -> np.ndarray:
    keep = 1.0 - drop_prob
    kept = (rng.random(batch) < keep).astype(dtype)
    return (kept / dtype.type(keep)).reshape(batch, 1, 1)


def block(x: Tensor, params: dict[str, Tensor], cfg: ModelConfig, prefix: str,
          drop_prob: float, mode: str, rng: np.random.Generator | None = None,
          rows: int | None = None) -> Tensor:
    """Pre-norm transformer block `prefix` with per-sample stochastic depth,
    as one tape node (T.block): x + mask * attention(norm1(x)), then that
    plus mask * ffn(norm2(that)). It reads `{prefix}.norm1.*`,
    `{prefix}.attn.{q,k,v,o}.*`, where each of q, k and v is a full
    `weight` or, under MLA, a `down`/`up` pair, `{prefix}.norm2.*` and the
    GELU MLP `{prefix}.ffn.*`. In train mode with drop_prob > 0 each branch
    gets its own drop-path mask [B,1,1], the attention branch's drawn first;
    otherwise both branches stay whole. With `rows`, the block computes and
    returns only each sample's first `rows` rows, [B,rows,C]: they alone
    query (keys and values come from all S), and the FFN branch runs on
    them."""
    if not (0.0 <= drop_prob < 1.0):
        raise ConfigError("drop_prob must be in [0, 1)")
    train_drop = mode == "train" and drop_prob > 0.0
    if train_drop and rng is None:
        raise ValueError("drop-path in train mode needs an rng")
    masks = [_drop_path_mask(x.shape[0], drop_prob, rng, x.data.dtype) if train_drop else None
             for _ in range(2)]
    attn = f"{prefix}.attn"
    projections = [(params[f"{attn}.{proj}.weight"],) if f"{attn}.{proj}.weight" in params
                   else (params[f"{attn}.{proj}.down"], params[f"{attn}.{proj}.up"])
                   for proj in ("q", "k", "v")]
    attention = (params[f"{prefix}.norm1.gamma"], params[f"{prefix}.norm1.beta"], projections,
                 params[f"{attn}.o.weight"])
    ffn = [params[f"{prefix}.{name}"] for name in (
        "norm2.gamma", "norm2.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")]
    return T.block(x, attention, ffn, cfg.num_heads, masks, rows)


def cls_head(tokens: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """The final layer norm on the CLS-token rows [B,num_cls_tokens,C], their
    concatenation and the 2-layer projection MLP, as one tape node
    (T.head)."""
    return T.head(tokens, *(params[name] for name in (
        "norm.gamma", "norm.beta", "head.w1", "head.b1", "head.w2", "head.b2")))


def forward(cfg: ModelConfig, params: dict[str, Tensor], images: Tensor,
            mode: str = "eval", rng: np.random.Generator | None = None) -> Tensor:
    """Full model: images [B,3,H,W] -> logits [B,num_classes].

    CLS tokens receive no positional embedding; drop-path rates ramp
    linearly from 0 to cfg.drop_path_rate across blocks. The head reads
    only the CLS rows, so the last block computes only those: its queries,
    attention output and FFN cover the num_cls_tokens rows, against the keys
    and values of all S. Eval mode is a pure function of (params, images).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if cfg.pos_embed == "learnable":
        pos = params["pos_embed"]
    else:
        pos = positional_table(cfg.pos_embed, cfg.num_patches, cfg.embed_dim,
                               dtype=images.data.dtype)
    x = T.embed(patchify(images.data), params["patch_embed.weight"],
                params["patch_embed.bias"], pos, params["cls_token"])

    for i in range(cfg.depth):
        rate = cfg.drop_path_rate * i / max(cfg.depth - 1, 1)
        x = block(x, params, cfg, f"blocks.{i}", drop_prob=rate, mode=mode, rng=rng,
                  rows=cfg.num_cls_tokens if i == cfg.depth - 1 else None)
    return cls_head(x, params, cfg)


def grad_check_point(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Random float64 parameter point for gradient verification.

    Matrices are fan-in scaled and every vector but a layer norm's gamma
    jittered, so signals (and therefore gradients) stay O(1) through the
    depth; at the training init (sigma INIT_STD) early-layer gradients
    shrink below finite-difference resolution.
    """
    params = init_params(cfg, rng, dtype=np.float64)
    for name, p in params.items():
        if p.data.ndim == 2:
            p.data *= (1.0 / np.sqrt(p.data.shape[0])) / INIT_STD
        elif not name.endswith("gamma"):
            p.data += rng.normal(0.0, 0.05, p.data.shape)
    return params


# ---------------------------------------------------------------------------
# accounting

def param_count(params: dict[str, Tensor]) -> dict[str, int]:
    """Element counts by top-level group, plus an attention-projection
    subtotal (so compression savings are directly visible) and the total."""
    counts: dict[str, int] = {}
    attn = 0
    total = 0
    for path in sorted(params):
        n = params[path].size
        total += n
        group = path.split(".", 1)[0]
        counts[group] = counts.get(group, 0) + n
        if ".attn." in path:
            attn += n
    counts["attention"] = attn
    counts["total"] = total
    return counts


def attention_params_per_layer(cfg: ModelConfig) -> int:
    """Q/K/V/O parameter elements in one block under cfg.mla."""
    return sum(math.prod(shape) for path, shape in param_shapes(cfg).items()
               if path.startswith("blocks.0.attn."))
