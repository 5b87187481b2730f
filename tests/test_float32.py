"""The float32 accuracy contract: a float32 model's loss, eval logits and
every parameter's gradient stay within 1e-5 relative error of the same
model run in float64."""

import typing

import numpy as np
import pytest

from tinyvitlab import model as M
from tinyvitlab import tensor as T
from tinyvitlab.tensor import Tensor, Tape, backward, cross_entropy

BOUND = 1e-5
BATCH = 6


def run(cfg, params, images, targets, mode):
    """(logits, loss, grads in params order) of one forward, cross entropy
    and backward in the params' dtype. Train mode draws drop-path from seed 0,
    which drops one of the 6 samples from each branch of the last block."""
    dtype = next(iter(params.values())).dtype
    with Tape() as tape:
        logits = M.forward(cfg, params, Tensor(images, dtype=dtype), mode,
                           rng=np.random.default_rng(0))
        loss = cross_entropy(logits, targets.astype(dtype))
    return logits.data, loss.item(), backward(loss, tape, params.values())


def relative(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# Measured on numpy 2.4 (OpenBLAS, x86): gradients within 1.4e-6, the loss
# within 1.5e-7 and the eval logits within 1.2e-6 over these 24 cases, a
# seventh of the bound. A tanh GELU in place of the erf, or one erf
# coefficient off by 2.5e-4 of itself, fails every case.
@pytest.mark.parametrize("variant", typing.get_args(M.MlaVariant))
@pytest.mark.parametrize("n_cls", [1, 2])
def test_float32_is_float64_within_bound(variant, n_cls, monkeypatch):
    # paper width and heads at depth 2, so the last block is the pruned,
    # CLS-only one; drop-path at the recipe's rate in train mode
    cfg = M.ModelConfig(depth=2, num_cls_tokens=n_cls, mla=M.MlaConfig(variant, 48))
    s = cfg.num_patches + n_cls
    # two float32 samples' q, k and v, less than one sample's h: the first
    # block runs the batch of 6 as 6 chunks, and the CLS-only last block, whose
    # q, k and v size its chunks, as 3 in float32 and 6 in float64
    monkeypatch.setattr(T, "_CHUNK", 2 * 3 * s * cfg.embed_dim * 4)
    p32 = M.init_params(cfg, np.random.default_rng(3))
    p64 = {path: Tensor(p.data.astype(np.float64), requires_grad=True) for path, p in p32.items()}
    rng = np.random.default_rng(4)
    images = rng.standard_normal((BATCH, 3, 32, 32)).astype(np.float32)
    targets = np.full((BATCH, 10), 0.01)
    targets[np.arange(BATCH), rng.integers(0, 10, BATCH)] += 0.9
    for mode in ("eval", "train"):
        (l32, loss32, g32), (l64, loss64, g64) = (run(cfg, p, images, targets, mode)
                                                  for p in (p32, p64))
        assert g32[0].dtype == np.float32 and g64[0].dtype == np.float64
        assert abs(loss32 - loss64) / abs(loss64) < BOUND, mode
        if mode == "eval":
            assert relative(l32, l64) < BOUND
        worst = max(zip(p32, g32, g64), key=lambda t: relative(t[1], t[2]))
        assert relative(worst[1], worst[2]) < BOUND, (mode, worst[0])
