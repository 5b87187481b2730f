"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s, or in the
captured output section on failure). Criterion 7 needs the CIFAR-10 binary
batches on disk; it skips with an explanation when no data directory is
found (set DATA_DIR or place the files under data/cifar-10-batches-bin).
"""

import math
import os
import time
import typing
import zlib
from pathlib import Path

import numpy as np
import pytest

from tinyvitlab import augment as A
from tinyvitlab import data as D
from tinyvitlab import model as M
from tinyvitlab import optim as O
from tinyvitlab import train as TR
from tinyvitlab.tensor import Tensor, grad_check, cross_entropy


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def _find_cifar() -> Path | None:
    candidates = []
    if os.environ.get("DATA_DIR"):
        candidates.append(Path(os.environ["DATA_DIR"]))
    candidates += [Path("data/cifar-10-batches-bin"),
                   Path(__file__).resolve().parent.parent / "data" / "cifar-10-batches-bin"]
    for c in candidates:
        if (c / "data_batch_1.bin").is_file() and (c / "test_batch.bin").is_file():
            return c
    return None


def effective_projection(params, prefix):
    """The projection as one [C_in, C_out] matrix (down @ up when factored)."""
    if f"{prefix}.weight" in params:
        return params[f"{prefix}.weight"].data
    return params[f"{prefix}.down"].data @ params[f"{prefix}.up"].data


def attention_oracle(x, params, cfg, prefix="blk"):
    """The attention branch with its residual, x + attention(norm1(x)): a
    float64 layer norm, then an independent per-head loop with scalar
    softmax."""
    h, dk = cfg.num_heads, cfg.embed_dim // cfg.num_heads
    wq = effective_projection(params, f"{prefix}.attn.q")
    wk = effective_projection(params, f"{prefix}.attn.k")
    wv = effective_projection(params, f"{prefix}.attn.v")
    wo = params[f"{prefix}.attn.o.weight"].data
    xn = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
    xn = xn * params[f"{prefix}.norm1.gamma"].data + params[f"{prefix}.norm1.beta"].data
    q, k, v = xn @ wq, xn @ wk, xn @ wv
    s = x.shape[0]
    heads = []
    for i in range(h):
        qi, ki, vi = (m[:, i * dk:(i + 1) * dk] for m in (q, k, v))
        out = np.zeros((s, dk))
        for a in range(s):
            scores = qi[a] @ ki.T / np.sqrt(dk)
            scores -= scores.max()
            w = np.exp(scores)
            w /= w.sum()
            out[a] = w @ vi
        heads.append(out)
    return x + np.concatenate(heads, axis=1) @ wo


def test_criterion_1_gradient_correctness():
    # C=32, h=4, depth=2, 16 patch tokens, all six variants, n_cls in {1,2}
    t0 = time.perf_counter()
    worst = 0.0
    for variant in typing.get_args(M.MlaVariant):
        for n_cls in (1, 2):
            cfg = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4,
                                depth=2, num_cls_tokens=n_cls,
                                mla=M.MlaConfig(variant, 8))
            assert cfg.num_patches == 16
            rng = np.random.default_rng((zlib.crc32(variant.encode()), n_cls))
            params = M.grad_check_point(cfg, rng)
            images = Tensor(rng.standard_normal((2, 3, 16, 16)), dtype=np.float64)
            targets = np.full((2, 10), 0.1)

            def f():
                return cross_entropy(M.forward(cfg, params, images, mode="eval"),
                                     targets)

            err = grad_check(f, list(params.values()), h=1e-5, max_coords=3,
                             rng=np.random.default_rng(0))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report(1, "full-model grad check < 1e-4 across 6 variants x {1,2} CLS",
           worst < 1e-4 and elapsed < 300,
           f"max_rel_err={worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_attention_oracle_equivalence():
    variants = typing.get_args(M.MlaVariant)
    lengths = [1, 5, 65]
    worst = 0.0
    for case in range(50):
        variant = variants[case % len(variants)]
        seq = lengths[case % len(lengths)]
        rng = np.random.default_rng(1000 + case)
        cfg = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=1,
                            mla=M.MlaConfig(variant, 8))
        params = {}
        for proj in ("q", "k", "v"):
            if proj in cfg.mla.compressed():   # drawn [out, in], stored transposed
                fac = {"down": M.trunc_normal(rng, (8, 32), dtype=np.float64).T.copy(),
                       "up": M.trunc_normal(rng, (32, 8), dtype=np.float64).T.copy()}
            else:
                fac = {"weight": M.trunc_normal(rng, (32, 32), dtype=np.float64)}
            for name, arr in fac.items():
                params[f"blk.attn.{proj}.{name}"] = Tensor(arr * 10, requires_grad=True)
        params["blk.attn.o.weight"] = Tensor(
            M.trunc_normal(rng, (32, 32), dtype=np.float64) * 10, requires_grad=True)
        x = rng.standard_normal((seq, 32))
        params["blk.norm1.gamma"] = Tensor(1.0 + 0.5 * rng.standard_normal(32), requires_grad=True)
        params["blk.norm1.beta"] = Tensor(0.5 * rng.standard_normal(32), requires_grad=True)
        # the block's FFN branch silenced: all zero but norm2's gamma, so w2 and b2 add nothing
        shapes = M.param_shapes(cfg)
        for name in ("norm2.gamma", "norm2.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"):
            params[f"blk.{name}"] = Tensor((np.ones if name == "norm2.gamma" else np.zeros)(
                shapes[f"blocks.0.{name}"]), requires_grad=True)
        got = M.block(Tensor(x[None], dtype=np.float64), params, cfg, "blk", drop_prob=0.0,
                      mode="eval").data[0]
        want = attention_oracle(x, params, cfg)
        rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)
        worst = max(worst, rel)
    report(2, "attention matches naive per-head oracle over 50 cases",
           worst <= 1e-10, f"max_rel={worst:.3e}")


def test_criterion_3_mla_parameter_accounting():
    cfg = M.ModelConfig(mla=M.MlaConfig("q", 48))
    shapes = M.param_shapes(cfg)
    comp_size = sum(math.prod(shapes[f"blocks.0.attn.q.{name}"]) for name in ("down", "up"))
    full_size = math.prod(shapes["blocks.0.attn.k.weight"])
    per_layer = M.attention_params_per_layer(cfg)
    ok = comp_size == 18_432 and full_size == 36_864 and per_layer == 129_024
    report(3, "MLA parameter accounting (18432 / 36864 / 129024)", ok,
           f"compressed={comp_size} full={full_size} variant_q_layer={per_layer}")


def test_criterion_4_sharded_gradient_equivalence():
    # no drop-path: each shard draws its own masks
    cfg = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=2,
                        mla=M.MlaConfig("qk", 8), drop_path_rate=0.0)
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(2000 + case)
        params = M.init_params(cfg, rng, dtype=np.float64)
        batch = A.SoftBatch(rng.standard_normal((8, 3, 16, 16)),
                            np.full((8, 10), 0.1))
        serial, _ = TR.parallel_train_step(cfg, params, batch, workers=1)
        sharded, _ = TR.parallel_train_step(cfg, params, batch, workers=4)
        for k in serial:
            worst = max(worst, float(np.abs(serial[k] - sharded[k]).max()))
    report(4, "K=4 sharded gradients equal serial within 1e-10 over 20 batches",
           worst <= 1e-10, f"max_abs_diff={worst:.3e}")


def test_criterion_5_optimizer_oracles_and_schedule():
    import math
    rng = np.random.default_rng(3)
    grads = rng.standard_normal(10).tolist()

    # scalar AdamW oracle; decoupled decay computed from the pre-step value
    theta_ref, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, 1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat, vhat = m / (1 - 0.9 ** t), v / (1 - 0.999 ** t)
        theta_ref = theta_ref - 0.002 * mhat / (math.sqrt(vhat) + 1e-8) \
            - 0.002 * 0.05 * theta_ref

    # a [1,1] matrix: 1-D parameters are biases and affines, which skip decay
    p = {"w.weight": Tensor(np.array([[0.5]]), requires_grad=True)}
    st = O.init_optim("adamw", p, weight_decay=0.05)
    for g in grads:
        O.step(p, {"w.weight": np.array([[g]])}, st, 0.002)
    adamw_err = abs(p["w.weight"].data[0, 0] - theta_ref)

    # scalar Lion oracle
    theta_l, ml = 0.5, 0.0
    for g in grads:
        u = math.copysign(1.0, 0.9 * ml + 0.1 * g)
        theta_l = theta_l - 0.0002 * u - 0.0002 * 0.5 * theta_l
        ml = 0.99 * ml + 0.01 * g
    p = {"w.weight": Tensor(np.array([[0.5]]), requires_grad=True)}
    st = O.init_optim("lion", p, weight_decay=0.5)
    for g in grads:
        O.step(p, {"w.weight": np.array([[g]])}, st, 0.0002)
    lion_exact = p["w.weight"].data[0, 0] == theta_l

    lr_at_warmup = O.lr_schedule(100, 1000, 100, 0.002, lr_min=1e-5)
    lr_at_end = O.lr_schedule(1000, 1000, 100, 0.002, lr_min=1e-5)
    sched_ok = abs(lr_at_warmup - 0.002) < 1e-15 and abs(lr_at_end - 1e-5) < 1e-12

    report(5, "10-step AdamW/Lion scalar oracles and schedule endpoints",
           adamw_err <= 1e-12 and lion_exact and sched_ok,
           f"adamw_err={adamw_err:.2e} lion_exact={lion_exact} "
           f"lr(warmup)={lr_at_warmup} lr(T)={lr_at_end}")


def test_criterion_6_augmentation_properties():
    rng = np.random.default_rng(4)
    n_classes = 10

    # label smoothing row values
    sm = A.label_smooth(A.one_hot(np.array([2]), 10), 0.1, 10)
    smooth_ok = (abs(sm[0, 2] - 0.91) < 1e-6
                 and np.allclose(np.delete(sm[0], 2), 0.01, atol=1e-6))

    sums_ok = True
    cutmix_exact = True
    b, h, w = 8, 32, 32
    const_images = np.stack([np.full((3, h, w), float(i), np.float32)
                             for i in range(b)])
    const_targets = A.one_hot(np.arange(b), b)
    for draw in range(1000):
        batch = A.SoftBatch(rng.standard_normal((b, 3, h, w)).astype(np.float32),
                            A.one_hot(rng.integers(0, n_classes, b), n_classes))
        mixed = A.mixup(batch, rng)
        cut = A.cutmix(batch, rng)
        if not (np.all(np.abs(mixed.targets.sum(axis=1) - 1.0) <= 1e-6)
                and np.all(np.abs(cut.targets.sum(axis=1) - 1.0) <= 1e-6)):
            sums_ok = False

        # exact mixed-pixel accounting on constant images
        cm = A.cutmix(A.SoftBatch(const_images.copy(), const_targets), rng)
        for i in range(b):
            partners = [int(v) for v in np.unique(cm.images[i, 0]) if int(v) != i]
            if len(partners) != 1:
                continue
            frac = np.count_nonzero(cm.images[i, 0] == partners[0]) / (h * w)
            if cm.targets[i, partners[0]] != np.float32(frac):
                cutmix_exact = False

    # bitwise seed determinism across the full raw->mixed pipeline
    img = rng.integers(0, 256, (3, 32, 32), dtype=np.uint8)
    outs = []
    for _ in range(2):
        r = np.random.default_rng(99)
        erased = A.apply_plan(img[None], A.plan_batch(1, img.shape, "autoaugment", 0.25, r))[0]
        sb = A.SoftBatch(np.stack([erased] * 4).astype(np.float32),
                         A.one_hot(np.arange(4) % 10, 10))
        outs.append(A.mixup(sb, r).images)
    determinism_ok = np.array_equal(outs[0], outs[1])

    report(6, "1000-draw augmentation scans (sums, exact CutMix, smoothing, seeds)",
           smooth_ok and sums_ok and cutmix_exact and determinism_ok,
           f"smooth={smooth_ok} sums={sums_ok} cutmix_exact={cutmix_exact} "
           f"deterministic={determinism_ok}")


def test_criterion_7_desk_scale_learnability(tmp_path):
    data_dir = _find_cifar()
    if data_dir is None:
        pytest.skip("CIFAR-10 binaries not found (set DATA_DIR or put the "
                    "batch files in data/cifar-10-batches-bin; "
                    "scripts/fetch_cifar10.py downloads them)")
    train_ds = D.load_cifar10(data_dir, "train")
    test_ds = D.subset_per_class(D.load_cifar10(data_dir, "test"), 200, D.CIFAR10_CLASSES)
    model = M.ModelConfig(embed_dim=64, num_heads=4, depth=3,
                          drop_path_rate=0.0, mla=M.MlaConfig("none", 16))
    aug = A.AugmentConfig(use_mixup=False, use_cutmix=False,
                          repeated_factor=1, erase_prob=0.0)
    cfg = TR.TrainConfig(epochs=10, batch_size=128, lr_peak=0.002,
                         warmup_epochs=1, workers=min(os.cpu_count() or 1, 8),
                         seed=0, subset_per_class=500, eval_every=10,
                         model=model, augment=aug)
    t0 = time.perf_counter()
    result = TR.train(cfg, train_ds, test_ds, tmp_path / "out")
    elapsed = time.perf_counter() - t0
    report(7, "CIFAR-10 500/class, 10 epochs -> accuracy >= 0.40",
           result.final.val_acc >= 0.40,
           f"val_acc={result.final.val_acc:.4f}, {elapsed / 60:.1f} min")


def test_criterion_8_mcls_structural():
    rng = np.random.default_rng(5)
    two = M.init_params(M.ModelConfig(embed_dim=96, num_heads=12, depth=1,
                                      num_cls_tokens=2), rng)
    one = M.init_params(M.ModelConfig(embed_dim=96, num_heads=12, depth=1,
                                      num_cls_tokens=1), rng)
    head = lambda p: sum(p[k].size for k in p if k.startswith("head."))
    dim_ok = two["head.w1"].shape == (192, 96)
    more_ok = head(two) > head(one)
    # single-CLS head: hidden MLP C -> C -> classes
    base_ok = (one["head.w1"].shape == (96, 96)
               and one["head.w2"].shape == (96, 10)
               and head(one) == 96 * 96 + 96 + 96 * 10 + 10)
    report(8, "MCLS head input dim 192 and parameter accounting",
           dim_ok and more_ok and base_ok,
           f"dim_ok={dim_ok} more_params={more_ok} baseline_head={base_ok}")


def test_criterion_9_positional_information():
    import tempfile
    wins = 0
    details = []
    for seed in range(3):
        # held-out evaluation split: a permutation-invariant model could
        # otherwise memorize individual training images via their noise
        train_ds = D.synthetic_dataset("striped-patches", 192, seed=seed, image_size=16)
        test_ds = D.synthetic_dataset("striped-patches", 96, seed=100 + seed, image_size=16)
        accs = {}
        for pos in ("learnable", "zero"):
            model = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4,
                                  depth=2, num_classes=2, pos_embed=pos,
                                  mla=M.MlaConfig("none", 8))
            cfg = TR.TrainConfig(epochs=15, batch_size=16, lr_peak=1e-3,
                                 weight_decay=0.0, warmup_epochs=2, workers=1,
                                 seed=seed, eval_every=1000, model=model,
                                 augment=A.AugmentConfig.disabled())
            with tempfile.TemporaryDirectory() as td:
                result = TR.train(cfg, train_ds, test_ds, td)
            accs[pos] = result.final.val_acc
        gap = accs["learnable"] - accs["zero"]
        details.append(f"seed{seed}: {accs['learnable']:.2f} vs {accs['zero']:.2f}")
        if gap >= 0.10:
            wins += 1
    report(9, "positional embeddings beat frozen-zero by >= 10 points (every one of 3 seeds)",
           wins == 3, "; ".join(details))


def test_criterion_10_profiler_bookkeeping(phase_clock):
    cfg = M.ModelConfig()  # baseline shape: C=192, h=12, depth=9
    params = M.init_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    batch = A.SoftBatch(rng.standard_normal((8, 3, 32, 32)).astype(np.float32),
                        np.full((8, 10), 0.1, np.float32))
    run = TR.TrainConfig(model=cfg)
    prof = TR.profile_step(run, params, batch, warmup=1, steps=3)
    total = prof.forward_ms + prof.backward_ms + prof.optim_ms
    sum_ok = abs(total - prof.total_ms) <= 0.01 * prof.total_ms
    timed_ok = min(prof.forward_ms, prof.backward_ms, prof.optim_ms, prof.eval_ms) > 0
    # a fake clock that only the phases advance: each must get exactly its own time
    with phase_clock():
        fake = TR.profile_step(run, params, batch, warmup=0, steps=1)
    phases_ok = fake == TR.StepProfile(1000.0, 2000.0, 4000.0, 7000.0, 8000.0)

    report(10, "profiler phases sum within 1%, every phase timed, exact phase "
           "attribution on a fake clock",
           sum_ok and timed_ok and phases_ok,
           f"fwd={prof.forward_ms:.1f}ms bwd={prof.backward_ms:.1f}ms "
           f"opt={prof.optim_ms:.1f}ms eval={prof.eval_ms:.1f}ms fake={fake}")


def test_criterion_11_checkpoint_resume_fidelity(tmp_path):
    ds = D.synthetic_dataset("two-class-blobs", 24, seed=11)
    model = M.ModelConfig(image_size=32, embed_dim=32, num_heads=4, depth=1,
                          mla=M.MlaConfig("none", 8))
    cfg = TR.TrainConfig(epochs=3, batch_size=8, lr_peak=1e-3, warmup_epochs=1,
                         workers=1, seed=0, model=model,
                         augment=A.AugmentConfig.disabled())
    full = TR.train(cfg, ds, ds, tmp_path / "full")
    part = TR.train(cfg, ds, ds, tmp_path / "part", stop_after_epoch=1)
    resumed = TR.train(cfg, ds, ds, tmp_path / "resumed",
                       resume=part.checkpoint_path)
    spe = TR.steps_per_epoch(len(ds), cfg)
    losses_ok = (part.step_losses == full.step_losses[:spe]
                 and resumed.step_losses == full.step_losses[spe:])
    a = D.load_checkpoint(full.checkpoint_path)
    b = D.load_checkpoint(resumed.checkpoint_path)
    params_ok = all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    report(11, "interrupted-and-resumed run reproduces loss sequence bitwise",
           losses_ok and params_ok,
           f"losses_bitwise={losses_ok} params_bitwise={params_ok}")
