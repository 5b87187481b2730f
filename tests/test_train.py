"""Training loop: deterministic batching, sharded-gradient equivalence,
checkpoint resume, profiling bookkeeping, and the CLI plumbing."""

import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import types
import typing
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from tinyvitlab import augment as A
from tinyvitlab import cli
from tinyvitlab import data as D
from tinyvitlab import model as M
from tinyvitlab import optim as O
from tinyvitlab import tensor as T
from tinyvitlab import train as TR
from tinyvitlab.tensor import Tensor


def tiny_train_config(**kw):
    model = kw.pop("model", None) or M.ModelConfig(
        image_size=32, embed_dim=32, num_heads=4, depth=1, num_cls_tokens=1,
        mla=M.MlaConfig("none", 8))
    aug = kw.pop("augment", None) or A.AugmentConfig.disabled()
    defaults = dict(epochs=2, batch_size=8, lr_peak=1e-3, warmup_epochs=1,
                    workers=1, seed=0, model=model, augment=aug)
    defaults.update(kw)
    return TR.TrainConfig(**defaults)


def blas_case():
    """A 96/4/2 float32 model and a 32-image batch: at this shape OpenBLAS
    0.3.31 gives 16-image shards other gradient bits under 1 and 2 threads
    (seen on a 2-vCPU x86 box)."""
    cfg = M.ModelConfig(embed_dim=96, num_heads=4, depth=2)
    rng = np.random.default_rng(0)
    params = M.init_params(cfg, rng)
    batch = A.SoftBatch(rng.standard_normal((32, 3, 32, 32)).astype(np.float32),
                        np.full((32, 10), 0.1, np.float32))
    return cfg, params, batch


# a dataset that does not fit a 32-pixel, 2-class model: (how, what the error shows)
MISFITS = [
    ("size", r"images are \[3, 16, 16\] per sample, the model takes \[3, 32, 32\]"),
    ("label", r"label 5 at index 3 is outside \[0, 2\)"),
    ("negative-label", r"label -1 at index 0 is outside \[0, 2\)"),
    # once a TypeError from equalize's bincount, a silent run on pixels above
    # 255, an IndexError from one_hot and a ValueError from label_smooth
    ("float64-images", r"images are float64, the model takes uint8 pixels"),
    ("int16-images", r"images are int16, the model takes uint8 pixels"),
    ("float-labels", r"labels are float64 of shape \[16\], the model takes 1-D integer classes"),
    ("column-labels", r"labels are int64 of shape \[16, 1\], the model takes 1-D integer "
                      r"classes"),
]


def misfit_dataset(how):
    """16 two-class images that do not fit a 32-pixel, 2-class model."""
    ds = D.synthetic_dataset("two-class-blobs", 16, seed=8, image_size=16 if how == "size" else 32)
    images, labels = ds.images, ds.labels.copy()
    if how == "label":
        labels[3] = 5
    elif how == "negative-label":
        labels[0] = -1
    elif how == "float64-images":
        images = images.astype(np.float64)
    elif how == "int16-images":
        images = images.astype(np.int16)
        images[0, 0, 0, 0] = 299
    elif how == "float-labels":
        labels = labels.astype(np.float64)
    elif how == "column-labels":
        labels = labels[:, None]
    return dataclasses.replace(ds, images=images, labels=labels)


def grad_digest(grads, loss):
    """A hex digest of a step's gradient bytes, in sorted path order, and loss."""
    h = hashlib.sha256(repr(loss).encode())
    for k in sorted(grads):
        h.update(grads[k].tobytes())
    return h.hexdigest()


def crash_run():
    """The run TestCrashResume kills and resumes: three epochs of four
    8-image steps, full augmentation stack, tiny model, one worker."""
    cfg = tiny_train_config(epochs=3, augment=A.AugmentConfig(repeated_factor=2))
    return cfg, D.synthetic_dataset("two-class-blobs", 16, seed=7)


def train_until_killed(out, owner, name, call, before):
    """Train crash_run() into `out`, and SIGKILL this process at call number
    `call` of `name` in `owner` ("train" or "os"): as the call starts if
    `before`, else as it returns."""
    target = TR if owner == "train" else os
    real, calls = getattr(target, name), []

    def dying(*args, **kwargs):
        calls.append(None)
        if before and len(calls) == call:
            os.kill(os.getpid(), signal.SIGKILL)
        result = real(*args, **kwargs)
        if len(calls) == call:
            os.kill(os.getpid(), signal.SIGKILL)
        return result

    setattr(target, name, dying)
    cfg, ds = crash_run()
    TR.train(cfg, ds, ds, out)


def run_until_killed(out, owner, name, call, before):
    """train_until_killed in a child process, which must die by SIGKILL."""
    child = ("import sys; sys.path[:0] = sys.argv[1:3]; import test_train as T; "
             "T.train_until_killed(sys.argv[3], sys.argv[4], sys.argv[5], "
             "int(sys.argv[6]), sys.argv[7] == 'before')")
    run = subprocess.run([sys.executable, "-c", child, str(Path(TR.__file__).parents[1]),
                          str(Path(__file__).parent), str(out), owner, name, str(call),
                          "before" if before else "after"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == -signal.SIGKILL, run.stderr


# ---------------------------------------------------------------------------
# rng derivation

class TestRngFor:
    def test_same_key_same_stream(self):
        a = TR.rng_for(3, "augment", 1, 2).random(5)
        b = TR.rng_for(3, "augment", 1, 2).random(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = TR.rng_for(3, "augment", 1, 2).random(5)
        for other in (TR.rng_for(4, "augment", 1, 2), TR.rng_for(3, "shuffle", 1, 2),
                      TR.rng_for(3, "augment", 1, 3), TR.rng_for(3, "augment", 2, 2)):
            assert not np.array_equal(base, other.random(5))


# ---------------------------------------------------------------------------
# batch construction

class TestBuildBatches:
    def test_deterministic_and_shaped(self):
        ds = D.synthetic_dataset("two-class-blobs", 32, seed=1)
        # full stack; batch size divisible by the default repeat factor of 4
        cfg = tiny_train_config(augment=A.AugmentConfig(), batch_size=12)
        a = list(TR.build_batches(ds, cfg, epoch=0))
        b = list(TR.build_batches(ds, cfg, epoch=0))
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            assert x.images.shape == (12, 3, 32, 32) and x.images.dtype == np.float32
            assert np.array_equal(x.images, y.images)
            assert np.array_equal(x.targets, y.targets)
            assert np.allclose(x.targets.sum(axis=1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("erase_prob", [0.0, 1.0])
    @pytest.mark.parametrize("base_augment", ["none", "crop_flip", "autoaugment"])
    def test_images_are_float32_without_a_cast(self, base_augment, erase_prob):
        # A.apply_plan returns D.normalize's float32 batch, erased in place, so
        # build_batches casts nothing
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=1)
        aug = dataclasses.replace(A.AugmentConfig.disabled(), base_augment=base_augment,
                                  erase_prob=erase_prob)
        for batch in TR.build_batches(ds, tiny_train_config(augment=aug), epoch=0):
            assert batch.images.dtype == np.float32

    def test_epochs_differ(self):
        ds = D.synthetic_dataset("two-class-blobs", 32, seed=1)
        cfg = tiny_train_config()
        a = next(iter(TR.build_batches(ds, cfg, epoch=0)))
        b = next(iter(TR.build_batches(ds, cfg, epoch=1)))
        assert not np.array_equal(a.images, b.images)

    def test_disabled_pipeline_targets_are_hard_labels(self):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=2)
        cfg = tiny_train_config()
        for batch in TR.build_batches(ds, cfg, epoch=0):
            assert set(np.unique(batch.targets)) <= {0.0, 1.0}

    def test_repeated_augment_batch_composition(self):
        ds = D.synthetic_dataset("two-class-blobs", 30, seed=3)
        aug = A.AugmentConfig.disabled()
        aug.repeated_factor = 3
        cfg = tiny_train_config(batch_size=12, augment=aug)
        order = TR.rng_for(cfg.seed, "shuffle", 0).permutation(len(ds))
        batches = list(TR.build_batches(ds, cfg, epoch=0))
        assert len(batches) == TR.steps_per_epoch(len(ds), cfg)
        first_sources = order[:4]
        labels = ds.labels[np.repeat(first_sources, 3)]
        got = np.argmax(batches[0].targets, axis=1)
        assert np.array_equal(got, labels)

    def test_steps_per_epoch_arithmetic(self):
        cfg = tiny_train_config(batch_size=8)
        assert TR.steps_per_epoch(33, cfg) == 4
        aug = A.AugmentConfig.disabled()
        aug.repeated_factor = 3
        cfg = tiny_train_config(batch_size=12, augment=aug)
        assert TR.steps_per_epoch(24, cfg) == 6

    @pytest.mark.parametrize("factor", [1, 2, 4])
    @pytest.mark.parametrize("repeat", [True, False])
    def test_steps_per_epoch_counts_build_batches(self, factor, repeat):
        # train's LR schedule is laid out from steps_per_epoch; without
        # repetition the factor is 1, whatever factor would repeat
        aug = A.AugmentConfig.disabled()
        aug.repeated_factor = factor if repeat else 1
        cfg = tiny_train_config(batch_size=8, augment=aug)
        sources = 8 // aug.repeated_factor    # distinct images per batch
        for n in (sources - 1, sources, 3 * sources + 1):
            ds = D.synthetic_dataset("two-class-blobs", max(n, 2), seed=4)
            ds = dataclasses.replace(ds, images=ds.images[:n], labels=ds.labels[:n])
            batches = list(TR.build_batches(ds, cfg, epoch=0))
            assert TR.steps_per_epoch(n, cfg) == len(batches), n


class TestBatchBits:
    """The CRC-32 of one build_batches epoch's images and targets, batch by
    batch, on seeded uint8 images: what a batch holds may change only in a
    diff that edits these constants and says why. Keyed by numpy's major
    version, since NEP 50 changed how numpy 2 promotes the Python-float
    scalars of the blend, mix and label arithmetic; on a version without
    constants the test skips and prints its CRCs."""

    DESK = A.AugmentConfig(repeated_factor=4)   # autoaugment, erasing, MixUp/CutMix
    CASES = {"desk": DESK,
             "crop_flip": dataclasses.replace(DESK, base_augment="crop_flip"),
             "none": dataclasses.replace(DESK, base_augment="none")}
    CRCS = {"2": {"desk": "3:a616ea33", "crop_flip": "3:d7ad493d", "none": "3:7e0ff889"}}

    @staticmethod
    def dataset(n=96):
        rng = np.random.default_rng(42)
        images = rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8)
        images[::4] = images[::4] // 16 + 120   # a narrow range: autocontrast and equalize stretch it
        images[1::8, 0] = 7                     # a flat channel: both leave it as it is
        images[2::8, :, :16] = 255              # a saturated half: solarize and posterize cut it
        return D.Dataset(images, rng.integers(0, 10, n), "train", "bits")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_epoch_bits(self, case):
        cfg = tiny_train_config(batch_size=128, seed=5, augment=self.CASES[case])
        crc = 0
        for count, batch in enumerate(TR.build_batches(self.dataset(), cfg, epoch=1), 1):
            crc = zlib.crc32(batch.targets.tobytes(), zlib.crc32(batch.images.tobytes(), crc))
        got = f"{count}:{crc:08x}"
        pinned = self.CRCS.get(np.__version__.split(".")[0])
        if pinned is None:
            pytest.skip(f"no batch CRCs for numpy {np.__version__}: {case} gives {got}")
        assert got == pinned[case]


# ---------------------------------------------------------------------------
# parallel gradients

class TestParallelStep:
    @staticmethod
    def setup_case(workers_seed=0, b=8, dtype=np.float64, **model):
        cfg = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=2,
                            mla=M.MlaConfig("kv", 8), **model)
        rng = np.random.default_rng(workers_seed)
        params = M.init_params(cfg, rng, dtype=dtype)
        images = rng.standard_normal((b, 3, 16, 16)).astype(dtype, copy=False)
        targets = np.full((b, 10), 0.1, dtype)
        return cfg, params, A.SoftBatch(images, targets)

    def test_one_worker_rerun_is_bitwise(self):
        cfg, params, batch = self.setup_case()
        g1, l1 = TR.parallel_train_step(cfg, params, batch, workers=1)
        g2, l2 = TR.parallel_train_step(cfg, params, batch, workers=1)
        assert l1 == l2
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_worker_is_the_lanes_partition_walked_serially(self, dtype):
        # a plain forward and backward on this thread, under one BLAS thread,
        # its block ops cut into the lanes' partition and run by the builtin
        # map, with the step's drop-path stream: the serial partition (no
        # lanes) moves the last bits of most gradient arrays
        cfg, params, batch = self.setup_case(dtype=dtype, drop_path_rate=0.2)
        grads, loss = TR.parallel_train_step(cfg, params, batch, workers=1,
                                             seed=3, epoch=1, step_idx=2)
        with TR._one_blas_thread(), T.lanes(map), T.Tape() as tape:
            logits = M.forward(cfg, params, Tensor(batch.images), mode="train",
                               rng=TR.rng_for(3, "droppath", 1, 2, 0))
            want = T.cross_entropy(logits, batch.targets)
            want_grads = T.backward(want, tape, params.values())
        assert loss == want.item()
        for k, g in zip(params, want_grads):
            assert g.dtype == dtype and np.array_equal(grads[k], g), k

    def test_one_worker_step_keeps_no_gradient_copy(self):
        # paper recipe, batch 2: the forward and backward peak at 17.8 MB;
        # a second full set of gradients would add 16.2 MB
        cfg = M.ModelConfig(drop_path_rate=0.1)
        rng = np.random.default_rng(0)
        params = M.init_params(cfg, rng)
        batch = A.SoftBatch(rng.standard_normal((2, 3, 32, 32)).astype(np.float32),
                            np.full((2, 10), 0.1, np.float32))
        _, peak = TR._traced_peak(lambda: TR.parallel_train_step(cfg, params, batch, workers=1))
        assert peak <= 25e6

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_matches_serial(self, workers):
        # no drop-path: each shard draws its own masks
        cfg, params, batch = self.setup_case(b=8, drop_path_rate=0.0)
        serial, loss_s = TR.parallel_train_step(cfg, params, batch, workers=1)
        sharded, loss_k = TR.parallel_train_step(cfg, params, batch, workers=workers)
        assert abs(loss_s - loss_k) <= 1e-12 * max(abs(loss_s), 1.0)
        for k in serial:
            denom = max(np.abs(serial[k]).max(), 1.0)
            assert np.abs(serial[k] - sharded[k]).max() <= 1e-10 * denom

    def test_sharded_run_is_repeatable(self):
        cfg, params, batch = self.setup_case()
        a, _ = TR.parallel_train_step(cfg, params, batch, workers=4)
        b, _ = TR.parallel_train_step(cfg, params, batch, workers=4)
        for k in a:
            assert np.array_equal(a[k], b[k])

    @staticmethod
    def fake_libc(monkeypatch, **symbols):
        """Serve ctypes.CDLL(None), the C library, as a namespace of
        `symbols`, and give _keep_freed_memory a fresh once-per-process cache."""
        real = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **k: (
            types.SimpleNamespace(**symbols) if name is None else real(name, *a, **k)))
        monkeypatch.setattr(TR, "_keep_freed_memory",
                            functools.cache(TR._keep_freed_memory.__wrapped__))

    @pytest.mark.parametrize("first", ["step", "eval"])
    def test_malloc_thresholds_set_once_per_process(self, first, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.fake_libc(monkeypatch, mallopt=mallopt)
        cfg, params, batch = self.setup_case()
        paths = {"step": lambda: TR.parallel_train_step(cfg, params, batch, workers=2),
                 "eval": lambda: TR._eval_logits(cfg, params, batch.images)}
        paths[first]()
        # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 1 GiB, M_ARENA_MAX 1
        assert calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]
        for path in ("step", "eval", "step"):
            paths[path]()
        assert len(calls) == 3

    def test_without_mallopt_the_step_runs_unchanged(self, monkeypatch):
        cfg, params, batch = self.setup_case()
        want, loss = TR.parallel_train_step(cfg, params, batch, workers=1)
        self.fake_libc(monkeypatch)   # a C library with no mallopt
        got, got_loss = TR.parallel_train_step(cfg, params, batch, workers=1)
        assert got_loss == loss and all(np.array_equal(got[k], want[k]) for k in want)

    def test_indivisible_shard_rejected(self):
        cfg, params, batch = self.setup_case(b=6)
        with pytest.raises(ValueError):
            TR.parallel_train_step(cfg, params, batch, workers=4)

    def test_parameters_not_mutated(self):
        cfg, params, batch = self.setup_case()
        before = {k: v.data.copy() for k, v in params.items()}
        TR.parallel_train_step(cfg, params, batch, workers=2)
        for k, v in params.items():
            assert np.array_equal(v.data, before[k])

    @staticmethod
    def watch_shards(monkeypatch, get_count, fail=False):
        """Record the BLAS count each shard's forward starts under; optionally
        raise instead of running it."""
        seen = []
        real = M.forward

        def forward(*args, **kwargs):
            seen.append(get_count())
            if fail:
                raise RuntimeError("shard failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(M, "forward", forward)
        return seen

    # (OpenBLAS count before the step, usable CPUs, workers, per-shard count):
    # every shard runs at one thread, one worker's inline shard too
    @pytest.mark.parametrize("start,cpus,workers,pinned", [
        (8, 4, 2, 1), (8, 2, 4, 1), (4, 6, 4, 1), (3, 16, 2, 1), (1, 4, 2, 1), (3, 16, 1, 1)])
    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_threads_pinned_and_restored(self, monkeypatch, start, cpus, workers,
                                              pinned, fail):
        count = [start]   # a stand-in OpenBLAS whose thread count is this cell
        monkeypatch.setattr(TR, "_openblas", lambda: TR._OpenBlas(
            lambda: count[0], lambda n: count.__setitem__(0, n)))
        monkeypatch.setattr(TR, "_usable_cpus", lambda: cpus)
        cfg, params, batch = self.setup_case()
        seen = self.watch_shards(monkeypatch, lambda: count[0], fail)
        with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
            TR.parallel_train_step(cfg, params, batch, workers=workers)
        assert seen and set(seen) == {pinned}
        assert count == [start]

    def test_unpinned_without_openblas(self, monkeypatch, tmp_path):
        monkeypatch.setattr(TR, "_OPENBLAS_SYMBOLS", (("no_get_threads", "no_set_threads"),))
        monkeypatch.setattr(TR, "_openblas", TR._openblas.__wrapped__)   # uncached lookup
        assert TR._openblas() is None
        cfg, params, batch = self.setup_case(drop_path_rate=0.0)
        unpinned, _ = TR.parallel_train_step(cfg, params, batch, workers=2)
        serial, _ = TR.parallel_train_step(cfg, params, batch, workers=1)
        for k in serial:
            assert np.abs(serial[k] - unpinned[k]).max() <= 1e-10 * max(np.abs(serial[k]).max(), 1.0)
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        result = TR.train(tiny_train_config(epochs=1, workers=2), ds, ds, tmp_path / "out")
        ckpt = D.load_checkpoint(result.checkpoint_path)
        assert "blas_threads" not in ckpt.train_config

    @pytest.mark.parametrize("start", ["derived", 1, 2])
    def test_sharded_bits_fixed_by_blas_count(self, monkeypatch, start):
        # at this shape OpenBLAS 0.3.31 gives other gradient bits under 1 and
        # 2 threads (seen on a 2-vCPU x86 box), so every shard runs at one
        # thread whatever the count before the step ("derived": the one
        # OpenBLAS derived at start-up from OPENBLAS_NUM_THREADS or the CPUs)
        blas = TR._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS thread control found in this numpy")
        cfg, params, batch = blas_case()
        before = blas.get()
        seen = self.watch_shards(monkeypatch, blas.get)
        try:
            if start != "derived":
                blas.set(start)
            a, loss_a = TR.parallel_train_step(cfg, params, batch, workers=2)
            after = blas.get()
            blas.set(1)
            b, loss_b = TR.parallel_train_step(cfg, params, batch, workers=2)
        finally:
            blas.set(before)
        assert seen == [1] * 4 and after == (before if start == "derived" else start)
        assert loss_a == loss_b
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_bits_fixed_across_cpu_counts(self, monkeypatch, workers):
        # the per-shard BLAS count once followed the CPU count, which gave
        # other bits at this shape with 4 or 8 CPUs than with 1-3
        cfg, params, batch = blas_case()
        digests = {}
        for cpus in (1, 2, 3, 4, 8):
            monkeypatch.setattr(TR, "_usable_cpus", lambda: cpus)
            digests[cpus] = grad_digest(*TR.parallel_train_step(cfg, params, batch,
                                                                workers=workers))
        assert len(set(digests.values())) == 1, digests

    def test_sharded_bits_fixed_across_openblas_env(self):
        if TR._openblas() is None:
            pytest.skip("no OpenBLAS thread control found in this numpy")
        src = Path(TR.__file__).parents[1]
        child = ("import sys; sys.path[:0] = sys.argv[1:]; import test_train as T; "
                 "from tinyvitlab import train as TR; "
                 "cfg, params, batch = T.blas_case(); "
                 "print(TR._openblas().get(), "
                 "T.grad_digest(*TR.parallel_train_step(cfg, params, batch, workers=2)))")
        out = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", child, str(src), str(Path(__file__).parent)],
                                 env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            out[threads] = run.stdout.split()
        assert out["1"][0] == "1"
        assert out["1"][1] == out["2"][1], out

    def test_one_worker_bits_fixed_across_openblas_env(self):
        # a one-worker step runs its whole shard at one BLAS thread, with its
        # block ops' chunks on the lanes, so blas_case's bits do not follow
        # OPENBLAS_NUM_THREADS
        if TR._openblas() is None:
            pytest.skip("no OpenBLAS thread control found in this numpy")
        child = ("import sys; sys.path[:0] = sys.argv[1:]; import test_train as T; "
                 "from tinyvitlab import train as TR; "
                 "cfg, params, batch = T.blas_case(); "
                 "print(TR._openblas().get(), "
                 "T.grad_digest(*TR.parallel_train_step(cfg, params, batch, workers=1)))")
        out = {}
        for threads in ("1", "2"):
            run = subprocess.run([sys.executable, "-c", child, str(Path(TR.__file__).parents[1]),
                                  str(Path(__file__).parent)],
                                 env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            out[threads] = run.stdout.split()
        assert out["1"][0] == "1"
        assert out["1"][1] == out["2"][1], out

    def test_one_worker_bits_fixed_across_cpu_counts(self, monkeypatch):
        # the lanes' partition is fixed: one CPU runs the same chunks on one thread
        cfg, params, batch = blas_case()
        digests = {}
        for cpus in (1, 2, 4):
            monkeypatch.setattr(TR, "_usable_cpus", lambda: cpus)
            digests[cpus] = grad_digest(*TR.parallel_train_step(cfg, params, batch, workers=1))
        assert len(set(digests.values())) == 1, digests


# ---------------------------------------------------------------------------
# evaluation and the full loop

class TestEvaluate:
    def test_bounds_and_determinism(self):
        ds = D.synthetic_dataset("two-class-blobs", 20, seed=4)
        cfg = tiny_train_config().model
        params = M.init_params(cfg, np.random.default_rng(0))
        a = TR.evaluate(cfg, params, ds, batch_size=7)
        b = TR.evaluate(cfg, params, ds, batch_size=20)
        assert 0.0 <= a <= 1.0
        assert a == b  # batching must not change the verdict

    def test_empty_dataset_rejected(self):
        ds = D.Dataset(np.zeros((0, 3, 32, 32), np.uint8),
                       np.zeros(0, np.int64), "test", "empty")
        cfg = tiny_train_config().model
        params = M.init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            TR.evaluate(cfg, params, ds)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_refused(self, batch_size):
        # once 0 raised range()'s "arg 3 must not be zero" and -1 read accuracy 0.0
        ds = D.synthetic_dataset("two-class-blobs", 4, seed=4)
        cfg = tiny_train_config().model
        params = M.init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"evaluate batch_size must be >= 1, got {batch_size}"):
            TR.evaluate(cfg, params, ds, batch_size=batch_size)

    @pytest.mark.parametrize("how, shown", MISFITS, ids=[m[0] for m in MISFITS])
    def test_dataset_that_does_not_fit_is_refused(self, how, shown):
        # once a broadcast error from add, an IndexError from one_hot, or a
        # negative label silently read as the last class
        cfg = dataclasses.replace(tiny_train_config().model, num_classes=2)
        params = M.init_params(cfg, np.random.default_rng(0))
        with pytest.raises(D.DataError, match=r"ds \(synthetic-two-class-blobs, split train\): "
                                              + shown):
            TR.evaluate(cfg, params, misfit_dataset(how))

    @staticmethod
    def watch_forwards(monkeypatch, get_count=lambda: None, fail=False):
        """Record [images, logits, BLAS count] of each model forward, from
        whichever thread runs it; optionally raise instead of running it."""
        calls = []
        real = M.forward

        def forward(cfg, params, x, **kwargs):
            call = [x.data, None, get_count()]
            calls.append(call)
            if fail:
                raise RuntimeError("shard failed")
            out = real(cfg, params, x, **kwargs)
            call[1] = out.data
            return out

        monkeypatch.setattr(M, "forward", forward)
        return calls

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n, batch_size", [(20, 7), (1, 256)])
    def test_sharded_forwards_match_unsharded(self, monkeypatch, cpus, n, batch_size):
        blobs = D.synthetic_dataset("two-class-blobs", 20, seed=4)
        cfg = tiny_train_config().model
        params = M.init_params(cfg, np.random.default_rng(0))
        images = D.normalize(blobs.images[:n]).astype(np.float32)
        unsharded = M.forward(cfg, params, Tensor(images), mode="eval").data
        # labelled with the model's own (varied) predictions, so a shard out
        # of order costs accuracy
        ds = dataclasses.replace(blobs, images=blobs.images[:n],
                                 labels=np.argmax(unsharded, axis=1))
        monkeypatch.setattr(TR, "_usable_cpus", lambda: cpus)
        calls = self.watch_forwards(monkeypatch)
        acc = TR.evaluate(cfg, params, ds, batch_size=batch_size)

        batches = [len(ds.images[i:i + batch_size]) for i in range(0, n, batch_size)]
        # the shard count follows the batch alone, never the CPU count
        assert len(calls) == sum(min(T.LANES, b) for b in batches)
        assert all(len(x) >= 1 for x, _, _ in calls)
        # threads finish in any order: put the shards back by their first image
        first = [np.flatnonzero((images == x[0]).all(axis=(1, 2, 3)))[0] for x, _, _ in calls]
        ordered = [calls[i] for i in np.argsort(first)]
        assert np.array_equal(np.concatenate([x for x, _, _ in ordered]), images)
        logits = np.concatenate([out for _, out, _ in ordered])
        assert np.abs(logits - unsharded).max() <= 1e-6
        assert acc == 1.0

    def test_logits_do_not_follow_the_cpu_count(self, monkeypatch):
        # once min(usable CPUs, batch) shards: at this shape 8 CPUs' 4-image
        # shards gave other logit bits than the 1-3 CPUs' larger ones
        cfg = M.ModelConfig(depth=1)
        params = M.init_params(cfg, np.random.default_rng(0))
        images = D.normalize(np.random.default_rng(1).integers(0, 256, (32, 3, 32, 32),
                                                               dtype=np.uint8))
        crcs = {}
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(TR, "_usable_cpus", lambda: cpus)
            crcs[cpus] = zlib.crc32(TR._eval_logits(cfg, params, images).tobytes())
        assert len(set(crcs.values())) == 1, crcs

    # (usable CPUs, BLAS count each shard runs under when OpenBLAS is at 5):
    # every shard runs at one thread, a lone shard too
    @pytest.mark.parametrize("cpus, pinned", [(1, 1), (2, 1), (3, 1)])
    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_threads_pinned_and_restored(self, monkeypatch, cpus, pinned, fail):
        count = [5]   # a stand-in OpenBLAS whose thread count is this cell
        monkeypatch.setattr(TR, "_openblas", lambda: TR._OpenBlas(
            lambda: count[0], lambda n: count.__setitem__(0, n)))
        monkeypatch.setattr(TR, "_usable_cpus", lambda: cpus)
        ds = D.synthetic_dataset("two-class-blobs", 8, seed=4)
        cfg = tiny_train_config().model
        params = M.init_params(cfg, np.random.default_rng(0))
        calls = self.watch_forwards(monkeypatch, lambda: count[0], fail)
        with pytest.raises(RuntimeError, match="shard failed") if fail else contextlib.nullcontext():
            TR.evaluate(cfg, params, ds)
        assert calls and {c for _, _, c in calls} == {pinned}
        assert count == [5]


class TestTrainLoop:
    def test_two_epoch_run_artifacts(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 32, seed=5)
        cfg = tiny_train_config(epochs=2)
        result = TR.train(cfg, ds, ds, tmp_path / "out")
        assert len(result.records) == 2
        spe = TR.steps_per_epoch(len(ds), cfg)
        assert len(result.step_losses) == 2 * spe
        assert result.checkpoint_path.is_file()
        lines = (tmp_path / "out" / "metrics.log").read_text().splitlines()
        assert len(lines) == 2
        for key in ("epoch=", "train_loss=", "val_acc=", "lr=",
                    "images_per_sec=", "peak_activation_bytes=", "wall_seconds="):
            assert key in lines[0]

    def test_logs_the_measured_step_peak(self, tmp_path):
        # the paper recipe at batch 32, one worker: the step peaked at 43.6-43.8
        # MB on numpy 2.4 (52.4-53.0 MB when the block VJP ran over the whole
        # batch); the tape alone keeps 29.5 MB, so a forward-only number fails
        # the lower bound
        ds = D.synthetic_dataset("two-class-blobs", 32, seed=5)
        cfg = tiny_train_config(epochs=1, batch_size=32,
                                model=M.ModelConfig(drop_path_rate=0.1))
        assert not tracemalloc.is_tracing()
        result = TR.train(cfg, ds, ds, tmp_path / "out")
        assert not tracemalloc.is_tracing()
        assert 38e6 <= result.final.peak_activation_bytes <= 47e6

    def test_leaves_tracemalloc_tracing(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=5)
        tracemalloc.start()
        try:
            # freed before the run: a peak not reset at the step would count it
            np.ones(8_000_000).sum()
            result = TR.train(tiny_train_config(), ds, ds, tmp_path / "out")
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        peaks = {r.peak_activation_bytes for r in result.records}
        assert len(peaks) == 1 and 0 < peaks.pop() < 32e6

    def test_sharded_run_logs_a_peak(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=5)
        result = TR.train(tiny_train_config(epochs=1, workers=2), ds, ds, tmp_path / "out")
        assert result.final.peak_activation_bytes > 0

    def test_peak_is_zero_when_tracing_stops_mid_step(self, tmp_path, monkeypatch):
        step = TR.parallel_train_step

        def stops_tracing(*args, **kwargs):
            if tracemalloc.is_tracing():
                tracemalloc.stop()
            return step(*args, **kwargs)

        monkeypatch.setattr(TR, "parallel_train_step", stops_tracing)
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=5)
        TR.train(tiny_train_config(), ds, ds, tmp_path / "out")
        lines = (tmp_path / "out" / "metrics.log").read_text().splitlines()
        assert [float(re.search(r"peak_activation_bytes=(\S+)", line)[1])
                for line in lines] == [0.0, 0.0]

    def test_skipped_evaluations_log_nan(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=5)
        result = TR.train(tiny_train_config(epochs=3, eval_every=2), ds, ds, tmp_path / "out")
        accs = [r.val_acc for r in result.records]
        assert np.isnan(accs[0]) and not np.isnan(accs[1]) and not np.isnan(accs[2])
        assert result.final is result.records[-1] and 0.0 <= result.final.val_acc <= 1.0
        lines = (tmp_path / "out" / "metrics.log").read_text().splitlines()
        assert [" val_acc=nan " in line for line in lines] == [True, False, False]

    def test_learns_blobs(self, tmp_path):
        # two-class blobs are separable by channel means; a few epochs of a
        # tiny model should beat chance comfortably
        ds = D.synthetic_dataset("two-class-blobs", 64, seed=6)
        model = M.ModelConfig(image_size=32, embed_dim=32, num_heads=4, depth=1,
                              num_classes=2, mla=M.MlaConfig("none", 8))
        cfg = tiny_train_config(epochs=5, batch_size=16, lr_peak=3e-3, model=model)
        result = TR.train(cfg, ds, ds, tmp_path / "out")
        assert result.final.val_acc >= 0.9

    def test_resume_reproduces_loss_sequence_bitwise(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 24, seed=7)
        cfg = tiny_train_config(epochs=3, batch_size=8)

        full = TR.train(cfg, ds, ds, tmp_path / "full")
        part = TR.train(cfg, ds, ds, tmp_path / "part", stop_after_epoch=1)
        resumed = TR.train(cfg, ds, ds, tmp_path / "resumed",
                           resume=part.checkpoint_path)

        spe = TR.steps_per_epoch(len(ds), cfg)
        assert part.step_losses == full.step_losses[:spe]
        assert resumed.step_losses == full.step_losses[spe:]

        a = D.load_checkpoint(full.checkpoint_path)
        b = D.load_checkpoint(resumed.checkpoint_path)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        for k in a.optim_arrays:
            assert np.array_equal(a.optim_arrays[k], b.optim_arrays[k])

    def test_resume_after_failed_save_logs_each_epoch_once(self, tmp_path, monkeypatch):
        # epoch 1's row was written, then its checkpoint save failed: the
        # resumed run runs epoch 1 again and once logged it twice
        ds = D.synthetic_dataset("two-class-blobs", 24, seed=7)
        cfg = tiny_train_config(epochs=3, batch_size=8)
        full = TR.train(cfg, ds, ds, tmp_path / "full")
        real_save, saves = D.save_checkpoint, []

        def second_save_fails(*args, **kwargs):
            saves.append(kwargs["epoch"])
            if len(saves) == 2:
                raise OSError("disk full")
            real_save(*args, **kwargs)

        monkeypatch.setattr(D, "save_checkpoint", second_save_fails)
        with pytest.raises(OSError, match="disk full"):
            TR.train(cfg, ds, ds, tmp_path / "out")
        assert saves == [1, 2]
        monkeypatch.setattr(D, "save_checkpoint", real_save)
        out = tmp_path / "out"
        assert D.load_checkpoint(out / "checkpoint.npz").epoch == 1
        resumed = TR.train(cfg, ds, ds, out, resume=out / "checkpoint.npz")

        rows = (out / "metrics.log").read_text().splitlines()
        assert [row.split()[0] for row in rows] == ["epoch=0", "epoch=1", "epoch=2"]
        assert resumed.final.train_loss == full.final.train_loss
        spe = TR.steps_per_epoch(len(ds), cfg)
        assert resumed.step_losses == full.step_losses[spe:]

    def test_divergence_reports_lr_and_grad_norm(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        cfg = tiny_train_config(epochs=1)
        result = TR.train(cfg, ds, ds, tmp_path / "seed")
        ckpt = D.load_checkpoint(result.checkpoint_path)
        poisoned = {k: np.full_like(v, np.nan) for k, v in ckpt.params.items()}
        bad = tmp_path / "bad.npz"
        D.save_checkpoint(bad, params=poisoned, model_config=ckpt.model_config,
                          train_config=ckpt.train_config, optim_meta=ckpt.optim_meta,
                          optim_arrays=ckpt.optim_arrays, rng_state={"seed": 0},
                          epoch=0)
        cfg2 = tiny_train_config(epochs=1)
        with pytest.raises(TR.TrainingDiverged, match="lr=.*grad_norm="):
            TR.train(cfg2, ds, ds, tmp_path / "bad_out", resume=bad)

    def test_non_finite_gradient_diverges(self, tmp_path, monkeypatch):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        real_step = TR.parallel_train_step

        def nan_gradient(*args, **kwargs):
            grads, loss = real_step(*args, **kwargs)
            grads["head.w2"][0, 0] = np.nan
            return grads, loss

        monkeypatch.setattr(TR, "parallel_train_step", nan_gradient)
        with pytest.raises(TR.TrainingDiverged, match=r"epoch 0 step 0: loss=\d"):
            TR.train(tiny_train_config(epochs=1), ds, ds, tmp_path / "out")

    @pytest.fixture(scope="class")
    def one_epoch_checkpoint(self, tmp_path_factory):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        out = tmp_path_factory.mktemp("resume")
        return TR.train(tiny_train_config(), ds, ds, out, stop_after_epoch=1).checkpoint_path

    @pytest.mark.parametrize("field,model_kw,train_kw", [
        pytest.param(field, model_kw, train_kw, id=field) for field, model_kw, train_kw in (
            ("model.mla", {"mla": M.MlaConfig("q", 8)}, {}),
            ("model.pos_embed", {"pos_embed": "zero"}, {}),
            ("model.depth", {"depth": 2}, {}),
            ("model.num_cls_tokens", {"num_cls_tokens": 2}, {}),
            ("epochs", {}, {"epochs": 3}),
            ("batch_size", {}, {"batch_size": 4}),
            ("warmup_epochs", {}, {"warmup_epochs": 0}),
            ("seed", {}, {"seed": 1}),
            ("workers", {}, {"workers": 2}),
            ("optimizer", {}, {"optimizer": "lion"}),
            ("weight_decay", {}, {"weight_decay": 0.1}),
            ("lr_peak", {}, {"lr_peak": 2e-3}),
            ("augment.use_mixup", {}, {"augment": dataclasses.replace(
                A.AugmentConfig.disabled(), use_mixup=True)}),
            ("augment.base_augment", {}, {"augment": dataclasses.replace(
                A.AugmentConfig.disabled(), base_augment="crop_flip")}),
            ("blas_threads", {}, {}))])
    def test_resume_refuses_mismatched_run(self, tmp_path, one_epoch_checkpoint,
                                           field, model_kw, train_kw):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        model = dataclasses.replace(tiny_train_config().model, **model_kw)
        cfg = tiny_train_config(model=model, **train_kw)
        path = one_epoch_checkpoint
        if field == "blas_threads":   # saved while a one-worker step ran under the current count
            ckpt = D.load_checkpoint(one_epoch_checkpoint)
            path = tmp_path / "old.npz"
            D.save_checkpoint(path, params=ckpt.params, model_config=ckpt.model_config,
                              train_config={**ckpt.train_config, "blas_threads": 2},
                              optim_meta=ckpt.optim_meta, optim_arrays=ckpt.optim_arrays,
                              rng_state=ckpt.rng_state, epoch=ckpt.epoch)
        with pytest.raises(D.CheckpointError, match=rf"does not match this run: {field} is"):
            TR.train(cfg, ds, ds, tmp_path / "out", resume=path)

    def test_resume_refuses_checkpoint_with_removed_augment_switches(self, tmp_path,
                                                                     one_epoch_checkpoint):
        # checkpoints written while AugmentConfig still had the recipe's
        # fixed values and the four switches, use_base_augment /
        # use_autoaugment in place of base_augment
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        ckpt = D.load_checkpoint(one_epoch_checkpoint)
        augment = dict(ckpt.train_config["augment"])
        del augment["base_augment"]
        old = {**ckpt.train_config, "augment": {
            **augment, "mixup_alpha": 0.8, "cutmix_alpha": 1.0, "erase_area_range": [0.02, 0.33],
            "use_base_augment": False, "use_autoaugment": False,
            "use_random_erasing": False, "use_repeated_augment": False}}
        path = tmp_path / "old.npz"
        D.save_checkpoint(path, params=ckpt.params, model_config=ckpt.model_config,
                          train_config=old, optim_meta=ckpt.optim_meta,
                          optim_arrays=ckpt.optim_arrays, rng_state=ckpt.rng_state,
                          epoch=ckpt.epoch)
        with pytest.raises(D.CheckpointError, match=re.escape(
                "augment.base_augment is None in the checkpoint, 'none' in the run; "
                "augment.cutmix_alpha is 1.0 in the checkpoint, None in the run; "
                "augment.erase_area_range is [0.02, 0.33] in the checkpoint, None in the run; "
                "augment.mixup_alpha is 0.8 in the checkpoint, None in the run; "
                "augment.use_autoaugment is False in the checkpoint, None in the run; "
                "augment.use_base_augment is False in the checkpoint, None in the run; "
                "augment.use_random_erasing is False in the checkpoint, None in the run; "
                "augment.use_repeated_augment is False")):
            TR.train(tiny_train_config(), ds, ds, tmp_path / "out", resume=path)

    def test_resume_refuses_checkpoint_with_removed_model_fields(self, tmp_path,
                                                                 one_epoch_checkpoint):
        # checkpoints written while ModelConfig still had patch_size and
        # ffn_ratio, now the constants PATCH_SIZE and FFN_RATIO
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        ckpt = D.load_checkpoint(one_epoch_checkpoint)
        removed = {"patch_size": M.PATCH_SIZE, "ffn_ratio": M.FFN_RATIO}
        path = tmp_path / "old.npz"
        D.save_checkpoint(path, params=ckpt.params,
                          model_config={**ckpt.model_config, **removed},
                          train_config={**ckpt.train_config,
                                        "model": {**ckpt.train_config["model"], **removed}},
                          optim_meta=ckpt.optim_meta, optim_arrays=ckpt.optim_arrays,
                          rng_state=ckpt.rng_state, epoch=ckpt.epoch)
        with pytest.raises(D.CheckpointError, match=re.escape(
                "does not match this run: "
                "model.ffn_ratio is 4 in the checkpoint, None in the run; "
                "model.patch_size is 4 in the checkpoint, None in the run")):
            TR.train(tiny_train_config(), ds, ds, tmp_path / "out", resume=path)

    @pytest.mark.parametrize("epoch", ["finished", -1])
    def test_resume_refuses_epoch_out_of_range(self, tmp_path, one_epoch_checkpoint, epoch):
        # resuming a finished run once raised IndexError at records[-1]
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        if epoch == "finished":
            path, epoch = TR.train(tiny_train_config(), ds, ds, tmp_path / "full").checkpoint_path, 2
        else:
            ckpt = D.load_checkpoint(one_epoch_checkpoint)
            path = tmp_path / "bad.npz"
            D.save_checkpoint(path, params=ckpt.params, model_config=ckpt.model_config,
                              train_config=ckpt.train_config, optim_meta=ckpt.optim_meta,
                              optim_arrays=ckpt.optim_arrays, rng_state=ckpt.rng_state,
                              epoch=epoch)
        with pytest.raises(D.CheckpointError, match=rf"checkpoint epoch is {epoch}, outside \[0, 2\)"):
            TR.train(tiny_train_config(), ds, ds, tmp_path / "out", resume=path)

    def test_sharded_resume_across_cpu_counts(self, tmp_path, monkeypatch):
        # every shard runs at one BLAS thread, so a sharded run's checkpoint
        # resumes bitwise under another CPU count
        ds = D.synthetic_dataset("two-class-blobs", 24, seed=7)
        cfg = tiny_train_config(epochs=3, workers=2)
        monkeypatch.setattr(TR, "_usable_cpus", lambda: 2)
        full = TR.train(cfg, ds, ds, tmp_path / "full")
        part = TR.train(cfg, ds, ds, tmp_path / "part", stop_after_epoch=1)
        monkeypatch.setattr(TR, "_usable_cpus", lambda: 4)
        resumed = TR.train(cfg, ds, ds, tmp_path / "resumed", resume=part.checkpoint_path)

        assert resumed.step_losses == full.step_losses[TR.steps_per_epoch(len(ds), cfg):]
        a = D.load_checkpoint(full.checkpoint_path)
        b = D.load_checkpoint(resumed.checkpoint_path)
        assert a.train_config == b.train_config and "blas_threads" not in a.train_config
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        for k in a.optim_arrays:
            assert np.array_equal(a.optim_arrays[k], b.optim_arrays[k])

    # `shown` None: the edit is ignored, and the resume continues bitwise as
    # from the unedited checkpoint (of the header's optim only t is read)
    @pytest.mark.parametrize("shown, edit", [
        ("optim is null", lambda params, optim_meta: (params, None)),
        ("params/head.b2 is None", lambda params, optim_meta: (
            {k: v for k, v in params.items() if k != "head.b2"}, optim_meta)),
        (r"params/head.b2 is \(3,\)", lambda params, optim_meta: (
            {**params, "head.b2": np.zeros(3, np.float32)}, optim_meta)),
        ("optim t is -1", lambda params, optim_meta: (params, {**optim_meta, "t": -1})),
        ("optim t is None", lambda params, optim_meta: (
            params, {k: v for k, v in optim_meta.items() if k != "t"})),
        (None, lambda params, optim_meta: (params, {**optim_meta, "momentum": 0.9})),
        (None, lambda params, optim_meta: (
            params, {**optim_meta, "beta1": 0.0, "weight_decay": 0.9})),
    ], ids=["optim-null", "param-missing", "param-shape", "optim-t-negative", "optim-t-missing",
            "optim-unknown-key", "optim-stale-hyperparameters"])
    def test_resume_refuses_malformed_checkpoint(self, tmp_path, one_epoch_checkpoint,
                                                 shown, edit):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        ckpt = D.load_checkpoint(one_epoch_checkpoint)
        params, optim_meta = edit(ckpt.params, ckpt.optim_meta)
        bad = tmp_path / "bad.npz"
        D.save_checkpoint(bad, params=params, model_config=ckpt.model_config,
                          train_config=ckpt.train_config, optim_meta=optim_meta,
                          optim_arrays=ckpt.optim_arrays, rng_state=ckpt.rng_state,
                          epoch=ckpt.epoch)
        if shown is not None:
            with pytest.raises(D.CheckpointError, match=shown):
                TR.train(tiny_train_config(), ds, ds, tmp_path / "out", resume=bad)
            return
        edited = TR.train(tiny_train_config(), ds, ds, tmp_path / "out", resume=bad)
        clean = TR.train(tiny_train_config(), ds, ds, tmp_path / "clean",
                         resume=one_epoch_checkpoint)
        assert edited.step_losses == clean.step_losses
        a, b = (D.load_checkpoint(r.checkpoint_path) for r in (edited, clean))
        assert all(np.array_equal(a.params[k], b.params[k]) for k in b.params)
        assert a.optim_meta == b.optim_meta

    @pytest.mark.parametrize("edit, shown", [
        (lambda arrays: {k: v for k, v in arrays.items() if k != "m.head.b2"},
         r"optim/m.head.b2 is None in the checkpoint, \(10,\) in the run"),
        (lambda arrays: {**arrays, "v.head.w2": np.zeros((32, 3), np.float32)},
         r"optim/v.head.w2 is \(32, 3\) in the checkpoint, \(32, 10\) in the run"),
    ], ids=["moment-missing", "moment-shape"])
    def test_resume_refuses_optimizer_moment_that_does_not_fit(self, tmp_path,
                                                               one_epoch_checkpoint, edit, shown):
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        ckpt = D.load_checkpoint(one_epoch_checkpoint)
        bad = tmp_path / "bad.npz"
        D.save_checkpoint(bad, params=ckpt.params, model_config=ckpt.model_config,
                          train_config=ckpt.train_config, optim_meta=ckpt.optim_meta,
                          optim_arrays=edit(ckpt.optim_arrays), rng_state=ckpt.rng_state,
                          epoch=ckpt.epoch)
        with pytest.raises(D.CheckpointError, match="optimizer moments do not fit this run.*"
                                                    + shown):
            TR.train(tiny_train_config(), ds, ds, tmp_path / "out", resume=bad)

    def test_dataset_smaller_than_one_batch_refused(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 4, seed=8)
        with pytest.raises(ValueError, match="dataset smaller than one batch"):
            TR.train(tiny_train_config(batch_size=8), ds, ds, tmp_path / "out")

    def test_check_params_refuses_old_layout_mla_factor(self):
        # down was stored [d_c, C] before it moved to linear's [in, out]
        # layout; d_c < embed_dim, so the old shape can never fit
        model = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=1,
                              mla=M.MlaConfig("kv", 8))
        params = {k: t.data for k, t in M.init_params(model, np.random.default_rng(0)).items()}
        params["blocks.0.attn.k.down"] = params["blocks.0.attn.k.down"].T.copy()
        with pytest.raises(D.CheckpointError, match=r"params/blocks.0.attn.k.down is \(8, 32\) "
                                                    r"in the checkpoint, \(32, 8\)"):
            TR.check_params(params, model)

    def test_check_params_reads_shapes_without_drawing(self, monkeypatch):
        # a whitening model: its shapes are those of a random patch init
        model = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=1,
                              mla=M.MlaConfig("kv", 8), patch_init="whitening")
        params = {k: t.data for k, t in M.init_params(
            dataclasses.replace(model, patch_init="random"), np.random.default_rng(0)).items()}

        def refuse(*args, **kwargs):
            raise AssertionError("check_params drew a parameter")

        monkeypatch.setattr(M, "trunc_normal", refuse)
        TR.check_params(params, model)
        params["blocks.0.ffn.b1"] = params["blocks.0.ffn.b1"][:-1]
        with pytest.raises(D.CheckpointError, match=r"params/blocks.0.ffn.b1 is \(127,\) "
                                                    r"in the checkpoint, \(128,\) in the run"):
            TR.check_params(params, model)

    def test_one_step_run(self, tmp_path):
        # one batch in one epoch: the fallback warmup must stay below the total
        ds = D.synthetic_dataset("two-class-blobs", 8, seed=10)
        result = TR.train(tiny_train_config(epochs=1), ds, ds, tmp_path / "out")
        assert len(result.step_losses) == 1 and np.isfinite(result.final.train_loss)

    def test_whitening_init_path(self, tmp_path):
        ds = D.synthetic_dataset("two-class-blobs", 32, seed=9)
        model = M.ModelConfig(image_size=32, embed_dim=32, num_heads=4, depth=1,
                              patch_init="whitening", mla=M.MlaConfig("none", 8))
        cfg = tiny_train_config(epochs=1, model=model)
        result = TR.train(cfg, ds, ds, tmp_path / "out")
        assert np.isfinite(result.final.train_loss)

    @pytest.mark.parametrize("which", ["train_ds", "test_ds"])
    @pytest.mark.parametrize("how, shown", MISFITS, ids=[m[0] for m in MISFITS])
    def test_dataset_that_does_not_fit_is_refused(self, monkeypatch, tmp_path, which, how, shown):
        fits = D.synthetic_dataset("two-class-blobs", 16, seed=8)
        sets = {"train_ds": fits, "test_ds": fits, which: misfit_dataset(how)}
        cfg = tiny_train_config(model=dataclasses.replace(tiny_train_config().model,
                                                          num_classes=2))
        monkeypatch.setattr(TR, "parallel_train_step", None)   # refused before the first step
        with pytest.raises(D.DataError, match=rf"{which} \(synthetic-two-class-blobs, split "
                                              rf"train\): {shown}"):
            TR.train(cfg, sets["train_ds"], sets["test_ds"], tmp_path / "out")

    def test_batch_worker_divisibility_validated(self):
        with pytest.raises(ValueError):
            tiny_train_config(batch_size=10, workers=4).validate()

    @pytest.mark.parametrize("name, value, shown", [
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("workers", 0, "workers must be >= 1, got 0"),
        ("workers", -1, "workers must be >= 1, got -1"),
        ("eval_every", 0, "eval_every must be >= 1, got 0"),
        ("warmup_epochs", -1, "warmup_epochs must be >= 0, got -1"),
        ("lr_peak", -1e-3, "lr_peak must be >= 0, got -0.001"),
        ("lr_min", -1e-5, "lr_min must be >= 0, got -1e-05"),
        ("weight_decay", -0.05, "weight_decay must be >= 0, got -0.05"),
        ("subset_per_class", 0, "subset_per_class must be >= 1 or None, got 0"),
        ("optimizer", "sgd", "optimizer must be one of 'adamw', 'lion', got 'sgd'"),
        ("epochs", 2.0, "epochs must be int, got 2.0"),
        ("workers", 1.5, "workers must be int, got 1.5"),
        ("seed", True, "seed must be int, got True"),
        ("lr_peak", "0.1", "lr_peak must be float, got '0.1'"),
        ("subset_per_class", 2.5, r"subset_per_class must be int \| None, got 2\.5"),
        ("optimizer", None, "optimizer must be one of 'adamw', 'lion', got None"),
        ("augment", A.AugmentConfig(use_mixup=1), "use_mixup must be bool, got 1"),
        ("augment", A.AugmentConfig(repeated_factor=4.0), "repeated_factor must be int, got 4.0"),
        # NaN passed the minimum and inf passed it too: the run then diverged at step 1
        *((name, value, f"{name} must be finite, got {value}")
          for name in ("lr_peak", "lr_min", "weight_decay")
          for value in (float("nan"), float("inf"))),
        # a value outside the field's Literal
        ("augment", A.AugmentConfig(base_augment="crop"),
         "base_augment must be one of 'autoaugment', 'crop_flip', 'none', got 'crop'"),
        ("augment", A.AugmentConfig(base_augment=False),
         "base_augment must be one of 'autoaugment', 'crop_flip', 'none', got False"),
        ("lr_peak", float("-inf"), "lr_peak must be >= 0, got -inf"),
    ])
    def test_bad_value_is_refused_by_name(self, name, value, shown):
        with pytest.raises(M.ConfigError, match=shown):
            tiny_train_config(**{name: value}).validate()

    @pytest.mark.parametrize("name, shown", [("model", "model must be ModelConfig, got None"),
                                             ("augment", "augment must be AugmentConfig, got None")],
                             ids=["model", "augment"])
    def test_nested_config_of_another_type_is_refused(self, name, shown):
        # once an AttributeError from its validate
        with pytest.raises(M.ConfigError, match=shown):
            TR.TrainConfig(**{name: None}).validate()

    @pytest.mark.parametrize("config", [M.MlaConfig(), M.ModelConfig(), A.AugmentConfig(),
                                        TR.TrainConfig()], ids=lambda c: type(c).__name__)
    def test_config_refuses_unknown_attribute(self, config):
        # a misspelled or removed field is an error, not a new attribute
        with pytest.raises(AttributeError):
            config.not_a_field = False

    def test_default_recipe_validates(self):
        TR.TrainConfig().validate()
        assert TR.TrainConfig().model == M.ModelConfig()   # one drop-path default
        TR.TrainConfig(weight_decay=0.0, subset_per_class=1).validate()
        TR.TrainConfig(lr_peak=1, weight_decay=0).validate()   # a float field takes an int

    def test_repeat_factor_must_divide_batch(self):
        aug = A.AugmentConfig(repeated_factor=3)
        with pytest.raises(ValueError, match="repeat factor 3 must divide batch size 128"):
            TR.TrainConfig(batch_size=128, augment=aug).validate()
        aug.repeated_factor = 1   # no repetition
        TR.TrainConfig(batch_size=128, augment=aug).validate()

    @staticmethod
    def readme_config():
        # the README's library example
        return TR.TrainConfig(epochs=10, batch_size=128,
                              model=M.ModelConfig(embed_dim=64, num_heads=4, depth=3),
                              augment=A.AugmentConfig())

    def test_readme_library_example_mirrors_cli(self):
        args = cli.build_parser().parse_args(["train", "--epochs", "10", "--batch-size", "128",
                                              "--dim", "64", "--heads", "4", "--depth", "3"])
        assert cli.train_config(args) == self.readme_config()

    def test_readme_library_example_trains(self, tmp_path):
        # the README's library config, one epoch on synthetic images
        cfg = self.readme_config()
        train_ds = D.synthetic_dataset("two-class-blobs", 32, seed=12)
        test_ds = D.synthetic_dataset("two-class-blobs", 16, seed=13)
        result = TR.train(cfg, train_ds, test_ds, tmp_path / "out", stop_after_epoch=1)
        assert len(result.records) == 1 and np.isfinite(result.final.train_loss)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL on this platform")
class TestCrashResume:
    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        cfg, ds = crash_run()
        return TR.train(cfg, ds, ds, tmp_path_factory.mktemp("full"))

    # where a child process running crash_run() kills itself (see
    # train_until_killed), and the epoch of the checkpoint it leaves
    @pytest.mark.parametrize("owner, name, call, before, epoch", [
        ("train", "parallel_train_step", 6, False, 1),   # epoch 1, step 1: grads not yet applied
        ("os", "replace", 2, True, 1),    # epoch 1's checkpoint written to the temp file only
        ("os", "replace", 2, False, 2),   # ... renamed into place, the directory not yet fsynced
    ], ids=["mid-step", "before-replace", "before-dir-fsync"])
    def test_resume_after_sigkill_matches_uninterrupted_run(self, tmp_path, uninterrupted,
                                                            owner, name, call, before, epoch):
        out = tmp_path / "out"
        run_until_killed(out, owner, name, call, before)
        assert D.load_checkpoint(out / "checkpoint.npz").epoch == epoch

        cfg, ds = crash_run()
        resumed = TR.train(cfg, ds, ds, out, resume=out / "checkpoint.npz")
        assert resumed.step_losses == uninterrupted.step_losses[epoch * TR.steps_per_epoch(
            len(ds), cfg):]
        rows = (out / "metrics.log").read_text().splitlines()
        assert [row.split()[0] for row in rows] == ["epoch=0", "epoch=1", "epoch=2"]
        a, b = (D.load_checkpoint(r.checkpoint_path) for r in (uninterrupted, resumed))
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert not (out / "checkpoint.npz.tmp").exists()

    def test_fresh_run_removes_stale_temp_checkpoint(self, tmp_path, monkeypatch):
        # killed with epoch 1's checkpoint in the temp file only; a new run in
        # the directory, not a resume, removes that file before its first step
        out = tmp_path / "out"
        run_until_killed(out, "os", "replace", 2, True)
        assert (out / "checkpoint.npz.tmp").exists()
        stale, real = [], TR.parallel_train_step
        monkeypatch.setattr(TR, "parallel_train_step", lambda *args, **kwargs: (
            stale.append((out / "checkpoint.npz.tmp").exists()) or real(*args, **kwargs)))
        cfg, ds = crash_run()
        TR.train(cfg, ds, ds, out)
        assert stale and not any(stale)
        assert sorted(p.name for p in out.glob("checkpoint*")) == ["checkpoint.npz"]


# ---------------------------------------------------------------------------
# profiling / bench

class TestProfiler:
    def test_phase_accounting(self, phase_clock):
        cfg = M.ModelConfig(image_size=32, embed_dim=64, num_heads=4, depth=2,
                            mla=M.MlaConfig("none", 16))
        params = M.init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = A.SoftBatch(
            rng.standard_normal((16, 3, 32, 32)).astype(np.float32),
            np.full((16, 10), 0.1, dtype=np.float32))
        run = tiny_train_config(model=cfg)
        prof = TR.profile_step(run, params, batch, warmup=1, steps=3)
        # guards against a phase that runs inside the step but outside the sum
        total = prof.forward_ms + prof.backward_ms + prof.optim_ms
        assert abs(total - prof.total_ms) <= 0.01 * prof.total_ms
        assert all(getattr(prof, k) > 0
                   for k in ("forward_ms", "backward_ms", "optim_ms", "eval_ms"))
        # on a clock only the phases advance, each phase gets exactly its own time
        with phase_clock():
            fake = TR.profile_step(run, params, batch, warmup=1, steps=2)
        assert fake == TR.StepProfile(1000.0, 2000.0, 4000.0, 7000.0, 8000.0)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_step_is_the_training_step(self, workers):
        # one profiled step updates params bitwise as train's step does
        model = M.ModelConfig(image_size=16, embed_dim=32, num_heads=4, depth=2,
                              mla=M.MlaConfig("kv", 8), drop_path_rate=0.2)
        run = tiny_train_config(model=model, workers=workers, seed=3, lr_peak=1e-2)
        rng = np.random.default_rng(4)
        batch = A.SoftBatch(rng.standard_normal((8, 3, 16, 16)).astype(np.float32),
                            np.full((8, 10), 0.1, np.float32))
        profiled = M.init_params(model, np.random.default_rng(5))
        stepped = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in profiled.items()}
        TR.profile_step(run, profiled, batch, warmup=0, steps=1)
        grads, _ = TR.parallel_train_step(model, stepped, batch, workers, seed=run.seed,
                                          epoch=0, step_idx=0)
        O.step(stepped, grads, O.init_optim(run.optimizer, stepped,
                                            weight_decay=run.weight_decay), run.lr_peak)
        for k in stepped:
            assert np.array_equal(profiled[k].data, stepped[k].data), k

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_eval_phase_shards_like_evaluate(self, monkeypatch, cpus):
        run = tiny_train_config(workers=2)
        params = M.init_params(run.model, np.random.default_rng(0))
        batch = A.SoftBatch(np.zeros((6, 3, 32, 32), np.float32),
                            np.full((6, 10), 0.1, np.float32))
        monkeypatch.setattr(TR, "_usable_cpus", lambda: cpus)
        modes = []
        real = M.forward

        def forward(*args, mode, **kwargs):
            modes.append((mode, len(args[2].data)))
            return real(*args, mode=mode, **kwargs)

        monkeypatch.setattr(M, "forward", forward)
        TR.profile_step(run, params, batch, warmup=0, steps=1)
        assert sorted(modes) == sorted([("train", 3)] * 2 + [("eval", 6 // T.LANES)] * T.LANES)

    def test_runs_the_configured_optimizer(self, monkeypatch):
        run = tiny_train_config(optimizer="lion", lr_peak=3e-4, weight_decay=0.2)
        params = M.init_params(run.model, np.random.default_rng(0))
        batch = A.SoftBatch(np.zeros((2, 3, 32, 32), np.float32),
                            np.full((2, 10), 0.1, np.float32))
        seen = []
        real_step = O.step

        def spy(params, grads, state, lr):
            seen.append((state.kind, state.weight_decay, lr, len(state.v)))
            real_step(params, grads, state, lr)

        monkeypatch.setattr(O, "step", spy)
        TR.profile_step(run, params, batch, warmup=1, steps=1)
        assert seen == [("lion", 0.2, 3e-4, 0)] * 2

    @pytest.mark.parametrize("arg, value, floor", [("warmup", -1, 0), ("steps", 0, 1)])
    def test_count_out_of_range_refused(self, arg, value, floor):
        # once warmup=-1 timed one lap and divided it by steps, so every
        # phase read a fraction of its time, and steps=0 raised a TypeError
        run = tiny_train_config()
        params = M.init_params(run.model, np.random.default_rng(0))
        batch = A.SoftBatch(np.zeros((2, 3, 32, 32), np.float32),
                            np.full((2, 10), 0.1, np.float32))
        with pytest.raises(ValueError, match=f"profile_step {arg} must be >= {floor}, got {value}"):
            TR.profile_step(run, params, batch, **{"warmup": 0, "steps": 2, arg: value})

    def test_sample_patches_shape(self):
        ds = D.synthetic_dataset("two-class-blobs", 10, seed=10)
        cfg = M.ModelConfig()
        out = TR.sample_patches(ds, cfg, np.random.default_rng(0))
        assert out.ndim == 2 and out.shape[1] == M.PATCH_DIM
        assert out.shape[0] % cfg.num_patches == 0
        # whitening fits the patch embedding, so rows must be patchify's rows
        idx = np.random.default_rng(0).choice(len(ds), size=len(ds), replace=False)
        rows = M.patchify(D.normalize(ds.images[idx]))
        assert np.array_equal(out, rows.reshape(-1, M.PATCH_DIM))


class TestGradRelease:
    """A step runs with nothing of the step before: the gradients of step k
    are dead when step k + 1's gradient pass starts."""

    @staticmethod
    def watch_grads(monkeypatch, name):
        """Replace TR.<name> with a wrapper that keeps only weakrefs to the
        gradient arrays it returns, and asserts at entry that those of the
        call before are dead; returns the list of calls made."""
        real, refs, calls = getattr(TR, name), [], []

        def watched(*args, **kwargs):
            alive = sum(r() is not None for r in refs)
            assert alive == 0, f"{alive} gradient arrays of call {len(calls)} still alive"
            out = real(*args, **kwargs)
            refs[:] = [weakref.ref(g) for g in out[0].values()]
            calls.append(None)
            return out

        monkeypatch.setattr(TR, name, watched)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_train_drops_applied_grads(self, monkeypatch, tmp_path, workers):
        # once `train` kept step k's grads bound until step k + 1 returned,
        # across evaluate and the checkpoint of an epoch boundary too
        calls = self.watch_grads(monkeypatch, "parallel_train_step")
        model = M.ModelConfig(image_size=32, embed_dim=16, num_heads=4, depth=1,
                              mla=M.MlaConfig("none", 8))
        cfg = tiny_train_config(model=model, epochs=2, workers=workers)
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=5)
        TR.train(cfg, ds, ds, tmp_path / "out")
        assert len(calls) == 2 * TR.steps_per_epoch(len(ds), cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_profile_step_drops_applied_grads(self, monkeypatch, workers):
        calls = self.watch_grads(monkeypatch, "_sharded_gradients")
        run = tiny_train_config(workers=workers)
        params = M.init_params(run.model, np.random.default_rng(0))
        batch = A.SoftBatch(np.zeros((4, 3, 32, 32), np.float32),
                            np.full((4, 10), 0.1, np.float32))
        TR.profile_step(run, params, batch, warmup=1, steps=2)
        assert len(calls) == 3


class TestBatchRelease:
    """An epoch's evaluate and checkpoint run without its last batch."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_train_drops_the_last_batch_before_evaluate_and_save(self, monkeypatch, tmp_path,
                                                                  workers):
        # once the step loop's `batch` and `step` kept the epoch's last batch
        # bound through that epoch's evaluate and save_checkpoint
        real_batches, refs, checked = TR.build_batches, [], []

        def batches(*args, **kwargs):
            for batch in real_batches(*args, **kwargs):
                refs[:] = [weakref.ref(batch.images), weakref.ref(batch.targets)]
                yield batch

        def watched(name, real):
            def run(*args, **kwargs):
                alive = sum(r() is not None for r in refs)
                assert alive == 0, f"{alive} arrays of the last batch alive at {name}"
                checked.append(name)
                return real(*args, **kwargs)
            return run

        monkeypatch.setattr(TR, "build_batches", batches)
        monkeypatch.setattr(TR, "evaluate", watched("evaluate", TR.evaluate))
        monkeypatch.setattr(D, "save_checkpoint", watched("save", D.save_checkpoint))
        cfg = tiny_train_config(epochs=2, workers=workers)
        ds = D.synthetic_dataset("two-class-blobs", 16, seed=5)
        TR.train(cfg, ds, ds, tmp_path / "out")
        assert checked == ["evaluate", "save"] * 2


# ---------------------------------------------------------------------------
# CLI

class TestCli:
    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 5  # short run\nlr=0.001\n\n# comment\n")
        assert cli.parse_config_file(p) == {"epochs": "5", "lr": "0.001"}

    def test_parse_config_rejects_garbage(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs 5\n")
        with pytest.raises(ValueError, match="key=value"):
            cli.parse_config_file(p)

    # every flag / config-file key the CLI accepts, with a sample value
    SAMPLES = {
        "epochs": "5", "batch_size": "64", "workers": "2", "optimizer": "lion",
        "lr": "0.01", "weight_decay": "0.1", "seed": "3", "subset_per_class": "50",
        "mla": "kv", "dc": "24", "num_cls": "2", "dim": "96", "heads": "4",
        "depth": "3", "pos_embed": "sinusoidal", "patch_init": "whitening",
        "drop_path": "0.2", "base_augment": "crop_flip", "mixup": "false", "cutmix": "no",
        "lr_min": "0.0001", "warmup_epochs": "2", "eval_every": "3", "erase_prob": "0.5",
        "label_smoothing": "0.2", "repeated_factor": "2",
    }

    def test_no_flags_is_train_config_default(self):
        assert cli.train_config(self.parse(["train"])) == TR.TrainConfig()

    def test_every_flag_and_config_key_accepted(self, tmp_path):
        assert self.SAMPLES.keys() == cli._OPTIONS.keys() and len(self.SAMPLES) == 26
        argv = ["train"]
        for key, value in self.SAMPLES.items():
            argv += ["--" + key.replace("_", "-"), value]
        from_flags = cli.train_config(self.parse(argv))
        p = tmp_path / "run.cfg"
        p.write_text("".join(f"{k}={v}\n" for k, v in self.SAMPLES.items()))
        from_file = cli.train_config(self.parse(["train", "--config", str(p)]))
        assert from_flags == from_file != TR.TrainConfig()

    def test_option_precedence(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs=5\nlr=0.001\n")
        args = self.parse(["train", "--config", str(p), "--lr", "0.01"])
        cfg = cli.train_config(args)
        assert cfg.epochs == 5          # file overrides default
        assert cfg.lr_peak == 0.01      # flag overrides file
        assert cfg.batch_size == 256    # default survives

    def test_unknown_config_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("momentum=0.9\n")
        args = self.parse(["train", "--config", str(p)])
        with pytest.raises(ValueError, match="momentum"):
            cli.train_config(args)

    def test_config_bools_are_strict(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mixup=true\ncutmix=NO\n")
        cfg = cli.train_config(self.parse(["train", "--config", str(p)]))
        assert cfg.augment.use_mixup and not cfg.augment.use_cutmix
        p.write_text("mixup=ture\n")
        with pytest.raises(ValueError, match="mixup.*'ture'"):
            cli.train_config(self.parse(["train", "--config", str(p)]))

    def test_flags_map_to_train_config(self):
        args = self.parse(["train", "--mla", "kv", "--dc", "24", "--num-cls", "2",
                           "--pos-embed", "zero", "--patch-init", "whitening",
                           "--optimizer", "lion", "--base-augment", "crop_flip",
                           "--drop-path", "0", "--cutmix", "0"])
        cfg = cli.train_config(args)
        assert cfg.model.mla.variant == "kv" and cfg.model.mla.d_c == 24
        assert cfg.model.num_cls_tokens == 2
        assert cfg.model.pos_embed == "zero"
        assert cfg.model.patch_init == "whitening"
        assert cfg.model.drop_path_rate == 0.0
        assert cfg.optimizer == "lion"
        assert cfg.augment.base_augment == "crop_flip" and cfg.augment.use_mixup
        assert not cfg.augment.use_cutmix

    @staticmethod
    def parse(argv):
        return cli.build_parser().parse_args(argv)

    def test_help_lists_each_literal_fields_values(self, capsys):
        with pytest.raises(SystemExit):
            self.parse(["train", "--help"])
        shown = " ".join(capsys.readouterr().out.split())
        for flag, owner, name in (("--optimizer", TR.TrainConfig, "optimizer"),
                                  ("--mla", M.MlaConfig, "variant"),
                                  ("--pos-embed", M.ModelConfig, "pos_embed"),
                                  ("--patch-init", M.ModelConfig, "patch_init"),
                                  ("--base-augment", A.AugmentConfig, "base_augment")):
            values = typing.get_args(typing.get_type_hints(owner)[name])
            assert len(values) >= 2 and f"{flag} {{{','.join(values)}}}" in shown

    def test_flag_outside_its_literal_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.parse(["train", "--base-augment", "crop"])
        assert exc.value.code == 2
        assert "invalid choice: 'crop'" in capsys.readouterr().err

    BENCH = ["bench", "--dim", "32", "--heads", "4", "--depth", "1", "--dc", "8"]

    def test_bench_command_writes_log(self, tmp_path, capsys):
        rc = cli.main(self.BENCH + ["--sizes", "2,4", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        log = (tmp_path / "bench.log").read_text().splitlines()
        assert out == log and len(log) == 3
        head, counts = log[0].split(" ", 1)
        counts = {k: int(v) for k, v in (kv.split("=") for kv in counts.split())}
        cfg = M.ModelConfig(embed_dim=32, num_heads=4, depth=1, mla=M.MlaConfig(d_c=8))
        assert head == "params"
        assert counts == {**M.param_count(M.init_params(cfg, np.random.default_rng(0))),
                          "attention_per_layer": M.attention_params_per_layer(cfg)}
        keys = ["bs", "forward_ms", "backward_ms", "optim_ms", "total_ms", "batch_ms",
                "train_images_per_sec", "eval_images_per_sec"]
        for line, bs in zip(log[1:], (2, 4)):
            fields = dict(kv.split("=") for kv in line.split())
            assert list(fields) == keys and fields["bs"] == str(bs)
            assert all(float(fields[k]) > 0 for k in keys[1:])

    def test_bench_runs_a_whitening_model(self, tmp_path, capsys):
        # whitening changes one matrix's initial values; bench draws a random patch init
        rc = cli.main(self.BENCH + ["--patch-init", "whitening", "--sizes", "2",
                                    "--out", str(tmp_path)])
        assert rc == 0
        log = (tmp_path / "bench.log").read_text().splitlines()
        assert capsys.readouterr().out.splitlines() == log and len(log) == 2
        cfg = M.ModelConfig(embed_dim=32, num_heads=4, depth=1, mla=M.MlaConfig(d_c=8))
        counts = dict(kv.split("=") for kv in log[0].split()[1:])
        assert log[0].startswith("params ") and log[1].startswith("bs=2 ")
        assert {k: int(v) for k, v in counts.items()} == {
            **M.param_count(M.init_params(cfg, np.random.default_rng(0))),
            "attention_per_layer": M.attention_params_per_layer(cfg)}

    @pytest.mark.parametrize("sizes", ["0", "x", "4,", "2,-1"])
    def test_bench_rejects_bad_sizes(self, sizes, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.BENCH + ["--sizes", sizes, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--sizes" in capsys.readouterr().err
        assert not (tmp_path / "bench.log").exists()

    @pytest.mark.parametrize("model_config, field", [
        ({"embed_dim": 32, "depth_typo": 2}, "'mla'"),
        ({"embed_dim": 32, "depth_typo": 2, "mla": {"variant": "none", "d_c": 8}}, "depth_typo"),
        (dict(dataclasses.asdict(M.ModelConfig()), mla="kv"), "model_config.mla"),
        (dict(dataclasses.asdict(M.ModelConfig()), embed_dim=0),
         "model_config is not a valid model: embed_dim must be >= 1, got 0"),
        (dict(dataclasses.asdict(M.ModelConfig()), mla={"variant": "xyz", "d_c": 48}),
         "model_config is not a valid model: variant must be one of 'none', 'q', 'k', 'qk', "
         "'kv', 'qkv', got 'xyz'"),
        (dict(dataclasses.asdict(M.ModelConfig()), embed_dim="192"),
         "model_config is not a valid model: embed_dim must be int, got '192'"),
        # written while ModelConfig still had patch_size and ffn_ratio
        (dict(dataclasses.asdict(M.ModelConfig()), patch_size=4, ffn_ratio=4),
         re.escape("missing fields [], unknown fields ['ffn_ratio', 'patch_size']")),
    ])
    def test_eval_refuses_malformed_model_config(self, model_config, field, tmp_path,
                                                 monkeypatch):
        monkeypatch.delenv("DATA_DIR", raising=False)   # refused before data is read
        path = tmp_path / "checkpoint.npz"
        D.save_checkpoint(path, params={"w": np.ones((2, 2), np.float32)},
                          model_config=model_config, train_config={}, optim_meta={},
                          optim_arrays={}, rng_state={}, epoch=1)
        with pytest.raises(D.CheckpointError, match=field):
            cli.main(["eval", "--resume", str(path)])

    @pytest.mark.parametrize("edit, shown", [
        (lambda params: {k: v for k, v in params.items() if k != "head.b2"},
         "params/head.b2 is None"),
        (lambda params: {**params, "head.w2": np.zeros((32, 3), np.float32)},
         r"params/head.w2 is \(32, 3\) in the checkpoint, \(32, 10\)"),
    ], ids=["param-missing", "param-shape"])
    def test_eval_refuses_params_that_do_not_fit(self, edit, shown, tmp_path, monkeypatch):
        monkeypatch.delenv("DATA_DIR", raising=False)   # refused before data is read
        model = tiny_train_config().model
        params = {k: t.data for k, t in M.init_params(model, np.random.default_rng(0)).items()}
        path = tmp_path / "checkpoint.npz"
        D.save_checkpoint(path, params=edit(params), model_config=dataclasses.asdict(model),
                          train_config={}, optim_meta=None, optim_arrays={}, rng_state={},
                          epoch=1)
        with pytest.raises(D.CheckpointError, match=shown):
            cli.main(["eval", "--resume", str(path)])

    def test_bench_refuses_bad_flag_value_by_name(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.BENCH + ["--heads", "0", "--sizes", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: num_heads must be >= 1, got 0" in err and "--config:" not in err
        assert not (tmp_path / "bench.log").exists()

    def test_bench_refuses_empty_model(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--dim", "0", "--sizes", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "error: embed_dim must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "bench.log").exists()

    def test_bench_profiles_sharded_step(self, tmp_path):
        rc = cli.main(self.BENCH + ["--workers", "2", "--sizes", "4", "--out", str(tmp_path)])
        assert rc == 0
        log = (tmp_path / "bench.log").read_text().splitlines()
        assert len(log) == 2 and log[1].startswith("bs=4 ")

    def test_bench_refuses_sizes_indivisible_by_workers(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.BENCH + ["--workers", "2", "--sizes", "4,3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--sizes: batch sizes [3] not divisible by workers 2" in capsys.readouterr().err
        assert not (tmp_path / "bench.log").exists()

    def test_grad_check_command_passes_without_latents(self, capsys):
        # the full-projection, one-CLS point has gradient coordinates near
        # 3e-8 whose central differences carry rounding of about 5e-11
        assert cli.main(["grad-check", "--mla", "none", "--num-cls", "1"]) == 0
        assert "eval: max_relative_error_above_rounding_floor=" in capsys.readouterr().out

    def test_grad_check_command(self, capsys):
        rc = cli.main(["grad-check", "--mla", "qk", "--seed", "3"])
        out = capsys.readouterr().out
        assert ("eval: max_relative_error_above_rounding_floor=" in out
                and "train: max_relative_error_above_rounding_floor=" in out)
        assert rc == 0

    @pytest.mark.parametrize("pos_embed", ["sinusoidal", "zero"])
    def test_grad_check_command_checks_the_positional_table(self, pos_embed, monkeypatch):
        checked, point = [], M.grad_check_point
        monkeypatch.setattr(M, "grad_check_point",
                            lambda cfg, rng: checked.append(cfg) or point(cfg, rng))
        assert cli.main(["grad-check", "--pos-embed", pos_embed, "--num-cls", "2"]) == 0
        assert [cfg.pos_embed for cfg in checked] == [pos_embed]

    @pytest.mark.parametrize("line, shown", [
        ("momentum=0.9", "unknown config key 'momentum' (value '0.9')"),
        ("mixup=ture", "config key 'mixup': expected a bool"),
        ("epochs 5", "expected key=value, got 'epochs 5'"),
        ("optimizer=sgd", "optimizer must be one of 'adamw', 'lion', got 'sgd'"),
        ("mla=xyz", "variant must be one of 'none', 'q', 'k', 'qk', 'kv', 'qkv', got 'xyz'"),
        ("base_augment=crop", "base_augment must be one of 'autoaugment', 'crop_flip', "
                              "'none', got 'crop'"),
        ("workers=0", "workers must be >= 1, got 0"),
        ("heads=0", "num_heads must be >= 1, got 0"),
        ("batch_size=0", "batch_size must be >= 1, got 0"),
    ])
    def test_bad_config_file_is_a_usage_error(self, line, shown, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.delenv("DATA_DIR", raising=False)   # refused before data is read
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(p)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --config: " in err and shown in err

    def test_train_then_eval(self, tmp_path, capsys):
        # CIFAR-10 binary files of 10 records each, labels 0-9, random pixels
        data, out = tmp_path / "cifar", tmp_path / "out"
        data.mkdir()
        rng = np.random.default_rng(0)
        for name in D.TRAIN_FILES + D.TEST_FILES:
            (data / name).write_bytes(np.hstack([
                np.arange(10, dtype=np.uint8)[:, None],
                rng.integers(0, 256, (10, D.RECORD_BYTES - 1), dtype=np.uint8)]).tobytes())
        assert cli.main(["train", "--data-dir", str(data), "--out", str(out), "--epochs", "1",
                         "--batch-size", "8", "--dim", "32", "--heads", "4", "--depth", "1",
                         "--subset-per-class", "2"]) == 0
        final, ckpt = capsys.readouterr().out.splitlines()[-2:]
        assert final.startswith("final: epoch=0 ")
        assert ckpt == f"checkpoint: {out / 'checkpoint.npz'}"
        # 2 of each class's 5 train images: 20, two per 8-image step at repeated_factor 4
        assert D.load_checkpoint(out / "checkpoint.npz").optim_meta["t"] == 10

        assert cli.main(["eval", "--data-dir", str(data), "--resume",
                         str(out / "checkpoint.npz")]) == 0
        val_acc = float(re.search(r" val_acc=(\S+) ", final)[1])
        assert capsys.readouterr().out == f"val_acc={val_acc:.4f} n=10\n"

    def test_train_without_data_dir_exits(self, monkeypatch):
        monkeypatch.delenv("DATA_DIR", raising=False)
        with pytest.raises(SystemExit, match="data directory"):
            cli.main(["train"])
