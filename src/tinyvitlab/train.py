"""Training / evaluation loop, deterministic in-process data parallelism,
and the training-step profiler.

Every random stream is derived statelessly from (seed, purpose, epoch,
batch), so a run is bitwise-reproducible and an interrupted run resumed from
a checkpoint reproduces the uninterrupted loss sequence exactly.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
import os
import re
import time
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from tinyvitlab import augment as A
from tinyvitlab import data as D
from tinyvitlab import model as M
from tinyvitlab import optim as O
from tinyvitlab import tensor as T
from tinyvitlab.tensor import Tensor, Tape, backward, cross_entropy


class TrainingDiverged(RuntimeError):
    pass


@dataclass(slots=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 256
    optimizer: O.Optimizer = "adamw"
    lr_peak: float = 0.002
    lr_min: float = 1e-5
    weight_decay: float = 0.05
    warmup_epochs: int = 10
    workers: int = 1
    seed: int = 0
    eval_every: int = 1
    subset_per_class: int | None = None
    model: M.ModelConfig = field(default_factory=M.ModelConfig)
    augment: A.AugmentConfig = field(default_factory=A.AugmentConfig)

    def validate(self) -> None:
        M.check_fields(self, epochs=1, batch_size=1, workers=1, eval_every=1,
                       warmup_epochs=0, lr_peak=0, lr_min=0, weight_decay=0)
        if self.subset_per_class is not None and self.subset_per_class < 1:
            raise M.ConfigError(f"subset_per_class must be >= 1 or None, got {self.subset_per_class}")
        if self.batch_size % self.workers != 0:
            raise M.ConfigError(f"batch_size {self.batch_size} not divisible by workers {self.workers}")
        if self.batch_size % self.augment.repeated_factor != 0:
            raise M.ConfigError(f"repeat factor {self.augment.repeated_factor} must divide "
                                f"batch size {self.batch_size}")
        self.model.validate()
        self.augment.validate()


@dataclass
class StepProfile:
    forward_ms: float    # the slowest shard's train-mode forward and loss
    backward_ms: float   # the rest of the gradient pass: backward, shard reduction
    optim_ms: float
    total_ms: float      # forward + backward + optimizer: the training step
    eval_ms: float       # evaluate's sharded eval-mode forward of the same batch


@dataclass
class MetricsRecord:
    """One metrics.log row. peak_activation_bytes is measured: the
    tracemalloc peak of one training step, the last of the first epoch the
    run runs (after a resume, of the first epoch it runs), counted
    from the bytes traced at that step's start; every row of the run holds
    that one step's peak. tracemalloc counts the whole process, so the peak
    includes every shard. At workers > 1 the shards' allocations interleave,
    so it can vary by a few percent between runs (the desk recipe at batch
    128, 2 workers, read 29.5-30.8 MB over 3 runs). At one worker the two
    lanes' chunks interleave the same way, by less: seven steps of one
    paper bs-32 batch read 42.82-43.90 MB over three processes, most of
    them above 43.6 MB. It is 0 when another tracer stopped tracemalloc
    during that step."""
    epoch: int
    train_loss: float
    val_acc: float
    lr: float
    images_per_sec: float
    peak_activation_bytes: int
    wall_seconds: float

    def line(self) -> str:
        return (f"epoch={self.epoch} train_loss={self.train_loss!r} "
                f"val_acc={self.val_acc!r} lr={self.lr!r} "
                f"images_per_sec={self.images_per_sec:.2f} "
                f"peak_activation_bytes={self.peak_activation_bytes} "
                f"wall_seconds={self.wall_seconds:.3f}")


@dataclass
class TrainResult:
    final: MetricsRecord
    records: list[MetricsRecord]
    step_losses: list[float]
    checkpoint_path: Path


def rng_for(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Deterministic per-(seed, purpose, epoch, batch, ...) stream."""
    tag = zlib.crc32(purpose.encode())
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, tag) + tuple(indices))))


# ---------------------------------------------------------------------------
# the machine: BLAS threads, malloc and the shard runner

class _OpenBlas(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]


# (get, set) symbol names: numpy >= 2 wheels' scipy-openblas, then older wheels'
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.cache
def _openblas() -> _OpenBlas | None:
    """The thread-count controls of the OpenBLAS that numpy's Linux wheel
    ships in numpy.libs (already loaded, so ctypes gets the same instance),
    or None if none is found."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(dll, get_name) and hasattr(dll, set_name):
                get, set_ = getattr(dll, get_name), getattr(dll, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return _OpenBlas(get, set_)
    return None


@functools.cache
def _keep_freed_memory() -> None:
    """Once per process, have glibc's malloc keep the memory a step frees
    mapped for the next step: arrays under 32 MiB come from the heap rather
    than their own mmap, and free heap memory is returned to the system only
    past 1 GiB. Otherwise each step faults its arrays' pages in again. It
    also caps malloc at one arena, so the threads of _run_shards' pool, as
    shards or as lanes, reuse the memory the main thread freed rather than
    each keeping an arena of its own. These settings change where memory
    comes from, not what is computed. Does nothing where the C library has
    no mallopt (it is glibc's)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # no C library to load, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD, at glibc's largest: a paper-recipe step's arrays are smaller
    mallopt(-1, 1 << 30)    # M_TRIM_THRESHOLD
    mallopt(-8, 1)          # M_ARENA_MAX


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity API on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block under one OpenBLAS thread (unpinned when no OpenBLAS is
    found), then restore the count from before."""
    blas = _openblas()
    if blas is None:
        yield
        return
    before = blas.get()
    blas.set(1)
    try:
        yield
    finally:
        blas.set(before)


def _run_shards(fn: Callable[[int], object], n: int) -> list:
    """[fn(0), ..., fn(n - 1)], in shard order. The one function that touches
    the machine: it sets malloc up (_keep_freed_memory), starts the only
    thread pool, of min(max(n, LANES), usable CPUs) threads, and runs every
    shard under exactly one OpenBLAS thread, so the bits depend on n and not
    on the CPU count or OPENBLAS_NUM_THREADS; the count from before is
    restored afterwards, also when a shard raises. More shards run on the
    pool, whose ops run their chunks serially. One shard runs inline, and
    its block ops run their chunks on the pool's threads (tensor.lanes), so
    it uses two CPUs where it has them."""
    _keep_freed_memory()
    with _one_blas_thread(), ThreadPoolExecutor(min(max(n, T.LANES), _usable_cpus())) as pool:
        if n == 1:
            with T.lanes(pool.map):
                return [fn(0)]
        return list(pool.map(fn, range(n)))


# ---------------------------------------------------------------------------
# batch building

def build_batches(ds: D.Dataset, cfg: TrainConfig, epoch: int):
    """Yield augmented SoftBatches for one epoch, deterministically."""
    aug, num_classes = cfg.augment, cfg.model.num_classes
    order = rng_for(cfg.seed, "shuffle", epoch).permutation(len(ds))
    batches = A.repeated_indices(order, cfg.batch_size, aug.repeated_factor)
    for b, idx in enumerate(batches):
        plan = A.plan_batch(len(idx), ds.images.shape[1:], aug.base_augment, aug.erase_prob,
                            rng_for(cfg.seed, "augment", epoch, b))
        targets = A.label_smooth(A.one_hot(ds.labels[idx], num_classes),
                                 aug.label_smoothing, num_classes)
        batch = A.SoftBatch(A.apply_plan(ds.images[idx], plan), targets)
        del plan   # the step that runs during the yield reads only `batch`
        mix_rng = rng_for(cfg.seed, "mix", epoch, b)
        use_mix, use_cut = aug.use_mixup, aug.use_cutmix
        if use_mix and use_cut:
            if mix_rng.random() < 0.5:
                use_cut = False
            else:
                use_mix = False
        if use_mix:
            batch = A.mixup(batch, mix_rng)
        elif use_cut:
            batch = A.cutmix(batch, mix_rng)
        yield batch


def eval_batches(ds: D.Dataset, batch_size: int):
    for i in range(0, len(ds), batch_size):
        yield D.normalize(ds.images[i:i + batch_size]), ds.labels[i:i + batch_size]


# ---------------------------------------------------------------------------
# gradient computation

def _sharded_gradients(cfg: M.ModelConfig, params: dict[str, Tensor],
                       batch: A.SoftBatch, workers: int, seed: int, epoch: int,
                       step_idx: int) -> tuple[dict[str, np.ndarray], float, float]:
    """The training step's gradient pass: shard the batch over worker
    threads, run a train-mode forward, cross entropy and backward on each,
    average the gradients in ascending worker order, and return (averaged
    grads, mean loss, seconds the slowest shard spent in forward and loss).
    With one worker the grads are backward's own arrays, which may share
    memory: treat them as read-only.

    Workers share `params` read-only, and each owns its tape, gradients and
    drop-path rng stream. The workers run through _run_shards, each under
    one OpenBLAS thread, and K=1 runs its block ops' chunks on the lanes, so
    the bits follow from K alone, never from OPENBLAS_NUM_THREADS or the CPU
    count: K=1 has the bits of the lanes' partition walked serially.
    """
    b = len(batch.images)
    if b % workers != 0:
        raise ValueError(f"batch size {b} not divisible by workers {workers}")
    shard = b // workers

    def work(w: int):
        lo = w * shard
        with Tape() as tape:
            t0 = time.perf_counter()
            logits = M.forward(cfg, params, Tensor(batch.images[lo:lo + shard]), mode="train",
                               rng=rng_for(seed, "droppath", epoch, step_idx, w))
            loss = cross_entropy(logits, batch.targets[lo:lo + shard])
            forward_s = time.perf_counter() - t0
        return dict(zip(params, backward(loss, tape, params.values()))), loss.item(), forward_s

    results = _run_shards(work, workers)
    grads = results[0][0]   # one shard: dividing by 1 is exact
    if workers > 1:
        # summed out of place, in worker order, as backward's arrays may share
        # memory; the sum is a new array, divided in place
        grads = {path: functools.reduce(np.add, [r[0][path] for r in results])
                 for path in sorted(params)}
        for g in grads.values():
            g /= workers
    loss = sum(r[1] for r in results) / workers
    return grads, loss, max(r[2] for r in results)


def parallel_train_step(cfg: M.ModelConfig, params: dict[str, Tensor],
                        batch: A.SoftBatch, workers: int, seed: int = 0,
                        epoch: int = 0, step_idx: int = 0
                        ) -> tuple[dict[str, np.ndarray], float]:
    """The step `train` runs: (averaged grads, mean loss) of
    _sharded_gradients over `workers` shards of the batch."""
    return _sharded_gradients(cfg, params, batch, workers, seed, epoch, step_idx)[:2]


# ---------------------------------------------------------------------------
# evaluation

def _eval_logits(cfg: M.ModelConfig, params: dict[str, Tensor],
                 images: np.ndarray) -> np.ndarray:
    """Eval-mode logits of a batch, from min(LANES, batch) contiguous shards
    run through _run_shards like the training step's (one OpenBLAS thread
    each) and concatenated in order. The count is fixed by the batch, not the
    CPUs, so the logits do not follow the machine: on one CPU the two shards
    run one after the other, and a one-image batch runs its lone shard on the
    lanes. They match an unsharded forward within float32 rounding: shards of
    16 images or more have given the same bits, but OpenBLAS picks other
    GEMM kernels for very small shards (1-2 images gave differences up to
    3e-8)."""
    shards = np.array_split(images.astype(np.float32, copy=False), min(T.LANES, len(images)))
    return np.concatenate(_run_shards(
        lambda i: M.forward(cfg, params, Tensor(shards[i]), mode="eval").data, len(shards)))


def check_dataset(ds: D.Dataset, cfg: M.ModelConfig, what: str) -> None:
    """Refuse, with a DataError naming `what`, the dataset and the field,
    images that are not uint8 [N, 3, image_size, image_size], labels that
    are not 1-D integers, or a label outside [0, num_classes) of model `cfg`."""
    where = f"{what} ({ds.name}, split {ds.split})"
    want = (3, cfg.image_size, cfg.image_size)
    if ds.images.shape[1:] != want:
        raise D.DataError(f"{where}: images are {list(ds.images.shape[1:])} per sample, "
                          f"the model takes {list(want)}")
    if ds.images.dtype != np.uint8:
        raise D.DataError(f"{where}: images are {ds.images.dtype}, the model takes uint8 pixels")
    if ds.labels.ndim != 1 or not np.issubdtype(ds.labels.dtype, np.integer):
        raise D.DataError(f"{where}: labels are {ds.labels.dtype} of shape "
                          f"{list(ds.labels.shape)}, the model takes 1-D integer classes")
    bad = np.flatnonzero((ds.labels < 0) | (ds.labels >= cfg.num_classes))
    if bad.size:
        raise D.DataError(f"{where}: label {ds.labels[bad[0]]} at index {bad[0]} is outside "
                          f"[0, {cfg.num_classes})")


def evaluate(cfg: M.ModelConfig, params: dict[str, Tensor], ds: D.Dataset,
             batch_size: int = 256) -> float:
    """Argmax-logit accuracy in eval mode (ties go to the lower class index,
    which is numpy argmax behavior), each batch's logits from _eval_logits'
    min(LANES, batch) shards, so the verdict does not follow the CPU count. A
    dataset that does not fit `cfg` is refused (see check_dataset)."""
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise ValueError(f"evaluate batch_size must be >= 1, got {batch_size}")
    check_dataset(ds, cfg, "ds")
    correct = 0
    for images, labels in eval_batches(ds, batch_size):
        correct += int((np.argmax(_eval_logits(cfg, params, images), axis=1) == labels).sum())
    return correct / len(ds)


# ---------------------------------------------------------------------------
# training loop

def _grad_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                             for g in grads.values())))


def _diffs(saved: dict, run: dict) -> str:
    """One 'k is x in the checkpoint, y in the run' clause per key whose
    values differ (None where absent), in key order."""
    return "; ".join(f"{k} is {saved.get(k)!r} in the checkpoint, {run.get(k)!r} in the run"
                     for k in sorted(saved.keys() | run.keys()) if saved.get(k) != run.get(k))


def check_params(params: dict[str, np.ndarray], cfg: M.ModelConfig) -> None:
    """Refuse checkpoint params whose names or shapes model `cfg` does not
    give, with a CheckpointError naming each such member."""
    if msg := _diffs({f"params/{k}": a.shape for k, a in params.items()},
                     {f"params/{k}": shape for k, shape in M.param_shapes(cfg).items()}):
        raise D.CheckpointError("checkpoint params do not fit the model (shape, or None "
                                "where absent): " + msg)


def _resume(ckpt: D.Checkpoint, cfg: TrainConfig, train_config: dict
            ) -> tuple[dict[str, Tensor], O.OptimState]:
    """The params and optimizer state to continue from. A checkpoint that
    does not fit the run is refused, naming what differs: a field of the
    saved train config (a removed field, such as the blas_threads that
    older checkpoints carry, reads None in the run), an epoch outside [0,
    epochs), a param, the optimizer step count, or a moment whose name or
    shape the run's optimizer does not give. Every step runs at one OpenBLAS
    thread, so no thread count is saved. Of the header's optim only t is
    read; the rest of the state is the run's."""
    def flat(tc: dict) -> dict:   # `model` and `augment` expanded one level
        out = {}
        for k, v in tc.items():
            nested = k in ("model", "augment") and isinstance(v, dict)
            out.update({f"{k}.{kk}": vv for kk, vv in v.items()} if nested else {k: v})
        return out

    if msg := _diffs(flat(ckpt.train_config), flat(train_config)):
        raise D.CheckpointError("checkpoint does not match this run: " + msg)
    if not 0 <= ckpt.epoch < cfg.epochs:
        raise D.CheckpointError(f"checkpoint epoch is {ckpt.epoch}, outside [0, {cfg.epochs}) "
                                f"(epoch {cfg.epochs} means the run has finished)")
    check_params(ckpt.params, cfg.model)
    if ckpt.optim_meta is None:
        raise D.CheckpointError("checkpoint holds no optimizer state: its header's optim is null")
    t = ckpt.optim_meta.get("t")
    if type(t) is not int or t < 0:
        raise D.CheckpointError(f"checkpoint optim t is {t!r}, not a non-negative int")
    params = {k: Tensor(v, requires_grad=True) for k, v in sorted(ckpt.params.items())}
    state = O.init_optim(cfg.optimizer, params, weight_decay=cfg.weight_decay)
    if msg := _diffs({f"optim/{k}": a.shape for k, a in ckpt.optim_arrays.items()},
                     {f"optim/{k}": a.shape for k, a in state.to_arrays().items()}):
        raise D.CheckpointError("checkpoint optimizer moments do not fit this run (shape, "
                                "or None where absent): " + msg)
    state.t = t
    state.m = {k: ckpt.optim_arrays[f"m.{k}"] for k in state.m}
    state.v = {k: ckpt.optim_arrays[f"v.{k}"] for k in state.v}
    return params, state


def _traced_peak(step: Callable[[], tuple]) -> tuple[tuple, int]:
    """(step(), the tracemalloc peak of the bytes traced during it, counted
    from those traced at its start). If tracemalloc is already tracing, its
    peak is reset and tracing stays on; otherwise it runs for the step only.
    The peak is 0 if tracing stopped during the step (another tracer stopped
    it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = step()
        return out, max(tracemalloc.get_traced_memory()[1] - base, 0)   # (0, 0) once stopped
    finally:
        if started:
            tracemalloc.stop()


def steps_per_epoch(n: int, cfg: TrainConfig) -> int:
    """The number of batches build_batches yields for n images."""
    return n // (cfg.batch_size // cfg.augment.repeated_factor)


def train(cfg: TrainConfig, train_ds: D.Dataset, test_ds: D.Dataset,
          out_dir: str | Path, resume: str | Path | None = None,
          stop_after_epoch: int | None = None) -> TrainResult:
    """Run the full recipe; emits metrics rows and a checkpoint per epoch.
    A resumed run first drops the metrics rows of the checkpoint's epoch and
    later ones, which it runs again.

    `stop_after_epoch` ends the run early while keeping the LR schedule of
    the full `cfg.epochs` plan, so a later resume continues seamlessly.
    A dataset that does not fit the model (see check_dataset) is refused
    before the first step.
    """
    cfg.validate()
    check_dataset(train_ds, cfg.model, "train_ds")
    check_dataset(test_ds, cfg.model, "test_ds")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.log"
    ckpt_path = out_dir / "checkpoint.npz"
    # left by a process killed between save_checkpoint's write and its rename
    D.temp_path(ckpt_path).unlink(missing_ok=True)

    if cfg.subset_per_class is not None:
        train_ds = D.subset_per_class(train_ds, cfg.subset_per_class, cfg.model.num_classes)

    spe = steps_per_epoch(len(train_ds), cfg)
    if spe == 0:
        raise ValueError("dataset smaller than one batch")
    total_steps = cfg.epochs * spe
    warmup_steps = cfg.warmup_epochs * spe
    if warmup_steps >= total_steps:
        # a one-step run gets no warmup; lr_schedule needs warmup < total
        warmup_steps = min(max(total_steps // 10, 1), total_steps - 1)

    train_config = asdict(cfg)
    start_epoch = 0
    if resume is not None:
        ckpt = D.load_checkpoint(resume)
        params, state = _resume(ckpt, cfg, train_config)
        start_epoch = ckpt.epoch
        # a crash between an epoch's row and its checkpoint left a row that
        # this run writes again; a torn last row is dropped too
        rows = metrics_path.read_text().splitlines(True) if metrics_path.exists() else []
        metrics_path.write_text("".join(row for row in rows if (
            m := re.match(r"epoch=(\d+) .*\n", row)) and int(m[1]) < start_epoch))
    else:
        init_rng = rng_for(cfg.seed, "init")
        patch_sample = None
        if cfg.model.patch_init == "whitening":
            patch_sample = sample_patches(train_ds, cfg.model, rng_for(cfg.seed, "whiten"))
        params = M.init_params(cfg.model, init_rng, patch_sample=patch_sample)
        state = O.init_optim(cfg.optimizer, params, weight_decay=cfg.weight_decay)

    records: list[MetricsRecord] = []
    step_losses: list[float] = []
    wall_start = time.perf_counter()
    lr = 0.0

    with open(metrics_path, "a") as metrics:
        for epoch in range(start_epoch, cfg.epochs):
            epoch_start = time.perf_counter()
            losses = []
            images_seen = 0
            for step_idx, batch in enumerate(build_batches(train_ds, cfg, epoch)):
                global_step = epoch * spe + step_idx
                lr = O.lr_schedule(global_step, total_steps, warmup_steps,
                                   cfg.lr_peak, cfg.lr_min)
                step = functools.partial(parallel_train_step, cfg.model, params, batch,
                                         cfg.workers, seed=cfg.seed, epoch=epoch,
                                         step_idx=step_idx)
                # metrics.log's peak; not the first step, whose time is the run's set-up
                if epoch == start_epoch and step_idx == spe - 1:
                    (grads, loss), peak_bytes = _traced_peak(step)
                else:
                    grads, loss = step()
                if not (np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
                    raise TrainingDiverged(
                        f"non-finite loss or gradient at epoch {epoch} step {step_idx}: "
                        f"loss={loss!r} lr={lr!r} grad_norm={_grad_norm(grads)!r}")
                O.step(params, grads, state, lr)
                del grads   # applied: the next step runs without them
                losses.append(loss)
                step_losses.append(loss)
                images_seen += len(batch.images)
            del batch, step   # the epoch's last: evaluate and the checkpoint run without them
            epoch_secs = time.perf_counter() - epoch_start

            val_acc = float("nan")   # not measured this epoch; the last epoch always is
            if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                val_acc = evaluate(cfg.model, params, test_ds)
            record = MetricsRecord(
                epoch=epoch,
                train_loss=float(np.mean(np.asarray(losses, dtype=np.float32))),
                val_acc=val_acc,
                lr=lr,
                images_per_sec=images_seen / max(epoch_secs, 1e-9),
                peak_activation_bytes=peak_bytes,
                wall_seconds=time.perf_counter() - wall_start,
            )
            records.append(record)
            metrics.write(record.line() + "\n")
            metrics.flush()
            print(record.line())

            D.save_checkpoint(
                ckpt_path, params=params,
                model_config=asdict(cfg.model),
                train_config=train_config,
                optim_meta=state.meta(), optim_arrays=state.to_arrays(),
                rng_state={"seed": cfg.seed, "next_epoch": epoch + 1},
                epoch=epoch + 1)

            if stop_after_epoch is not None and epoch + 1 >= stop_after_epoch:
                break

    return TrainResult(final=records[-1], records=records,
                       step_losses=step_losses, checkpoint_path=ckpt_path)


def sample_patches(ds: D.Dataset, cfg: M.ModelConfig, rng: np.random.Generator) -> np.ndarray:
    """Normalized raw patch rows for whitening initialization: all patches
    of 20,000 // num_patches images (at least one, at most the dataset)."""
    n_img = min(len(ds), max(20000 // cfg.num_patches, 1))
    idx = rng.choice(len(ds), size=n_img, replace=False)
    images = D.normalize(ds.images[idx])
    return M.patchify(images).reshape(-1, M.PATCH_DIM)


# ---------------------------------------------------------------------------
# profiling

def profile_batches(cfg: TrainConfig, batch_size: int, rounds: int = 5) -> float:
    """Median milliseconds that build_batches takes for one batch of
    `batch_size` under run `cfg`'s AugmentConfig, over `rounds` batches (each
    the only batch of its epoch, after one warm-up), on uint8 noise images
    seeded by cfg.seed. A repeat factor that does not divide the batch size
    is cut to their common divisor: it picks which images the batch holds,
    not the work each one takes."""
    aug = dataclasses.replace(cfg.augment, repeated_factor=math.gcd(
        batch_size, cfg.augment.repeated_factor))
    run = dataclasses.replace(cfg, batch_size=batch_size, augment=aug)
    n, size = batch_size // aug.repeated_factor, cfg.model.image_size
    rng = np.random.default_rng(cfg.seed)
    ds = D.Dataset(rng.integers(0, 256, (n, 3, size, size), dtype=np.uint8),
                   rng.integers(0, cfg.model.num_classes, n), "train", "noise")
    laps = []
    for epoch in range(rounds + 1):
        t0 = time.perf_counter()
        next(build_batches(ds, run, epoch))
        laps.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(laps[1:]))


def profile_step(cfg: TrainConfig, params: dict[str, Tensor],
                 batch: A.SoftBatch, warmup: int = 3, steps: int = 10) -> StepProfile:
    """Wall-clock per phase of run `cfg`'s training step as `train` runs it
    over cfg.workers shards (forward with its model's drop-path, backward,
    and its optimizer's update of `params` at lr_peak) and of `evaluate`'s
    eval-mode forward of the same batch, averaged over `steps` after
    `warmup` discarded iterations. Iteration `it` draws drop-path as step
    `it` of epoch 0."""
    if warmup < 0:
        raise ValueError(f"profile_step warmup must be >= 0, got {warmup}")
    if steps < 1:
        raise ValueError(f"profile_step steps must be >= 1, got {steps}")
    state = O.init_optim(cfg.optimizer, params, weight_decay=cfg.weight_decay)
    laps = []
    for it in range(warmup + steps):
        t0 = time.perf_counter()
        grads, _, forward_s = _sharded_gradients(cfg.model, params, batch, cfg.workers,
                                                 cfg.seed, 0, it)
        t1 = time.perf_counter()
        O.step(params, grads, state, cfg.lr_peak)
        del grads   # applied: eval and the next iteration run without them
        t2 = time.perf_counter()
        _eval_logits(cfg.model, params, batch.images)
        t3 = time.perf_counter()
        # in StepProfile's field order: forward, backward, optimizer, total, eval
        laps.append((forward_s, t1 - t0 - forward_s, t2 - t1, t2 - t0, t3 - t2))
    return StepProfile(*(1000.0 * sum(phase) / steps for phase in zip(*laps[warmup:])))
