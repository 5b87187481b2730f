"""tinyvitlab benchmark: closed-loop training and evaluation on seeded
synthetic images, driven through the package's public entry points.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 30 --trace 0

Run it from the root of a tinyvitlab checkout; it imports the package from
`src/`. It prints every metric by name with its unit, then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones, measured without spans;
with `--trace 1` they are the per-layer ones, taken from spans recorded
around the package's public functions (see spans.py). Each result is also
appended, with the environment and the loss digest, to
perfbench/out/results.jsonl. The exit code is 1 when any check fails.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "tinyvitlab" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no tinyvitlab sources under {ROOT / 'src'}; "
                     "run from the root of a tinyvitlab checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tinyvitlab import augment as A  # noqa: E402
from tinyvitlab import data as D  # noqa: E402
from tinyvitlab import model as M  # noqa: E402
from tinyvitlab import optim as O  # noqa: E402
from tinyvitlab import tensor as T  # noqa: E402
from tinyvitlab import train as TR  # noqa: E402

from spans import Tracer, layer_metrics, patched  # noqa: E402

MODULES = {"tensor": T, "model": M, "optim": O, "data": D, "augment": A, "train": TR}
OUT = ROOT / "perfbench" / "out"
# Batch 32 rather than evaluate()'s default 256: at batch 256 a repetition
# is two 7 s ops, too few for a median, and repeated runs of it spread past
# the bound on the reference machine (README.md).
EVAL_BATCH = 32
CHECK_IMAGES = 32
EVAL_IMAGES = 24 * EVAL_BATCH
MIN_REPS = 2
# Nominal seconds of one repetition at the seed commit on the reference
# machine (README.md). A run does a fixed number of repetitions,
# --seconds / REP_SECONDS, so every commit is measured on the same ops.
REP_SECONDS = {"paper-train": 17.0, "desk-train": 9.0, "eval-resume": 20.0}


# ---------------------------------------------------------------------------
# inputs and recipes

def make_dataset(seed: int, n: int, stream: int) -> D.Dataset:
    """Class-conditional colour means plus pixel noise, balanced labels.

    The ten class means depend on the seed only, so the train, test and
    eval streams of one seed share one learnable task.
    """
    means = np.random.default_rng([seed, 0]).uniform(48.0, 208.0, size=(10, 3))
    rng = np.random.default_rng([seed, stream])
    labels = rng.permutation(np.arange(n) % 10)
    noise = rng.normal(0.0, 40.0, size=(n, 3, 32, 32))
    images = np.clip(np.rint(means[labels][:, :, None, None] + noise), 0, 255)
    return D.Dataset(images.astype(np.uint8), labels.astype(np.int64), "train",
                     f"perfbench-seed{seed}-stream{stream}")


def paper_model() -> M.ModelConfig:
    # drop_path_rate is explicit: the CLI default (0.1) and the ModelConfig
    # default (0.0) differ
    return M.ModelConfig(embed_dim=192, num_heads=12, depth=9,
                         mla=M.MlaConfig("none"), num_cls_tokens=1,
                         drop_path_rate=0.1)


def desk_model() -> M.ModelConfig:
    return M.ModelConfig(embed_dim=64, num_heads=4, depth=3,
                         mla=M.MlaConfig("kv", d_c=16), num_cls_tokens=2,
                         drop_path_rate=0.1)


@dataclass(frozen=True)
class TrainRecipe:
    model: Callable[[], M.ModelConfig]
    batch_size: int
    workers: int
    n_train: int   # steps per epoch: n_train / (batch_size / repeated_factor)
    n_test: int
    epochs: int = 2

    def config(self, seed: int) -> TR.TrainConfig:
        # repeated_factor=4 divides both batch sizes; the default 3 does not
        # divide the default batch 256 (see README.md)
        return TR.TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                              optimizer="adamw", workers=self.workers, seed=seed,
                              model=self.model(),
                              augment=A.AugmentConfig(repeated_factor=4))


RECIPES = {
    "paper-train": TrainRecipe(paper_model, batch_size=32, workers=1, n_train=32, n_test=32),
    "desk-train": TrainRecipe(desk_model, batch_size=128, workers=2, n_train=160, n_test=256),
}
WORKLOADS = ("paper-train", "desk-train", "eval-resume")


def model_from_checkpoint(ckpt: D.Checkpoint) -> M.ModelConfig:
    fields = dict(ckpt.model_config)
    fields["mla"] = M.MlaConfig(**fields["mla"])
    return M.ModelConfig(**fields)


def write_fixture(out: Path, seed: int) -> None:
    """Eval-resume input: a paper-recipe checkpoint with params and AdamW
    moments, and the logits of the saved params on the check images.

    Runs in its own process, so the measured process's peak RSS holds only
    what loading and evaluating need.
    """
    cfg = paper_model()
    rng = np.random.default_rng([seed, 7])
    params = M.init_params(cfg, rng)
    state = O.init_optim("adamw", params)
    for path in state.m:
        shape = state.m[path].shape
        state.m[path] = rng.normal(0.0, 1e-3, size=shape).astype(np.float32)
        state.v[path] = (rng.normal(0.0, 1e-3, size=shape) ** 2).astype(np.float32)
    state.t = 100
    tcfg = TR.TrainConfig(model=cfg, seed=seed, augment=A.AugmentConfig(repeated_factor=4))
    D.save_checkpoint(out / "checkpoint.tvlb", params=params,
                      model_config=asdict(cfg), train_config=asdict(tcfg),
                      optim_meta=state.meta(), optim_arrays=state.to_arrays(),
                      rng_state={"seed": seed, "next_epoch": 10}, epoch=10)
    images = make_dataset(seed, EVAL_IMAGES, stream=3).images[:CHECK_IMAGES]
    logits = M.forward(cfg, params, T.Tensor(D.normalize(images)), mode="eval").data
    np.save(out / "reference_logits.npy", logits)


# ---------------------------------------------------------------------------
# op clock

class Op(NamedTuple):
    start: float
    end: float
    images: int
    traced: bool
    rep: int
    first: bool  # first op of its repetition, so part of set-up

    @property
    def seconds(self) -> float:
        return self.end - self.start


class OpClock:
    """Op boundaries of a closed loop, plus failure accounting.

    `mark` ends the open op and starts the next; `close` ends the open op.
    The first op of each repetition ends its set-up time.
    """

    def __init__(self):
        self.ops: list[Op] = []
        self.setups: list[float] = []
        self.failures: dict[int, str] = {}
        self.rep, self.traced = 0, False
        self._open: tuple[float, int] | None = None
        self._rep_start = 0.0
        self._rep_setup_done = True

    @property
    def attempted(self) -> int:
        return len(self.ops) + (self._open is not None)

    def begin_rep(self, rep: int, traced: bool) -> None:
        self.rep, self.traced = rep, traced
        self._rep_start = time.perf_counter()
        self._rep_setup_done = False

    def mark(self, t: float, images: int) -> None:
        self.close(t)
        self._open = (t, images)

    def close(self, t: float) -> None:
        if self._open is None:
            return
        t0, images = self._open
        self._open = None
        self.ops.append(Op(t0, t, images, self.traced, self.rep, not self._rep_setup_done))
        if not self._rep_setup_done:
            self._rep_setup_done = True
            self.setups.append(t - self._rep_start)

    def fail(self, reason: str) -> None:
        """Fail the open op, or the last one if none is open."""
        self.failures.setdefault(max(self.attempted - 1, 0), reason)


def finite_logits(clock: OpClock, forward):
    def checked(*args, **kwargs):
        out = forward(*args, **kwargs)
        if not np.isfinite(out.data).all():
            clock.fail("non-finite logits")
        return out
    return checked


def train_hooks(clock: OpClock) -> list:
    """An op starts at each parallel_train_step call; loss and logits must
    be finite."""
    step = TR.parallel_train_step

    def marked(*args, **kwargs):
        clock.mark(time.perf_counter(), len(args[2].images))
        grads, loss = step(*args, **kwargs)
        if not math.isfinite(loss):
            clock.fail(f"non-finite loss {loss!r}")
        return grads, loss

    return [(TR, "parallel_train_step", marked),
            (M, "forward", finite_logits(clock, M.forward))]


def eval_hooks(clock: OpClock) -> list:
    """An op starts at each eval batch fetch; the loop asking for the batch
    after the last one ends the last op."""
    batches = TR.eval_batches

    def marked(*args, **kwargs):
        it = batches(*args, **kwargs)
        while True:
            t = time.perf_counter()
            try:
                images, labels = next(it)
            except StopIteration:
                clock.close(t)
                return
            clock.mark(t, len(labels))
            yield images, labels

    return [(TR, "eval_batches", marked),
            (M, "forward", finite_logits(clock, M.forward))]


# ---------------------------------------------------------------------------
# workloads

class Run:
    """Repeats one workload's repetition in a closed loop, alternating
    untraced and traced repetitions when tracing."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.name, self.seed, self.trace, self.work = name, seed, trace, work
        self.clock = OpClock()
        recipe = RECIPES.get(name)
        self.tracer = Tracer(MODULES, track_memory=recipe is not None and recipe.workers == 1)
        self.digests: list[int] = []
        self.losses: list[float] = []
        self.logged_ips: list[float] = []
        self.logged_act: list[float] = []
        self.accuracies: list[float] = []
        self.reps = 0
        # a traced run adds an untraced warm-up repetition: the process's
        # first repetition runs slower, so it would bias the overhead
        self.target_reps = max(MIN_REPS, round(seconds / REP_SECONDS[name])) + trace

    def loop(self, rep, check, hooks) -> None:
        """Run `rep(i)` under the op hooks (and the tracer), then
        `check(result)` outside them, `target_reps` times."""
        while self.reps < self.target_reps:
            traced = self.trace and self.reps % 2 == 1
            self.clock.begin_rep(self.reps, traced)
            try:
                with contextlib.ExitStack() as stack:
                    if traced:
                        stack.enter_context(self.tracer.active())
                    stack.enter_context(patched(hooks(self.clock)))
                    result = rep(self.reps)
                    self.clock.close(time.perf_counter())
                check(result)
            except Exception as exc:  # a failed op or check ends the run; report it
                traceback.print_exc(file=sys.stderr)
                self.clock.fail(f"{type(exc).__name__}: {exc}")
                self.clock.close(time.perf_counter())
                return
            self.reps += 1

    def fail(self, reason: str) -> None:
        print(f"check failed: {reason}", file=sys.stderr)
        self.clock.fail(reason)


def run_train(run: Run) -> None:
    recipe = RECIPES[run.name]
    train_ds = make_dataset(run.seed, recipe.n_train, stream=1)
    test_ds = make_dataset(run.seed, recipe.n_test, stream=2)
    expected = {k: v.shape for k, v in
                M.init_params(recipe.model(), np.random.default_rng(0)).items()}

    def rep(i: int):
        out = run.work / f"rep{i}"
        return TR.train(recipe.config(run.seed), train_ds, test_ds, out), out

    def check(result) -> None:
        check_train_rep(run, recipe, *result, expected)
        shutil.rmtree(result[1])

    run.loop(rep, check, train_hooks)


def check_train_rep(run: Run, recipe: TrainRecipe, result: TR.TrainResult,
                    out: Path, expected: dict) -> None:
    losses = np.asarray(result.step_losses, dtype=np.float32)
    run.digests.append(zlib.crc32(losses.tobytes()))
    run.losses.append(result.final.train_loss)
    if not np.isfinite(losses).all():
        run.fail("non-finite step loss")
    ckpt = D.load_checkpoint(result.checkpoint_path)
    shapes = {k: v.shape for k, v in ckpt.params.items()}
    moments = {f"{kind}.{k}" for kind in "mv" for k in expected}
    if shapes != expected:
        run.fail("checkpoint parameter set differs from the model's")
    elif set(ckpt.optim_arrays) != moments:
        run.fail("checkpoint AdamW moments differ from the parameter set")
    elif ckpt.epoch != recipe.epochs:
        run.fail(f"checkpoint epoch {ckpt.epoch} != {recipe.epochs}")
    elif not all(np.isfinite(v).all() for v in ckpt.params.values()):
        run.fail("checkpoint holds non-finite parameters")
    lines = (out / "metrics.log").read_text().splitlines()
    if len(lines) != recipe.epochs:
        run.fail(f"metrics.log has {len(lines)} rows, expected {recipe.epochs}")
    for line in lines:
        fields = dict(kv.split("=", 1) for kv in line.split())
        run.logged_ips.append(float(fields["images_per_sec"]))
        run.logged_act.append(float(fields["peak_activation_bytes"]) / 1e6)


def run_eval(run: Run) -> None:
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--fixture",
                    str(run.work), "--seed", str(run.seed)], check=True, timeout=170)
    path = run.work / "checkpoint.tvlb"
    ds = make_dataset(run.seed, EVAL_IMAGES, stream=3)
    loaded = {}

    def rep(i: int):
        ckpt = D.load_checkpoint(path)
        cfg = model_from_checkpoint(ckpt)
        params = {k: T.Tensor(v, requires_grad=True) for k, v in sorted(ckpt.params.items())}
        return cfg, params, TR.evaluate(cfg, params, ds, batch_size=EVAL_BATCH)

    def check(result) -> None:
        cfg, params, acc = result
        run.accuracies.append(acc)
        if not 0.0 <= acc <= 1.0:
            run.fail(f"accuracy {acc!r} outside [0, 1]")
        loaded.update(cfg=cfg, params=params)

    run.loop(rep, check, eval_hooks)
    if "params" not in loaded:
        return
    reference = np.load(run.work / "reference_logits.npy")
    images = ds.images[:CHECK_IMAGES]
    logits = M.forward(loaded["cfg"], loaded["params"], T.Tensor(D.normalize(images)),
                       mode="eval").data
    if logits.dtype != reference.dtype or logits.tobytes() != reference.tobytes():
        run.fail("logits of the reloaded params differ from those of the saved params")
    run.digests.append(zlib.crc32(logits.astype(np.float32).tobytes()))
    shifted = logits.astype(np.float64) - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    run.losses.append(float(-logp[np.arange(CHECK_IMAGES), ds.labels[:CHECK_IMAGES]].mean()))


# ---------------------------------------------------------------------------
# metrics

def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it: (value,
    percentile, ops beyond). With ten ops or fewer no percentile has ten
    beyond; the maximum is reported, with the ops beyond it (none)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    ops = run.clock.ops
    durs = [op.seconds for op in ops]
    images = sum(op.images for op in ops)
    ms = [1000.0 * d for d in durs]
    tail_ms, pct, beyond = tail(ms)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m = {
        "images_per_s": (images / sum(durs), "img/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(run.clock.setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "loss_final": (run.losses[-1], "nats"),
    }
    notes = {
        "images_per_s": (f"metrics.log images_per_sec mean {statistics.fmean(run.logged_ips):.2f}"
                         " (reference, not gated)") if run.logged_ips else "",
        "op_ms_tail": f"p{pct:.1f} of {len(ms)} ops, {beyond} beyond",
        "setup_s": f"median of {len(run.clock.setups)} set-ups",
        "loss_final": ("mean train loss of the last epoch" if run.name in RECIPES
                       else f"mean cross-entropy of the reloaded model on {CHECK_IMAGES} images"),
    }
    lines = [f"{k:<14} {v:>14.6f} {u:<6} {notes.get(k, '')}" for k, (v, u) in m.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    traced = [(op.start, op.end) for op in run.clock.ops if op.traced]
    layer, op_ms = layer_metrics(run.tracer, traced, tuple(MODULES))

    def images_per_s(traced_ops: bool) -> float:
        ops = [op for op in run.clock.ops
               if op.traced == traced_ops and op.rep > 0 and not op.first]
        return sum(op.images for op in ops) / sum(op.seconds for op in ops)

    layer["bench.trace_overhead_pct"] = (100.0 * (images_per_s(False) / images_per_s(True) - 1.0), "%")
    layer["bench.traced_op_ms"] = (op_ms, "ms/op")
    layer["train.log.images_per_sec"] = (statistics.fmean(run.logged_ips) if run.logged_ips else 0.0,
                                         "img/s")
    layer["train.log.peak_activation_mb"] = (statistics.fmean(run.logged_act) if run.logged_act
                                             else 0.0, "MB")
    lines = [f"{k:<30} {v:>14.4f} {u}" for k, (v, u) in layer.items()]
    value = {k: v for k, (v, _) in layer.items()}
    self_sum = sum(value[f"{name}.self_ms"] for name in MODULES)
    lines.append(f"attribution: layer self times {self_sum:.4f} + unattributed "
                 f"{value['train.unattributed_ms']:.4f} = {self_sum + value['train.unattributed_ms']:.4f}"
                 f" ms/op; traced op time {op_ms:.4f} ms/op over {len(traced)} ops")
    lines.append(f"observability: tensor.tape.retained_mb {value['tensor.tape.retained_mb']:.1f} MB"
                 f" measured vs metrics.log peak_activation_bytes "
                 f"{value['train.log.peak_activation_mb']:.1f} MB (reference, not gated)")
    if abs(self_sum + value["train.unattributed_ms"] - op_ms) > 1e-6 * max(op_ms, 1.0):
        run.fail("layer self times and unattributed time do not add up to the op time")
    return {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}, lines


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in ("THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fixture is not None:
        write_fixture(args.fixture, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        (run_train if args.workload in RECIPES else run_eval)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    clock = run.clock
    if len(set(run.digests)) > 1:
        run.fail(f"loss digests differ between repetitions: {sorted(set(run.digests))}")
    if len(set(run.losses)) > 1 or len(set(run.accuracies)) > 1:
        run.fail("repetitions of one seed gave different results")
    complete = bool(clock.ops) and run.reps == run.target_reps
    metrics, lines = {}, []
    if complete:
        metrics, lines = (per_layer if args.trace else end_to_end)(run)
    attempted, failed = max(clock.attempted, 1), len(clock.failures)
    correct = complete and failed == 0
    digest = f"{run.digests[0]:08x}" if run.digests else None
    kind = "step-loss" if args.workload in RECIPES else "logits"
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} repetitions={run.reps} ops={len(clock.ops)}")
    for line in lines:
        print(line)
    print(f"error_rate     {failed / attempted:>14.6f} ratio  ({failed} failed / {attempted} attempted)")
    print(f"digest         crc32 {digest} of the float32 {kind} sequence")
    for op, reason in sorted(clock.failures.items()):
        print(f"failed op {op}: {reason}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "digest": digest,
              "digest_of": kind, "repetitions": run.reps, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "failures": {str(k): v for k, v in clock.failures.items()}}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
