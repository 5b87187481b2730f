"""Span tracing of tinyvitlab from outside the package, and the per-layer
metrics derived from the spans.

`Tracer` replaces every public function of the package modules with a
wrapper that records one span (name, start, end, parent span, thread) per
call; a generator function gets one span per item it yields. Spans stay in
memory. `layer_metrics` cuts them into ops, the closed-loop units the
benchmark times, and derives per-op layer times, counts and the time no
wrapped call covers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import threading
import time
import tracemalloc
from bisect import bisect_left
from collections import defaultdict
from typing import NamedTuple

# the call whose worker threads' spans hang under it
ROOT = "train.parallel_train_step"
# one worker's forward+backward inside ROOT
WORKER_CALLS = ("model.forward", "tensor.cross_entropy", "tensor.backward")
NAMED_TENSOR_OPS = ("matmul", "gelu", "softmax", "layer_norm", "cross_entropy", "backward")
BLOCK_CHILDREN = ("model.attention", "model.ffn", "tensor.layer_norm")


class Span(NamedTuple):
    sid: int
    name: str
    t0: float
    t1: float
    parent: int | None
    thread: int

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    for mod, attr, value in replacements:
        setattr(mod, attr, value)
    try:
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Tracer:
    """Records spans around calls into `modules` (short name -> module).

    With `track_memory`, the tracemalloc growth from a training-mode
    `model.forward` entry to the next `tensor.backward` entry is recorded:
    the bytes the tape retains. That is only meaningful when one thread
    runs the step, because tracemalloc counts the whole process.
    """

    def __init__(self, modules: dict, track_memory: bool):
        self.modules = modules
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.marks: list[tuple[float, str, float]] = []  # (time, counter, value)
        self._ids = itertools.count()
        self._tls = threading.local()
        self._main = threading.get_ident()
        self._root: int | None = None
        self._mem_on = False
        self._before = {"model.forward": self._forward_entry,
                        "tensor.backward": self._backward_entry}
        self._after = {ROOT: self._reduced,
                       "data.save_checkpoint": self._checkpoint_file,
                       "data.load_checkpoint": self._checkpoint_file}

    @contextlib.contextmanager
    def active(self):
        wrappers: dict = {}
        replacements = []
        for mod in self.modules.values():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                owner = fn.__module__.rsplit(".", 1)[-1]
                if fn.__module__ != f"tinyvitlab.{owner}" or owner not in self.modules:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{owner}.{fn.__name__}", fn)
                replacements.append((mod, attr, wrappers[fn]))
        try:
            with patched(replacements):
                yield self
        finally:
            if self._mem_on:
                tracemalloc.stop()
                self._mem_on = False

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> tuple[int, int | None, float]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main:
            parent = self._root  # a shard worker thread of the open step
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, name: str, t0: float, parent: int | None) -> None:
        t1 = time.perf_counter()
        self._tls.stack.pop()
        self.spans.append(Span(sid, name, t0, t1, parent, threading.get_ident()))

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            item_name = f"{name}.next"

            @functools.wraps(fn)
            def gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, parent, t0 = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, item_name, t0, parent)
                    yield item
            return gen

        before, after = self._before.get(name), self._after.get(name)
        is_root = name == ROOT

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid, parent, t0 = self._open()
            if is_root:
                prev, self._root = self._root, sid
            try:
                out = fn(*args, **kwargs)
            finally:
                if is_root:
                    self._root = prev
                self._close(sid, name, t0, parent)
            if after is not None:
                after(args, kwargs, out)
            return out
        return call

    # -- counters at layer boundaries ---------------------------------------

    def _mark(self, key: str, value: float) -> None:
        self.marks.append((time.perf_counter(), key, float(value)))

    def _forward_entry(self, args, kwargs) -> None:
        if self.track_memory and kwargs.get("mode") == "train" and not self._mem_on:
            tracemalloc.start()
            self._mem_on = True

    def _backward_entry(self, args, kwargs) -> None:
        tape = args[1] if len(args) > 1 else kwargs["tape"]
        self._mark("tape_nodes", len(tape))
        if self._mem_on:
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            self._mem_on = False
            self._mark("retained_bytes", retained)

    def _reduced(self, args, kwargs, out) -> None:
        workers = args[3] if len(args) > 3 else kwargs["workers"]
        grads = out[0]
        self._mark("reduce_bytes", workers * sum(g.nbytes for g in grads.values()))

    def _checkpoint_file(self, args, kwargs, out) -> None:
        path = args[0] if args else kwargs["path"]
        self._mark("checkpoint_bytes", os.path.getsize(path))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, windows: list[tuple[float, float]],
                  layers: tuple[str, ...]) -> tuple[dict[str, tuple[float, str]], float]:
    """Per-op layer metrics over the op `windows` [(start, end)].

    Time metrics sum every span inside a window, from any thread, so
    concurrent shard workers add up (busy time). Self times follow the
    critical path instead: under a `parallel_train_step` only the slowest
    worker's forward+backward counts, and its remainder is the reduction.
    Returns name -> (value, unit), and the mean op time that the layer
    self times plus the unattributed time must add up to.
    """
    n = len(windows)
    spans = sorted(tracer.spans, key=lambda s: s.t0)
    starts = [s.t0 for s in spans]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = {layer: 0.0 for layer in layers}
    op_total = unattributed = block_self = reduce_s = 0.0
    imbalance: list[float] = []

    for w0, w1 in windows:
        inside = [s for s in spans[bisect_left(starts, w0):bisect_left(starts, w1)]
                  if s.t1 <= w1]
        by_id = {s.sid: s for s in inside}
        children: dict[int, list[Span]] = defaultdict(list)
        top = []
        for s in inside:
            busy[s.name] += s.dur
            calls[s.name] += 1
            (children[s.parent] if s.parent in by_id else top).append(s)

        def critical(s: Span) -> list[Span]:
            nonlocal reduce_s
            kids = children[s.sid]
            if s.name != ROOT:
                return kids
            keep, episodes, current = [], [], {}
            for k in kids:
                if k.name not in WORKER_CALLS:
                    keep.append(k)
                    continue
                if k.name == "model.forward" or k.thread not in current:
                    current[k.thread] = []
                    episodes.append(current[k.thread])
                current[k.thread].append(k)
            if episodes:
                times = [sum(k.dur for k in ep) for ep in episodes]
                slowest = max(range(len(times)), key=times.__getitem__)
                keep += episodes[slowest]
                reduce_s += s.dur - times[slowest]
                imbalance.append(times[slowest] * len(times) / sum(times))
            return keep

        pending = list(top)
        while pending:
            s = pending.pop()
            kids = critical(s)
            self_ms[_layer(s.name)] += s.dur - sum(k.dur for k in kids)
            pending.extend(kids)
        for s in inside:
            if s.name == "model.block":
                block_self += s.dur - sum(k.dur for k in children[s.sid]
                                          if k.name in BLOCK_CHILDREN)
        op_total += w1 - w0
        unattributed += (w1 - w0) - sum(s.dur for s in top)

    counters: dict[str, float] = defaultdict(float)
    counted: dict[str, int] = defaultdict(int)
    for t, key, value in tracer.marks:
        if any(w0 <= t <= w1 for w0, w1 in windows):
            counters[key] += value
            counted[key] += 1

    def per_op_ms(*names: str) -> float:
        return 1000.0 * sum(busy[x] for x in names) / n

    def per_call_ms(name: str) -> float:
        durs = [s.dur for s in tracer.spans if s.name == name]
        return 1000.0 * sum(durs) / len(durs) if durs else 0.0

    other_tensor = [x for x in busy if _layer(x) == "tensor"
                    and x.split(".", 1)[1] not in NAMED_TENSOR_OPS]
    ckpt = [v for _, key, v in tracer.marks if key == "checkpoint_bytes"]
    ms, per_call, calls_op = "ms/op", "ms/call", "calls/op"
    m = {
        "tensor.matmul.ms": (per_op_ms("tensor.matmul"), ms),
        "tensor.matmul.calls": (calls["tensor.matmul"] / n, calls_op),
        "tensor.gelu.ms": (per_op_ms("tensor.gelu"), ms),
        "tensor.softmax.ms": (per_op_ms("tensor.softmax"), ms),
        "tensor.layer_norm.ms": (per_op_ms("tensor.layer_norm"), ms),
        "tensor.cross_entropy.ms": (per_op_ms("tensor.cross_entropy"), ms),
        "tensor.backward.ms": (per_op_ms("tensor.backward"), ms),
        "tensor.other.ms": (per_op_ms(*other_tensor), ms),
        "tensor.tape.nodes": (counters["tape_nodes"] / n, "count/op"),
        "tensor.tape.retained_mb": (counters["retained_bytes"] / counted["retained_bytes"] / 1e6
                                    if counted["retained_bytes"] else 0.0, "MB"),
        "model.forward.ms": (per_op_ms("model.forward"), ms),
        "model.attention.ms": (per_op_ms("model.attention"), ms),
        "model.ffn.ms": (per_op_ms("model.ffn"), ms),
        "model.block.self_ms": (1000.0 * block_self / n, ms),
        "model.init_params.ms": (per_call_ms("model.init_params"), per_call),
        "optim.step.ms": (per_op_ms("optim.step"), ms),
        "train.batch_wait_ms": (per_op_ms("train.build_batches.next"), ms),
        "train.reduce.ms": (1000.0 * reduce_s / n, ms),
        "train.reduce.mb": (counters["reduce_bytes"] / 1e6 / n, "MB/op"),
        "train.worker_imbalance": (sum(imbalance) / len(imbalance) if imbalance else 1.0, "ratio"),
        "train.evaluate.ms": (per_op_ms("train.evaluate"), ms),
        "train.unattributed_ms": (1000.0 * unattributed / n, ms),
        "augment.base_augment.ms": (per_op_ms("augment.base_augment"), ms),
        "augment.base_augment.calls": (calls["augment.base_augment"] / n, calls_op),
        "augment.random_erase.ms": (per_op_ms("augment.random_erase"), ms),
        "augment.mix.ms": (per_op_ms("augment.mixup", "augment.cutmix"), ms),
        "data.normalize.ms": (per_op_ms("data.normalize"), ms),
        "data.load_checkpoint.ms": (per_call_ms("data.load_checkpoint"), per_call),
        "data.save_checkpoint.ms": (per_call_ms("data.save_checkpoint"), per_call),
        "data.checkpoint.mb": (sum(ckpt) / len(ckpt) / 1e6 if ckpt else 0.0, "MB"),
    }
    for layer in layers:
        m[f"{layer}.self_ms"] = (1000.0 * self_ms[layer] / n, ms)
    return m, 1000.0 * op_total / n
