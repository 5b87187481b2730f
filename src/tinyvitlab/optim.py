"""AdamW and Lion optimizers plus the cosine-with-warmup LR schedule."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from tinyvitlab.tensor import Tensor

Optimizer = Literal["adamw", "lion"]
_BETAS = {"adamw": (0.9, 0.999), "lion": (0.9, 0.99)}   # (beta1, beta2) by kind
_EPS = 1e-8   # AdamW's denominator floor


def excluded_from_decay(path: str, shape: tuple[int, ...]) -> bool:
    """Biases and layer-norm affines (every 1-D parameter), CLS tokens and
    positional tables skip weight decay."""
    return len(shape) == 1 or path in ("cls_token", "pos_embed")


@dataclass
class OptimState:
    """Per-parameter moment buffers and step counter for one optimizer run;
    the betas are `_BETAS[kind]` and eps is `_EPS`."""

    kind: Optimizer
    weight_decay: float = 0.05
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m.{k}": a for k, a in self.m.items()}
        out.update({f"v.{k}": a for k, a in self.v.items()})
        return out

    def meta(self) -> dict:
        return {"kind": self.kind, "weight_decay": self.weight_decay, "t": self.t}


def init_optim(kind: Optimizer, params: dict[str, Tensor],
               weight_decay: float = 0.05) -> OptimState:
    if kind not in typing.get_args(Optimizer):
        raise ValueError(f"unknown optimizer {kind!r}")
    state = OptimState(kind=kind, weight_decay=weight_decay)
    for path in sorted(params):
        state.m[path] = np.zeros_like(params[path].data)
        if kind == "adamw":
            state.v[path] = np.zeros_like(params[path].data)
    return state


def _check_grads(params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
    """Refuse, with a ValueError naming the paths, grads that lack a
    parameter or have one more, or whose shape or dtype is not the
    parameter's (a float64 gradient is not cast into float32 moments)."""
    if missing := sorted(params.keys() - grads.keys()):
        raise ValueError(f"grads lack parameter(s) {', '.join(missing)}")
    if extra := sorted(grads.keys() - params.keys()):
        raise ValueError(f"grads have no parameter for {', '.join(extra)}")
    for path in sorted(params):
        g, p = grads[path], params[path].data
        if g.shape != p.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape} at {path}")
        if g.dtype != p.dtype:
            raise ValueError(f"grad dtype {g.dtype} != param dtype {p.dtype} at {path}")


def step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
         state: OptimState, lr: float) -> None:
    """One in-place update over sorted parameter paths: AdamW (Adam with
    decoupled decay) or Lion (sign of the interpolated momentum, moment
    refreshed after the step). Decay is taken from the pre-step parameter.
    Grads that do not fit `params` are refused first (see _check_grads).
    Each parameter's temporaries are written into two scratch arrays of its
    shape, through the same operations in the same order as the plain
    expressions in the comments, so with the same bits."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    _check_grads(params, grads)
    state.t += 1
    beta1, beta2 = _BETAS[state.kind]
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for path in sorted(params):
        p, g, m = params[path], grads[path], state.m[path]
        wd = 0.0 if excluded_from_decay(path, p.shape) else state.weight_decay
        decay = lr * wd * p.data if wd else 0.0
        s, s2 = np.empty_like(m), np.empty_like(m)
        if state.kind == "adamw":
            v = state.v[path]
            # m += (1 - beta1) * (g - m)
            np.subtract(g, m, out=s)
            s *= 1.0 - beta1
            m += s
            # v += (1 - beta2) * (g * g - v)
            np.multiply(g, g, out=s)
            s -= v
            s *= 1.0 - beta2
            v += s
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=s)
            s *= lr
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += _EPS
            s /= s2
            p.data -= s
        else:
            # p -= lr * sign(beta1 * m + (1 - beta1) * g)
            np.multiply(m, beta1, out=s)
            np.multiply(g, 1.0 - beta1, out=s2)
            s += s2
            np.sign(s, out=s)
            s *= lr
            p.data -= s
            # m += (1 - beta2) * (g - m)
            np.subtract(g, m, out=s)
            s *= 1.0 - beta2
            m += s
        if wd:
            p.data -= decay


def lr_schedule(step_idx: int, total_steps: int, warmup_steps: int,
                lr_peak: float, lr_min: float) -> float:
    """Linear warmup from 0 to lr_peak, then half-cosine decay to lr_min."""
    if not (0 <= step_idx <= total_steps):
        raise ValueError(f"step {step_idx} outside [0, {total_steps}]")
    if warmup_steps >= total_steps:
        raise ValueError("warmup_steps must be < total_steps")
    if step_idx < warmup_steps:
        return lr_peak * step_idx / warmup_steps
    progress = (step_idx - warmup_steps) / (total_steps - warmup_steps)
    return lr_min + 0.5 * (lr_peak - lr_min) * (1.0 + math.cos(math.pi * progress))
