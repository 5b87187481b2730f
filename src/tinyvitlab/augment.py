"""Augmentation and regularization stack producing batches with soft labels.

Base augmentation (crop / flip / AutoAugment policy ops) runs in raw uint8
pixel space; MixUp / CutMix / random erasing operate on normalized float
images. All randomness comes from explicit numpy Generators, so a fixed seed
reproduces batches bitwise.

A batch is built in two steps, the only entry points: plan_batch makes every
draw of base augmentation and random erasing, and reads no pixel; apply_plan
then does the pixel work across the whole batch: one gather for the crops and
flips, one call per (op, argument) for each policy stage, then normalization
and the erase fills. The policy ops take one image [3, H, W] or a batch
[..., 3, H, W], and give each image of a batch the one-image call's bits.

Geometric policy ops use nearest-neighbor resampling with clamp-to-edge
coordinates, keeping outputs bit-exact across platforms.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from tinyvitlab import data as D
from tinyvitlab.model import ConfigError, check_fields

# The recipe's fixed values: the alphas of the Beta(alpha, alpha) that MixUp
# and CutMix draw their mixing weight from, DeiT's (arXiv:2012.12877), and the
# range that random erasing draws the erased fraction of the image from.
MIXUP_ALPHA = 0.8
CUTMIX_ALPHA = 1.0
ERASE_AREA_RANGE = (0.02, 0.33)


@dataclass(slots=True)
class AugmentConfig:
    """The augmentation study's six knobs; the recipe's fixed values are the constants above."""

    # "crop_flip": pad-reflect crop + horizontal flip; "autoaugment": that,
    # then a CIFAR10_POLICY sub-policy; "none": raw pixels
    base_augment: Literal["autoaugment", "crop_flip", "none"] = "autoaugment"
    use_mixup: bool = True
    use_cutmix: bool = True
    erase_prob: float = 0.25       # 0: no random erasing
    label_smoothing: float = 0.1
    repeated_factor: int = 4       # 1: no repeated augmentation

    def validate(self) -> None:
        check_fields(self, repeated_factor=1)
        if not (0.0 <= self.erase_prob <= 1.0):
            raise ConfigError(f"erase_prob must be in [0, 1], got {self.erase_prob}")
        if not (0.0 <= self.label_smoothing < 1.0):
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")

    @classmethod
    def disabled(cls) -> "AugmentConfig":
        """Normalize-only pipeline (every augmentation off, no smoothing)."""
        return cls(base_augment="none", use_mixup=False, use_cutmix=False, erase_prob=0.0,
                   label_smoothing=0.0, repeated_factor=1)


@dataclass
class SoftBatch:
    """Normalized images plus per-sample probability-distribution targets."""

    images: np.ndarray   # float32 [B,3,H,W]
    targets: np.ndarray  # float32 [B,num_classes], rows sum to 1

    def __post_init__(self):
        if len(self.images) != len(self.targets):
            raise ValueError("image/target count mismatch")


# ---------------------------------------------------------------------------
# soft-label ops

def label_smooth(targets: np.ndarray, eps: float, num_classes: int) -> np.ndarray:
    """One-hot rows -> 1-eps+eps/C on the true class, eps/C elsewhere."""
    t = np.asarray(targets, dtype=np.float32)
    if t.ndim != 2 or t.shape[1] != num_classes:
        raise ValueError(f"expected [B,{num_classes}] one-hot rows, got {t.shape}")
    onehot = (np.all((t == 0) | (t == 1), axis=None) and np.all(t.sum(axis=1) == 1))
    if not onehot:
        raise ValueError("label_smooth requires one-hot input rows")
    return (t * (1.0 - eps) + eps / num_classes).astype(np.float32)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def mixup(batch: SoftBatch, rng: np.random.Generator) -> SoftBatch:
    """Convex-combine each sample with a permuted partner, lam ~ Beta(a, a), a = MIXUP_ALPHA."""
    b = len(batch.images)
    if b < 2:
        warnings.warn("mixup skipped: batch size < 2")
        return batch
    lam = np.float32(rng.beta(MIXUP_ALPHA, MIXUP_ALPHA))
    perm = rng.permutation(b)
    images = lam * batch.images + (1.0 - lam) * batch.images[perm]
    targets = lam * batch.targets + (1.0 - lam) * batch.targets[perm]
    return SoftBatch(images.astype(np.float32, copy=False), targets.astype(np.float32))


def cutmix(batch: SoftBatch, rng: np.random.Generator) -> SoftBatch:
    """Paste a partner rectangle; label weight is the exact kept-area ratio."""
    b = len(batch.images)
    if b < 2:
        warnings.warn("cutmix skipped: batch size < 2")
        return batch
    h, w = batch.images.shape[-2:]
    lam = rng.beta(CUTMIX_ALPHA, CUTMIX_ALPHA)
    perm = rng.permutation(b)
    cut = np.sqrt(1.0 - lam)
    ch, cw = int(np.round(h * cut)), int(np.round(w * cut))
    cy, cx = int(rng.integers(0, h)), int(rng.integers(0, w))
    y0, y1 = np.clip([cy - ch // 2, cy + (ch + 1) // 2], 0, h)
    x0, x1 = np.clip([cx - cw // 2, cx + (cw + 1) // 2], 0, w)
    area = (y1 - y0) * (x1 - x0)
    images = batch.images.copy()
    images[:, :, y0:y1, x0:x1] = batch.images[perm][:, :, y0:y1, x0:x1]
    lam_adj = np.float32(1.0 - area / (h * w))
    targets = lam_adj * batch.targets + (1.0 - lam_adj) * batch.targets[perm]
    return SoftBatch(images, targets.astype(np.float32))


def _plan_erase(shape: tuple[int, ...], prob: float, rng: np.random.Generator):
    """One image's erase draws for `shape` [C, H, W]: the coin (erase with
    probability `prob`), up to 10 tries of an area fraction (ERASE_AREA_RANGE)
    and an aspect, then the corner and the standard-normal noise of the first
    rectangle that fits. None (no erase, or no fit), or (y, x, float64 noise [C, eh, ew])."""
    if rng.random() >= prob:
        return None
    h, w = shape[-2:]
    for _ in range(10):
        frac = rng.uniform(*ERASE_AREA_RANGE)
        aspect = rng.uniform(0.3, 3.3)
        target = frac * h * w
        eh = round(math.sqrt(target * aspect))   # to the nearest, ties to even
        ew = round(math.sqrt(target / aspect))
        if eh < 1 or ew < 1 or eh > h or ew > w:
            continue
        y = int(rng.integers(0, h - eh + 1))
        x = int(rng.integers(0, w - ew + 1))
        return y, x, rng.standard_normal((shape[0], eh, ew))
    return None


def repeated_indices(order: np.ndarray, batch_size: int, m: int):
    """Yield batches of indices where B/m distinct sources each appear m times."""
    if batch_size % m != 0:
        raise ValueError(f"repeat factor {m} must divide batch size {batch_size}")
    if m > batch_size:
        raise ValueError("repeat factor exceeds batch size")
    per = batch_size // m
    for start in range(0, len(order) - per + 1, per):
        src = order[start:start + per]
        yield np.repeat(src, m)


# ---------------------------------------------------------------------------
# raw-space base augmentation

# The fixed CIFAR-10 AutoAugment policy: 25 sub-policies, each two
# (op, probability, magnitude level) stages. Magnitude levels are 0-9.
CIFAR10_POLICY = (
    (("invert", 0.1, 7), ("contrast", 0.2, 6)),
    (("rotate", 0.7, 2), ("translate_x", 0.3, 9)),
    (("sharpness", 0.8, 1), ("sharpness", 0.9, 3)),
    (("shear_y", 0.5, 8), ("translate_y", 0.7, 9)),
    (("autocontrast", 0.5, 8), ("equalize", 0.9, 2)),
    (("shear_y", 0.2, 7), ("posterize", 0.3, 7)),
    (("color", 0.4, 3), ("brightness", 0.6, 7)),
    (("sharpness", 0.3, 9), ("brightness", 0.7, 9)),
    (("equalize", 0.6, 5), ("equalize", 0.5, 1)),
    (("contrast", 0.6, 7), ("sharpness", 0.6, 5)),
    (("color", 0.7, 7), ("translate_x", 0.5, 8)),
    (("equalize", 0.3, 7), ("autocontrast", 0.4, 8)),
    (("translate_y", 0.4, 3), ("sharpness", 0.2, 6)),
    (("brightness", 0.9, 6), ("color", 0.2, 8)),
    (("solarize", 0.5, 2), ("invert", 0.0, 3)),
    (("equalize", 0.2, 0), ("autocontrast", 0.6, 0)),
    (("equalize", 0.2, 8), ("equalize", 0.6, 4)),
    (("color", 0.9, 9), ("equalize", 0.6, 6)),
    (("autocontrast", 0.8, 4), ("solarize", 0.2, 8)),
    (("brightness", 0.1, 3), ("color", 0.7, 0)),
    (("solarize", 0.4, 5), ("autocontrast", 0.9, 3)),
    (("translate_y", 0.9, 9), ("translate_y", 0.7, 9)),
    (("autocontrast", 0.9, 2), ("solarize", 0.8, 3)),
    (("equalize", 0.8, 8), ("invert", 0.1, 3)),
    (("translate_y", 0.7, 9), ("autocontrast", 0.9, 1)),
)


# The geometric and pixel ops take one image [3, H, W] or a batch [..., 3, H, W]:
# every image of a batch gets what the one-image call gives it, bit for bit.
# Each image's arithmetic is the one-image call's, element by element; a
# reduction (contrast's mean) runs image by image.

@functools.lru_cache(maxsize=64)
def _source_pixels(op: str, arg: float, h: int, w: int) -> np.ndarray:
    """[h, w]: the flat index of the pixel of an h x w image that each output
    pixel of geometric op `op` at `arg` reads, its source coordinates rounded
    to the nearest pixel and clamped to the edge. Read-only: callers share it."""
    y, x = np.meshgrid(np.arange(h, dtype=np.float64),
                       np.arange(w, dtype=np.float64), indexing="ij")
    if op == "shear_y":
        sy, sx = y + arg * x, x
    elif op == "translate_x":
        sy, sx = y, x - arg
    elif op == "translate_y":
        sy, sx = y - arg, x
    else:   # rotate by arg degrees about the centre
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        rad = np.deg2rad(arg)
        c, s = np.cos(rad), np.sin(rad)
        dy, dx = y - cy, x - cx
        sy, sx = cy + c * dy - s * dx, cx + s * dy + c * dx
    index = (np.clip(np.rint(sy).astype(int), 0, h - 1) * w
             + np.clip(np.rint(sx).astype(int), 0, w - 1))
    index.flags.writeable = False
    return index


def _affine(image: np.ndarray, op: str, arg: float) -> np.ndarray:
    """Nearest-neighbor resample with clamp-to-edge source coordinates."""
    h, w = image.shape[-2:]
    return np.take(image.reshape(image.shape[:-2] + (h * w,)), _source_pixels(op, arg, h, w),
                   axis=-1)


def shear_y(image, mag):
    return _affine(image, "shear_y", mag)


def translate_x(image, px):
    return _affine(image, "translate_x", px)


def translate_y(image, px):
    return _affine(image, "translate_y", px)


def rotate(image, degrees):
    return _affine(image, "rotate", degrees)


def _gray(image: np.ndarray) -> np.ndarray:
    lum = (0.299 * image[..., 0, :, :] + 0.587 * image[..., 1, :, :]
           + 0.114 * image[..., 2, :, :])
    return np.broadcast_to(lum[..., None, :, :], image.shape)


def _blend(base: np.ndarray, image: np.ndarray, factor: float) -> np.ndarray:
    # base + factor * (image - base), in place in one float64 copy of the image
    out = image.astype(np.float64)
    out -= base
    out *= factor
    out += base
    return np.clip(np.rint(out, out=out), 0, 255, out=out).astype(np.uint8)


def color(image, factor):
    return _blend(_gray(image), image, factor)


def contrast(image, factor):
    # each image's mean over its own [3, H, W] view: a mean across the batch
    # axis too may add in another order
    gray = _gray(image)
    mean = [np.rint(gray[i].mean()) for i in np.ndindex(image.shape[:-3])]
    return _blend(np.reshape(mean, image.shape[:-3] + (1, 1, 1)), image, factor)


def brightness(image, factor):
    return _blend(0.0, image, factor)


@functools.lru_cache(maxsize=8)
def _clamped(n: int) -> np.ndarray:
    """The indices -1, 0, ..., n clamped to [0, n - 1]: one pixel of edge
    padding. Read-only: callers share it."""
    index = np.clip(np.arange(-1, n + 1), 0, n - 1)
    index.flags.writeable = False
    return index


_SMOOTH = np.array([[1, 1, 1], [1, 5, 1], [1, 1, 1]], dtype=np.float64) / 13.0


def sharpness(image, factor):
    # the 3x3 smoothing of an edge-clamped copy, its nine weighted terms added
    # in the kernel's C order from zero, as ndimage.convolve(mode="nearest")
    # adds them, so the output is bitwise scipy's; each term is a slice of
    # the copy times its weight, so one product per distinct weight serves all
    h, w = image.shape[-2:]
    padded = image.take(_clamped(h), axis=-2).take(_clamped(w), axis=-1).astype(np.float64)
    scaled = {weight: padded * weight for weight in set(_SMOOTH.flat)}
    smooth = np.zeros(image.shape)
    for (dy, dx), weight in np.ndenumerate(_SMOOTH):
        smooth += scaled[weight][..., dy:dy + h, dx:dx + w]
    return _blend(smooth, image, factor)


def posterize(image, bits):
    mask = np.uint8(0xFF & ~((1 << (8 - bits)) - 1))
    return image & mask


def solarize(image, threshold):
    # 255 - v, for a uint8 v, is v with every bit flipped
    return image ^ np.uint8(255) * (image >= threshold)


def invert(image):
    return 255 - image


def autocontrast(image):
    # each channel stretched from its own [lo, hi] to [0, 255]; a flat one is
    # kept, as (v - 0) * 1.0
    lo = image.min(axis=(-2, -1), keepdims=True).astype(np.int64)
    hi = image.max(axis=(-2, -1), keepdims=True).astype(np.int64)
    flat = hi <= lo
    scale = np.where(flat, 1.0, 255.0 / np.maximum(hi - lo, 1))
    lo[flat] = 0
    return np.clip(np.rint((image.astype(np.float64) - lo) * scale), 0, 255).astype(np.uint8)


def equalize(image):
    # each channel through the lookup table of its own histogram, one row per
    # channel; a channel whose pixels outside its highest value number fewer
    # than 255 (one value alone, too) is kept
    h, w = image.shape[-2:]
    channels = image.reshape(-1, h * w)
    count = len(channels)
    bins = channels + np.arange(0, 256 * count, 256)[:, None]   # each channel's own 256 bins
    hist = np.bincount(bins.reshape(-1), minlength=256 * count).reshape(count, 256)
    step = (h * w - hist[np.arange(count), channels.max(axis=1)]) // 255
    lut = (np.cumsum(hist, axis=1) - hist + step[:, None] // 2) // np.maximum(step, 1)[:, None]
    lut[step == 0] = np.arange(256)   # kept
    return np.clip(lut, 0, 255).astype(np.uint8).take(bins).reshape(image.shape)


def _signed(rng: np.random.Generator, value: float) -> float:
    return -value if rng.random() < 0.5 else value


# Each policy op's function and the rule that turns its magnitude fraction
# f = level / 9 and the rng into the op's argument; None: the op takes none.
# Only the +- rules draw from the rng: one draw, the sign.
_POLICY_OPS = {
    "shear_y": (shear_y, lambda f, rng: _signed(rng, f * 0.3)),
    "translate_x": (translate_x, lambda f, rng: _signed(rng, f * 10)),   # pixels at level 9
    "translate_y": (translate_y, lambda f, rng: _signed(rng, f * 10)),
    "rotate": (rotate, lambda f, rng: _signed(rng, f * 30.0)),           # degrees at level 9
    **{op.__name__: (op, lambda f, rng: 1.0 + _signed(rng, f * 0.9))   # enhancement factor
       for op in (color, contrast, brightness, sharpness)},
    "posterize": (posterize, lambda f, rng: 8 - int(f * 4)),   # bits kept
    "solarize": (solarize, lambda f, rng: int(256 - f * 256)),  # threshold
    **{op.__name__: (op, None) for op in (autocontrast, equalize, invert)},
}


def _policy_step(op: str, level: int, rng: np.random.Generator) -> tuple:
    """(op, its argument at magnitude `level` from the op's rule; None for an op that takes none)."""
    rule = _POLICY_OPS[op][1]
    return op, None if rule is None else rule(level / 9.0, rng)


# ---------------------------------------------------------------------------
# a batch in two steps: every draw first, then the pixel work batch-wide

@dataclass
class BatchPlan:
    """A batch's draws, made before any pixel is read. Per image: its crop
    offsets and flip (crops and flips are None without base augmentation),
    the (op, argument) each policy stage runs on it (None: the stage's coin
    said no, or no policy), and its erasure (see _plan_erase; None: none)."""

    crops: np.ndarray | None   # int [B, 2]: (y, x) into the 4-pixel reflect-padded image
    flips: np.ndarray | None   # bool [B]
    stages: list[list]         # [stage][image]
    erasures: list             # [image]


def plan_batch(count: int, shape: tuple[int, int, int], base: str, erase_prob: float,
               rng: np.random.Generator) -> BatchPlan:
    """The plan of `count` images of `shape` [C, H, W] under base
    augmentation `base` (AugmentConfig.base_augment) and random erasing at
    `erase_prob`. The draws come image by image: "crop_flip" draws the two
    crop offsets, then the flip; "autoaugment" draws those, then the
    sub-policy, then each stage's coin and, for a signed op the coin lets
    run, its sign; "none" draws nothing. Then, with erase_prob > 0, come
    each image's erase draws (_plan_erase), image by image."""
    integers, random = rng.integers, rng.random
    crops, flips = [], []
    stages = [[None] * count for _ in CIFAR10_POLICY[0]]
    for i in range(count if base != "none" else 0):
        crops.append((integers(0, 9), integers(0, 9)))
        flips.append(random() < 0.5)
        if base == "autoaugment":
            for stage, (op, p, level) in zip(stages, CIFAR10_POLICY[integers(0, len(CIFAR10_POLICY))]):
                if random() < p:
                    stage[i] = _policy_step(op, level, rng)
    erasures = [_plan_erase(shape, erase_prob, rng) if erase_prob > 0 else None
                for _ in range(count)]
    if base == "none":
        return BatchPlan(None, None, stages, erasures)
    return BatchPlan(np.array(crops), np.array(flips), stages, erasures)


def apply_plan(raws: np.ndarray, plan: BatchPlan) -> np.ndarray:
    """The float32 batch that `plan` makes of uint8 images raws [B, 3, H, W],
    which it does not write: cropped and flipped, as one gather of the
    reflect-padded batch's windows, run through each policy stage as one op
    call per (op, argument) on the images that draw it, normalized, then
    erased: each planned rectangle filled with its noise, cast to float32
    (normalized space)."""
    out = raws
    if plan.crops is not None:
        h, w = raws.shape[-2:]
        padded = np.pad(raws, [(0, 0), (0, 0), (4, 4), (4, 4)], mode="reflect")
        windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(-2, -1))
        out = windows[np.arange(len(raws)), :, plan.crops[:, 0], plan.crops[:, 1]]
        out[plan.flips] = out[plan.flips, ..., ::-1]
        for stage in plan.stages:
            groups: dict[tuple, list[int]] = {}
            for i, step in enumerate(stage):
                if step is not None:
                    groups.setdefault(step, []).append(i)
            for (op, arg), rows in groups.items():
                fn = _POLICY_OPS[op][0]
                out[rows] = fn(out[rows]) if arg is None else fn(out[rows], arg)
    images = D.normalize(out)
    for image, erasure in zip(images, plan.erasures):
        if erasure is not None:
            y, x, noise = erasure
            image[:, y:y + noise.shape[1], x:x + noise.shape[2]] = noise
    return images
