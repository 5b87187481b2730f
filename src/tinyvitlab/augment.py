"""Augmentation and regularization stack producing batches with soft labels.

Base augmentation (crop / flip / AutoAugment policy ops) runs in raw uint8
pixel space; MixUp / CutMix / random erasing operate on normalized float
images. All randomness comes from explicit numpy Generators, so a fixed seed
reproduces batches bitwise.

Geometric policy ops use nearest-neighbor resampling with clamp-to-edge
coordinates, keeping outputs bit-exact across platforms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

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
    return SoftBatch(images.astype(np.float32), targets.astype(np.float32))


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


def random_erase(image: np.ndarray, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Fill a random rectangle (ERASE_AREA_RANGE of the area) with standard-normal noise
    (post-normalization space) with probability `prob`; skipped if none fits in 10 draws."""
    if rng.random() >= prob:
        return image
    h, w = image.shape[-2:]
    for _ in range(10):
        frac = rng.uniform(*ERASE_AREA_RANGE)
        aspect = rng.uniform(0.3, 3.3)
        target = frac * h * w
        eh = int(np.round(np.sqrt(target * aspect)))
        ew = int(np.round(np.sqrt(target / aspect)))
        if eh < 1 or ew < 1 or eh > h or ew > w:
            continue
        y = int(rng.integers(0, h - eh + 1))
        x = int(rng.integers(0, w - ew + 1))
        out = image.copy()
        out[:, y:y + eh, x:x + ew] = rng.standard_normal((image.shape[0], eh, ew)).astype(image.dtype)
        return out
    return image


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


def _affine(image: np.ndarray, inv) -> np.ndarray:
    """Nearest-neighbor resample with clamp-to-edge source coordinates."""
    h, w = image.shape[-2:]
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sy, sx = inv(yy, xx)
    return image[:, np.clip(np.rint(sy).astype(int), 0, h - 1),
                 np.clip(np.rint(sx).astype(int), 0, w - 1)]


def shear_y(image, mag):
    return _affine(image, lambda y, x: (y + mag * x, x))


def translate_x(image, px):
    return _affine(image, lambda y, x: (y, x - px))


def translate_y(image, px):
    return _affine(image, lambda y, x: (y - px, x))


def rotate(image, degrees):
    h, w = image.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = np.deg2rad(degrees)
    c, s = np.cos(rad), np.sin(rad)

    def inv(y, x):
        dy, dx = y - cy, x - cx
        return cy + c * dy - s * dx, cx + s * dy + c * dx

    return _affine(image, inv)


def _gray(image: np.ndarray) -> np.ndarray:
    lum = 0.299 * image[0] + 0.587 * image[1] + 0.114 * image[2]
    return np.broadcast_to(lum, image.shape)


def _blend(base: np.ndarray, image: np.ndarray, factor: float) -> np.ndarray:
    out = base + factor * (image.astype(np.float64) - base)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def color(image, factor):
    return _blend(_gray(image), image, factor)


def contrast(image, factor):
    mean = np.rint(_gray(image).mean())
    return _blend(np.full_like(image, mean, dtype=np.float64), image, factor)


def brightness(image, factor):
    return _blend(np.zeros_like(image, dtype=np.float64), image, factor)


_SMOOTH = np.array([[1, 1, 1], [1, 5, 1], [1, 1, 1]], dtype=np.float64) / 13.0


def sharpness(image, factor):
    # the 3x3 smoothing of an edge-clamped copy, its nine weighted terms added
    # in the kernel's C order from zero, as ndimage.convolve(mode="nearest")
    # adds them, so the output is bitwise scipy's
    h, w = image.shape[-2:]
    padded = np.pad(image.astype(np.float64), ((0, 0), (1, 1), (1, 1)), mode="edge")
    smooth = np.zeros(image.shape)
    for (dy, dx), weight in np.ndenumerate(_SMOOTH):
        smooth += padded[:, dy:dy + h, dx:dx + w] * weight
    return _blend(smooth, image, factor)


def posterize(image, bits):
    mask = np.uint8(0xFF & ~((1 << (8 - bits)) - 1))
    return image & mask


def solarize(image, threshold):
    return np.where(image >= threshold, 255 - image.astype(np.int16), image).astype(np.uint8)


def invert(image):
    return 255 - image


def autocontrast(image):
    out = np.empty_like(image)
    for c in range(image.shape[0]):
        ch = image[c]
        lo, hi = int(ch.min()), int(ch.max())
        if hi <= lo:
            out[c] = ch
        else:
            scale = 255.0 / (hi - lo)
            out[c] = np.clip(np.rint((ch.astype(np.float64) - lo) * scale), 0, 255).astype(np.uint8)
    return out


def equalize(image):
    out = np.empty_like(image)
    for c in range(image.shape[0]):
        ch = image[c]
        hist = np.bincount(ch.reshape(-1), minlength=256)
        nonzero = hist[hist > 0]
        if len(nonzero) <= 1:
            out[c] = ch
            continue
        step = (hist.sum() - nonzero[-1]) // 255
        if step == 0:
            out[c] = ch
            continue
        lut = (np.cumsum(hist) - hist + step // 2) // step
        out[c] = np.clip(lut, 0, 255).astype(np.uint8)[ch]
    return out


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


def apply_policy_op(image: np.ndarray, op: str, level: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Run policy op `op` at magnitude `level` (0-9), its argument from the
    op's rule in _POLICY_OPS."""
    if op not in _POLICY_OPS:
        raise ValueError(f"unknown policy op {op!r}")
    fn, rule = _POLICY_OPS[op]
    return fn(image) if rule is None else fn(image, rule(level / 9.0, rng))


def base_augment(image: np.ndarray, use_autoaugment: bool,
                 rng: np.random.Generator) -> np.ndarray:
    """Pad-4-reflect + random crop + horizontal flip, then optionally one
    uniformly drawn sub-policy from the fixed CIFAR-10 table. Raw pixel space."""
    h, w = image.shape[-2:]
    padded = np.pad(image, ((0, 0), (4, 4), (4, 4)), mode="reflect")
    oy, ox = int(rng.integers(0, 9)), int(rng.integers(0, 9))
    out = padded[:, oy:oy + h, ox:ox + w]
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    out = np.ascontiguousarray(out)
    if use_autoaugment:
        sub = CIFAR10_POLICY[int(rng.integers(0, len(CIFAR10_POLICY)))]
        for op, p, level in sub:
            if rng.random() < p:
                out = apply_policy_op(out, op, level, rng)
    return out
