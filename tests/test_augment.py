"""Augmentation stack: exact pixel oracles for the policy ops, label
accounting for MixUp/CutMix, and distributional scans for the random parts."""

import numpy as np
import pytest

from tinyvitlab import augment as A
from tinyvitlab import data as D
from tinyvitlab.augment import SoftBatch


def rand_uint8(rng, shape=(3, 32, 32)):
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


class ScriptedRng:
    """An rng whose random() always returns `value`; it counts the calls.
    The policy draws a negative sign below 0.5 and a positive one above."""

    def __init__(self, value):
        self.value, self.calls = value, 0

    def random(self):
        self.calls += 1
        return self.value


def run_step(image, step):
    """Policy step (op, argument) run on `image` by the op's function in _POLICY_OPS."""
    op, arg = step
    fn = A._POLICY_OPS[op][0]
    return fn(image) if arg is None else fn(image, arg)


def soft_batch(rng, b=8, n=10):
    images = rng.standard_normal((b, 3, 32, 32)).astype(np.float32)
    targets = A.one_hot(rng.integers(0, n, size=b), n)
    return SoftBatch(images, targets)


# ---------------------------------------------------------------------------
# labels

class TestLabels:
    def test_label_smooth_values(self):
        t = A.one_hot(np.array([3]), 10)
        out = A.label_smooth(t, 0.1, 10)
        assert out[0, 3] == pytest.approx(0.91, abs=1e-6)
        assert out[0, 0] == pytest.approx(0.01, abs=1e-6)
        assert out.sum() == pytest.approx(1.0, abs=1e-6)

    def test_zero_eps_is_copy(self):
        t = A.one_hot(np.array([1, 2]), 4)
        out = A.label_smooth(t, 0.0, 4)
        assert np.array_equal(out, t) and out is not t

    def test_rejects_soft_input(self):
        with pytest.raises(ValueError):
            A.label_smooth(np.full((1, 4), 0.25), 0.1, 4)

    def test_one_hot(self):
        out = A.one_hot(np.array([0, 9]), 10)
        assert out.shape == (2, 10)
        assert out[0, 0] == 1.0 and out[1, 9] == 1.0 and out.sum() == 2.0


# ---------------------------------------------------------------------------
# mixup / cutmix

class TestMixup:
    def test_targets_stay_distributions(self):
        rng = np.random.default_rng(0)
        for i in range(50):
            out = A.mixup(soft_batch(rng), rng)
            assert np.allclose(out.targets.sum(axis=1), 1.0, atol=1e-5)
            assert np.all(out.targets >= 0)

    def test_pixels_are_convex_combinations(self):
        rng = np.random.default_rng(1)
        batch = soft_batch(rng, b=4)
        out = A.mixup(batch, rng)
        lo = batch.images.min() - 1e-6
        hi = batch.images.max() + 1e-6
        assert np.all(out.images >= lo) and np.all(out.images <= hi)

    def test_batch_of_one_warns_and_passes_through(self):
        rng = np.random.default_rng(2)
        batch = soft_batch(rng, b=1)
        with pytest.warns(UserWarning, match="mixup skipped"):
            out = A.mixup(batch, rng)
        assert out is batch

    def test_deterministic_under_seed(self):
        base = soft_batch(np.random.default_rng(3))
        a = A.mixup(base, np.random.default_rng(7))
        b = A.mixup(base, np.random.default_rng(7))
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.targets, b.targets)


class TestCutmix:
    def test_exact_pixel_accounting(self):
        # constant-valued images: pasted pixels are countable exactly, and
        # the label weight must equal the kept-area fraction
        rng = np.random.default_rng(4)
        b, h, w = 6, 32, 32
        images = np.stack([np.full((3, h, w), float(i), dtype=np.float32)
                           for i in range(b)])
        targets = A.one_hot(np.arange(b), b)
        checked = 0
        for _ in range(200):
            out = A.cutmix(SoftBatch(images.copy(), targets), rng)
            for i in range(b):
                vals = np.unique(out.images[i, 0])
                partners = [int(v) for v in vals if int(v) != i]
                if len(partners) != 1:
                    continue  # partner was self, or the box was empty
                j = partners[0]
                n_pasted = int(np.count_nonzero(out.images[i, 0] == j))
                lam_adj = 1.0 - n_pasted / (h * w)
                assert out.targets[i, i] == pytest.approx(lam_adj, abs=1e-5)
                assert out.targets[i, j] == pytest.approx(1.0 - lam_adj, abs=1e-5)
                checked += 1
        assert checked > 100

    def test_box_within_bounds_and_targets_valid(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            out = A.cutmix(soft_batch(rng), rng)
            assert out.images.shape == (8, 3, 32, 32)
            assert np.all(out.targets >= 0)
            assert np.allclose(out.targets.sum(axis=1), 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# random erasing

def erased(raws, prob, rng):
    """(raws erased at `prob` without base augmentation, raws normalized):
    a plan of n images makes the draws of n erasures one after another. The
    erasures write the normalized batch, never raws."""
    before = raws.copy()
    out = A.apply_plan(raws, A.plan_batch(len(raws), raws.shape[1:], "none", prob, rng))
    assert np.array_equal(raws, before)
    return out, D.normalize(raws)


class TestRandomErase:
    def test_zero_prob_is_identity(self):
        rng = np.random.default_rng(7)
        out, normalized = erased(rand_uint8(rng, (4, 3, 32, 32)), 0.0, rng)
        assert np.array_equal(out, normalized)

    def test_erased_area_fraction_in_range(self):
        out, normalized = erased(np.zeros((500, 3, 32, 32), np.uint8), 1.0,
                                 np.random.default_rng(8))
        hits = 0
        for changed in np.count_nonzero(out[:, 0] != normalized[:, 0], axis=(1, 2)):
            if changed == 0:
                continue
            hits += 1
            frac = changed / (32 * 32)
            # rectangle dims are rounded, so allow slack around the range
            assert 0.01 <= frac <= 0.40
        assert hits > 400  # almost every draw should fit a rectangle

    def test_fill_is_standard_normal(self):
        out, normalized = erased(np.full((200, 3, 32, 32), 100, np.uint8), 1.0,
                                 np.random.default_rng(9))
        vals = out[out != normalized]
        assert len(vals) > 10_000
        assert abs(vals.mean()) < 0.05
        assert abs(vals.std() - 1.0) < 0.05

    def test_erase_probability_scan(self):
        out, normalized = erased(np.zeros((1000, 3, 32, 32), np.uint8), 0.25,
                                 np.random.default_rng(10))
        count = int(np.count_nonzero(np.any(out != normalized, axis=(1, 2, 3))))
        assert 200 <= count <= 300  # binomial(1000, ~0.25), +-3.7 sigma


# ---------------------------------------------------------------------------
# repeated augmentation

class TestRepeatedIndices:
    def test_each_source_appears_m_times(self):
        order = np.arange(24)
        batches = list(A.repeated_indices(order, batch_size=12, m=3))
        for batch in batches:
            vals, counts = np.unique(batch, return_counts=True)
            assert len(vals) == 4 and np.all(counts == 3)

    def test_sources_advance_without_overlap(self):
        order = np.arange(12)
        batches = list(A.repeated_indices(order, batch_size=6, m=3))
        seen = np.concatenate([np.unique(b) for b in batches])
        assert list(seen) == list(range(12))

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError):
            list(A.repeated_indices(np.arange(10), batch_size=10, m=3))


# ---------------------------------------------------------------------------
# policy table and pixel ops

class TestPolicyTable:
    def test_structure(self):
        assert len(A.CIFAR10_POLICY) == 25
        for sub in A.CIFAR10_POLICY:
            assert len(sub) == 2
            for op, p, level in sub:
                assert 0.0 <= p <= 1.0
                assert 0 <= level <= 9

    def test_every_op_runs(self):
        rng = np.random.default_rng(11)
        img = rand_uint8(rng)
        ops = {op for sub in A.CIFAR10_POLICY for op, _, _ in sub}
        for op in sorted(ops):
            out = run_step(img, A._policy_step(op, 5, np.random.default_rng(0)))
            assert out.shape == img.shape and out.dtype == np.uint8

    def test_argument_rules(self):
        # each op's arguments at magnitude fraction f = level / 9 and sign s, and
        # the draws it takes: the AutoAugment paper's ranges (arXiv:1805.09501)
        def span(most):   # +-f * most, its sign one draw
            return (lambda f, s: (s * (f * most),)), 1
        enhance = (lambda f, s: (1.0 + s * (f * 0.9),)), 1
        plain = (lambda f, s: ()), 0
        rules = {"shear_y": span(0.3), "translate_x": span(10), "translate_y": span(10),
                 "rotate": span(30.0), "color": enhance, "contrast": enhance,
                 "brightness": enhance, "sharpness": enhance,
                 "posterize": ((lambda f, s: (8 - int(f * 4),)), 0),
                 "solarize": ((lambda f, s: (int(256 - f * 256),)), 0),
                 "autocontrast": plain, "equalize": plain, "invert": plain}
        stages = {(op, level) for sub in A.CIFAR10_POLICY for op, _, level in sub}
        assert {op for op, _ in stages} == set(rules)
        img = rand_uint8(np.random.default_rng(17))
        for op, level in sorted(stages):
            for draw, sign in ((0.25, -1), (0.75, 1)):
                args_of, draws = rules[op]
                args = args_of(level / 9.0, sign)
                rng = ScriptedRng(draw)
                out = run_step(img, A._policy_step(op, level, rng))
                assert rng.calls == draws, (op, level)
                assert np.array_equal(out, getattr(A, op)(img, *args)), (op, level, sign)
        for op, level, draw, fn, arg in (("translate_x", 9, 0.25, A.translate_x, -10.0),
                                         ("translate_x", 9, 0.75, A.translate_x, 10.0),
                                         ("posterize", 7, 0.25, A.posterize, 5),
                                         ("solarize", 2, 0.75, A.solarize, 199)):
            assert np.array_equal(run_step(img, A._policy_step(op, level, ScriptedRng(draw))),
                                  fn(img, arg))

    def test_table_holds_the_policy_ops(self):
        assert set(A._POLICY_OPS) == {op for sub in A.CIFAR10_POLICY for op, _, _ in sub}


class TestPixelOps:
    def test_solarize_oracle(self):
        img = np.arange(256, dtype=np.uint8).reshape(1, 16, 16).repeat(3, axis=0)
        out = A.solarize(img, 128)
        below = img < 128
        assert np.array_equal(out[below], img[below])
        assert np.array_equal(out[~below], 255 - img[~below])

    def test_posterize_keeps_top_bits(self):
        img = np.array([[[0b10110111]]], dtype=np.uint8)
        assert A.posterize(img, 4)[0, 0, 0] == 0b10110000
        assert A.posterize(img, 8)[0, 0, 0] == 0b10110111

    def test_invert(self):
        img = rand_uint8(np.random.default_rng(12))
        assert np.array_equal(A.invert(A.invert(img)), img)

    def test_autocontrast_stretches_to_full_range(self):
        img = np.clip(rand_uint8(np.random.default_rng(13)), 50, 200)
        out = A.autocontrast(img)
        for c in range(3):
            assert out[c].min() == 0 and out[c].max() == 255

    def test_autocontrast_constant_unchanged(self):
        img = np.full((3, 8, 8), 77, np.uint8)
        assert np.array_equal(A.autocontrast(img), img)

    def test_equalize_flattens_histogram(self):
        rng = np.random.default_rng(14)
        # heavily skewed input: most mass near 0
        img = (rng.random((3, 32, 32)) ** 4 * 255).astype(np.uint8)
        out = A.equalize(img)
        assert out.mean() > img.mean()  # mass spread toward the high end

    def test_brightness_zero_is_black(self):
        img = rand_uint8(np.random.default_rng(15))
        assert np.all(A.brightness(img, 0.0) == 0)

    def test_enhance_factor_one_is_identity(self):
        img = rand_uint8(np.random.default_rng(16))
        for fn in (A.color, A.contrast, A.brightness, A.sharpness):
            assert np.array_equal(fn(img, 1.0), img)

    def test_sharpness_is_scipy_bitwise(self):
        # the numpy smoothing against ndimage's, at every factor the policy draws
        from scipy import ndimage
        rule = A._POLICY_OPS["sharpness"][1]
        factors = {rule(level / 9.0, ScriptedRng(draw)) for stage in A.CIFAR10_POLICY
                   for op, _, level in stage if op == "sharpness" for draw in (0.25, 0.75)}
        assert len(factors) == 10
        kernel = np.array([[1, 1, 1], [1, 5, 1], [1, 1, 1]], dtype=np.float64) / 13.0
        rng = np.random.default_rng(21)
        for i in range(1000):
            shape = (3, 32, 32) if i % 4 else (3, *rng.integers(1, 9, size=2))
            img = rand_uint8(rng, shape)
            smooth = np.stack([ndimage.convolve(ch.astype(np.float64), kernel, mode="nearest")
                               for ch in img])
            for factor in factors:
                assert np.array_equal(A.sharpness(img, factor), A._blend(smooth, img, factor))


class TestGeometry:
    def test_zero_magnitude_is_identity(self):
        img = rand_uint8(np.random.default_rng(17))
        assert np.array_equal(A.shear_y(img, 0.0), img)
        assert np.array_equal(A.translate_x(img, 0), img)
        assert np.array_equal(A.translate_y(img, 0), img)
        assert np.array_equal(A.rotate(img, 0.0), img)

    def test_translate_x_shifts_with_edge_clamp(self):
        img = rand_uint8(np.random.default_rng(18))
        out = A.translate_x(img, 3)
        assert np.array_equal(out[:, :, 3:], img[:, :, :-3])
        assert np.array_equal(out[:, :, :3], np.repeat(img[:, :, :1], 3, axis=2))

    def test_translate_y_shifts_with_edge_clamp(self):
        img = rand_uint8(np.random.default_rng(19))
        out = A.translate_y(img, -5)
        assert np.array_equal(out[:, :-5, :], img[:, 5:, :])

    def test_full_turn_is_identity(self):
        img = rand_uint8(np.random.default_rng(20))
        assert np.array_equal(A.rotate(img, 360.0), img)

    def test_rotation_preserves_center_pixel_for_odd_extent(self):
        img = rand_uint8(np.random.default_rng(21), (3, 33, 33))
        out = A.rotate(img, 30.0)
        assert np.array_equal(out[:, 16, 16], img[:, 16, 16])


# ---------------------------------------------------------------------------
# base augmentation pipeline

def augmented(img, count, base, rng):
    """`count` copies of one uint8 image through base augmentation `base`,
    without erasing: the draws of `count` images one after another."""
    plan = A.plan_batch(count, img.shape, base, 0.0, rng)
    return A.apply_plan(np.broadcast_to(img, (count, *img.shape)), plan)


def crops_of(img):
    """{normalized crop of the reflect-padded image, flipped or not, as bytes: (oy, ox, flipped)}."""
    h, w = img.shape[-2:]
    padded = np.pad(img, ((0, 0), (4, 4), (4, 4)), mode="reflect")
    return {D.normalize(np.ascontiguousarray(crop[:, :, ::-1] if flip else crop)).tobytes():
            (oy, ox, flip)
            for oy in range(9) for ox in range(9) for flip in (False, True)
            for crop in [padded[:, oy:oy + h, ox:ox + w]]}


class TestBaseAugment:
    def test_shape_and_dtype(self):
        rng = np.random.default_rng(22)
        out = augmented(rand_uint8(rng), 1, "autoaugment", rng)
        assert out.shape == (1, 3, 32, 32) and out.dtype == np.float32

    def test_crop_offsets_cover_grid(self):
        # without AA, the output is a crop of the reflect-padded image, flipped
        # or not; all 81 offsets should show up over 1000 draws
        img = rand_uint8(np.random.default_rng(23))
        crops = crops_of(img)
        out = augmented(img, 1000, "crop_flip", np.random.default_rng(24))
        offsets = {crops[image.tobytes()][:2] for image in out}
        assert len(offsets) == 81

    def test_flip_rate_near_half(self):
        img = rand_uint8(np.random.default_rng(25))
        crops = crops_of(img)
        out = augmented(img, 1000, "crop_flip", np.random.default_rng(26))
        flips = sum(crops[image.tobytes()][2] for image in out)
        assert 440 <= flips <= 560

    def test_deterministic_under_seed(self):
        img = rand_uint8(np.random.default_rng(27))
        a = augmented(img, 1, "autoaugment", np.random.default_rng(5))
        b = augmented(img, 1, "autoaugment", np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            A.AugmentConfig(erase_prob=1.5).validate()
        with pytest.raises(ValueError):
            A.AugmentConfig(label_smoothing=1.0).validate()
        with pytest.raises(ValueError):
            A.AugmentConfig(repeated_factor=0).validate()
        A.AugmentConfig().validate()
        assert A.AugmentConfig.disabled().label_smoothing == 0.0


# ---------------------------------------------------------------------------
# a batch's plan and its grouped apply

def varied_uint8(rng, n, shape=(3, 32, 32)):
    """Noise images, with some narrow-range, flat-channel and saturated ones,
    so autocontrast, equalize and solarize take each of their paths."""
    images = rng.integers(0, 256, (n, *shape), dtype=np.uint8)
    images[::3] = images[::3] // 16 + 120
    images[1::5, 0] = 7
    images[2::7, :, : shape[1] // 2] = 255
    return images


def one_image(image, crop, flip, steps, erasure):
    """What the plan makes of one image, by the one-image calls: the crop of
    the reflect-padded image, the flip, each stage's public op, normalize,
    and the erasure's fill."""
    h, w = image.shape[-2:]
    out = image
    if crop is not None:
        padded = np.pad(image, ((0, 0), (4, 4), (4, 4)), mode="reflect")
        out = padded[:, crop[0]:crop[0] + h, crop[1]:crop[1] + w]
        out = np.ascontiguousarray(out[:, :, ::-1] if flip else out)
    for op, arg in (step for step in steps if step is not None):
        out = getattr(A, op)(out) if arg is None else getattr(A, op)(out, arg)
    out = D.normalize(out)
    if erasure is not None:
        y, x, noise = erasure
        out = out.copy()
        out[:, y:y + noise.shape[1], x:x + noise.shape[2]] = noise.astype(out.dtype)
    return out


class TestBatchPlan:
    def test_grouped_apply_is_the_one_image_apply(self):
        # every sub-policy with both stages forced on, at each pair of signs,
        # twice over (other pixels), in a shuffled batch: each (op, argument)
        # group mixes sub-policies and images
        rng = np.random.default_rng(30)
        steps = [tuple(A._policy_step(op, level, ScriptedRng(draw)) for (op, _, level), draw
                       in zip(sub, draws))
                 for sub in A.CIFAR10_POLICY
                 for draws in ((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75))] * 2
        steps = [steps[i] for i in rng.permutation(len(steps))]
        n = len(steps)
        raws = varied_uint8(rng, n)
        plan = A.BatchPlan(rng.integers(0, 9, (n, 2)), rng.random(n) < 0.5,
                           [list(stage) for stage in zip(*steps)],
                           [A._plan_erase((3, 32, 32), 0.5, rng) for _ in range(n)])
        assert sum(e is not None for e in plan.erasures) > n // 4
        assert len({step for stage in plan.stages for step in stage}) > 30
        batch = A.apply_plan(raws, plan)
        assert batch.dtype == np.float32
        for i in range(n):
            assert np.array_equal(batch[i], one_image(raws[i], plan.crops[i], plan.flips[i],
                                                      steps[i], plan.erasures[i])), steps[i]

    @pytest.mark.parametrize("base", ["none", "crop_flip", "autoaugment"])
    def test_planned_batch_is_the_one_image_apply(self, base):
        rng = np.random.default_rng(31)
        raws = varied_uint8(rng, 40)
        plan = A.plan_batch(40, (3, 32, 32), base, 0.5, np.random.default_rng(32))
        batch = A.apply_plan(raws, plan)
        for i in range(40):
            crop, flip = (None, None) if base == "none" else (plan.crops[i], plan.flips[i])
            steps = [stage[i] for stage in plan.stages]
            assert np.array_equal(batch[i], one_image(raws[i], crop, flip, steps,
                                                      plan.erasures[i]))

    @pytest.mark.parametrize("shape", [(3, 4, 4), (3, 5, 7), (3, 32, 32)])
    def test_crop_is_a_window_of_the_reflect_padded_image(self, shape):
        # the draws without a policy, image by image: two offsets, then the flip
        img = rand_uint8(np.random.default_rng(33), shape)
        padded = np.pad(img, ((0, 0), (4, 4), (4, 4)), mode="reflect")
        ours = augmented(img, 50, "crop_flip", np.random.default_rng(34))
        theirs = np.random.default_rng(34)
        for out in ours:
            oy, ox = int(theirs.integers(0, 9)), int(theirs.integers(0, 9))
            crop = padded[:, oy:oy + shape[1], ox:ox + shape[2]]
            want = crop[:, :, ::-1] if theirs.random() < 0.5 else crop
            assert np.array_equal(out, D.normalize(want))

    def test_plan_reads_no_pixel(self):
        # the plan takes the shape alone, and makes no draw for base "none"
        # without erasing
        rng = np.random.default_rng(35)
        before = rng.bit_generator.state
        plan = A.plan_batch(8, (3, 32, 32), "none", 0.0, rng)
        assert rng.bit_generator.state == before
        assert plan.crops is None and plan.erasures == [None] * 8
        assert plan.stages == [[None] * 8, [None] * 8]
