"""Dataset ingestion, normalization, synthetic data, checkpoint format and
its fault handling."""

import json
import os
import stat
import tracemalloc
import zipfile

import numpy as np
import pytest

from tinyvitlab import data as D


def write_batch(path, labels, pixel_fn=None):
    """Write a CIFAR-10 style binary batch with recognizable pixel bytes."""
    records = bytearray()
    for i, lbl in enumerate(labels):
        records.append(lbl)
        if pixel_fn is None:
            pixels = np.full(3072, i % 256, dtype=np.uint8)
        else:
            pixels = pixel_fn(i)
        records.extend(pixels.tobytes())
    path.write_bytes(bytes(records))


def make_data_dir(tmp_path, n_train=4, n_test=2):
    rng = np.random.default_rng(0)
    pixels = {}

    def pf(i):
        key = len(pixels)
        pixels[key] = rng.integers(0, 256, 3072, dtype=np.uint8)
        return pixels[key]

    for name in D.TRAIN_FILES:
        write_batch(tmp_path / name, [i % 10 for i in range(n_train)], pf)
    for name in D.TEST_FILES:
        write_batch(tmp_path / name, [i % 10 for i in range(n_test)], pf)
    return tmp_path


class TestLoadCifar10:
    def test_round_trip_bytes_and_planes(self, tmp_path):
        # unique byte per position: verifies the label byte, plane order,
        # and row-major layout all land where expected
        pixels = np.arange(3072, dtype=np.uint16).astype(np.uint8)
        write_batch(tmp_path / "test_batch.bin", [7], lambda i: pixels)
        ds = D.load_cifar10(tmp_path, "test")
        assert len(ds) == 1 and ds.labels[0] == 7
        assert ds.images.shape == (1, 3, 32, 32)
        # red plane first, row-major within each plane
        assert np.array_equal(ds.images[0].reshape(-1), pixels)
        assert ds.images[0, 0, 0, 5] == pixels[5]
        assert ds.images[0, 1, 0, 0] == pixels[1024]
        assert ds.images[0, 2, 1, 0] == pixels[2048 + 32]

    def test_train_concatenates_five_files(self, tmp_path):
        make_data_dir(tmp_path, n_train=3)
        ds = D.load_cifar10(tmp_path, "train")
        assert len(ds) == 15 and ds.split == "train"

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(D.DataError, match="data_batch_1.bin"):
            D.load_cifar10(tmp_path, "train")

    def test_truncated_file_names_offset(self, tmp_path):
        (tmp_path / "test_batch.bin").write_bytes(b"\x00" * (D.RECORD_BYTES + 100))
        with pytest.raises(D.DataError, match="truncated at byte 3173"):
            D.load_cifar10(tmp_path, "test")

    def test_bad_label_names_offset(self, tmp_path):
        write_batch(tmp_path / "test_batch.bin", [3, 12])
        with pytest.raises(D.DataError, match=r"label byte 12 > 9 at offset 3073"):
            D.load_cifar10(tmp_path, "test")

    def test_unknown_split(self, tmp_path):
        with pytest.raises(ValueError):
            D.load_cifar10(tmp_path, "val")


class TestNormalize:
    def test_channel_constants(self):
        raw = np.zeros((3, 2, 2), dtype=np.uint8)
        out = D.normalize(raw)
        expected = -D.CIFAR10_MEAN / D.CIFAR10_STD
        assert np.allclose(out[:, 0, 0], expected, atol=1e-6)

    def test_round_trip_uint8(self):
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, (5, 3, 32, 32), dtype=np.uint8)
        back = D.normalize(raw) * D.CIFAR10_STD.reshape(3, 1, 1) + D.CIFAR10_MEAN.reshape(3, 1, 1)
        assert np.array_equal(np.clip(np.rint(back * 255.0), 0, 255).astype(np.uint8), raw)

    def test_batched_and_single(self):
        raw = np.full((3, 4, 4), 128, np.uint8)
        single = D.normalize(raw)
        batched = D.normalize(raw[None])[0]
        assert np.array_equal(single, batched)


class TestSubset:
    def test_first_k_per_class(self):
        labels = np.array([0, 1, 0, 0, 1, 1, 0, 1], dtype=np.int64)
        images = np.arange(8, dtype=np.uint8)[:, None, None, None] * np.ones(
            (8, 3, 2, 2), np.uint8)
        ds = D.Dataset(images, labels, "train", "t")
        sub = D.subset_per_class(ds, 2, num_classes=2)
        assert list(sub.labels) == [0, 1, 0, 1]
        assert [int(im[0, 0, 0]) for im in sub.images] == [0, 1, 2, 4]

    def test_deterministic(self):
        ds = D.synthetic_dataset("two-class-blobs", 40, seed=3)
        a = D.subset_per_class(ds, 5, num_classes=2)
        b = D.subset_per_class(ds, 5, num_classes=2)
        assert np.array_equal(a.images, b.images)


class TestSynthetic:
    def test_blobs_linearly_separable_by_mean(self):
        ds = D.synthetic_dataset("two-class-blobs", 100, seed=4)
        means = ds.images.reshape(100, -1).mean(axis=1)
        thresh = (means[ds.labels == 0].max() + means[ds.labels == 1].min()) / 2
        pred = (means > thresh).astype(int)
        assert np.mean(pred == ds.labels) == 1.0

    def test_striped_patches_share_patch_statistics(self):
        # both classes must look identical once patch positions are discarded
        ds = D.synthetic_dataset("striped-patches", 200, seed=5)
        patch_means = {0: [], 1: []}
        for img, lbl in zip(ds.images, ds.labels):
            for py in range(8):
                for px in range(8):
                    block = img[:, py * 4:(py + 1) * 4, px * 4:(px + 1) * 4]
                    patch_means[int(lbl)].append(block.mean())
        m0 = np.sort(patch_means[0])
        m1 = np.sort(patch_means[1])
        n = min(len(m0), len(m1))
        q0 = np.quantile(m0, [0.25, 0.5, 0.75])
        q1 = np.quantile(m1, [0.25, 0.5, 0.75])
        assert np.allclose(q0, q1, atol=3.0)

    def test_striped_patches_band_structure(self):
        ds = D.synthetic_dataset("striped-patches", 50, seed=6)
        for img, lbl in zip(ds.images, ds.labels):
            rows = img[0].astype(float).mean(axis=1)
            cols = img[0].astype(float).mean(axis=0)
            row_spread = np.abs(np.diff(rows.reshape(8, 4).mean(axis=1))).mean()
            col_spread = np.abs(np.diff(cols.reshape(8, 4).mean(axis=1))).mean()
            if lbl == 0:
                assert row_spread > col_spread  # horizontal bands
            else:
                assert col_spread > row_spread

    def test_deterministic_by_seed(self):
        a = D.synthetic_dataset("striped-patches", 10, seed=7)
        b = D.synthetic_dataset("striped-patches", 10, seed=7)
        c = D.synthetic_dataset("striped-patches", 10, seed=8)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            D.synthetic_dataset("moons", 10, seed=0)


def write_archive(path, header, **members):
    """Write an .npz with a raw header and members, bypassing save_checkpoint."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    with open(path, "wb") as f:
        np.savez(f, header=np.frombuffer(blob, np.uint8), **members)


class TestCheckpoint:
    @staticmethod
    def sample(tmp_path, **overrides):
        rng = np.random.default_rng(9)
        kwargs = dict(
            params={"w.weight": rng.standard_normal((3, 4)).astype(np.float32),
                    "w.bias": rng.standard_normal(4).astype(np.float32)},
            model_config={"embed_dim": 32},
            train_config={"epochs": 2},
            optim_meta={"kind": "adamw", "t": 5},
            optim_arrays={"m.w.weight": np.ones((3, 4), np.float32)},
            rng_state={"seed": 1, "next_epoch": 2},
            epoch=2)
        kwargs.update(overrides)
        path = tmp_path / "ckpt.bin"
        D.save_checkpoint(path, **kwargs)
        return path, kwargs

    @staticmethod
    def header(path):
        with np.load(path) as archive:
            return json.loads(archive["header"].tobytes().decode())

    def test_round_trip(self, tmp_path):
        path, kw = self.sample(tmp_path)
        ck = D.load_checkpoint(path)
        assert ck.epoch == 2 and ck.rng_state == kw["rng_state"]
        assert ck.model_config == kw["model_config"]
        assert ck.optim_meta == kw["optim_meta"]
        for k, v in kw["params"].items():
            assert np.array_equal(ck.params[k], v)
        assert np.array_equal(ck.optim_arrays["m.w.weight"], kw["optim_arrays"]["m.w.weight"])
        # the optimizer updates loaded parameters and moments in place
        for arr in [*ck.params.values(), *ck.optim_arrays.values()]:
            assert arr.dtype == np.float32 and arr.flags.writeable

    def test_payload_is_float32_le(self, tmp_path):
        path, _ = self.sample(tmp_path)
        with zipfile.ZipFile(path) as zf:
            names = sorted(zf.namelist())
            assert all(i.compress_type == zipfile.ZIP_STORED for i in zf.infolist())
        assert names == ["header.npy", "optim/m.w.weight.npy",
                         "params/w.bias.npy", "params/w.weight.npy"]
        with np.load(path) as archive:
            assert archive["header"].dtype == np.uint8
            assert archive["params/w.weight"].dtype.str == "<f4"
        assert self.header(path)["version"] == D.VERSION == 2

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"TVLB" + b"\x00" * 20)
        with pytest.raises(D.CheckpointError, match="unreadable"):
            D.load_checkpoint(p)

    def test_plain_npy_rejected(self, tmp_path):
        p = tmp_path / "x.npy"
        np.save(p, np.zeros(3, np.float32))
        with pytest.raises(D.CheckpointError, match="not an .npz archive"):
            D.load_checkpoint(p)

    def test_newer_version_rejected(self, tmp_path):
        path, _ = self.sample(tmp_path)
        write_archive(path, {**self.header(path), "version": 99})
        with pytest.raises(D.CheckpointError, match="version 99"):
            D.load_checkpoint(path)

    @pytest.mark.parametrize("field", ["version", "model_config", "train_config",
                                       "optim", "rng_state", "epoch", "members"])
    def test_missing_header_field(self, tmp_path, field):
        path, _ = self.sample(tmp_path)
        header = self.header(path)
        del header[field]
        write_archive(path, header)
        with pytest.raises(D.CheckpointError, match=f"field '{field}'"):
            D.load_checkpoint(path)

    def test_missing_header_member(self, tmp_path):
        path = tmp_path / "x.npz"
        with open(path, "wb") as f:
            np.savez(f, **{"params/w": np.zeros(2, np.float32)})
        with pytest.raises(D.CheckpointError, match="header"):
            D.load_checkpoint(path)

    @pytest.mark.parametrize("member,arr", [
        ("params/w", np.zeros(2, np.float64)),
        ("optim/m.w", np.zeros(2, np.int32)),
        ("extra/w", np.zeros(2, np.float32)),
        ("params", np.zeros(2, np.float32))])
    def test_bad_member_rejected(self, tmp_path, member, arr):
        path, _ = self.sample(tmp_path)
        write_archive(path, {**self.header(path), "members": [member]}, **{member: arr})
        with pytest.raises(D.CheckpointError, match="member '"):
            D.load_checkpoint(path)

    def test_member_without_npy_header(self, tmp_path):
        # np.load hands such a member back as raw bytes, not an array
        path, _ = self.sample(tmp_path)
        write_archive(path, {**self.header(path), "members": ["params/w"]})
        with zipfile.ZipFile(path, "a") as zf:
            zf.writestr("params/w.npy", b"not an array")
        with pytest.raises(D.CheckpointError, match="not a float32 array"):
            D.load_checkpoint(path)
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("header.npy", b"not json")
        with pytest.raises(D.CheckpointError, match="unreadable"):
            D.load_checkpoint(path)

    @pytest.mark.parametrize("section", ["params", "optim_arrays"])
    def test_float64_refused_on_save(self, tmp_path, section):
        with pytest.raises(D.CheckpointError, match="float64"):
            self.sample(tmp_path, **{section: {"w.weight": np.zeros((3, 4))}})
        assert list(tmp_path.iterdir()) == []

    def test_truncated_payload(self, tmp_path):
        path, _ = self.sample(tmp_path)
        raw = path.read_bytes()
        for cut in (0, 3, len(raw) // 4, len(raw) // 2, 3 * len(raw) // 4,
                    len(raw) - 22, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(D.CheckpointError):
                D.load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path, _ = self.sample(tmp_path)
        raw = path.read_bytes()
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("header.npy")
        assert info.header_offset == 0
        path.write_bytes(raw[:info.file_size // 2])  # inside the header member
        with pytest.raises(D.CheckpointError):
            D.load_checkpoint(path)

    @pytest.mark.parametrize("member", ["params/w.weight", "optim/m.w.weight", "header"])
    def test_flipped_payload_bit(self, tmp_path, member):
        path, _ = self.sample(tmp_path)
        raw = bytearray(path.read_bytes())
        with np.load(path) as archive:
            at = raw.find(archive[member].tobytes()) + 5
        raw[at] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(D.CheckpointError, match="CRC"):
            D.load_checkpoint(path)

    def test_every_bit_flip_is_caught_or_harmless(self, tmp_path):
        # the zip directory and local headers carry no checksum: a flip there
        # must still raise CheckpointError or leave the loaded content intact.
        # Bit 0 of every byte covers the zip "encrypted" flags.
        path, kw = self.sample(tmp_path)
        raw = path.read_bytes()
        for i, bit in ((i, bit) for i in range(len(raw)) for bit in {1, 1 << (i % 8)}):
            flipped = bytearray(raw)
            flipped[i] ^= bit
            path.write_bytes(bytes(flipped))
            try:
                ck = D.load_checkpoint(path)
            except D.CheckpointError:
                continue
            assert ck.epoch == kw["epoch"] and ck.optim_meta == kw["optim_meta"]
            assert ck.params.keys() == kw["params"].keys()
            assert ck.optim_arrays.keys() == kw["optim_arrays"].keys()
            for k, v in kw["params"].items():
                assert np.array_equal(ck.params[k], v)

    def test_member_missing_from_archive(self, tmp_path):
        path, kw = self.sample(tmp_path)
        write_archive(path, self.header(path), **{f"params/{k}": v for k, v
                                                  in kw["params"].items()})
        with pytest.raises(D.CheckpointError, match="members differ"):
            D.load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path, _ = self.sample(tmp_path)
        write_archive(path, b"{not json")
        with pytest.raises(D.CheckpointError, match="unreadable"):
            D.load_checkpoint(path)

    def test_crash_before_rename_keeps_previous(self, tmp_path, monkeypatch):
        path, kw = self.sample(tmp_path)
        before = path.read_bytes()

        class Crash(Exception):
            pass

        def crash(*args):
            raise Crash

        monkeypatch.setattr(D.os, "replace", crash)
        newer = {k: v + 1 for k, v in kw["params"].items()}
        with pytest.raises(Crash):
            self.sample(tmp_path, params=newer, epoch=3)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        ck = D.load_checkpoint(path)
        assert ck.epoch == 2
        for k, v in kw["params"].items():
            assert np.array_equal(ck.params[k], v)

    @pytest.mark.skipif(os.name != "posix", reason="directories are fsynced on POSIX only")
    def test_directory_fsynced_after_rename(self, tmp_path, monkeypatch):
        # without it, a power loss after the rename can bring back the old file
        events = []
        real_fsync, real_replace = D.os.fsync, D.os.replace

        def fsync(fd):
            st = os.fstat(fd)   # True: the checkpoint's directory
            events.append(("fsync", stat.S_ISDIR(st.st_mode)
                           and os.path.samestat(st, os.stat(tmp_path))))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.dirname(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(D.os, "fsync", fsync)
        monkeypatch.setattr(D.os, "replace", replace)
        self.sample(tmp_path)
        assert events == [("fsync", False), ("replace", str(tmp_path)), ("fsync", True)]

    def test_no_optimizer_section(self, tmp_path):
        path, _ = self.sample(tmp_path, optim_meta=None, optim_arrays=None)
        ck = D.load_checkpoint(path)
        assert ck.optim_meta is None and ck.optim_arrays == {}

    @staticmethod
    def adamw_sample(tmp_path):
        """A checkpoint whose m and v moments are twice its params' bytes."""
        rng = np.random.default_rng(11)
        params = {f"w{i}": rng.standard_normal((64, 256)).astype(np.float32) for i in range(8)}
        moments = {f"{kind}.{k}": rng.standard_normal(v.shape).astype(np.float32)
                   for kind in "mv" for k, v in params.items()}
        return TestCheckpoint.sample(tmp_path, params=params, optim_arrays=moments)

    def test_load_keeps_the_moments_on_disk(self, tmp_path):
        path, kw = self.adamw_sample(tmp_path)
        param_bytes = sum(v.nbytes for v in kw["params"].values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ck = D.load_checkpoint(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1.2 * param_bytes, (held, param_bytes)
        assert len(ck.optim_arrays) == 16 and "m.w0" in ck.optim_arrays

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="open files are listed on Linux only")
    def test_first_moment_access_reads_them_all(self, tmp_path):
        path, kw = self.adamw_sample(tmp_path)

        def open_on_path():
            return [fd for fd in os.listdir("/proc/self/fd")
                    if os.path.realpath(f"/proc/self/fd/{fd}") == str(path.resolve())]

        ck = D.load_checkpoint(path)
        assert open_on_path() == []
        assert ck.optim_arrays.keys() == kw["optim_arrays"].keys()
        for k, v in kw["optim_arrays"].items():
            arr = ck.optim_arrays[k]
            assert arr.dtype == np.float32 and arr.flags.writeable and np.array_equal(arr, v)
        assert open_on_path() == []
        path.unlink()   # read once: later accesses hand back the same arrays
        assert all(ck.optim_arrays[k] is arr for k, arr in ck.optim_arrays.items())

    def test_moments_of_a_replaced_file_are_refused(self, tmp_path):
        path, kw = self.sample(tmp_path)
        ck = D.load_checkpoint(path)
        self.sample(tmp_path, optim_arrays={"m.w.weight": np.zeros((3, 4), np.float32)})
        assert list(ck.optim_arrays) == ["m.w.weight"] and len(ck.optim_arrays) == 1
        with pytest.raises(D.CheckpointError, match="member 'optim/m.w.weight' changed"):
            ck.optim_arrays["m.w.weight"]
        self.sample(tmp_path, optim_arrays={"m.w.weight": np.ones((4, 3), np.float32)})
        with pytest.raises(D.CheckpointError, match="member 'optim/m.w.weight' changed"):
            ck.optim_arrays["m.w.weight"]
        self.sample(tmp_path, optim_arrays={"m.other": np.ones((3, 4), np.float32)})
        with pytest.raises(D.CheckpointError, match="member 'optim/m.w.weight' is gone"):
            ck.optim_arrays["m.w.weight"]
        path.unlink()
        with pytest.raises(D.CheckpointError, match="unreadable"):
            ck.optim_arrays["m.w.weight"]
        self.sample(tmp_path)   # the file as it was at the load
        assert np.array_equal(ck.optim_arrays["m.w.weight"], kw["optim_arrays"]["m.w.weight"])


def test_dataset_length_mismatch_rejected():
    with pytest.raises(D.DataError):
        D.Dataset(np.zeros((3, 3, 2, 2), np.uint8), np.zeros(2, np.int64), "train", "x")
