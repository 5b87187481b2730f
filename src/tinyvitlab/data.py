"""CIFAR-10 binary ingestion, normalization, synthetic datasets, checkpoints."""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tinyvitlab.model import PATCH_SIZE
from tinyvitlab.tensor import Tensor

CIFAR10_MEAN = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32)
CIFAR10_STD = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32)

CIFAR10_CLASSES = 10
RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
TEST_FILES = ["test_batch.bin"]


class DataError(Exception):
    """Malformed or missing dataset input."""


class CheckpointError(Exception):
    """Malformed or incompatible checkpoint file."""


@dataclass
class Dataset:
    images: np.ndarray  # uint8 [N,3,32,32], raw pixel bytes
    labels: np.ndarray  # int64 [N]
    split: str
    name: str

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError("image/label count mismatch")

    def __len__(self) -> int:
        return len(self.labels)


def load_cifar10(data_dir: str | Path, split: str) -> Dataset:
    """Read the standard CIFAR-10 binary batch files.

    Each 3073-byte record is one label byte followed by the R, G, B planes
    row-major. Raises DataError naming file and byte offset on truncation
    or out-of-range labels.
    """
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    data_dir = Path(data_dir)
    files = TRAIN_FILES if split == "train" else TEST_FILES
    images, labels = [], []
    for name in files:
        path = data_dir / name
        if not path.is_file():
            raise DataError(f"missing CIFAR-10 batch file: {path}")
        raw = path.read_bytes()
        if len(raw) == 0 or len(raw) % RECORD_BYTES != 0:
            raise DataError(f"{path}: truncated at byte {len(raw)} "
                            f"(length not a multiple of {RECORD_BYTES})")
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
        lbl = arr[:, 0].astype(np.int64)
        bad = np.flatnonzero(lbl >= CIFAR10_CLASSES)
        if bad.size:
            off = int(bad[0]) * RECORD_BYTES
            raise DataError(f"{path}: label byte {int(lbl[bad[0]])} > {CIFAR10_CLASSES - 1} "
                            f"at offset {off}")
        images.append(arr[:, 1:].reshape(-1, 3, 32, 32))
        labels.append(lbl)
    return Dataset(np.concatenate(images), np.concatenate(labels), split, "cifar10")


def normalize(raw: np.ndarray) -> np.ndarray:
    """uint8 pixels [...,3,H,W] -> float32, x/255 then per-channel (x-mean)/std."""
    x = raw.astype(np.float32)
    shape = (3, 1, 1) if x.ndim >= 3 else (3,)
    x /= 255.0
    x -= CIFAR10_MEAN.reshape(shape)
    x /= CIFAR10_STD.reshape(shape)
    return x


def subset_per_class(ds: Dataset, per_class: int, num_classes: int) -> Dataset:
    """Deterministic first-K-per-class subset (reproducible small runs)."""
    keep = []
    counts = [0] * num_classes
    for i, lbl in enumerate(ds.labels):
        if counts[lbl] < per_class:
            counts[lbl] += 1
            keep.append(i)
        if all(c >= per_class for c in counts):
            break
    idx = np.array(keep)
    return Dataset(ds.images[idx], ds.labels[idx], ds.split, f"{ds.name}-sub{per_class}")


def synthetic_dataset(kind: str, n: int, seed: int, image_size: int = 32) -> Dataset:
    """Deterministic desk-scale datasets.

    two-class-blobs: per-class channel means separated by 2 sigma of pixel
    noise, linearly separable. striped-patches: class = orientation of a
    patch-aligned band pattern; each patch is uniform, so the classes differ
    only in patch arrangement and need positional information to separate.
    Its two band levels, 96 and 224, lie asymmetrically about the CIFAR-10
    channel means (114-125 of 255), so the two patch kinds do not normalize
    to mirror images. Mirror-image kinds (64 and 192) give tokens +-u after
    layer norm, whose Jacobian is even in u: the loss is then flat in the
    positional table at init, and whether a learnable table leaves chance
    is seed luck.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % 2
    if kind == "two-class-blobs":
        means = np.array([[96.0, 112.0, 96.0], [160.0, 144.0, 160.0]])
        mu = means[labels][:, :, None, None]
        noise = rng.normal(0.0, 16.0, size=(n, 3, image_size, image_size))
        images = np.clip(mu + noise, 0, 255).astype(np.uint8)
    elif kind == "striped-patches":
        grid = image_size // PATCH_SIZE
        images = np.empty((n, 3, image_size, image_size), dtype=np.uint8)
        lo, hi = 96.0, 224.0
        for i in range(n):
            # fixed band phase: both classes still share the same patch
            # multiset, but patch brightness at a fixed off-diagonal grid
            # position separates them, so the task stays learnable
            bands = (np.arange(grid) % 2).astype(np.float64)
            level = np.where(bands > 0, hi, lo)
            band = np.repeat(level, PATCH_SIZE)  # one value per pixel row/column
            if labels[i] == 0:  # horizontal bands
                img = np.tile(band[:, None], (1, image_size))
            else:               # vertical bands
                img = np.tile(band[None, :], (image_size, 1))
            noisy = img[None, :, :] + rng.normal(0.0, 12.0, size=(3, image_size, image_size))
            images[i] = np.clip(noisy, 0, 255).astype(np.uint8)
    else:
        raise ValueError(f"unknown synthetic dataset kind {kind!r}")
    return Dataset(images, labels, "train", f"synthetic-{kind}")


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout: an uncompressed numpy .npz (zip) archive. Member "header" holds
# the UTF-8 JSON header as uint8 with a "version" field; members
# "params/<path>" and "optim/<key>" hold float32 tensors. zipfile checks a
# CRC-32 per member on read; the zip directory has no checksum, so the
# header also lists the tensor members. Version-1 files (the "TVLB"
# container) cannot be read.
#
# A load reads and checks every member, but keeps only the params arrays:
# of each optim member (the AdamW moments, twice the params' bytes) it keeps
# the shape and the zip CRC-32. Only a resume reads the moments' values,
# which come from the file again on first access; a file that changed since
# the load is refused then. `tinyvitlab eval` never holds them.

VERSION = 2
_HEADER_FIELDS = {"version": int, "model_config": dict, "train_config": dict,
                  "optim": (dict, type(None)), "rng_state": dict, "epoch": int,
                  "members": list}
_READ_ERRORS = (OSError, EOFError, KeyError, ValueError, NotImplementedError,
                RuntimeError, zipfile.BadZipFile, zlib.error)


@dataclass
class Checkpoint:
    model_config: dict
    train_config: dict
    params: dict[str, np.ndarray]
    optim_meta: dict | None
    optim_arrays: Mapping[str, np.ndarray]   # a _Moments: read on first value access
    rng_state: dict
    epoch: int


def _open(path: str | Path) -> np.lib.npyio.NpzFile:
    archive = np.load(path, allow_pickle=False)
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path}: not an .npz archive")
    return archive


def _member(path: str | Path, archive: np.lib.npyio.NpzFile, name: str) -> tuple[np.ndarray, int]:
    """Member `name` as a float32 array, which zipfile checked against its
    CRC-32 on the read, and that CRC-32."""
    # a member without an .npy header comes back as raw bytes
    arr = archive[name]
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float32:
        raise CheckpointError(f"{path}: member {name!r} is not a float32 array")
    try:   # np.load looks a name up as is first, then with ".npy"
        info = archive.zip.getinfo(name)
    except KeyError:
        info = archive.zip.getinfo(f"{name}.npy")
    return arr, info.CRC


class _Moments(Mapping):
    """A loaded checkpoint's optimizer arrays by key, read-only. Keys and len
    read nothing. The first value access reads every array from the file in
    one pass and keeps them, writable float32; a member whose CRC-32 or
    shape differs from the one recorded at load raises CheckpointError,
    because the file changed since the load."""

    def __init__(self, path: str | Path, recorded: dict[str, tuple[tuple[int, ...], int]]):
        self._path = path
        self._recorded = recorded   # key -> (shape, CRC-32)
        self._arrays: dict[str, np.ndarray] | None = None

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self._recorded:
            raise KeyError(key)
        if self._arrays is None:
            self._arrays = self._read()
        return self._arrays[key]

    def __contains__(self, key) -> bool:   # Mapping's would read the values
        return key in self._recorded

    def __iter__(self) -> Iterator[str]:
        return iter(self._recorded)

    def __len__(self) -> int:
        return len(self._recorded)

    def _read(self) -> dict[str, np.ndarray]:
        arrays = {}
        try:
            with _open(self._path) as archive:
                for key, recorded in self._recorded.items():
                    name = f"optim/{key}"
                    if name not in archive.files:
                        raise CheckpointError(f"{self._path}: member {name!r} is gone "
                                              "since the checkpoint was loaded")
                    arr, crc = _member(self._path, archive, name)
                    if (arr.shape, crc) != recorded:
                        raise CheckpointError(f"{self._path}: member {name!r} changed "
                                              "since the checkpoint was loaded")
                    arrays[key] = arr
        except _READ_ERRORS as exc:
            raise CheckpointError(f"{self._path}: unreadable checkpoint: {exc}") from exc
        return arrays


def temp_path(path: str | Path) -> Path:
    """The temp file save_checkpoint writes beside `path` and renames over it."""
    return Path(f"{path}.tmp")


def save_checkpoint(path: str | Path, *, params: dict, model_config: dict,
                    train_config: dict, optim_meta: dict | None = None,
                    optim_arrays: Mapping[str, np.ndarray] | None = None,
                    rng_state: dict | None = None, epoch: int = 0) -> None:
    """Write a checkpoint atomically: a temp file beside `path`, fsync and
    rename, so a crash leaves the previous file intact; then, on POSIX, fsync
    the directory, so a power loss cannot undo the rename. Every tensor must
    be float32."""
    members = {}
    for section, tensors in (("params", params), ("optim", optim_arrays or {})):
        for key, value in sorted(tensors.items()):
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            if arr.dtype != np.float32:
                raise CheckpointError(f"{section}/{key}: dtype {arr.dtype} is not float32")
            members[f"{section}/{key}"] = arr
    header = {"version": VERSION, "model_config": model_config,
              "train_config": train_config, "optim": optim_meta,
              "rng_state": rng_state or {}, "epoch": epoch, "members": sorted(members)}
    tmp = temp_path(path)
    try:
        # a file object, not a path: np.savez appends ".npz" to path strings
        with open(tmp, "wb") as f:
            np.savez(f, header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                     **members)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        if os.name == "posix":
            fd = os.open(tmp.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; any malformed, corrupt or truncated file raises
    CheckpointError. Every member is read and checked, but only the params
    arrays are kept; the optimizer arrays are read again on first value
    access (see _Moments). Returned arrays are writable float32."""
    try:
        with _open(path) as archive:
            # a member without an .npy header comes back as raw bytes
            header = json.loads(bytes(archive["header"]))
            if not isinstance(header, dict):
                raise CheckpointError(f"{path}: header is not a JSON object")
            for name, kind in _HEADER_FIELDS.items():
                if name not in header or not isinstance(header[name], kind):
                    raise CheckpointError(f"{path}: header field {name!r} missing or ill-typed")
            if header["version"] != VERSION:
                raise CheckpointError(f"{path}: format version {header['version']} "
                                      f"is not the supported {VERSION}")
            if sorted(set(archive.files) - {"header"}) != header["members"]:
                raise CheckpointError(f"{path}: archive members differ from the header's list")
            params, moments = {}, {}
            for name in header["members"]:
                section, _, key = name.partition("/")
                if section not in ("params", "optim") or not key:
                    raise CheckpointError(f"{path}: unknown member {name!r}")
                arr, crc = _member(path, archive, name)
                if section == "params":
                    params[key] = arr
                else:
                    moments[key] = (arr.shape, crc)
    except _READ_ERRORS as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
    return Checkpoint(model_config=header["model_config"],
                      train_config=header["train_config"], params=params,
                      optim_meta=header["optim"],
                      optim_arrays=_Moments(os.path.abspath(path), moments),
                      rng_state=header["rng_state"], epoch=header["epoch"])
