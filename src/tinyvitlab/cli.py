"""Command-line interface: train, eval, bench, grad-check.

Every option defaults to its `TrainConfig()` value; a flat key=value config
file (# comments allowed) overrides that, and flags override the file. The
data directory defaults to the DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing
from pathlib import Path

import numpy as np

from tinyvitlab import augment as A
from tinyvitlab import data as D
from tinyvitlab import model as M
from tinyvitlab import train as TR
from tinyvitlab.tensor import Tensor, grad_check, cross_entropy


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


# Flag / config-file key -> TrainConfig field path. Defaults, types and the
# allowed values of a Literal field come from TrainConfig's annotations.
_OPTIONS = {
    "epochs": "epochs",
    "batch_size": "batch_size",
    "workers": "workers",
    "optimizer": "optimizer",
    "lr": "lr_peak",
    "lr_min": "lr_min",
    "warmup_epochs": "warmup_epochs",
    "weight_decay": "weight_decay",
    "eval_every": "eval_every",
    "seed": "seed",
    "subset_per_class": "subset_per_class",
    "mla": "model.mla.variant",
    "dc": "model.mla.d_c",
    "num_cls": "model.num_cls_tokens",
    "dim": "model.embed_dim",
    "heads": "model.num_heads",
    "depth": "model.depth",
    "pos_embed": "model.pos_embed",
    "patch_init": "model.patch_init",
    "drop_path": "model.drop_path_rate",
    "base_augment": "augment.base_augment",
    "mixup": "augment.use_mixup",
    "cutmix": "augment.use_cutmix",
    "erase_prob": "augment.erase_prob",
    "label_smoothing": "augment.label_smoothing",
    "repeated_factor": "augment.repeated_factor",
}


def _field(cfg: TR.TrainConfig, key: str) -> tuple[object, str]:
    """The (config object, field name) that option `key` sets inside cfg."""
    *owners, name = _OPTIONS[key].split(".")
    for owner in owners:
        cfg = getattr(cfg, owner)
    return cfg, name


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected a bool (1/true/yes or 0/false/no), got {raw!r}")
    return raw.lower() in ("1", "true", "yes")


def _value_type(key: str):
    """(parser, allowed values or None) of option `key`, from the annotation
    of the field it sets: a Literal field takes one of its values."""
    owner, name = _field(TR.TrainConfig(), key)
    hint = typing.get_type_hints(type(owner))[name]
    if typing.get_origin(hint) is typing.Literal:
        return str, typing.get_args(hint)
    kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    return (_parse_bool if kind is bool else kind), None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; CLI flags override")
    p.add_argument("--data-dir", default=None, help="CIFAR-10 binary dir (default: $DATA_DIR)")
    defaults = TR.TrainConfig()
    for key, path in _OPTIONS.items():
        owner, name = _field(defaults, key)
        parse, choices = _value_type(key)
        p.add_argument("--" + key.replace("_", "-"), type=parse, choices=choices, default=None,
                       help=f"{path} (default: {getattr(owner, name)})")
    p.add_argument("--out", default="out")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")


def train_config(args: argparse.Namespace) -> TR.TrainConfig:
    """TrainConfig() overridden by the config file, then by CLI flags, and
    validated: a bad value raises ValueError naming its field."""
    cfg = TR.TrainConfig()
    values = {}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r} (value {raw!r})")
            try:
                values[key] = _value_type(key)[0](raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    values.update({key: getattr(args, key) for key in _OPTIONS if getattr(args, key) is not None})
    for key, value in values.items():
        setattr(*_field(cfg, key), value)
    cfg.validate()
    return cfg


def _data_dir(args) -> Path:
    path = args.data_dir or os.environ.get("DATA_DIR")
    if not path:
        raise SystemExit("no data directory: pass --data-dir or set DATA_DIR")
    return Path(path)


def cmd_train(args, cfg: TR.TrainConfig) -> int:
    data_dir = _data_dir(args)
    train_ds = D.load_cifar10(data_dir, "train")
    test_ds = D.load_cifar10(data_dir, "test")
    result = TR.train(cfg, train_ds, test_ds, args.out, resume=args.resume)
    print(f"final: {result.final.line()}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _config_fields(cls, saved, where: str) -> dict:
    """Checkpoint dict `saved` as keyword arguments for dataclass `cls`;
    CheckpointError names any missing or unknown field."""
    if not isinstance(saved, dict):
        raise D.CheckpointError(f"checkpoint {where} is not a dict: {saved!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    missing, unknown = sorted(names - saved.keys()), sorted(saved.keys() - names)
    if missing or unknown:
        raise D.CheckpointError(f"checkpoint {where}: missing fields {missing}, "
                                f"unknown fields {unknown}")
    return dict(saved)


def cmd_eval(args, _cfg: TR.TrainConfig) -> int:
    if not args.resume:
        raise SystemExit("eval needs --resume <checkpoint>")
    ckpt = D.load_checkpoint(args.resume)
    saved = _config_fields(M.ModelConfig, ckpt.model_config, "model_config")
    saved["mla"] = M.MlaConfig(**_config_fields(M.MlaConfig, saved["mla"], "model_config.mla"))
    try:
        cfg = M.ModelConfig(**saved)
    except M.ConfigError as exc:   # out of range, of the wrong type, or not allowed
        raise D.CheckpointError(f"checkpoint model_config is not a valid model: {exc}") from None
    TR.check_params(ckpt.params, cfg)
    params = {k: Tensor(v, requires_grad=True) for k, v in sorted(ckpt.params.items())}
    test_ds = D.load_cifar10(_data_dir(args), "test")
    acc = TR.evaluate(cfg, params, test_ds)
    print(f"val_acc={acc:.4f} n={len(test_ds)}")
    return 0


def _batch_sizes(raw: str) -> list[int]:
    """argparse type for --sizes: comma-separated positive ints."""
    sizes = [int(s) if s.strip().isdecimal() else 0 for s in raw.split(",")]
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated positive ints, got {raw!r}")
    return sizes


def cmd_bench(args, run: TR.TrainConfig) -> int:
    """Print the model's parameter counts on one `params` line, then profile
    run's training step and batch build per batch size, one `bs=` line each;
    all lines go to stdout and bench.log. train_images_per_sec counts both
    the step (total_ms) and the build (batch_ms). The params are drawn with
    a random patch init even under whitening, which changes only that
    matrix's initial values, not what a step costs."""
    cfg = run.model
    rng = np.random.default_rng(run.seed)
    params = M.init_params(dataclasses.replace(cfg, patch_init="random"), rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = {**M.param_count(params), "attention_per_layer": M.attention_params_per_layer(cfg)}
    with open(out / "bench.log", "a") as log:
        line = "params " + " ".join(f"{group}={n}" for group, n in counts.items())
        print(line)
        log.write(line + "\n")
        for bs in args.sizes:
            images = rng.standard_normal((bs, 3, cfg.image_size, cfg.image_size), np.float32)
            targets = np.full((bs, cfg.num_classes), 1.0 / cfg.num_classes, np.float32)
            p = TR.profile_step(run, params, A.SoftBatch(images, targets))
            batch_ms = TR.profile_batches(run, bs)
            line = (f"bs={bs} forward_ms={p.forward_ms:.2f} backward_ms={p.backward_ms:.2f} "
                    f"optim_ms={p.optim_ms:.2f} total_ms={p.total_ms:.2f} batch_ms={batch_ms:.2f} "
                    f"train_images_per_sec={1000.0 * bs / (p.total_ms + batch_ms):.2f} "
                    f"eval_images_per_sec={1000.0 * bs / p.eval_ms:.2f}")
            print(line)
            log.write(line + "\n")
    return 0


def cmd_grad_check(args, run: TR.TrainConfig) -> int:
    """Finite-difference check of the float64 gradients of a small model of
    run's MLA variant, CLS count and positional table, in eval mode and in
    train mode. Its depth of 2 checks one full block and one pruned block:
    the last block computes only the CLS rows. A frozen table (sinusoidal
    or zero) is an input without a gradient. run's patch_init stays unused:
    it changes only the initial values, and the check runs at its own
    random point."""
    cfg = M.ModelConfig(
        image_size=16, embed_dim=32, num_heads=4, depth=2,
        num_cls_tokens=run.model.num_cls_tokens, pos_embed=run.model.pos_embed,
        drop_path_rate=0.5,
        mla=M.MlaConfig(variant=run.model.mla.variant, d_c=min(run.model.mla.d_c, 8)))
    rng = np.random.default_rng(run.seed)
    # well-conditioned 64-bit verification point; training-scale init leaves
    # many gradients below finite-difference noise
    params = M.grad_check_point(cfg, rng)
    images = Tensor(rng.standard_normal((4, 3, 16, 16)), dtype=np.float64)
    targets = np.full((4, cfg.num_classes), 0.1, dtype=np.float64)
    worst = 0.0
    for mode in ("eval", "train"):
        def f():   # a fresh rng per call: train mode draws the same drop-path masks each time
            return cross_entropy(M.forward(cfg, params, images, mode=mode,
                                           rng=np.random.default_rng(run.seed)), targets)

        err = grad_check(f, list(params.values()), h=1e-5, max_coords=5,
                         rng=np.random.default_rng(1))
        print(f"{mode}: max_relative_error_above_rounding_floor={err:.3e}")
        worst = max(worst, err)
    return 0 if worst < 1e-4 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tinyvitlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("train", cmd_train), ("eval", cmd_eval),
                     ("bench", cmd_bench), ("grad-check", cmd_grad_check)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
        if name == "bench":
            p.add_argument("--sizes", type=_batch_sizes, default="32",
                           help="comma-separated batch sizes, one profiled step each")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = train_config(args)
    except (OSError, ValueError) as exc:   # an unreadable --config file or a bad value
        parser.error(f"--config: {exc}" if args.config else str(exc))
    if args.command == "bench" and (odd := [bs for bs in args.sizes if bs % cfg.workers]):
        parser.error(f"--sizes: batch sizes {odd} not divisible by workers {cfg.workers}")
    return args.fn(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
