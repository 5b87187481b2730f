"""The package's runtime dependencies stay numpy and scipy, a float32 run
loads no compiled scipy module, and no public code is left without a caller."""

import ast
import subprocess
import sys
from pathlib import Path

import tinyvitlab


def imported_modules(path: Path) -> set[str]:
    """The top-level module of every import statement in `path`, wherever
    it stands (a function-level import counts too); a relative import is
    the package's own."""
    tops = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            tops.add("tinyvitlab" if node.level else node.module.split(".")[0])
    return tops


def used_names(path: Path) -> set[str]:
    """Every name `path` uses as code: Name ids and Attribute attrs. Strings,
    docstrings and the names that def and class statements bind do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Name, ast.Attribute))}


def public_definitions(path: Path) -> list[str]:
    """The public top-level functions and classes of `path`, and the public
    methods of its classes, as "name" or "Class.method"."""
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


# public code that neither src/ nor perfbench/ calls, each with its reason
UNCALLED = {
    "synthetic_dataset": "the acceptance criteria's desk-scale data",
    "AugmentConfig.disabled": "the library's normalize-only pipeline (README), "
                              "the ablation baseline the tests build",
}


def test_every_public_definition_has_a_caller():
    """Every public top-level function or class of src/, and every public
    method, is used as code somewhere in src/ or perfbench/, or is in
    UNCALLED. A use is matched by name alone, so a function that shares its
    name with a config field or another attribute escapes the check: a
    base_augment function would pass on AugmentConfig.base_augment's uses."""
    sources = sorted(Path(tinyvitlab.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert sources and bench
    used = set().union(*map(used_names, sources + bench))
    uncalled = {name for p in sources for name in public_definitions(p)
                if name.rsplit(".", 1)[-1] not in used}
    assert uncalled == set(UNCALLED)


def test_imports_only_stdlib_numpy_and_scipy():
    # the source is read, not sys.modules: importing scipy loads modules
    # that numpy imports optionally, which the package does not need
    sources = sorted(Path(tinyvitlab.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"tensor.py", "model.py", "train.py", "cli.py"}
    allowed = {"numpy", "scipy", "tinyvitlab"} | set(sys.stdlib_module_names)
    outside = {p.name: sorted(imported_modules(p) - allowed) for p in sources}
    assert not {name: mods for name, mods in outside.items() if mods}


# imports every module, then runs what a float32 run does: one epoch of a tiny
# model under the full augmentation (with one sure sharpness call, whatever the
# policy draws), its evaluate and checkpoint save, and a load that reads the
# moments back; prints the scipy modules loaded on its last line
FLOAT32_RUN = """
import importlib, pkgutil, sys, tempfile
import numpy as np
import tinyvitlab
for info in pkgutil.iter_modules(tinyvitlab.__path__):
    importlib.import_module(f"tinyvitlab.{info.name}")
from tinyvitlab import augment as A, data as D, model as M, train as TR
A.sharpness(np.zeros((3, 8, 8), np.uint8), 1.5)
model = M.ModelConfig(embed_dim=32, num_heads=4, depth=1, num_classes=2)
cfg = TR.TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, model=model,
                     augment=A.AugmentConfig(erase_prob=1.0))
ds = D.synthetic_dataset("two-class-blobs", 16, seed=0)
with tempfile.TemporaryDirectory() as out:
    result = TR.train(cfg, ds, ds, out)
    ckpt = D.load_checkpoint(result.checkpoint_path)
    assert all(a.dtype == np.float32 for a in ckpt.optim_arrays.values())
print("loaded:", *sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_float32_run_loads_no_compiled_scipy_module():
    run = subprocess.run([sys.executable, "-c", FLOAT32_RUN], capture_output=True, text=True,
                         timeout=300, cwd=Path(tinyvitlab.__file__).parents[1])
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.splitlines()[-1].split()[1:])   # train prints its rows first
    assert not loaded & {"scipy.special", "scipy.ndimage"}, sorted(loaded)
