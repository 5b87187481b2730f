"""The package's runtime dependencies stay numpy and scipy."""

import ast
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


def test_imports_only_stdlib_numpy_and_scipy():
    # the source is read, not sys.modules: importing scipy loads modules
    # that numpy imports optionally, which the package does not need
    sources = sorted(Path(tinyvitlab.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"tensor.py", "model.py", "train.py", "cli.py"}
    allowed = {"numpy", "scipy", "tinyvitlab"} | set(sys.stdlib_module_names)
    outside = {p.name: sorted(imported_modules(p) - allowed) for p in sources}
    assert not {name: mods for name, mods in outside.items() if mods}
