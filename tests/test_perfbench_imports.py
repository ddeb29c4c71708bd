"""The repository benchmark's imports of ``repro`` must keep resolving.

``perfbench/`` is frozen between benchmark changes and imports a few
names from ``repro`` in fresh worker interpreters.  A rename there would
not fail any other test; it would fail every benchmark run instead.  This
test parses the benchmark sources (read-only, never imports them) and
checks that every ``repro`` module and name they import still exists.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def repro_imports() -> list[tuple[str, str, str | None]]:
    """``(file, module, name)`` for every ``repro`` import in perfbench."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    found.extend((path.name, module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend(
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name == "repro" or alias.name.startswith("repro.")
                )
    return found


def test_perfbench_imports_repro():
    # Non-vacuity: the benchmark does import from repro.
    assert any(module == "repro.similarity.join" for _, module, _ in repro_imports())


@pytest.mark.parametrize(
    "source,module,name",
    repro_imports(),
    ids=lambda value: value if isinstance(value, str) else "module",
)
def test_perfbench_import_resolves(source, module, name):
    imported = importlib.import_module(module)
    if name is None or name == "*":
        return
    if not hasattr(imported, name):
        # ``from package import submodule`` is legal too.
        importlib.import_module(f"{module}.{name}")
