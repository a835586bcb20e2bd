"""Import census: every public name and every example import resolves.

Deleting a public class can leave an ``__all__`` entry or an example
importing a name that no longer exists.  The examples are too slow for
the tier-1 sweep, so they are read by AST here and never executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("module", ["repro.serve", "repro.serve.obs",
                                    "repro.serve.monitor", "repro.serve.net"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _repro_imports(path):
    """``(module, name)`` for every ``from repro... import name`` (and
    ``(module, None)`` for ``import repro...``) in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "repro":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "repro")


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    unresolved = []
    for module, name in _repro_imports(path):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            unresolved.append(module)
            continue
        if name is not None and not hasattr(mod, name):
            try:  # `from pkg import submodule`
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                unresolved.append(f"{module}.{name}")
    assert not unresolved, f"{path.name} imports missing names: {unresolved}"


def test_the_census_sees_the_examples():
    assert EXAMPLES and all(any(_repro_imports(p)) for p in EXAMPLES)
