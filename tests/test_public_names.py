"""Every name the package promises resolves: each module's ``__all__``, the
re-exports of ``subfrac/__init__.py`` and the subfrac imports of the demos
(parsed, not run), so a deleted or renamed function cannot leave a stale
import behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import subfrac

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(subfrac.__path__))
DEMOS = sorted((REPO / "demos").glob("*.py"))


def subfrac_imports(path: Path):
    """(module, name) of every ``from subfrac... import name`` in a file,
    relative imports resolved against the package; name is None for a
    plain ``import subfrac...``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "subfrac" + (f".{module}" if module else "")
            if module.split(".")[0] == "subfrac":
                out += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names if a.name.split(".")[0] == "subfrac"]
    return out


def unresolved(pairs):
    missing = []
    for module, name in pairs:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    return missing


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"subfrac.{module}")
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)


def test_package_reexports_resolve():
    pairs = subfrac_imports(Path(subfrac.__file__))
    assert len(pairs) > 30
    assert unresolved(pairs) == []
    assert [name for _, name in pairs if not hasattr(subfrac, name)] == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_resolve(demo):
    pairs = subfrac_imports(demo)
    assert pairs, f"{demo.name} imports nothing from subfrac"
    assert unresolved(pairs) == []
