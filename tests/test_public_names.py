"""Every name the package promises resolves: each module's ``__all__``, the
re-exports of ``subfrac/__init__.py``, the subfrac imports of the demos and
the benchmark's calls into subfrac (parsed, not run), so a deleted or
renamed function or keyword cannot leave a stale reference behind."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import subfrac

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(subfrac.__path__))
DEMOS = sorted((REPO / "demos").glob("*.py"))
BENCH = sorted((REPO / "bench").glob("*.py"))


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


def test_stream_layer_imports_no_other_subfrac_module():
    # sampling names TimeLawCDF and StretchFn in annotations only
    tree = ast.parse((REPO / "src" / "subfrac" / "sampling.py").read_text())
    runtime = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level]
    assert runtime == []


def _import(module: str, name: str):
    """module.name, importing it as a submodule when it is one; None when
    neither resolves."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def bench_misuse(path: Path):
    """(unresolved names, unknown keywords) of a file's uses of subfrac:
    every attribute read off a name bound by a ``from subfrac... import``
    must exist, and every keyword of a call to such an object must be one
    of its parameters."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, missing, bad_keywords = {}, [], []
    for module, name in subfrac_imports(path):
        obj = _import(module, name) if name else importlib.import_module(module)
        if obj is None:
            missing.append(f"{module}.{name}")
        else:
            bound[name or module.split(".")[0]] = obj

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if base is None:
                return None
            if not hasattr(base, node.attr):
                missing.append(f"line {node.lineno}: {ast.unparse(node)}")
                return None
            return getattr(base, node.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            resolve(node)
        if isinstance(node, ast.Call) and callable(fn := resolve(node.func)):
            params = inspect.signature(fn).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            bad_keywords += [
                f"line {node.lineno}: {ast.unparse(node.func)}({kw.arg}=)"
                for kw in node.keywords if kw.arg is not None and kw.arg not in params
            ]
    return sorted(set(missing)), bad_keywords


@pytest.mark.parametrize("path", BENCH, ids=[p.stem for p in BENCH])
def test_bench_calls_resolve(path):
    missing, bad_keywords = bench_misuse(path)
    assert missing == []
    assert bad_keywords == []
