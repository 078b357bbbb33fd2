"""Every name a module lists in ``__all__`` resolves, and every other
module-level name is read somewhere in the package.

A plain import never reads ``__all__``, so a stale entry left behind by a
removal only shows up in a star import or the docs.  A module-level
function, class or constant that nothing in ``src/axsec`` reads and no
``__all__`` or ``axsec/__init__`` exports is dead code, or code only the
tests keep alive.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import axsec
from axsec import detect

MODULES = ["axsec"] + sorted(
    m.name for m in pkgutil.iter_modules(axsec.__path__, "axsec."))


def _unresolved(mod):
    return [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    assert _unresolved(importlib.import_module(name)) == []


def test_a_stale_export_is_caught(monkeypatch):
    monkeypatch.setattr(detect, "__all__",
                        detect.__all__ + ["resilience_test"])
    assert _unresolved(detect) == ["resilience_test"]


def _dead_names(sources):
    """Module-level names of ``sources`` (module stem -> text) that are
    neither exported nor loaded anywhere outside their own definition."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    exported = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exported |= {(mod, e.value) for e in node.value.elts}
            if mod == "__init__" and isinstance(node, ast.ImportFrom):
                exported |= {(node.module, a.name) for a in node.names}
    loads = []  # (module, load node)
    for mod, tree in trees.items():
        loads += [(mod, n) for n in ast.walk(tree)
                  if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                  or isinstance(n, ast.Attribute)]
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", None)]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            for name in names:
                if name.startswith("__") or (mod, name) in exported:
                    continue
                if not any(getattr(n, "id", getattr(n, "attr", None)) == name
                           and not (m == mod and id(n) in inside)
                           for m, n in loads):
                    dead.append(f"{mod}.{name}")
    return dead


def test_no_module_level_name_is_dead():
    src = Path(axsec.__file__).parent
    assert _dead_names({p.stem: p.read_text(encoding="utf-8")
                        for p in sorted(src.glob("*.py"))}) == []


def test_a_dead_name_is_caught():
    sources = {
        "__init__": "from .m import shipped\n",
        "m": ("__all__ = ['listed']\n"
              "LIMIT = 3\n"
              "def shipped(): return _helper() + LIMIT\n"
              "def _helper(): return 1\n"
              "def listed(): return 2\n"
              "def orphan(n): return orphan(n - 1) if n else 0\n"
              "class Unused: pass\n"),
        "n": "from . import m\nVALUE = m.LIMIT\nprint(VALUE)\n",
    }
    assert _dead_names(sources) == ["m.orphan", "m.Unused"]
