"""Every name a module lists in ``__all__`` resolves, and every other
module-level name, method and annotated class field is read somewhere in
the package.

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


#: names nothing reads that stay on purpose: the budget targets are dead
#: config knobs, kept while config.txt and the golden digests name them
#: (the ROADMAP's "Parked" list); argparse calls the parser's ``error``
KEPT = {"attack.BudgetConstraints.e_prime",
        "attack.BudgetConstraints.p_prime", "cli._Parser.error"}


def _defined(node):
    """Names a module- or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign):
        return [getattr(node.target, "id", None)]
    return []


def _dead_names(sources):
    """Module-level names, methods and annotated class fields of
    ``sources`` (module stem -> text) that are neither exported nor loaded
    anywhere outside their own definition.  A load is a name or attribute
    read anywhere in the sources, whatever object it is read from; a
    method is read only through an attribute, so a local variable of the
    same name does not keep it alive."""
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
                  if isinstance(n, (ast.Name, ast.Attribute))
                  and isinstance(n.ctx, ast.Load)]
    defs = []  # (module, qualified name, name, defining node, load types)
    for mod, tree in trees.items():
        for node in tree.body:
            defs += [(mod, f"{mod}.{name}", name, node,
                      (ast.Name, ast.Attribute))
                     for name in _defined(node) if (mod, name) not in exported]
            if isinstance(node, ast.ClassDef):
                defs += [(mod, f"{mod}.{node.name}.{name}", name, member,
                          ast.Attribute if isinstance(member, ast.FunctionDef)
                          else (ast.Name, ast.Attribute))
                         for member in node.body
                         if isinstance(member, (ast.FunctionDef,
                                                ast.AnnAssign))
                         for name in _defined(member)]
    dead = []
    for mod, qual, name, node, kinds in defs:
        if name.startswith("__"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(isinstance(n, kinds)
                   and getattr(n, "id", getattr(n, "attr", None)) == name
                   and not (m == mod and id(n) in inside)
                   for m, n in loads):
            dead.append(qual)
    return dead


def test_no_module_level_name_is_dead():
    src = Path(axsec.__file__).parent
    dead = _dead_names({p.stem: p.read_text(encoding="utf-8")
                        for p in sorted(src.glob("*.py"))})
    assert sorted(set(dead) - KEPT) == []
    assert sorted(KEPT - set(dead)) == []  # no stale allowance


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


def test_a_dead_member_is_caught():
    sources = {
        "__init__": "from .m import Box\n",
        "m": ("class Box:\n"
              "    size: int\n"
              "    label: str\n"
              "    def __init__(self): self.size = self.grow(1)\n"
              "    def grow(self, n): return n\n"
              "    def spare(self, n): return self.spare(n - 1) if n else 0\n"
              "    def depth(self): return 0\n"
              "    @property\n"
              "    def area(self): return self.size ** 2\n"),
        "n": ("from .m import Box\nprint(Box().area)\n"
              "def walk(depth): return depth + 1\n"
              "print(walk(2))\n"),
    }
    # a store is no read, nor is a method's call of itself, nor a local
    # variable named like a method
    assert _dead_names(sources) == ["m.Box.label", "m.Box.spare",
                                    "m.Box.depth"]


def _sources():
    src = Path(axsec.__file__).parent
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted(src.glob("*.py"))}


def _asserts(sources):
    """(module, line) of every ``assert`` statement: an invariant that
    ``python -O`` strips must be a raise instead."""
    return [(mod, n.lineno) for mod, text in sources.items()
            for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Assert)]


def _private_imports(sources):
    """(module, name) of every underscore name imported from another
    module; importing a module itself, such as ``_kernels``, is fine."""
    return [(mod, a.name) for mod, text in sources.items()
            for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.ImportFrom) and n.module
            for a in n.names if a.name.startswith("_")]


def test_no_invariant_lives_in_an_assert():
    assert _asserts(_sources()) == []


def test_an_assert_is_caught():
    assert _asserts({"m": "def f(x):\n    assert x > 0\n    return x\n"}) \
        == [("m", 2)]


def test_no_module_imports_another_modules_private_name():
    assert _private_imports(_sources()) == []


def test_a_private_import_is_caught():
    sources = {"m": ("from . import _kernels\n"
                     "from .sim import simulate, _pack_rows\n"
                     "from .experiment import write_csv\n")}
    assert _private_imports(sources) == [("m", "_pack_rows")]


def _wrapped_reads(sources):
    """(module, line) of every read of ``__wrapped__``, as an attribute or
    a string: calling past a memo's wrapper skips the checks that guard
    its keys, so each memo has its one way in."""
    return [(mod, n.lineno) for mod, text in sources.items()
            for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and n.attr == "__wrapped__"
            or isinstance(n, ast.Constant) and n.value == "__wrapped__"]


def test_no_memo_is_bypassed():
    assert _wrapped_reads(_sources()) == []


def test_a_bypass_is_caught():
    sources = _sources()
    line = sources["arith"].count("\n") + 1
    sources["arith"] += ("probe = gen_module.__wrapped__\n"
                         "again = getattr(gen_module, '__wrapped__')\n")
    assert _wrapped_reads(sources) == [("arith", line), ("arith", line + 1)]


#: attributes that reach a run's packed words: its net array, a
#: stimulus's block and numpy's bit packers, which are also caught as bare
#: names
PACKED = {"c", "block", "packbits", "unpackbits"}


def _packed_readers(sources):
    """(module, line) of every :data:`PACKED` attribute and bare packer
    name outside ``sim``: a run is read through ``Traces.word_values`` and
    ``Traces.hits``, so the packed layout stays behind ``sim``.
    ``_kernels`` is exempt: it is handed the net array as an argument."""
    return sorted((mod, n.lineno) for mod, text in sources.items()
                  if mod not in ("sim", "_kernels")
                  for n in ast.walk(ast.parse(text))
                  if getattr(n, "attr", None) in PACKED
                  or getattr(n, "id", None) in ("packbits", "unpackbits"))


def test_no_module_but_sim_reads_the_packed_layout():
    assert _packed_readers(_sources()) == []


def test_a_packed_layout_reader_is_caught():
    # a local variable named c is no read of a run
    sources = {"sim": "def bits(run):\n    return np.unpackbits(run.c)\n",
               "_kernels": "def first(run):\n    return run.c[0]\n",
               "m": ("from numpy import packbits\n"
                     "def f(run, stim, c):\n"
                     "    rows = run.c[0] + c\n"
                     "    return packbits(np.unpackbits(stim.block))\n")}
    assert _packed_readers(sources) == [("m", 3), ("m", 4), ("m", 4),
                                        ("m", 4)]


#: calls that put something on disk: attributes of any object, and
#: functions of ``os`` and ``shutil``
WRITES = {"write_text", "write_bytes", "mkdir", "makedirs", "rmtree",
          "replace", "rename", "remove", "unlink"}


def _opens_for_writing(call):
    """Whether ``call`` is an ``open`` with a mode that writes."""
    func = call.func
    if getattr(func, "id", getattr(func, "attr", None)) != "open":
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:2]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) <= set("rwxabt+")
               and bool(set(m.value) & set("wxa+")) for m in modes)


def _writers(sources):
    """(module, line) of every call outside ``textfmt`` that writes,
    makes or removes a file or directory: ``textfmt.write_files`` and
    ``write_tree`` are the one way an output reaches disk."""
    found = []
    for mod, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            if mod == "textfmt" or not isinstance(n, ast.Call):
                continue
            f = n.func
            on = getattr(getattr(f, "value", None), "id", None)
            # str.replace and list.remove share their names with os, and
            # write_text with pathlib; a bare call is no attribute
            if _opens_for_writing(n) or getattr(f, "id", None) == "rmtree" \
                    or getattr(f, "attr", None) in WRITES and (
                        on in ("os", "shutil")
                        or f.attr not in ("replace", "remove")):
                found.append((mod, n.lineno))
    return found


def test_only_textfmt_writes_to_disk():
    assert _writers(_sources()) == []


def test_a_write_outside_textfmt_is_caught():
    # str.replace and list.remove are no writes; a read-only open is none
    sources = {"textfmt": "def put(p, t):\n    open(p, 'w').write(t)\n",
               "m": ("import os, shutil\n"
                     "from shutil import rmtree\n"
                     "def f(out, p, names):\n"
                     "    open(p, encoding='utf-8').read()\n"
                     "    open(p, 'w')\n"
                     "    out.open(mode='a')\n"
                     "    out.mkdir(parents=True)\n"
                     "    (out / 'x').write_text('y')\n"
                     "    shutil.rmtree(out)\n"
                     "    rmtree(out)\n"
                     "    os.replace(p, out)\n"
                     "    names.remove(p.replace('a', 'b'))\n")}
    assert _writers(sources) == [("m", n) for n in range(5, 12)]


def _reads_random(n):
    """Whether ``n`` is ``np.random`` or ``numpy.random``, or imports it."""
    if isinstance(n, ast.Attribute):
        return n.attr == "random" and getattr(n.value, "id", None) in (
            "np", "numpy")
    if isinstance(n, ast.ImportFrom):
        return n.module == "numpy.random" or n.module == "numpy" and any(
            a.name == "random" for a in n.names)
    return isinstance(n, ast.Import) and any(
        a.name.startswith("numpy.random") for a in n.names)


def _random_readers(sources):
    """(module, line) of every read of ``numpy.random`` outside ``sim``:
    every seed and generator of the package is made there, of a seed and a
    salt (``sim.sub_seed``, ``sim.sub_rng``)."""
    return sorted((mod, n.lineno) for mod, text in sources.items()
                  if mod != "sim" for n in ast.walk(ast.parse(text))
                  if _reads_random(n))


def test_no_module_but_sim_reads_numpy_random():
    assert _random_readers(_sources()) == []


def test_a_numpy_random_read_outside_sim_is_caught():
    # a generator handed in is no read, nor is a random attribute of another
    # object; sim itself may read numpy.random
    sources = {"sim": "import numpy as np\nrng = np.random.default_rng(1)\n",
               "m": ("import numpy as np\n"
                     "import numpy.random\n"
                     "from numpy.random import default_rng\n"
                     "from numpy import random\n"
                     "def f(rng, cfg, seed):\n"
                     "    rng.integers(0, 2)\n"
                     "    cfg.random\n"
                     "    np.random.SeedSequence(seed)\n"
                     "    return numpy.random.default_rng(seed)\n")}
    assert _random_readers(sources) == [("m", n) for n in (2, 3, 4, 8, 9)]


#: top-level packages that start or pool threads
THREADS = {"threading", "concurrent"}


def _imported(n):
    """The top-level package of each module an import statement reads."""
    if isinstance(n, ast.Import):
        return {a.name.split(".")[0] for a in n.names}
    if isinstance(n, ast.ImportFrom) and not n.level:
        return {n.module.split(".")[0]}
    return set()


def _thread_importers(sources):
    """(module, line) of every import of ``threading`` or
    ``concurrent.futures`` outside ``sim``: the one worker that makes a
    long stream's next chunk (``sim._stream_chunks``) is the package's
    only concurrency."""
    return sorted((mod, n.lineno) for mod, text in sources.items()
                  if mod != "sim" for n in ast.walk(ast.parse(text))
                  if _imported(n) & THREADS)


def test_no_module_but_sim_imports_threading():
    assert _thread_importers(_sources()) == []


def test_a_thread_import_outside_sim_is_caught():
    # sim may; a longer name or a package's own module is no such import
    sources = {"sim": "from concurrent import futures\n",
               "m": ("import threading\n"
                     "import concurrent.futures as cf\n"
                     "from concurrent.futures import ThreadPoolExecutor\n"
                     "from concurrent import futures\n"
                     "from threading import Thread\n"
                     "import threadingx\n"
                     "from . import threading\n"
                     "def f():\n"
                     "    import threading\n"
                     "    return threading.Lock()\n")}
    assert _thread_importers(sources) == [("m", n) for n in (1, 2, 3, 4, 5,
                                                             9)]
