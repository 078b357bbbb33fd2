"""Every name a module lists in ``__all__`` resolves.

A plain import never reads ``__all__``, so a stale entry left behind by a
removal only shows up in a star import or the docs.
"""

import importlib
import pkgutil

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
