import importlib
import pkgutil

import pytest

import cvarsearch

MODULES = sorted(m.name for m in pkgutil.iter_modules(cvarsearch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry only fails on ``from module import *``
    module = importlib.import_module(f"cvarsearch.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
