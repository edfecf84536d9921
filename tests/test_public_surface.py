"""The public surface: exported names resolve, and the functions that
``perfbench`` traces exist, so a deletion cannot silently break either."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import eqod

MODULES = sorted(m.name for m in pkgutil.iter_modules(eqod.__path__, "eqod."))
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_functions():
    """``TRACED`` from perfbench/spans.py, loaded under a private name."""
    name = "_perfbench_spans"
    spec = importlib.util.spec_from_file_location(name, SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.TRACED


@pytest.mark.parametrize("modname", ["eqod", *MODULES])
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    assert hasattr(module, "__all__"), f"{modname} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("modname, function, span", traced_functions())
def test_traced_function_exists(modname, function, span):
    module = importlib.import_module(modname)
    assert callable(getattr(module, function, None)), f"{span}: {modname}.{function} is missing"
