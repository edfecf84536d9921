"""The public surface: exported names resolve, the functions that
``perfbench`` traces exist, and a traced ``run_eqod`` gives perfbench
what it reads, so a refactor cannot silently break any of them."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import eqod
import eqod.pipeline as pipeline
from eqod.oplib import LibrarySpec

MODULES = sorted(m.name for m in pkgutil.iter_modules(eqod.__path__, "eqod."))
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(eqod.__file__).resolve().parent


def load_spans():
    """perfbench/spans.py, loaded under a private name."""
    name = "_perfbench_spans"
    spec = importlib.util.spec_from_file_location(name, SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


SPANS = load_spans()

# TRACED functions that run_eqod does not reach: the set-up draws the
# data, and no pipeline module calls the one-order derivative or the
# one-term field.
OFF_PIPELINE = {
    "solvers.generate_set",
    "solvers.add_noise",
    "spectral.spectral_derivative",
    "oplib.evaluate_term",
}


@pytest.mark.parametrize("modname", ["eqod", *MODULES])
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    assert hasattr(module, "__all__"), f"{modname} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def eqod_imports(path):
    """The (module, name) pairs a source file imports from eqod: each
    ``from eqod[.sub] import name`` and each ``eqod.name`` read after an
    ``import eqod``."""
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "eqod":
            pairs.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "eqod":
            pairs.add(("eqod", node.attr))
    return pairs


@pytest.mark.parametrize("name", ["selftest.py", "run.py"])
def test_perfbench_imports_resolve(name):
    # perfbench reads these names from the package: a trimmed __all__ must keep them
    pairs = eqod_imports(SPANS_PATH.parent / name)
    assert pairs, f"perfbench/{name} imports nothing from eqod"
    missing = sorted(f"{m}.{n}" for m, n in pairs if not hasattr(importlib.import_module(m), n))
    assert missing == []


def imported_modules(path):
    """The eqod modules a source file imports, as "solvers", "core", ..."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                names.add(node.module)
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("eqod."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("eqod."))
    return names


def test_only_the_package_imports_the_solvers():
    # identification must not depend on data generation
    importers = sorted(p.name for p in SRC.glob("*.py") if "solvers" in imported_modules(p))
    assert importers == ["__init__.py"]


def test_perfbench_stream_paths_resolve():
    # perfbench draws its noise through these attribute paths
    import eqod.core as core
    import eqod.solvers as solvers

    assert solvers.RngStream is core.RngStream is eqod.RngStream
    assert solvers.NOISE_SEED_OFFSET == core.NOISE_SEED_OFFSET == 1000


@pytest.mark.parametrize("modname, function, span", SPANS.TRACED)
def test_traced_function_exists(modname, function, span):
    module = importlib.import_module(modname)
    assert callable(getattr(module, function, None)), f"{span}: {modname}.{function} is missing"


@pytest.fixture(scope="module")
def traced_runs(heat_clean, burgers_clean):
    """Spans of run_eqod on a stability-mode and a symmetry-mode set, with
    every TRACED function wrapped at its call sites as perfbench wraps it."""
    keep = {"sparse.lasso_cv", "sparse.identify_on_system", "stability.stability_gate"}
    runs = {}
    for mode, ts in (("stability", heat_clean), ("symmetry", burgers_clean)):
        tracer = SPANS.Tracer(keep_io=keep)
        with tracer.installed():
            result = pipeline.run_eqod(ts, 42)  # as perfbench calls it
        assert result.mode == mode
        runs[mode] = tracer.spans
    return runs


class TestPerfbenchContract:
    @pytest.mark.parametrize("mode", ["stability", "symmetry"])
    def test_lasso_cv_gets_the_raw_system(self, traced_runs, mode):
        # perfbench checks the KKT conditions of every captured lasso_cv
        # answer against its positional (theta, b); a run with none fails
        spans = traced_runs[mode]
        cv = [s for s in spans if s.name == "sparse.lasso_cv"]
        identify = [i for i, s in enumerate(spans) if s.name == "sparse.identify_on_system"]
        assert cv and sorted(s.parent for s in cv) == identify
        for s in cv:
            (theta, b, *_), _ = s.args
            (ws, *_), _ = spans[s.parent].args
            assert np.array_equal(theta, ws.theta) and np.array_equal(b, ws.b)
            lam, xi = s.result[:2]
            assert lam > 0 and xi.shape == (ws.theta.shape[1],)

    def test_stability_gate_returns_spec_and_pi(self, traced_runs):
        gates = [s for s in traced_runs["stability"] if s.name == "stability.stability_gate"]
        assert gates
        for s in gates:
            assert isinstance(s.result, tuple) and len(s.result) == 2
            assert isinstance(s.result[0], LibrarySpec)

    def test_every_pipeline_function_is_reached(self, traced_runs):
        reached = {s.name for spans in traced_runs.values() for s in spans}
        on_path = {span for _, _, span in SPANS.TRACED} - OFF_PIPELINE
        assert on_path <= reached
