"""Spans recorded around the public functions of the ``eqod`` modules.

The program is timed from outside: each traced function is replaced, at
every module attribute that refers to it, by a wrapper that records a
span. Functions such as ``assemble`` are imported by name into several
modules, so wrapping only the defining module would miss those calls;
``installed`` therefore looks the function up in every loaded ``eqod``
module.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

# (defining module, function, span name). The span name's prefix is the
# layer the function belongs to.
TRACED = (
    ("eqod.solvers", "generate_set", "solvers.generate_set"),
    ("eqod.solvers", "add_noise", "solvers.add_noise"),
    ("eqod.spectral", "spectral_derivative", "spectral.spectral_derivative"),
    ("eqod.oplib", "evaluate_term", "oplib.evaluate_term"),
    ("eqod.weakform", "assemble", "weakform.assemble"),
    ("eqod.sparse", "lasso_cv", "sparse.lasso_cv"),
    ("eqod.sparse", "lasso", "sparse.lasso"),
    ("eqod.sparse", "identify_on_system", "sparse.identify_on_system"),
    ("eqod.stability", "stability_gate", "stability.stability_gate"),
    ("eqod.symmetry", "detect_all", "symmetry.detect_all"),
    ("eqod.pipeline", "run_eqod", "pipeline.run_eqod"),
)


@dataclass
class Span:
    """One call: ``parent`` is the index of the enclosing span, ``cell`` the
    operation it belongs to. ``args`` ((args, kwargs)) and ``result`` are
    kept only for the functions a tracer is told to keep."""

    name: str
    start: float
    end: float
    parent: int | None
    cell: str | None
    args: Any = None
    result: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; spans are written out once the run ends."""

    def __init__(self, keep_io=()):
        self.spans: list[Span] = []
        self.cell: str | None = None
        self.keep_io = frozenset(keep_io)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.cell)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn):
        keep = name in self.keep_io

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if keep:
                    rec.args, rec.result = (args, kwargs), out
                return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, names=None):
        """Wrap the TRACED functions (all, or those in ``names``) at every call
        site for the duration of the block."""
        originals = []
        for mod_name, attr, span_name in TRACED:
            if names is not None and span_name not in names:
                continue
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(span_name, fn)
            for name, mod in list(sys.modules.items()):
                if name != "eqod" and not name.startswith("eqod."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        originals.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, fn in reversed(originals):
                setattr(mod, key, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "cell": s.cell}
            for s in self.spans
        ]
