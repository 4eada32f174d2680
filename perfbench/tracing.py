"""Span recording for the benchmark's traced run.

The recorder wraps the library functions that ``symbed.embedding`` and
``symbed.evaluation`` look up by module-global name at call time, and the
benchmark opens spans around its own calls into the library.  Nothing in the
library changes; the wrappers are removed when ``patched()`` exits.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

# module -> {attribute: span name}; a span name is "<layer>.<function>"
WRAPPED = {
    "symbed.embedding": {
        "hash_all": "walks.hash_all",
        "pagerank": "ranking.pagerank",
        "rank_nodes": "ranking.rank_nodes",
    },
    "symbed.evaluation": {
        "train_logreg": "evaluation.train_logreg",
        "logreg_loss_grad": "evaluation.logreg_loss_grad",
        "topk_sets": "evaluation.topk_sets",
        "micro_macro_f1": "evaluation.micro_macro_f1",
        "label_propagation": "evaluation.label_propagation",
    },
}


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans and patching cost one no-op context each."""

    def span(self, name):
        return nullcontext()

    def patched(self):
        return nullcontext()


class Tracer:
    """Spans kept in memory, nested per thread, plus named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        s = Span(name, time.perf_counter(), stack[-1] if stack else None)
        self.spans.append(s)
        stack.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name: str):
        if name == "ranking.pagerank":
            @functools.wraps(fn)
            def pagerank(*args, return_converged=False, **kwargs):
                with self.span(name):
                    r, converged = fn(*args, return_converged=True, **kwargs)
                self.counters["ranking.converged"] += bool(converged)
                return (r, converged) if return_converged else r
            return pagerank

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "walks.hash_all":
                self.counters["walks.hash_rows"] += out.shape[0]
                self.counters["walks.hash_nnz"] += out.nnz
            return out
        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every name in WRAPPED that exists; restore them on exit.

        A name the library no longer has is skipped: its layer then shows
        zero spans and the run reports it as missing.
        """
        saved = []
        try:
            for modname, names in WRAPPED.items():
                mod = importlib.import_module(modname)
                for attr, span_name in names.items():
                    fn = getattr(mod, attr, None)
                    if fn is not None:
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, self._wrap(fn, span_name))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on the span's thread, so
    their durations add up without overlap.
    """
    covered: dict[Span, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s: s.duration - covered[s] for s in spans}
