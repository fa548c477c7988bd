"""In-memory spans around the calls into each ssvkit layer.

The traced run replaces module attributes with wrappers, so a call made
inside a module (``numerics.solve_regularized`` -> ``cholesky_psd``,
``cme.embedding_batch`` -> ``embedding_weights`` -> ``kernels.gram``) goes
through the wrapper too: every module looks its neighbours up by attribute
at call time.  Each span carries a name, start, end, parent and the id of
the CLI command it belongs to; counts computed from arguments and results
(matrix sizes, jitter) ride on the span as ``info``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("gp", "kernels", "numerics", "coalition", "cme", "explain",
          "shapley_prior", "analysis")
# Private or method-level entry points that a per-layer metric names.
EXTRA_TARGETS = (
    ("explain", "_bayes_term"),
    ("cme", "EmbeddingBatch.tensor"),
    ("explain", "ExplanationBatch.to_json"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None
    command: Optional[int] = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; the command span is the root of each tree."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._command: Optional[int] = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent,
                               command=self._command))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def command(self, name: str):
        """Root span of one CLI invocation; its index is the command id."""
        self._command = len(self.spans)
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)
            self._command = None

    def wrap(self, name: str, fn: Callable,
             annotate: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span = self._close(idx)
                span.info["error"] = type(exc).__name__
                if annotate is not None:
                    span.info.update(annotate(args, kwargs, None))
                raise
            span = self._close(idx)
            if annotate is not None:
                span.info.update(annotate(args, kwargs, result))
            return result

        return traced


def _jitter_levels(cap: float):
    """The jitter sequence ``numerics.cholesky_psd`` tries, capped at ``cap``."""
    from ssvkit import numerics

    jitter = 0.0
    while jitter <= cap:
        yield jitter
        jitter = (numerics.INITIAL_JITTER if jitter == 0.0
                  else jitter * numerics.JITTER_GROWTH)


def _cholesky_info(args, kwargs, factor) -> dict:
    """Matrix size and attempts; a factor with ``jitter_used`` j took
    as many attempts as the levels up to and including j."""
    from ssvkit import numerics

    m = args[0] if args else kwargs["m"]
    if factor is None:  # JitterExceeded: every level up to the cap was tried
        cap = args[1] if len(args) > 1 else kwargs.get(
            "max_jitter", numerics.DEFAULT_MAX_JITTER)
        attempts = sum(1 for _ in _jitter_levels(cap))
    else:
        attempts = sum(1 for _ in _jitter_levels(factor.jitter_used))
    return {"m": len(m), "attempts": attempts}


def _gram_info(args, kwargs, result) -> dict:
    return {} if result is None else {"entries": int(result.size)}


def _design_info(args, kwargs, design) -> dict:
    return {} if design is None else {"n_coalitions": design.n_coalitions}


def _gpshap_info(args, kwargs, batch) -> dict:
    """Shapes of the seed's covariance-factor contraction."""
    if batch is None:
        return {}
    d, n, m = batch.cov_factor.shape
    return {"d": d, "n": n, "m": m, "ell": batch.design.n_coalitions}


ANNOTATE = {
    "numerics.cholesky_psd": _cholesky_info,
    "kernels.gram": _gram_info,
    "coalition.enumerate_coalitions": _design_info,
    "coalition.sample_coalitions": _design_info,
    "explain.gpshap": _gpshap_info,
}


def _targets():
    """(owner, attribute, span name) for every wrapped function."""
    for layer in LAYERS:
        module = importlib.import_module(f"ssvkit.{layer}")
        for attr, fn in inspect.getmembers(module, inspect.isfunction):
            if not attr.startswith("_") and fn.__module__ == module.__name__:
                yield module, attr, f"{layer}.{attr}"
    for layer, dotted in EXTRA_TARGETS:
        owner = importlib.import_module(f"ssvkit.{layer}")
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield owner, attr, f"{layer}.{dotted}"


@contextmanager
def installed(tracer: Tracer):
    """Route every layer function through ``tracer`` while the block runs."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, ANNOTATE.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
