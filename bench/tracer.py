"""Span tracing of the evenzeta package from outside it.

``Tracer.install`` wraps the public functions of the traced modules and
rebinds each wrapper under every name that binds the function in an evenzeta
module namespace: modules call one another through their own globals, so
``g_table`` has to be replaced in ``bernoulli_sums``, ``suites`` and ``cli``
as well as in ``derivative_tables``.  Every call records one span (name,
start, end, enclosing span) in memory; ``self_seconds`` reduces the spans to
self time per name once the run is over.  A function re-entered through its
own wrapper (the recursion of ``compositions``) adds no nested span, and a
generator gets one span per item it produces, so its self time is the time
spent producing items.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Iterator, Sequence

#: Modules of ``evenzeta`` whose public functions are wrapped.  ``rationals``
#: is left out for the reason given at UNTRACED: ``bernoulli``, ``factorial``
#: and ``binomial`` are its only functions.
LAYERS = (
    "polynomials",
    "derivative_tables",
    "bernoulli_sums",
    "zeta_identities",
    "mzv_identities",
    "enumeration",
    "quasi_shuffle",
    "documents",
    "suites",
    "cli",
)

#: Functions left unwrapped: each call is a table lookup that costs less than
#: the tracer's own work per call, so a span would move more time than it
#: measures.  Their time counts in their callers' self time.
UNTRACED = frozenset({"zeta_identities.zeta_even"})


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> list[float]:
    """Self time of each span: its duration minus the durations of the spans
    directly inside it.  Spans on one thread nest without overlapping, so
    those durations add up to the part of the interval the children cover."""
    out = [end - start for start, end in zip(starts, ends)]
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Spans and call counts of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.span_names = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, ident: int) -> None:
        self.span_names.append(ident)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(len(self.starts))
        self.starts.append(self.clock())

    def end(self) -> None:
        self.ends[self._open.pop()] = self.clock()

    def inside(self, ident: int) -> bool:
        return bool(self._open) and self.span_names[self._open[-1]] == ident

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        totals = dict.fromkeys(self.names, 0.0)
        for ident, value in zip(self.span_names, self_times(self.parents, self.starts, self.ends)):
            totals[self.names[ident]] += value
        return totals

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        ident = self.name_id(name)
        calls = f"{name}.calls"

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if self.inside(ident):
                    return fn(*args, **kwargs)
                self.counts[calls] += 1
                return self._spans_per_item(ident, f"{name}.yielded", fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inside(ident):
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            self.begin(ident)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def _spans_per_item(self, ident: int, counter: str, items: Iterator) -> Iterator:
        while True:
            self.begin(ident)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self.end()
            self.counts[counter] += 1
            yield item

    def install(self, package: str = "evenzeta", layers: Sequence[str] = LAYERS) -> None:
        """Wrap the public functions of ``package.<layer>`` for each layer."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in layers]
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for layer, module in zip(layers, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isclass(fn) or not callable(fn) or fn.__module__ != module.__name__:
                    continue
                if f"{layer}.{attr}" in UNTRACED:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, wrapper)
                            self._rebound.append((namespace, key, fn))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._rebound:
            namespace, key, fn = self._rebound.pop()
            setattr(namespace, key, fn)
