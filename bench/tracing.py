"""In-memory spans around calls into parafreq, recorded from the benchmark side.

The program is treated as a black box: :func:`instrument` replaces every
public function of every ``parafreq`` module, in every module that holds it
by name (``suite``, ``cli`` and ``frequency`` import ``evolve_exact`` and
friends directly, so patching the defining module alone would miss their
calls), plus public static methods and cached properties of parafreq classes.
Each call records one span ``(name, start, end, parent, label)``; spans stay
in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import cached_property

PACKAGE = "parafreq"


class Tracer:
    """Span recorder with a stack of open spans and named work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, label]
        self.counts: Counter = Counter()
        self.label: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent, self.label])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = self.clock()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(tracer, args, kwargs, result)`` adds work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "label": lab}
            for n, s, e, p, lab in self.spans
        ]


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus its children's durations.

    The tracer's stack keeps children nested inside their parent and one
    after another, so their durations never overlap.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def span_name(fn) -> str:
    """``<layer>.<qualified name>``, the layer being the defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _is_public_function(value) -> bool:
    return (
        inspect.isfunction(value)
        and (value.__module__ or "").startswith(PACKAGE)
        and not value.__name__.startswith("_")
    )


@contextmanager
def instrument(tracer: Tracer, counters: dict | None = None):
    """Patch parafreq for the duration of the block; ``counters`` maps span names to count hooks."""
    counters = counters or {}
    wrappers: dict = {}
    undo: list = []

    def wrapped(fn):
        if fn not in wrappers:
            name = span_name(fn)
            wrappers[fn] = tracer.wrap(name, fn, counters.get(name))
        return wrappers[fn]

    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if _is_public_function(value):
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapped(value))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for key, raw in list(vars(value).items()):
                        if key.startswith("_"):
                            continue
                        if isinstance(raw, staticmethod):
                            undo.append((value, key, raw))
                            setattr(value, key, staticmethod(wrapped(raw.__func__)))
                        elif isinstance(raw, cached_property):
                            undo.append((raw, "func", raw.func))
                            raw.func = wrapped(raw.func)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
