"""Spans around ehlab's public functions, recorded from outside the program.

`Tracer.install` replaces every public function of the layer modules (and
the public methods of their classes) with a wrapper that records a span,
wherever an ehlab module holds a reference to it. A public function that
calls another through its module-global name therefore gets a child span.
Span stacks are kept per thread; a span opened on a thread with an empty
stack (the classical-scan pool) is a child of the span open on the main
thread. Spans are kept in memory; nothing is recorded once uninstalled.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass

LAYERS = ("classical", "transition", "quantum", "geometry", "harness")


@dataclass
class Span:
    name: str
    tag: str          # config kind for harness.run, "N<dim>" for quantum params
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans


def _tag(args) -> str:
    if not args:
        return ""
    first = args[0]
    if hasattr(first, "kind"):
        return str(first.kind)
    if hasattr(first, "dim") and isinstance(first.dim, int):
        return f"N{first.dim}"
    return ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stacks, main = self.spans, self._stacks, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main) if tid != main else None
                parent = main_stack[-1] if main_stack else -1
            span = Span(name, _tag(args), time.perf_counter(), parent=parent)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layers' public functions in every ehlab module."""
        modules = [importlib.import_module(f"ehlab.{m}") for m in LAYERS + ("cli",)]
        wrapped = {}
        for layer in modules[:len(LAYERS)]:
            short = layer.__name__.split(".")[-1]
            for name, obj in vars(layer).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == layer.__name__:
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == layer.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._replace(obj, meth,
                                          self._wrap(f"{short}.{name}.{meth}", fn))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(module, name, wrapped[obj])

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------ analysis

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            kids.setdefault(span.parent, []).append(i)
        return kids

    def self_time(self, index: int, kids: dict[int, list[int]]) -> float:
        """Span duration minus the part of it that its children cover."""
        span = self.spans[index]
        covered, cursor = 0.0, span.start
        for s, e in sorted((self.spans[c].start, self.spans[c].end)
                           for c in kids.get(index, [])):
            s, e = max(s, cursor), min(e, span.end)
            if e > s:
                covered += e - s
                cursor = e
        return span.end - span.start - covered
