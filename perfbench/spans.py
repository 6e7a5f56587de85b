"""Span tracing of the partembed package, done entirely from outside it.

``Patches`` swaps module attributes and restores them in reverse order.
``install_tracer`` wraps every public function of every ``partembed``
module, and every public staticmethod of its public classes, under each
name a module binds it to (``training.forward_embed`` and
``network.forward_embed`` get the same wrapper), so a call is traced
whichever module makes it. Nothing under ``src/`` changes.

Each wrapper appends one span ``[label, start, end, parent]`` to the
tracer; parents come from a stack, so nesting follows the real call tree.
Labels name the defining module, e.g. ``network.forward_trunk``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time


class Patches:
    """Attribute swaps that can be undone, newest first."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        # vars(), not getattr(): a class must get its staticmethod back
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Tracer:
    """In-memory span store. Spans are written out only when asked."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, label, fn, args, kwargs):
        idx = len(self.spans)
        span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def layer_stats(self) -> dict[str, dict]:
        """Per label: calls, total and self seconds, and per-call durations.
        Self time is a span's duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (label, start, end, _) in enumerate(self.spans):
            s = stats.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "durations": []})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
        for s in stats.values():
            s["ms_p50"] = 1e3 * statistics.median(s["durations"])
        return stats

    def dump(self, path) -> None:
        labels = sorted({s[0] for s in self.spans})
        index = {lab: i for i, lab in enumerate(labels)}
        rows = [[index[lab], round(start, 7), round(end, 7), parent]
                for lab, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"labels": labels, "fields": ["label", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _package_modules(package: str):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def install_tracer(tracer: Tracer, patches: Patches, package: str = "partembed") -> None:
    """Wrap the package's public functions and staticmethods."""
    modules = _package_modules(package)
    wrappers = {}

    def wrap(label, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(label, fn, args, kwargs)
        return traced

    for mod in modules:
        short = mod.__name__[len(package) + 1:] or package
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = wrap(f"{short}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    if not attr.startswith("_") and isinstance(raw, staticmethod):
                        patches.set(obj, attr, staticmethod(
                            wrap(f"{short}.{name}.{attr}", raw.__func__)))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.set(mod, name, wrappers[obj])
