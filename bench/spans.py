"""In-memory span tracer that wraps library entry points from outside.

The tracer rebinds public functions and methods of ``evicred`` by module
or class attribute, so the package itself carries no timing code.  Each
call records a span (name, start, end, parent); self time is a span's
duration minus the part its direct children cover.  ``restore`` puts every
original back, so untraced work in the same process runs the plain code.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable,
             count: Callable[[Counter, tuple, object], None] | None = None) -> Callable:
        """``fn`` inside a span; ``count`` sees (counters, args, result) after it."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced

    # --- rebinding --------------------------------------------------------

    def patch_method(self, cls: type, attr: str, replacement: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def patch_function(self, fn: Callable, replacement: Callable) -> None:
        """Rebind every ``evicred`` module attribute that holds ``fn``.

        Modules import each other's functions by name, so one function can
        be reachable under several module attributes; all of them switch.
        """
        found = False
        for name, module in list(sys.modules.items()):
            if name != "evicred" and not name.startswith("evicred."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{fn.__module__}.{fn.__qualname__} is not bound in evicred")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reading ----------------------------------------------------------

    def roots(self) -> list[int]:
        """Index of the top-level span each span ran under."""
        roots: list[int] = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
        return roots

    def self_times(self, root: str | None = None
                   ) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and call count per span name.

        With ``root``, only spans that ran under a top-level span of that
        name count.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        roots = self.roots()
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner, top in zip(self.spans, child_time, roots):
            if root is None or self.spans[top][0] == root:
                totals[name] += (end - start) - inner
                calls[name] += 1
        return dict(totals), dict(calls)

    def write(self, path) -> None:
        """One JSON object per span; ``root`` is the top-level span it ran under."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, start, end, parent), top) in enumerate(
                    zip(self.spans, self.roots())):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "root": top}) + "\n")
