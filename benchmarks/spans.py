"""Spans recorded from outside a program, by replacing the names it calls.

A wrapper is installed at every place a caller looks a function up: a
module global, a name another module imported with `from x import f`,
or a class attribute.  Patching only the defining module would miss the
callers that hold their own reference.  Spans stay in memory while the
pass runs and are written out as JSON lines afterwards.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index, attrs or None]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def span_around(self, fn, name, note=None):
        """`fn` wrapped in a span; `name` may be a function of the call's
        arguments, and `note(args, result)` may return attributes."""
        def wrapper(*args, **kwargs):
            span = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[4] = note(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counter_around(self, fn, name):
        """`fn` wrapped so that only its calls are counted."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, wrapper_of) -> None:
        """Replace `owner.attr` by `wrapper_of(original)` until restore()."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around a block of the caller's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self time (duration minus the time its
        child spans cover), total time of the outermost calls, and the
        sums of span attributes.  Counted-only names have calls alone."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, parent, attrs) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[k]
            if not self._inside_same(k):
                row["total_s"] += end - start
            for key, value in (attrs or {}).items():
                row[key] = row.get(key, 0) + value
        for name, count in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            out[name]["calls"] += count
        return out

    def calls_without(self, name: str, children: tuple[str, ...]) -> int:
        """How many spans called `name` have no direct child named in
        `children`."""
        busy = {span[3] for span in self.spans if span[0] in children}
        return sum(1 for k, span in enumerate(self.spans)
                   if span[0] == name and k not in busy)

    def _inside_same(self, k: int) -> bool:
        name = self.spans[k][0]
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, label: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for k, (name, start, end, parent, attrs) in enumerate(self.spans):
                line = {"pass": label, "id": k, "name": name, "start": start,
                        "end": end, "parent": parent}
                line.update(attrs or {})
                handle.write(json.dumps(line) + "\n")
