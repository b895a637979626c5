"""In-memory span tracing around calls into the dcots layers.

``Tracer.install`` replaces module attributes with wrappers, at the name
each caller actually looks up (``dcots.solver.solve`` is the LP solve as
the solver sees it).  A wrapper records one span (name, start, end,
parent) and returns the original's result unchanged; ``uninstall`` puts
every original back.  Self time of a span is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    info: object = None  # what the span's ``extract`` kept of the result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, extract=None, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result.

        ``extract(result, args, kwargs)`` gives the small value kept on the
        span, so that large results (LP solutions) are not held for the
        whole run.
        """
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            if extract is not None:
                sp.info = extract(result, args, kwargs)
            return result
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def install(self, module, attr: str, name: str, extract=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, extract=extract, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, float] = defaultdict(float)
        for i, sp in enumerate(self.spans):
            out[sp.name] += sp.end - sp.start - child[i]
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent,
                                     "info": sp.info}) + "\n")
