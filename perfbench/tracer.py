"""Outside-in span recorder for the twqr benchmark.

The tracer replaces a function in a module's namespace with a timing
wrapper, so it sees exactly the calls that module makes through that
name (``twqr.montecarlo.fit_qr`` is the solver as the Monte Carlo engine
calls it). Nothing inside ``twqr`` is modified. A function called through
another name, or inlined by a later refactor, produces no span.

Each span records its name, start, end, parent span and replication id,
plus counts read from the call's result. Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent: int        # 0 for a root span
    name: str
    rep: int | None    # replication id, inherited from the parent if not set
    start: float
    end: float
    counts: dict       # read from the call's result; {"raised": 1} if it raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the functions given to ``wrap``; leaving the context unwraps them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, counts=None, rep=None) -> None:
        """Trace calls to ``module.attr`` as spans called ``name``.

        ``counts(args, result)`` returns a dict of counts stored on the span;
        ``rep(args)`` returns the replication id the call starts.
        """
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent_id, parent_rep = stack[-1] if stack else (0, None)
            span = Span(next(tracer._ids), parent_id, name,
                        rep(args) if rep is not None else parent_rep, 0.0, 0.0, {"raised": 1})
            stack.append((span.span_id, span.rep))
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            span.counts = counts(args, result) if counts is not None else {}
            return result

        self._patched.append((module, attr, orig))
        setattr(module, attr, traced)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on the parent's thread, one after another,
    so their durations do not overlap and can simply be subtracted.
    """
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own
