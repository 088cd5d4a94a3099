"""Structured span tracing for the PrivAnalyzer pipeline.

A :class:`Span` is one named, timed region of work with arbitrary
key/value attributes; spans nest, forming the trace tree of one pipeline
run (``pipeline.analyze`` → ``compile`` → ``autopriv.transform`` …).
A :class:`Tracer` hands out spans as context managers and keeps every
finished span, in end order, for the exporters in
:mod:`repro.telemetry.export`.

Two properties the rest of the codebase relies on:

* **no-op fast path** — a disabled tracer returns one preallocated inert
  span, records nothing, and allocates nothing, so instrumented code can
  call ``tracer.span(...)`` unconditionally in hot paths;
* **deterministic timing** — the tracer timestamps through an injectable
  clock (:mod:`repro.telemetry.clock`), so tests assert exact durations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.telemetry.clock import Clock, MONOTONIC


class Span:
    """One timed region: name, parent, start/end, attributes."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start", "end", "attributes", "depth")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        depth: int,
        attributes: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes = attributes
        self.depth = depth

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.tracer._finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1000:.3f} ms" if self.end is not None else "open"
        return f"<Span {self.name!r} {state} attrs={self.attributes}>"


class _NullSpan:
    """The inert span a disabled tracer returns.  One shared instance."""

    __slots__ = ()
    name = ""
    attributes: Dict[str, Any] = {}
    duration = 0.0

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Hands out nested spans and retains the finished ones.

    Single-threaded by design (the pipeline is single-threaded); the
    open-span stack is a plain list.  ``finished`` holds spans in *end*
    order — children before parents — which JSONL exports preserve;
    tree renderers re-sort by start time.
    """

    def __init__(self, clock: Clock = MONOTONIC, enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.finished: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    def span(self, name: str, **attributes: Any):
        """Open a span as a context manager: ``with tracer.span("compile"):``."""
        if not self.enabled:
            return _NULL_SPAN
        span = Span(
            tracer=self,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start=self.clock(),
            depth=len(self._stack),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        # Close abandoned inner spans too (an exception may have skipped
        # their __exit__ when raised between sibling spans).
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            if dangling.end is None:
                dangling.end = span.end
                self.finished.append(dangling)
        if self._stack:
            self._stack.pop()
        self.finished.append(span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def names(self) -> List[str]:
        """Names of finished spans, in end order."""
        return [span.name for span in self.finished]

    def clear(self) -> None:
        self.finished.clear()
        self._stack.clear()
        self._next_id = 1


#: Shared disabled tracer for code paths that want "no telemetry".
NULL_TRACER = Tracer(enabled=False)
