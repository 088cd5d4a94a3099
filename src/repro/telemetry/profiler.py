"""Hot-path profiler: deterministic cost attribution by stack path.

The span tracer (:mod:`repro.telemetry.tracing`) answers "how long did
each pipeline *stage* take"; this module answers "where inside the hot
loops did the time go" — per rewrite rule, per VM opcode, per engine
step.  The design constraints mirror the tracer's:

* **zero dependencies, injectable clock** — all timing goes through a
  ``() -> float`` clock, so tests with a
  :class:`~repro.telemetry.clock.ManualClock` get bit-identical reports;
* **off by default, near-zero overhead when disabled** — a disabled
  profiler allocates no attribution records: :meth:`Profiler.account`
  returns immediately and :meth:`Profiler.section` and
  :meth:`Profiler.root` hand back one shared inert context manager;
* **aggregated, not evented** — attribution is keyed by a *stack path*
  (a tuple of frame names such as ``("rosa.search", "rule:setuid")``),
  and each key accumulates call counts, wall seconds and named counters.
  A million rule applications cost one dict entry, not a million span
  objects.

Exporters: :meth:`Profiler.to_collapsed` renders the classic
collapsed-stack format (``frame;frame <count>``, one sample unit per
microsecond of *self* time) that ``flamegraph.pl``, speedscope and
friends consume directly; :meth:`Profiler.to_report` renders a
schema-versioned JSON document the run ledger embeds and
``privanalyzer diff`` compares.
"""

from __future__ import annotations

import contextlib
import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.telemetry.clock import Clock, MONOTONIC

#: Bump when the report layout changes; the ledger differ refuses to
#: compare profile sections written under different versions.
PROFILE_SCHEMA_VERSION = 1

#: One microsecond: the collapsed-stack sample unit (flamegraph counts
#: must be integers, and whole milliseconds would flatten repro-scale
#: searches to zero).
_COLLAPSED_UNIT = 1e6

StackPath = Tuple[str, ...]


class ProfileRecord:
    """Accumulated cost of one stack path: calls, seconds, counters."""

    __slots__ = ("calls", "seconds", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.counters: Dict[str, int] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProfileRecord calls={self.calls} seconds={self.seconds:.6f} "
            f"counters={self.counters}>"
        )


class _NullSection:
    """The inert section a disabled profiler returns.  One shared instance."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SECTION = _NullSection()


class _Section:
    """A timed region that accounts its wall time to one stack path."""

    __slots__ = ("profiler", "stack", "start")

    def __init__(self, profiler: "Profiler", stack: StackPath) -> None:
        self.profiler = profiler
        self.stack = stack
        self.start = 0.0

    def __enter__(self) -> "_Section":
        self.start = self.profiler.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.profiler.account(self.stack, self.profiler.clock() - self.start)


class Profiler:
    """Accumulates wall time and counts per stack path.

    Single-threaded by design, like the tracer: the hot paths it
    instruments (BFS expansion, VM dispatch) run in one thread.
    """

    def __init__(self, clock: Clock = MONOTONIC, enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.records: Dict[StackPath, ProfileRecord] = {}

    # -- recording ------------------------------------------------------------

    def record(self, stack: StackPath) -> ProfileRecord:
        """The record for ``stack``, created on first use."""
        record = self.records.get(stack)
        if record is None:
            record = ProfileRecord()
            self.records[stack] = record
        return record

    def account(self, stack: StackPath, seconds: float, calls: int = 1) -> None:
        """Add ``seconds`` of wall time (and ``calls`` invocations) to ``stack``."""
        if not self.enabled:
            return
        record = self.record(stack)
        record.calls += calls
        record.seconds += seconds

    def count(self, stack: StackPath, counter: str, amount: int = 1) -> None:
        """Bump a named counter on ``stack`` (hits, misses, applications...)."""
        if not self.enabled:
            return
        counters = self.record(stack).counters
        counters[counter] = counters.get(counter, 0) + amount

    def section(self, *stack: str):
        """A context manager timing one region: ``with profiler.section("vm"):``."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, stack)

    def root(self, name: str, remainder: str):
        """A context manager timing one top-level frame, ``(name,)``.

        The time its direct children did not gain while it was open
        (bookkeeping between the timed regions, the timers' own cost) is
        accounted to ``(name, remainder)`` with a ``derived`` counter:
        computed, not timed, but it keeps the root 100% attributed.
        """
        if not self.enabled:
            return _NULL_SECTION
        return self._root(name, remainder)

    @contextlib.contextmanager
    def _root(self, name: str, remainder: str) -> Iterator[None]:
        def children() -> float:
            return sum(
                record.seconds
                for stack, record in self.records.items()
                if len(stack) == 2 and stack[0] == name
            )

        before = children()
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self.account((name,), elapsed)
            untimed = elapsed - (children() - before)
            if untimed > 0.0:
                self.account((name, remainder), untimed)
                self.count((name, remainder), "derived")

    def clear(self) -> None:
        self.records.clear()

    # -- derived views --------------------------------------------------------

    def self_seconds(self) -> Dict[StackPath, float]:
        """Exclusive (self) seconds per stack: total minus direct children.

        Collapsed-stack semantics: a line's count covers exactly that
        stack, so a parent whose children were timed separately must not
        re-count their share.  Overlap from measurement jitter clamps at
        zero rather than going negative.
        """
        selfs = {stack: record.seconds for stack, record in self.records.items()}
        for stack, record in self.records.items():
            if len(stack) > 1:
                parent = stack[:-1]
                if parent in selfs:
                    selfs[parent] -= record.seconds
        return {stack: max(seconds, 0.0) for stack, seconds in selfs.items()}

    def to_collapsed(self) -> str:
        """The profile in collapsed-stack (``flamegraph.pl``) format.

        One line per stack path, frames joined by ``;``, the trailing
        integer is self time in microseconds.  Lines are sorted for
        deterministic output; zero-weight stacks are dropped (flamegraph
        tools ignore them anyway).
        """
        lines: List[str] = []
        for stack, seconds in sorted(self.self_seconds().items()):
            weight = int(round(seconds * _COLLAPSED_UNIT))
            if weight > 0:
                lines.append(";".join(stack) + f" {weight}")
        return "\n".join(lines)

    def to_report(self) -> Dict:
        """The schema-versioned JSON document (dict) of the whole profile.

        ``records`` is stack-sorted; ``roots`` carries, per top-level
        frame, total seconds and the fraction attributed to named child
        frames — the coverage figure the acceptance gate checks.
        """
        selfs = self.self_seconds()
        records = []
        child_seconds: Dict[str, float] = {}
        for stack in sorted(self.records):
            record = self.records[stack]
            entry = {
                "stack": list(stack),
                "name": stack[-1],
                "calls": record.calls,
                "seconds": record.seconds,
                "self_seconds": selfs[stack],
            }
            if record.counters:
                entry["counters"] = dict(sorted(record.counters.items()))
            records.append(entry)
            if len(stack) == 2:
                root = stack[0]
                child_seconds[root] = child_seconds.get(root, 0.0) + record.seconds
        roots = {}
        for stack, record in sorted(self.records.items()):
            if len(stack) != 1:
                continue
            root = stack[0]
            attributed = child_seconds.get(root, 0.0)
            roots[root] = {
                "seconds": record.seconds,
                "attributed_seconds": attributed,
                "attributed_fraction": (
                    min(attributed / record.seconds, 1.0) if record.seconds > 0 else 0.0
                ),
            }
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "unit": "seconds",
            "records": records,
            "roots": roots,
        }

    def to_json(self) -> str:
        """:meth:`to_report` serialised deterministically."""
        return json.dumps(self.to_report(), indent=2, sort_keys=True)

    def render(self, limit: Optional[int] = None) -> str:
        """A human table, hottest self-time first (``privanalyzer profile``)."""
        if not self.records:
            return "(no profile records)"
        selfs = self.self_seconds()
        rows = sorted(
            self.records.items(), key=lambda item: (-selfs[item[0]], item[0])
        )
        if limit is not None:
            rows = rows[:limit]
        header = f"{'stack':<52} {'calls':>9} {'total ms':>10} {'self ms':>10}"
        lines = [header, "-" * len(header)]
        for stack, record in rows:
            label = ";".join(stack)
            if len(label) > 52:
                label = "..." + label[-49:]
            extra = ""
            if record.counters:
                extra = "  " + " ".join(
                    f"{key}={value}" for key, value in sorted(record.counters.items())
                )
            lines.append(
                f"{label:<52} {record.calls:>9} {record.seconds * 1000:>10.2f} "
                f"{selfs[stack] * 1000:>10.2f}{extra}"
            )
        return "\n".join(lines)


#: Shared disabled profiler for code paths that want "no profiling".
NULL_PROFILER = Profiler(enabled=False)
