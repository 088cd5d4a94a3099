"""A kernel syscall audit trail, seccomp-filter-generation style.

Related work (Canella et al.'s automated seccomp filter generation, and
the BEACON line of environment-aware dynamic analysis) derives sandbox
policy from *observed* syscall traces.  :class:`SyscallAuditTrail` is the
raw material for that on our simulated kernel: a bounded ring buffer of
:class:`AuditRecord` entries, one per syscall, each carrying the calling
pid, the caller's credentials and capability sets *at call time*, the
arguments, and the result (or errno on failure).  Beside the ring it
keeps the syscall names seen under each credential tuple, which no
eviction shrinks: the observed surface is complete however small the
ring is.

The trail is pure data — it never imports the kernel.  The kernel wraps
its ``sys_*`` methods and feeds records in (see
:meth:`repro.oskernel.kernel.Kernel.enable_audit`); a ``None`` trail is
the disabled fast path.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.telemetry.clock import Clock, MONOTONIC
from repro.telemetry.metrics import MetricsRegistry


def sanitize(value: Any) -> Any:
    """Make one syscall argument or result JSON-safe without losing much."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [sanitize(item) for item in value]
    return repr(value)


@dataclasses.dataclass(frozen=True)
class AuditRecord:
    """One syscall as the kernel saw it."""

    #: Monotone sequence number — total syscalls issued, including any
    #: that have since been evicted from the ring.
    seq: int
    #: Clock reading when the syscall entered the kernel.
    time: float
    syscall: str
    pid: int
    args: Tuple[Any, ...]
    #: Sanitized return value on success, ``None`` on failure.
    result: Any
    #: errno number on failure, ``None`` on success.
    errno: Optional[int]
    #: Kernel's failure message, ``None`` on success.
    error: Optional[str]
    #: Caller's (ruid, euid, suid) / (rgid, egid, sgid) at call time.
    uids: Optional[Tuple[int, int, int]]
    gids: Optional[Tuple[int, int, int]]
    #: Caller's effective / permitted capability sets at call time.
    caps_effective: Optional[str]
    caps_permitted: Optional[str]

    @property
    def ok(self) -> bool:
        return self.errno is None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        data = self.to_dict()
        data["args"] = list(data["args"])
        return json.dumps(data, sort_keys=True)


class SyscallAuditTrail:
    """Bounded recorder: the newest ``capacity`` syscalls, oldest evicted,
    plus every syscall name seen per credential tuple."""

    def __init__(
        self,
        capacity: int = 4096,
        clock: Clock = MONOTONIC,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("audit capacity must be positive")
        self.capacity = capacity
        self.clock = clock
        self._ring: Deque[AuditRecord] = deque(maxlen=capacity)
        self.total = 0
        #: (uids, gids) -> the names of every syscall made under them,
        #: evicted records included.
        self.surfaces: Dict[Tuple[Any, Any], set] = {}
        # With a registry attached, ring evictions surface as the
        # ``kernel.audit.dropped`` gauge, so a silently truncated trail
        # is visible in every metrics snapshot, not just on the trail.
        self._dropped_gauge = (
            metrics.gauge("kernel.audit.dropped") if metrics is not None else None
        )

    def record(
        self,
        syscall: str,
        pid: int,
        args: Tuple[Any, ...],
        result: Any = None,
        errno: Optional[int] = None,
        error: Optional[str] = None,
        uids: Optional[Tuple[int, int, int]] = None,
        gids: Optional[Tuple[int, int, int]] = None,
        caps_effective: Optional[str] = None,
        caps_permitted: Optional[str] = None,
    ) -> AuditRecord:
        self.total += 1
        entry = AuditRecord(
            seq=self.total,
            time=self.clock(),
            syscall=syscall,
            pid=pid,
            args=tuple(sanitize(arg) for arg in args),
            result=sanitize(result) if errno is None else None,
            errno=errno,
            error=error,
            uids=uids,
            gids=gids,
            caps_effective=caps_effective,
            caps_permitted=caps_permitted,
        )
        self._ring.append(entry)
        self.surfaces.setdefault((uids, gids), set()).add(syscall)
        if self._dropped_gauge is not None:
            self._dropped_gauge.set(self.total - len(self._ring))
        return entry

    def publish_dropped(self) -> int:
        """Refresh the ``kernel.audit.dropped`` gauge; returns the count.

        :meth:`record` keeps the gauge current while records append, but
        :meth:`clear` (and any direct ring manipulation) would otherwise
        leave it stale — exporters call this at snapshot time so a
        ledger written after the last append reports the true figure.
        """
        dropped = self.total - len(self._ring)
        if self._dropped_gauge is not None:
            self._dropped_gauge.set(dropped)
        return dropped

    # -- reading ----------------------------------------------------------------

    @property
    def records(self) -> List[AuditRecord]:
        """Retained records, oldest first."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        """Syscalls evicted because the ring was full."""
        return self.total - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def syscall_names(self) -> List[str]:
        """Retained syscall names in call order (test/assertion helper)."""
        return [entry.syscall for entry in self._ring]

    def denials(self) -> List[AuditRecord]:
        """Retained records that failed — the interesting ones for policy."""
        return [entry for entry in self._ring if entry.errno is not None]

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest record first."""
        return "\n".join(entry.to_json() for entry in self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.surfaces.clear()
        self.publish_dropped()
