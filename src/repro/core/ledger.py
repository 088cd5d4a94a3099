"""The run ledger: durable, diffable artifacts of one PrivAnalyzer run.

PR 1 made runs observable *while they execute*; everything still
evaporated at process exit.  A :class:`RunLedger` captures one
``analyze`` or ``rosa`` invocation into a versioned JSON artifact
directory so two runs can be compared mechanically — the layer
peer-group analysis ("Apples and Oranges") and BEACON-style policy
generation both assume:

``manifest.json``
    Schema version, run kind (``analyze``/``rosa``), program name, the
    CLI arguments, and an injected creation timestamp.
``spans.jsonl``
    Every finished span (``repro.telemetry.export.spans_to_jsonl``).
``trace.perfetto.json``
    The same trace as Chrome trace-event JSON, openable in Perfetto.
``metrics.json`` / ``metrics.prom``
    The metrics-registry snapshot, as JSON and as Prometheus text.
``audit.jsonl``
    The simulated kernel's syscall audit trail (when recorded).
``syscalls.json``
    Observed syscall names grouped by the caller's credential tuple,
    plus ring-eviction accounting — the per-phase surface the differ
    compares.
``exposure.json``
    The per-phase exposure table and vulnerability windows
    (``repro.core.report.analysis_to_dict``).
``verdicts.json``
    One record per (phase, attack) ROSA query: verdict, witness chain,
    and search cost.
``cache.json``
    Query-engine cache statistics (hits/misses/hit rate/entries).
``workers.json``
    Fleet telemetry: per-worker capsule accounting from pool runs
    (``--jobs N``) — tasks, execute/queue-wait seconds, states
    explored, spans/samples/audit volume per stable ``worker:N`` id
    (see :meth:`repro.rosa.pool.Fleet.stats`).  The
    differ compares load balance and per-worker execute time.
``profile.json``
    The hot-path profiler's schema-versioned report (per rewrite rule,
    VM opcode, engine worker — see
    :mod:`repro.telemetry.profiler`), written only when the run carried
    a live profiler (``--profile-out``).

:func:`diff_ledgers` is the structural comparator behind
``privanalyzer diff OLD NEW``: verdict flips, exposure-fraction deltas
beyond a tolerance, per-stage duration regressions beyond a perf
tolerance, and syscalls newly observed (or vanished) per credential
phase all surface as findings; any ``regression``-severity finding
makes the CLI exit non-zero, so CI can gate on it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.pipeline import ProgramAnalysis
from repro.core.report import analysis_to_dict
from repro.rosa.query import RosaReport
from repro.telemetry import (
    Telemetry,
    metrics_to_prometheus,
    spans_to_jsonl,
    trace_event_json,
)

#: Bump when any artifact's layout changes; the differ refuses to
#: compare ledgers written under different schema versions.
#: Version 2: verdict records lost the reduction counters.
LEDGER_SCHEMA_VERSION = 2

MANIFEST_FILE = "manifest.json"
SPANS_FILE = "spans.jsonl"
PERFETTO_FILE = "trace.perfetto.json"
METRICS_FILE = "metrics.json"
PROMETHEUS_FILE = "metrics.prom"
AUDIT_FILE = "audit.jsonl"
SYSCALLS_FILE = "syscalls.json"
EXPOSURE_FILE = "exposure.json"
VERDICTS_FILE = "verdicts.json"
CACHE_FILE = "cache.json"
PROFILE_FILE = "profile.json"
WORKERS_FILE = "workers.json"

#: Stage-duration deltas smaller than this many seconds never count as
#: perf regressions, whatever the ratio — sub-floor stages are noise.
PERF_ABSOLUTE_FLOOR = 0.05


# -- capture ------------------------------------------------------------------


def _dump_json(path: Path, data: Any) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True, default=repr) + "\n")


def _verdict_records(analysis: ProgramAnalysis) -> List[Dict[str, Any]]:
    records = []
    for phase_analysis in analysis.phases:
        for attack_id, report in sorted(phase_analysis.verdicts.items()):
            records.append(_report_record(report, phase_analysis.phase.name, attack_id))
    return records


def _report_record(
    report: RosaReport, phase: str, attack_id: Optional[int]
) -> Dict[str, Any]:
    return {
        "phase": phase,
        "attack": attack_id,
        "verdict": report.verdict.value,
        "witness": list(report.witness),
        "states_explored": report.states_explored,
        "states_seen": report.states_seen,
        "peak_frontier": report.stats.peak_frontier,
        "max_depth": report.stats.max_depth,
        "elapsed": report.elapsed,
        "from_cache": report.from_cache,
    }


def _syscalls_by_credential(audit) -> Dict[str, Any]:
    """Observed syscall names grouped by the caller's credential tuple."""
    groups: Dict[str, set] = {}
    for record in audit.records:
        uids = ",".join(map(str, record.uids)) if record.uids else "?"
        gids = ",".join(map(str, record.gids)) if record.gids else "?"
        groups.setdefault(f"uid={uids} gid={gids}", set()).add(record.syscall)
    return {
        "total": audit.total,
        "dropped": audit.dropped,
        "by_credential": {key: sorted(names) for key, names in sorted(groups.items())},
    }


def _write_telemetry(root: Path, telemetry: Telemetry) -> List[str]:
    files = [SPANS_FILE, PERFETTO_FILE, METRICS_FILE, PROMETHEUS_FILE]
    if telemetry.audit is not None:
        # Refresh kernel.audit.dropped before any snapshot-bearing
        # artifact: the gauge otherwise only updates on record append,
        # so a ring cleared or absorbed since would export stale.
        telemetry.audit.publish_dropped()
    jsonl = spans_to_jsonl(telemetry.tracer)
    (root / SPANS_FILE).write_text(jsonl + "\n" if jsonl else "")
    (root / PERFETTO_FILE).write_text(
        trace_event_json(telemetry.tracer, telemetry.metrics) + "\n"
    )
    _dump_json(root / METRICS_FILE, telemetry.metrics.snapshot())
    (root / PROMETHEUS_FILE).write_text(metrics_to_prometheus(telemetry.metrics))
    if telemetry.audit is not None:
        audit_jsonl = telemetry.audit.to_jsonl()
        (root / AUDIT_FILE).write_text(audit_jsonl + "\n" if audit_jsonl else "")
        _dump_json(root / SYSCALLS_FILE, _syscalls_by_credential(telemetry.audit))
        files += [AUDIT_FILE, SYSCALLS_FILE]
    return files


def _capture(
    directory: Union[str, Path],
    kind: str,
    program: str,
    telemetry: Telemetry,
    extra_files,
    cli_args: Optional[Dict[str, Any]],
    timestamp: Optional[float],
) -> "RunLedger":
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    files = _write_telemetry(root, telemetry)
    for name, data in extra_files:
        _dump_json(root / name, data)
        files.append(name)
    manifest = {
        "schema": LEDGER_SCHEMA_VERSION,
        "kind": kind,
        "program": program,
        "tool": "privanalyzer",
        "created_unix": time.time() if timestamp is None else timestamp,
        "cli": cli_args or {},
        "files": sorted(files),
    }
    _dump_json(root / MANIFEST_FILE, manifest)
    return RunLedger.load(root)


def capture_analysis(
    directory: Union[str, Path],
    analysis: ProgramAnalysis,
    telemetry: Telemetry,
    cache_stats: Optional[Dict[str, Any]] = None,
    cli_args: Optional[Dict[str, Any]] = None,
    timestamp: Optional[float] = None,
    profiler=None,
    fleet: Optional[Dict[str, Any]] = None,
) -> "RunLedger":
    """Write one ``analyze`` run's artifacts; returns the loaded ledger.

    ``timestamp`` injects the manifest's creation time (tests pass a
    constant; the CLI passes nothing and gets ``time.time()``).
    ``profiler``, when live, adds its report as ``profile.json``;
    ``fleet`` (the engine's :meth:`repro.rosa.pool.Fleet.stats`), when
    non-empty, adds ``workers.json``.
    """
    extra = [
        (EXPOSURE_FILE, analysis_to_dict(analysis)),
        (VERDICTS_FILE, _verdict_records(analysis)),
        (CACHE_FILE, cache_stats or {}),
    ]
    extra += _profile_extra(profiler)
    extra += _fleet_extra(fleet)
    return _capture(
        directory, "analyze", analysis.spec.name, telemetry, extra, cli_args, timestamp
    )


def capture_rosa(
    directory: Union[str, Path],
    report: Union[RosaReport, List[RosaReport]],
    telemetry: Telemetry,
    cli_args: Optional[Dict[str, Any]] = None,
    timestamp: Optional[float] = None,
    profiler=None,
    fleet: Optional[Dict[str, Any]] = None,
) -> "RunLedger":
    """Write one ``rosa`` run's artifacts; returns the loaded ledger.

    ``report`` may be a list (one ``privanalyzer rosa`` invocation over
    several query files, e.g. a ``--jobs`` batch); the manifest's
    program is then the comma-joined query names.
    """
    reports = report if isinstance(report, list) else [report]
    extra = [
        (
            VERDICTS_FILE,
            [_report_record(item, item.query.name, None) for item in reports],
        )
    ]
    extra += _profile_extra(profiler)
    extra += _fleet_extra(fleet)
    program = ",".join(item.query.name or "?" for item in reports)
    return _capture(
        directory, "rosa", program, telemetry, extra, cli_args, timestamp
    )


def _profile_extra(profiler) -> List[Tuple[str, Any]]:
    """The optional ``profile.json`` entry for :func:`_capture`."""
    if profiler is None or not getattr(profiler, "enabled", False):
        return []
    return [(PROFILE_FILE, profiler.to_report())]


def _fleet_extra(fleet) -> List[Tuple[str, Any]]:
    """The optional ``workers.json`` entry for :func:`_capture`."""
    if not fleet:
        return []
    return [(WORKERS_FILE, fleet)]


# -- loading ------------------------------------------------------------------


@dataclasses.dataclass
class RunLedger:
    """One run's artifacts, loaded back from a ledger directory."""

    root: Path
    manifest: Dict[str, Any]
    spans: List[Dict[str, Any]]
    metrics: Dict[str, Any]
    verdicts: List[Dict[str, Any]]
    exposure: Optional[Dict[str, Any]] = None
    syscalls: Optional[Dict[str, Any]] = None
    cache: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, Any]] = None
    workers: Optional[Dict[str, Any]] = None

    @property
    def schema(self) -> int:
        return int(self.manifest.get("schema", 0))

    @property
    def program(self) -> str:
        return str(self.manifest.get("program", "?"))

    def stage_durations(self) -> Dict[str, float]:
        """Total duration (seconds) per span name — the perf profile."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["duration"]
        return totals

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "RunLedger":
        root = Path(directory)
        manifest_path = root / MANIFEST_FILE
        if not manifest_path.exists():
            raise FileNotFoundError(f"{root} is not a run ledger (no {MANIFEST_FILE})")
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as error:
            raise ValueError(f"corrupt {MANIFEST_FILE}: {error}") from error
        if not isinstance(manifest, dict):
            raise ValueError(
                f"corrupt {MANIFEST_FILE}: expected a JSON object, got "
                f"{type(manifest).__name__}"
            )
        schema = manifest.get("schema")
        if not isinstance(schema, int) or isinstance(schema, bool) or schema < 1:
            raise ValueError(
                f"{MANIFEST_FILE} has invalid schema version {schema!r} "
                f"(this tool writes version {LEDGER_SCHEMA_VERSION})"
            )
        if schema > LEDGER_SCHEMA_VERSION:
            raise ValueError(
                f"ledger schema version {schema} is newer than this tool "
                f"understands (max {LEDGER_SCHEMA_VERSION}) — upgrade the "
                f"tool or recapture the run"
            )
        listed = manifest.get("files", [])
        if not isinstance(listed, list):
            raise ValueError(f"{MANIFEST_FILE} 'files' must be a list, got {listed!r}")
        missing = sorted(
            str(name) for name in listed if not (root / str(name)).exists()
        )
        if missing:
            raise ValueError(
                f"ledger is missing artifact file(s) the manifest lists: "
                f"{', '.join(missing)} — recapture the run with --ledger"
            )

        def optional_json(name: str):
            path = root / name
            return json.loads(path.read_text()) if path.exists() else None

        spans_path = root / SPANS_FILE
        spans = (
            [
                json.loads(line)
                for line in spans_path.read_text().splitlines()
                if line.strip()
            ]
            if spans_path.exists()
            else []
        )
        return cls(
            root=root,
            manifest=manifest,
            spans=spans,
            metrics=optional_json(METRICS_FILE) or {},
            verdicts=optional_json(VERDICTS_FILE) or [],
            exposure=optional_json(EXPOSURE_FILE),
            syscalls=optional_json(SYSCALLS_FILE),
            cache=optional_json(CACHE_FILE),
            profile=optional_json(PROFILE_FILE),
            workers=optional_json(WORKERS_FILE),
        )


# -- diffing ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DiffFinding:
    """One observed difference between two ledgers.

    ``severity`` is ``"regression"`` (gates CI), ``"change"`` (worth a
    look, does not gate) or ``"info"``.
    """

    severity: str
    kind: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class LedgerDiff:
    """All findings of one old-vs-new comparison."""

    old: RunLedger
    new: RunLedger
    findings: List[DiffFinding]

    @property
    def regressions(self) -> List[DiffFinding]:
        return [f for f in self.findings if f.severity == "regression"]

    @property
    def clean(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def render(self) -> str:
        lines = [f"ledger diff: {self.old.root} -> {self.new.root}"]
        for finding in self.findings:
            lines.append(
                f"  {finding.severity.upper():<10} [{finding.kind}] {finding.message}"
            )
        changes = sum(1 for f in self.findings if f.severity == "change")
        infos = sum(1 for f in self.findings if f.severity == "info")
        if self.clean and not self.findings:
            lines.append(
                f"  ok: ledgers match ({len(self.new.verdicts)} verdicts, "
                f"{len(self.new.stage_durations())} stages compared)"
            )
        lines.append(
            f"{len(self.regressions)} regression(s), {changes} change(s), "
            f"{infos} info"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "old": str(self.old.root),
                "new": str(self.new.root),
                "findings": [f.to_dict() for f in self.findings],
                "regressions": len(self.regressions),
            },
            indent=2,
            sort_keys=True,
        )


def _diff_verdicts(old: RunLedger, new: RunLedger, findings: List[DiffFinding]) -> None:
    def key(record) -> Tuple:
        return (record["phase"], record["attack"])

    old_map = {key(r): r for r in old.verdicts}
    new_map = {key(r): r for r in new.verdicts}
    for pair in sorted(set(old_map) - set(new_map), key=repr):
        findings.append(
            DiffFinding(
                "regression", "verdict",
                f"phase {pair[0]!r} attack {pair[1]}: verdict vanished "
                f"(was {old_map[pair]['verdict']})",
            )
        )
    for pair in sorted(set(new_map) - set(old_map), key=repr):
        findings.append(
            DiffFinding(
                "regression", "verdict",
                f"phase {pair[0]!r} attack {pair[1]}: new verdict "
                f"{new_map[pair]['verdict']} with no baseline",
            )
        )
    for pair in sorted(set(old_map) & set(new_map), key=repr):
        before, after = old_map[pair], new_map[pair]
        label = f"phase {pair[0]!r} attack {pair[1]}"
        if before["verdict"] != after["verdict"]:
            findings.append(
                DiffFinding(
                    "regression", "verdict",
                    f"{label}: verdict flip {before['verdict']} -> "
                    f"{after['verdict']}",
                )
            )
        elif before["witness"] != after["witness"]:
            findings.append(
                DiffFinding(
                    "change", "verdict",
                    f"{label}: witness changed "
                    f"{' -> '.join(before['witness']) or '(none)'} to "
                    f"{' -> '.join(after['witness']) or '(none)'}",
                )
            )


def _diff_exposure(
    old: RunLedger, new: RunLedger, tolerance: float, findings: List[DiffFinding]
) -> None:
    if old.exposure is None or new.exposure is None:
        if (old.exposure is None) != (new.exposure is None):
            findings.append(
                DiffFinding(
                    "regression", "exposure",
                    "exposure table present in only one ledger",
                )
            )
        return
    old_windows = old.exposure.get("windows", {})
    new_windows = new.exposure.get("windows", {})
    for attack in sorted(set(old_windows) | set(new_windows)):
        before = old_windows.get(attack)
        after = new_windows.get(attack)
        if before is None or after is None:
            findings.append(
                DiffFinding(
                    "regression", "exposure",
                    f"attack {attack}: window present in only one ledger",
                )
            )
            continue
        if abs(after - before) > tolerance:
            findings.append(
                DiffFinding(
                    "regression", "exposure",
                    f"attack {attack}: vulnerability window {before:.4%} -> "
                    f"{after:.4%} (delta {after - before:+.4%}, "
                    f"tolerance {tolerance:.4%})",
                )
            )
    before_inv = old.exposure.get("invulnerable_window", 0.0)
    after_inv = new.exposure.get("invulnerable_window", 0.0)
    if abs(after_inv - before_inv) > tolerance:
        findings.append(
            DiffFinding(
                "regression", "exposure",
                f"invulnerable window {before_inv:.4%} -> {after_inv:.4%} "
                f"(delta {after_inv - before_inv:+.4%})",
            )
        )
    old_phases = {p["name"]: p for p in old.exposure.get("phases", [])}
    new_phases = {p["name"]: p for p in new.exposure.get("phases", [])}
    for name in sorted(set(old_phases) ^ set(new_phases)):
        where = "vanished" if name in old_phases else "appeared"
        findings.append(
            DiffFinding("regression", "exposure", f"phase {name!r} {where}")
        )
    for name in sorted(set(old_phases) & set(new_phases)):
        before, after = old_phases[name], new_phases[name]
        for field in ("privileges", "uids", "gids"):
            if before.get(field) != after.get(field):
                findings.append(
                    DiffFinding(
                        "regression", "exposure",
                        f"phase {name!r}: {field} changed "
                        f"{before.get(field)} -> {after.get(field)}",
                    )
                )
        if abs(after.get("percent", 0.0) - before.get("percent", 0.0)) > tolerance * 100.0:
            findings.append(
                DiffFinding(
                    "regression", "exposure",
                    f"phase {name!r}: share of execution "
                    f"{before.get('percent', 0.0):.2f}% -> "
                    f"{after.get('percent', 0.0):.2f}%",
                )
            )


def _diff_stages(
    old: RunLedger, new: RunLedger, perf_tolerance: float, findings: List[DiffFinding]
) -> None:
    before = old.stage_durations()
    after = new.stage_durations()
    for name in sorted(set(before) ^ set(after)):
        where = "vanished from" if name in before else "appeared in"
        findings.append(
            DiffFinding("change", "perf", f"stage {name!r} {where} the trace")
        )
    for name in sorted(set(before) & set(after)):
        old_total, new_total = before[name], after[name]
        if (
            new_total > old_total * (1.0 + perf_tolerance)
            and new_total - old_total > PERF_ABSOLUTE_FLOOR
        ):
            ratio = new_total / old_total if old_total else float("inf")
            findings.append(
                DiffFinding(
                    "regression", "perf",
                    f"stage {name!r}: {old_total * 1000:.1f} ms -> "
                    f"{new_total * 1000:.1f} ms ({ratio:.1f}x, tolerance "
                    f"{1.0 + perf_tolerance:.1f}x)",
                )
            )


def _diff_profile(
    old: RunLedger, new: RunLedger, perf_tolerance: float, findings: List[DiffFinding]
) -> None:
    """Hot-path profile sections: per-stack wall-time regressions.

    Profiles are optional (only ``--profile-out`` runs carry them), so a
    section present in just one ledger is informational, not a gate.
    """
    if old.profile is None or new.profile is None:
        if (old.profile is None) != (new.profile is None):
            findings.append(
                DiffFinding(
                    "info", "profile",
                    "hot-path profile present in only one ledger "
                    "(capture both with --profile-out to compare)",
                )
            )
        return
    old_schema = old.profile.get("schema")
    new_schema = new.profile.get("schema")
    if old_schema != new_schema:
        findings.append(
            DiffFinding(
                "info", "profile",
                f"profile schema {old_schema!r} vs {new_schema!r} — "
                f"not comparable, recapture the older run",
            )
        )
        return

    def by_stack(profile) -> Dict[str, Dict[str, Any]]:
        return {
            ";".join(record["stack"]): record
            for record in profile.get("records", [])
        }

    before = by_stack(old.profile)
    after = by_stack(new.profile)
    for stack in sorted(set(before) ^ set(after)):
        where = "vanished from" if stack in before else "appeared in"
        findings.append(
            DiffFinding("info", "profile", f"hot path {stack!r} {where} the profile")
        )
    for stack in sorted(set(before) & set(after)):
        old_total = float(before[stack].get("seconds", 0.0))
        new_total = float(after[stack].get("seconds", 0.0))
        if (
            new_total > old_total * (1.0 + perf_tolerance)
            and new_total - old_total > PERF_ABSOLUTE_FLOOR
        ):
            ratio = new_total / old_total if old_total else float("inf")
            findings.append(
                DiffFinding(
                    "regression", "profile",
                    f"hot path {stack!r}: {old_total * 1000:.1f} ms -> "
                    f"{new_total * 1000:.1f} ms ({ratio:.1f}x, tolerance "
                    f"{1.0 + perf_tolerance:.1f}x)",
                )
            )


def _diff_workers(
    old: RunLedger, new: RunLedger, perf_tolerance: float, findings: List[DiffFinding]
) -> None:
    """Fleet sections: per-worker slowdowns and load-imbalance drift.

    Only ``--jobs`` runs carry ``workers.json``, so a section present in
    just one ledger is informational.  Per-worker execute time gates
    like any other perf figure; the worker *set* changing (a different
    ``--jobs``, a renamed pool) and the load balance degrading are
    changes worth a look, not gates — wall-clock regressions already
    surface via stages/profile.
    """
    if old.workers is None or new.workers is None:
        if (old.workers is None) != (new.workers is None):
            findings.append(
                DiffFinding(
                    "info", "workers",
                    "fleet telemetry present in only one ledger "
                    "(capture both from --jobs runs to compare workers)",
                )
            )
        return
    before = old.workers.get("workers", {})
    after = new.workers.get("workers", {})
    for worker in sorted(set(before) ^ set(after)):
        where = "vanished" if worker in before else "appeared"
        findings.append(
            DiffFinding("change", "workers", f"{worker} {where} from the fleet")
        )
    for worker in sorted(set(before) & set(after)):
        old_exec = float(before[worker].get("execute_seconds", 0.0))
        new_exec = float(after[worker].get("execute_seconds", 0.0))
        if (
            new_exec > old_exec * (1.0 + perf_tolerance)
            and new_exec - old_exec > PERF_ABSOLUTE_FLOOR
        ):
            ratio = new_exec / old_exec if old_exec else float("inf")
            findings.append(
                DiffFinding(
                    "regression", "workers",
                    f"{worker}: execute {old_exec * 1000:.1f} ms -> "
                    f"{new_exec * 1000:.1f} ms ({ratio:.1f}x, tolerance "
                    f"{1.0 + perf_tolerance:.1f}x)",
                )
            )
        old_tasks = int(before[worker].get("tasks", 0))
        new_tasks = int(after[worker].get("tasks", 0))
        if old_tasks != new_tasks:
            findings.append(
                DiffFinding(
                    "info", "workers",
                    f"{worker}: tasks {old_tasks} -> {new_tasks}",
                )
            )

    def imbalance(workers: Dict[str, Any]) -> float:
        # max/mean execute time across the fleet: 1.0 is a perfect
        # balance, 4.0 means one worker carried a 4-worker pool.
        times = [
            float(stats.get("execute_seconds", 0.0)) for stats in workers.values()
        ]
        mean = sum(times) / len(times) if times else 0.0
        return (max(times) / mean) if mean > 0.0 else 1.0

    if before and after:
        old_skew = imbalance(before)
        new_skew = imbalance(after)
        if new_skew > old_skew * (1.0 + perf_tolerance) and new_skew - old_skew > 0.5:
            findings.append(
                DiffFinding(
                    "change", "workers",
                    f"load imbalance (max/mean execute) {old_skew:.2f} -> "
                    f"{new_skew:.2f} — the fleet is draining unevenly",
                )
            )


def _diff_syscalls(old: RunLedger, new: RunLedger, findings: List[DiffFinding]) -> None:
    if old.syscalls is None or new.syscalls is None:
        if (old.syscalls is None) != (new.syscalls is None):
            findings.append(
                DiffFinding(
                    "change", "syscalls",
                    "syscall surface recorded in only one ledger",
                )
            )
        return
    before = old.syscalls.get("by_credential", {})
    after = new.syscalls.get("by_credential", {})
    for cred in sorted(set(before) ^ set(after)):
        where = "vanished" if cred in before else "appeared"
        findings.append(
            DiffFinding(
                "regression", "syscalls", f"credential phase {cred} {where}"
            )
        )
    for cred in sorted(set(before) & set(after)):
        added = sorted(set(after[cred]) - set(before[cred]))
        removed = sorted(set(before[cred]) - set(after[cred]))
        if added:
            findings.append(
                DiffFinding(
                    "regression", "syscalls",
                    f"{cred}: newly observed syscalls {', '.join(added)}",
                )
            )
        if removed:
            findings.append(
                DiffFinding(
                    "regression", "syscalls",
                    f"{cred}: syscalls vanished {', '.join(removed)}",
                )
            )
    if new.syscalls.get("dropped", 0) and not old.syscalls.get("dropped", 0):
        findings.append(
            DiffFinding(
                "change", "syscalls",
                f"audit ring started dropping records "
                f"({new.syscalls['dropped']} evicted) — the surface above "
                f"may be incomplete",
            )
        )


def _diff_counters(old: RunLedger, new: RunLedger, findings: List[DiffFinding]) -> None:
    """Deterministic counters (VM instructions, syscall counts) as changes."""
    for name in sorted(set(old.metrics) & set(new.metrics)):
        before, after = old.metrics[name], new.metrics[name]
        if before.get("type") != "counter" or after.get("type") != "counter":
            continue
        if before.get("value") != after.get("value"):
            findings.append(
                DiffFinding(
                    "change", "metrics",
                    f"counter {name}: {before.get('value')} -> "
                    f"{after.get('value')}",
                )
            )


def diff_ledgers(
    old: Union[RunLedger, str, Path],
    new: Union[RunLedger, str, Path],
    tolerance: float = 0.0,
    perf_tolerance: float = 1.0,
) -> LedgerDiff:
    """Structurally compare two ledgers; regressions gate (see CLI).

    ``tolerance`` bounds exposure-fraction drift (0–1 scale);
    ``perf_tolerance`` is the allowed relative slow-down per stage
    (1.0 = may take twice as long), with deltas under
    :data:`PERF_ABSOLUTE_FLOOR` seconds always forgiven.
    """
    if not isinstance(old, RunLedger):
        old = RunLedger.load(old)
    if not isinstance(new, RunLedger):
        new = RunLedger.load(new)
    findings: List[DiffFinding] = []
    if old.schema != new.schema:
        findings.append(
            DiffFinding(
                "regression", "manifest",
                f"schema version {old.schema} vs {new.schema} — regenerate "
                f"the older ledger",
            )
        )
        return LedgerDiff(old=old, new=new, findings=findings)
    if old.manifest.get("kind") != new.manifest.get("kind"):
        findings.append(
            DiffFinding(
                "regression", "manifest",
                f"run kind {old.manifest.get('kind')!r} vs "
                f"{new.manifest.get('kind')!r}",
            )
        )
    if old.program != new.program:
        findings.append(
            DiffFinding(
                "regression", "manifest",
                f"program {old.program!r} vs {new.program!r}",
            )
        )
    _diff_verdicts(old, new, findings)
    _diff_exposure(old, new, tolerance, findings)
    _diff_stages(old, new, perf_tolerance, findings)
    _diff_profile(old, new, perf_tolerance, findings)
    _diff_workers(old, new, perf_tolerance, findings)
    _diff_syscalls(old, new, findings)
    _diff_counters(old, new, findings)
    return LedgerDiff(old=old, new=new, findings=findings)
