"""The ``privanalyzer`` command-line interface.

Subcommands:

* ``list`` — the built-in program models (Table II + refactors);
* ``analyze <program>`` — run the full pipeline on a built-in model or a
  ``.privc`` source file, printing the Table-III-style report (or
  Markdown/JSON/CSV with ``--format``);
* ``hints <program>`` — refactoring guidance modelled on §VII-D/E;
* ``rosa <file>...`` — check Maude-style query files (Figure 2/4
  syntax); ``--jobs N`` fans distinct queries over a process pool whose
  workers report back telemetry capsules (merged spans, metrics,
  profiles — one Perfetto track per worker);
* ``fuzz`` — run the conformance testkit's seeded differential/metamorphic
  campaign; failures shrink to replayable repro files (docs/TESTING.md);
* ``profile`` — run a program or query under the hot-path profiler and
  print per-rule / per-opcode cost attribution
  (``--out DIR`` writes flamegraph + JSON artifacts);
* ``corpus build`` — materialize a seeded, reproducible scenario corpus
  (family-conditioned generated programs + exemplars + the paper's
  built-ins) into a directory (docs/CORPUS.md);
* ``peers`` — sweep a corpus into privilege profiles (content-addressed
  cache, ``--jobs`` pooling) and report peer-group outliers: "which
  programs hold CAP_SYS_ADMIN longer than their peers";
* ``table3`` / ``table5`` — regenerate the paper's headline tables.

Observability (see ``docs/OBSERVABILITY.md``): ``--trace`` records
per-stage spans (``--trace-out`` writes them as JSONL, ``--perfetto-out``
as Chrome trace-event JSON), ``--profile`` prints a per-stage timing
table to stderr, ``--metrics-out``/``--prometheus-out`` export the
metrics registry, ``--audit-out`` dumps the simulated kernel's syscall
audit trail, ``--progress`` renders live ROSA search progress, and
``--verbose``/``--quiet`` control stderr logging.  ``--profile-out DIR``
attaches the hot-path profiler (per rewrite rule, VM opcode, engine
worker — see docs/PERFORMANCE.md) and writes
``DIR/profile.collapsed`` (flamegraph.pl format) plus
``DIR/profile.json``.  ``--ledger DIR``
captures the whole run as a versioned artifact directory that
``privanalyzer diff OLD NEW`` compares structurally (verdict flips,
exposure drift, per-stage slow-downs, syscall-surface changes), exiting
non-zero on regression.

Examples::

    privanalyzer analyze passwd
    privanalyzer analyze passwd --trace --trace-out trace.jsonl --profile
    privanalyzer analyze passwd --ledger out/run1
    privanalyzer diff out/run1 out/run2
    privanalyzer analyze agent.privc --caps CapSetuid,CapDacReadSearch
    privanalyzer rosa examples/queries/figure2.rosa --progress
    privanalyzer rosa examples/queries/*.rosa --jobs 4 --perfetto-out fleet.json
    privanalyzer table5 --format markdown
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Optional

from repro.caps import CapabilitySet
from repro.core import PrivAnalyzer
from repro.core import report as report_mod
from repro.programs import PROGRAM_MODULES, spec_by_name
from repro.programs.common import ProgramSpec
from repro.telemetry import (
    Telemetry,
    metrics_to_jsonl,
    metrics_to_prometheus,
    render_profile,
    render_progress,
    render_span_tree,
    spans_to_jsonl,
    trace_event_json,
)


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """The telemetry flags shared by analyze / rosa / table commands."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", action="store_true",
        help="record pipeline spans; without --trace-out, print the span "
        "tree to stderr",
    )
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write recorded spans as JSONL to PATH (implies --trace)",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="print a per-stage timing table to stderr (implies --trace)",
    )
    group.add_argument(
        "--perfetto-out", metavar="PATH", default=None,
        help="write the trace as Chrome trace-event / Perfetto JSON to PATH "
        "(implies --trace; open it in ui.perfetto.dev)",
    )
    group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics-registry snapshot as JSONL to PATH",
    )
    group.add_argument(
        "--prometheus-out", metavar="PATH", default=None,
        help="write the metrics registry in Prometheus text exposition "
        "format to PATH",
    )
    group.add_argument(
        "--audit-out", metavar="PATH", default=None,
        help="record every simulated-kernel syscall and write the audit "
        "trail as JSONL to PATH",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="render live ROSA search progress (states/s, depth, budget "
        "used) to stderr while long searches run",
    )
    group.add_argument(
        "--progress-interval", type=int, default=None, metavar="N",
        help="expansions between two progress samples (default 1024)",
    )
    group.add_argument(
        "--profile-out", metavar="DIR", default=None,
        help="attach the hot-path profiler and write DIR/profile.collapsed "
        "(flamegraph.pl format) and DIR/profile.json",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """ROSA query-engine flags shared by analyze / table commands."""
    group = parser.add_argument_group("query engine (see docs/PERFORMANCE.md)")
    group.add_argument(
        "--no-query-cache", action="store_true",
        help="disable ROSA result caching; every query searches from scratch",
    )
    group.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run distinct ROSA searches on a pool of N worker processes "
        "(default: serial, which is fastest at repro-scale budgets)",
    )
    group.add_argument(
        "--verdict-store", metavar="DIR", default=None,
        help="back the query engine with the fleet-wide shared verdict "
        "store at DIR: distinct searches run once across every process "
        "sharing the directory (see docs/SERVING.md)",
    )


def _engine_kwargs(args) -> dict:
    """PrivAnalyzer keyword arguments derived from the engine flags."""
    from repro.rosa.engine import ParallelPolicy

    kwargs: dict = {
        "use_query_cache": not getattr(args, "no_query_cache", False),
        "verdict_store": getattr(args, "verdict_store", None),
    }
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        kwargs["parallel"] = ParallelPolicy(
            mode="process" if jobs > 1 else "serial", max_workers=jobs
        )
    return kwargs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privanalyzer",
        description="Measure how effectively a program uses Linux privileges "
        "(PrivAnalyzer, DSN 2019 reproduction).",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="log pipeline progress to stderr (DEBUG level)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in program models")

    analyze = sub.add_parser("analyze", help="run the full pipeline on a program")
    analyze.add_argument("program", help="built-in name or path to a .privc file")
    analyze.add_argument(
        "--caps",
        default=None,
        help="comma-separated permitted capability set (required for .privc files)",
    )
    analyze.add_argument("--arg", action="append", default=[], dest="argv",
                         help="program argument (repeatable)")
    analyze.add_argument("--stdin", action="append", default=[],
                         help="line typed at a prompt (repeatable)")
    analyze.add_argument("--uid", type=int, default=1000)
    analyze.add_argument("--gid", type=int, default=1000)
    analyze.add_argument(
        "--format", choices=("table", "markdown", "json", "csv"), default="table"
    )
    analyze.add_argument("--optimize", action="store_true",
                         help="run IR optimisation before the analyses")
    analyze.add_argument(
        "--callgraph", choices=("address-taken", "type-matched"),
        default="address-taken",
        help="indirect-call resolution for AutoPriv",
    )
    _add_observability_flags(analyze)
    _add_engine_flags(analyze)
    _add_ledger_flag(analyze)

    hints = sub.add_parser("hints", help="refactoring guidance (paper §VII-D/E)")
    hints.add_argument("program")
    hints.add_argument(
        "--blame", action="store_true",
        help="also run capability blame analysis per vulnerable phase",
    )

    rosa = sub.add_parser("rosa", help="check Maude-style ROSA query files")
    rosa.add_argument(
        "files", nargs="+", metavar="FILE",
        help="path(s) to queries in Figure 2/4 syntax",
    )
    rosa.add_argument("--max-states", type=int, default=200_000)
    rosa.add_argument("--max-seconds", type=float, default=60.0)
    rosa.add_argument(
        "--explain", action="store_true",
        help="narrate the witness step by step when vulnerable "
        "(incompatible with --jobs > 1)",
    )
    rosa.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="answer distinct queries on a pool of N worker processes; "
        "each worker returns a telemetry capsule merged into this "
        "session's trace/metrics/profile (one Perfetto track per worker)",
    )
    _add_observability_flags(rosa)
    _add_ledger_flag(rosa)

    diff = sub.add_parser(
        "diff",
        help="structurally compare two run ledgers; exit 1 on regression",
    )
    diff.add_argument("old", help="baseline ledger directory (from --ledger)")
    diff.add_argument("new", help="candidate ledger directory")
    diff.add_argument(
        "--tolerance", type=float, default=0.0, metavar="FRACTION",
        help="allowed exposure-fraction drift, 0-1 scale (default: exact)",
    )
    diff.add_argument(
        "--perf-tolerance", type=float, default=1.0, metavar="RATIO",
        help="allowed per-stage relative slow-down (1.0 = may take twice "
        "as long; default 1.0)",
    )
    diff.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings as a text report or a JSON document",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="run the conformance testkit's seeded fuzz campaign "
        "(see docs/TESTING.md)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; each (family, run) derives its own generator "
        "from it (default 0)",
    )
    fuzz.add_argument(
        "--runs", type=int, default=100,
        help="cases per oracle family (default 100)",
    )
    fuzz.add_argument(
        "--max-size", type=int, default=20, metavar="N",
        help="generated-case size budget: statements per program, "
        "queries per batch (default 20)",
    )
    fuzz.add_argument(
        "--oracle", action="append", default=[], metavar="FAMILY",
        help="oracle family to run (repeatable; default: the differential "
        "families cache, pools, vm, ledger; 'all' adds the metamorphic "
        "properties)",
    )
    fuzz.add_argument(
        "--artifacts", metavar="DIR", default="artifacts/fuzz",
        help="directory for shrunk repro files (default artifacts/fuzz)",
    )
    fuzz.add_argument(
        "--inject", metavar="FAULT", default=None,
        help="install a named artificial bug for the whole campaign, to "
        "demonstrate the oracles catch it (see repro.testkit.faults)",
    )
    fuzz.add_argument(
        "--replay", metavar="FILE", default=None,
        help="re-run one repro file instead of a campaign; exits 1 while "
        "the failure still reproduces",
    )

    profile = sub.add_parser(
        "profile",
        help="run a program or query under the hot-path profiler "
        "(per rule, VM opcode; see docs/PERFORMANCE.md)",
    )
    profile.add_argument(
        "target", help="built-in program name or path to a .rosa query file"
    )
    profile.add_argument(
        "--out", metavar="DIR", default=None,
        help="also write DIR/profile.collapsed (flamegraph.pl format) and "
        "DIR/profile.json",
    )
    profile.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="attacker syscall-message repeat for program targets — the "
        "bench's repeatN workloads (default 1)",
    )
    profile.add_argument("--max-states", type=int, default=200_000)
    profile.add_argument("--max-seconds", type=float, default=60.0)
    profile.add_argument(
        "--limit", type=int, default=30, metavar="N",
        help="rows in the printed cost table (default 30)",
    )

    corpus = sub.add_parser(
        "corpus",
        help="build and inspect scenario corpora (see docs/CORPUS.md)",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_build = corpus_sub.add_parser(
        "build", help="materialize a seeded, reproducible corpus directory"
    )
    corpus_build.add_argument(
        "--out", metavar="DIR", required=True,
        help="target directory (manifest.json + programs/*.privc)",
    )
    corpus_build.add_argument(
        "--seed", type=int, default=0,
        help="corpus seed; same seed, same corpus, byte for byte (default 0)",
    )
    corpus_build.add_argument(
        "--size", type=int, default=200,
        help="number of generated programs; built-ins and exemplars ride "
        "on top (default 200)",
    )
    corpus_build.add_argument(
        "--families", default=None, metavar="LIST",
        help="comma-separated family subset (default: all five; see "
        "docs/CORPUS.md)",
    )
    corpus_build.add_argument(
        "--violators", type=int, default=5, metavar="N",
        help="generated least-privilege violators to plant, spread evenly "
        "(default 5)",
    )
    corpus_build.add_argument(
        "--no-exemplars", action="store_true",
        help="leave out the hand-modeled exemplar programs",
    )
    corpus_build.add_argument(
        "--no-builtins", action="store_true",
        help="leave out the paper's built-in programs",
    )

    peers = sub.add_parser(
        "peers",
        help="peer-group least-privilege outlier report over a corpus "
        "(see docs/CORPUS.md)",
    )
    peers.add_argument(
        "corpus", help="materialized corpus directory (from `corpus build`)"
    )
    peers.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed profile cache; a warm sweep over an "
        "unchanged corpus profiles nothing",
    )
    peers.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="profile cache misses on N pool workers (default 1: serial)",
    )
    peers.add_argument(
        "--pool", choices=("thread", "process"), default="thread",
        help="worker pool flavour for --jobs > 1 (default thread)",
    )
    peers.add_argument(
        "--clusters", type=int, default=None, metavar="K",
        help="peer groups to form (default: about sqrt(n/2))",
    )
    peers.add_argument(
        "--seed", type=int, default=0,
        help="clustering seed; same seed + corpus, same report (default 0)",
    )
    peers.add_argument(
        "--cap", default=None, metavar="CAP",
        help="restrict capability findings to one capability, e.g. "
        "CapSysAdmin",
    )
    peers.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="outlier rows in the text report (default 10)",
    )
    peers.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report as readable text or a JSON document",
    )
    peers.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to PATH (whatever --format says)",
    )
    peers.add_argument("--max-states", type=int, default=20_000)
    peers.add_argument("--max-seconds", type=float, default=10.0)
    peers.add_argument(
        "--verdict-store", metavar="DIR", default=None,
        help="shared verdict store backing every sweep worker's query "
        "engine (fleet-wide compute-once; see docs/SERVING.md)",
    )
    _add_observability_flags(peers)

    serve = sub.add_parser(
        "serve",
        help="run the analysis-as-a-service control plane "
        "(see docs/SERVING.md)",
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="shared verdict store directory (created if missing); every "
        "verdict the fleet computes is published here exactly once",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port; 0 (the default) picks a free one — read it back "
        "with --port-file",
    )
    serve.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound host:port to PATH once listening (for "
        "scripts starting the server with --port 0)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard each request's distinct cold searches over N process-"
        "pool workers (default 1: serial per request; concurrency across "
        "requests is always on)",
    )

    for table in ("table3", "table5"):
        table_parser = sub.add_parser(table, help=f"regenerate the paper's {table}")
        table_parser.add_argument(
            "--format", choices=("table", "markdown", "csv"), default="table"
        )
        _add_observability_flags(table_parser)
        _add_engine_flags(table_parser)

    return parser


def _add_ledger_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="capture this run as a versioned artifact directory (manifest, "
        "spans, metrics, audit trail, exposure table, verdicts) for "
        "`privanalyzer diff`",
    )


def _telemetry_from_args(args) -> Optional[Telemetry]:
    """Build the telemetry bundle the flags ask for, or ``None``."""
    want_ledger = getattr(args, "ledger", None) is not None
    want_trace = bool(
        getattr(args, "trace", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "profile", False)
        or getattr(args, "perfetto_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "prometheus_out", None)
        or want_ledger
    )
    want_audit = getattr(args, "audit_out", None) is not None or want_ledger
    if not want_trace and not want_audit:
        return None
    return Telemetry.enabled(audit=want_audit)


def _progress_from_args(args):
    """The stderr progress callback ``--progress`` asks for, or ``None``."""
    if not getattr(args, "progress", False):
        return None

    def emit(sample) -> None:
        print(render_progress(sample, label="rosa"), file=sys.stderr)

    return emit


def _progress_interval_from_args(args) -> int:
    from repro.rewriting import PROGRESS_INTERVAL

    interval = getattr(args, "progress_interval", None)
    return interval if interval and interval > 0 else PROGRESS_INTERVAL


def _profiler_from_args(args):
    """A live :class:`~repro.telemetry.Profiler` when ``--profile-out`` asks."""
    if getattr(args, "profile_out", None) is None:
        return None
    from repro.telemetry import Profiler

    return Profiler()


def _export_profile(args, profiler) -> None:
    """Write the profile artifacts ``--profile-out`` asked for."""
    directory = getattr(args, "profile_out", None)
    if directory is None or profiler is None:
        return
    _write_profile_artifacts(directory, profiler)
    print(f"profile written to {directory}", file=sys.stderr)


def _write_profile_artifacts(directory, profiler) -> None:
    """``profile.collapsed`` + ``profile.json`` under ``directory``."""
    target = Path(directory)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise SystemExit(
            f"privanalyzer: cannot create {directory}: {error.strerror}"
        )
    collapsed = profiler.to_collapsed()
    _write_or_die(str(target / "profile.collapsed"), collapsed + "\n" if collapsed else "")
    _write_or_die(str(target / "profile.json"), profiler.to_json() + "\n")


def _manifest_args(args) -> dict:
    """The parsed CLI arguments, JSON-safe, for the ledger manifest."""
    safe = {}
    for key, value in sorted(vars(args).items()):
        if value is None or isinstance(value, (bool, int, float, str)):
            safe[key] = value
        elif isinstance(value, list):
            safe[key] = [str(item) for item in value]
    return safe


def _export_telemetry(args, telemetry: Optional[Telemetry]) -> None:
    """Honour --trace-out / --trace / --profile / --audit-out after a command."""
    if telemetry is None:
        return
    if telemetry.audit is not None:
        # kernel.audit.dropped refreshes on append only; republish at
        # export time so the written snapshots carry the final figure.
        telemetry.audit.publish_dropped()
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        jsonl = spans_to_jsonl(telemetry.tracer)
        _write_or_die(trace_out, jsonl + "\n" if jsonl else "")
    elif getattr(args, "trace", False):
        print(render_span_tree(telemetry.tracer), file=sys.stderr)
    if getattr(args, "profile", False):
        print(render_profile(telemetry.tracer), file=sys.stderr)
    perfetto_out = getattr(args, "perfetto_out", None)
    if perfetto_out:
        _write_or_die(
            perfetto_out,
            trace_event_json(telemetry.tracer, telemetry.metrics) + "\n",
        )
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        jsonl = metrics_to_jsonl(telemetry.metrics)
        _write_or_die(metrics_out, jsonl + "\n" if jsonl else "")
    prometheus_out = getattr(args, "prometheus_out", None)
    if prometheus_out:
        _write_or_die(prometheus_out, metrics_to_prometheus(telemetry.metrics))
    audit_out = getattr(args, "audit_out", None)
    if audit_out and telemetry.audit is not None:
        jsonl = telemetry.audit.to_jsonl()
        _write_or_die(audit_out, jsonl + "\n" if jsonl else "")


def _write_or_die(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as error:
        raise SystemExit(f"privanalyzer: cannot write {path}: {error.strerror}")


def _configure_logging(args) -> None:
    """Wire the ``repro`` root logger to stderr per --verbose/--quiet."""
    level = logging.WARNING
    if getattr(args, "verbose", False):
        level = logging.DEBUG
    elif getattr(args, "quiet", False):
        level = logging.ERROR
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    # Re-bind to the *current* stderr on every invocation (tests and
    # embedders may have swapped it since the last run).
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli_handler", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler._repro_cli_handler = True
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger.addHandler(handler)


def _resolve_spec(args) -> ProgramSpec:
    if args.program in PROGRAM_MODULES:
        return spec_by_name(args.program)
    path = Path(args.program)
    if not path.exists():
        raise SystemExit(
            f"privanalyzer: {args.program!r} is neither a built-in program "
            f"({', '.join(sorted(PROGRAM_MODULES))}) nor a file"
        )
    if args.caps is None:
        raise SystemExit("privanalyzer: --caps is required for .privc files")
    return ProgramSpec(
        name=path.stem,
        description=f"user program from {path}",
        source=path.read_text(),
        permitted=CapabilitySet.parse(args.caps),
        uid=args.uid,
        gid=args.gid,
        argv=tuple(args.argv),
        stdin=tuple(args.stdin),
    )


def _cmd_list(args, out) -> int:
    print(f"{'name':<12} {'permitted set':<60} description", file=out)
    for name in sorted(PROGRAM_MODULES):
        spec = spec_by_name(name)
        print(f"{name:<12} {spec.permitted.describe():<60} {spec.description}", file=out)
    return 0


def _capture_ledger(args, telemetry: Optional[Telemetry], capture) -> None:
    """Write the run ledger ``--ledger`` asked for (``capture(directory)``)."""
    directory = getattr(args, "ledger", None)
    if not directory:
        return
    if telemetry is None:  # pragma: no cover - --ledger implies telemetry
        raise SystemExit("privanalyzer: --ledger needs telemetry enabled")
    try:
        capture(directory)
    except OSError as error:
        raise SystemExit(
            f"privanalyzer: cannot write ledger {directory}: {error.strerror}"
        )
    print(f"run ledger written to {directory}", file=sys.stderr)


def _cmd_analyze(args, out, telemetry: Optional[Telemetry] = None) -> int:
    from repro.core import ledger as ledger_mod

    spec = _resolve_spec(args)
    profiler = _profiler_from_args(args)
    analyzer = PrivAnalyzer(
        indirect_targets_filter=args.callgraph, optimize=args.optimize,
        telemetry=telemetry, progress=_progress_from_args(args),
        progress_interval=getattr(args, "progress_interval", None),
        profiler=profiler,
        **_engine_kwargs(args),
    )
    analysis = analyzer.analyze(spec)
    _export_profile(args, profiler)
    _capture_ledger(
        args, telemetry,
        lambda directory: ledger_mod.capture_analysis(
            directory, analysis, telemetry,
            cache_stats=analyzer.engine.cache_stats(),
            cli_args=_manifest_args(args),
            profiler=profiler,
            fleet=analyzer.engine.fleet.stats() or None,
        ),
    )
    if args.format == "table":
        print(analysis.render_table(), file=out)
        print(file=out)
        print(report_mod.summary_table([analysis]), file=out)
    elif args.format == "markdown":
        print(report_mod.to_markdown(analysis), file=out)
    elif args.format == "json":
        print(report_mod.to_json(analysis), file=out)
    else:
        print(report_mod.to_csv([analysis]), end="", file=out)
    return 0


def _cmd_hints(args, out) -> int:
    spec = spec_by_name(args.program) if args.program in PROGRAM_MODULES else None
    if spec is None:
        raise SystemExit(f"privanalyzer: unknown program {args.program!r}")
    analysis = PrivAnalyzer().analyze(spec)
    hints = report_mod.refactoring_hints(analysis)
    if not hints:
        print(f"{spec.name}: no refactoring hints — privilege use looks tight.", file=out)
    else:
        print(f"Refactoring hints for {spec.name}:", file=out)
        for hint in hints:
            print(f"  - {hint}", file=out)
    if args.blame:
        from repro.core.blame import render_blame

        print(file=out)
        print(render_blame(analysis), file=out)
    return 0


def _cmd_rosa(args, out, telemetry: Optional[Telemetry] = None) -> int:
    from repro.core import ledger as ledger_mod
    from repro.rewriting import SearchBudget
    from repro.rosa import check, explain_witness
    from repro.rosa.dsl import DslQuerySpec, parse_query
    from repro.telemetry.tracing import NULL_TRACER

    jobs = args.jobs or 1
    if jobs > 1 and args.explain:
        raise SystemExit(
            "privanalyzer: --explain needs the serial searcher "
            "(witness states do not cross the pool); drop --jobs"
        )
    parsed = []
    for name in args.files:
        try:
            text = Path(name).read_text()
        except OSError as error:
            raise SystemExit(f"privanalyzer: cannot read {name}: {error.strerror}")
        parsed.append((parse_query(text, name=Path(name).stem), text))
    budget = SearchBudget(max_states=args.max_states, max_seconds=args.max_seconds)
    profiler = _profiler_from_args(args)
    fleet = None
    if jobs > 1:
        from repro.rosa.engine import ParallelPolicy, QueryEngine, QueryRequest

        engine = QueryEngine(
            budget=budget,
            cache=None,
            parallel=ParallelPolicy(mode="process", max_workers=jobs),
            telemetry=telemetry,
            progress=_progress_from_args(args),
            progress_interval=_progress_interval_from_args(args),
            profiler=profiler,
        )
        reports = engine.run_queries(
            [
                QueryRequest(query, spec=DslQuerySpec(text, query.name))
                for query, text in parsed
            ]
        )
        fleet = engine.fleet.stats() or None
    else:
        tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
        reports = [
            check(
                query, budget, track_states=args.explain, tracer=tracer,
                progress=_progress_from_args(args),
                progress_interval=_progress_interval_from_args(args),
                profiler=profiler,
            )
            for query, _ in parsed
        ]
    _export_profile(args, profiler)
    _capture_ledger(
        args, telemetry,
        lambda directory: ledger_mod.capture_rosa(
            directory, reports if len(reports) > 1 else reports[0], telemetry,
            cli_args=_manifest_args(args), profiler=profiler, fleet=fleet,
        ),
    )
    for report in reports:
        print(report.summary(), file=out)
        # ✗ and ⊙ verdicts come with their cost: an unreachable/undecided
        # answer that took the whole budget reads very differently from one
        # that exhausted a tiny state space (paper §VIII).
        print(report.cost_line(), file=out)
        if args.explain and report.vulnerable:
            print(explain_witness(report), file=out)
    return 0 if not any(report.vulnerable for report in reports) else 1


def _cmd_diff(args, out) -> int:
    from repro.core import ledger as ledger_mod

    ledgers = []
    for directory in (args.old, args.new):
        try:
            ledgers.append(ledger_mod.RunLedger.load(directory))
        except FileNotFoundError as error:
            raise SystemExit(f"privanalyzer: {error}")
        except (OSError, ValueError) as error:
            raise SystemExit(f"privanalyzer: unreadable ledger {directory}: {error}")
    diff = ledger_mod.diff_ledgers(
        ledgers[0], ledgers[1],
        tolerance=args.tolerance, perf_tolerance=args.perf_tolerance,
    )
    print(diff.to_json() if args.format == "json" else diff.render(), file=out)
    return diff.exit_code


def _cmd_fuzz(args, out) -> int:
    from repro.testkit.faults import FAULTS
    from repro.testkit.fuzz import replay_repro, run_campaign
    from repro.testkit.oracles import ALL_FAMILIES, DEFAULT_FAMILIES

    if args.inject is not None and args.inject not in FAULTS:
        raise SystemExit(
            f"privanalyzer: unknown fault {args.inject!r} "
            f"(known: {', '.join(sorted(FAULTS))})"
        )
    if args.replay is not None:
        try:
            result = replay_repro(args.replay)
        except FileNotFoundError:
            raise SystemExit(f"privanalyzer: no such repro file: {args.replay}")
        except ValueError as error:
            raise SystemExit(f"privanalyzer: {error}")
        if result.failed:
            print(f"replay: still failing — {result.details}", file=out)
            return 1
        print("replay: the failure no longer reproduces", file=out)
        return 0

    families = list(dict.fromkeys(args.oracle)) or list(DEFAULT_FAMILIES)
    if "all" in families:
        families = list(ALL_FAMILIES)
    unknown = [name for name in families if name not in ALL_FAMILIES]
    if unknown:
        raise SystemExit(
            f"privanalyzer: unknown oracle famil"
            f"{'y' if len(unknown) == 1 else 'ies'} {', '.join(unknown)} "
            f"(known: {', '.join(ALL_FAMILIES)})"
        )
    if args.runs <= 0:
        raise SystemExit("privanalyzer: --runs must be positive")
    result = run_campaign(
        seed=args.seed,
        runs=args.runs,
        max_size=args.max_size,
        families=families,
        artifacts_dir=args.artifacts,
        inject=args.inject,
        log=lambda message: print(message, file=out),
    )
    executed = result.executed
    print(
        f"fuzz: {executed} case(s) across {len(families)} famil"
        f"{'y' if len(families) == 1 else 'ies'}, seed {args.seed}: "
        + (
            "all passed"
            if result.passed
            else f"{len(result.failures)} failure(s)"
        )
        + (f" ({result.skipped} skipped)" if result.skipped else ""),
        file=out,
    )
    for failure in result.failures:
        print(
            f"  {failure.family} run {failure.run}: "
            f"replay with `privanalyzer fuzz --replay {failure.repro_path}`",
            file=out,
        )
    return 0 if result.passed else 1


def _cmd_profile(args, out) -> int:
    from repro.rewriting import SearchBudget
    from repro.telemetry import Profiler

    profiler = Profiler()
    budget = SearchBudget(
        max_states=args.max_states, max_seconds=args.max_seconds
    )
    if args.target in PROGRAM_MODULES:
        analyzer = PrivAnalyzer(
            budget=budget,
            message_repeat=args.repeat,
            profiler=profiler,
        )
        analyzer.analyze(spec_by_name(args.target))
    else:
        path = Path(args.target)
        if not path.exists():
            raise SystemExit(
                f"privanalyzer: {args.target!r} is neither a built-in program "
                f"({', '.join(sorted(PROGRAM_MODULES))}) nor a query file"
            )
        from repro.rosa import check
        from repro.rosa.dsl import parse_query

        query = parse_query(path.read_text(), name=path.stem)
        check(query, budget, profiler=profiler)
    print(profiler.render(limit=args.limit), file=out)
    print(file=out)
    roots = profiler.to_report()["roots"]
    for root in sorted(roots):
        info = roots[root]
        print(
            f"{root}: {info['seconds'] * 1000:.1f} ms total, "
            f"{info['attributed_fraction'] * 100:.1f}% attributed to named frames",
            file=out,
        )
    if args.out:
        _write_profile_artifacts(args.out, profiler)
        print(f"profile written to {args.out}", file=sys.stderr)
    return 0


def _cmd_corpus(args, out) -> int:
    from repro.corpus import CorpusSpec, generate_corpus, materialize_corpus
    from repro.testkit.generators import PROGRAM_FAMILIES

    families = (
        tuple(name.strip() for name in args.families.split(",") if name.strip())
        if args.families
        else PROGRAM_FAMILIES
    )
    spec = CorpusSpec(
        seed=args.seed,
        size=args.size,
        families=families,
        violators=args.violators,
        include_exemplars=not args.no_exemplars,
        include_builtins=not args.no_builtins,
    )
    try:
        entries = generate_corpus(spec)
    except ValueError as error:
        raise SystemExit(f"privanalyzer: {error}")
    try:
        materialize_corpus(entries, args.out, spec=spec)
    except OSError as error:
        raise SystemExit(
            f"privanalyzer: cannot write corpus {args.out}: {error.strerror}"
        )
    violators = sum(1 for entry in entries if entry.violator)
    generated = sum(1 for entry in entries if entry.kind == "generated")
    print(
        f"corpus: {len(entries)} programs ({generated} generated, "
        f"{len(entries) - generated} modeled; {violators} planted "
        f"violator(s)) written to {args.out}",
        file=out,
    )
    return 0


def _cmd_peers(args, out, telemetry: Optional[Telemetry] = None) -> int:
    from repro.corpus import ProfileStore, load_corpus, peer_analysis, sweep_corpus
    from repro.rewriting import SearchBudget

    try:
        entries = load_corpus(args.corpus)
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(f"privanalyzer: {error}")
    store = ProfileStore(args.store) if args.store else None
    jobs = args.jobs or 1
    profiles = sweep_corpus(
        entries,
        store=store,
        jobs=jobs,
        mode="serial" if jobs <= 1 else args.pool,
        budget=SearchBudget(
            max_states=args.max_states, max_seconds=args.max_seconds
        ),
        telemetry=telemetry,
        verdict_store=args.verdict_store,
    )
    report = peer_analysis(
        profiles,
        k=args.clusters,
        seed=args.seed,
        capability=args.cap,
        telemetry=telemetry,
    )
    if args.out:
        _write_or_die(args.out, report.to_json())
    if args.format == "json":
        print(report.to_json(), end="", file=out)
    else:
        print(report.render_text(top=args.top), file=out)
        if store is not None:
            stats = store.stats()
            print(
                f"profile store: {stats['hits']} hit(s), "
                f"{stats['misses']} miss(es)",
                file=sys.stderr,
            )
    return 0


def _cmd_serve(args, out) -> int:
    from repro.serve.server import VerdictServer

    server = VerdictServer(
        args.store, host=args.host, port=args.port, jobs=args.jobs
    )
    try:
        server.run(port_file=args.port_file)
    except KeyboardInterrupt:
        pass
    stats = server.store.stats()
    print(
        f"serve: {stats['hits']} store hit(s), {stats['misses']} miss(es), "
        f"{stats['published']} published, {stats['rejected']} rejected, "
        f"{stats['entries']} entr{'y' if stats['entries'] == 1 else 'ies'} "
        f"on disk",
        file=sys.stderr,
    )
    return 0


def _cmd_table(args, out, names, telemetry: Optional[Telemetry] = None) -> int:
    # One analyzer for the whole table: its query cache carries verdicts
    # across programs that share (privileges, uids, gids, surface) tuples.
    profiler = _profiler_from_args(args)
    analyzer = PrivAnalyzer(
        telemetry=telemetry, progress=_progress_from_args(args),
        progress_interval=getattr(args, "progress_interval", None),
        profiler=profiler,
        **_engine_kwargs(args),
    )
    analyses = [analyzer.analyze(spec_by_name(name)) for name in names]
    _export_profile(args, profiler)
    if args.format == "markdown":
        for analysis in analyses:
            print(report_mod.to_markdown(analysis), file=out)
            print(file=out)
    elif args.format == "csv":
        print(report_mod.to_csv(analyses), end="", file=out)
    else:
        for analysis in analyses:
            print(analysis.render_table(), file=out)
            print(file=out)
        print(report_mod.summary_table(analyses), file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    _configure_logging(args)
    telemetry = _telemetry_from_args(args)
    try:
        if args.command == "list":
            return _cmd_list(args, out)
        if args.command == "analyze":
            return _cmd_analyze(args, out, telemetry)
        if args.command == "hints":
            return _cmd_hints(args, out)
        if args.command == "rosa":
            return _cmd_rosa(args, out, telemetry)
        if args.command == "diff":
            return _cmd_diff(args, out)
        if args.command == "fuzz":
            return _cmd_fuzz(args, out)
        if args.command == "profile":
            return _cmd_profile(args, out)
        if args.command == "corpus":
            return _cmd_corpus(args, out)
        if args.command == "peers":
            return _cmd_peers(args, out, telemetry)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "table3":
            return _cmd_table(
                args, out, ("passwd", "ping", "sshd", "su", "thttpd"), telemetry
            )
        if args.command == "table5":
            return _cmd_table(args, out, ("passwdRef", "suRef"), telemetry)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, Unix style.
        return 0
    finally:
        _export_telemetry(args, telemetry)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
