"""One benchmark process: a cold pass, a store priming, or a traced server.

``run.py`` starts this script once per pass so that every pass of a cold
workload starts from a fresh interpreter: empty in-process memo tables,
its own CPU clock and its own peak RSS.  The pass prints one JSON object
as the last line of its standard output.

    python3 perfbench/worker.py corpus --seed N --tmp DIR [--trace]
    python3 perfbench/worker.py tables --seed N --tmp DIR [--trace]
    python3 perfbench/worker.py prime --store DIR
    python3 perfbench/worker.py serve --store DIR --port-file F --probes-out P
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from measure import (
    GOLDEN_BUDGET,
    TABLE_PROGRAMS,
    Op,
    ReferenceSampler,
    golden_mismatch,
    load_goldens,
    wall_clock_timeout,
)
from probes import LayerProbes


def _budget():
    from repro.rewriting import SearchBudget

    return SearchBudget(**GOLDEN_BUDGET)


def _timed(call):
    """Run ``call``; return (result, wall s, cpu s, error text)."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result, error = call(), None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    return result, time.perf_counter() - wall, time.process_time() - cpu, error


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def corpus_pass(seed: int, tmp: Path, probes) -> dict:
    """A serial sweep of the generated corpus over fresh stores, then peers."""
    from repro.corpus import CorpusSpec, ProfileStore, generate_corpus, peer_analysis, sweep_corpus
    from repro.corpus.sweep import DEFAULT_SWEEP_BUDGET

    entries = generate_corpus(CorpusSpec(seed=seed, include_builtins=False))
    store = ProfileStore(tmp / "profiles")
    verdicts = tmp / "verdicts"
    lineage = verdicts / "lineage.jsonl"
    first_op = time.monotonic()
    reference = ReferenceSampler()
    ops, profiles, lineage_ends = [], [], []
    wall = cpu = 0.0
    for entry in entries:
        result, op_wall, op_cpu, error = _timed(
            lambda: sweep_corpus([entry], store=store, mode="serial", verdict_store=str(verdicts))
        )
        wall, cpu = wall + op_wall, cpu + op_cpu
        ops.append(Op(entry.name, op_wall, error))
        if result:
            profiles.extend(result)
        lineage_ends.append(lineage.stat().st_size if lineage.exists() else 0)
        reference.after_op(op_wall)
    report, peers_wall, peers_cpu, error = _timed(lambda: peer_analysis(profiles))
    wall, cpu = wall + peers_wall, cpu + peers_cpu
    references = reference.finish()

    # Reference checks, outside the timed region.
    flagged = {finding.program for finding in report.findings} if report else set()
    violators = {entry.name for entry in entries if entry.violator}
    groups = {
        member["program"]: [m["program"] for m in cluster["members"]]
        for cluster in (report.clusters if report else ())
        for member in cluster["members"]
    }
    for op, entry in zip(ops, entries):
        if entry.violator and op.failure is None and entry.name not in flagged:
            group = groups.get(entry.name, [])
            op.failure = error or (
                f"violator not flagged by peer analysis (its peer group has "
                f"{len(group)} members, {len(violators.intersection(group))} of them violators)"
            )
    offset = 0
    for line in lineage.read_bytes().splitlines(keepends=True) if lineage.exists() else ():
        offset += len(line)
        record = json.loads(line)
        if record["verdict"] != "timeout":
            continue
        key = record["key"]
        outcome = json.loads((verdicts / "objects" / key[:2] / f"{key}.json").read_text())["outcome"]
        if wall_clock_timeout("timeout", outcome["states_explored"], DEFAULT_SWEEP_BUDGET.max_states):
            index = next(i for i, end in enumerate(lineage_ends) if end >= offset)
            ops[index].failure = ops[index].failure or "wall-clock TIMEOUT verdict"
    result = {
        "first_op": first_op, "ops": ops, "wall_s": wall, "cpu_s": cpu, "references": references,
    }
    if probes is not None:
        probes.loose["corpus.peers_s"] += peers_wall
        probes.loose["corpus.violators_flagged"] += sum(
            1 for entry in entries if entry.violator and entry.name in flagged
        )
    return result


def tables_pass(seed: int, tmp: Path, probes) -> dict:
    """Each Table III/V program through a fresh analyzer, in a seeded order."""
    from repro.core.pipeline import PrivAnalyzer
    from repro.corpus import profile_from_analysis
    from repro.programs import spec_by_name

    programs = list(TABLE_PROGRAMS)
    random.Random(f"tables:{seed}:{tmp.name}").shuffle(programs)
    specs = [spec_by_name(program) for program in programs]
    goldens = load_goldens(programs)
    budget = _budget()
    first_op = time.monotonic()
    reference = ReferenceSampler()
    ops = []
    wall = cpu = 0.0
    for spec in specs:
        analysis, op_wall, op_cpu, error = _timed(
            lambda: PrivAnalyzer(budget=budget).analyze(spec)
        )
        wall, cpu = wall + op_wall, cpu + op_cpu
        reference.after_op(op_wall)
        if error is None:
            error = golden_mismatch(
                profile_from_analysis(analysis).to_dict(), goldens[spec.name]
            )
        if error is None and any(
            wall_clock_timeout(report.verdict.value, report.states_explored, budget.max_states)
            for phase in analysis.phases
            for report in phase.verdicts.values()
        ):
            error = "wall-clock TIMEOUT verdict"
        ops.append(Op(spec.name, op_wall, error))
        del analysis
    return {
        "first_op": first_op, "ops": ops, "wall_s": wall, "cpu_s": cpu,
        "references": reference.finish(),
    }


def prime(store: str) -> None:
    """Publish every Table III/V program's verdicts into ``store``."""
    from repro.core.pipeline import PrivAnalyzer
    from repro.programs import spec_by_name

    budget = _budget()
    for program in TABLE_PROGRAMS:
        PrivAnalyzer(budget=budget, verdict_store=store).analyze(spec_by_name(program))


def serve(store: str, port_file: str, probes_out: str) -> int:
    """``privanalyzer serve`` with probes installed; dumps them on shutdown."""
    from repro.cli import main

    probes = LayerProbes().install()
    try:
        code = main(["serve", "--store", store, "--port-file", port_file])
    finally:
        probes.uninstall()
    Path(probes_out).write_text(json.dumps(probes.snapshot()))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("corpus", "tables", "prime", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--store")
    parser.add_argument("--port-file")
    parser.add_argument("--probes-out")
    args = parser.parse_args()
    if args.mode == "prime":
        prime(args.store)
        print(json.dumps({"primed": args.store}))
        return 0
    if args.mode == "serve":
        return serve(args.store, args.port_file, args.probes_out)
    run_pass = corpus_pass if args.mode == "corpus" else tables_pass
    probes = LayerProbes().install() if args.trace else None
    try:
        result = run_pass(args.seed, args.tmp, probes)
    finally:
        if probes is not None:
            probes.uninstall()
    result["ops"] = [op.to_json() for op in result["ops"]]
    result["peak_rss_mb"] = _peak_rss_mb()
    result["probes"] = probes.snapshot() if probes is not None else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
