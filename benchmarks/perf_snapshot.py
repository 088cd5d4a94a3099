"""Emit ``BENCH_rosa.json``: the query engine's performance trajectory.

Run as a script (``make bench-json``); stdlib only.  Every entry records
wall-clock seconds, the states explored by the searches involved, and
the cache hit rate, so future PRs have an apples-to-apples baseline:

* ``passwd_rosa_baseline`` — the passwd pipeline's 20 phase×attack
  searches, run one by one with rule indexing off and no cache: the
  pre-engine behaviour;
* ``passwd_rosa_engine_cold`` — the same queries through the engine with
  an empty cache: rule indexing plus batch dedup (17 distinct of 20);
* ``passwd_rosa_engine_warm`` — the same batch against the warm cache:
  the steady state for repeated table regenerations;
* ``passwd_pipeline_cold`` / ``passwd_pipeline_warm`` — the full
  pipeline (compile + VM + ROSA) with a fresh / shared engine;
* ``thttpd_rosa_repeat2`` — a search-dominated workload (message repeat
  2 grows the state space ~40×), engine versus baseline;
* ``thttpd_rosa_repeat3`` — the same stage at repeat 3 (the space grows
  another order of magnitude), where reduction's asymptotic win shows:
  baseline versus the reduced engine;
* ``privsep_exposure_table`` — the multi-process study's exposure
  computation, whose phases heavily repeat credential tuples;
* ``served_warm`` — the passwd ROSA batch answered by a *fresh* engine
  (empty in-memory LRU) over a warm :class:`SharedVerdictStore`: the
  fleet-wide compute-once steady state, where "warm" survives process
  boundaries and restarts;
* ``store_cold_second_client`` — the full passwd pipeline as a second
  client: a fresh analyzer whose only head start is the shared store a
  first client published into (the ``make serve-smoke`` scenario).

Timing uses best-of-``REPEATS`` to damp scheduler noise; the speedup
figures in the JSON compare engine entries against their recorded
baseline entry, not against wall-clock from other machines.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import PrivAnalyzer  # noqa: E402
from repro.core.attacks import ALL_ATTACKS  # noqa: E402
from repro.core.extract import syscalls_used  # noqa: E402
from repro.core.multiprocess import analyze_multiprocess  # noqa: E402
from repro.programs import spec_by_name  # noqa: E402
from repro.rewriting import ObjectSystem, SearchBudget  # noqa: E402
from repro.rosa import QueryCache, QueryEngine, QueryRequest, check  # noqa: E402
from repro.rosa.query import unix_system  # noqa: E402
from repro.rosa.rules import unix_rules  # noqa: E402

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_rosa.json")
REPEATS = int(os.environ.get("BENCH_REPEATS", "3"))
BUDGET = SearchBudget(max_states=200_000, max_seconds=60.0)


def git_sha(repo_root: Optional[str] = None) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout."""
    root = repo_root or os.path.join(os.path.dirname(__file__), "..")
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def snapshot_meta(timestamp: float) -> Dict:
    """Provenance for one snapshot: commit, injected timestamp, host.

    ``timestamp`` is passed in by the caller (the ``__main__`` block
    stamps ``time.time()``; tests pass a constant) so the measurement
    code itself stays clock-free and replayable.
    """
    return {
        "git_sha": git_sha(),
        "timestamp_unix": timestamp,
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
    }


def best_of(fn: Callable[[], Dict], repeats: int = REPEATS) -> Dict:
    """Run ``fn`` ``repeats`` times; keep the run with the least wall-clock."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        extra = fn() or {}
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best["wall_seconds"]:
            best = {"wall_seconds": elapsed, **extra}
    return best


def phase_queries(program: str, repeat: int = 1) -> List[Tuple]:
    """The (query, spec) pairs the pipeline would issue for ``program``."""
    analyzer = PrivAnalyzer(message_repeat=repeat)
    spec = spec_by_name(program)
    module, _, _ = analyzer.compile(spec)
    chrono, _, _ = analyzer.run_dynamic(spec, module)
    surface = syscalls_used(module)
    pairs = []
    for phase in chrono.phases:
        for attack in ALL_ATTACKS:
            args = (phase.privileges, phase.uids, phase.gids, surface)
            kwargs = {"repeat": repeat, "label": f"{phase.name}/attack{attack.attack_id}"}
            pairs.append(
                (attack.build_query(*args, **kwargs), attack.query_spec(*args, **kwargs))
            )
    return pairs


def rosa_baseline(pairs) -> Dict:
    """Pre-engine behaviour: serial checks, no cache, rule indexing off,
    no state-space reduction."""
    brute = ObjectSystem("UNIX", unix_rules(), indexed=False)
    states = 0
    for query, _ in pairs:
        report = check(dataclasses.replace(query, system=brute), BUDGET, reduction=False)
        states += report.states_explored
    return {"queries": len(pairs), "states_explored": states, "cache_hit_rate": 0.0}


def rosa_engine(pairs, engine: QueryEngine) -> Dict:
    reports = engine.run_queries(
        [QueryRequest(query, budget=BUDGET, spec=spec) for query, spec in pairs]
    )
    live = [r for r in reports if not r.from_cache]
    return {
        "queries": len(pairs),
        "states_explored": sum(r.states_explored for r in live),
        "states_seen": sum(r.states_seen for r in live),
        "symmetry_hits": sum(r.stats.symmetry_hits for r in live),
        "por_pruned": sum(r.stats.por_pruned for r in live),
        "cache_hit_rate": engine.cache.hit_rate if engine.cache else 0.0,
    }


def main(timestamp: Optional[float] = None) -> None:
    entries: Dict[str, Dict] = {}

    print("measuring passwd ROSA stage ...", file=sys.stderr)
    passwd_pairs = phase_queries("passwd")
    entries["passwd_rosa_baseline"] = best_of(lambda: rosa_baseline(passwd_pairs))
    entries["passwd_rosa_engine_cold"] = best_of(
        lambda: rosa_engine(
            passwd_pairs,
            QueryEngine(budget=BUDGET, cache=QueryCache(), reduction=False),
        )
    )
    # The same cold batch with symmetry + partial-order reduction on (the
    # engine default): states_seen must never exceed the unreduced entry.
    entries["passwd_rosa_engine_cold_reduced"] = best_of(
        lambda: rosa_engine(passwd_pairs, QueryEngine(budget=BUDGET, cache=QueryCache()))
    )
    warm_engine = QueryEngine(budget=BUDGET, cache=QueryCache(), reduction=False)
    rosa_engine(passwd_pairs, warm_engine)  # prime
    entries["passwd_rosa_engine_warm"] = best_of(
        lambda: rosa_engine(passwd_pairs, warm_engine)
    )

    print("measuring passwd full pipeline ...", file=sys.stderr)

    def pipeline_cold():
        analysis = PrivAnalyzer().analyze(spec_by_name("passwd"))
        return {
            "queries": sum(len(p.verdicts) for p in analysis.phases),
            "states_explored": sum(
                r.states_explored for p in analysis.phases for r in p.verdicts.values()
            ),
            "cache_hit_rate": 0.0,
        }

    entries["passwd_pipeline_cold"] = best_of(pipeline_cold)

    shared = PrivAnalyzer()
    shared.analyze(spec_by_name("passwd"))  # prime the shared engine's cache

    def pipeline_warm():
        analysis = shared.analyze(spec_by_name("passwd"))
        return {
            "queries": sum(len(p.verdicts) for p in analysis.phases),
            "states_explored": sum(
                r.states_explored
                for p in analysis.phases
                for r in p.verdicts.values()
                if not r.from_cache
            ),
            "cache_hit_rate": shared.engine.cache.hit_rate,
        }

    entries["passwd_pipeline_warm"] = best_of(pipeline_warm)

    print("measuring thttpd ROSA stage (message repeat 2) ...", file=sys.stderr)
    thttpd_pairs = phase_queries("thttpd", repeat=2)
    entries["thttpd_rosa_repeat2_baseline"] = best_of(
        lambda: rosa_baseline(thttpd_pairs)
    )
    entries["thttpd_rosa_repeat2_engine"] = best_of(
        lambda: rosa_engine(
            thttpd_pairs,
            QueryEngine(budget=BUDGET, cache=QueryCache(), reduction=False),
        )
    )
    entries["thttpd_rosa_repeat2_engine_reduced"] = best_of(
        lambda: rosa_engine(thttpd_pairs, QueryEngine(budget=BUDGET, cache=QueryCache()))
    )
    thttpd_warm = QueryEngine(budget=BUDGET, cache=QueryCache(), reduction=False)
    rosa_engine(thttpd_pairs, thttpd_warm)  # prime
    entries["thttpd_rosa_repeat2_engine_warm"] = best_of(
        lambda: rosa_engine(thttpd_pairs, thttpd_warm)
    )

    print("measuring thttpd ROSA stage (message repeat 3) ...", file=sys.stderr)
    # Repeat 3 is where reduction pays asymptotically: the raw space is
    # another order of magnitude larger, and symmetry + POR prune a
    # super-linear fraction of it.
    thttpd3_pairs = phase_queries("thttpd", repeat=3)
    entries["thttpd_rosa_repeat3_baseline"] = best_of(
        lambda: rosa_baseline(thttpd3_pairs)
    )
    entries["thttpd_rosa_repeat3_engine_reduced"] = best_of(
        lambda: rosa_engine(thttpd3_pairs, QueryEngine(budget=BUDGET, cache=QueryCache()))
    )

    print("measuring thttpd full pipeline (message repeat 3) ...", file=sys.stderr)
    # A search-dominated full-pipeline benchmark: at message repeat 3 the
    # ROSA stage dwarfs compile + VM, so the engine's effect on end-to-end
    # wall-clock is visible (passwd's searches are tiny at any repeat —
    # its pipeline time is VM-dominated; see docs/PERFORMANCE.md).
    def thttpd_pipeline(analyzer):
        analysis = analyzer.analyze(spec_by_name("thttpd"))
        cache = analyzer.engine.cache
        return {
            "queries": sum(len(p.verdicts) for p in analysis.phases),
            "states_explored": sum(
                r.states_explored
                for p in analysis.phases
                for r in p.verdicts.values()
                if not r.from_cache
            ),
            "cache_hit_rate": cache.hit_rate if cache else 0.0,
        }

    entries["thttpd_pipeline_repeat3_cold"] = best_of(
        lambda: thttpd_pipeline(PrivAnalyzer(message_repeat=3))
    )
    shared_thttpd = PrivAnalyzer(message_repeat=3)
    shared_thttpd.analyze(spec_by_name("thttpd"))  # prime
    entries["thttpd_pipeline_repeat3_warm"] = best_of(
        lambda: thttpd_pipeline(shared_thttpd)
    )

    print("measuring shared verdict store serving ...", file=sys.stderr)
    from repro.rosa.store import SharedVerdictStore

    with tempfile.TemporaryDirectory(prefix="bench-store-") as store_root:
        # One cold engine publishes the whole passwd batch; every later
        # engine is a fresh process-equivalent (empty L1, new handle).
        rosa_engine(
            passwd_pairs,
            QueryEngine(
                budget=BUDGET,
                cache=QueryCache(),
                store=SharedVerdictStore(store_root),
            ),
        )

        def served_warm():
            store = SharedVerdictStore(store_root)
            result = rosa_engine(
                passwd_pairs,
                QueryEngine(budget=BUDGET, cache=QueryCache(), store=store),
            )
            lookups = store.hits + store.misses
            result["store_hit_rate"] = (
                store.hits / lookups if lookups else 0.0
            )
            return result

        entries["served_warm"] = best_of(served_warm)

    with tempfile.TemporaryDirectory(prefix="bench-store-") as store_root:
        PrivAnalyzer(verdict_store=store_root).analyze(spec_by_name("passwd"))

        def second_client():
            analyzer = PrivAnalyzer(verdict_store=store_root)
            analysis = analyzer.analyze(spec_by_name("passwd"))
            store = analyzer.engine.store
            lookups = store.hits + store.misses
            return {
                "queries": sum(len(p.verdicts) for p in analysis.phases),
                "states_explored": sum(
                    r.states_explored
                    for p in analysis.phases
                    for r in p.verdicts.values()
                    if not r.from_cache
                ),
                "cache_hit_rate": analyzer.engine.cache.hit_rate,
                "store_hit_rate": store.hits / lookups if lookups else 0.0,
            }

        entries["store_cold_second_client"] = best_of(second_client)

    print("measuring privsep exposure table ...", file=sys.stderr)

    def privsep():
        analysis = analyze_multiprocess(spec_by_name("sshdPrivsep"))
        table = analysis.exposure_table()
        return {
            "queries": analysis.engine.cache.hits + analysis.engine.cache.misses,
            "states_explored": 0,
            "cache_hit_rate": analysis.engine.cache.hit_rate,
            "exposure": table,
        }

    entries["privsep_exposure_table"] = best_of(privsep, repeats=1)

    speedups = {
        "passwd_rosa_cold_vs_baseline": entries["passwd_rosa_baseline"]["wall_seconds"]
        / entries["passwd_rosa_engine_cold"]["wall_seconds"],
        "passwd_rosa_warm_vs_baseline": entries["passwd_rosa_baseline"]["wall_seconds"]
        / entries["passwd_rosa_engine_warm"]["wall_seconds"],
        "passwd_pipeline_warm_vs_cold": entries["passwd_pipeline_cold"]["wall_seconds"]
        / entries["passwd_pipeline_warm"]["wall_seconds"],
        "thttpd_rosa_engine_vs_baseline": entries["thttpd_rosa_repeat2_baseline"][
            "wall_seconds"
        ]
        / entries["thttpd_rosa_repeat2_engine"]["wall_seconds"],
        "thttpd_rosa_warm_vs_baseline": entries["thttpd_rosa_repeat2_baseline"][
            "wall_seconds"
        ]
        / entries["thttpd_rosa_repeat2_engine_warm"]["wall_seconds"],
        "thttpd_pipeline_warm_vs_cold": entries["thttpd_pipeline_repeat3_cold"][
            "wall_seconds"
        ]
        / entries["thttpd_pipeline_repeat3_warm"]["wall_seconds"],
        "thttpd_rosa_reduced_vs_baseline": entries["thttpd_rosa_repeat2_baseline"][
            "wall_seconds"
        ]
        / entries["thttpd_rosa_repeat2_engine_reduced"]["wall_seconds"],
        "thttpd_rosa_repeat3_reduced_vs_baseline": entries[
            "thttpd_rosa_repeat3_baseline"
        ]["wall_seconds"]
        / entries["thttpd_rosa_repeat3_engine_reduced"]["wall_seconds"],
        "store_served_warm_vs_cold": entries["passwd_rosa_engine_cold_reduced"][
            "wall_seconds"
        ]
        / entries["served_warm"]["wall_seconds"],
        "store_second_client_vs_pipeline_cold": entries["passwd_pipeline_cold"][
            "wall_seconds"
        ]
        / entries["store_cold_second_client"]["wall_seconds"],
    }
    snapshot = {
        "schema": 1,
        "budget": {"max_states": BUDGET.max_states, "max_seconds": BUDGET.max_seconds},
        "repeats": REPEATS,
        "meta": snapshot_meta(time.time() if timestamp is None else timestamp),
        "entries": entries,
        "speedups": speedups,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.abspath(OUT_PATH)}", file=sys.stderr)
    for name, ratio in speedups.items():
        print(f"  {name}: {ratio:.2f}x", file=sys.stderr)


if __name__ == "__main__":
    main()
