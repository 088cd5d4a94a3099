"""``make perf-check``: the query cache must never cost wall-clock,
and state-space reduction must never cost states or flip a verdict.

Runs the full passwd pipeline with a cold engine and then with a warm
one (same analyzer, cache primed by the first run) and asserts the warm
run is not slower — within a noise tolerance, since passwd's ROSA stage
is a few milliseconds of a VM-dominated pipeline and the two runs are
near-identical by construction.  Also asserts the cache actually engaged
(passwd's 20 phase×attack queries hit 17 distinct keys, so the second
run must be answered entirely from cache).

Then gates the symmetry + partial-order reduction: every passwd and
thttpd (repeat 2) phase×attack query is searched with reduction off and
on, and the gate fails if any verdict or witness-existence differs, if
any exhaustive reduced search saw more states than its raw twin, or if
the thttpd batch — the search-dominated workload — did not see strictly
fewer states in aggregate.

Reduction must also pay for itself in *wall-clock*, not just states
(:func:`check_reduction_wallclock`): the thttpd (repeat 2) reduced
engine batch must beat the live unindexed/unreduced baseline, and the
passwd reduced engine batch — whose searches are tiny enough that the
engine skips reduction (see ``REDUCTION_MIN_SPACE``) — must cost no
more than the unreduced batch plus noise.

Two fleet-serving gates follow.  :func:`check_engine_tax` holds the
engine's fixed per-query overhead on cold tiny batches: the passwd
batch through a cold engine (reduction off, so only key derivation,
cache bookkeeping and scheduling differ) must cost at most
``PERF_CHECK_ENGINE_TAX`` (1.5x) of the live unindexed baseline plus a
small absolute noise floor.  :func:`check_store_second_client` proves
fleet-wide compute-once end to end: after a first client publishes
into a shared verdict store, a *second* client (fresh analyzer, empty
in-memory LRU, new store handle — the ``privanalyzer serve`` scenario)
must be at least 90% store-served with zero attestation rejections,
and its verdict grid and exposure table must be bit-identical to a
live analyzer computing everything from scratch.

Finally prints a per-entry delta table against the committed
``BENCH_rosa.json`` baseline (current vs recorded wall-clock).  Ratios
are informational — the baseline may come from another machine — but a
baseline entry that is missing entirely means the snapshot is stale and
fails the check with a clear message and a nonzero exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import PrivAnalyzer  # noqa: E402
from repro.programs import spec_by_name  # noqa: E402
from repro.rosa.query import Verdict, check  # noqa: E402

from perf_snapshot import BUDGET, phase_queries, rosa_baseline, rosa_engine  # noqa: E402

REPEATS = int(os.environ.get("BENCH_REPEATS", "3"))
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_rosa.json")
#: Allowed warm/cold ratio: >1.0 absorbs scheduler noise on a pipeline
#: whose cacheable stage is only a few percent of wall-clock.
TOLERANCE = float(os.environ.get("PERF_CHECK_TOLERANCE", "1.15"))
#: Allowed cold-engine/baseline ratio for the tiny passwd batch.  The
#: engine adds key derivation, cache bookkeeping and batch scheduling
#: per query; before the memoized digests it sat at ~1.9x.
ENGINE_TAX_MAX = float(os.environ.get("PERF_CHECK_ENGINE_TAX", "1.5"))
#: Minimum fraction of a second client's store lookups that must hit.
STORE_SERVED_MIN = float(os.environ.get("PERF_CHECK_STORE_SERVED_MIN", "0.9"))


def best_run(analyzer_factory) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        analyzer = analyzer_factory()
        start = time.perf_counter()
        analyzer.analyze(spec_by_name("passwd"))
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    cold = best_run(PrivAnalyzer)

    shared = PrivAnalyzer()
    shared.analyze(spec_by_name("passwd"))  # prime the cache
    warm = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        shared.analyze(spec_by_name("passwd"))
        warm = min(warm, time.perf_counter() - start)

    stats = shared.engine.cache_stats()
    ratio = warm / cold
    print(
        f"perf-check: cold {cold * 1000:.1f} ms, warm {warm * 1000:.1f} ms "
        f"(ratio {ratio:.2f}, tolerance {TOLERANCE}), "
        f"cache hit rate {stats['hit_rate']:.2f}"
    )
    if stats["hits"] == 0:
        print("perf-check FAILED: the query cache never hit", file=sys.stderr)
        return 1
    if ratio > TOLERANCE:
        print(
            f"perf-check FAILED: cached run {ratio:.2f}x slower than uncached",
            file=sys.stderr,
        )
        return 1
    if check_reduction() != 0:
        return 1
    if check_reduction_wallclock() != 0:
        return 1
    if check_engine_tax() != 0:
        return 1
    if check_store_second_client() != 0:
        return 1
    if baseline_deltas(
        {"passwd_pipeline_cold": cold, "passwd_pipeline_warm": warm}
    ) != 0:
        return 1
    print("perf-check ok")
    return 0


def baseline_deltas(
    measured: Dict[str, float], baseline_path: str = BASELINE_PATH
) -> int:
    """Current-vs-committed-baseline wall-clock, one table row per entry.

    The ratio column is informational (the committed snapshot may come
    from different hardware); what gates is *presence*: a measured entry
    with no baseline in ``BENCH_rosa.json`` means the snapshot is stale.
    """
    try:
        with open(baseline_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except FileNotFoundError:
        print(
            f"perf-check FAILED: no baseline snapshot at "
            f"{os.path.abspath(baseline_path)} — run `make bench-json` and "
            f"commit BENCH_rosa.json",
            file=sys.stderr,
        )
        return 1
    except ValueError as error:
        print(
            f"perf-check FAILED: unreadable baseline "
            f"{os.path.abspath(baseline_path)}: {error}",
            file=sys.stderr,
        )
        return 1
    entries = snapshot.get("entries", {})
    sha = str(snapshot.get("meta", {}).get("git_sha", "?"))
    print(f"perf-check: deltas vs committed BENCH_rosa.json (commit {sha[:12]})")
    header = f"  {'entry':<26} {'baseline ms':>12} {'current ms':>12} {'ratio':>8}"
    print(header)
    print("  " + "-" * (len(header) - 2))
    missing = []
    for name in sorted(measured):
        entry = entries.get(name)
        if not isinstance(entry, dict) or "wall_seconds" not in entry:
            missing.append(name)
            continue
        base = float(entry["wall_seconds"])
        current = measured[name]
        ratio = current / base if base else float("inf")
        print(
            f"  {name:<26} {base * 1000:>12.1f} {current * 1000:>12.1f} "
            f"{ratio:>7.2f}x"
        )
    if missing:
        plural = "y" if len(missing) == 1 else "ies"
        print(
            f"perf-check FAILED: baseline entr{plural} missing from "
            f"BENCH_rosa.json: {', '.join(missing)} — regenerate the snapshot "
            f"with `make bench-json`",
            file=sys.stderr,
        )
        return 1
    return 0


def check_reduction() -> int:
    """Reduced and raw searches must agree; reduction must not cost states."""
    failures = 0
    for program, repeat, require_strict in (("passwd", 1, False), ("thttpd", 2, True)):
        raw_states = reduced_states = 0
        for query, _spec in phase_queries(program, repeat=repeat):
            raw = check(query, BUDGET, reduction=False)
            reduced = check(query, BUDGET, reduction=True)
            if raw.verdict is not reduced.verdict:
                print(
                    f"perf-check FAILED: {query.name} verdict flips under "
                    f"reduction ({raw.verdict.value} -> {reduced.verdict.value})",
                    file=sys.stderr,
                )
                failures += 1
            elif bool(raw.witness) != bool(reduced.witness):
                print(
                    f"perf-check FAILED: {query.name} witness existence differs "
                    "under reduction",
                    file=sys.stderr,
                )
                failures += 1
            # Exhaustive searches explore their whole (reduced) space, so
            # the quotient can never be larger; found-verdict searches stop
            # early and are excluded from the inequality.
            if raw.verdict is Verdict.INVULNERABLE:
                raw_states += raw.states_seen
                reduced_states += reduced.states_seen
                if reduced.states_seen > raw.states_seen:
                    print(
                        f"perf-check FAILED: {query.name} reduced search saw "
                        f"{reduced.states_seen} states vs {raw.states_seen} raw",
                        file=sys.stderr,
                    )
                    failures += 1
        marker = "<" if reduced_states < raw_states else "="
        print(
            f"perf-check: {program} (repeat {repeat}) reduction "
            f"{reduced_states} {marker} {raw_states} states (exhaustive queries)"
        )
        if require_strict and reduced_states >= raw_states:
            print(
                f"perf-check FAILED: {program} reduced search must explore "
                f"strictly fewer states ({reduced_states} vs {raw_states})",
                file=sys.stderr,
            )
            failures += 1
    return failures


def _best_wall(fn) -> float:
    """Best-of-``REPEATS`` wall-clock for a zero-argument callable."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_reduction_wallclock() -> int:
    """Reduction must pay (or cost nothing) in wall-clock, live.

    Two gates, both measured back-to-back on this host so committed
    numbers from other machines never enter the comparison:

    * thttpd (repeat 2) — the search-dominated batch where reduction is
      active: the reduced engine must beat the unindexed/unreduced
      baseline outright (this was 0.35x before lazy canonicalization
      and the working ample-set POR);
    * passwd — every search is tiny, so the engine downgrades to raw
      search (``REDUCTION_MIN_SPACE``): the reduction-default engine
      must cost no more than the reduction-off engine plus noise (a
      fixed few-millisecond floor, since both batches run ~2 ms).
    """
    from repro.rosa import QueryCache, QueryEngine

    failures = 0

    thttpd_pairs = phase_queries("thttpd", repeat=2)
    baseline = _best_wall(lambda: rosa_baseline(thttpd_pairs))
    reduced = _best_wall(
        lambda: rosa_engine(
            thttpd_pairs, QueryEngine(budget=BUDGET, cache=QueryCache())
        )
    )
    ratio = baseline / reduced
    print(
        f"perf-check: thttpd r2 reduced engine {reduced * 1000:.1f} ms vs "
        f"baseline {baseline * 1000:.1f} ms ({ratio:.2f}x, floor 1.0)"
    )
    if ratio < 1.0:
        print(
            f"perf-check FAILED: thttpd reduced search is {1 / ratio:.2f}x "
            "slower than the unreduced baseline — reduction no longer pays",
            file=sys.stderr,
        )
        failures += 1

    passwd_pairs = phase_queries("passwd")
    unreduced = _best_wall(
        lambda: rosa_engine(
            passwd_pairs,
            QueryEngine(budget=BUDGET, cache=QueryCache(), reduction=False),
        )
    )
    tiny = _best_wall(
        lambda: rosa_engine(
            passwd_pairs, QueryEngine(budget=BUDGET, cache=QueryCache())
        )
    )
    allowed = unreduced * 1.5 + 0.005
    print(
        f"perf-check: passwd tiny-search batch {tiny * 1000:.1f} ms reduced "
        f"vs {unreduced * 1000:.1f} ms raw (allowed {allowed * 1000:.1f} ms)"
    )
    if tiny > allowed:
        print(
            "perf-check FAILED: passwd reduced batch exceeds the raw batch "
            f"({tiny * 1000:.1f} ms > {allowed * 1000:.1f} ms) — the "
            "tiny-search downgrade regressed",
            file=sys.stderr,
        )
        failures += 1
    return failures


def check_engine_tax() -> int:
    """The engine's fixed per-query tax on a cold tiny batch is bounded.

    passwd's 20 queries finish in ~2 ms total, so everything the engine
    adds around the searches — canonical key derivation, cache misses,
    batch dedup and scheduling — is a visible fraction of wall-clock.
    Both sides run back-to-back on this host with reduction off, so the
    ratio isolates exactly that overhead; a small absolute floor keeps
    the gate meaningful when both batches run in a millisecond.
    """
    from repro.rosa import QueryCache, QueryEngine

    pairs = phase_queries("passwd")
    baseline = _best_wall(lambda: rosa_baseline(pairs))
    engine_cold = _best_wall(
        lambda: rosa_engine(
            pairs, QueryEngine(budget=BUDGET, cache=QueryCache(), reduction=False)
        )
    )
    allowed = baseline * ENGINE_TAX_MAX + 0.003
    ratio = engine_cold / baseline if baseline else float("inf")
    print(
        f"perf-check: passwd engine-cold {engine_cold * 1000:.1f} ms vs "
        f"baseline {baseline * 1000:.1f} ms ({ratio:.2f}x, "
        f"allowed {allowed * 1000:.1f} ms at {ENGINE_TAX_MAX}x)"
    )
    if engine_cold > allowed:
        print(
            f"perf-check FAILED: cold engine batch {engine_cold * 1000:.1f} ms "
            f"exceeds {allowed * 1000:.1f} ms — the per-query fixed tax "
            "regressed",
            file=sys.stderr,
        )
        return 1
    return 0


def check_store_second_client() -> int:
    """A second client over a warm shared store serves, and serves right.

    Client one publishes the passwd pipeline's verdicts into a fresh
    :class:`SharedVerdictStore`; client two is a brand-new analyzer with
    an empty in-memory LRU whose only head start is that store on disk.
    Gates: at least ``STORE_SERVED_MIN`` of client two's store lookups
    hit, nothing is rejected, and its verdict grid and exposure table
    are bit-identical to a third analyzer computing live with no store
    at all — compute-once must never mean compute-differently.
    """
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory(prefix="perf-check-store-") as root:
        spec = spec_by_name("passwd")
        PrivAnalyzer(verdict_store=root).analyze(spec)  # client one

        second = PrivAnalyzer(verdict_store=root)
        served = second.analyze(spec)  # client two: warm store, cold L1
        store = second.engine.store
        lookups = store.hits + store.misses
        fraction = store.hits / lookups if lookups else 0.0
        print(
            f"perf-check: second client store-served {store.hits}/{lookups} "
            f"({fraction:.2f}, floor {STORE_SERVED_MIN}), "
            f"rejected {store.rejected}"
        )
        if fraction < STORE_SERVED_MIN:
            print(
                f"perf-check FAILED: second client only {fraction:.2f} "
                f"store-served (floor {STORE_SERVED_MIN})",
                file=sys.stderr,
            )
            failures += 1
        if store.rejected:
            print(
                f"perf-check FAILED: second client rejected {store.rejected} "
                "store entries — attestation or schema drift",
                file=sys.stderr,
            )
            failures += 1

        from repro.core.report import analysis_to_dict

        live = PrivAnalyzer().analyze(spec)  # no cache head start at all
        if analysis_to_dict(served) != analysis_to_dict(live):
            print(
                "perf-check FAILED: store-served analysis (verdict grid, "
                "windows, exposure) differs from live computation",
                file=sys.stderr,
            )
            failures += 1
        for served_phase, live_phase in zip(served.phases, live.phases):
            for attack_id, live_report in live_phase.verdicts.items():
                served_report = served_phase.verdicts[attack_id]
                if (
                    served_report.verdict is not live_report.verdict
                    or served_report.witness != live_report.witness
                ):
                    print(
                        f"perf-check FAILED: {served_phase.name}/attack"
                        f"{attack_id} served verdict differs from live",
                        file=sys.stderr,
                    )
                    failures += 1
    if not failures:
        print("perf-check: store second-client serving verdict-identical")
    return failures


if __name__ == "__main__":
    sys.exit(main())
