"""Per-layer probes: wrap each layer's public entry points from outside.

The program under test is not modified.  :class:`LayerProbes` replaces
module attributes and class methods with timing wrappers for the
duration of a traced pass and restores them afterwards.  Each wrapper
adds its wall time (inclusive of nested layers) and the counts the call
already returns to the record of the analysis running on the current
thread, so a threaded server attributes every request's work to its own
program.  Calls made outside any analysis (profile keys, peer analysis)
land in a separate ``loose`` record.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Counters that must repeat bit-for-bit between runs of the same seed.
EXACT_COUNTERS = (
    "frontend.ir_instructions",
    "autopriv.priv_removes",
    "vm.instructions",
    "rosa.searches",
    "rosa.states_explored",
    "rosa.states_seen",
    "rosa.por_pruned",
)


def _ir_instructions(module) -> int:
    return sum(
        len(block) for function in module.defined_functions() for block in function.blocks
    )


class LayerProbes:
    """Installable timing/counting wrappers around every layer boundary."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: ``(program, record)`` per completed ``PrivAnalyzer.analyze``.
        self.analyses: List[Tuple[str, Counter]] = []
        self.loose: Counter = Counter()

    # -- recording -------------------------------------------------------------

    def _add(self, values: Dict[str, float]) -> None:
        record = getattr(self._local, "record", None)
        if record is None:
            with self._lock:
                self.loose.update(values)
        else:
            record.update(values)

    def _wrap(
        self,
        owner,
        attribute: str,
        seconds: Optional[str],
        counts: Optional[Callable[[object], Dict[str, float]]] = None,
    ) -> None:
        original = getattr(owner, attribute)
        add = self._add

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            values = counts(result) if counts is not None else {}
            if seconds is not None:
                values[seconds] = values.get(seconds, 0.0) + elapsed
            add(values)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def _wrap_analyze(self, owner) -> None:
        original = owner.analyze
        local, lock, analyses = self._local, self._lock, self.analyses

        def analyze(analyzer, spec):
            record = local.record = Counter()
            try:
                return original(analyzer, spec)
            finally:
                local.record = None
                with lock:
                    analyses.append((spec.name, record))

        owner.analyze = analyze
        self._patches.append((owner, "analyze", original))

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> "LayerProbes":
        import repro.core.pipeline as pipeline
        import repro.corpus.sweep as sweep
        import repro.rosa.engine as engine
        from repro.corpus.store import ProfileStore
        from repro.rosa.store import SharedVerdictStore

        analyzer = pipeline.PrivAnalyzer
        self._wrap_analyze(analyzer)
        self._wrap(
            pipeline, "compile_source", "frontend.compile_s",
            lambda module: {"frontend.ir_instructions": _ir_instructions(module)},
        )
        self._wrap(
            pipeline, "transform_module", "autopriv.transform_s",
            lambda report: {"autopriv.priv_removes": report.insertion_count},
        )
        self._wrap(
            pipeline, "instrument_module", "chronopriv.instrument_s",
            lambda report: {"chronopriv.blocks": report.blocks_instrumented},
        )
        self._wrap(pipeline, "verify_module", "ir.verify_s")
        self._wrap(
            analyzer, "run_dynamic", "vm.run_s",
            lambda result: {
                "vm.instructions": result[0].total,
                "vm.phases": len(result[0].phases),
            },
        )
        self._wrap(pipeline, "syscalls_used", "extract.syscalls_s")
        self._wrap(
            engine.QueryEngine, "run_queries", "rosa.run_queries_s",
            lambda reports: {"rosa.queries": len(reports)},
        )
        self._wrap(engine, "query_cache_key", "rosa.key_s")
        self._wrap(
            engine.QueryCache, "get", "rosa.lookup_s",
            lambda entry: {
                "rosa.cache_gets": 1, "rosa.cache_hits": int(entry is not None)
            },
        )
        self._wrap_store_get(SharedVerdictStore)
        self._wrap(
            SharedVerdictStore, "put", "rosa.publish_s",
            lambda published: {"rosa.store_published": int(bool(published))},
        )
        # QueryEngine binds its checker at construction, so engines built
        # after install() search through this wrapper.
        self._wrap(
            engine, "check", "rosa.search_s",
            lambda report: {
                "rosa.searches": 1,
                "rosa.states_explored": report.states_explored,
                "rosa.states_seen": report.states_seen,
                "rosa.symmetry_hits": report.stats.symmetry_hits,
                "rosa.por_pruned": report.stats.por_pruned,
            },
        )
        self._wrap(sweep, "profile_key", "corpus.profile_key_s")
        self._wrap(
            ProfileStore, "get", None,
            lambda profile: {"corpus.profile_store_hits": int(profile is not None)},
        )
        return self

    def _wrap_store_get(self, store_class) -> None:
        original = store_class.get
        add = self._add

        def get(store, key):
            rejected = store.rejected
            start = time.perf_counter()
            outcome = original(store, key)
            elapsed = time.perf_counter() - start
            add({
                "rosa.lookup_s": elapsed,
                "rosa.store_hits": int(outcome is not None),
                "rosa.store_misses": int(outcome is None),
                "rosa.store_rejected": store.rejected - rejected,
            })
            return outcome

        store_class.get = get
        self._patches.append((store_class, "get", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready records: one per analysis, plus the loose record."""
        with self._lock:
            return {
                "analyses": [[name, dict(record)] for name, record in self.analyses],
                "loose": dict(self.loose),
            }
