"""The benchmark's own logic: percentiles, failure accounting, reference
checks, per-layer aggregation and metric names.

Kept free of process and socket handling so the tests can drive it
directly.
"""

from __future__ import annotations

import gc
import json
import math
import re
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from probes import EXACT_COUNTERS

#: The paper's Table III/V programs (tables-cold and served-warm).
TABLE_PROGRAMS = (
    "passwd", "passwdRef", "ping", "su", "suRef", "thttpd", "sshd", "sshdPrivsep",
)
#: Their committed reference profiles, and the budget those were made with.
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden" / "profiles"
GOLDEN_BUDGET = {"max_states": 20_000, "max_seconds": 10.0}

#: Metric names (end-to-end and per-layer) must match this grammar.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p90 needs 100 samples and p50 needs 20.
MIN_SAMPLES_BEYOND = 10

#: The profile fields the reference check compares.  Every one of them
#: is derived from the analysis alone (no syscall audit trail needed).
GOLDEN_FIELDS = (
    "windows",
    "invulnerable_window",
    "cap_hold",
    "cred_tuples",
    "total_instructions",
    "static_surface",
)

#: Per-layer metrics every traced run reports, with their units.  Times
#: and counts are per pass: one analysis of every program in the
#: workload's set.  Layers a workload never enters read 0.
LAYER_METRICS = {
    "frontend.compile_s": "s",
    "frontend.ir_instructions": "count",
    "autopriv.transform_s": "s",
    "autopriv.priv_removes": "count",
    "chronopriv.instrument_s": "s",
    "chronopriv.blocks": "count",
    "ir.verify_s": "s",
    "vm.run_s": "s",
    "vm.instructions": "count",
    "vm.phases": "count",
    "extract.syscalls_s": "s",
    "rosa.run_queries_s": "s",
    "rosa.key_s": "s",
    "rosa.lookup_s": "s",
    "rosa.publish_s": "s",
    "rosa.queries": "count",
    "rosa.searches": "count",
    "rosa.cache_hit_rate": "ratio",
    "rosa.store_hits": "count",
    "rosa.store_misses": "count",
    "rosa.store_published": "count",
    "rosa.store_rejected": "count",
    "rosa.search_s": "s",
    "rosa.states_explored": "count",
    "rosa.states_seen": "count",
    "rosa.symmetry_hits": "count",
    "rosa.por_pruned": "count",
    "rosa.states_per_s": "1/s",
    "corpus.profile_key_s": "s",
    "corpus.profile_store_hits": "count",
    "corpus.peers_s": "s",
    "corpus.violators_flagged": "count",
    "serve.requests": "count",
    "serve.store_hit_rate": "ratio",
    "serve.wait_ms": "ms",
    "serve.server_threads_peak": "count",
    "trace.overhead_pct": "%",
}

#: End-to-end metrics every untraced run reports, with their units.
END_TO_END_METRICS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


#: Seconds the reference workload takes on the nominal host.
REFERENCE_S = 0.015
#: Op time per reference sample in a cold pass.
REFERENCE_EVERY_S = 0.1


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


# -- host speed ----------------------------------------------------------------
#
# The shared host's speed drifts by tens of percent over minutes, and the
# drift moves CPU time as much as wall time.  Every reported time is
# therefore scaled to the nominal host: multiplied by REFERENCE_S over the
# mean time of a fixed pure-Python reference workload, sampled between
# the ops of the same pass or window.  The reference builds, walks and
# serialises a small object graph, the kind of work the analyzer does,
# and touches no code of the program, so a change to the program cannot
# move it.


class _Node:
    __slots__ = ("name", "kids", "weight")

    def __init__(self, name: str, weight: int) -> None:
        self.name = name
        self.kids: list = []
        self.weight = weight


def reference_seconds() -> float:
    """Wall time of one run of the reference workload.  The collector is
    off while it runs, so the time does not depend on how many objects
    the sampling process holds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        nodes = {}
        for index in range(6000):
            node = _Node(f"n{index}", index * 7 % 101)
            nodes[node.name] = node
            if index:
                nodes[f"n{index * 31 % index}"].kids.append(node)
        seen, stack, total = set(), [nodes["n0"]], 0
        while stack:
            node = stack.pop()
            if node.name not in seen:
                seen.add(node.name)
                total += node.weight
                stack.extend(node.kids)
        json.loads(json.dumps(sorted((node.name, node.weight) for node in nodes.values())))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def host_factor(samples: Sequence[float]) -> float:
    """Scale from this host's speed to the nominal host's.  The host
    switches between speeds within seconds, so the mean of samples spread
    over a stretch of time, not their median, gives its average speed."""
    return REFERENCE_S / statistics.fmean(samples)


class ReferenceSampler:
    """Reference samples between the ops of one cold pass, one per
    ``REFERENCE_EVERY_S`` of op time, so that the pass's factor weighs
    the host's speed by where the pass spent its time."""

    def __init__(self) -> None:
        reference_seconds()  # the first run in a process also grows the heap
        self.samples = [reference_seconds()]
        self._owed = 0.0

    def after_op(self, seconds: float) -> None:
        self._owed += seconds
        while self._owed >= REFERENCE_EVERY_S:
            self.samples.append(reference_seconds())
            self._owed -= REFERENCE_EVERY_S

    def finish(self) -> List[float]:
        self.samples.append(reference_seconds())
        return self.samples


# -- percentiles and failures --------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


class Op:
    """One timed operation and the verdict of its reference check."""

    __slots__ = ("name", "seconds", "failure")

    def __init__(self, name: str, seconds: float, failure: Optional[str] = None) -> None:
        self.name = name
        self.seconds = seconds
        self.failure = failure

    def to_json(self) -> list:
        return [self.name, self.seconds, self.failure]


def latency_ms(ops: Sequence[Op], fraction: float) -> Optional[float]:
    """The op latency percentile; a failed op misses every latency
    bound, so it counts as infinitely slow."""
    value = percentile(
        [math.inf if op.failure else op.seconds * 1000.0 for op in ops], fraction
    )
    return value


def error_rate(ops: Sequence[Op]) -> float:
    return sum(1 for op in ops if op.failure) / len(ops) if ops else 1.0


# -- reference checks ----------------------------------------------------------


def load_goldens(programs: Iterable[str], directory: Path = GOLDEN_DIR) -> Dict[str, dict]:
    return {
        program: json.loads((directory / f"{program}.json").read_text())
        for program in programs
    }


def golden_mismatch(profile: dict, golden: dict) -> Optional[str]:
    """The first compared field on which ``profile`` differs, or ``None``."""
    for field in GOLDEN_FIELDS:
        if profile.get(field) != golden.get(field):
            return f"{field} differs from golden"
    return None


def wall_clock_timeout(verdict: str, states_explored: int, max_states: int) -> bool:
    """A TIMEOUT that ran out of seconds, not of states, depends on the host."""
    return verdict == "timeout" and states_explored < max_states


# -- per-layer aggregation -----------------------------------------------------


def scale_times(record: Dict[str, float], factor: float) -> Dict[str, float]:
    """``record`` with its layer times scaled to the nominal host."""
    return {
        name: value * factor if LAYER_METRICS.get(name) == "s" else value
        for name, value in record.items()
    }


def pass_totals(snapshot: dict, factor: float) -> Dict[str, float]:
    """Sum of every record of one traced pass (analyses + loose calls),
    with times scaled by the pass's host factor."""
    totals: Dict[str, float] = dict(snapshot["loose"])
    for _, record in snapshot["analyses"]:
        for name, value in record.items():
            totals[name] = totals.get(name, 0) + value
    return scale_times(totals, factor)


def check_exact(records: Sequence[Dict[str, float]], what: str) -> None:
    """Raise unless every exact counter repeats across ``records``."""
    first = records[0]
    for record in records[1:]:
        for name in EXACT_COUNTERS:
            if record.get(name, 0) != first.get(name, 0):
                raise RuntimeError(
                    f"exact counter {name} did not repeat for {what}: "
                    f"{first.get(name, 0)} vs {record.get(name, 0)}"
                )


def per_pass_layers(passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The median of each recorded value over traced passes, plus the
    derived rates."""
    names = sorted({name for record in passes for name in record})
    layers = {
        name: statistics.median(record.get(name, 0) for record in passes)
        for name in names
    }
    return finish_layers(layers)


def finish_layers(layers: Dict[str, float]) -> Dict[str, float]:
    """Derived rates, and 0 for every layer metric the workload never entered."""
    gets = layers.get("rosa.cache_gets", 0)
    layers["rosa.cache_hit_rate"] = layers.get("rosa.cache_hits", 0) / gets if gets else 0.0
    search = layers.get("rosa.search_s", 0.0)
    layers["rosa.states_per_s"] = (
        layers.get("rosa.states_explored", 0) / search if search else 0.0
    )
    return {
        name: round(layers.get(name, 0)) if unit == "count" else layers.get(name, 0)
        for name, unit in LAYER_METRICS.items()
    }


def layer_shares(layers: Dict[str, float], op_seconds: float) -> Dict[str, float]:
    """Each layer's self time as a share of ``op_seconds``, the op time of
    one pass; what no probe covers is ``other``.

    ``rosa.run_queries_s`` includes the key, lookup, publish and search
    time nested in it, so its self time is the remainder.
    """
    nested = sum(
        layers[name] for name in ("rosa.key_s", "rosa.lookup_s", "rosa.publish_s", "rosa.search_s")
    )
    self_time = {
        "frontend": layers["frontend.compile_s"],
        "autopriv": layers["autopriv.transform_s"],
        "chronopriv": layers["chronopriv.instrument_s"],
        "ir.verify": layers["ir.verify_s"],
        "vm": layers["vm.run_s"],
        "extract": layers["extract.syscalls_s"],
        "rosa.engine": max(0.0, layers["rosa.run_queries_s"] - nested),
        "rosa.key": layers["rosa.key_s"],
        "rosa.lookup": layers["rosa.lookup_s"],
        "rosa.publish": layers["rosa.publish_s"],
        "rosa.search": layers["rosa.search_s"],
        "corpus.profile_key": layers["corpus.profile_key_s"],
        "corpus.peers": layers["corpus.peers_s"],
    }
    self_time["other"] = max(0.0, op_seconds - sum(self_time.values()))
    return {name: value / op_seconds for name, value in self_time.items()} if op_seconds else {}
