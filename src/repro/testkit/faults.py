"""Artificial bug injection.

An oracle that has never caught a bug proves nothing: maybe the code is
correct, maybe the oracle compares the wrong things.  Each named fault
here plants a realistic bug in one production component; the test suite
(and ``privanalyzer fuzz --inject``) then demonstrates that the matching
oracle family catches it, shrinks the triggering case, and replays it.

Faults are installed with the :func:`install_fault` context manager and
always fully undone on exit, even on error — the patched objects are
module/class attributes, never copies.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Dict

#: Registered fault names → installer.  An installer patches production
#: code and returns a zero-argument undo callable.
FAULTS: Dict[str, Callable[[], Callable[[], None]]] = {}


def fault(name: str):
    """Register a fault installer under ``name``."""

    def register(installer: Callable[[], Callable[[], None]]):
        FAULTS[name] = installer
        return installer

    return register


@contextlib.contextmanager
def install_fault(name: str):
    """Install the named fault for the duration of the ``with`` block."""
    if name not in FAULTS:
        raise ValueError(
            f"unknown fault {name!r}; known: {', '.join(sorted(FAULTS))}"
        )
    undo = FAULTS[name]()
    try:
        yield
    finally:
        undo()


@fault("vm-mul-truncate")
def _vm_mul_truncate() -> Callable[[], None]:
    """The production VM silently truncates large ``mul`` results.

    Models a narrowing bug in the shared ``BINARY_OPS`` semantics table,
    which the generated core consults when it generates a ``mul`` (so
    interpreters that generate code inside the fault window call the
    bug: the patched entry is no stock ``operator`` function, so the
    text, and with it the cached code, differs from the clean one).
    The reference interpreter inlines its own arithmetic and stays
    correct — exactly the disagreement the ``vm`` oracle family exists
    to catch.
    """
    from repro.ir import instructions

    original = instructions.BINARY_OPS["mul"]

    def buggy_mul(a, b):
        raw = a * b
        if abs(raw) >= 64:
            raw &= 63
        return raw

    instructions.BINARY_OPS["mul"] = buggy_mul

    def undo() -> None:
        instructions.BINARY_OPS["mul"] = original

    return undo


@fault("compiled-mul-truncate")
def _compiled_mul_truncate() -> Callable[[], None]:
    """The generated core binds a stale ``mul`` into its code.

    Models compile-time-captured semantics drifting from the IR's — a
    table updated in one place but not the other.  Only the compiler
    module's ``BINARY_OPS`` binding is rebound (to a copy with a
    truncating ``mul``), so the shared table and the reference evaluator
    stay correct: the ``vm`` oracle family's compiled-vs-reference
    comparison is what catches it.
    """
    from repro.vm import compiled

    original = compiled.BINARY_OPS

    def buggy_mul(a, b):
        raw = a * b
        if abs(raw) >= 64:
            raw &= 63
        return raw

    compiled.BINARY_OPS = {**original, "mul": buggy_mul}

    def undo() -> None:
        compiled.BINARY_OPS = original

    return undo


@fault("compiled-srem-floor")
def _compiled_srem_floor() -> Callable[[], None]:
    """The generated core divides by a literal with Python's floor.

    Models an inline fast path that forgot C's truncation toward zero:
    only the compiler module's ``_DIVIDE_BY_CONSTANT`` templates are
    rebound, so an ``sdiv``/``srem`` by a positive literal of a negative
    dividend rounds down (``-7 % 2`` reads 1, not -1).  Every division
    the generator still calls by name, the shared table and the
    reference evaluator stay correct: the ``vm`` oracle family's
    compiled-vs-reference comparison is what catches it.
    """
    from repro.vm import compiled

    original = compiled._DIVIDE_BY_CONSTANT
    compiled._DIVIDE_BY_CONSTANT = {
        entry: template.split(" if ")[0] for entry, template in original.items()
    }

    def undo() -> None:
        compiled._DIVIDE_BY_CONSTANT = original

    return undo


@fault("cache-verdict-flip")
def _cache_verdict_flip() -> Callable[[], None]:
    """The query cache flips every verdict it serves.

    Models a corrupted or mis-keyed cache entry.  Cache-off runs search
    live and stay correct, so the ``cache`` oracle's on-vs-off comparison
    catches the first served hit.
    """
    from repro.rosa.engine import QueryCache, _CacheEntry
    from repro.rosa.query import Verdict

    original = QueryCache.get
    flipped = {
        Verdict.VULNERABLE.value: Verdict.INVULNERABLE.value,
        Verdict.INVULNERABLE.value: Verdict.VULNERABLE.value,
    }

    def buggy_get(self, key):
        entry = original(self, key)
        if entry is None:
            return None
        outcome = dataclasses.replace(
            entry.outcome,
            verdict=flipped.get(entry.outcome.verdict, entry.outcome.verdict),
        )
        return _CacheEntry(outcome=outcome, report=None)

    QueryCache.get = buggy_get

    def undo() -> None:
        QueryCache.get = original

    return undo


@fault("profile-ledger-skew")
def _profile_ledger_skew() -> Callable[[], None]:
    """The ledger writer drops the final phase record from exposure.json.

    Models an off-by-one in the ledger's serialisation path.  Only the
    ``ledger`` module's ``analysis_to_dict`` binding is rebound, so the
    live extraction (``repro.corpus.profile`` imports the report
    function directly) stays correct — and the ``ledger`` family's
    self-diff is blind to the bug, because *both* captures it compares
    carry the same skew.  The ``profile`` oracle family's live-vs-ledger
    comparison is what catches it: phase counts, hold times and
    credential-tuple counts all drift the moment a phase goes missing.
    """
    from repro.core import ledger

    original = ledger.analysis_to_dict

    def skewed(analysis):
        data = original(analysis)
        if data.get("phases"):
            data = dict(data)
            data["phases"] = data["phases"][:-1]
        return data

    ledger.analysis_to_dict = skewed

    def undo() -> None:
        ledger.analysis_to_dict = original

    return undo


@fault("store-attestation-skew")
def _store_attestation_skew() -> Callable[[], None]:
    """Every published store object is corrupted after attestation.

    Models bit rot (or a hostile writer) between the attestation being
    computed and the object landing on disk: the written payload's
    ``states_explored`` is bumped by one, so the recorded attestation no
    longer covers what the file says.  The fail-closed read path rejects
    every such entry and recomputes live — verdicts never flip — so the
    ``store`` oracle family catches this as a serving-efficacy failure
    (a warm engine with zero store hits and nonzero rejections), which
    is exactly the behaviour the fail-closed design promises.  The
    ``cache`` family is blind: the in-memory cache never touches disk.
    """
    import json

    from repro.rosa.store import SharedVerdictStore

    original = SharedVerdictStore.put

    def corrupting_put(self, key, outcome):
        published = original(self, key, outcome)
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            entry["payload"]["states_explored"] = (
                int(entry["payload"].get("states_explored", 0)) + 1
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
        except (OSError, KeyError, TypeError, ValueError):
            pass
        return published

    SharedVerdictStore.put = corrupting_put

    def undo() -> None:
        SharedVerdictStore.put = original

    return undo


@fault("prove-drop-transition")
def _prove_drop_transition() -> Callable[[], None]:
    """The abstract pre-check forgets that ``setgroups`` adds a group.

    Models an abstract transfer that drops one concrete transition: the
    fixpoint never grows a supplementary set, so a process that could
    join a file's group looks locked out, and a reachable goal gets
    "proved" unreachable.  The concrete rule still fires, so the per-rule
    local soundness property (``tests/test_rosa_prove.py``) and the
    ``prove`` oracle family, which re-searches every proof, catch it.
    """
    from repro.rosa.rules import SetgroupsRule

    original = SetgroupsRule.transfer

    def dropped(self, state, message, pid) -> None:
        return None

    SetgroupsRule.transfer = dropped

    def undo() -> None:
        SetgroupsRule.transfer = original

    return undo
