"""A bounded object rewriting engine — our substitute for Maude 2.7.

The paper implements ROSA in Maude with the Full-Maude object extension
(§VI).  This package reimplements the fragment of Maude that ROSA uses:

* :mod:`repro.rewriting.objects` — Object Maude configurations: multisets
  of objects and messages with canonical (associative-commutative) keys;
* :mod:`repro.rewriting.search` — the bounded breadth-first ``search``
  command with state/depth/time budgets and a tri-state outcome.
"""

from repro.rewriting.objects import (
    Configuration,
    MessageRule,
    Msg,
    Obj,
    ObjectRule,
    ObjectSystem,
)
from repro.rewriting.search import (
    MAX_RETAINED_SAMPLES,
    PROGRESS_INTERVAL,
    ProgressSample,
    SearchBudget,
    SearchOutcome,
    SearchResult,
    SearchStats,
    breadth_first_search,
)

__all__ = [
    "Configuration",
    "MAX_RETAINED_SAMPLES",
    "MessageRule",
    "Msg",
    "Obj",
    "ObjectRule",
    "ObjectSystem",
    "PROGRESS_INTERVAL",
    "ProgressSample",
    "SearchBudget",
    "SearchOutcome",
    "SearchResult",
    "SearchStats",
    "breadth_first_search",
]
