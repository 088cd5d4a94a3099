"""A bounded object rewriting engine — our substitute for Maude 2.7.

The paper implements ROSA in Maude with the Full-Maude object extension
(§VI).  This package reimplements the fragment of Maude that ROSA uses:

* :mod:`repro.rewriting.objects` — Object Maude configurations: multisets
  of objects and messages with canonical (associative-commutative) keys;
* :mod:`repro.rewriting.search` — the bounded breadth-first ``search``
  command with state/depth/time budgets and a tri-state outcome;
* :mod:`repro.rewriting.reduction` — symmetry canonicalization and
  partial-order footprints over configurations.
"""

from repro.rewriting.objects import (
    Configuration,
    MessageRule,
    Msg,
    Obj,
    ObjectRule,
    ObjectSystem,
)
from repro.rewriting.reduction import (
    Footprint,
    ReductionStats,
    TIE_CAP,
    canonical_key,
    footprint,
    typed_fset,
    typed_id,
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
    "Footprint",
    "MAX_RETAINED_SAMPLES",
    "MessageRule",
    "Msg",
    "Obj",
    "ObjectRule",
    "ObjectSystem",
    "PROGRESS_INTERVAL",
    "ProgressSample",
    "ReductionStats",
    "SearchBudget",
    "SearchOutcome",
    "SearchResult",
    "SearchStats",
    "TIE_CAP",
    "breadth_first_search",
    "canonical_key",
    "footprint",
    "typed_fset",
    "typed_id",
]
