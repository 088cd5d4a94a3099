"""Host-independent cost gates on the compiled VM core.

The VM is most of a served request, so its per-instruction work is
pinned as counts, not seconds:

* running each Table III/V program makes zero ``IntType.wrap`` calls —
  the generated code wraps every binop inline with its width's baked
  constants;
* each program still retires exactly the instructions (perfbench's
  ``vm.instructions``, the ChronoPriv total), phases and exit code it
  did before the core was specialized and then generated;
* generating passwd's code asks ``_Compiler._fetch`` (the operand
  expression that may read a late-bound global) for exactly
  ``PASSWD_FETCHES`` operands: locals and constants are emitted inline,
  so a rise means the generator routes more operands through the
  general path.
"""

import pytest

from repro.core.pipeline import PrivAnalyzer
from repro.ir.types import IntType
from repro.programs import spec_by_name
from repro.vm import compiled

from tests.test_rosa_engine import counting

#: Per program: (ChronoPriv instruction total, phases, exit code).
TABLE_RUNS = {
    "passwd": (70037, 5, 0),
    "passwdRef": (70088, 5, 0),
    "ping": (5874, 3, 0),
    "su": (98701, 6, 0),
    "suRef": (98610, 7, 0),
    "thttpd": (81164, 6, 0),
    "sshd": (106357, 4, 0),
    "sshdPrivsep": (119, 3, 0),
}
PASSWD_FETCHES = 111


@pytest.mark.parametrize("program", sorted(TABLE_RUNS))
def test_run_makes_no_wrap_calls_and_keeps_counts(program, monkeypatch):
    spec = spec_by_name(program)
    analyzer = PrivAnalyzer()
    module = analyzer.compile(spec)[0]
    wraps = counting(monkeypatch, IntType, "wrap")
    report, exit_code, _ = analyzer.run_dynamic(spec, module)
    assert len(wraps) == 0
    assert (report.total, len(report.phases), exit_code) == TABLE_RUNS[program]


def test_passwd_getter_closures(monkeypatch):
    spec = spec_by_name("passwd")
    analyzer = PrivAnalyzer()
    module = analyzer.compile(spec)[0]
    fetches = counting(monkeypatch, compiled._Compiler, "_fetch")
    analyzer.run_dynamic(spec, module)
    assert len(fetches) == PASSWD_FETCHES
