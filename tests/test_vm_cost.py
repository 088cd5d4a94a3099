"""Host-independent cost gates on the compiled VM core.

The VM is most of a served request, so its per-instruction work is
pinned as counts, not seconds:

* running each Table III/V program makes zero ``IntType.wrap`` calls —
  the generated code wraps every binop inline with its width's baked
  constants;
* each program still retires exactly the instructions (perfbench's
  ``vm.instructions``, the ChronoPriv total), phases and exit code it
  did before the core was specialized and then generated;
* entering a counted basic block costs no Python call on a cycle of the
  variant graph: each program makes exactly ``ENTERS`` calls of
  ``_Runtime.enter`` (the entry helper of the other blocks), and
  ChronoPriv's recorder runs only at credential changes and at the
  report (``RECORDER_CALLS``), never per block;
* a pure intrinsic (``strlen`` in a loop test, say) is called straight
  from its call site, so only the effectful ones reach
  ``Interpreter._call_intrinsic`` (``INTRINSIC_DISPATCHES``), and a
  division by a positive literal is inline: no run calls the
  ``sdiv``/``srem`` table functions;
* the generated text, whose ``compile()`` a corpus sweep pays for almost
  every function, stays as short as pinned in ``TEXT_COST``: texts
  generated, distinct texts and their AST nodes, for the 8 programs and
  for the seed-0 corpus of the ``corpus-cold`` benchmark workload;
* a program analyzed again in the same process generates no text: the
  VM binds every function from its cached recipe, as the
  ``vm.texts_generated`` and ``vm.code_cache_hits`` counters show.

The tests that pin generation start from empty code caches
(``cold_code``), so they pin cold generation whatever ran before them.
"""

import ast
import inspect
import sys

import pytest

from repro.chronopriv import ChronoRecorder
from repro.core.pipeline import PrivAnalyzer
from repro.corpus import CorpusSpec, generate_corpus
from repro.ir.instructions import BINARY_OPS
from repro.ir.types import IntType
from repro.programs import spec_by_name
from repro.telemetry import Telemetry
from repro.testkit.generators import build_program_spec
from repro.vm import Interpreter, compiled

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


@pytest.fixture
def cold_code():
    """Empty the process-wide recipe and code caches."""
    compiled.RECIPES.clear()
    compiled.CODE_CACHE.clear()


@pytest.mark.parametrize("program", sorted(TABLE_RUNS))
def test_run_makes_no_wrap_calls_and_keeps_counts(program, monkeypatch):
    spec = spec_by_name(program)
    analyzer = PrivAnalyzer()
    module = analyzer.compile(spec)[0]
    wraps = counting(monkeypatch, IntType, "wrap")
    report, exit_code, _ = analyzer.run_dynamic(spec, module)
    assert len(wraps) == 0
    assert (report.total, len(report.phases), exit_code) == TABLE_RUNS[program]


#: Per program: calls of ``_Runtime.enter`` in one run.
ENTERS = {
    "passwd": 25,
    "passwdRef": 26,
    "ping": 28,
    "su": 19,
    "suRef": 24,
    "thttpd": 19,
    "sshd": 34,
    "sshdPrivsep": 18,
}

#: Per program: calls of any ``ChronoRecorder`` method in one run and
#: its report (credential-change observers of every process included).
RECORDER_CALLS = {
    "passwd": 49,
    "passwdRef": 34,
    "ping": 28,
    "su": 49,
    "suRef": 40,
    "thttpd": 58,
    "sshd": 58,
    "sshdPrivsep": 48,
}

#: Per program: calls of ``Interpreter._call_intrinsic`` in one run (the
#: intrinsic calls that are not pure, or not from generated code).
INTRINSIC_DISPATCHES = {
    "passwd": 46,
    "passwdRef": 40,
    "ping": 39,
    "su": 27,
    "suRef": 29,
    "thttpd": 108,
    "sshd": 46,
    "sshdPrivsep": 49,
}


@pytest.mark.parametrize("program", sorted(INTRINSIC_DISPATCHES))
def test_pure_calls_and_constant_divisions_take_no_helper(program, monkeypatch):
    spec = spec_by_name(program)
    analyzer = PrivAnalyzer()
    module = analyzer.compile(spec)[0]
    dispatches = counting(monkeypatch, Interpreter, "_call_intrinsic")
    divisions = {BINARY_OPS["sdiv"].__code__, BINARY_OPS["srem"].__code__}
    divided = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in divisions:
            divided.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        report, _, _ = analyzer.run_dynamic(spec, module)
    finally:
        sys.setprofile(None)
    assert report.total == TABLE_RUNS[program][0]
    assert len(dispatches) == INTRINSIC_DISPATCHES[program]
    assert divided == []


#: (texts generated, distinct texts, AST nodes) per pass.
TEXT_COST = {
    "tables": (61, 50, 28460),
    "corpus": (245, 239, 115612),
}


def _count_methods(monkeypatch, cls):
    """Wrap every method ``cls`` defines; returns the call list."""
    calls = []
    for name, method in list(vars(cls).items()):
        if inspect.isfunction(method) and name != "__init__":
            def counted(*args, _method=method, **kwargs):
                calls.append(1)
                return _method(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("program", sorted(ENTERS))
def test_block_entry_makes_no_recorder_call(program, monkeypatch, cold_code):
    assert not any(
        name in vars(ChronoRecorder) for name in ("count", "_on_count", "_cell")
    )
    spec = spec_by_name(program)
    analyzer = PrivAnalyzer()
    module = analyzer.compile(spec)[0]
    enters = counting(monkeypatch, compiled._Runtime, "enter")
    recorder_calls = _count_methods(monkeypatch, ChronoRecorder)
    report, _, _ = analyzer.run_dynamic(spec, module)
    assert report.total == TABLE_RUNS[program][0]
    assert len(enters) == ENTERS[program]
    assert len(recorder_calls) == RECORDER_CALLS[program]


def _corpus_specs():
    entries = generate_corpus(CorpusSpec(seed=0, include_builtins=False))
    return [
        build_program_spec(entry.case, name=entry.name)
        if entry.kind == "generated"
        else spec_by_name(entry.name)
        for entry in entries
    ]


@pytest.mark.parametrize("workload", sorted(TEXT_COST))
def test_generated_text_size(workload, monkeypatch, cold_code):
    specs = (
        [spec_by_name(program) for program in sorted(TABLE_RUNS)]
        if workload == "tables"
        else _corpus_specs()
    )
    texts = []
    generate = compiled._Compiler._text

    def recorded(self):
        texts.append(generate(self))
        return texts[-1]

    monkeypatch.setattr(compiled._Compiler, "_text", recorded)
    for spec in specs:
        analyzer = PrivAnalyzer()
        analyzer.run_dynamic(spec, analyzer.compile(spec)[0])
    nodes = sum(sum(1 for _ in ast.walk(ast.parse(text))) for text in texts)
    assert (len(texts), len(set(texts)), nodes) == TEXT_COST[workload]


#: Per program: the defined functions its run compiles, each once.
FUNCTIONS = {
    "passwd": 8,
    "passwdRef": 8,
    "ping": 4,
    "su": 8,
    "suRef": 8,
    "thttpd": 9,
    "sshd": 9,
    "sshdPrivsep": 4,
}


@pytest.mark.parametrize("program", sorted(FUNCTIONS))
def test_a_second_run_generates_no_text(program, cold_code):
    spec = spec_by_name(program)
    runs = []
    for _ in range(2):
        telemetry = Telemetry()
        analyzer = PrivAnalyzer(telemetry=telemetry)
        report, _, _ = analyzer.run_dynamic(spec, analyzer.compile(spec)[0])
        assert report.total == TABLE_RUNS[program][0]
        runs.append(tuple(
            telemetry.metrics.counter(name).value
            for name in ("vm.texts_generated", "vm.code_cache_hits")
        ))
    assert runs == [(FUNCTIONS[program], 0), (0, FUNCTIONS[program])]
