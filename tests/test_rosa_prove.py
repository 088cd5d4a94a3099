"""The abstract pre-check: sound, and strong enough to matter.

Soundness is checked where it is built, one transfer and one goal at a
time, over generated configurations (``testkit.generators``) and the
states a few rewrites away from them:

* **per-rule local soundness** — for every concrete successor c′ of c,
  α(c′) ⊑ post♯(α(c)), with post♯ the abstract transfer of the message
  c′ consumed;
* **per-goal soundness** — ``goal(c)`` implies ``goal.may_hold(α(c))``.

Together they make the fixpoint cover every reachable configuration,
which a third property checks directly.  The ``prove-drop-transition``
fault (a ``setgroups`` transfer that forgets the group) must trip the
local property.  The remaining tests pin what the check proves on the
paper's programs and the two non-monotone traps it must not fall into.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.caps import Capability
from repro.core import PrivAnalyzer
from repro.core.extract import syscalls_used
from repro.programs import spec_by_name
from repro.rewriting import Configuration, ObjectSystem
from repro.rosa import goals, keys, model, syscalls
from repro.rosa.prove import AbstractState, fixpoint, prove, steps_of
from repro.rosa.query import RosaQuery, Verdict, check, unix_system
from repro.rosa.rules import unix_rules
from repro.testkit import generators
from repro.testkit.faults import install_fault
from repro.testkit.fuzz import run_campaign
from repro.testkit.oracles import family

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "rosa"

_CAPS = (
    (),
    (Capability.CAP_SETUID,),
    (Capability.CAP_SETGID,),
    (Capability.CAP_DAC_OVERRIDE,),
    (Capability.CAP_FOWNER, Capability.CAP_CHOWN),
    (Capability.CAP_SETUID, Capability.CAP_SETGID, Capability.CAP_KILL),
)
_MESSAGE_NAMES = generators.CONFIG_MESSAGES + generators.EXTRA_CONFIG_MESSAGES


@st.composite
def walks(draw):
    """A generated configuration plus extra messages, and the states of a
    random walk of up to six rewrites from it (initial state first)."""
    case = generators.gen_config_case(random.Random(draw(st.integers(0, 2**32 - 1))))
    config = generators.build_configuration(case)
    extra = draw(st.lists(
        st.tuples(st.sampled_from(_MESSAGE_NAMES), st.sampled_from(_CAPS)), max_size=3
    ))
    config = config.add(
        *(generators.config_message(name, 1, frozenset(caps)) for name, caps in extra)
    )
    states = [config]
    for choice in draw(st.lists(st.integers(0, 1000), max_size=6)):
        successors = list(unix_system().successors(states[-1]))
        if not successors:
            break
        states.append(successors[choice % len(successors)][1])
    return states


def assert_locally_sound(config: Configuration) -> int:
    """α(c′) ⊑ post♯(α(c)) for every successor c′; returns how many."""
    checked = 0
    for message in config.messages():
        steps = steps_of(unix_system(), [message])
        if steps is None:
            continue  # a rule without a transfer: the check declines
        after = AbstractState(config)  # post♯(α(c)): α(c) joined with the transfer
        for rule, _ in steps:
            rule.abstract(after, message)
        for rule, _ in steps:
            for successor in rule.rewrites_for_message(config, message):
                assert AbstractState(successor) <= after, (
                    f"{message!r} from {config!r} reaches {successor!r}"
                )
                checked += 1
    return checked


def goal_specs(config: Configuration) -> list:
    """Every generated-goal shape over ``config``'s objects."""
    specs = [["terminated", 1], ["terminated", 2], ["port"], ["removed", 99]]
    for fid in sorted(obj.oid for obj in config.objects(model.FILE)):
        specs += [["read", fid], ["write", fid], ["owner", fid, 0], ["owner", fid, 1000]]
    for entry in sorted(obj.oid for obj in config.objects(model.DIR)):
        specs.append(["removed", entry])
    return specs + [["any", specs[0], specs[-1]], ["all", specs[-2], specs[-1]]]


@settings(max_examples=150, deadline=None)
@given(walks())
def test_every_transfer_is_locally_sound(states):
    for config in states:
        assert_locally_sound(config)


@settings(max_examples=150, deadline=None)
@given(walks())
def test_every_goal_may_hold_where_it_holds(states):
    for config in states:
        abstract = AbstractState(config)
        for spec in goal_specs(config):
            goal = generators.build_goal(spec)
            if goal(config):
                assert goal.may_hold(abstract), (spec, config)


@settings(max_examples=100, deadline=None)
@given(walks())
def test_fixpoint_covers_every_walked_state(states):
    closed = fixpoint(states[0])
    if closed is None:
        return  # a message without a transfer: declined
    for config in states:
        assert AbstractState(config) <= closed


def test_dropped_transition_breaks_local_soundness():
    config = Configuration(
        [
            model.process_for_user(1, uid=1000, gid=1000),
            model.group(20, 15),
            syscalls.sys_setgroups(1, syscalls.WILDCARD, ["CapSetgid"]),
        ]
    )
    assert assert_locally_sound(config) == 1
    with install_fault("prove-drop-transition"):
        with pytest.raises(AssertionError):
            assert_locally_sound(config)
    assert assert_locally_sound(config) == 1


def test_dropped_transition_is_caught_by_prove_oracle():
    case = {
        "kind": "query", "attack": 1, "caps": ["CapSetgid"],
        "uids": [1000, 1000, 1000], "gids": [1000, 1000, 1000],
        "surface": ["open_read", "setgroups"], "repeat": 1, "max_states": 20_000,
    }
    oracle = family("prove")
    assert oracle.run(case).ok
    with install_fault("prove-drop-transition"):
        result = oracle.run(case)
    assert result.failed
    assert "setgroups -> open" in result.details


def test_dropped_transition_is_caught_by_generated_cases(tmp_path):
    # The fuzz-smoke campaign itself, not a pinned case: the generated
    # mix must hold setgroups-only paths into the kmem group.
    result = run_campaign(
        seed=2, runs=500, families=["prove"], artifacts_dir=tmp_path,
        inject="prove-drop-transition",
    )
    assert result.failures


# -- the paper's programs ------------------------------------------------------


@pytest.fixture(scope="module")
def golden_queries():
    """``{label: (query, golden verdict)}`` over the eight study programs."""
    queries = {}
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        golden = json.loads(path.read_text())
        spec = spec_by_name(path.stem)
        analyzer = PrivAnalyzer()
        module, _, _ = analyzer.compile(spec)
        chrono, _, _ = analyzer.run_dynamic(spec, module)
        surface = syscalls_used(module)
        for phase in chrono.phases:
            for attack in analyzer.attacks:
                label = f"{phase.name}/attack{attack.attack_id}"
                query = attack.build_query(
                    phase.privileges, phase.uids, phase.gids, surface, label=label
                )
                queries[label] = (query, golden[label]["verdict"])
    return queries


def test_golden_queries_proved_exactly(golden_queries):
    proved = {label for label, (query, _) in golden_queries.items() if prove(query)}
    verdicts = {label: verdict for label, (_, verdict) in golden_queries.items()}
    assert len(verdicts) == 156
    assert sum(verdict == "invulnerable" for verdict in verdicts.values()) == 75
    assert {verdicts[label] for label in proved} == {"invulnerable"}
    assert len(proved) == 66
    assert {
        "suRef_priv4/attack2", "suRef_priv3/attack2",
        "suRef_priv5/attack1", "suRef_priv5/attack2",
    } <= proved


# -- the two non-monotone traps --------------------------------------------------


def _query(*elements, goal=None):
    config = Configuration(
        [
            model.process_for_user(1, uid=1000, gid=1000),
            model.user(20, 1000),
            model.group(21, 42),
            *elements,
        ]
    )
    return RosaQuery("trap", config, goal or goals.file_opened_for_read(3))


def test_joining_a_group_may_deny_access():
    # 0o604: "other" may read, group 42 may not.  Whether the process
    # joined 42 is uncertain, so both DAC classes must be tried.
    query = _query(
        model.file_obj(3, name="/f", owner=0, group=42, perms=0o604),
        syscalls.sys_setgroups(1, syscalls.WILDCARD, ["CapSetgid"]),
        syscalls.sys_open(1, 3, "r", []),
    )
    assert not prove(query)
    assert check(query).verdict is Verdict.VULNERABLE


def test_unlinking_the_parent_entry_widens_lookup():
    # The entry is not searchable, so the open fails, until an unlink
    # (with CAP_DAC_OVERRIDE) removes it: lookup without a parent entry
    # is unconstrained, and the file itself is world-readable.
    query = _query(
        model.file_obj(3, name="/f", owner=0, group=0, perms=0o644),
        model.dir_entry(4, name="/d", owner=0, group=0, perms=0o700, inode=3),
        syscalls.sys_unlink(1, 4, ["CapDacOverride"]),
        syscalls.sys_open(1, 3, "r", []),
    )
    assert not prove(query)
    report = check(query)
    assert report.verdict is Verdict.VULNERABLE
    assert report.witness == ["unlink", "open"]
    # Without the unlink the same open is provably unreachable.
    locked = _query(*list(query.initial.objects())[3:], syscalls.sys_open(1, 3, "r", []))
    assert prove(locked)


# -- declining -------------------------------------------------------------------


def test_declines_what_it_cannot_describe():
    file_ = model.file_obj(3, name="/f", owner=0, group=0, perms=0o600)
    base = _query(file_, syscalls.sys_open(1, 3, "r", []))
    assert prove(base)
    # A hand-written goal has no may_hold.
    assert not prove(_query(file_, goal=lambda config: False))
    # An object-creating message has no transfer.
    assert not prove(_query(file_, syscalls.sys_socket(1, [])))
    # A system that is not a plain ObjectSystem of known rules.
    class Custom(ObjectSystem):
        pass

    custom = RosaQuery("trap", base.initial, base.goal, system=Custom("X", unix_rules()))
    assert not prove(custom)
    # A repeated object id.
    twin = model.file_obj(3, name="/g", owner=1000, group=0, perms=0o600)
    assert not prove(_query(file_, twin, syscalls.sys_open(1, 3, "r", [])))


def test_any_of_proves_only_with_every_part_abstract():
    file_ = model.file_obj(3, name="/f", owner=0, group=0, perms=0o600)
    both = goals.any_of(goals.file_opened_for_read(3), goals.file_opened_for_write(3))
    assert prove(_query(file_, syscalls.sys_open(1, 3, "rw", []), goal=both))
    opaque = goals.any_of(goals.file_opened_for_read(3), lambda config: False)
    assert not hasattr(opaque, "may_hold")


def test_prover_source_binds_system_signature(monkeypatch):
    assert "repro.rosa.prove" in keys.MODEL_MODULES
    before = keys.system_signature(ObjectSystem("UNIX", unix_rules()))
    original = keys._source_digest
    monkeypatch.setattr(
        keys, "_source_digest",
        lambda name: "edited" if name == "repro.rosa.prove" else original(name),
    )
    keys._model_source.cache_clear()
    try:
        after = keys.system_signature(ObjectSystem("UNIX", unix_rules()))
    finally:
        monkeypatch.undo()
        keys._model_source.cache_clear()
    assert after is not None and after != before
    assert keys.system_signature(ObjectSystem("UNIX", unix_rules())) == before
