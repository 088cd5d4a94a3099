"""The differential oracles and metamorphic properties.

Each **oracle family** bundles three functions under a name:

* ``generate(rng, max_size)`` — draw one JSON case from the seeded
  generators;
* ``run(case)`` — build the live inputs, execute the paired
  implementations (or the base/mutant pair for metamorphic properties),
  and return an :class:`OracleResult`;
* ``shrink_candidates(case)`` — propose structurally smaller variants
  for the greedy shrinker.

Differential families (the default campaign):

* ``cache`` — query-cache **on vs off** (plus a second cache-served
  pass, and both passes again with queries keyed by their inputs and
  built only on a miss) must agree search for search, and input keys
  must be equal exactly when the built configurations' keys are;
* ``vm`` — the **compiled VM core vs the straight-line reference**
  evaluator must agree on exit code, stdout, instruction count and the
  entire final kernel state, including exact error messages and
  budget-exhaustion points;
* ``ledger`` — a run ledger **written, read back and diffed against
  itself** must be clean;
* ``profile`` — the **privilege profile extracted from the live run vs
  from its captured ledger** must agree bit for bit (the corpus sweep's
  cache stores ledger-shaped profiles; a skew here silently poisons
  every peer-group comparison);
* ``prove`` — a query the **abstract pre-check proves** INVULNERABLE
  (:mod:`repro.rosa.prove`) must never be VULNERABLE to the **raw
  search** (INVULNERABLE or a state-budget TIMEOUT only).  Cases are
  attack queries and config cases with extra messages and a random goal;
  unproved cases are skips.

Metamorphic families (opt-in via ``--oracle``; slower, run whole
pipelines or searches per case):

* ``priv-remove`` — inserting ``priv_remove`` of a *dead* (not
  permitted) privilege never flips any attack's vulnerability and never
  grows any exposure window beyond the inserted instructions;
* ``monotone`` — removing a capability from the attacker's granted set
  never turns an invulnerable configuration vulnerable;
* ``rule-order`` — permuting the rule list preserves the reachable
  state set whenever the search exhausts within budget.

Comparisons use :func:`report_fingerprint`, which deliberately excludes
``elapsed`` (wall-clock), ``from_cache`` (provenance, not answer) and
``compromised_state`` (store-served reports carry the picklable essence
without the witness configuration; its absence is documented behaviour,
not a disagreement).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import tempfile
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.testkit import generators, shrink

Case = Dict[str, Any]


@dataclasses.dataclass
class OracleResult:
    """One oracle invocation's outcome."""

    family: str
    ok: bool
    #: True when the property did not apply (e.g. the search timed out,
    #: so reachable sets are incomparable).  Skips are not failures.
    skipped: bool = False
    details: str = ""

    @property
    def failed(self) -> bool:
        return not self.ok and not self.skipped


@dataclasses.dataclass(frozen=True)
class OracleFamily:
    name: str
    description: str
    generate: Callable[[random.Random, int], Case]
    run: Callable[[Case], OracleResult]
    shrink_candidates: Callable[[Case], Iterable[Case]]


_REGISTRY: Dict[str, OracleFamily] = {}


def _register(family: OracleFamily) -> OracleFamily:
    _REGISTRY[family.name] = family
    return family


def family(name: str) -> OracleFamily:
    """Look up an oracle family by name."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown oracle family {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def report_fingerprint(report) -> Tuple:
    """The comparable essence of one :class:`RosaReport`."""
    return (
        report.verdict.value,
        tuple(report.witness),
        report.states_explored,
        report.states_seen,
        report.stats.peak_frontier,
        report.stats.dedup_hits,
        report.stats.max_depth,
    )


def _mismatch(family_name: str, label_a: str, a, label_b: str, b) -> OracleResult:
    return OracleResult(
        family=family_name,
        ok=False,
        details=f"{label_a} != {label_b}:\n  {label_a}: {a!r}\n  {label_b}: {b!r}",
    )


# -- cache: on vs off ---------------------------------------------------------


def _key_variants(query_case: Case) -> Iterable[Case]:
    """The case and variants whose key must move exactly with its configuration.

    Clearing the caps or bumping ``repeat`` changes the configuration
    only when a message is built; a label, an unmodelled syscall or the
    /dev/mem mode of an attack without /dev/mem never changes it.
    """
    yield query_case
    yield dict(query_case, caps=[])
    yield dict(query_case, repeat=int(query_case.get("repeat", 1)) + 1)
    yield dict(query_case, label="renamed", devmem_perms=0)
    yield dict(query_case, surface=sorted(set(query_case["surface"]) | {"getpid"}))


def _run_cache(case: Case) -> OracleResult:
    from repro.rosa.engine import QueryCache, QueryEngine
    from repro.rosa.keys import query_cache_key

    # Input keys must split the batch exactly as configuration keys do.
    variants = [
        variant for query_case in case["queries"] for variant in _key_variants(query_case)
    ]
    keyed = []
    for variant in variants:
        built = generators.build_query_request(variant)
        deferred = generators.build_query_request(variant, deferred=True)
        keyed.append((
            query_cache_key(deferred.query, deferred.budget),
            query_cache_key(built.query, built.budget),
        ))
    for (i, (input_a, built_a)), (j, (input_b, built_b)) in itertools.combinations(
        enumerate(keyed), 2
    ):
        if (input_a == input_b) != (built_a == built_b):
            return _mismatch(
                "cache", f"input keys equal ({variants[i]} vs {variants[j]})",
                input_a == input_b, "configuration keys equal", built_a == built_b,
            )

    off = QueryEngine(cache=None)
    on = QueryEngine(cache=QueryCache())
    deferred = QueryEngine(cache=QueryCache())

    reports_off = off.run_queries(generators.build_batch_requests(case))
    first = on.run_queries(generators.build_batch_requests(case))
    served = on.run_queries(generators.build_batch_requests(case))
    if on.cache.hits == 0:
        return OracleResult(
            "cache", ok=False, details="second pass produced no cache hits"
        )
    runs = [("on-first", first), ("on-cached", served)]
    for label in ("deferred-first", "deferred-cached"):
        runs.append((label, deferred.run_queries(
            generators.build_batch_requests(case, deferred=True)
        )))
    if deferred.cache.hits == 0:
        return OracleResult(
            "cache", ok=False, details="second deferred pass produced no cache hits"
        )
    for index, a in enumerate(reports_off):
        fa = report_fingerprint(a)
        for label, reports in runs:
            fb = report_fingerprint(reports[index])
            if fa != fb:
                return _mismatch("cache", f"off[{index}]", fa, f"{label}[{index}]", fb)
    return OracleResult("cache", ok=True)


def _shrink_batch(case: Case) -> Iterable[Case]:
    yield from shrink.shrunk_lists(case, "queries")
    for index, query_case in enumerate(case.get("queries", [])):
        for key in ("caps", "surface"):
            for variant_query in shrink.shrunk_lists(query_case, key):
                variant = dict(case)
                queries = list(case["queries"])
                queries[index] = variant_query
                variant["queries"] = queries
                yield variant


_register(
    OracleFamily(
        name="cache",
        description="query cache on vs off (plus a cache-served pass), "
        "queries built before or after keying",
        generate=generators.gen_batch_case,
        run=_run_cache,
        shrink_candidates=_shrink_batch,
    )
)


# -- vm: compiled core vs straight-line reference -----------------------------


def _fs_listing(fs) -> Tuple:
    def walk(ino: int, path: str, acc: List) -> None:
        node = fs.inode(ino)
        acc.append((path or "/", node.kind, node.owner, node.group, node.mode,
                    node.content))
        if node.entries:
            for name in sorted(node.entries):
                walk(node.entries[name], f"{path}/{name}", acc)

    listing: List = []
    walk(fs.root_ino, "", listing)
    return tuple(listing)


def kernel_fingerprint(kernel) -> Tuple:
    """The comparable essence of one simulated machine's final state."""
    processes = tuple(
        (
            pid,
            proc.state,
            (proc.creds.ruid, proc.creds.euid, proc.creds.suid),
            (proc.creds.rgid, proc.creds.egid, proc.creds.sgid),
            tuple(sorted(proc.creds.supplementary)),
            proc.caps.effective.describe(),
            proc.caps.permitted.describe(),
            tuple(sorted(proc.fds)),
            proc.exit_signal,
        )
        for pid, proc in sorted(kernel.processes.items())
    )
    return (
        processes,
        tuple(sorted(kernel.bound_ports.items())),
        tuple(kernel.devmem_reads),
        tuple(kernel.devmem_writes),
        _fs_listing(kernel.fs),
    )


def _execute_program(case: Case, interpreter_cls) -> Tuple:
    from repro.caps import CapabilitySet
    from repro.frontend import compile_source
    from repro.oskernel.setup import build_kernel
    from repro.vm.interpreter import VMError

    module = compile_source(generators.render_program(case), "fuzzcase")
    kernel = build_kernel()
    process = kernel.spawn(
        int(case["uid"]), int(case["gid"]),
        permitted=CapabilitySet(case["permitted"]),
    )
    vm = interpreter_cls(module, kernel, process)
    try:
        exit_code: Any = vm.run()
    except VMError as error:
        exit_code = ("vmerror", str(error))
    return (
        exit_code,
        tuple(vm.stdout),
        vm.executed_instructions,
        kernel_fingerprint(kernel),
    )


_VM_SIDE_LABELS = ("exit", "stdout", "instructions", "kernel")


def _run_vm(case: Case) -> OracleResult:
    from repro.testkit.reference import ReferenceInterpreter
    from repro.vm.interpreter import Interpreter

    production = _execute_program(case, Interpreter)
    reference = _execute_program(case, ReferenceInterpreter)
    for label, a, b in zip(_VM_SIDE_LABELS, production, reference):
        if a != b:
            return _mismatch("vm", f"vm.{label}", a, f"reference.{label}", b)
    return OracleResult("vm", ok=True)


def _flatten_compounds(body: List) -> Iterable[List]:
    """Variants replacing one if/loop with its (flattened) sub-statements."""
    for index, stmt in enumerate(body):
        if stmt[0] == "loop":
            yield body[:index] + list(stmt[2]) + body[index + 1 :]
        elif stmt[0] == "if":
            yield body[:index] + list(stmt[2]) + list(stmt[3]) + body[index + 1 :]


def _shrink_program(case: Case) -> Iterable[Case]:
    body = case.get("body", [])
    for smaller in shrink.drop_chunks(list(body)):
        variant = dict(case)
        variant["body"] = smaller
        yield variant
    for flattened in _flatten_compounds(list(body)):
        variant = dict(case)
        variant["body"] = flattened
        yield variant
    yield from shrink.shrunk_lists(case, "permitted")


_register(
    OracleFamily(
        name="vm",
        description="compiled VM core vs straight-line reference evaluator",
        generate=generators.gen_program_case,
        run=_run_vm,
        shrink_candidates=_shrink_program,
    )
)


# -- ledger: write -> read -> self-diff ---------------------------------------


def _run_ledger(case: Case) -> OracleResult:
    from repro.core.ledger import RunLedger, capture_rosa, diff_ledgers
    from repro.rosa.engine import QueryEngine
    from repro.telemetry import Telemetry

    request = generators.build_query_request(case)
    telemetry = Telemetry.enabled(audit=True)
    engine = QueryEngine(cache=None, telemetry=telemetry)
    report = engine.check(request.query, request.budget)
    with tempfile.TemporaryDirectory(prefix="fuzz-ledger-") as root:
        first = capture_rosa(f"{root}/a", report, telemetry, timestamp=0.0)
        capture_rosa(f"{root}/b", report, telemetry, timestamp=0.0)
        second = RunLedger.load(f"{root}/b")
        diff = diff_ledgers(first, second)
        if not diff.clean:
            return OracleResult(
                "ledger", ok=False,
                details="self-diff not clean:\n" + diff.render(),
            )
        if first.manifest != second.manifest:
            return _mismatch(
                "ledger", "manifest-a", first.manifest, "manifest-b", second.manifest
            )
    return OracleResult("ledger", ok=True)


def _shrink_query(case: Case) -> Iterable[Case]:
    for key in ("caps", "surface"):
        yield from shrink.shrunk_lists(case, key)
    if case.get("repeat", 1) != 1:
        variant = dict(case)
        variant["repeat"] = 1
        yield variant


_register(
    OracleFamily(
        name="ledger",
        description="run ledger write -> read -> self-diff must be clean",
        generate=generators.gen_query_case,
        run=_run_ledger,
        shrink_candidates=_shrink_query,
    )
)


# -- profile: live extraction == ledger extraction ----------------------------


def _gen_profile_case(rng: random.Random, max_size: int = 20) -> Case:
    # Family-conditioned programs exercise realistic privilege shapes
    # (brackets, credential flips, multi-phase daemons) — exactly the
    # structures the profile extractor condenses.
    return generators.gen_corpus_program_case(rng, max_size)


def _run_profile(case: Case) -> OracleResult:
    from repro.core.ledger import capture_analysis
    from repro.core.pipeline import PrivAnalyzer
    from repro.corpus.profile import profile_from_analysis, profile_from_ledger
    from repro.rewriting import SearchBudget
    from repro.telemetry import Telemetry

    telemetry = Telemetry.enabled(audit=True)
    analyzer = PrivAnalyzer(
        budget=SearchBudget(max_states=20_000, max_seconds=10.0),
        telemetry=telemetry,
    )
    analysis = analyzer.analyze(
        generators.build_program_spec(case, name="fuzz-profile")
    )
    live = profile_from_analysis(analysis, audit=telemetry.audit).to_dict()
    with tempfile.TemporaryDirectory(prefix="fuzz-profile-") as root:
        # capture_analysis returns the ledger *re-loaded from disk*, so
        # the comparison crosses the full write -> parse round trip.
        ledger = capture_analysis(root, analysis, telemetry, timestamp=0.0)
        persisted = profile_from_ledger(ledger).to_dict()
    if live != persisted:
        for key in sorted(set(live) | set(persisted)):
            if live.get(key) != persisted.get(key):
                return _mismatch(
                    "profile",
                    f"live.{key}", live.get(key),
                    f"ledger.{key}", persisted.get(key),
                )
    return OracleResult("profile", ok=True)


_register(
    OracleFamily(
        name="profile",
        description="privilege profile from the live run == from its ledger",
        generate=_gen_profile_case,
        run=_run_profile,
        shrink_candidates=_shrink_program,
    )
)


# -- store: live search == shared-store-served across engines -----------------


def _run_store(case: Case) -> OracleResult:
    """Three sides: no store, store-cold (publishes), store-warm served.

    The served side is a *different* engine with an empty in-memory LRU
    and a fresh store handle over the same directory — exactly a second
    client or a server restart.  Besides bit-identical fingerprints, the
    family asserts the store actually served (nonzero hits, zero
    rejections): a fail-closed path that silently rejected everything
    would be correct but useless, and that is a bug too.
    """
    from repro.rosa.engine import QueryCache, QueryEngine
    from repro.rosa.store import SharedVerdictStore

    live = QueryEngine(cache=None)
    reports_live = live.run_queries(generators.build_batch_requests(case))
    with tempfile.TemporaryDirectory(prefix="fuzz-store-") as root:
        first = QueryEngine(cache=QueryCache(), store=SharedVerdictStore(root))
        reports_first = first.run_queries(generators.build_batch_requests(case))
        warm_store = SharedVerdictStore(root)
        warm = QueryEngine(cache=QueryCache(), store=warm_store)
        reports_warm = warm.run_queries(generators.build_batch_requests(case))
        if warm_store.hits == 0:
            return OracleResult(
                "store", ok=False,
                details=(
                    "warm engine produced no store hits "
                    f"(misses={warm_store.misses}, "
                    f"rejected={warm_store.rejected})"
                ),
            )
        if warm_store.rejected:
            return OracleResult(
                "store", ok=False,
                details=f"{warm_store.rejected} published entr(y/ies) "
                "failed attestation on re-read",
            )
    for index, (a, b, c) in enumerate(
        zip(reports_live, reports_first, reports_warm)
    ):
        fa, fb, fc = (report_fingerprint(r) for r in (a, b, c))
        if fa != fb:
            return _mismatch("store", f"live[{index}]", fa, f"cold[{index}]", fb)
        if fa != fc:
            return _mismatch("store", f"live[{index}]", fa, f"served[{index}]", fc)
    return OracleResult("store", ok=True)


_register(
    OracleFamily(
        name="store",
        description="shared verdict store: cold publish == warm serve == live",
        generate=generators.gen_batch_case,
        run=_run_store,
        shrink_candidates=_shrink_batch,
    )
)


# -- priv-remove: dead-privilege insertion is inert ---------------------------


def _analyze_case(case: Case, name: str):
    from repro.core.pipeline import PrivAnalyzer
    from repro.rewriting import SearchBudget

    analyzer = PrivAnalyzer(budget=SearchBudget(max_states=20_000, max_seconds=10.0))
    return analyzer.analyze(generators.build_program_spec(case, name=name))


def _vulnerable_instructions(analysis, attack_id: int) -> int:
    return sum(
        phase.phase.instruction_count
        for phase in analysis.phases
        if phase.vulnerable_to(attack_id)
    )


def _run_priv_remove(case: Case) -> OracleResult:
    from repro.core.attacks import ALL_ATTACKS

    dead = [
        cap for cap in generators.CAP_POOL if cap not in case.get("permitted", [])
    ]
    if not dead:
        return OracleResult("priv-remove", ok=True, skipped=True,
                            details="no dead capability available")
    mutant = dict(case)
    mutant["body"] = [["priv", "remove", dead[0]]] + list(case.get("body", []))

    base = _analyze_case(case, "fuzz-base")
    variant = _analyze_case(mutant, "fuzz-mutant")
    delta = variant.chrono.total - base.chrono.total
    if delta < 0:
        return _mismatch(
            "priv-remove", "base.total", base.chrono.total,
            "mutant.total", variant.chrono.total,
        )
    for attack in ALL_ATTACKS:
        before = _vulnerable_instructions(base, attack.attack_id)
        after = _vulnerable_instructions(variant, attack.attack_id)
        if (before > 0) != (after > 0):
            return _mismatch(
                "priv-remove",
                f"attack{attack.attack_id}.vulnerable(base)", before > 0,
                f"attack{attack.attack_id}.vulnerable(mutant)", after > 0,
            )
        if after > before + delta:
            return _mismatch(
                "priv-remove",
                f"attack{attack.attack_id}.window(base)+delta", before + delta,
                f"attack{attack.attack_id}.window(mutant)", after,
            )
    return OracleResult("priv-remove", ok=True)


_register(
    OracleFamily(
        name="priv-remove",
        description="inserting priv_remove of a dead privilege is inert",
        generate=generators.gen_program_case,
        run=_run_priv_remove,
        shrink_candidates=_shrink_program,
    )
)


# -- monotone: fewer attacker privileges never increase exposure --------------


def _gen_monotone_case(rng: random.Random, max_size: int = 20) -> Case:
    case = generators.gen_query_case(rng, max_size)
    if not case["caps"]:
        # The property shrinks the granted set; an empty set would skip.
        case["caps"] = [rng.choice(generators.CAP_POOL)]
    return case


def _run_monotone(case: Case) -> OracleResult:
    from repro.rosa.query import Verdict, check

    if not case.get("caps"):
        return OracleResult("monotone", ok=True, skipped=True,
                            details="empty capability set has nothing to shrink")
    base_request = generators.build_query_request(case)
    base = check(base_request.query, base_request.budget)
    if base.verdict is Verdict.TIMEOUT:
        return OracleResult("monotone", ok=True, skipped=True,
                            details="base search exceeded budget")
    for removed in case["caps"]:
        smaller_case = dict(case)
        smaller_case["caps"] = [cap for cap in case["caps"] if cap != removed]
        request = generators.build_query_request(smaller_case)
        smaller = check(request.query, request.budget)
        if smaller.verdict is Verdict.TIMEOUT:
            continue
        if (
            smaller.verdict is Verdict.VULNERABLE
            and base.verdict is not Verdict.VULNERABLE
        ):
            return _mismatch(
                "monotone",
                f"verdict(without {removed})", smaller.verdict.value,
                "verdict(full set)", base.verdict.value,
            )
    return OracleResult("monotone", ok=True)


_register(
    OracleFamily(
        name="monotone",
        description="shrinking the granted capability set never adds exposure",
        generate=_gen_monotone_case,
        run=_run_monotone,
        shrink_candidates=_shrink_query,
    )
)


# -- rule-order: permuting rules preserves the reachable set ------------------


def _reachable_keys(system, initial, max_states: int) -> Optional[set]:
    """Exhaustive reachable-key collection; None when truncated.

    Only *exhausted* explorations are comparable: under a budget, two
    rule orders legitimately truncate at different frontiers.
    """
    seen = {initial.key}
    frontier = [initial]
    while frontier:
        config = frontier.pop()
        for _label, successor in system.successors(config):
            key = successor.key
            if key not in seen:
                if len(seen) >= max_states:
                    return None
                seen.add(key)
                frontier.append(successor)
    return seen


def _gen_rule_order_case(rng: random.Random, max_size: int = 20) -> Case:
    case = generators.gen_config_case(rng, max_size)
    case["perm_seed"] = rng.randrange(1 << 30)
    return case


def _run_rule_order(case: Case) -> OracleResult:
    from repro.rewriting import ObjectSystem
    from repro.rosa.rules import unix_rules

    initial = generators.build_configuration(case)
    max_states = int(case.get("max_states", 30_000))
    rules = list(unix_rules())
    base = _reachable_keys(ObjectSystem("UNIX", rules), initial, max_states)
    if base is None:
        return OracleResult("rule-order", ok=True, skipped=True,
                            details="exploration truncated by budget")
    permuted_rules = list(rules)
    random.Random(case.get("perm_seed", 0)).shuffle(permuted_rules)
    permuted = _reachable_keys(
        ObjectSystem("UNIX-permuted", permuted_rules), initial, max_states
    )
    if permuted is None:
        return OracleResult("rule-order", ok=True, skipped=True,
                            details="permuted exploration truncated by budget")
    if base != permuted:
        only_base = len(base - permuted)
        only_permuted = len(permuted - base)
        return OracleResult(
            "rule-order", ok=False,
            details=(
                f"reachable sets differ: {len(base)} vs {len(permuted)} states "
                f"({only_base} only in rule order A, {only_permuted} only in B)"
            ),
        )
    return OracleResult("rule-order", ok=True)


def _shrink_config(case: Case) -> Iterable[Case]:
    for key in ("messages", "files", "dirs", "users", "groups", "ports", "caps"):
        yield from shrink.shrunk_lists(case, key)


_register(
    OracleFamily(
        name="rule-order",
        description="rule permutation preserves the reachable state set",
        generate=_gen_rule_order_case,
        run=_run_rule_order,
        shrink_candidates=_shrink_config,
    )
)


# -- prove: the search never contradicts a proof ------------------------------


def _gen_prove_case(rng: random.Random, max_size: int = 20) -> Case:
    """An attack query case, or a config case with extra messages and a goal."""
    if rng.random() < 0.5:
        return dict(generators.gen_query_case(rng, max_size), kind="query")
    case = generators.gen_config_case(rng, max_size)
    case["messages"] += [
        rng.choice(generators.EXTRA_CONFIG_MESSAGES) for _ in range(rng.randint(0, 2))
    ]
    case["goal"] = generators.gen_goal(rng, case)
    case["kind"] = "config"
    return case


def _run_prove(case: Case) -> OracleResult:
    from repro.rewriting import SearchBudget
    from repro.rosa.prove import prove
    from repro.rosa.query import RosaQuery, Verdict, check

    if case["kind"] == "query":
        request = generators.build_query_request(case)
        query, budget = request.query, request.budget
    else:
        query = RosaQuery(
            "prove-config",
            generators.build_configuration(case),
            generators.build_goal(case["goal"]),
        )
        budget = SearchBudget(max_states=int(case.get("max_states", 30_000)))
    if not prove(query):
        return OracleResult("prove", ok=True, skipped=True, details="not proved")
    # No wall-clock budget: a TIMEOUT here is a state-budget one, which
    # a proof may decide.
    report = check(query, budget)
    if report.verdict is Verdict.VULNERABLE:
        return OracleResult(
            "prove", ok=False,
            details=(
                "proved unreachable, but the search reaches the goal via "
                + " -> ".join(report.witness)
            ),
        )
    return OracleResult("prove", ok=True)


def _shrink_prove(case: Case) -> Iterable[Case]:
    if case["kind"] == "query":
        yield from _shrink_query(case)
    else:
        yield from _shrink_config(case)


_register(
    OracleFamily(
        name="prove",
        description="a query the abstract pre-check proves is never found vulnerable",
        generate=_gen_prove_case,
        run=_run_prove,
        shrink_candidates=_shrink_prove,
    )
)


#: Family names, in registration order.
ALL_FAMILIES: Tuple[str, ...] = tuple(_REGISTRY)

#: The fast differential families ``privanalyzer fuzz`` runs by default;
#: the metamorphic properties run whole pipelines or reachability
#: explorations per case and are opt-in via ``--oracle``.
DEFAULT_FAMILIES: Tuple[str, ...] = (
    "cache",
    "vm",
    "ledger",
    "profile",
    "store",
    "prove",
)
