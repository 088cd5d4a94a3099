"""The intrinsics surface, exercised from PrivC programs."""

import itertools

import pytest

from repro.caps import CapabilitySet
from repro.frontend import compile_source
from repro.ir import I64, IRBuilder, Module
from repro.ir.values import ConstantInt
from repro.oskernel.setup import build_kernel, UID_USER, GID_USER
from repro.telemetry import MetricsRegistry, Profiler
from repro.testkit.reference import ReferenceInterpreter
from repro.vm import Interpreter, VMError
from repro.vm.intrinsics import PURE_INTRINSICS, SYSCALL_INTRINSICS, default_intrinsics

from tests.test_vm_cost import cold_code  # noqa: F401  (a fixture)


def run(source, caps=(), uid=UID_USER, gid=GID_USER, argv=(), stdin=(), env=None,
        refactored=False, setup=None):
    module = compile_source(source)
    kernel = build_kernel(refactored_ownership=refactored)
    process = kernel.spawn(uid, gid, permitted=CapabilitySet.of(*caps))
    kernel.sys_prctl_lockdown(process.pid)
    vm = Interpreter(module, kernel, process, argv=list(argv), stdin=list(stdin))
    if env:
        vm.env.update(env)
    if setup:
        setup(kernel, vm)
    code = vm.run()
    return code, vm.stdout, kernel, process


class TestErrnoConvention:
    def test_failed_syscall_returns_negative_errno(self):
        _, out, _, _ = run('void main() { print_int(open("/etc/shadow", "r")); }')
        assert out == ["-13"]  # -EACCES

    def test_missing_file_is_enoent(self):
        _, out, _, _ = run('void main() { print_int(open("/nope", "r")); }')
        assert out == ["-2"]


class TestGetspnam:
    def test_requires_privilege(self):
        source = """
        void main() {
            print_int(strlen(getspnam("user")));
            priv_raise(CAP_DAC_READ_SEARCH);
            print_str(getspnam("user"));
            priv_lower(CAP_DAC_READ_SEARCH);
        }
        """
        _, out, _, _ = run(source, caps=["CapDacReadSearch"])
        assert out == ["0", "$6$userpw"]

    def test_unknown_user_empty(self):
        source = """
        void main() {
            priv_raise(CAP_DAC_READ_SEARCH);
            print_int(strlen(getspnam("nobody")));
        }
        """
        _, out, _, _ = run(source, caps=["CapDacReadSearch"])
        assert out == ["0"]

    def test_crypt_matches_stored_hash(self):
        source = """
        void main() {
            priv_raise(CAP_DAC_READ_SEARCH);
            str stored = getspnam("other");
            priv_lower(CAP_DAC_READ_SEARCH);
            print_int(streq(stored, crypt("otherpw")));
            print_int(streq(stored, crypt("wrong")));
        }
        """
        _, out, _, _ = run(source, caps=["CapDacReadSearch"])
        assert out == ["1", "0"]


class TestUserDatabase:
    def test_getpwnam_and_back(self):
        source = """
        void main() {
            int uid = getpwnam_uid("other");
            print_int(uid);
            print_str(getpwuid_name(uid));
            print_int(getpw_gid(uid));
            print_int(getpwnam_uid("stranger"));
        }
        """
        _, out, _, _ = run(source)
        assert out == ["1001", "other", "1001", "-1"]


class TestShadowHelpers:
    def test_shadow_replace_hash(self):
        source = """
        void main() {
            str db = "a:1:x\\nb:2:y\\n";
            str updated = shadow_replace_hash(db, "b", "NEW");
            print_str(str_field(str_field(updated, 1, "\\n"), 1, ":"));
            print_str(str_field(str_field(updated, 0, "\\n"), 1, ":"));
        }
        """
        _, out, _, _ = run(source)
        assert out == ["NEW", "1"]


class TestStatFamily:
    def test_stat_fields(self):
        source = """
        void main() {
            print_int(stat_owner("/etc/shadow"));
            print_int(stat_group("/etc/shadow"));
            print_int(stat_mode("/etc/shadow"));
            print_int(stat_exists("/etc/shadow"));
            print_int(stat_exists("/etc/nothing"));
        }
        """
        _, out, _, _ = run(source)
        assert out == ["0", "42", str(0o640), "1", "0"]


class TestConversions:
    @pytest.mark.parametrize(
        "text,expected",
        [("42", 42), ("-7", -7), ("10x", 10), ("", 0), ("abc", 0), ("  5", 5)],
    )
    def test_str_to_int(self, text, expected):
        _, out, _, _ = run(
            'void main() { print_int(str_to_int(arg_str(0))); }', argv=[text]
        )
        assert out == [str(expected)]

    def test_int_to_str(self):
        _, out, _, _ = run('void main() { print_str(int_to_str(0 - 12)); }')
        assert out == ["-12"]


class TestNetworkingHelpers:
    def test_accept_and_recv_drain_queues(self):
        source = """
        void main() {
            int fd = socket();
            print_int(net_accept(fd));
            print_int(net_accept(fd));
            print_str(net_recv(fd));
            print_str(net_recv(fd));
            net_send(fd, "reply");
        }
        """
        _, out, _, kernel = run(
            source, env={"connections": [5], "incoming": ["hello"]}
        )
        assert out == ["5", "-1", "hello", ""]

    def test_net_send_records(self):
        module = compile_source('void main() { net_send(1, "data"); }')
        kernel = build_kernel()
        process = kernel.spawn(UID_USER, GID_USER)
        vm = Interpreter(module, kernel, process)
        vm.run()
        assert vm.env["sent"] == ["data"]


class TestPrivWrapperIntrinsics:
    def test_raise_of_unpermitted_cap_fails(self):
        source = "void main() { print_int(priv_raise(CAP_SYS_ADMIN)); }"
        _, out, _, _ = run(source, caps=["CapSetuid"])
        assert out == ["-1"]  # -EPERM

    def test_remove_then_raise_fails(self):
        source = """
        void main() {
            priv_remove(CAP_SETUID);
            print_int(priv_raise(CAP_SETUID));
        }
        """
        _, out, _, _ = run(source, caps=["CapSetuid"])
        assert out == ["-1"]

    def test_mask_composition(self):
        source = """
        void main() {
            print_int(priv_raise(CAP_SETUID | CAP_SETGID));
            print_int(setuid(0));
            print_int(setgid(0));
        }
        """
        _, out, _, process = run(source, caps=["CapSetuid", "CapSetgid"])
        assert out == ["0", "0", "0"]
        assert process.creds.uid_triple == (0, 0, 0)


class TestMiscIntrinsics:
    def test_getpid(self):
        _, out, _, process = run("void main() { print_int(getpid()); }")
        assert out == [str(process.pid)]

    def test_argc(self):
        _, out, _, _ = run("void main() { print_int(argc()); }", argv=["a", "b"])
        assert out == ["2"]

    def test_arg_str_out_of_range(self):
        _, out, _, _ = run('void main() { print_int(strlen(arg_str(9))); }')
        assert out == ["0"]

    def test_getpass_drains_stdin(self):
        source = """
        void main() {
            print_str(getpass("p1: "));
            print_str(getpass("p2: "));
            print_str(getpass("p3: "));
        }
        """
        _, out, _, _ = run(source, stdin=["one", "two"])
        assert out == ["one", "two", ""]


#: Every ``vm.*`` counter one dynamic run of each program leaves in its
#: telemetry registry, from empty code caches.  The VM resolves an
#: intrinsic and its dispatch counters once per VM; these are the counts
#: a per-dispatch lookup gave.
DISPATCH_COUNTERS = {
    "passwd": {
        "vm.instructions_executed": 79701, "vm.intrinsic_dispatches": 1782,
        "vm.syscall_dispatches": 40, "vm.syscall.chmod": 1, "vm.syscall.chown": 1,
        "vm.syscall.close": 3, "vm.syscall.exit": 1, "vm.syscall.getuid": 1,
        "vm.syscall.open": 4, "vm.syscall.prctl_lockdown": 1,
        "vm.syscall.priv_lower": 4, "vm.syscall.priv_raise": 4,
        "vm.syscall.priv_remove": 6, "vm.syscall.read": 2, "vm.syscall.rename": 1,
        "vm.syscall.setuid": 1, "vm.syscall.signal": 3, "vm.syscall.stat_group": 1,
        "vm.syscall.stat_mode": 1, "vm.syscall.stat_owner": 1,
        "vm.syscall.unlink": 1, "vm.syscall.write": 3, "vm.texts_generated": 8,
    },
    "thttpd": {
        "vm.instructions_executed": 91980, "vm.intrinsic_dispatches": 1300,
        "vm.syscall_dispatches": 38, "vm.syscall.bind": 1, "vm.syscall.chown": 1,
        "vm.syscall.chroot": 1, "vm.syscall.close": 3, "vm.syscall.exit": 1,
        "vm.syscall.getgid": 1, "vm.syscall.getuid": 1, "vm.syscall.listen": 1,
        "vm.syscall.open": 3, "vm.syscall.prctl_lockdown": 1,
        "vm.syscall.priv_lower": 4, "vm.syscall.priv_raise": 4,
        "vm.syscall.priv_remove": 10, "vm.syscall.read": 2, "vm.syscall.setgid": 1,
        "vm.syscall.setgroups0": 1, "vm.syscall.socket": 1, "vm.syscall.write": 1,
        "vm.texts_generated": 9,
    },
}


class TestDispatchCounters:
    @pytest.mark.parametrize("program", sorted(DISPATCH_COUNTERS))
    def test_counts_match_per_dispatch_lookup(self, program, cold_code):
        from repro.core.pipeline import PrivAnalyzer
        from repro.programs import spec_by_name
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        analyzer = PrivAnalyzer(telemetry=telemetry)
        spec = spec_by_name(program)
        analyzer.run_dynamic(spec, analyzer.compile(spec)[0])
        counters = {
            name: metric["value"]
            for name, metric in telemetry.metrics.snapshot().items()
            if name.startswith("vm.")
        }
        assert counters == DISPATCH_COUNTERS[program]

    def test_registering_replaces_a_resolved_intrinsic(self):
        module = compile_source("void main() { print_int(getuid()); print_int(getuid()); }")
        kernel = build_kernel()
        vm = Interpreter(module, kernel, kernel.spawn(UID_USER, GID_USER))
        calls = []

        def second_getuid(vm, args):
            calls.append(args)
            return 7

        original = vm.intrinsics["getuid"]

        def first_getuid(vm, args):
            vm.register_intrinsic("getuid", second_getuid)
            return original(vm, args)

        vm.register_intrinsic("getuid", first_getuid)
        vm.run()
        assert vm.stdout == [str(UID_USER), "7"]
        assert calls == [[]]


def _pure_raise_case(before, after, loop):
    """``f(x)`` calling ``strlen`` with ``before`` and ``after`` adds
    around the call in its block.  Straight-line, the call gets ``x``;
    in a loop, the third pass calls it with ``x`` and the others with a
    string.  ``f(5)`` raises inside ``strlen``."""
    module = Module("m")
    strlen = module.add_function("strlen", I64, [I64], ["s"])
    function = module.add_function("f", I64, [I64], ["x"])
    entry = function.add_block("entry")
    builder = IRBuilder(entry)
    arg = function.arguments[0]
    if loop:
        body, done = function.add_block("body"), function.add_block("done")
        builder.jmp(body)
        builder.position_at_end(body)
        counter = builder.phi(I64)
        arg = builder.select(builder.icmp("eq", counter, 2), arg, "abc")
    acc = builder.add(0, 1)
    for _ in range(before):
        acc = builder.add(acc, 1)
    length = builder.call(strlen, [arg])
    for _ in range(after):
        acc = builder.add(acc, length)
    if loop:
        nxt = builder.add(counter, 1)
        builder.br(builder.icmp("slt", nxt, 4), body, done)
        counter.add_incoming(ConstantInt(I64, 0), entry)
        counter.add_incoming(nxt, body)
        builder.position_at_end(done)
    builder.ret(acc)
    return module, function


def _raised(vm, function, args):
    """What calling ``function`` raised, and the VM's count after it."""
    try:
        vm.call_function(function, args)
    except Exception as error:  # noqa: BLE001 - the error is the result
        return type(error), str(error), vm.executed_instructions
    raise AssertionError("the call did not raise")


def _strlen_vm(source, cls=Interpreter, **kwargs):
    module = compile_source(source)
    kernel = build_kernel()
    return cls(module, kernel, kernel.spawn(UID_USER, GID_USER), **kwargs)


#: Calls ``strlen`` five times (four passes of the loop test, one at exit).
STRLEN_LOOP = """
void main() {
    int i = 0;
    while (i < strlen("abcd")) { i = i + 1; }
    print_int(i);
}
"""


class TestPureIntrinsics:
    """The generated core calls a pure intrinsic straight from its call
    site; everything observable matches the dispatching path and the
    reference interpreter."""

    def test_pure_set_is_stock_and_disjoint_from_syscalls(self):
        stock = default_intrinsics()
        assert PURE_INTRINSICS
        assert not set(PURE_INTRINSICS) & SYSCALL_INTRINSICS
        for name, fn in PURE_INTRINSICS.items():
            assert stock[name] is fn, name

    @pytest.mark.parametrize("loop", [False, True])
    @pytest.mark.parametrize("profiled", [False, True])
    def test_a_raising_pure_call_at_each_block_position(self, loop, profiled):
        for before, after in itertools.product(range(3), range(3)):
            module, function = _pure_raise_case(before, after, loop)
            kernel = build_kernel()
            outcomes = []
            for cls in (Interpreter, ReferenceInterpreter):
                vm = cls(module, kernel, kernel.spawn(UID_USER, GID_USER))
                if profiled and cls is Interpreter:
                    vm.attach_profiler(Profiler())
                outcomes.append(_raised(vm, function, [5]))
            assert outcomes[0] == outcomes[1], (before, after)
            assert outcomes[0][0] is TypeError

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_a_registered_override_is_called(self, when):
        vm = _strlen_vm(STRLEN_LOOP)
        main = vm.module.functions["main"]
        calls = []

        def short(vm, args):
            calls.append(args)
            return 2

        if when == "after":
            vm.call_function(main, [])  # compiles main with the stock strlen
            assert vm.stdout == ["4"]
        vm.register_intrinsic("strlen", short)
        vm.call_function(main, [])
        assert vm.stdout[-1] == "2"
        assert calls == [["abcd"]] * 3

    def test_an_override_registered_mid_run_is_called(self):
        vm = _strlen_vm(
            'void main() { print_int(strlen("ab")); getuid(); print_int(strlen("ab")); }'
        )
        original = vm.intrinsics["getuid"]

        def replacing_getuid(vm, args):
            vm.register_intrinsic("strlen", lambda vm, args: 7)
            return original(vm, args)

        vm.register_intrinsic("getuid", replacing_getuid)
        vm.run()
        assert vm.stdout == ["2", "7"]

    def test_a_profiled_run_books_each_call(self):
        profiler = Profiler()
        vm = _strlen_vm(STRLEN_LOOP)
        vm.attach_profiler(profiler)
        vm.run()
        assert vm.stdout == ["4"]
        assert profiler.records[("vm", "intrinsic:strlen")].calls == 5

    def test_dispatch_count_survives_the_budget_error(self):
        full = _strlen_vm(STRLEN_LOOP)
        full.run()
        for budget in range(full.executed_instructions):
            counts = []
            for cls in (Interpreter, ReferenceInterpreter):
                metrics = MetricsRegistry()
                vm = _strlen_vm(STRLEN_LOOP, cls, max_instructions=budget, metrics=metrics)
                with pytest.raises(VMError, match="instruction budget exhausted"):
                    vm.run()
                counts.append((
                    metrics.counter("vm.intrinsic_dispatches").value,
                    vm.executed_instructions,
                ))
            assert counts[0] == counts[1], budget
