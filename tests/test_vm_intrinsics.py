"""The intrinsics surface, exercised from PrivC programs."""

import pytest

from repro.caps import CapabilitySet
from repro.frontend import compile_source
from repro.oskernel.setup import build_kernel, UID_USER, GID_USER
from repro.vm import Interpreter

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
