"""The kernel syscall audit trail: ordering, credentials, ring bounds."""

import json

import pytest

from repro.caps import Capability, CapabilitySet
from repro.core.ledger import _syscalls_by_credential
from repro.frontend import compile_source
from repro.oskernel import Kernel, SyscallError
from repro.oskernel.setup import build_kernel
from repro.telemetry import ManualClock, MetricsRegistry, SyscallAuditTrail
from repro.vm import Interpreter

pytestmark = pytest.mark.telemetry


class TestKernelAudit:
    def test_disabled_by_default(self):
        kernel = Kernel()
        assert kernel.audit is None
        process = kernel.spawn(1000, 1000)
        kernel.sys_getuid(process.pid)  # must not blow up without a trail

    def test_records_in_call_order_with_results(self):
        kernel = build_kernel()
        trail = kernel.enable_audit(SyscallAuditTrail(clock=ManualClock(tick=1.0)))
        process = kernel.spawn(0, 0)
        fd = kernel.sys_open(process.pid, "/etc/passwd", "r")
        kernel.sys_read(process.pid, fd)
        kernel.sys_close(process.pid, fd)
        assert trail.syscall_names() == ["open", "read", "close"]
        assert [entry.seq for entry in trail.records] == [1, 2, 3]
        assert [entry.time for entry in trail.records] == [0.0, 1.0, 2.0]
        open_entry = trail.records[0]
        assert open_entry.pid == process.pid
        assert open_entry.args[0] == "/etc/passwd"
        assert open_entry.result == fd
        assert open_entry.ok

    def test_denial_records_errno_and_propagates(self):
        kernel = build_kernel()
        trail = kernel.enable_audit()
        process = kernel.spawn(1000, 1000)  # no privileges at all
        with pytest.raises(SyscallError):
            kernel.sys_open(process.pid, "/etc/shadow", "r")
        (entry,) = trail.denials()
        assert entry.syscall == "open"
        assert entry.errno == 13  # EACCES
        assert "shadow" in entry.error
        assert entry.result is None

    def test_credentials_snapshot_is_at_call_time(self):
        """A setuid record carries the *pre-transition* credentials."""
        kernel = build_kernel()
        trail = kernel.enable_audit()
        process = kernel.spawn(
            1000, 1000,
            permitted=CapabilitySet.of(Capability.CAP_SETUID),
        )
        kernel.sys_priv_raise(
            process.pid, CapabilitySet.of(Capability.CAP_SETUID)
        )
        kernel.sys_setuid(process.pid, 0)
        setuid_entry = trail.records[-1]
        assert setuid_entry.syscall == "setuid"
        assert setuid_entry.uids == (1000, 1000, 1000)  # before the call
        assert "CapSetuid" in setuid_entry.caps_effective
        assert process.creds.uid_triple == (0, 0, 0)  # after the call

    def test_ring_buffer_evicts_oldest(self):
        kernel = build_kernel()
        trail = kernel.enable_audit(capacity=4)
        process = kernel.spawn(0, 0)
        for _ in range(10):
            kernel.sys_getuid(process.pid)
        assert len(trail) == 4
        assert trail.total == 10
        assert trail.dropped == 6
        assert [entry.seq for entry in trail.records] == [7, 8, 9, 10]

    def test_jsonl_export_round_trips(self):
        kernel = build_kernel()
        trail = kernel.enable_audit()
        process = kernel.spawn(0, 0)
        kernel.sys_getuid(process.pid)
        kernel.sys_fork(process.pid)
        lines = [json.loads(line) for line in trail.to_jsonl().splitlines()]
        assert [line["syscall"] for line in lines] == ["getuid", "fork"]
        assert lines[0]["uids"] == [0, 0, 0]
        assert lines[1]["result"].startswith("<process pid=")

    def test_clear(self):
        kernel = build_kernel()
        trail = kernel.enable_audit()
        process = kernel.spawn(0, 0)
        kernel.sys_getuid(process.pid)
        trail.clear()
        assert len(trail) == 0
        assert trail.total == 1  # sequence numbers keep counting
        assert trail.surfaces == {}

    def test_surface_outlives_ring_eviction(self):
        trail = SyscallAuditTrail(capacity=2)
        names = ["open", "read", "write", "close", "getuid"]
        for name in names:
            trail.record(name, 1, (), uids=(0, 0, 0), gids=(5, 5, 5))
        syscalls = _syscalls_by_credential(trail)
        assert syscalls["by_credential"] == {"uid=0,0,0 gid=5,5,5": sorted(names)}
        assert (syscalls["total"], syscalls["dropped"]) == (5, 3)
        assert trail.syscall_names() == ["close", "getuid"]


#: A program whose syscall order is fully scripted: raise, open-write-close
#: /tmp/scratch, lower, then exit via falling off main.
SCRIPTED_SOURCE = """
void main() {
    priv_raise(CAP_DAC_OVERRIDE);
    int fd = open("/tmp/scratch", "wc");
    write(fd, "hello");
    close(fd);
    priv_lower(CAP_DAC_OVERRIDE);
}
"""


class TestScriptedProgramAudit:
    def test_audit_matches_program_script(self):
        module = compile_source(SCRIPTED_SOURCE, "scripted")
        kernel = build_kernel()
        trail = kernel.enable_audit(SyscallAuditTrail(clock=ManualClock(tick=1.0)))
        process = kernel.spawn(
            1000, 1000,
            permitted=CapabilitySet.of(Capability.CAP_DAC_OVERRIDE),
        )
        vm = Interpreter(module, kernel, process)
        assert vm.run() == 0
        assert trail.syscall_names() == [
            "priv_raise", "open", "write", "close", "priv_lower",
        ]
        # Strictly increasing sequence and timestamps.
        seqs = [entry.seq for entry in trail.records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        times = [entry.time for entry in trail.records]
        assert times == sorted(times)
        # The open ran with CAP_DAC_OVERRIDE raised; the raise itself
        # was recorded with the pre-raise (empty) effective set.
        assert "CapDacOverride" in trail.records[1].caps_effective
        assert trail.records[0].caps_effective == "(empty)"

    def test_pipeline_audit_through_telemetry(self):
        from repro.core import PrivAnalyzer
        from repro.programs import spec_by_name
        from repro.telemetry import Telemetry

        telemetry = Telemetry.enabled(audit=True)
        PrivAnalyzer(telemetry=telemetry).analyze(spec_by_name("passwd"))
        names = telemetry.audit.syscall_names()
        assert names, "pipeline run recorded no syscalls"
        # The AutoPriv-inserted lockdown is the first syscall of the run.
        assert names[0] == "prctl_lockdown"
        # passwd's shadow update opens and closes /etc/shadow.
        assert "open" in names and "close" in names


class TestDroppedGauge:
    """Ring evictions surface as the ``kernel.audit.dropped`` gauge."""

    def test_gauge_tracks_ring_evictions(self):
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
        kernel = build_kernel()
        trail = kernel.enable_audit(
            SyscallAuditTrail(capacity=4, metrics=metrics)
        )
        process = kernel.spawn(0, 0)
        for _ in range(3):
            kernel.sys_getuid(process.pid)
        assert metrics.gauge("kernel.audit.dropped").value == 0
        for _ in range(7):
            kernel.sys_getuid(process.pid)
        assert trail.dropped == 6
        assert metrics.gauge("kernel.audit.dropped").value == 6
        assert metrics.snapshot()["kernel.audit.dropped"] == {
            "type": "gauge",
            "value": 6,
        }

    def test_without_registry_nothing_is_exported(self):
        kernel = build_kernel()
        trail = kernel.enable_audit(SyscallAuditTrail(capacity=2))
        process = kernel.spawn(0, 0)
        for _ in range(5):
            kernel.sys_getuid(process.pid)
        assert trail.dropped == 3  # the trail still counts

    def test_enabled_telemetry_wires_the_gauge(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry.enabled(audit=True)
        assert telemetry.audit is not None
        kernel = build_kernel()
        kernel.enable_audit(telemetry.audit)
        process = kernel.spawn(0, 0)
        kernel.sys_getuid(process.pid)
        # No evictions yet, but the gauge exists and reads zero.
        assert telemetry.metrics.gauge("kernel.audit.dropped").value == 0


class TestAuditDroppedGauge:
    def test_publish_refreshes_a_stale_gauge(self):
        # The gauge only updates on record append; direct ring
        # manipulation (or a merge into a full ring) leaves it stale
        # until an exporter republishes.
        metrics = MetricsRegistry()
        trail = SyscallAuditTrail(capacity=2, metrics=metrics)
        for i in range(3):
            trail.record("open", pid=1, args=(i,))
        assert metrics.gauge("kernel.audit.dropped").value == 1
        trail._ring.popleft()
        assert metrics.gauge("kernel.audit.dropped").value == 1  # stale
        assert trail.publish_dropped() == 2
        assert metrics.gauge("kernel.audit.dropped").value == 2

    def test_clear_republishes(self):
        metrics = MetricsRegistry()
        trail = SyscallAuditTrail(capacity=2, metrics=metrics)
        for i in range(3):
            trail.record("open", pid=1, args=(i,))
        trail.clear()
        assert metrics.gauge("kernel.audit.dropped").value == 3
