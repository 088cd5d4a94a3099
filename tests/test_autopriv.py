"""AutoPriv: privilege-use discovery, liveness, and the remove transform."""

import pytest

from repro.autopriv import analyze_module, transform_module
from repro.autopriv.privuse import (
    direct_uses,
    fold_constant,
    mask_argument,
    registered_signal_handlers,
)
from repro.caps import Capability, CapabilitySet
from repro.frontend import compile_source
from repro.ir import Call, verify_module
from repro.oskernel.setup import build_kernel, UID_USER, GID_USER
from repro.vm import Interpreter


def compile_and_transform(source, *caps, **kwargs):
    module = compile_source(source)
    report = transform_module(module, CapabilitySet.of(*caps), **kwargs)
    verify_module(module)
    return module, report


def run_transformed(module, *caps, argv=(), stdin=()):
    kernel = build_kernel()
    process = kernel.spawn(UID_USER, GID_USER, permitted=CapabilitySet.of(*caps))
    vm = Interpreter(module, kernel, process, argv=list(argv), stdin=list(stdin))
    code = vm.run()
    return code, vm.stdout, process


class TestConstantFolding:
    def test_folds_or_of_constants(self):
        source = """
        void main() { priv_raise(CAP_SETUID | CAP_CHOWN); }
        """
        module = compile_source(source)
        calls = [
            inst
            for inst in module.get_function("main").instructions()
            if isinstance(inst, Call) and inst.direct_target.name == "priv_raise"
        ]
        caps = mask_argument(calls[0])
        assert caps == CapabilitySet.of("CapSetuid", "CapChown")

    def test_non_constant_mask_is_conservative(self):
        source = """
        void main(){
            int m = arg_str(0) == arg_str(1);
            priv_raise(m);
        }
        """
        module = compile_source(source)
        calls = [
            inst
            for inst in module.get_function("main").instructions()
            if isinstance(inst, Call) and inst.direct_target.name == "priv_raise"
        ]
        assert mask_argument(calls[0]) == CapabilitySet.full()

    def test_fold_handles_arithmetic(self):
        from repro.ir import BinOp, ConstantInt, I64

        tree = BinOp("shl", ConstantInt(I64, 1), ConstantInt(I64, 7))
        assert fold_constant(tree) == 1 << 7


class TestDirectUses:
    def test_raise_and_lower_both_count(self):
        source = """
        void f() {
            priv_raise(CAP_SETUID);
            setuid(0);
            priv_lower(CAP_SETUID);
        }
        void main() { f(); }
        """
        module = compile_source(source)
        assert direct_uses(module.get_function("f")) == CapabilitySet.of("CapSetuid")
        assert direct_uses(module.get_function("main")) == CapabilitySet.empty()

    def test_handlers_detected(self):
        source = """
        void h(int s) { priv_raise(CAP_KILL); priv_lower(CAP_KILL); }
        void main() { signal(SIGTERM, &h); }
        """
        module = compile_source(source)
        handlers = registered_signal_handlers(module)
        assert {f.name for f in handlers} == {"h"}


class TestLiveness:
    def test_privilege_dead_after_bracket(self):
        source = """
        void main() {
            priv_raise(CAP_SETUID);
            setuid(0);
            priv_lower(CAP_SETUID);
            print_int(1);
        }
        """
        module = compile_source(source)
        liveness = analyze_module(module)
        main = module.get_function("main")
        # Entry block holds everything; the capability must be live at
        # entry and dead at exit.
        entry_in = liveness.block_in[main][main.entry]
        assert Capability.CAP_SETUID in entry_in

    def test_loop_keeps_privilege_live(self):
        source = """
        void main() {
            int i;
            for (i = 0; i < 3; i = i + 1) {
                priv_raise(CAP_SETUID);
                setuid(0);
                priv_lower(CAP_SETUID);
            }
            print_int(1);
        }
        """
        module = compile_source(source)
        liveness = analyze_module(module)
        main = module.get_function("main")
        by_name = {block.name: block for block in main.blocks}
        # Live on the back edge (for.step feeds for.cond).
        assert Capability.CAP_SETUID in liveness.block_out[main][by_name["for.step"]]
        assert Capability.CAP_SETUID not in liveness.block_in[main][by_name["for.end"]]

    def test_interprocedural_live_out(self):
        source = """
        void helper() { priv_raise(CAP_CHOWN); chown("/x", 0, 0); priv_lower(CAP_CHOWN); }
        void main() {
            print_int(1);
            helper();
            print_int(2);
            helper();
        }
        """
        module = compile_source(source)
        liveness = analyze_module(module)
        helper = module.get_function("helper")
        # After helper's first return the caller calls it again, so the
        # privilege must be live-out of helper.
        assert Capability.CAP_CHOWN in liveness.live_out[helper].as_frozenset()

    def test_pinned_handler_privileges(self):
        source = """
        void h(int s) { priv_raise(CAP_KILL); kill(1, 0); priv_lower(CAP_KILL); }
        void main() { signal(SIGTERM, &h); print_int(1); }
        """
        module = compile_source(source)
        liveness = analyze_module(module)
        assert Capability.CAP_KILL in liveness.pinned


class TestTransform:
    def test_unused_privilege_removed_at_entry(self):
        module, report = compile_and_transform(
            "void main() { print_int(1); }", "CapChown", "CapSetuid"
        )
        assert report.entry_removed == CapabilitySet.of("CapChown", "CapSetuid")

    def test_used_privilege_not_removed_at_entry(self):
        source = """
        void main() {
            priv_raise(CAP_SETUID);
            setuid(0);
            priv_lower(CAP_SETUID);
        }
        """
        module, report = compile_and_transform(source, "CapSetuid", "CapChown")
        assert report.entry_removed == CapabilitySet.of("CapChown")

    def test_transformed_program_still_works(self):
        source = """
        void main() {
            priv_raise(CAP_DAC_READ_SEARCH);
            str h = getspnam("user");
            priv_lower(CAP_DAC_READ_SEARCH);
            if (strlen(h) > 0) { print_str("ok"); }
        }
        """
        module, _ = compile_and_transform(source, "CapDacReadSearch")
        code, out, process = run_transformed(module, "CapDacReadSearch")
        assert out == ["ok"]
        assert process.caps.permitted == CapabilitySet.empty()

    def test_permitted_shrinks_to_empty_by_exit(self):
        source = """
        void main() {
            priv_raise(CAP_SETUID);
            setuid(0);
            priv_lower(CAP_SETUID);
            priv_raise(CAP_SETGID);
            setgid(0);
            priv_lower(CAP_SETGID);
        }
        """
        module, _ = compile_and_transform(source, "CapSetuid", "CapSetgid")
        _, _, process = run_transformed(module, "CapSetuid", "CapSetgid")
        assert process.caps.permitted == CapabilitySet.empty()

    def test_removal_is_ordered_not_premature(self):
        """A later second use must hold the privilege across the gap."""
        source = """
        void use_it() {
            priv_raise(CAP_SETGID);
            setgid(1000);
            priv_lower(CAP_SETGID);
        }
        void main() {
            use_it();
            print_int(1);
            use_it();
        }
        """
        module, _ = compile_and_transform(source, "CapSetgid")
        code, out, process = run_transformed(module, "CapSetgid")
        assert code == 0
        assert out == ["1"]
        assert process.caps.permitted == CapabilitySet.empty()

    def test_pinned_privileges_never_removed(self):
        source = """
        void h(int s) { priv_raise(CAP_KILL); kill(getpid(), 0); priv_lower(CAP_KILL); }
        void main() { signal(SIGTERM, &h); print_int(1); }
        """
        module, report = compile_and_transform(source, "CapKill")
        assert "CapKill" in report.pinned
        _, _, process = run_transformed(module, "CapKill")
        assert "CapKill" in process.caps.permitted

    def test_lockdown_inserted_first(self):
        module, _ = compile_and_transform("void main() { print_int(1); }", "CapChown")
        entry = module.get_function("main").entry
        first = entry.instructions[0]
        assert isinstance(first, Call)
        assert first.direct_target.name == "prctl_lockdown"

    def test_lockdown_can_be_disabled(self):
        module = compile_source("void main() { print_int(1); }")
        transform_module(module, CapabilitySet.of("CapChown"), insert_lockdown=False)
        entry = module.get_function("main").entry
        names = [
            inst.direct_target.name
            for inst in entry.instructions
            if isinstance(inst, Call) and inst.direct_target is not None
        ]
        assert "prctl_lockdown" not in names

    def test_conditional_use_keeps_privilege_until_branch_dead(self):
        """A privilege used only in an untaken branch must survive until
        the branch point, then die — and the program must not crash."""
        source = """
        void maybe(int flag) {
            if (flag == 1) {
                priv_raise(CAP_SETUID);
                setuid(0);
                priv_lower(CAP_SETUID);
            }
        }
        void main() {
            maybe(0);
            print_int(getuid());
        }
        """
        module, _ = compile_and_transform(source, "CapSetuid")
        code, out, process = run_transformed(module, "CapSetuid")
        assert out == ["1000"]
        assert process.caps.permitted == CapabilitySet.empty()


class TestCallGraphPrecisionAblation:
    """The A2 ablation mechanism: conservative vs type-matched targets."""

    SOURCE = """
    int quiet(int x) { return x; }
    int loud(int x, int y) {
        priv_raise(CAP_CHOWN);
        chown("/x", 0, 0);
        priv_lower(CAP_CHOWN);
        return x + y;
    }
    void main() {
        fnptr f = &quiet;
        if (argc() == 99) { f = &loud; }
        int i;
        for (i = 0; i < 3; i = i + 1) {
            int r = f(i);
        }
        print_int(1);
    }
    """

    def test_conservative_keeps_cap_through_loop(self):
        module = compile_source(self.SOURCE)
        report = transform_module(
            module, CapabilitySet.of("CapChown"),
            indirect_targets_filter="address-taken",
        )
        # Not removable at entry: the indirect call might (conservatively)
        # reach loud().
        assert "CapChown" not in report.entry_removed

    def test_type_matched_removes_at_entry(self):
        module = compile_source(self.SOURCE)
        report = transform_module(
            module, CapabilitySet.of("CapChown"),
            indirect_targets_filter="type-matched",
        )
        # loud() takes 2 parameters; the call site passes 1, so the precise
        # call graph proves CapChown unreachable.
        assert "CapChown" in report.entry_removed


class TestCallSiteCost:
    """A host-independent cost gate: AutoPriv resolves each call site once.

    The liveness fixpoint iterates until nothing changes, so an analysis
    that re-resolves call targets per round (or again during insertion)
    does a multiple of this work on every program with a loop or a
    helper.
    """

    @pytest.mark.parametrize("program", ["passwd", "sshd"])
    def test_one_resolve_call_per_call_site(self, program, monkeypatch):
        from repro.ir import CallGraph
        from repro.programs import spec_by_name

        spec = spec_by_name(program)
        module = compile_source(spec.source, spec.name)
        call_sites = sum(
            isinstance(instruction, Call)
            for function in module.defined_functions()
            for instruction in function.instructions()
        )
        resolved = []
        original = CallGraph.resolve_call

        def counting(self, call):
            resolved.append(call)
            return original(self, call)

        monkeypatch.setattr(CallGraph, "resolve_call", counting)
        transform_module(module, spec.permitted)
        assert call_sites > 0
        assert len(resolved) == call_sites


class TestLivenessSolveCount:
    """A host-independent cost gate: the joint fixpoint re-solves only stale functions.

    A function's block liveness depends only on its own ``live_out``, so
    ``analyze_module`` solves every defined function once and then only
    those whose ``live_out`` changed.  Re-solving every function every
    round would take 36 solves on passwd and 55 on sshd.
    """

    @pytest.mark.parametrize("program, solves", [("passwd", 17), ("sshd", 21)])
    def test_solve_calls_per_analysis(self, program, solves, monkeypatch):
        import repro.autopriv.liveness as liveness_mod
        from repro.programs import spec_by_name

        spec = spec_by_name(program)
        module = compile_source(spec.source, spec.name)
        calls = []
        original = liveness_mod.solve

        def counting(problem, function, graph=None):
            calls.append(function)
            return original(problem, function, graph)

        monkeypatch.setattr(liveness_mod, "solve", counting)
        analyze_module(module)
        assert len(calls) == solves
        assert set(calls) == set(module.defined_functions())
