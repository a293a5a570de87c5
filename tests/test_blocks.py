"""Tests for the superblock execution engine (``repro.vm.blocks``).

Covers the engine's three safety-critical contracts:

1. invalidation — code rewrites (stack shuffle, live update, in-place
   patches) must discard predecoded superblocks, and the rewritten code
   must actually execute;
2. eqpoint boundaries — a block never spans an equivalence-point
   checker, so a parked thread's pc equals the eqpoint pc exactly;
3. parity — the generated tier (forced hot, including the metered
   variant that parks and resumes mid-trace at quantum boundaries) is
   bit-identical to the per-step engine.
"""

from collections import OrderedDict

import pytest

from repro.binfmt.stackmaps import KIND_ENTRY
from repro.compiler import compile_source
from repro.core.migration import exe_path_for, install_program
from repro.core.policies.live_update import LiveUpdatePolicy
from repro.core.policies.stack_shuffle import StackShufflePolicy
from repro.core.rewriter import ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.criu.restore import restore_process
from repro.isa import get_isa
from repro.vm import Machine, blocks
from repro.vm.cpu import ThreadStatus
from repro.vm.interp import CpuFault

ARCHES = ["x86_64", "aarch64"]


def _spawn(program, arch, name=None):
    machine = Machine(get_isa(arch), name="host")
    install_program(machine, program)
    process = machine.spawn_process(
        exe_path_for(name or program.name, arch))
    return machine, process


def _fingerprint(process):
    return (process.stdout(), process.exit_code,
            process.instr_total, process.cycle_total)


class TestInvalidation:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_stack_shuffle_discards_superblocks(self, arch, counter_program,
                                                counter_reference_output):
        machine, process = _spawn(counter_program, arch, "counter")
        machine.step_all(2500)
        assert not process.exited
        # The source ran under the block engine: its cache is warm and
        # its executable pages have a content key for trace sharing.
        assert process.block_cache
        source_key = process.trace_content_key
        assert source_key is not None

        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        before = process.stdout()
        images = runtime.checkpoint()
        runtime.kill_source()
        policy = StackShufflePolicy(
            counter_program.binary(arch), seed=11,
            dst_exe_path=f"/bin/counter.{arch}.blkshuf")
        ProcessRewriter().rewrite(images, policy)
        machine.tmpfs.write(policy.dst_exe_path,
                            policy.shuffled_binary.to_bytes())
        restored = restore_process(machine, images)
        # The rewritten process must not inherit a single predecoded
        # superblock from the source.
        assert restored.block_cache == {}
        machine.run_process(restored)
        # ... and the *shuffled* code really executed, correctly.
        assert before + restored.stdout() == counter_reference_output
        assert restored.block_cache
        # Shuffled text hashes differently, so the global trace cache
        # cannot alias the source's traces onto the restored process.
        assert restored.trace_content_key != source_key

    def test_live_update_swap_discards_superblocks(self):
        v1 = compile_source(V1_SOURCE, "doubler")
        v2 = compile_source(V2_SOURCE, "doubler")
        machine, process = _spawn(v1, "x86_64")
        machine.step_all(2000)
        assert not process.exited
        assert process.block_cache
        source_key = process.trace_content_key

        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        lines_before = process.stdout().count("\n")
        images = runtime.checkpoint()
        runtime.kill_source()
        policy = LiveUpdatePolicy(v1.binary("x86_64"), v2.binary("x86_64"),
                                  "/bin/doubler.v2")
        ProcessRewriter().rewrite(images, policy)
        machine.tmpfs.write(policy.dst_exe_path,
                            v2.binary("x86_64").to_bytes())
        updated = restore_process(machine, images)
        assert updated.block_cache == {}
        machine.run_process(updated)
        assert updated.exit_code == 0
        # Every post-update line follows v2's tripling formula — stale
        # v1 superblocks would keep doubling.
        got = [int(line) for line in updated.stdout().splitlines()]
        expected = [3 * i for i in range(lines_before + 1, 201)]
        assert got == expected
        assert updated.trace_content_key != source_key

    def test_in_place_code_write_bumps_version(self, counter_program):
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.step_all(2000)
        assert not process.exited
        assert process.block_cache
        version = process.code_version
        thread = next(iter(process.threads.values()))
        # Patch illegal bytes at the thread's very next pc: if any stale
        # superblock survived the write, execution would sail past them.
        process.aspace.write_code(thread.pc, b"\x06" * 16)
        assert process.code_version == version + 1
        assert process.block_cache == {}
        assert process.decode_cache == {}
        with pytest.raises(CpuFault):
            machine.run_process(process)


class TestEqpointBoundary:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_park_pc_is_eqpoint_pc(self, arch, counter_program):
        """Regression: a superblock must never span an eqpoint checker.

        If a trace ran through the trap, the thread would park with its
        pc somewhere past the equivalence point and the stackmap check
        would reject it (or worse, state transformation would read the
        wrong frame).
        """
        machine, process = _spawn(counter_program, arch, "counter")
        machine.step_all(2500)       # warm superblocks before arming
        assert not process.exited
        runtime = DapperRuntime(machine, process)
        # This raises NotAtEquivalencePoint if any park pc is off.
        tids = runtime.pause_at_equivalence_points()
        stackmaps = process.binary.stackmaps
        for tid in tids:
            thread = process.threads[tid]
            assert thread.status == ThreadStatus.TRAPPED
            assert thread.pc == thread.trap_pc
            assert stackmaps.by_addr[thread.pc].kind == KIND_ENTRY

    @pytest.mark.parametrize("arch", ARCHES)
    def test_no_block_contains_kernel_entry(self, arch, counter_program,
                                            threaded_program):
        """Structural invariant: trap and syscall terminate trace decode,
        so no predecoded block body (or specialized terminator) can
        contain a kernel entry."""
        for program, name in ((counter_program, "counter"),
                              (threaded_program, "threaded")):
            machine, process = _spawn(program, arch, name)
            machine.run_process(process)
            assert process.block_cache
            for block in process.block_cache.values():
                ops = [instr.op for instr in block.instrs]
                assert "trap" not in ops and "syscall" not in ops
                if block.term_instr is not None:
                    # backward b/bcc (loop back-edges) and ret are the
                    # only specialized terminators
                    assert block.term_instr.op in ("b", "bcc", "ret")


class TestEngineParity:
    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("name", ["counter", "threaded"])
    def test_forced_hot_parity(self, arch, name, counter_program,
                               threaded_program, monkeypatch):
        """With HOT_THRESHOLD forced to 0 every block tiers up on first
        dispatch, so the generated specializations (not tier 0) carry
        the whole run — and must match the per-step engine exactly."""
        program = counter_program if name == "counter" else threaded_program
        isa = get_isa(arch)
        base = Machine(isa, block_engine=False)
        install_program(base, program)
        ref = base.spawn_process(exe_path_for(name, arch))
        base.run_process(ref)

        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        machine, process = _spawn(program, arch, name)
        machine.run_process(process)
        assert _fingerprint(process) == _fingerprint(ref)

    @pytest.mark.parametrize("quantum", [1, 3, 7])
    def test_partial_variant_parity_at_odd_quanta(self, quantum,
                                                  counter_program,
                                                  monkeypatch):
        """Tiny quanta end inside nearly every trace, exercising the
        metered (quantum-boundary) variant; results must still be
        bit-identical to per-step execution at the same quantum."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        isa = get_isa("x86_64")
        base = Machine(isa, quantum=quantum, block_engine=False)
        install_program(base, counter_program)
        ref = base.spawn_process(exe_path_for("counter", "x86_64"))
        base.run_process(ref)

        machine = Machine(isa, quantum=quantum)
        install_program(machine, counter_program)
        process = machine.spawn_process(exe_path_for("counter", "x86_64"))
        machine.run_process(process)
        assert _fingerprint(process) == _fingerprint(ref)


def _run_engine(program, name, arch, quantum, engine):
    """One run under the named tier; returns the full observable record
    (including any fault message and per-thread park state)."""
    machine = Machine(get_isa(arch), quantum=quantum,
                      block_engine=engine == "blocks")
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(name, arch))
    fault = None
    try:
        machine.run_process(process)
    except CpuFault as exc:
        fault = str(exc)
    return (process.stdout(), process.exit_code, process.instr_total,
            process.cycle_total, fault,
            sorted((t.pc, t.instr_count) for t in process.threads.values()))


def _spy_resumes(monkeypatch):
    """Force every block hot and record each metered-variant call as
    ``[K, faulted]``, so a test can prove execution really resumed
    mid-trace (K > 0) rather than passing on whole-trace calls."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
    calls = []
    real = blocks.codegen

    def spying(process, block, metered=False, bind_only=False):
        fn = real(process, block, metered=metered, bind_only=bind_only)
        if not metered or fn is None:
            return fn

        def run(thread, regs, m, k):
            call = [k, False]
            calls.append(call)
            try:
                return fn(thread, regs, m, k)
            except CpuFault:
                call[1] = True
                raise
        return run

    monkeypatch.setattr(blocks, "codegen", spying)
    return calls


class TestChainParity:
    """Mid-trace resume (``Process.resume_entries`` plus each trace's
    metered variant) must be observationally identical to per-step
    execution: same output, same totals, same fault text, same park
    state at every quantum boundary."""

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("name", ["counter", "threaded"])
    def test_forced_chain_parity(self, arch, name, counter_program,
                                 threaded_program, monkeypatch):
        program = counter_program if name == "counter" else threaded_program
        ref = _run_engine(program, name, arch, 64, "interp")
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        assert _run_engine(program, name, arch, 64, "blocks") == ref

    @pytest.mark.parametrize("arch", ARCHES)
    def test_resume_actually_used(self, arch, counter_program, monkeypatch):
        """Guards against the parity tests silently passing on
        whole-trace calls: interior pcs must be registered, and quantum
        boundaries must really resume a compiled trace mid-way."""
        calls = _spy_resumes(monkeypatch)
        machine, process = _spawn(counter_program, arch, "counter")
        machine.run_process(process)
        assert process.resume_entries
        for block, k in process.resume_entries.values():
            assert block.fn is not None and 0 < k < block.full
        assert any(k > 0 for k, _ in calls), "no mid-trace resume"

    @pytest.mark.parametrize("quantum", [1, 3, 7, 13])
    def test_chain_parity_at_odd_quanta(self, quantum, counter_program,
                                        monkeypatch):
        """Tiny quanta park inside nearly every trace: every slice ends
        in a metered run and most resume through the resume map."""
        ref = _run_engine(counter_program, "counter", "x86_64", quantum,
                          "interp")
        calls = _spy_resumes(monkeypatch)
        got = _run_engine(counter_program, "counter", "x86_64", quantum,
                          "blocks")
        assert got == ref
        assert any(k > 0 for k, _ in calls)

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("source,name", [
        ("DIVZERO", "divzero"), ("WILD", "wild")])
    def test_fault_parity_mid_chain(self, arch, source, name, monkeypatch):
        """A div-by-zero or segfault raised inside a resumed suffix
        (quantum 1: every op after a trace's first runs in one) must
        surface the identical fault text and leave the identical
        retired-instruction state as per-step execution."""
        program = compile_source(globals()[source + "_SOURCE"], name)
        calls = _spy_resumes(monkeypatch)
        for quantum in (64, 1):
            ref = _run_engine(program, name, arch, quantum, "interp")
            assert ref[4] is not None        # the fault really fired
            assert _run_engine(program, name, arch, quantum,
                               "blocks") == ref
        assert any(k > 0 and faulted for k, faulted in calls)

    def test_invalidation_drops_chains_and_entries(self, counter_program,
                                                   monkeypatch):
        """A code rewrite must discard resume points with the block
        cache — a stale resume point would jump into retired code."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.step_all(2500)
        assert not process.exited
        assert process.resume_entries
        thread = next(iter(process.threads.values()))
        process.aspace.write_code(thread.pc, b"\x06" * 16)
        assert process.block_cache == {}
        assert process.resume_entries == {}


class TestResume:
    @pytest.mark.parametrize("reset", [
        "invalidate_code", "start_dirty_tracking", "harvest_dirty_pages"])
    def test_resume_map_cleared_with_block_cache(self, reset,
                                                 counter_program,
                                                 monkeypatch):
        """Every path that drops the block cache drops the resume map:
        an entry surviving dirty tracking would skip a first-touch
        write through the generated memory-site cache."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        machine, process = _spawn(counter_program, "x86_64", "counter")
        if reset == "harvest_dirty_pages":
            process.start_dirty_tracking()
        machine.step_all(2500)
        assert not process.exited
        assert process.resume_entries
        getattr(process, reset)()
        assert process.block_cache == {}
        assert process.resume_entries == {}

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("name", ["counter", "threaded"])
    def test_no_trace_compiled_inside_another(
            self, arch, name, counter_program, threaded_program,
            monkeypatch):
        """Regression: at the default quantum (64), a boundary that
        parks mid-trace used to make the next slice decode and compile
        a duplicate trace from that interior pc. Whenever a new trace
        start is compiled, no installed compiled trace may run through
        it (a hot branch target first splits the traces covering it)."""
        program = counter_program if name == "counter" else threaded_program
        started = set()
        real = blocks.codegen

        def checking(process, block, metered=False, bind_only=False):
            fn = real(process, block, metered=metered, bind_only=bind_only)
            if fn is not None and not metered and block.pc not in started:
                started.add(block.pc)
                for other in process.block_cache.values():
                    if other.fn is not None and other is not block:
                        assert block.pc not in other.pcs[1:other.full], \
                            hex(block.pc)
            return fn

        monkeypatch.setattr(blocks, "codegen", checking)
        machine, process = _spawn(program, arch, name)
        machine.run_process(process)
        assert process.exit_code == 0
        assert started

    @pytest.mark.parametrize("arch", ARCHES)
    def test_hot_branch_target_starts_its_own_trace(self, arch,
                                                    monkeypatch):
        """A loop head inside the trace that enters the loop is reached
        by the back-edge of another trace on every iteration. Once hot
        it is split off: it starts a compiled trace of its own, and no
        installed trace runs through it any more."""
        program = compile_source(LOOP_HEAD_SOURCE, "loophead")
        ref = _run_engine(program, "loophead", arch, 64, "interp")
        # Forced hot, the trace entering the loop compiles before the
        # loop head does, so the head starts out inside it.
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        monkeypatch.setattr(blocks, "SPLIT_THRESHOLD", 0)
        splits = []
        real = blocks._split_at

        def recording(process, pc):
            splits.append(pc)
            real(process, pc)

        monkeypatch.setattr(blocks, "_split_at", recording)
        # Start from unsplit shapes: splits also update the shared
        # decode cache.
        monkeypatch.setattr(blocks, "_GLOBAL_TRACES", OrderedDict())
        machine, process = _spawn(program, arch, "loophead")
        machine.run_process(process)
        assert _fingerprint(process) == ref[:4]
        assert splits
        for pc in splits:
            assert process.block_cache[pc].fn is not None
            for other in process.block_cache.values():
                if other.fn is not None:
                    assert pc not in other.pcs[1:other.full]


class TestInTraceSkip:
    """A forward ``bcc`` whose target lies further along the same trace
    (an ``if`` without ``else``) runs as an in-trace skip: both paths
    stay inside one generated function, accounting subtracts the
    skipped ops, and the metered variant moves its budget past them."""

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("quantum", [1, 3, 7, 13, 64, 4096])
    def test_skip_parity(self, arch, quantum, monkeypatch):
        program = compile_source(SKIP_SOURCE, "skip")
        ref = _run_engine(program, "skip", arch, quantum, "interp")
        skipping = []
        real = blocks.codegen

        def recording(process, block, metered=False, bind_only=False):
            fn = real(process, block, metered=metered, bind_only=bind_only)
            if fn is not None and any(
                    j > k + 1 for k, j in blocks._skip_joins(block).items()):
                skipping.append(block)
            return fn

        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        monkeypatch.setattr(blocks, "SPLIT_THRESHOLD", 0)
        monkeypatch.setattr(blocks, "codegen", recording)
        assert _run_engine(program, "skip", arch, quantum, "blocks") == ref
        assert skipping                      # skips really compiled

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("quantum", [1, 5, 64])
    @pytest.mark.parametrize("source", ["SKIP_DIVZERO", "SKIP_WILD"])
    def test_fault_after_skip_parity(self, arch, quantum, source,
                                     monkeypatch):
        """A division by zero or a segfault after a taken skip must
        account exactly the ops that really ran before it."""
        program = compile_source(globals()[source + "_SOURCE"], "skipfault")
        ref = _run_engine(program, "skipfault", arch, quantum, "interp")
        assert ref[4] is not None
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        monkeypatch.setattr(blocks, "SPLIT_THRESHOLD", 0)
        assert _run_engine(program, "skipfault", arch, quantum,
                           "blocks") == ref

    def test_crossing_branches_stay_side_exits(self):
        """Skips must nest: a branch whose target lies past an open
        skip's join stays a side exit."""
        b = blocks.Block.__new__(blocks.Block)
        b.pcs = list(range(0, 44, 4))
        b.body_len = 10
        b.instrs = [_Op("add")] * 10
        b.instrs[1] = _Op("bcc", target=24)    # skips ops 2..5
        b.instrs[2] = _Op("bcc", target=20)    # nested: skips op 3..4
        b.instrs[3] = _Op("bcc", target=32)    # would cross join 5
        b.instrs[7] = _Op("bcc", target=32)    # to its own fall-through
        b.instrs[8] = _Op("bcc", target=400)   # leaves the trace
        assert blocks._skip_joins(b) == {1: 6, 2: 5, 7: 8}


class _Op:
    def __init__(self, op, target=None):
        self.op = op
        self.target = target


class TestDemotion:
    def test_demoted_block_stays_tier0_and_chains_skip_it(
            self, counter_program, counter_reference_output, monkeypatch):
        """When codegen refuses a block the engine must pin it to tier 0
        (``demoted``), never retry the compile, and never register a
        resume point into it."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        # Find the hottest pc under normal execution, then refuse it.
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.run_process(process)
        target = max(process.block_cache.values(), key=lambda b: b.heat).pc

        real_codegen = blocks.codegen
        refused = []

        def refusing(process, block, metered=False, bind_only=False):
            if block.pc == target and not bind_only:
                refused.append(metered)
                return None
            return real_codegen(process, block, metered=metered,
                                bind_only=bind_only)

        monkeypatch.setattr(blocks, "codegen", refusing)
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.run_process(process)
        demoted = process.block_cache[target]
        assert demoted.demoted
        assert demoted.fn is None
        assert refused == [False]            # refused once, never retried
        # Correctness is unaffected: the block just runs per-step.
        assert process.stdout() == counter_reference_output
        assert process.exit_code == 0
        for block, _k in process.resume_entries.values():
            assert block is not demoted


class TestTraceCacheLRU:
    def test_global_trace_cache_is_capped(self, counter_program,
                                          counter_reference_output,
                                          monkeypatch):
        """The shared trace cache must stay bounded under churn: inserts
        past the cap evict the least-recently-used trace, and eviction
        is only ever a perf event, never a correctness one."""
        monkeypatch.setattr(blocks, "GLOBAL_TRACES_CAP", 4)
        blocks._GLOBAL_TRACES.clear()
        before = blocks.trace_cache_info()["evictions"]
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.run_process(process)
        info = blocks.trace_cache_info()
        assert info["size"] <= 4
        assert info["evictions"] > before
        assert process.stdout() == counter_reference_output


DIVZERO_SOURCE = """
func main() -> int {
    int i; int d; int acc;
    i = 0; d = 10; acc = 0;
    while (i < 120) {
        d = d - 1;
        acc = acc + i / d;
        print(acc);
        i = i + 1;
    }
    return 0;
}
"""

WILD_SOURCE = """
func main() -> int {
    int i; int acc;
    int x;
    int *p;
    p = &x;
    i = 0; acc = 0;
    while (i < 40) {
        acc = acc + i;
        i = i + 1;
    }
    p = p + 123456789;
    *p = acc;
    return 0;
}
"""

# v1 doubles, v2 triples; identical call structure so the live-update
# policy accepts the patch at any equivalence point.
V1_SOURCE = """
func f(int x) -> int {
    int y;
    y = x * 2;
    return y;
}

func main() -> int {
    int i;
    i = 1;
    while (i <= 200) {
        print(f(i));
        i = i + 1;
    }
    return 0;
}
"""

V2_SOURCE = """
func f(int x) -> int {
    int y;
    y = x * 3;
    return y;
}

func main() -> int {
    int i;
    i = 1;
    while (i <= 200) {
        print(f(i));
        i = i + 1;
    }
    return 0;
}
"""

SKIP_SOURCE = """
func main() -> int {
    int i; int acc;
    i = 0; acc = 0;
    while (i < 300) {
        if (i % 3 == 0) {
            acc = acc + i;
            if (i % 2 == 0) {
                acc = acc + 1;
            }
        }
        if (i % 5 == 1) {
            acc = acc - 2;
        }
        i = i + 1;
    }
    print(acc);
    return 0;
}
"""

SKIP_DIVZERO_SOURCE = """
func main() -> int {
    int i; int acc; int d;
    i = 0; acc = 0; d = 1;
    while (i < 200) {
        if (i % 4 == 0) {
            acc = acc + i;
        }
        if (i == 150) {
            d = 0;
        }
        acc = acc + i / d;
        i = i + 1;
    }
    print(acc);
    return 0;
}
"""

LOOP_HEAD_SOURCE = """
func main() -> int {
    int a; int b; int c; int i; int acc;
    a = 3; b = 5; c = 7; acc = 0;
    i = 0;
    while (i < 400) {
        acc = acc + a * i;
        acc = acc + b * i;
        acc = acc - c;
        acc = acc + (i % 7) * a;
        acc = acc + (i % 5) * b;
        acc = acc + (i % 3) * c;
        i = i + 1;
    }
    print(acc);
    return 0;
}
"""

SKIP_WILD_SOURCE = """
func main() -> int {
    int i; int acc; int x;
    int *p;
    p = &x;
    i = 0; acc = 0;
    while (i < 200) {
        if (i % 4 == 0) {
            acc = acc + i;
        }
        if (i == 150) {
            p = p + 123456789;
        }
        *p = acc;
        i = i + 1;
    }
    print(acc);
    return 0;
}
"""
