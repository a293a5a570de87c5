"""Flight recorder: journal format, record/replay bit-identity, fault
pinpointing, seek, and the repro-replay CLI."""

from __future__ import annotations

import pytest

from repro.apps.registry import get_app
from repro.compiler import compile_source
from repro.errors import JournalError
from repro.isa import X86_ISA
from repro.replay import (BitFlip, FlightRecorder, Journal, Replayer,
                          bisect_digest_streams, pinpoint_by_reexecution,
                          pinpoint_divergence, record_migrate,
                          record_rerandomize, record_run)
from repro.replay import journal as jn
from repro.replay.engine import ENGINES
from repro.tools import replay as replay_cli
from repro.vm import Machine

LOOP_SOURCE = """
global int acc;
func bump(int i) -> int {
    acc = acc + i;
    return acc;
}
func main() -> int {
    int i;
    i = 0;
    while (i < 400) { bump(i); i = i + 1; }
    print(acc);
    return 0;
}
"""

SENTINEL_SOURCE = """
global int sentinel;
global int acc;
func main() -> int {
    int i;
    sentinel = 12345;
    i = 0;
    while (i < 800) { acc = acc + i; i = i + 1; }
    print(sentinel);
    print(acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def loop_recording():
    return record_run(LOOP_SOURCE, "loop")


class TestJournalFormat:
    def test_roundtrip(self, loop_recording):
        journal = loop_recording.journal
        blob = journal.to_bytes()
        back = Journal.from_bytes(blob)
        assert back.header == journal.header
        assert back.events == journal.events
        assert back.to_bytes() == blob

    def test_bad_magic_rejected(self):
        with pytest.raises(JournalError):
            Journal.from_bytes(b"NOTAJRNL" + b"\x00" * 16)

    def test_bad_version_rejected(self, loop_recording):
        blob = bytearray(loop_recording.journal.to_bytes())
        blob[len(jn.MAGIC)] = 99
        with pytest.raises(JournalError):
            Journal.from_bytes(bytes(blob))

    def test_truncation_rejected(self, loop_recording):
        blob = loop_recording.journal.to_bytes()
        with pytest.raises(JournalError):
            Journal.from_bytes(blob[:len(blob) // 2])

    def test_save_load(self, loop_recording, tmp_path):
        path = str(tmp_path / "loop.jrn")
        loop_recording.journal.save(path)
        assert Journal.load(path).digest_stream() \
            == loop_recording.journal.digest_stream()

    def test_streams_and_summary(self, loop_recording):
        journal = loop_recording.journal
        assert journal.exit_code() == 0
        assert journal.instructions() == loop_recording.recorder.instructions
        summary = journal.summary()
        assert summary["sched"] > 0
        assert summary["digest"] == summary["sched"] + 1  # + final digest
        assert summary["end"] == 1


class TestRecordReplay:
    def test_same_engine_bit_identical(self, loop_recording):
        replayed = Replayer(loop_recording.journal).run()
        assert replayed.journal.digest_stream() \
            == loop_recording.journal.digest_stream()
        assert replayed.journal.sched_stream() \
            == loop_recording.journal.sched_stream()
        assert replayed.exit_code == loop_recording.exit_code

    def test_cross_engine_bit_identical(self, loop_recording):
        replayed = Replayer(loop_recording.journal, engine="interp").run()
        assert replayed.journal.digest_stream() \
            == loop_recording.journal.digest_stream()

    def test_cross_tier_matrix_bit_identical(self, loop_recording):
        """Both execution tiers are interchangeable under the flight
        recorder: a journal recorded under either one replays
        bit-identically under the other."""
        interp_rec = record_run(LOOP_SOURCE, "loop", engine="interp")
        assert interp_rec.journal.digest_stream() \
            == loop_recording.journal.digest_stream()
        for recorded in (interp_rec, loop_recording):
            for engine in ENGINES:
                replayed = Replayer(recorded.journal, engine=engine).run()
                assert replayed.journal.digest_stream() \
                    == recorded.journal.digest_stream()
                assert replayed.journal.sched_stream() \
                    == recorded.journal.sched_stream()

    def test_legacy_chains_journal_replays_on_tier2(self, loop_recording):
        """Journals recorded before tier 3 was retired name engine
        ``chains``. Digests are tier-independent, so such a journal
        must still load and replay bit-identically (on tier 2), while
        new recordings and overrides reject the retired name."""
        header = dict(loop_recording.journal.header, engine="chains")
        legacy = Journal(header)
        legacy.events = list(loop_recording.journal.events)
        legacy = Journal.from_bytes(legacy.to_bytes())
        assert legacy.header["engine"] == "chains"
        for engine in (None,) + ENGINES:
            replayed = Replayer(legacy, engine=engine).run()
            assert replayed.journal.digest_stream() \
                == legacy.digest_stream()
            assert replayed.journal.sched_stream() \
                == legacy.sched_stream()
        with pytest.raises(JournalError):
            record_run(LOOP_SOURCE, "loop", engine="chains")
        with pytest.raises(JournalError):
            Replayer(legacy, engine="chains")

    def test_unknown_engine_rejected(self, loop_recording):
        with pytest.raises(JournalError):
            Replayer(loop_recording.journal, engine="turbo")

    def test_clean_run_pinpoints_nothing(self, loop_recording):
        assert pinpoint_by_reexecution(loop_recording.journal,
                                       engine="interp") is None

    @pytest.mark.parametrize("app_name", ["dhrystone", "kmeans"])
    @pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
    def test_benchmarks_both_isas(self, app_name, arch):
        source = get_app(app_name).source("small")
        recorded = record_run(source, app_name, arch=arch, digest_every=8)
        assert recorded.exit_code == 0
        replayed = Replayer(recorded.journal, engine="interp").run()
        assert replayed.journal.digest_stream() \
            == recorded.journal.digest_stream()

    def test_migration_replays_across_isa_boundary(self):
        recorded = record_migrate(LOOP_SOURCE, "loop", src_arch="x86_64",
                                  dst_arch="aarch64", warmup=3000)
        assert recorded.exit_code == 0
        assert recorded.journal.of_kind(jn.EV_MIGRATE)
        for engine in (None, "interp"):
            replayed = Replayer(recorded.journal, engine=engine).run()
            assert replayed.journal.digest_stream() \
                == recorded.journal.digest_stream()

    def test_rerandomize_replays_with_identical_rng(self):
        recorded = record_rerandomize(LOOP_SOURCE, "loop", interval=2000,
                                      seed=7)
        assert recorded.exit_code == 0
        assert recorded.journal.rng_stream()  # draws were journaled
        replayed = Replayer(recorded.journal).run()
        assert replayed.journal.rng_stream() \
            == recorded.journal.rng_stream()
        assert replayed.journal.digest_stream() \
            == recorded.journal.digest_stream()

    def test_seek_stops_at_instruction(self, loop_recording):
        result = Replayer(loop_recording.journal).run(stop_at_instr=2000)
        assert result.stopped
        assert result.snapshot is not None
        (_, proc), = [(k, v) for k, v in result.snapshot.items()]
        assert proc["instr_total"] >= 2000
        assert not proc["exited"]

    def test_syscalls_journaled(self, loop_recording):
        stream = loop_recording.journal.syscall_stream()
        assert stream  # at least print + exit
        numbers = [entry[2] for entry in stream]
        assert len(numbers) == len(stream)


class TestBisect:
    def test_identical_streams(self):
        stream = [b"a", b"b", b"c"]
        assert bisect_digest_streams(stream, list(stream)) is None

    def test_prefix_is_not_divergence(self):
        assert bisect_digest_streams([b"a", b"b"], [b"a", b"b", b"c"]) is None
        assert bisect_digest_streams([], [b"a"]) is None

    def test_finds_first_difference(self):
        a = [b"a", b"b", b"c", b"d"]
        b = [b"a", b"x", b"y", b"z"]
        assert bisect_digest_streams(a, b) == 1

    def test_minimal_even_if_streams_reconverge(self):
        a = [b"a", b"b", b"c", b"d", b"e"]
        b = [b"a", b"X", b"c", b"Y", b"e"]
        assert bisect_digest_streams(a, b) == 1

    def test_difference_at_zero_and_end(self):
        assert bisect_digest_streams([b"x"], [b"y"]) == 0
        a = [bytes([i]) for i in range(100)]
        b = list(a)
        b[99] = b"zz"
        assert bisect_digest_streams(a, b) == 99


class TestFaultInjection:
    def test_pinpoints_exact_quantum_and_address(self):
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        good = record_run(SENTINEL_SOURCE, "faulty")
        bad = record_run(SENTINEL_SOURCE, "faulty",
                         fault=BitFlip(at_slice=40, addr=addr, bit=3))
        report = pinpoint_divergence(good.journal, bad.journal)
        assert report is not None
        # digest_every=1: the digest right after the faulted slice
        # catches it, so the index is exactly the fault slice - 1
        # (digest #k follows slice k+1).
        assert report.digest_index == 40 - 1
        assert report.first_addr == addr
        assert report.mem_diffs[0][1] ^ report.mem_diffs[0][2] == 1 << 3
        assert not report.reg_diffs
        assert f"{addr:#x}" in report.format()

    def test_faulty_journal_reproduces_itself(self):
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        bad = record_run(SENTINEL_SOURCE, "faulty",
                         fault=BitFlip(at_slice=40, addr=addr, bit=3))
        assert bad.journal.of_kind(jn.EV_FAULT)
        replayed = Replayer(bad.journal).run()
        assert replayed.journal.digest_stream() \
            == bad.journal.digest_stream()

    def test_faulty_journal_replays_on_every_tier(self):
        """A bit-flip mid-run perturbs control flow (different branch
        outcomes, different park points); every tier must still follow
        the perturbed execution digest-for-digest."""
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        bad = record_run(SENTINEL_SOURCE, "faulty",
                         fault=BitFlip(at_slice=40, addr=addr, bit=3))
        for engine in ENGINES:
            replayed = Replayer(bad.journal, engine=engine).run()
            assert replayed.journal.digest_stream() \
                == bad.journal.digest_stream()


class TestZeroOverheadOff:
    def test_machine_defaults_to_no_recorder(self):
        assert Machine(X86_ISA).recorder is None

    def test_attach_is_exclusive(self):
        machine = Machine(X86_ISA)
        FlightRecorder().attach(machine)
        with pytest.raises(Exception):
            FlightRecorder().attach(machine)


class TestReplayCli:
    @pytest.fixture(scope="class")
    def source_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("src") / "loop.dc"
        path.write_text(LOOP_SOURCE)
        return str(path)

    def test_record_replay_show_seek(self, source_file, tmp_path, capsys):
        journal = str(tmp_path / "loop.jrn")
        assert replay_cli.main(["record", source_file, "-o", journal]) == 0
        assert replay_cli.main(["replay", journal,
                                "--engine", "interp"]) == 0
        assert replay_cli.main(["show", journal]) == 0
        assert replay_cli.main(["seek", journal, "--instr", "1000"]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out
        assert "pc=" in out

    def test_diff_pinpoints_fault(self, source_file, tmp_path, capsys):
        program = compile_source(LOOP_SOURCE, "loop")
        addr = program.binary("x86_64").symtab.address_of("acc")
        good = str(tmp_path / "good.jrn")
        bad = str(tmp_path / "bad.jrn")
        assert replay_cli.main(["record", source_file, "-o", good]) == 0
        assert replay_cli.main(["record", source_file, "-o", bad,
                                "--fault-slice", "20",
                                "--fault-addr", hex(addr)]) == 0
        assert replay_cli.main(["diff", good, bad]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert hex(addr) in out

    def test_diff_identical_journals(self, source_file, tmp_path, capsys):
        a = str(tmp_path / "a.jrn")
        b = str(tmp_path / "b.jrn")
        assert replay_cli.main(["record", source_file, "-o", a]) == 0
        assert replay_cli.main(["record", source_file, "-o", b]) == 0
        assert replay_cli.main(["diff", a, b]) == 0
        assert "journals agree" in capsys.readouterr().out

    def test_record_migrate_scenario(self, source_file, tmp_path):
        journal = str(tmp_path / "mig.jrn")
        assert replay_cli.main(["record", source_file, "-o", journal,
                                "--scenario", "migrate",
                                "--warmup", "3000"]) == 0
        assert replay_cli.main(["replay", journal]) == 0

    def test_unknown_app_errors(self, tmp_path, capsys):
        # unified CLI contract: typed errors exit 1 (argparse usage
        # errors keep exit 2)
        assert replay_cli.main(["record", "no-such-app",
                                "-o", str(tmp_path / "x.jrn")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-replay: error: ")
