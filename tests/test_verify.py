"""Restore guard tests: the multi-pass image verifier, auto-repair,
quarantine, and their integration into the migration pipeline, the
chaos harness, the checkpoint store, and the flight recorder."""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector, FaultPlan, sweep
from repro.chaos.harness import ChaosHarness
from repro.compiler import compile_source
from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.runtime import DapperRuntime
from repro.criu.images import ImageSet
from repro.errors import (MigrationRollback, QuarantinedImage,
                          VerifyError)
from repro.isa import X86_ISA, get_isa
from repro.mem.paging import PAGE_SIZE
from repro.replay import Journal, Replayer, pinpoint_divergence, \
    record_migrate
from repro.store import CheckpointStore
from repro.verify import (ImageVerifier, Quarantine, image_page_digests,
                          verify_images)
from repro.vm import Machine, TmpFs
from tests.conftest import COUNTER_SOURCE


@pytest.fixture
def checkpoint(counter_program):
    """A live x86 checkpoint plus its sender-side ground truth."""
    machine = Machine(X86_ISA, name="src")
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    images = runtime.checkpoint()
    return {
        "images": images,
        "binary": counter_program.binary("x86_64"),
        "digest": images.content_digest(),
        "pages": image_page_digests(images),
    }


def armed_verifier(cp, store=None):
    return ImageVerifier(binary=cp["binary"], store=store,
                         page_digests=cp["pages"],
                         expected_digest=cp["digest"])


def page_offset(images: ImageSet, vaddr: int) -> int:
    """Byte offset of a page inside pages-1.img."""
    offset = 0
    for entry in images.pagemap().entries:
        for i in range(entry.nr_pages):
            if entry.vaddr + i * PAGE_SIZE == vaddr:
                return offset
            offset += PAGE_SIZE
    raise AssertionError(f"page {vaddr:#x} not dumped")


def corrupt_page(images: ImageSet, vaddr: int) -> ImageSet:
    mutated = ImageSet(dict(images.files))
    blob = bytearray(mutated.pages())
    blob[page_offset(mutated, vaddr) + 7] ^= 0xA5
    mutated.set_pages(bytes(blob))
    return mutated


def text_page(cp) -> int:
    """A dumped page inside the binary's text segment."""
    text = next(s for s in cp["binary"].segments
                if s.section == ".text")
    for vaddr in sorted(cp["pages"]):
        if text.vaddr <= vaddr < text.vaddr + text.size:
            return vaddr
    raise AssertionError("no text page dumped")


def stack_page(cp) -> int:
    """The highest dumped page — stack, so no binary-backed repair."""
    return max(cp["pages"])


# -- the verifier's three passes ----------------------------------------------


class TestVerifierPasses:
    def test_clean_checkpoint_passes(self, checkpoint):
        report = armed_verifier(checkpoint).verify(checkpoint["images"])
        assert report.ok
        assert report.checks > 0
        assert report.passes_run == ["structural", "semantic"]
        assert "ok" in report.summary()

    def test_bad_magic_is_structural_fatal(self, checkpoint):
        images = ImageSet(dict(checkpoint["images"].files))
        blob = bytearray(images.files["mm.img"])
        blob[0] ^= 0xFF
        images.files["mm.img"] = bytes(blob)
        report = armed_verifier(checkpoint).verify(images)
        assert not report.ok
        assert report.failing_pass() == "structural"

    def test_pages_shorter_than_pagemap_flagged(self, checkpoint):
        images = ImageSet(dict(checkpoint["images"].files))
        images.files["pages-1.img"] = \
            images.files["pages-1.img"][:-PAGE_SIZE]
        report = armed_verifier(checkpoint).verify(images)
        assert not report.ok
        assert report.failing_pass() == "structural"

    def test_whole_set_digest_mismatch_is_fatal_without_manifest(
            self, checkpoint):
        """With only the whole-set digest (no per-page manifest), a
        diverged page can't be localized: fatal, not repairable."""
        mutated = corrupt_page(checkpoint["images"],
                               stack_page(checkpoint))
        verifier = ImageVerifier(binary=checkpoint["binary"],
                                 expected_digest=checkpoint["digest"])
        report = verifier.verify(mutated)
        assert not report.ok
        assert any(f.code == "content-digest" and f.severity == "fatal"
                   for f in report.findings)

    def test_manifest_localizes_divergence_to_pages(self, checkpoint):
        mutated = corrupt_page(checkpoint["images"],
                               stack_page(checkpoint))
        report = armed_verifier(checkpoint).verify(mutated)
        assert not report.ok
        page_findings = [f for f in report.findings
                         if f.code == "page-digest"]
        assert [f.vaddr for f in page_findings] == \
            [stack_page(checkpoint)]
        # localized: the unactionable whole-set finding is subsumed
        assert not any(f.code == "content-digest"
                       for f in report.findings)

    def test_pc_off_equivalence_point_is_semantic_fatal(self,
                                                        checkpoint):
        images = ImageSet(dict(checkpoint["images"].files))
        core = images.core(1)
        core.pc += 2
        images.set_core(core)
        verifier = ImageVerifier(binary=checkpoint["binary"])
        report = verifier.verify(images)
        assert not report.ok
        assert report.failing_pass() == "semantic"
        assert any(f.code == "eqpoint" for f in report.findings)

    def test_tls_block_outside_vma_flagged(self, checkpoint):
        images = ImageSet(dict(checkpoint["images"].files))
        core = images.core(1)
        core.tls_base += 64 * PAGE_SIZE
        images.set_core(core)
        report = ImageVerifier(binary=checkpoint["binary"]).verify(images)
        assert not report.ok
        assert any(f.code in ("tls-base", "tls-vma")
                   for f in report.findings)

    def test_verify_images_raises_typed_error(self, checkpoint):
        mutated = corrupt_page(checkpoint["images"],
                               stack_page(checkpoint))
        with pytest.raises(VerifyError) as err:
            verify_images(mutated, binary=checkpoint["binary"],
                          page_digests=checkpoint["pages"],
                          expected_digest=checkpoint["digest"])
        assert err.value.pass_name == "structural"
        assert err.value.findings

    def test_page_digest_manifest_tracks_content(self, checkpoint):
        target = stack_page(checkpoint)
        mutated = corrupt_page(checkpoint["images"], target)
        before = checkpoint["pages"]
        after = image_page_digests(mutated)
        assert set(before) == set(after)
        changed = [v for v in before if before[v] != after[v]]
        assert changed == [target]


# -- pass 3: repair and quarantine --------------------------------------------


class TestRepair:
    def test_text_page_repaired_from_binary(self, checkpoint):
        target = text_page(checkpoint)
        mutated = corrupt_page(checkpoint["images"], target)
        fixed, report = armed_verifier(checkpoint).repair(mutated)
        assert fixed is not None
        assert report.ok
        # one page, even though digest + text checks both indicted it
        assert [f.vaddr for f in report.repaired] == [target]
        assert "repair" in report.passes_run
        assert fixed.content_digest() == checkpoint["digest"]

    def test_any_page_repaired_from_store(self, checkpoint):
        store = CheckpointStore()
        store.put(checkpoint["images"])
        target = stack_page(checkpoint)
        mutated = corrupt_page(checkpoint["images"], target)
        fixed, report = armed_verifier(checkpoint, store=store).repair(
            mutated)
        assert fixed is not None
        assert report.ok
        assert [f.vaddr for f in report.repaired] == [target]
        assert fixed.content_digest() == checkpoint["digest"]

    def test_stack_page_without_store_is_unrepairable(self, checkpoint):
        mutated = corrupt_page(checkpoint["images"],
                               stack_page(checkpoint))
        fixed, report = armed_verifier(checkpoint).repair(mutated)
        assert fixed is None
        assert not report.ok
        assert report.failing_pass() is not None

    def test_clean_set_returned_untouched(self, checkpoint):
        fixed, report = armed_verifier(checkpoint).repair(
            checkpoint["images"])
        assert fixed is checkpoint["images"]
        assert report.ok and not report.repaired


class TestQuarantine:
    def test_roundtrip_over_tmpfs(self, checkpoint):
        mutated = corrupt_page(checkpoint["images"],
                               stack_page(checkpoint))
        _fixed, report = armed_verifier(checkpoint).repair(mutated)
        quarantine = Quarantine(TmpFs())
        qid = quarantine.add(mutated, report, reason="unit test")
        assert quarantine.ids() == [qid]
        diagnosis = quarantine.diagnosis(qid)
        assert diagnosis["failing_pass"] == "structural"
        assert diagnosis["reason"] == "unit test"
        assert diagnosis["findings"]
        again = quarantine.images(qid)
        assert again.content_digest() == mutated.content_digest()
        removed = quarantine.remove(qid)
        assert removed > len(mutated.files)  # files + diagnosis
        assert quarantine.ids() == []

    def test_same_bytes_same_id(self, checkpoint):
        mutated = corrupt_page(checkpoint["images"],
                               stack_page(checkpoint))
        _fixed, report = armed_verifier(checkpoint).repair(mutated)
        quarantine = Quarantine(TmpFs())
        assert quarantine.add(mutated, report) == \
            quarantine.add(mutated, report)
        assert len(quarantine.ids()) == 1

    def test_unknown_id_rejected(self):
        quarantine = Quarantine(TmpFs())
        with pytest.raises(VerifyError):
            quarantine.diagnosis("feedbeef")
        with pytest.raises(VerifyError):
            quarantine.remove("feedbeef")


# -- pipeline integration -----------------------------------------------------


class TestPipelineVerifyStage:
    def test_fault_free_migrate_reports_verify_stats(self,
                                                     counter_program):
        pipeline = MigrationPipeline(
            Machine(get_isa("x86_64"), name="src"),
            Machine(get_isa("aarch64"), name="dst"), counter_program)
        result = pipeline.run_and_migrate(warmup_steps=2500)
        verify_stats = result.stats["verify"]
        assert verify_stats["checks"] > 0
        assert verify_stats["repaired_pages"] == 0
        assert verify_stats["passes"] == ["structural", "semantic"]
        assert result.stage_seconds["verify"] > 0
        assert set(verify_stats["pass_seconds"]) == \
            set(verify_stats["passes"])

    def test_corruption_reaches_guard_and_quarantines(self,
                                                      counter_program):
        """verify-gate mode: the in-stage digest retry is disarmed, so
        injected corruption lands at the guard — which quarantines the
        unrepairable set and rolls the migration back."""
        src = Machine(get_isa("x86_64"), name="src")
        dst = Machine(get_isa("aarch64"), name="dst")
        injector = FaultInjector(FaultPlan(5, corrupt=1.0))
        pipeline = MigrationPipeline(src, dst, counter_program,
                                     injector=injector,
                                     arrival_check=False)
        process = pipeline.start()
        src.step_all(2500)
        with pytest.raises(MigrationRollback) as err:
            pipeline.migrate(process)
        assert err.value.stage == "verify"
        # deterministic verdict: no retries on a quarantine
        assert err.value.txn["attempts"]["verify"] == 1
        quarantine = Quarantine(dst.tmpfs)
        qids = quarantine.ids()
        assert len(qids) == 1
        diagnosis = quarantine.diagnosis(qids[0])
        assert diagnosis["failing_pass"]
        assert injector.counts().get("quarantine") == 1
        # rollback swept the images but left the quarantine in place
        assert not dst.tmpfs.listdir(f"/images/{process.pid}")
        # the source process is unharmed and can run to completion
        src.run_process(process)
        assert process.exit_code == 0

    def test_quarantined_image_error_carries_diagnosis(self,
                                                       counter_program):
        src = Machine(get_isa("x86_64"), name="src")
        dst = Machine(get_isa("aarch64"), name="dst")
        injector = FaultInjector(FaultPlan(5, corrupt=1.0))
        pipeline = MigrationPipeline(src, dst, counter_program,
                                     injector=injector,
                                     arrival_check=False)
        process = pipeline.start()
        src.step_all(2500)
        try:
            pipeline.migrate(process)
        except MigrationRollback as exc:
            assert "quarantined as" in exc.txn["errors"][0]
        else:
            pytest.fail("corrupted migration did not roll back")
        assert isinstance(QuarantinedImage("x"), VerifyError)


class TestChaosVerifyGate:
    def test_corrupt_trials_caught_by_guard(self):
        harness = ChaosHarness("dhrystone", warmup=2000,
                               verify_gate=True)
        caught = 0
        plans = [FaultPlan(seed, corrupt=0.6) for seed in range(4)]
        result = sweep.run("verify-gate", plans, harness.run_trial)
        for trial in result.trials:
            assert trial.ok, trial.detail
            if trial.faults.get("corrupt"):
                caught += 1
                assert (trial.faults.get("quarantine")
                        or trial.info["repaired_pages"])
        assert caught > 0

    def test_fault_free_trials_unaffected_by_gate(self):
        harness = ChaosHarness("dhrystone", warmup=2000,
                               verify_gate=True)
        trial = harness.run_trial(FaultPlan(0))
        assert trial.ok, trial.detail
        assert trial.outcome == "completed"
        assert not trial.faults.get("quarantine")


# -- journal + replay ---------------------------------------------------------


class TestVerifyEventsReplay:
    def test_migrate_journals_verify_event_and_replays(self):
        recorded = record_migrate(COUNTER_SOURCE, "counter",
                                  warmup=2500)
        summary = recorded.journal.summary()
        assert summary.get("verify") == 1
        events = [e for e in recorded.journal.events
                  if e.get("label", "").startswith("verify:")]
        assert events[0]["label"] == "verify:ok@migrate"
        assert events[0]["a"] > 0  # checks
        assert events[0]["b"] == 0  # repaired pages
        replayed = Replayer(recorded.journal).run()
        assert pinpoint_divergence(recorded.journal,
                                   replayed.journal) is None


# -- store integration --------------------------------------------------------


class TestStoreMaterializeVerify:
    def test_materialize_with_verify_passes(self, checkpoint):
        store = CheckpointStore()
        put = store.put(checkpoint["images"])
        images = store.materialize(put.checkpoint_id, verify=True,
                                   binary=checkpoint["binary"])
        assert images.content_digest() == checkpoint["digest"]

    def test_materialize_verify_catches_wrong_binary(self, checkpoint):
        """The semantic layer cross-checks against the binary: a set
        materialized for the wrong program fails loudly instead of
        restoring garbage."""
        other = compile_source(
            "func main() -> int { print(123); return 0; }", "other")
        store = CheckpointStore()
        put = store.put(checkpoint["images"])
        with pytest.raises(VerifyError):
            store.materialize(put.checkpoint_id, verify=True,
                              binary=other.binary("x86_64"))
        # opt-in: without verify the same call still materializes
        images = store.materialize(put.checkpoint_id)
        assert images.content_digest() == checkpoint["digest"]
