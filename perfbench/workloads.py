"""The three workloads. Each is a closed loop with no threads: the
driver issues the next operation only after the previous one returned,
and at most one child process runs at a time.

Every workload has one *operation* whose wall time is sampled (the
``op_*`` metrics): a ``migrate()`` call, a cold CLI job, a
``step_back``. Its inputs come from the seed alone.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import stats
from .oracle import ARCHES, OTHER, app_source, compile_apps

# migrate-churn: one live process per slot. Each slot cycles through
# its members as processes exit, so every run covers both servers and
# all three loop kernels whatever the seed; the seed fixes each slot's
# member order, the process picks and the slice lengths.
CHURN_SLOTS = (
    ("server", ("redis", "nginx")),              # branchy
    ("kernel", ("dhrystone", "kmeans", "cg")),   # loop-heavy
    ("parallel", ("blackscholes",)),             # 3 threads
)
#: executed instructions per slice between migrations
SLICE = (200, 2000)
#: a process past this share of its reference instruction count is not
#: migrated: pausing it could run it to exit before an equivalence point
MAX_PROGRESS = 0.7

# cold-cli and record-debug run whole passes (see _passes). With three
# apps of distinct cost, a pass's median job is the middle app's.
CLI_APPS = ("kmeans",                # loop-heavy
            "redis",                 # branchy
            "blackscholes")          # multi-threaded
RECDEBUG_APPS = ("blackscholes", "cg", "redis")
#: instructions before the migration in cold-cli jobs and recordings:
#: the CLI's default. It is fixed because the migration point alone
#: moves a recording's step_back cost by up to 40%, and a run holds
#: only two recordings of each app.
WARMUP = 5000


class Outcome:
    """What one measured loop produced."""

    def __init__(self):
        self.op_samples: List[float] = []
        self.loop_s = 0.0
        self.tally = stats.Tally()
        #: (name, value, unit) lines of the workload's own metrics
        self.report: List[Tuple[str, object, str]] = []
        #: per-layer values measured outside the wrappers
        self.extra: Dict[str, float] = {}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, trace: bool):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.trace = trace
        self._children = 0
        #: span statistics of traced children, merged by the driver
        self.layer_stats: List[Dict] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Outcome:
        raise NotImplementedError

    # -- child processes ------------------------------------------------

    def child(self, args: List[str]) -> Tuple[int, str]:
        """Run ``python -m perfbench.child`` to completion; returns its
        exit code and stdout, and keeps its layer stats when traced."""
        self._children += 1
        trace_out = None
        if self.trace:
            trace_out = os.path.join(self.workdir,
                                     f"trace-{self._children}.json")
            args = args + ["--trace-out", trace_out]
        proc = subprocess.run([sys.executable, "-m", "perfbench.child"]
                              + args, cwd=self.workdir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, check=False)
        if trace_out is not None and os.path.exists(trace_out):
            with open(trace_out) as handle:
                self.layer_stats.append(json.load(handle))
            os.remove(trace_out)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            print(f"perfbench: child {args[0]} exited {proc.returncode}: "
                  f"{tail[0]}", file=sys.stderr)
        return proc.returncode, proc.stdout

    def write_sources(self, apps) -> Dict[str, str]:
        paths = {}
        for app in apps:
            path = os.path.join(self.workdir, f"{app}.dc")
            with open(path, "w") as handle:
                handle.write(app_source(app))
            paths[app] = path
        return paths


def _report_latency(out: Outcome, prefix: str,
                    samples_s: List[float]) -> None:
    """``<prefix>_p50_ms`` and, given ten samples beyond it, ``_p90_ms``."""
    out.report.append((f"{prefix}_p50_ms", stats.median(samples_s) * 1e3,
                       "ms"))
    p90 = stats.percentile(samples_s, 90)
    out.report.append((f"{prefix}_p90_ms",
                       None if p90 is None else p90 * 1e3, "ms"))


# -- migrate-churn ---------------------------------------------------------


class _Slot:
    def __init__(self, order: List[str], arch: str):
        self.order = order
        self.next = 0
        self.arch = arch
        self.app = ""
        self.process = None
        self.output = ""          # stdout of earlier incarnations
        self.progress = 0.0       # share of the reference run executed
        self.checkpoint: Optional[str] = None


class MigrateChurn(Workload):
    name = "migrate-churn"

    def setup(self) -> None:
        from repro.isa import get_isa
        from repro.vm import Machine
        from repro.core.migration import MigrationPipeline
        from repro.store import CheckpointStore, DirBackend, SimDisk

        apps = [app for _, members in CHURN_SLOTS for app in members]
        self.apps = compile_apps(apps)
        self.machines = {arch: Machine(get_isa(arch), name=arch)
                         for arch in ARCHES}
        self.stores = {
            arch: CheckpointStore(backend=DirBackend(SimDisk(self.seed + i)))
            for i, arch in enumerate(ARCHES)}
        self.pipelines = {
            (app, src): MigrationPipeline(
                self.machines[src], self.machines[OTHER[src]], program,
                use_store=True, src_store=self.stores[src],
                dst_store=self.stores[OTHER[src]])
            for app, (program, _) in self.apps.items() for src in ARCHES}
        self.slots = []
        for i, (_kind, members) in enumerate(CHURN_SLOTS):
            slot = _Slot(self.rng.sample(members, len(members)),
                         ARCHES[i % 2])
            self._spawn(slot)
            self.slots.append(slot)

    def _spawn(self, slot: _Slot) -> None:
        slot.app = slot.order[slot.next % len(slot.order)]
        slot.next += 1
        slot.process = self.pipelines[(slot.app, slot.arch)].start()
        slot.output = ""
        slot.progress = 0.0

    def _drop_checkpoint(self, cid: Optional[str]) -> None:
        """Delete a superseded checkpoint from both stores, then gc."""
        if cid is None or any(s.checkpoint == cid for s in self.slots):
            return
        for store in self.stores.values():
            if cid in store:
                store.delete(cid)
            store.gc()

    def _reap(self, out: Outcome) -> None:
        for slot in self.slots:
            process = slot.process
            if not process.exited:
                continue
            expected = self.apps[slot.app][1].stdout
            out.tally.record(
                process.exit_code == 0
                and slot.output + process.stdout() == expected,
                f"{slot.app}: output or exit code differs from reference")
            old, slot.checkpoint = slot.checkpoint, None
            self._drop_checkpoint(old)
            self._spawn(slot)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        model: Dict[str, float] = {}
        rng = self.rng
        start = time.perf_counter()
        deadline = start + seconds
        rounds: List[_Slot] = []
        while time.perf_counter() < deadline:
            # every slot is picked once per round, in seeded order
            if not rounds:
                rounds = rng.sample(self.slots, len(self.slots))
            slot = rounds.pop()
            self.machines[slot.arch].step_all(rng.randint(*SLICE))
            self._reap(out)
            ref = self.apps[slot.app][1]
            process = slot.process
            if (slot.progress + process.instr_total
                    / ref.instructions[slot.arch] > MAX_PROGRESS):
                continue
            pipeline = self.pipelines[(slot.app, slot.arch)]
            machine = self.machines[slot.arch]
            # The simulator runs a node's processes one after another,
            # so the pause would also execute (and bill) every other
            # process on the node; on a real node they run on other
            # cores. Stop them for the duration of the migration.
            others = [s.process for s in self.slots
                      if s is not slot and s.arch == slot.arch
                      and not s.process.exited]
            for other in others:
                machine.sigstop(other)
            t0 = time.perf_counter()
            try:
                result = pipeline.migrate(process)
            except Exception as exc:  # counted, then the slot restarts
                out.tally.record(False, f"{slot.app}: migrate raised "
                                        f"{type(exc).__name__}: {exc}")
                if not process.exited:
                    machine.kill(process)
                self._spawn(slot)
                continue
            finally:
                for other in others:
                    machine.sigcont(other)
            out.op_samples.append(time.perf_counter() - t0)
            out.tally.record(True)
            for stage, secs in result.stage_seconds.items():
                model[stage] = model.get(stage, 0.0) + secs
            slot.output += result.output_before
            # the source's count now includes the steps of the pause
            slot.progress += (process.instr_total
                              / ref.instructions[slot.arch])
            slot.arch = OTHER[slot.arch]
            slot.process = result.process
            old, slot.checkpoint = (slot.checkpoint,
                                    result.stats["store"]["checkpoint"])
            self._drop_checkpoint(old)
        out.loop_s = time.perf_counter() - start
        self._check_stores(out)

        n = len(out.op_samples)
        _report_latency(out, "migrate", out.op_samples)
        out.report.append(("migrations", n, "count"))
        out.report.append(("migrations_per_s", n / out.loop_s, "1/s"))
        out.extra["store.dedup_ratio"] = sum(
            s.stats()["dedup_ratio"] for s in self.stores.values()) / 2
        for stage, secs in model.items():
            out.extra[f"model.{stage}_ms"] = secs / max(1, n) * 1e3
        return out

    def _check_stores(self, out: Outcome) -> None:
        """Reopen each durable store from its disk and fsck it."""
        from repro.store import CheckpointStore
        for arch, store in self.stores.items():
            live = sorted(store.checkpoint_ids())
            problems = store.verify()
            reopened, report = CheckpointStore.recover(store.backend)
            problems += report.fsck + reopened.verify()
            if sorted(reopened.checkpoint_ids()) != live:
                problems.append("recovered checkpoints differ")
            out.tally.record(not problems,
                             f"store {arch}: {'; '.join(problems)}")


# -- cold-cli and record-debug ---------------------------------------------


def _passes(rng: random.Random, apps, seconds: float, start: float):
    """Yield ``(app, src, dst)`` a whole pass at a time: every
    app in both directions, in seeded order. A new pass starts only if
    the last one would still fit in ``seconds``, so every run measures
    the same mix whatever the seed."""
    combos = [(app, src) for app in apps for src in ARCHES]
    last = 0.0
    while True:
        begun = time.perf_counter()
        if last and begun - start + last > seconds:
            return
        for app, src in rng.sample(combos, len(combos)):
            yield app, src, OTHER[src]
        last = time.perf_counter() - begun


class ColdCli(Workload):
    name = "cold-cli"

    def setup(self) -> None:
        self.refs = {app: ref for app, (_, ref)
                     in compile_apps(CLI_APPS).items()}
        self.paths = self.write_sources(CLI_APPS)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        start = time.perf_counter()
        for app, src, dst in _passes(self.rng, CLI_APPS, seconds, start):
            t0 = time.perf_counter()
            code, stdout = self.child(
                ["job", self.paths[app], "--from", src, "--to", dst,
                 "--warmup", str(WARMUP)])
            out.op_samples.append(time.perf_counter() - t0)
            out.tally.record(code == 0 and stdout == self.refs[app].stdout,
                             f"{app} {src}->{dst}: exit {code} or output "
                             f"differs from reference")
        out.loop_s = time.perf_counter() - start
        out.report.append(("jobs_wall_s", sum(out.op_samples), "s"))
        out.report.append(("job_p50_s", stats.median(out.op_samples), "s"))
        out.report.append(("jobs", len(out.op_samples), "count"))
        return out


# -- record-debug ----------------------------------------------------------


class RecordDebug(Workload):
    name = "record-debug"

    def setup(self) -> None:
        self.refs = {app: ref for app, (_, ref)
                     in compile_apps(RECDEBUG_APPS).items()}
        self.paths = self.write_sources(RECDEBUG_APPS)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        phases: Dict[str, List[float]] = {"record_s": [], "replay_s": [],
                                          "debug_open_s": []}
        extra = {"debug.slices_reexecuted": 0, "debug.snapshots": 0}
        journal = os.path.join(self.workdir, "run.journal")
        result_path = os.path.join(self.workdir, "debug.json")
        start = time.perf_counter()
        for app, src, dst in _passes(self.rng, RECDEBUG_APPS, seconds,
                                     start):
            t0 = time.perf_counter()
            code, _ = self.child(
                ["record", self.paths[app], journal, "--from", src,
                 "--to", dst, "--warmup", str(WARMUP)])
            phases["record_s"].append(time.perf_counter() - t0)
            if not out.tally.record(code == 0, f"{app}: record exited "
                                               f"{code}"):
                continue
            code, _ = self.child(
                ["debug", journal, result_path, "--seed",
                 str(self.rng.randrange(1 << 30))])
            if not out.tally.record(code == 0, f"{app}: debug exited "
                                               f"{code}"):
                continue
            with open(result_path) as handle:
                res = json.load(handle)
            out.tally.record(res["replay_ok"],
                             f"{app}: replay digests diverged")
            out.tally.record(res["output"] == self.refs[app].stdout,
                             f"{app}: recorded output differs from "
                             f"reference")
            out.tally.record(res["digest_ok"],
                             f"{app}: debug seek digest differs")
            for _ in res["step_back_s"]:
                out.tally.record(True)
            out.op_samples.extend(res["step_back_s"])
            phases["replay_s"].append(res["replay_s"])
            phases["debug_open_s"].append(res["open_s"])
            extra["debug.slices_reexecuted"] += res["slices_reexecuted"]
            extra["debug.snapshots"] += res["snapshots"]
        out.loop_s = time.perf_counter() - start
        for name, samples in phases.items():
            if samples:
                out.report.append((name, stats.median(samples), "s"))
        _report_latency(out, "step_back", out.op_samples)
        out.report.append(("cycles", len(phases["record_s"]), "count"))
        out.extra.update(extra)
        return out


WORKLOADS = {cls.name: cls for cls in (MigrateChurn, ColdCli, RecordDebug)}
