"""Group chaos harness: commit-or-resume, never half a group.

One :class:`GroupChaosHarness` owns a fault-free *reference* run of a
group migration (its per-member outputs and the committed broker state
are the oracle) and runs faulted trials against it on the shared sweep
kernel (:mod:`repro.chaos.sweep`). Its site source, :func:`sites`, is a
forced deterministic fault at each named protocol phase, a fault-free
control, then seeded probabilistic chaos through the shared
:class:`~repro.chaos.FaultInjector` — the sweep the CI ``group-smoke``
job runs. Every trial must land in exactly one of two states:

* **committed** — every member ran to exit on its destination with
  output identical to the reference, every source is torn down, the
  group manifest is registered with all its members, and the store
  fscks clean;
* **resumed** — :class:`~repro.errors.GroupRollback` was raised, the
  destinations hold *no* processes and *no* image files, the store
  holds *no* group manifest and *no* prepared member checkpoints, no
  orphan chunks survive GC, the connection broker is byte-identical to
  its pre-drain state, and every member resumed at the cut and ran to
  completion on the source with the reference output.

Anything else — a half-committed group, divergent output, leaked
destination or store state — fails the trial.
"""

from __future__ import annotations

from typing import List, Optional

from ..chaos import FaultInjector, FaultPlan, Trial
from ..errors import GroupRollback
from ..isa import get_isa
from ..store import CheckpointStore
from ..vm.kernel import Machine
from .coordinator import GroupCoordinator
from .migrate import split_placements
from .service import ServiceGroup
from .spec import FAULT_PHASES, GroupSpec


class GroupChaosHarness:
    def __init__(self, spec: Optional[GroupSpec] = None):
        base = spec if spec is not None else GroupSpec()
        # The base spec must itself be fault-free; trials override it.
        self.spec = GroupSpec(workers=base.workers, conns=base.conns,
                              drain=base.drain, seed=base.seed,
                              warmup=base.warmup)
        # The oracle: one fault-free run of the same shape.
        trial, outputs, broker_digest = self._run(fault="", plan=None,
                                                  audit=False)
        if trial.outcome != "committed":
            raise GroupRollback(
                "reference group run did not commit", phase="?")
        self.expected_outputs = outputs
        self.expected_broker_digest = broker_digest

    # -- one trial -----------------------------------------------------------

    def _build(self, fault: str, plan: Optional[FaultPlan]):
        spec = GroupSpec(workers=self.spec.workers, conns=self.spec.conns,
                         drain=self.spec.drain,
                         seed=plan.seed if plan is not None else self.spec.seed,
                         warmup=self.spec.warmup, fault=fault)
        group = ServiceGroup(spec)
        group.warmup()
        dst_a = Machine(get_isa("aarch64"), name="dst-a")
        dst_b = Machine(get_isa("x86_64"), name="dst-b")
        placements = split_placements(group, dst_a, dst_b)
        injector = FaultInjector(plan) if plan is not None else None
        coordinator = GroupCoordinator(group, placements,
                                       store=CheckpointStore(),
                                       injector=injector,
                                       fault_phase=fault)
        return group, placements, coordinator

    def _run(self, fault: str, plan: Optional[FaultPlan], audit: bool
             ):
        group, placements, coordinator = self._build(fault, plan)
        pre_drain_digest = group.broker.digest()
        problems: List[str] = []
        outputs: List[str] = []
        try:
            result = coordinator.migrate()
        except GroupRollback:
            outcome = "resumed"
            problems += self._audit_resumed(group, placements,
                                            coordinator, pre_drain_digest)
            group.run_to_exit_on_source()
            outputs = [m.process.stdout() for m in group.members]
        else:
            outcome = "committed"
            for machine, process in zip(placements, result.processes):
                machine.run_process(process)
            outputs = [m.result.combined_output() for m in group.members]
            problems += self._audit_committed(group, coordinator, result)
        if audit:
            for i, (got, want) in enumerate(zip(outputs,
                                                self.expected_outputs)):
                if got != want:
                    problems.append(
                        f"member {group.members[i].name} output differs "
                        f"from the fault-free reference")
        faults = (coordinator.injector.counts()
                  if coordinator.injector is not None else {})
        site = (f"fault={fault}" if fault else
                f"seed={plan.seed}" if plan is not None else "control")
        trial = Trial(site, outcome, problems, faults)
        return trial, outputs, group.broker.digest()

    def run_trial(self, site="") -> Trial:
        """One trial at ``site``: a forced fault at a protocol phase
        (one of :data:`~repro.group.spec.FAULT_PHASES`), probabilistic
        chaos from a :class:`~repro.chaos.FaultPlan`, or — with ``""``
        — the fault-free control."""
        fault, plan = (site, None) if isinstance(site, str) else ("", site)
        trial, _outputs, _digest = self._run(fault, plan, audit=True)
        return trial

    # -- audits ---------------------------------------------------------------

    def _audit_committed(self, group: ServiceGroup,
                         coordinator: GroupCoordinator,
                         result) -> List[str]:
        problems: List[str] = []
        for process in result.processes:
            if not process.exited:
                problems.append(f"destination process {process.pid} did "
                                f"not run to exit")
        if group.machine.processes:
            problems.append("source member(s) still alive after commit")
        store = coordinator.store
        if result.gid not in store:
            problems.append("group manifest missing from the store")
        elif store.members(result.gid) != result.member_ids:
            problems.append("group manifest members do not match the "
                            "prepared checkpoints")
        fsck = store.verify()
        if fsck:
            problems.append(f"store fsck after commit: {fsck}")
        broker = group.broker
        if len(broker.completed) != result.drained:
            problems.append("drained connections were not committed")
        if len(broker.in_flight) != result.leftover:
            problems.append("journaled connections went missing from "
                            "the broker")
        return problems

    def _audit_resumed(self, group: ServiceGroup,
                       placements: List[Machine],
                       coordinator: GroupCoordinator,
                       pre_drain_digest: str) -> List[str]:
        problems: List[str] = []
        for machine in dict.fromkeys(placements):
            if machine.processes:
                problems.append(f"{machine.name} has a (half-)restored "
                                f"process after abort")
            leftover = machine.tmpfs.listdir("/images")
            if leftover:
                problems.append(f"{machine.name} image tree not swept: "
                                f"{leftover}")
        store = coordinator.store
        if store.group_ids():
            problems.append("aborted run left a group manifest behind")
        if store.checkpoint_ids():
            problems.append(f"{len(store.checkpoint_ids())} prepared "
                            f"checkpoint(s) not swept")
        orphans = store.chunks.orphans()
        if orphans:
            problems.append(f"{len(orphans)} orphan chunk(s) leaked")
        fsck = store.verify()
        if fsck:
            problems.append(f"store fsck after abort: {fsck}")
        if group.broker.digest() != pre_drain_digest:
            problems.append("broker state differs from its pre-drain "
                            "snapshot")
        for member in group.members:
            if member.process.exited or member.process.stopped:
                problems.append(f"member {member.name} did not resume "
                                f"at the cut")
        return problems


def sites(nseeds: int = 0, seed0: int = 0, **probabilities) -> list:
    """The group site source: a forced fault at each protocol phase,
    the fault-free control, then one seeded plan per seed in
    ``[seed0, seed0 + nseeds)``."""
    return [*FAULT_PHASES, ""] + [FaultPlan(seed, **probabilities)
                                  for seed in range(seed0, seed0 + nseeds)]
