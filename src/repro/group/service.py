"""The process group under coordination: nginx workers + a redis
backend on one source machine, plus the connection broker that models
their in-flight requests.

The broker is the *application-level* state the two-phase coordinator
must cut consistently: every simulated connection is either **drained**
(served to completion before the dumps are taken, inside the bounded
drain budget) or **journaled** — written into each endpoint's
``sockets.img`` by the sockets checkpoint plugin so the restored group
resumes it. The drain itself is transactional: nothing is committed
until the group manifest registers, and an abort at any later phase
puts every staged connection back in flight, byte-identically.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..apps.registry import get_app
from ..core.migration import exe_path_for, install_program
from ..errors import GroupError
from ..isa import get_isa
from ..vm.kernel import Machine, Process
from .spec import GroupSpec

#: the member roles, spawn order: the worker pool first, then the backend
NGINX, REDIS = "nginx", "redis"


def _lcg(state: int) -> int:
    """One step of the broker's deterministic 64-bit LCG."""
    return (state * 6364136223846793005 + 1442695040888963407) \
        & 0xFFFFFFFFFFFFFFFF


class ConnectionBroker:
    """Seeded in-flight connections between workers and the backend.

    Connections are plain dicts (``cid``/``src_pid``/``dst_pid``/
    ``payload``) — the exact shape
    :class:`~repro.criu.plugins.SocketsImage` journals. State moves
    through a two-phase drain: :meth:`begin_drain` stages up to the
    budget, :meth:`commit_drain` retires the staged connections at the
    group commit point, :meth:`abort_drain` restores the pre-drain
    state exactly (both are idempotent no-ops with no drain open).
    """

    def __init__(self, seed: int, count: int, worker_pids: List[int],
                 backend_pid: int):
        self.in_flight: List[Dict] = []
        self.completed: List[Dict] = []
        self._snapshot: Optional[List[Dict]] = None
        self._staged: List[Dict] = []
        state = seed ^ 0x9E3779B97F4A7C15
        for cid in range(count):
            state = _lcg(state)
            worker = worker_pids[state % len(worker_pids)]
            state = _lcg(state)
            self.in_flight.append({
                "cid": cid,
                "src_pid": worker,
                "dst_pid": backend_pid,
                "payload": f"GET /key-{state % 997:03d}",
            })

    # -- the two-phase drain ------------------------------------------------

    def begin_drain(self, budget: int) -> Tuple[List[Dict], List[Dict]]:
        """Stage up to ``budget`` connections for completion-before-cut.

        Returns ``(drained, leftover)``: the staged connections and the
        ones the budget could not cover — the leftovers are what the
        sockets plugin journals into each member's dump.
        """
        if self._snapshot is not None:
            raise GroupError("a drain is already in progress")
        self._snapshot = list(self.in_flight)
        n = min(max(0, budget), len(self.in_flight))
        self._staged = self.in_flight[:n]
        self.in_flight = self.in_flight[n:]
        return list(self._staged), list(self.in_flight)

    def commit_drain(self) -> None:
        """Retire the staged connections: the group manifest committed,
        so their completion is part of the cut."""
        self.completed.extend(self._staged)
        self._staged = []
        self._snapshot = None

    def abort_drain(self) -> None:
        """Put every staged connection back in flight — the broker is
        byte-identical to its pre-drain state."""
        if self._snapshot is not None:
            self.in_flight = self._snapshot
            self._staged = []
            self._snapshot = None

    # -- queries ------------------------------------------------------------

    def journaled_for(self, pid: int) -> List[Dict]:
        """The in-flight connections ``pid`` is an endpoint of — what
        its ``sockets.img`` journals at dump time."""
        return [dict(c) for c in self.in_flight
                if pid in (c["src_pid"], c["dst_pid"])]

    def digest(self) -> str:
        """Content digest of the broker state (canonical JSON) — the
        chaos harness's byte-identity oracle for drain settlement."""
        blob = json.dumps({"in_flight": self.in_flight,
                           "completed": self.completed},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(blob.encode("utf-8"),
                               digest_size=16).hexdigest()


class GroupMember:
    """One process in the coordinated group."""

    __slots__ = ("name", "role", "process", "runtime", "pipeline",
                 "result")

    def __init__(self, name: str, role: str, process: Process):
        self.name = name
        self.role = role
        self.process = process
        #: the quiesce-phase :class:`~repro.core.runtime.DapperRuntime`
        self.runtime = None
        #: per-member :class:`~repro.core.migration.MigrationPipeline`
        self.pipeline = None
        #: held-open :class:`~repro.core.migration.MigrationResult`
        self.result = None

    def __repr__(self) -> str:
        return f"<GroupMember {self.name} pid={self.process.pid}>"


class ServiceGroup:
    """An nginx worker pool + one redis backend on a source machine."""

    def __init__(self, spec: GroupSpec, recorder=None,
                 machine: Optional[Machine] = None):
        self.spec = spec
        self.machine = (machine if machine is not None
                        else Machine(get_isa("x86_64"), name="src"))
        if recorder is not None:
            recorder.attach(self.machine)
        self.programs = {NGINX: get_app(NGINX).compile("small"),
                         REDIS: get_app(REDIS).compile("small")}
        for program in self.programs.values():
            install_program(self.machine, program)
        self.members: List[GroupMember] = []
        for i in range(spec.workers):
            process = self.machine.spawn_process(
                exe_path_for(NGINX, "x86_64"))
            self.members.append(GroupMember(f"nginx-{i}", NGINX, process))
        backend = self.machine.spawn_process(exe_path_for(REDIS, "x86_64"))
        self.members.append(GroupMember("redis-0", REDIS, backend))
        self.broker = ConnectionBroker(
            spec.seed, spec.conns,
            worker_pids=[m.process.pid for m in self.members
                         if m.role == NGINX],
            backend_pid=backend.pid)

    def program_for(self, member: GroupMember):
        return self.programs[member.role]

    def warmup(self) -> None:
        self.machine.step_all(self.spec.warmup)
        for member in self.members:
            if member.process.exited:
                raise GroupError(
                    f"member {member.name} exited during warmup — "
                    f"lower warmup below its lifetime")

    def run_to_exit_on_source(self, max_steps: int = 50_000_000
                              ) -> List[int]:
        """After an abort: every member resumes at the cut and runs to
        completion on the source. Returns the exit codes."""
        return [self.machine.run_process(m.process, max_steps)
                for m in self.members]
