"""Chaos engine: seeded, journal-replayable fault injection.

A :class:`FaultPlan` says *what can go wrong and how often*; a
:class:`FaultInjector` draws every fault decision from a seeded
:class:`~repro.core.rng.RngService`, so chaos runs are deterministic and
— with a flight recorder attached — replay bit-identically from their
own journals.

Every systematic check — seeded chaos trials
(:mod:`~repro.chaos.harness`), group-protocol phases
(:mod:`repro.group.chaos`) and store crash points
(:mod:`~repro.chaos.crashpoints`) — runs on one kernel,
:mod:`repro.chaos.sweep`, with one whole-journal replay judge.
"""

from .crashpoints import CrashPointInjector, CrashPoints
from .faults import BP, KINDS, FaultPlan
from .injector import FaultInjector, FiredFault
from .sweep import Sweep, Trial, replay_judge

__all__ = ["BP", "KINDS", "FaultPlan", "FaultInjector", "FiredFault",
           "CrashPointInjector", "CrashPoints", "Sweep", "Trial",
           "replay_judge"]
