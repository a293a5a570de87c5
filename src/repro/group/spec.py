"""The group scenario description (the :class:`GroupSpec`).

A spec is a compact, fully deterministic description of one coordinated
group checkpoint run: the nginx worker-pool size, the redis backend's
simulated in-flight connection count, the bounded drain budget, the RNG
seed the connection broker draws from, the warmup before the cut, and —
for chaos runs — the protocol phase at which a deterministic fault is
forced. Like :class:`~repro.chaos.FaultPlan`, the spec round-trips
exactly through its string form, which embeds in flight-recorder
journal headers (the ``group`` field) — that is what makes a chaotic
group checkpoint replayable bit-for-bit from its own journal.
"""

from __future__ import annotations

from ..errors import GroupError

#: protocol phases a forced fault can target, in protocol order
#: (quiesce is excluded: pausing only reads the members, exactly as the
#: migration pipeline keeps its pause outside the transaction)
FAULT_PHASES = ("drain", "prepare", "restore", "commit")

#: integer spec fields, in canonical spec order
_FIELDS = ("workers", "conns", "drain", "seed", "warmup")


class GroupSpec:
    """One group run: worker pool shape + broker + forced-fault phase."""

    def __init__(self, workers: int = 2, conns: int = 8, drain: int = 4,
                 seed: int = 0, warmup: int = 4000, fault: str = ""):
        if workers < 1:
            raise GroupError(f"group needs at least one worker, "
                             f"got workers={workers}")
        if conns < 0:
            raise GroupError(f"connection count must be >= 0, "
                             f"got conns={conns}")
        if drain < 0:
            raise GroupError(f"drain budget must be >= 0, "
                             f"got drain={drain}")
        if warmup < 1:
            raise GroupError(f"warmup must be >= 1, got warmup={warmup}")
        if fault and fault not in FAULT_PHASES:
            raise GroupError(
                f"unknown fault phase {fault!r}; "
                f"known: {', '.join(FAULT_PHASES)}")
        self.workers = int(workers)
        self.conns = int(conns)
        self.drain = int(drain)
        self.seed = int(seed)
        self.warmup = int(warmup)
        self.fault = fault

    # -- spec round-trip (journal header embedding) -----------------------

    def to_spec(self) -> str:
        """Canonical ``workers=<n>,conns=<n>,...`` string (the forced
        fault phase appended only when set). Byte-stable, so journal
        headers are too."""
        parts = [f"{name}={getattr(self, name)}" for name in _FIELDS]
        if self.fault:
            parts.append(f"fault={self.fault}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "GroupSpec":
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            key = key.strip()
            if key == "fault":
                kwargs["fault"] = value.strip()
                continue
            if key not in _FIELDS:
                raise GroupError(
                    f"unknown group spec field {key!r} in {spec!r}; "
                    f"known: {', '.join(_FIELDS)}, fault")
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise GroupError(f"bad group spec field {part!r} in "
                                 f"{spec!r}") from None
        return cls(**kwargs)

    def __repr__(self) -> str:
        return f"<GroupSpec {self.to_spec()}>"
