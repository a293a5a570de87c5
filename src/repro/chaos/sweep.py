"""The sweep kernel: enumerate sites, run one trial per site, judge it.

A *site source* yields the places to strike, :func:`run` runs one trial
per site, and *judges* turn what each trial left behind into problem
strings (an empty list is a pass). A harness brings only its site
source and its judges: seeds (:mod:`repro.chaos.harness`), group
protocol phases (:mod:`repro.group.chaos`), store durability sites
(:mod:`repro.chaos.crashpoints`).

:func:`replay_judge` is the judge every ``--replay-check`` uses: the
recorded run is re-executed from its own journal, and the whole
replayed journal must be byte-identical to the recording.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional


class Trial:
    """One site's verdict: what happened, and what the judges found."""

    __slots__ = ("site", "outcome", "problems", "faults", "info")

    def __init__(self, site: str, outcome: str, problems=(),
                 faults: Optional[Dict[str, int]] = None,
                 info: Optional[Dict] = None):
        #: short display name of the site ("seed=3", "fault=drain", ...)
        self.site = site
        #: what the trial did ("completed", "resumed", "recovered", ...)
        self.outcome = outcome
        self.problems = list(problems)
        #: injector tallies by name, fired kinds and notes alike
        self.faults = dict(faults or {})
        #: per-harness extras (attempts, recovery report, ...)
        self.info = dict(info or {})

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def detail(self) -> str:
        return "; ".join(self.problems)

    def line(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"  {self.site:<14} {self.outcome:<11} [{mark}] "
                f"faults={self.faults or '{}'}{extra}")

    def __repr__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return f"<Trial {self.site} {self.outcome} [{mark}]>"


class Sweep:
    """Every trial of one sweep, in site order."""

    def __init__(self, label: str, trials: List[Trial]):
        self.label = label
        self.trials = trials

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.trials)

    def failures(self) -> List[Trial]:
        return [t for t in self.trials if not t.ok]

    def tally(self) -> Dict[str, int]:
        """Trials per outcome, in first-seen order."""
        out: Dict[str, int] = {}
        for trial in self.trials:
            out[trial.outcome] = out.get(trial.outcome, 0) + 1
        return out

    def lines(self, every: bool = True) -> List[str]:
        """One :meth:`Trial.line` per trial (``every=False``: failures
        only)."""
        return [t.line() for t in self.trials if every or not t.ok]


def run(label: str, sites: Iterable, trial_fn: Callable[..., Trial]
        ) -> Sweep:
    """One ``trial_fn(site)`` per site, in order."""
    return Sweep(label, [trial_fn(site) for site in sites])


def first_difference(recorded, replayed) -> Optional[int]:
    """Index of the first event whose encoding differs between two
    journals (the shorter length when one is a prefix of the other),
    ``-1`` when only the headers differ, ``None`` when byte-identical."""
    if recorded.to_bytes() == replayed.to_bytes():
        return None
    from ..replay.journal import EVENT_SCHEMA
    a, b = ([EVENT_SCHEMA.encode(e) for e in j.events]
            for j in (recorded, replayed))
    index = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
    return -1 if a == b else index


def replay_judge(journal) -> List[str]:
    """Re-execute ``journal`` from its own header; the whole replayed
    journal must come back byte-identical."""
    from ..replay.engine import Replayer
    from ..replay.journal import KIND_NAMES
    replayed = Replayer(journal).run().journal
    index = first_difference(journal, replayed)
    if index is None:
        return []
    if index < 0:
        return ["replayed journal header differs"]
    kind = (KIND_NAMES.get(journal.events[index]["kind"], "?")
            if index < len(journal.events) else "end of journal")
    return [f"replay diverged at event #{index} ({kind}; "
            f"{len(journal.events)} recorded vs {len(replayed.events)} "
            f"replayed events)"]
