"""chaos — seeded fault-injection trials against the migration pipeline.

Runs N seeded chaos trials and asserts the transactional invariant:
every migration either **completes** (byte-identical output + settled
memory vs a fault-free reference) or **rolls back** to a resumable
source (destination swept clean: no images, no orphan chunks, no
half-restored process) — never anything in between.

Examples::

    python -m repro.tools.chaos --trials 20 --drop 0.3 --corrupt 0.2
    python -m repro.tools.chaos --lazy --pskill 0.8 --trials 10
    python -m repro.tools.chaos --store --drop 0.4 --partition 0.15 \\
        --replay-check
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..apps.registry import get_app
from ..chaos import KINDS, FaultPlan, Sweep, sweep
from ..chaos.harness import ChaosHarness
from ..errors import ReproError
from ..replay.journal import EV_FAULT
from ._cli import guarded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dapper-chaos",
        description="Seeded chaos trials: every migration completes "
                    "byte-identically or rolls back to a resumable "
                    "source.")
    parser.add_argument("--app", default="kmeans",
                        help="registered app to migrate (default kmeans)")
    parser.add_argument("--trials", type=int, default=10,
                        help="number of seeded trials")
    parser.add_argument("--seed0", type=int, default=0,
                        help="first seed (trials use seed0..seed0+N-1)")
    for kind in KINDS:
        parser.add_argument(f"--{kind}", type=float, default=0.0,
                            metavar="P",
                            help=f"{kind} fault probability in [0, 1]")
    parser.add_argument("--lazy", action="store_true",
                        help="post-copy (lazy) migrations")
    parser.add_argument("--store", action="store_true",
                        help="content-addressed store transfer")
    parser.add_argument("--retry-budget", type=int, default=3,
                        help="attempts per stage before rollback")
    parser.add_argument("--warmup", type=int, default=5000,
                        help="instructions to run before migrating")
    parser.add_argument("--verify-gate", action="store_true",
                        help="disable the transfer's own arrival digest "
                             "check so corrupt faults reach (and must "
                             "be caught by) the restore guard")
    parser.add_argument("--replay-check", action="store_true",
                        help="record the first faulted seed with the "
                             "flight recorder and assert its whole "
                             "journal replays bit-identically")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the summary line")
    return parser


def _replay_check(args, plan: FaultPlan) -> bool:
    """Record one faulted migration and hold it to the whole-journal
    replay judge."""
    from ..chaos import replay_judge
    from ..replay.engine import record_migrate

    source = get_app(args.app).source("small")
    recorded = record_migrate(source, args.app, warmup=args.warmup,
                              lazy=args.lazy, store=args.store,
                              chaos=plan.to_spec(),
                              retries=args.retry_budget)
    problems = replay_judge(recorded.journal)
    for problem in problems:
        print(f"[replay-check] {problem}", file=sys.stderr)
    if not problems:
        faults = len(recorded.journal.of_kind(EV_FAULT))
        print(f"[replay-check] seed {plan.seed} ({plan.to_spec()}): "
              f"journal replays bit-identically ({faults} fault "
              f"event(s))", file=sys.stderr)
    return not problems


def summary(result: Sweep) -> str:
    """Outcome tallies, faults fired (the :data:`~repro.chaos.KINDS`
    the plans drew) and the injector's notes (rollback, fallback,
    quarantine, ...) each under its own name."""
    fired, notes = 0, {}
    for trial in result.trials:
        for name, count in trial.faults.items():
            if name in KINDS:
                fired += count
            else:
                notes[name] = notes.get(name, 0) + count
    tally = result.tally()
    noted = ", ".join(f"{n} {name}" for name, n in sorted(notes.items()))
    repaired = sum(t.info["repaired_pages"] for t in result.trials)
    return (f"[chaos] {result.label}: {len(result.trials)} trials, "
            f"{tally.get('completed', 0)} completed, "
            f"{tally.get('rolled-back', 0)} rolled back, "
            f"{fired} faults fired"
            f"{f' (noted: {noted})' if noted else ''}, "
            f"{repaired} page(s) repaired, "
            f"{len(result.failures())} invariant violation(s)")


def _run(args: argparse.Namespace, probabilities: dict) -> int:
    try:
        harness = ChaosHarness(args.app, lazy=args.lazy,
                               use_store=args.store, warmup=args.warmup,
                               retry_budget=args.retry_budget,
                               verify_gate=args.verify_gate)
    except KeyError as exc:  # unknown app name from the registry
        raise ReproError(exc.args[0]) from None
    plans = [FaultPlan(seed, **probabilities)
             for seed in range(args.seed0, args.seed0 + args.trials)]
    label = (f"{args.app}{' lazy' if args.lazy else ''}"
             f"{' store' if args.store else ''}"
             f"{' verify-gate' if args.verify_gate else ''}")
    result = sweep.run(label, plans, harness.run_trial)
    if not args.quiet:
        for line in result.lines():
            print(line)
    print(summary(result))
    if not result.ok:
        return 1

    if args.replay_check:
        faulted = next((plan for plan, t in zip(plans, result.trials)
                        if t.faults), None)
        if faulted is None:
            print("[replay-check] skipped: no trial fired a fault",
                  file=sys.stderr)
        elif not _replay_check(args, faulted):
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    probabilities = {kind: getattr(args, kind) for kind in KINDS}
    if not any(probabilities.values()):
        print("dapper-chaos: no fault probabilities given "
              "(e.g. --drop 0.3)", file=sys.stderr)
        return 2
    return guarded("dapper-chaos", lambda: _run(args, probabilities))


if __name__ == "__main__":
    raise SystemExit(main())
