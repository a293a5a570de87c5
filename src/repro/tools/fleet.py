"""repro-fleet — thousand-node migration storms from the command line.

Runs one :class:`~repro.fleet.FleetStorm`: open-loop nginx/redis
traffic on a sharded fleet, a load spike, a rolling-update wave of
concurrent live migrations under a bounded in-flight cap, and optional
chaos (stage crashes, link drops/latency, whole-node loss feeding the
rollback path).

Examples::

    python -m repro.tools.fleet --nodes 200 --shards 8 --duration 60
    python -m repro.tools.fleet --nodes 16 --shards 4 --crash 0.03 \\
        --pskill 0.01 --check --replay-check
    python -m repro.tools.fleet --nodes 1000 --services 900 \\
        --max-in-flight 128 --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from ..chaos import KINDS, FaultPlan
from ._cli import guarded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Traffic-driven fleet migration storm: concurrent "
                    "live migrations under load, chaos, and a "
                    "complete-or-rollback invariant.")
    parser.add_argument("--nodes", type=int, default=64,
                        help="fleet size (default 64)")
    parser.add_argument("--shards", type=int, default=4,
                        help="event-core shards (results are "
                             "shard-count invariant)")
    parser.add_argument("--services", type=int, default=0,
                        help="serving instances (0 = one per node)")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds (default 60)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fleet seed (chaos + traffic jitter)")
    parser.add_argument("--max-in-flight", type=int, default=16,
                        help="concurrent migration cap (default 16)")
    parser.add_argument("--wave", type=float, default=0.3, metavar="F",
                        help="fraction of services in the rolling-"
                             "update wave (default 0.3)")
    parser.add_argument("--update-group", type=int, default=0,
                        metavar="N",
                        help="submit the update wave as coordinated "
                             "groups of N (commit together or roll "
                             "back together; default 0 = solo)")
    parser.add_argument("--spike", type=float, default=3.0, metavar="X",
                        help="load-spike factor (default 3.0)")
    parser.add_argument("--durable", action="store_true",
                        help="nodes hold crash-consistent stores: a "
                             "migration whose checkpoint durably landed "
                             "survives its source node's death and "
                             "completes from the recovered store "
                             "instead of rolling back")
    for kind in KINDS:
        parser.add_argument(f"--{kind}", type=float, default=0.0,
                            metavar="P",
                            help=f"chaos {kind} probability in [0, 1]")
    parser.add_argument("--record", metavar="PATH",
                        help="save the storm's flight-recorder journal "
                             "to PATH")
    parser.add_argument("--replay-check", action="store_true",
                        help="re-execute the storm from its own journal "
                             "and assert bit-identity")
    parser.add_argument("--check", action="store_true",
                        help="re-run at 1 shard and assert the journal "
                             "event stream matches (shard invariance)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full result as JSON on stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the summary line")
    return parser


def _build_spec(args: argparse.Namespace) -> Tuple[object, str]:
    from ..fleet import FleetSpec
    spec = FleetSpec(seed=args.seed, nodes=args.nodes, shards=args.shards,
                     services=args.services, duration=args.duration,
                     max_in_flight=args.max_in_flight,
                     update_fraction=args.wave, spike_factor=args.spike,
                     update_group=args.update_group,
                     durable=int(args.durable))
    probabilities = {kind: getattr(args, kind) for kind in KINDS}
    chaos = ""
    if any(probabilities.values()):
        chaos = FaultPlan(args.seed, **probabilities).to_spec()
    return spec, chaos


def _recorded_storm(spec, chaos: str):
    """One storm run with an attached flight recorder; returns the
    (metrics, finalized journal) pair from the same simulation."""
    from ..fleet import FleetStorm
    from ..replay.engine import fleet_header
    from ..replay.recorder import FlightRecorder
    plan = FaultPlan.from_spec(chaos) if chaos else None
    recorder = FlightRecorder(digest_every=0, record_syscalls=False)
    recorder.journal.header.update(fleet_header(spec.to_spec(), chaos))
    storm = FleetStorm(spec, plan, recorder=recorder)
    result = storm.run()
    recorder.finalize(0 if result.invariant_ok else 1)
    return result, recorder.journal


def _run(args: argparse.Namespace) -> int:
    from ..chaos import replay_judge
    from ..fleet import FleetSpec
    from ..replay.engine import record_fleet

    spec, chaos = _build_spec(args)
    result, journal = _recorded_storm(spec, chaos)
    failures = 0

    if args.record:
        journal.save(args.record)
        if not args.quiet:
            print(f"[fleet] journal: {args.record} "
                  f"({len(journal.events)} events)")

    if args.replay_check:
        problems = replay_judge(journal)
        print(f"[replay-check] journal "
              f"{problems[0] if problems else 'replays bit-identically'}",
              file=sys.stderr)
        failures += bool(problems)

    if args.check:
        single = FleetSpec.from_spec(spec.to_spec())
        single.shards = 1
        other = record_fleet(single.to_spec(), chaos=chaos).journal
        # Headers differ (the spec strings name different shard
        # counts); everything *recorded* must not.
        invariant = other.events == journal.events
        print(f"[shard-check] {spec.shards} shard(s) vs 1: event "
              f"streams {'identical' if invariant else 'DIVERGED'}",
              file=sys.stderr)
        if not invariant:
            failures += 1

    if not result.invariant_ok:
        failures += 1

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif not args.quiet:
        d = result.to_dict()
        m = d["migrations"]
        print(f"  nodes={d['nodes']} shards={d['shards']} "
              f"services={d['services']} barriers={d['barriers']}")
        print(f"  migrations: {m['started']} started, "
              f"{m['completed']} completed, {m['rolled_back']} rolled "
              f"back (peak {m['peak_in_flight']} in flight)")
        if m["groups_committed"] or m["groups_aborted"]:
            print(f"  groups: {m['groups_committed']} committed, "
                  f"{m['groups_aborted']} aborted")
        print(f"  latency ms: p50={d['latency_ms']['p50']} "
              f"p99={d['latency_ms']['p99']} "
              f"p99_storm={d['latency_ms']['p99_storm']}")
        if d["chaos"]:
            print(f"  chaos: {d['chaos']} "
                  f"({d['node_losses']} node loss(es))")
    print(f"[fleet] {result.events_total} events in "
          f"{result.wall_s:.2f}s wall "
          f"({result.events_per_sec_wall:,.0f} ev/s), "
          f"{result.completed}/{result.started} migrations completed, "
          f"{result.rolled_back} rolled back, "
          f"invariant {'OK' if result.invariant_ok else 'VIOLATED'}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded("repro-fleet", lambda: _run(args))


if __name__ == "__main__":
    raise SystemExit(main())
