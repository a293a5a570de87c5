"""Child-process entry points: ``python -m perfbench.child <kind> ...``.

``job``    one cold ``dapper-migrate`` invocation (cold-cli); the
           CLI's own exit status is its native-vs-migrated check.
``record`` record a store-backed cross-ISA migration and write the
           encoded journal (record-debug).
``debug``  decode a journal, replay it with every digest checked, open
           a debug session and time a seeded burst of deep seeks and
           ``step_back`` calls; writes a JSON result (record-debug).

With ``--trace-out FILE`` the child wraps the layer boundaries and
writes its span statistics to FILE when done.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

#: the debug burst: deep seeks, each followed by this many step_backs.
#: A step_back's cost grows with the distance to the snapshot before
#: it, so many stratified seeks sample that distance evenly.
SEEKS, STEPS_BACK = 18, 1


def _tracer(path):
    if path is None:
        return None
    from . import layers
    from .trace import Tracer
    tracer = Tracer()
    layers.install(tracer)
    return tracer


def _finish(tracer, path, import_s=None):
    if tracer is None:
        return
    from . import layers
    layers.harvest(tracer)
    if import_s is not None:
        tracer.count("cli.import_s", import_s)
    tracer.remove()
    with open(path, "w") as handle:
        json.dump(tracer.to_dict(), handle)


def job(args) -> int:
    t0 = time.perf_counter()
    from repro.tools import migrate
    import_s = time.perf_counter() - t0
    tracer = _tracer(args.trace_out)
    code = migrate.main([args.source, "--from", args.src, "--to", args.dst,
                         "--warmup", str(args.warmup)])
    _finish(tracer, args.trace_out, import_s)
    return code


def record(args) -> int:
    from repro.replay.engine import record_migrate
    tracer = _tracer(args.trace_out)
    with open(args.source) as handle:
        source = handle.read()
    name = os.path.splitext(os.path.basename(args.source))[0]
    result = record_migrate(source, name, src_arch=args.src,
                            dst_arch=args.dst, warmup=args.warmup,
                            store=True)
    with open(args.journal, "wb") as handle:
        handle.write(result.journal.to_bytes())
    _finish(tracer, args.trace_out)
    return 0 if result.exit_code == 0 else 1


def debug(args) -> int:
    from repro.debug.session import DebugSession
    from repro.replay.engine import Replayer
    from repro.replay.journal import Journal
    from .oracle import output_from_journal
    tracer = _tracer(args.trace_out)
    rng = random.Random(args.seed)
    with open(args.journal, "rb") as handle:
        blob = handle.read()
    t0 = time.perf_counter()
    journal = Journal.from_bytes(blob)
    t1 = time.perf_counter()
    replayed = Replayer(journal).run()
    t2 = time.perf_counter()
    replay_ok = (replayed.journal.digest_stream() == journal.digest_stream()
                 and replayed.exit_code == journal.exit_code())
    session = DebugSession(journal)
    t3 = time.perf_counter()
    total = session.total_instructions
    step_back_s, seek_s = [], []
    # one seek in each of SEEKS equal strata of the last fifth
    deep = total * 4 // 5
    width = (total - deep) / SEEKS
    for i in range(SEEKS):
        a = time.perf_counter()
        session.seek_instr(deep + int(width * (i + rng.random())))
        seek_s.append(time.perf_counter() - a)
        for _ in range(STEPS_BACK):
            a = time.perf_counter()
            session.step_back()
            step_back_s.append(time.perf_counter() - a)
    # the deepest recorded digest must be reconstructed bit-exactly
    last = session.digest_positions()[-1][0]
    digest_ok = session.verify_digest(last)
    result = {
        "decode_s": t1 - t0, "replay_s": t2 - t1, "open_s": t3 - t2,
        "step_back_s": step_back_s, "seek_s": seek_s,
        "replay_ok": replay_ok, "digest_ok": digest_ok,
        "output": output_from_journal(journal),
        "slices_reexecuted": session.slices_reexecuted,
        "snapshots": len(session.snapshots),
    }
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    _finish(tracer, args.trace_out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("job")
    p.add_argument("source")
    p = sub.add_parser("record")
    p.add_argument("source")
    p.add_argument("journal")
    for name in ("job", "record"):
        p = sub.choices[name]
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="dst", required=True)
        p.add_argument("--warmup", type=int, required=True)
    p = sub.add_parser("debug")
    p.add_argument("journal")
    p.add_argument("result")
    p.add_argument("--seed", type=int, required=True)
    for p in sub.choices.values():
        p.add_argument("--trace-out")
    args = parser.parse_args(argv)
    return {"job": job, "record": record, "debug": debug}[args.kind](args)


if __name__ == "__main__":
    sys.exit(main())
