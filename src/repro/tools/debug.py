"""repro-debug — time-travel debugger: a DAP server over a journal.

Examples::

    # record a faulty run, then serve it to any DAP client over TCP
    python -m repro.tools.replay record app.dc -o crash.jrn
    python -m repro.tools.debug crash.jrn --port 4711

    # let the OS pick a port (printed as "listening on HOST:PORT")
    python -m repro.tools.debug crash.jrn

    # stdio transport, for editors that spawn debug adapters
    python -m repro.tools.debug crash.jrn --stdio

A truncated journal (the recorder crashed mid-run) is accepted: the
complete event prefix is debugged, with a warning on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..debug.server import run_stdio, run_tcp
from ..debug.session import DebugSession
from ..errors import JournalTruncated
from ..replay import Journal
from ..replay.engine import ENGINES
from ._cli import guarded

PROG = "repro-debug"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="serve the Debug Adapter Protocol over a recorded "
                    "journal (time-travel debugging)")
    parser.add_argument("journal", help="journal file to debug")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port to listen on (default: OS-"
                             "assigned, printed on startup)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP listen address")
    parser.add_argument("--stdio", action="store_true",
                        help="speak DAP over stdin/stdout instead of "
                             "TCP")
    parser.add_argument("--snapshot-every", type=int, default=32,
                        help="snapshot cadence in scheduling slices "
                             "(reverse-seek cost is O(this gap))")
    parser.add_argument("--engine", choices=ENGINES,
                        help="execution engine for the capture pass")
    return parser


def _load_journal(path: str) -> Journal:
    try:
        return Journal.load(path)
    except JournalTruncated as exc:
        print(f"{PROG}: warning: journal is truncated "
              f"(recorder died at instruction {exc.last_instr}); "
              f"debugging the complete prefix", file=sys.stderr)
        return exc.journal


def _main(args: argparse.Namespace) -> int:
    journal = _load_journal(args.journal)
    session = DebugSession(journal,
                           snapshot_every=args.snapshot_every,
                           engine=args.engine)
    print(f"{PROG}: timeline ready: "
          f"{session.total_instructions} instructions, "
          f"{session.total_slices} slices, "
          f"{len(session.snapshots)} snapshots", file=sys.stderr)
    if args.stdio:
        run_stdio(session)
        return 0

    def announce(host: str, port: int) -> None:
        print(f"{PROG}: listening on {host}:{port}", flush=True)

    run_tcp(session, host=args.host, port=args.port,
            announce=announce)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(PROG, lambda: _main(args))


if __name__ == "__main__":
    sys.exit(main())
