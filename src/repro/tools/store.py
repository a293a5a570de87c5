"""store — checkpoint-store CLI (put / get / ls / stat / gc / verify,
plus recover / scrub / sweep for crash-consistent dir-backend stores).

Operates on two on-disk layouts, auto-detected per store directory:

* **legacy** — ``chunks/`` + ``index.json``, as written by
  :meth:`repro.store.CheckpointStore.save_dir`; mutations rewrite the
  whole index (not crash-safe).
* **dir** — the crash-consistent backend
  (:class:`repro.store.DirBackend` over :class:`repro.store.OsDisk`):
  content-addressed chunk files installed via write-tmp/fsync/rename
  plus a write-ahead intent log (``wal``). Every mutation is durable
  when the command returns, and ``recover`` reopens the store after a
  crash at any point.

Checkpoint image directories are ``.img`` files (the format ``crit``
and ``migrate --keep-images`` use).

Examples::

    python -m repro.tools.store put  mystore/ images/ --backend dir
    python -m repro.tools.store ls   mystore/
    python -m repro.tools.store get  mystore/ <checkpoint-id> out-images/
    python -m repro.tools.store recover mystore/
    python -m repro.tools.store scrub   mystore/ --binary app.delf
    python -m repro.tools.store sweep   images/ --ops put,delete,gc
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..errors import ReproError
from ..store import CheckpointStore, DirBackend, OsDisk
from ._cli import guarded
from .crit import load_image_set


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="store",
        description="Content-addressed checkpoint store tool.")
    sub = parser.add_subparsers(dest="command", required=True)

    put = sub.add_parser("put", help="store an image directory as a "
                                     "checkpoint")
    put.add_argument("store_dir")
    put.add_argument("image_dir")
    put.add_argument("--parent", default=None,
                     help="checkpoint id this dump is a delta against")
    put.add_argument("--codec", default="zlib",
                     help="codec when creating a new store "
                          "(default: zlib)")
    put.add_argument("--backend", choices=("legacy", "dir"),
                     default="legacy",
                     help="layout when creating a new store: 'dir' is "
                          "the crash-consistent WAL backend (default: "
                          "legacy index.json; existing stores are "
                          "auto-detected)")

    get = sub.add_parser("get", help="materialize a checkpoint into an "
                                     "image directory")
    get.add_argument("store_dir")
    get.add_argument("checkpoint")
    get.add_argument("out_dir")
    get.add_argument("--verify", action="store_true",
                     help="run the restore guard over the materialized "
                          "set against this checkpoint's page manifest")
    get.add_argument("--binary", metavar="DELF",
                     help="DELF binary for --verify's semantic pass")

    ls = sub.add_parser("ls", help="list checkpoints")
    ls.add_argument("store_dir")

    stat = sub.add_parser("stat", help="dedup/compression statistics")
    stat.add_argument("store_dir")

    gc = sub.add_parser("gc", help="delete a checkpoint (optional) and "
                                   "sweep unreferenced chunks")
    gc.add_argument("store_dir")
    gc.add_argument("--delete", default=None, metavar="CHECKPOINT",
                    help="unregister this checkpoint first")

    verify = sub.add_parser("verify", help="fsck: re-hash every chunk "
                                           "and audit the refcounts")
    verify.add_argument("store_dir")

    recover = sub.add_parser(
        "recover", help="crash-recover a dir-backend store: roll the "
                        "WAL forward/back, quarantine torn chunks, "
                        "sweep orphans, fsck")
    recover.add_argument("store_dir")

    scrub = sub.add_parser(
        "scrub", help="incremental integrity scrub: re-hash chunks "
                      "(memory and disk copies) and rebuild corrupt "
                      "text pages from the binary")
    scrub.add_argument("store_dir")
    scrub.add_argument("--binary", metavar="DELF",
                       help="DELF binary used to rebuild corrupt "
                            "text-page chunks")
    scrub.add_argument("--start", default="",
                       help="resume cursor from a previous window")
    scrub.add_argument("--limit", type=int, default=None, metavar="N",
                       help="scrub at most N chunks this window")

    sweep = sub.add_parser(
        "sweep", help="systematic crash-point sweep: crash a simulated "
                      "store at every durability site of each op and "
                      "prove recovery")
    sweep.add_argument("image_dir",
                       help="checkpoint image directory used as the "
                            "workload")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--ops", default="put,put_group,delete,gc,adopt",
                       help="comma-separated ops to sweep (default: "
                            "put,put_group,delete,gc,adopt)")
    return parser


def _dir_backend(path: str) -> DirBackend:
    return DirBackend(OsDisk(path))


def _is_dir_backend(path: str) -> bool:
    return os.path.exists(os.path.join(path, "wal"))


def _open_store(path: str, codec: str = "zlib", create: bool = False,
                backend: str = "auto") -> CheckpointStore:
    if backend == "dir" or (backend == "auto" and _is_dir_backend(path)):
        be = _dir_backend(path)
        if be.has_wal():
            store, _report = CheckpointStore.recover(be)
            return store
        if not create:
            raise ReproError(f"no store at {path!r} (missing wal)")
        return CheckpointStore(codec=codec, backend=be)
    if os.path.exists(os.path.join(path, "index.json")):
        return CheckpointStore.load_dir(path)
    if not create:
        raise ReproError(f"no store at {path!r} (missing index.json)")
    return CheckpointStore(codec=codec)


def _resolve_id(store: CheckpointStore, prefix: str) -> str:
    matches = [cid for cid in store.checkpoint_ids()
               if cid.startswith(prefix)]
    if not matches:
        raise ReproError(f"no checkpoint matching {prefix!r}")
    if len(matches) > 1:
        raise ReproError(f"ambiguous checkpoint prefix {prefix!r} "
                         f"({len(matches)} matches)")
    return matches[0]


def _run(args: argparse.Namespace) -> int:
    if args.command == "put":
        backend = args.backend if args.backend == "dir" else "auto"
        store = _open_store(args.store_dir, codec=args.codec,
                            create=True, backend=backend)
        images = load_image_set(args.image_dir)
        parent = (_resolve_id(store, args.parent)
                  if args.parent else None)
        result = store.put(images, parent=parent)
        if not store.durable:
            store.save_dir(args.store_dir)
        kind = "delta" if result.delta else "full"
        print(f"{result.checkpoint_id} {kind} "
              f"new_chunks={result.new_chunks} "
              f"dup_chunks={result.dup_chunks} "
              f"physical+={result.new_physical_bytes}B "
              f"logical={result.logical_bytes}B")
    elif args.command == "get":
        store = _open_store(args.store_dir)
        cid = _resolve_id(store, args.checkpoint)
        binary = None
        if args.binary:
            from ..binfmt.delf import DelfBinary
            with open(args.binary, "rb") as fh:
                binary = DelfBinary.from_bytes(fh.read())
        images = store.materialize(cid, verify=args.verify,
                                   binary=binary)
        os.makedirs(args.out_dir, exist_ok=True)
        for name, blob in sorted(images.files.items()):
            with open(os.path.join(args.out_dir, name), "wb") as fh:
                fh.write(blob)
        print(f"materialized {cid} -> {args.out_dir} "
              f"({images.total_bytes()}B, "
              f"{len(images.files)} files)")
    elif args.command == "ls":
        store = _open_store(args.store_dir)
        for cid in store.checkpoint_ids():
            manifest = store.manifest(cid)
            parent = manifest.get("parent", "") or "-"
            print(f"{cid} arch={manifest.get('arch', '?')} "
                  f"pages={len(manifest['pages'])} "
                  f"parent={parent[:12] if parent != '-' else '-'}")
        if not store.checkpoint_ids():
            print("(no checkpoints)")
    elif args.command == "stat":
        stats = _open_store(args.store_dir).stats()
        for key in ("checkpoints", "chunks", "logical_bytes",
                    "unique_bytes", "physical_bytes"):
            print(f"{key:15} {stats[key]}")
        print(f"{'dedup_ratio':15} {stats['dedup_ratio']:.2f}x")
    elif args.command == "gc":
        store = _open_store(args.store_dir)
        if args.delete:
            cid = _resolve_id(store, args.delete)
            store.delete(cid)
            print(f"deleted {cid}")
        count, freed = store.gc()
        if not store.durable:
            store.save_dir(args.store_dir)
        print(f"gc: reclaimed {count} chunks, {freed}B")
    elif args.command == "verify":
        problems = _open_store(args.store_dir).verify()
        for problem in problems:
            print(problem)
        if problems:
            print(f"FAILED: {len(problems)} problem(s)")
            return 1
        print("store is clean")
    elif args.command == "recover":
        if not _is_dir_backend(args.store_dir):
            raise ReproError(f"{args.store_dir!r} is not a dir-backend "
                             f"store (no wal); only dir-backend stores "
                             f"are crash-recoverable")
        store, report = CheckpointStore.recover(_dir_backend(args.store_dir))
        print(f"recovered {len(report.checkpoints)} checkpoint(s) "
              f"({'clean' if report.clean else 'with damage handled'})")
        for name in ("quarantined", "damaged", "rolled_back",
                     "aborted_group_members", "orphans_swept",
                     "tmp_swept"):
            value = getattr(report, name)
            count = len(value) if isinstance(value, list) else value
            if count:
                print(f"  {name:22} {count}")
        if report.tail_cut:
            print(f"  {'wal_tail_cut':22} {report.tail_cut}B")
        for problem in report.fsck:
            print(f"  fsck: {problem}")
        if report.fsck:
            print(f"FAILED: {len(report.fsck)} fsck problem(s) after "
                  f"recovery")
            return 1
    elif args.command == "scrub":
        store = _open_store(args.store_dir)
        binary = None
        if args.binary:
            from ..binfmt.delf import DelfBinary
            with open(args.binary, "rb") as fh:
                binary = DelfBinary.from_bytes(fh.read())
        report = store.scrub(binary=binary, start=args.start,
                             limit=args.limit)
        print(f"scrubbed {report.scanned} chunk(s) "
              f"({report.logical_bytes}B logical): "
              f"{len(report.corrupt)} corrupt, "
              f"{len(report.repaired)} repaired, "
              f"{len(report.quarantined)} quarantined")
        if report.cursor:
            print(f"  next window: --start {report.cursor}")
        unrepaired = set(report.corrupt) - set(report.repaired)
        if unrepaired:
            for digest in sorted(unrepaired):
                print(f"  UNREPAIRED {digest}")
            return 1
    elif args.command == "sweep":
        return _run_sweep(args)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from ..chaos import CrashPoints, sweep
    from ..store.transfer import plan_transfer, ship

    images = load_image_set(args.image_dir)

    def op_put():
        return (lambda store: None,
                lambda store, ctx: store.put(images), True)

    def op_put_group():
        def setup(store):
            return store.put(images).checkpoint_id
        return (setup,
                lambda store, cid: store.put_group([cid], label="cli"),
                True)

    def op_delete():
        def setup(store):
            return store.put(images).checkpoint_id
        return (setup, lambda store, cid: store.delete(cid), True)

    def op_gc():
        def setup(store):
            return store.put(images).checkpoint_id

        def op(store, cid):
            store.delete(cid)
            store.gc()
        return (setup, op, False)

    def op_adopt():
        def op(store, ctx):
            src = CheckpointStore()
            cid = src.put(images).checkpoint_id
            ship(src, store, plan_transfer(src, store, cid))
        return (lambda store: None, op, False)

    builders = {"put": op_put, "put_group": op_put_group,
                "delete": op_delete, "gc": op_gc, "adopt": op_adopt}
    ops = [name.strip() for name in args.ops.split(",") if name.strip()]
    for name in ops:
        if name not in builders:
            raise ReproError(f"unknown sweep op {name!r}; known: "
                             f"{', '.join(sorted(builders))}")
    failures = 0
    total_sites = 0
    for name in ops:
        setup, op, atomic = builders[name]()
        points = CrashPoints(setup, op, seed=args.seed, atomic=atomic)
        result = sweep.run(name, range(len(points.sites)),
                           points.run_trial)
        total_sites += len(result.trials)
        bad = result.failures()
        failures += len(bad)
        print(f"{name:10} {len(result.trials):3} site(s) "
              f"{'ok' if result.ok else f'{len(bad)} FAILED'}")
        for line in result.lines(every=False):
            print(line)
    verdict = ("all recovered" if not failures
               else f"{failures} FAILURE(S)")
    print(f"sweep: {total_sites} crash site(s) across {len(ops)} "
          f"op(s), {verdict}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded("store", lambda: _run(args))


if __name__ == "__main__":
    sys.exit(main())
