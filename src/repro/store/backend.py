"""Pluggable persistence backends for the checkpoint store.

The durable layout is deliberately tiny — three kinds of file under one
root, every one of them either content-addressed or
longest-valid-prefix recoverable:

* ``chunks/<digest>`` — one file per chunk: an 8-byte magic, one JSON
  header line (codec, logical size, digest), then the compressed
  payload. Self-verifying: the name, the header digest, and the
  re-hash of the decompressed payload must all agree, so a torn or
  rotted chunk file is *detected*, quarantined to
  ``quarantine/<digest>``, and never silently served.
* ``wal`` — the write-ahead intent log (:mod:`repro.store.wal`).
* ``tmp/…`` — in-flight writes. Every chunk lands via
  **write-tmp / fsync / rename**, so a crash can tear only a tmp file,
  never a published chunk; recovery sweeps ``tmp/`` unconditionally.

Two disks implement the same primitive surface:

* :class:`OsDisk` — real files under a real directory (the CLI's
  ``--backend dir``), with real ``os.fsync``.
* :class:`SimDisk` — a simulated disk with a page cache: writes land
  in a pending set and only ``fsync`` makes them durable. ``crash()``
  discards the in-memory store and **tears** every pending write at a
  seeded, deterministic byte offset — the exact failure model the
  chaos engine's crash-point sweep reopens stores against.

:class:`DirBackend` layers the store's file discipline over either
disk and consults an optional crash-point injector *before every
durable primitive*, which is what makes the sweep systematic: every
site the backend can crash at is enumerable by counting.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional

from ..errors import StoreError

CHUNK_MAGIC = b"DCHNK1\x00\n"

_CHUNK_DIR = "chunks/"
_TMP_DIR = "tmp/"
_QUARANTINE_DIR = "quarantine/"
_WAL = "wal"


# -- disks ---------------------------------------------------------------------


class SimDisk:
    """In-memory simulated disk with crash-tearing semantics.

    ``_durable`` holds what survives a crash. A file changed since its
    last fsync is *pending* in one of two shapes: ``_pending`` holds
    the would-be contents of a file written (or renamed) since then,
    and ``_tails`` holds the bytes appended to an otherwise durable
    file, so an append costs O(len(data)) rather than a copy of the
    whole file. :meth:`crash` resolves every pending file to its
    durable prefix plus a seeded-random cut of the new bytes — a *torn
    write*. Renames are atomic and preserve the source's durability
    (the backend's discipline always fsyncs before renaming), and
    unlinks are modeled as immediately durable.
    """

    def __init__(self, seed: int = 0):
        self._durable: Dict[str, bytearray] = {}
        self._pending: Dict[str, bytearray] = {}
        self._tails: Dict[str, bytearray] = {}   # only on durable names
        self._rng = random.Random(seed)
        self.crashes = 0

    # -- primitives --------------------------------------------------------

    def _view(self, name: str) -> Optional[bytes]:
        if name in self._pending:
            return bytes(self._pending[name])
        data = self._durable.get(name)
        if data is None:
            return None
        tail = self._tails.get(name)
        return bytes(data if tail is None else data + tail)

    def write(self, name: str, data: bytes) -> None:
        self._pending[name] = bytearray(data)
        self._tails.pop(name, None)

    def append(self, name: str, data: bytes) -> None:
        if name in self._pending:
            self._pending[name] += data
        elif name in self._durable:
            self._tails.setdefault(name, bytearray()).extend(data)
        else:
            raise StoreError(f"append to missing file {name!r}")

    def fsync(self, name: str) -> None:
        if name in self._pending:
            self._durable[name] = self._pending.pop(name)
        elif name in self._tails:
            self._durable[name] += self._tails.pop(name)

    def rename(self, src: str, dst: str) -> None:
        if src in self._pending or src in self._tails:
            moved = self._pending.pop(src, None)
            if moved is None:              # src's durable copy stays put
                moved = self._durable[src] + self._tails.pop(src)
            self._pending[dst] = moved
            self._tails.pop(dst, None)
            self._durable.pop(dst, None)
        elif src in self._durable:
            self._durable[dst] = self._durable.pop(src)
            self._pending.pop(dst, None)
            self._tails.pop(dst, None)
        else:
            raise StoreError(f"rename of missing file {src!r}")

    def unlink(self, name: str) -> None:
        self._pending.pop(name, None)
        self._tails.pop(name, None)
        self._durable.pop(name, None)

    def exists(self, name: str) -> bool:
        return name in self._pending or name in self._durable

    def read(self, name: str) -> bytes:
        data = self._view(name)
        if data is None:
            raise StoreError(f"no such file {name!r} on simulated disk")
        return data

    def listdir(self, prefix: str) -> List[str]:
        names = set(self._durable) | set(self._pending)
        return sorted(n for n in names if n.startswith(prefix))

    # -- crash model -------------------------------------------------------

    def crash(self) -> List[str]:
        """Kill the writer: tear every pending write at a seeded
        offset. Returns the names that were torn (kept a partial new
        tail) or lost outright, in sorted order — deterministic for a
        given seed and pending set, so crash/recover runs replay
        bit-identically."""
        damaged = []
        for name in sorted(set(self._pending) | set(self._tails)):
            base = self._durable.get(name, b"")
            if name in self._tails:
                new, extends = self._tails[name], True
            else:
                pending = self._pending[name]
                # Our files only ever grow (whole-file writes are to
                # fresh names; the WAL appends): the durable prefix
                # survives and the new tail is cut at a random point.
                extends = pending.startswith(base)
                new = pending[len(base):] if extends else pending
            keep = self._rng.randrange(len(new) + 1) if new else 0
            torn = bytearray(base if extends else b"")
            torn += new[:keep]
            if torn:
                self._durable[name] = torn
            else:
                self._durable.pop(name, None)
            damaged.append(name)
        self._pending.clear()
        self._tails.clear()
        self.crashes += 1
        return damaged

    def clone(self) -> "SimDisk":
        """Snapshot for the sweep harness: durable state plus the tear
        RNG, so every branch of the sweep tears identically."""
        out = SimDisk.__new__(SimDisk)
        out._durable = {k: bytearray(v) for k, v in self._durable.items()}
        out._pending = {k: bytearray(v) for k, v in self._pending.items()}
        out._tails = {k: bytearray(v) for k, v in self._tails.items()}
        out._rng = random.Random()
        out._rng.setstate(self._rng.getstate())
        out.crashes = self.crashes
        return out


class OsDisk:
    """Real files under ``root`` with the same primitive surface."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        path = os.path.join(self.root, *name.split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def write(self, name: str, data: bytes) -> None:
        with open(self._path(name), "wb") as fh:
            fh.write(data)

    def append(self, name: str, data: bytes) -> None:
        with open(self._path(name), "ab") as fh:
            fh.write(data)

    def fsync(self, name: str) -> None:
        with open(self._path(name), "rb+") as fh:
            os.fsync(fh.fileno())

    def rename(self, src: str, dst: str) -> None:
        os.replace(self._path(src), self._path(dst))

    def unlink(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def read(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise StoreError(f"cannot read {name!r}: {exc}") from exc

    def listdir(self, prefix: str) -> List[str]:
        base = os.path.join(self.root, *prefix.rstrip("/").split("/"))
        if not os.path.isdir(base):
            return []
        return sorted(prefix + name for name in os.listdir(base))


# -- chunk file codec ----------------------------------------------------------


def encode_chunk_file(digest: str, codec: str, logical: int,
                      payload: bytes) -> bytes:
    header = json.dumps({"codec": codec, "digest": digest,
                         "logical": logical},
                        sort_keys=True, separators=(",", ":"))
    return CHUNK_MAGIC + header.encode("utf-8") + b"\n" + payload


def decode_chunk_file(blob: bytes) -> Dict:
    """Parse a chunk file; raises :class:`StoreError` on any damage the
    *framing* can see (the caller still re-hashes the payload)."""
    if not blob.startswith(CHUNK_MAGIC):
        raise StoreError("chunk file: bad magic")
    cut = blob.find(b"\n", len(CHUNK_MAGIC))
    if cut < 0:
        raise StoreError("chunk file: torn header")
    try:
        header = json.loads(blob[len(CHUNK_MAGIC):cut])
    except ValueError as exc:
        raise StoreError(f"chunk file: bad header: {exc}") from exc
    for key in ("codec", "digest", "logical"):
        if key not in header:
            raise StoreError(f"chunk file: header missing {key!r}")
    header["payload"] = blob[cut + 1:]
    return header


# -- the backend ---------------------------------------------------------------


class DirBackend:
    """Content-addressed chunk files + WAL over one disk.

    ``injector`` (a :class:`~repro.chaos.CrashPointInjector` or
    anything with a ``site(label)`` method) is consulted before every
    durable primitive; sites are labeled ``<what>.<primitive>`` so the
    systematic sweep can report exactly where each simulated crash
    landed. A ``None`` injector costs one attribute test per site.
    """

    def __init__(self, disk, injector=None):
        self.disk = disk
        self.injector = injector

    def _site(self, label: str) -> None:
        if self.injector is not None:
            self.injector.site(label)

    # -- chunks ------------------------------------------------------------

    def chunk_name(self, digest: str) -> str:
        return _CHUNK_DIR + digest

    def has_chunk(self, digest: str) -> bool:
        return self.disk.exists(self.chunk_name(digest))

    def put_chunk(self, digest: str, codec: str, logical: int,
                  payload: bytes) -> bool:
        """Publish one chunk file via write-tmp/fsync/rename.
        Idempotent; returns True when a new file was published."""
        name = self.chunk_name(digest)
        if self.disk.exists(name):
            return False
        tmp = _TMP_DIR + digest
        blob = encode_chunk_file(digest, codec, logical, payload)
        self._site(f"chunk.write:{digest[:12]}")
        self.disk.write(tmp, blob)
        self._site(f"chunk.fsync:{digest[:12]}")
        self.disk.fsync(tmp)
        self._site(f"chunk.rename:{digest[:12]}")
        self.disk.rename(tmp, name)
        return True

    def read_chunk(self, digest: str) -> Dict:
        header = decode_chunk_file(self.disk.read(self.chunk_name(digest)))
        if header["digest"] != digest:
            raise StoreError(f"chunk file {digest[:12]}: header names "
                             f"{header['digest'][:12]}")
        return header

    def list_chunks(self) -> List[str]:
        return [name[len(_CHUNK_DIR):]
                for name in self.disk.listdir(_CHUNK_DIR)]

    def unlink_chunk(self, digest: str) -> None:
        self._site(f"gc.unlink:{digest[:12]}")
        self.disk.unlink(self.chunk_name(digest))

    def quarantine_chunk(self, digest: str) -> None:
        """Move a damaged chunk file aside for diagnosis (never serve,
        never silently delete)."""
        name = self.chunk_name(digest)
        if self.disk.exists(name):
            self.disk.rename(name, _QUARANTINE_DIR + digest)

    def quarantined(self) -> List[str]:
        return [name[len(_QUARANTINE_DIR):]
                for name in self.disk.listdir(_QUARANTINE_DIR)]

    def sweep_tmp(self) -> int:
        """Remove every in-flight tmp file (torn writes)."""
        names = self.disk.listdir(_TMP_DIR)
        for name in names:
            self.disk.unlink(name)
        return len(names)

    # -- WAL ---------------------------------------------------------------

    def has_wal(self) -> bool:
        return self.disk.exists(_WAL)

    def wal_create(self, magic: bytes) -> None:
        self._site("wal.create")
        self.disk.write(_WAL, magic)
        self._site("wal.create-fsync")
        self.disk.fsync(_WAL)

    def wal_append(self, frame: bytes) -> None:
        self._site("wal.append")
        self.disk.append(_WAL, frame)
        self._site("wal.fsync")
        self.disk.fsync(_WAL)

    def wal_read(self) -> bytes:
        if not self.disk.exists(_WAL):
            return b""
        return self.disk.read(_WAL)

    def wal_replace(self, blob: bytes) -> None:
        """Atomic compaction: write-tmp/fsync/rename the whole log."""
        tmp = _TMP_DIR + "wal"
        self._site("wal.compact-write")
        self.disk.write(tmp, blob)
        self._site("wal.compact-fsync")
        self.disk.fsync(tmp)
        self._site("wal.compact-rename")
        self.disk.rename(tmp, _WAL)
