"""The superblock execution engine: predecoded trace dispatch.

The per-instruction ``interp.step`` path pays, on every instruction, for
a decode-cache probe, a ~30-arm mnemonic dispatch chain, named-register
ABI lookups, and allocating word-sized memory accesses. This module
removes all of that from the hot path: a *superblock* (a straight-line
trace that extends through unconditional branches, calls, and the
fall-through edge of conditional branches) is decoded **once** into a
cached :class:`Block`, and a block that proves hot is *specialized* —
:func:`codegen` emits one Python function whose body is the
concatenation of every op with operand indices, immediates, and the u64
memory fast path (a per-site last-page cache indexing straight into the
page store) baked in. A ``bcc`` inside the trace becomes a *side exit*: taken, the
generated function sets ``pc``, accounts the executed prefix, and
returns; not taken, execution falls through with zero dispatch. A
forward ``bcc`` whose target lies further along the same trace (an
``if`` without ``else``) is instead an in-trace skip: taken, the
generated code jumps over the ops in between without leaving the
trace. Every generated function returns the number of instructions it
executed.
Cold blocks execute on ``interp.step`` (tier 0), which keeps the
semantics reference in exactly one place and keeps run-once startup
code off the specializer.

Correctness invariants (each one is load-bearing):

* **Identical architectural semantics.** Generated code reproduces the
  corresponding ``interp._execute`` arm bit-for-bit, including signed
  64-bit wrapping and fault behaviour; instruction/cycle accounting is
  batched but arithmetically identical (side exits account their exact
  prefix), and a faulting instruction is never counted, just as in
  ``interp.step``. Tier 0 *is* the per-step engine, so it is correct by
  construction.
* **Block boundaries.** A trace never contains ``syscall``, ``trap``,
  or undecodable bytes — those always fall back to ``interp.step`` so
  kernel entry and parking semantics live in exactly one place.
  Because ``trap`` always terminates a trace, a thread parking at an
  equivalence point stops with ``pc`` exactly at the eqpoint — the
  Dapper runtime's stackmap verification is unchanged.
* **Scheduling determinism and mid-trace resume.** A block never
  executes past the caller's remaining quantum: each compiled trace
  also has a *metered* variant ``pfn(thread, regs, m, K)`` that starts
  at op ``K`` and retires at most ``m`` ops, leaving ``pc`` mid-trace
  when the budget runs out. Tier-up registers every interior pc of the
  trace in ``Process.resume_entries`` as ``(block, K)``, so the next
  quantum resumes *inside* the compiled trace — it never decodes and
  compiles a duplicate trace starting one phase over. (A branch target
  inside a trace that stays hot — a loop head the back-edge of another
  trace keeps returning to — is split off instead, see
  :func:`_split_at`, so it starts a trace of its own.) Round-robin
  interleaving is therefore instruction-for-instruction identical to
  the per-step engine — the cross-ISA migration tests and the flight
  recorder's per-slice digests rely on that.
* **Invalidation.** The cache is keyed by pc and versioned by
  ``Process.code_version``; ``Process.invalidate_code`` (hooked to every
  privileged ``write_code``) bumps the version and drops all blocks and
  resume entries, so stack-shuffle and live-update code rewrites can
  never execute stale superblocks.

Generated closures capture ``aspace``/``aspace._pages`` — safe because
``Process.aspace`` is never rebound, and because the live kernel only
ever *adds* VMAs during a process lifetime (there is no munmap or
mprotect syscall), a page a memory site has cached can never become
unmapped or change protection behind it. Rewrites (stack shuffle, live
update) go through restore-into-a-new-Process, which starts with empty
caches.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, List, Optional

from ..errors import SegmentationFault
from ..isa.isa import Instruction
from ..mem.paging import LAST_U64_SLOT, PAGE_MASK
from .cpu import ThreadContext, ThreadStatus, to_i64
from . import interp
from .interp import CpuFault

if TYPE_CHECKING:
    from .kernel import Machine, Process

#: Upper bound on predecoded ops per trace. Long traces are split; the
#: tail compiles as its own block on first execution. Kept at half the
#: scheduler quantum (64) so a typical trace executes whole on the
#: one-call specialized path rather than the metered variant.
MAX_BLOCK_INSTRS = 32

#: Full executions of a block before it is specialized by
#: :func:`codegen`. Low enough that every loop tiers up almost
#: immediately; high enough that cold startup/exit code never pays the
#: ``compile()`` cost. Tests may set this to 0 to force every block
#: through the generated tier; steady-state benchmarks lower it to
#: shorten warmup.
HOT_THRESHOLD = 4

#: Branch arrivals (not quantum parks) at an interior pc of a compiled
#: trace before the traces covering it are split there. A split costs
#: about two ``compile()`` calls (1-2 ms each) and saves the metered
#: variant's per-op guards on every later arrival (about 1 us for a
#: 20-op suffix), so it only pays for targets that stay hot for
#: thousands of arrivals — loop heads of long loops, not a short
#: run's warm-up.
SPLIT_THRESHOLD = 2048

_U64M = 0xFFFFFFFFFFFFFFFF
_TWO64 = 1 << 64
_U64S = struct.Struct("<Q")
_PAGE_MASK = PAGE_MASK
_LAST_SLOT = LAST_U64_SLOT

#: Handler signature: ``handler(thread, regs) -> instructions executed``.
Handler = Callable[[ThreadContext, List[int]], int]

#: Body mnemonics :func:`codegen` has a template for. Everything the
#: decoders can produce except the kernel-entry terminators — an op
#: outside this set ends the trace and executes via ``interp.step``.
CODEGEN_OPS = frozenset((
    "nop", "mov", "movi", "movi_full", "movz", "movk1", "movk2", "movk3",
    "load", "store", "ldp", "stp", "lea", "addi", "push", "pop",
    "cmp", "cmpi", "tlsload", "tlsstore",
    "add", "sub", "mul", "sdiv", "srem", "and", "orr", "eor",
    "lsl", "lsr",
))


class Block:
    """One predecoded superblock (trace) starting at ``pc``.

    ``instrs`` holds the decoded ops along the trace — including the
    ``b``/``call`` ops it was extended through and the ``bcc`` side
    exits it falls through; ``pcs[i]`` is the address of op ``i``
    (``pcs[len]`` is the successor address of the whole trace);
    ``cost_prefix[i]`` is the summed cycle cost of the first ``i``
    ops. ``term_instr`` is a trailing ``ret`` or backward ``b``/``bcc``
    when the trace ends in one (the loop-closing and dynamic-successor
    terminators codegen specializes), else None and whatever follows
    the trace executes
    via ``interp.step``. ``full`` is the maximum number of
    instructions one execution of the trace can retire.
    """

    __slots__ = ("pc", "version", "pcs", "cost_prefix", "body_len",
                 "full", "instrs", "term_instr", "term_cost",
                 "fn", "pfn", "heat", "target_heat", "demoted")

    def __init__(self, pc: int, version: int, instrs: List[Instruction],
                 pcs: List[int], cost_prefix: List[int],
                 term_instr: Optional[Instruction], term_cost: int):
        self.pc = pc
        self.version = version
        self.instrs = instrs
        self.pcs = pcs
        self.cost_prefix = cost_prefix
        self.body_len = len(instrs)
        self.full = self.body_len + (1 if term_instr is not None else 0)
        self.term_instr = term_instr
        self.term_cost = term_cost
        self.fn: Optional[Handler] = None  # specialized: whole trace
        self.pfn = None                    # specialized: <= m ops from op K
        self.heat = 0                      # tier-0 executions so far
        self.target_heat = None            # op K -> branch arrivals there
        self.demoted = False               # codegen refused: tier 0 only

    def __repr__(self) -> str:
        return (f"<Block @{self.pc:#x} v{self.version} "
                f"body={self.body_len} term={self.term_instr is not None}>")


# -- driving a thread ----------------------------------------------------------


def run_thread(machine: "Machine", process: "Process",
               thread: ThreadContext, quantum: int) -> int:
    """Execute up to ``quantum`` instructions on ``thread`` via cached
    superblocks; returns the number executed. Drop-in replacement for
    the per-instruction loop in ``Machine._run_thread``.

    Specialized traces contain no kernel entry (no syscall/trap), so
    they cannot change thread status, stop or exit the process, or
    invalidate code — status and version are re-checked only around
    tier-0 stepping, which is where those transitions can happen. The
    scheduler-visible behaviour is identical to checking before every
    instruction, as the per-step engine does.
    """
    running = ThreadStatus.RUNNING
    if (thread.status != running or process.stopped or process.exited):
        return 0
    count = 0
    cache = process.block_cache
    step = interp.step
    regs = thread.regs
    version = process.code_version
    rget = process.resume_entries.get
    cget = cache.get
    while count < quantum:
        pc = thread.pc
        block = cget(pc)
        if block is None or block.fn is None or block.version != version:
            # No compiled trace starts here. If ``pc`` lies inside one
            # (a quantum boundary parked there, or a branch lands
            # mid-trace), resume that trace at the op — never decode
            # and compile a duplicate trace one phase over. Entries
            # are cleared with the block cache, so a hit is current.
            entry = rget(pc)
            if entry is not None:
                owner, k = entry
                if count:
                    # Reached by a branch mid-slice, not by a quantum
                    # park: ``pc`` is a control-flow target (a loop
                    # head, say) inside ``owner``. Once hot, it starts
                    # a trace of its own rather than paying the
                    # metered variant on every visit.
                    heat = owner.target_heat
                    if heat is None:
                        heat = owner.target_heat = {}
                    h = heat.get(k, 0)
                    if h >= SPLIT_THRESHOLD:
                        _split_at(process, pc)
                        continue
                    heat[k] = h + 1
                pfn = owner.pfn
                if pfn is None:
                    pfn = owner.pfn = codegen(process, owner, metered=True)
                count += pfn(thread, regs, quantum - count, k)
                continue
            if block is None or block.version != version:
                block = compile_block(process, pc)
                cache[pc] = block
        fn = block.fn
        if fn is None and not block.demoted:
            heat = block.heat
            if heat >= HOT_THRESHOLD:
                fn = codegen(process, block)
                if fn is None:             # shape codegen can't express:
                    block.demoted = True   # stay on tier 0 for good
                else:
                    _tier_up(process, block, fn)
            elif heat == 0:
                # First dispatch: if this trace shape was already
                # specialized anywhere (another process, an earlier
                # run), binding the cached factory is nearly free —
                # tier up immediately instead of re-warming.
                block.heat = 1
                fn = codegen(process, block, bind_only=True)
                if fn is not None:
                    _tier_up(process, block, fn)
            else:
                block.heat = heat + 1
        remaining = quantum - count
        if fn is not None:
            if block.full <= remaining:
                # One call runs the trace — side exits and accounting
                # included — and returns how many instructions retired;
                # faults arrive as CpuFault with pc and counters
                # already positioned at the faulting op.
                count += fn(thread, regs)
                continue
            # The quantum may end inside this trace: the metered
            # variant retires exactly ``remaining`` and parks pc there.
            pfn = block.pfn
            if pfn is None:
                pfn = block.pfn = codegen(process, block, metered=True)
            count += pfn(thread, regs, remaining, 0)
            continue
        # Tier 0 is literally the per-step engine, per-instruction
        # status checks included — a side exit taken mid-trace may land
        # on a syscall or trap, so every transition must be observed.
        k = block.full or 1
        if k > remaining:
            k = remaining
        while k > 0:
            step(machine, process, thread)
            count += 1
            k -= 1
            if (thread.status != running or process.stopped
                    or process.exited):
                return count
        version = process.code_version
    return count


def _tier_up(process: "Process", block: Block, fn: Handler) -> None:
    """Install ``fn`` as ``block``'s compiled trace and register every
    interior op (the terminator included) as a resume point into it."""
    block.fn = fn
    entries = process.resume_entries
    pcs = block.pcs
    for k in range(1, block.full):
        entries[pcs[k]] = (block, k)


def _split_at(process: "Process", pc: int) -> None:
    """End every compiled trace that runs through ``pc`` just before
    it, so the hot branch target ``pc`` starts a trace of its own
    instead of a resume point inside another. The shortened traces
    replace the originals, in the shared decode cache too, so later
    processes running the same code start from the split tiling."""
    cache = process.block_cache
    entries = process.resume_entries
    ck = _content_key(process)
    covering = [b for b in cache.values()
                if b.fn is not None and pc in b.pcs[1:b.full]]
    for old in covering:
        k = old.pcs.index(pc, 1, old.full)
        meta = (old.instrs[:k], old.pcs[:k + 1], old.cost_prefix[:k + 1],
                None, 0)
        for p in old.pcs[1:old.full]:
            entry = entries.get(p)
            if entry is not None and entry[0] is old:
                del entries[p]
        new = cache[old.pc] = Block(old.pc, old.version, *meta)
        if (ck, old.pc) in _GLOBAL_TRACES:  # update, never insert
            _GLOBAL_TRACES[(ck, old.pc)] = meta
        fn = codegen(process, new)
        if fn is None:
            new.demoted = True
        else:
            _tier_up(process, new, fn)
    entries.pop(pc, None)


# -- block compilation ---------------------------------------------------------

#: Upper bound on shared decoded traces. The cache spans every process
#: and binary the interpreter ever runs, so without a cap a long-lived
#: cluster simulation (many re-spawns, many rewritten binaries) grows
#: it without limit; LRU keeps the working set of live binaries and
#: ages out traces of dead code versions.
GLOBAL_TRACES_CAP = 4096

#: (exec-page content hash, pc) -> decoded trace metadata, shared by
#: every process running byte-identical code. Decoded traces are
#: treated as immutable, so re-spawns of the same binary skip the
#: whole decode pass. Ordered, LRU-evicted at GLOBAL_TRACES_CAP.
_GLOBAL_TRACES: OrderedDict = OrderedDict()

_trace_stats = {"hits": 0, "misses": 0, "evictions": 0}


def trace_cache_info() -> dict:
    """Shared-trace-cache statistics, exposed for benchmarks and tests."""
    info = dict(_trace_stats)
    info["size"] = len(_GLOBAL_TRACES)
    info["cap"] = GLOBAL_TRACES_CAP
    return info


def _content_key(process: "Process") -> Optional[bytes]:
    """Content hash of the process's executable pages, or None when
    sharing decoded traces would be unsafe: after any code rewrite
    (``code_version`` moved) or under lazy post-copy restore (exec
    pages may not all be resident yet, so their hash is not a complete
    description of the code).
    """
    if (process.code_version != 0
            or process.aspace.missing_page_hook is not None):
        return None
    key = process.trace_content_key
    if key is None:
        digest = hashlib.blake2b(process.isa.name.encode(), digest_size=16)
        aspace = process.aspace
        for vma in aspace.vmas:
            if not vma.executable:
                continue
            digest.update(b"%x:%x" % (vma.start, vma.end))
            for base in range(vma.start, vma.end, _PAGE_MASK + 1):
                store = aspace._pages.get(base)
                if store is not None:
                    digest.update(b"%x" % base)
                    digest.update(store)
        key = process.trace_content_key = digest.digest()
    return key


def compile_block(process: "Process", pc: int) -> Block:
    """Decode the superblock trace starting at ``pc`` (no
    specialization yet).

    Beyond the straight-line run, the trace is extended through every
    control transfer with a static successor: an unconditional ``b``
    adds no work at all (the successor pc is baked into ``pcs``), a
    ``call`` contributes just its return-address write with decoding
    continuing at the callee's entry, and a *forward* ``bcc`` becomes
    a side exit with decoding continuing on the fall-through edge.
    ``ret`` and *backward* ``bcc`` (predicted-taken loop back-edges)
    have dynamic successors and end the trace (specialized as its
    terminator); ``trap``/``syscall``/undecodable bytes end it and
    stay on the ``interp.step`` path.
    """
    ck = _content_key(process)
    if ck is None:
        return Block(pc, process.code_version, *_decode_trace(process, pc))
    meta = _GLOBAL_TRACES.get((ck, pc))
    if meta is None:
        _trace_stats["misses"] += 1
        meta = _decode_trace(process, pc)
        _GLOBAL_TRACES[(ck, pc)] = meta
        if len(_GLOBAL_TRACES) > GLOBAL_TRACES_CAP:
            _GLOBAL_TRACES.popitem(last=False)
            _trace_stats["evictions"] += 1
    else:
        _trace_stats["hits"] += 1
        _GLOBAL_TRACES.move_to_end((ck, pc))
    return Block(pc, process.code_version, *meta)


def _decode_trace(process: "Process", pc: int) -> tuple:
    """The decode pass behind :func:`compile_block`; returns
    ``(instrs, pcs, cost_prefix, term_instr, term_cost)``.
    """
    isa = process.isa

    def fetch(addr: int) -> Instruction:
        return interp.fetch_decode(process, addr)

    instrs: List[Instruction] = []
    pcs = [pc]
    cost_prefix = [0]
    cursor = pc
    total_cost = 0
    term_instr = None
    term_cost = 0
    complete = True
    while complete and len(instrs) < MAX_BLOCK_INSTRS:
        run = isa.decode_straight_line(fetch, cursor,
                                       MAX_BLOCK_INSTRS - len(instrs))
        for instr in run:
            if instr.op not in CODEGEN_OPS:
                # Unknown non-terminator op: end the trace here and let
                # interp.step raise its "unimplemented op" fault.
                complete = False
                break
            instrs.append(instr)
            cursor += instr.size
            total_cost += isa.cost(instr)
            pcs.append(cursor)
            cost_prefix.append(total_cost)
        if not complete or len(instrs) >= MAX_BLOCK_INSTRS:
            break
        try:
            term = fetch(cursor)
        except Exception:
            break                          # step() reports the real fault
        op = term.op
        if op == "ret":
            term_instr = term
            term_cost = isa.cost(term)
            break
        if op not in ("b", "call", "bcc"):
            break                          # trap / syscall / .byte
        if op == "b" and term.target <= cursor:
            # Backward unconditional branch: a loop back-edge. Inlining
            # it would wrap the trace around the loop, so consecutive
            # traces tile the loop at stride MAX_BLOCK_INSTRS and spiral
            # through every offset of the body — no canonical tiling,
            # one near-duplicate trace per offset. Ending the trace here
            # instead makes the loop tile exactly once from its head.
            term_instr = term
            term_cost = isa.cost(term)
            break
        if op == "bcc":
            if term.cond not in _COND_SYMS:
                break                      # bad condition: fault via step
            if term.target <= cursor:
                # Backward branch: statically predicted taken (a loop
                # back-edge). Extending past it would inflate the trace
                # with code that rarely runs, so it ends the trace as a
                # specialized two-way terminator instead — the hot loop
                # body becomes exactly one trace, re-dispatched at the
                # loop head every iteration.
                term_instr = term
                term_cost = isa.cost(term)
                break
        # Extend the trace: b/call continue at the static target; a
        # forward bcc (statically predicted not taken) continues on the
        # fall-through edge, with taken becoming a side exit.
        instrs.append(term)
        total_cost += isa.cost(term)
        cursor = cursor + term.size if op == "bcc" else term.target
        pcs.append(cursor)
        cost_prefix.append(total_cost)

    return instrs, pcs, cost_prefix, term_instr, term_cost


# -- specialization: whole-trace code generation -------------------------------
#
# A hot block is specialized into ONE Python function whose body is the
# straight-line concatenation of every op, with operand indices and
# immediates baked in as literals and the u64 memory fast path (a
# per-site last-page cache, direct page-store indexing) expanded
# inline — the generated code makes zero Python calls on the
# all-fast-path execution of an ALU-only trace, and one ``unpack_from``
# per memory access that hits its site's cached page. Fault behaviour is identical to interp.step: ``i``
# tracks the op index at every potentially-faulting call site, the
# ``except SegmentationFault`` epilogue accounts the completed prefix
# and positions ``thread.pc`` at the faulting op before wrapping into
# CpuFault; division by zero accounts and raises inline.

_BINOP_SYMS = {"add": "+", "sub": "-", "mul": "*",
               "and": "&", "orr": "|", "eor": "^"}
_COND_SYMS = {"eq": "==", "ne": "!=", "lt": "<",
              "le": "<=", "gt": ">", "ge": ">="}
_MOVK_SHIFTS = {"movk1": 16, "movk2": 32, "movk3": 48}

#: Trace shape -> the exec'd ``_make`` factory, so a recurring shape
#: skips source generation *and* exec and only pays the per-process
#: closure binding. Keyed by content (never object identity).
_FACTORY_CACHE: dict = {}

_NO_FACTORY = object()                     # cached "shape unsupported"

#: Deepest nesting of in-trace skips codegen emits; deeper forward
#: branches stay side exits (keeps generated indentation bounded).
MAX_SKIP_DEPTH = 12


def _skip_joins(block: Block) -> dict:
    """Forward ``bcc`` op index -> op index of its target, for every
    branch whose target lies further along the same trace and whose
    skipped ops nest inside the skips already open (ifs without else,
    possibly nested). From any pc the trace's remaining ops are the
    static path from that pc, so jumping to op ``j`` is exact.
    """
    pcs = block.pcs
    n = block.body_len
    joins = {}
    open_joins: List[int] = []
    for k, instr in enumerate(block.instrs):
        while open_joins and open_joins[-1] <= k:
            open_joins.pop()
        if instr.op != "bcc" or instr.target not in pcs:
            continue
        try:
            j = pcs.index(instr.target, k + 1, n + 1)
        except ValueError:
            continue
        if j > k + 1:
            if ((open_joins and j > open_joins[-1])
                    or len(open_joins) >= MAX_SKIP_DEPTH):
                continue                   # would cross an open skip
            open_joins.append(j)
        joins[k] = j
    return joins


def _factory_key(isa_name: str, block: Block, metered: bool) -> tuple:
    term = block.term_instr
    return (isa_name, metered, tuple(block.pcs),
            tuple((i.op, i.rd, i.rn, i.rm, i.imm, i.cond, i.target)
                  for i in block.instrs),
            None if term is None else
            (term.op, term.cond, term.target, term.size),
            block.term_cost)


def codegen(process: "Process", block: Block, metered: bool = False,
            bind_only: bool = False) -> Optional[Handler]:
    """Emit the specialized function for ``block``; None if some op has
    no template (the block then stays on tier 0 forever).

    With ``metered=True`` the generated function is ``run(thread, regs,
    m, K)``: it starts at op ``K`` and retires at most ``m`` ops — an
    inline budget stop is threaded before every op and each op is
    guarded by ``K <= k`` — so a quantum boundary can land mid-trace
    and the next slice can resume there without leaving the generated
    tier. The terminator runs when it fits. Retired counts, cycles,
    side exits and faults are all accounted relative to ``K``.

    A forward ``bcc`` to a later op ``j`` of the same trace (see
    :func:`_skip_joins`) wraps ops ``k+1 .. j-1`` in its ``else``;
    taken, it adds the skipped ops and cycles to ``sn``/``sc``, which
    every later accounting site subtracts (and, metered, advances the
    budget index ``e`` past them).

    With ``bind_only=True``, only bind an already-cached factory (a
    cheap closure call); return None rather than generate anything new.
    """
    aspace = process.aspace
    key = _factory_key(process.isa.name, block, metered)
    factory = _FACTORY_CACHE.get(key)
    if factory is not None:
        if factory is _NO_FACTORY:
            return None
        return factory(process, aspace, aspace._pages, aspace.read_u64,
                       aspace.write_u64, aspace.page, _U64S.pack_into,
                       _U64S.unpack_from, tuple(block.pcs),
                       tuple(block.cost_prefix), CpuFault,
                       SegmentationFault)
    if bind_only:
        return None
    isa = process.isa
    abi = isa.abi
    sp = isa.reg(abi.stack_pointer)
    fp = isa.reg(abi.frame_pointer)
    lr = (isa.reg(abi.link_register)
          if abi.link_register is not None else None)
    pcs = block.pcs
    cp = block.cost_prefix
    n = block.body_len
    body: List[str] = []
    hots: List[str] = []
    joins = _skip_joins(block)
    skips = any(j > k + 1 for k, j in joins.items())
    open_joins: List[int] = []             # join op of each open skip

    def site() -> tuple:
        # Each memory site caches the last page it touched as a
        # (page base, page store) pair in two closure cells. The page
        # store for a base is only ever mutated in place once it
        # exists (install_page/drop_page only run while building a
        # restore aspace, before any code executes, and there is no
        # mprotect or munmap), so a hit needs no VMA or protection
        # re-check: the slow path performed the full check the first
        # time this site touched the page, and the same site always
        # performs the same kind of access.
        pair = (f"p{len(hots) // 2}", f"s{len(hots) // 2}")
        hots.extend(pair)
        return pair

    def read(k: int, addr: str, dest: str) -> None:
        p, s = site()
        body.extend([
            f"a = {addr}",
            f"o = a & {_PAGE_MASK}",
            f"if a - o == {p} and o <= {_LAST_SLOT}:",
            f"    v = UPK({s}, o)[0]",
            "else:",
            f"    i = {k}",
            "    v = RU(a)",
            "    q = PAGES_GET(a - o)",
            "    if q is not None:",
            f"        {p} = a - o",
            f"        {s} = q",
            f"{dest} = v - {_TWO64} if v >> 63 else v",
        ])

    def write(k: int, addr: str, value: str) -> None:
        p, s = site()
        body.extend([
            f"a = {addr}",
            f"o = a & {_PAGE_MASK}",
            f"if a - o == {p} and o <= {_LAST_SLOT}:",
            f"    PK({s}, o, ({value}) & {_U64M})",
            "else:",
            f"    i = {k}",
            f"    WU(a, {value})",
            "    q = PAGES_GET(a - o)",
            "    if q is not None:",
            f"        {p} = a - o",
            f"        {s} = q",
        ])

    def done(instrs: int) -> str:
        # Ops retired by a run that ends after op index ``instrs``.
        return (f"{instrs}" + (" - K" if metered else "")
                + (" - sn" if skips else ""))

    def cycles_at(cycles_done: int) -> str:
        return (f"{cycles_done}" + (" - c0" if metered else "")
                + (" - sc" if skips else ""))

    def account(indent: str, instrs_done: int, cycles_done: int) -> None:
        cycles = cycles_at(cycles_done)
        body.extend([
            f"{indent}thread.instr_count += {done(instrs_done)}",
            f"{indent}process.instr_total += {done(instrs_done)}",
            f"{indent}process.cycle_total += {cycles}",
        ])

    def wrap_assign(dest: str, expr: str) -> None:
        body.append(f"v = {expr}")
        body.append(f"{dest} = v - {_TWO64} if v >> 63 else v")

    def emit_call(k: int, instr: Instruction) -> None:
        return_to = pcs[k] + instr.size
        if lr is None:                     # x86: push the return address
            body.append(f"a2 = (regs[{sp}] - 8) & {_U64M}")
            body.append(f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
            write(k, "a2", str(return_to))
        else:                              # arm: link register
            body.append(f"regs[{lr}] = {to_i64(return_to)}")

    def fail() -> None:
        _FACTORY_CACHE[key] = _NO_FACTORY
        return None

    def budget_stop(k: int) -> None:
        # The quantum boundary may land here: account the executed
        # prefix and stop with pc at op k (never past the budget).
        body.append(f"if e == {k}:")
        account("    ", k, cp[k])
        body.append(f"    thread.pc = {pcs[k]}")
        body.append(f"    return {done(k)}")

    def close_skips(k: int) -> None:
        # Ops from ``k`` on run on both paths of every skip joining here.
        while open_joins and open_joins[-1] <= k:
            open_joins.pop()
            if body[-1] == "    " * len(open_joins) + "else:":
                body.append("    " * (len(open_joins) + 1) + "pass")

    for k, instr in enumerate(block.instrs):
        close_skips(k)
        start = len(body)
        if metered and k:
            budget_stop(k)
        op_start = len(body)
        op = instr.op
        rd, rn, rm = instr.rd, instr.rn, instr.rm
        imm = instr.imm if instr.imm is not None else 0
        join = joins.get(k)
        if op in ("nop", "b") or join == k + 1:
            # extension b: pc baked in pcs; a bcc to its own
            # fall-through retires the same either way.
            pass
        elif join is not None:
            # In-trace skip: taken jumps to op ``join``; the ops in
            # between run in the ``else``. Unguarded by ``K``: a resume
            # past op k still has to enter the ``else``.
            sym = _COND_SYMS[instr.cond]
            guard = f"K <= {k} and " if metered else ""
            body.append(f"if {guard}thread.flags {sym} 0:")
            body.append(f"    sn += {join - k - 1}")
            body.append(f"    sc += {cp[join] - cp[k + 1]}")
            if metered:
                body.append(f"    e += {join - k - 1}")
            body.append("else:")
        elif op == "bcc":
            # Side exit: taken, the trace ends here — account the exact
            # prefix (this bcc included) and return its pc and count.
            sym = _COND_SYMS[instr.cond]
            body.append(f"if thread.flags {sym} 0:")
            body.append(f"    thread.pc = {instr.target}")
            account("    ", k + 1, cp[k + 1])
            body.append(f"    return {done(k + 1)}")
        elif op == "mov":
            body.append(f"regs[{rd}] = regs[{rn}]")
        elif op in ("movi", "movi_full"):
            body.append(f"regs[{rd}] = {to_i64(imm)}")
        elif op == "movz":
            body.append(f"regs[{rd}] = {to_i64(imm & 0xFFFF)}")
        elif op in _MOVK_SHIFTS:
            shift = _MOVK_SHIFTS[op]
            keep = _U64M & ~(0xFFFF << shift)
            part = (imm & 0xFFFF) << shift
            wrap_assign(f"regs[{rd}]", f"(regs[{rd}] & {keep}) | {part}")
        elif op == "load":
            read(k, f"(regs[{rn}] + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op == "store":
            write(k, f"(regs[{rn}] + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op == "ldp":
            body.append(f"t = regs[{fp}]")
            read(k, f"(t + {imm}) & {_U64M}", f"regs[{rd}]")
            read(k, f"(t + {imm + 8}) & {_U64M}", f"regs[{rm}]")
        elif op == "stp":
            body.append(f"t = regs[{fp}]")
            write(k, f"(t + {imm}) & {_U64M}", f"regs[{rd}]")
            write(k, f"(t + {imm + 8}) & {_U64M}", f"regs[{rm}]")
        elif op in ("lea", "addi"):
            wrap_assign(f"regs[{rd}]", f"(regs[{rn}] + {imm}) & {_U64M}")
        elif op == "push":
            body.append(f"a2 = (regs[{sp}] - 8) & {_U64M}")
            body.append(f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
            write(k, "a2", f"regs[{rd}]")
        elif op == "pop":
            read(k, f"regs[{sp}] & {_U64M}", f"regs[{rd}]")
            if rd != sp:                   # pop sp: no post-increment
                body.append(f"a2 = (regs[{sp}] + 8) & {_U64M}")
                body.append(
                    f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
        elif op == "cmp":
            body.append(f"v = regs[{rn}] - regs[{rm}]")
            body.append("thread.flags = (v > 0) - (v < 0)")
        elif op == "cmpi":
            body.append(f"v = regs[{rn}] - {imm}")
            body.append("thread.flags = (v > 0) - (v < 0)")
        elif op == "tlsload":
            read(k, f"(thread.tp + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op == "tlsstore":
            write(k, f"(thread.tp + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op in _BINOP_SYMS:
            wrap_assign(f"regs[{rd}]",
                        f"(regs[{rn}] {_BINOP_SYMS[op]} regs[{rm}])"
                        f" & {_U64M}")
        elif op == "lsl":
            wrap_assign(f"regs[{rd}]",
                        f"((regs[{rn}] & {_U64M}) << (regs[{rm}] & 63))"
                        f" & {_U64M}")
        elif op == "lsr":
            wrap_assign(f"regs[{rd}]",
                        f"(regs[{rn}] & {_U64M}) >> (regs[{rm}] & 63)")
        elif op in ("sdiv", "srem"):
            msg = ("integer division by zero" if op == "sdiv"
                   else "integer remainder by zero")
            body.append(f"x = regs[{rn}]")
            body.append(f"y = regs[{rm}]")
            body.append("if y == 0:")
            if k or metered:
                account("    ", k, cp[k])
            body.append(f"    thread.pc = {pcs[k]}")
            body.append(f"    raise CpuFault(thread, {msg!r})")
            if op == "sdiv":
                body.append("v = abs(x) // abs(y)")
                body.append(f"v = (-v if (x < 0) != (y < 0) else v)"
                            f" & {_U64M}")
            else:
                body.append("v = abs(x) % abs(y)")
                body.append(f"v = (-v if x < 0 else v) & {_U64M}")
            body.append(f"regs[{rd}] = v - {_TWO64} if v >> 63 else v")
        elif op == "call":                 # extension call: pc baked in
            emit_call(k, instr)
        else:
            return fail()
        opens = join is not None and join > k + 1
        if metered and not opens and len(body) > op_start:
            # A resume at op K skips every op before it.
            body[op_start:] = [f"if K <= {k}:"] + [
                "    " + line for line in body[op_start:]]
        if open_joins:
            body[start:] = ["    " * len(open_joins) + line
                            for line in body[start:]]
        if opens:
            open_joins.append(join)
    close_skips(n)

    total = n
    cycles = cp[n]
    term = block.term_instr
    tail_pc: Optional[int] = pcs[n]
    if term is not None:                   # ret or backward b/bcc
        tail_pc = None
        if metered and n:
            budget_stop(n)
        if term.op == "b":
            body.append(f"thread.pc = {term.target}")
        elif term.op == "bcc":
            sym = _COND_SYMS[term.cond]
            body.append(f"thread.pc = {term.target} if thread.flags"
                        f" {sym} 0 else {pcs[n] + term.size}")
        elif lr is None:                   # x86 ret: pop the return pc
            read(n, f"regs[{sp}] & {_U64M}", "rv")
            body.append(f"a2 = (regs[{sp}] + 8) & {_U64M}")
            body.append(f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
            body.append(f"thread.pc = rv & {_U64M}")
        else:                              # arm ret: link register
            body.append(f"thread.pc = regs[{lr}] & {_U64M}")
        total += 1
        cycles += block.term_cost
    elif total == 0:
        return fail()                      # empty trace: nothing to gain

    src = ["def _make(process, AS, pages, RU, WU, PG, PK, UPK, PCS, CP,"
           " CpuFault, SegmentationFault):",
           "    PAGES_GET = pages.get"]
    for h in hots:
        src.append(f"    {h} = None")
    src.append("    def run(thread, regs, m, K):" if metered
               else "    def run(thread, regs):")
    if hots:
        src.append("        nonlocal " + ", ".join(hots))
    if metered:
        # ``e`` is the op index the budget runs out at; ``c0`` the
        # cycle prefix of the skipped ops, so every static accounting
        # constant above stays exact relative to ``K``.
        src.extend(["        e = K + m", "        c0 = CP[K]",
                    "        i = K"])
    else:
        src.append("        i = 0")
    if skips:
        src.extend(["        sn = 0", "        sc = 0"])
    src.append("        try:")
    if body:
        src.extend("            " + line for line in body)
    else:
        src.append("            pass")
    # A faulting op ``i`` retires the ops before it (from K, metered).
    d, c = ("i - K", "CP[i] - c0") if metered else ("i", "CP[i]")
    if skips:
        d, c = d + " - sn", c + " - sc"
    src.extend([
        "        except SegmentationFault as exc:",
        f"            if {d}:",
        f"                thread.instr_count += {d}",
        f"                process.instr_total += {d}",
        f"                process.cycle_total += {c}",
        "            thread.pc = PCS[i]",
        "            raise CpuFault(thread, str(exc)) from exc",
    ])
    if tail_pc is not None:
        src.append(f"        thread.pc = {tail_pc}")
    src.extend([
        f"        thread.instr_count += {done(total)}",
        f"        process.instr_total += {done(total)}",
        f"        process.cycle_total += {cycles_at(cycles)}",
        f"        return {done(total)}",
        "    return run",
    ])
    code = compile("\n".join(src), f"<block@{block.pc:#x}>", "exec")
    ns: dict = {}
    exec(code, ns)
    factory = ns["_make"]
    _FACTORY_CACHE[key] = factory
    return factory(process, aspace, aspace._pages, aspace.read_u64,
                   aspace.write_u64, aspace.page, _U64S.pack_into,
                   _U64S.unpack_from, tuple(pcs), tuple(cp),
                   CpuFault, SegmentationFault)

