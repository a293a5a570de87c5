"""Layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is a public function of one module of ``repro``; the
traced run wraps it from here (see :class:`perfbench.trace.Tracer`)
and the program itself is unchanged. Which end-to-end metric each
layer metric should move, on which workload, is tabulated in
``perfbench/README.md``.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from .trace import Tracer

#: modules imported before any wrapper is installed, so that every
#: ``from x import f`` binding already exists when :meth:`Tracer.
#: patch_attr` looks for it (and is restored on removal)
PRELOAD = (
    "repro", "repro.tools.migrate", "repro.replay", "repro.replay.engine",
    "repro.debug", "repro.debug.session", "repro.store", "repro.verify",
    "repro.criu.plugins",
)

PLUGINS = ("files", "vmas", "task", "registers", "tls", "tmpfs", "sockets")


def _steps(tracer, args, result):
    tracer.count("vm.guest_instructions", result)


def _frames(tracer, args, result):
    tracer.count("core.frames_rewritten",
                 sum(report.stats.get("frames", 0) for report in result))


def _image_bytes(tracer, args, result):
    tracer.count("criu.image_bytes", result.total_bytes())


def _shipped(tracer, args, result):
    tracer.count("store.bytes_shipped", result)


def _disk_write(tracer, args, result):
    tracer.count("store.disk_writes")
    tracer.count("store.disk_bytes", len(args[2]))


def _fsync(tracer, args, result):
    tracer.count("store.fsyncs")


def _findings(tracer, args, result):
    tracer.count("verify.findings", len(result.findings))


def _journal_bytes(tracer, args, result):
    tracer.count("replay.journal_bytes", len(result))


#: (module, attribute path, layer, counter hook)
BOUNDARIES: Tuple[Tuple[str, str, str, object], ...] = (
    ("repro.compiler.driver", "compile_source", "compiler.compile", None),
    ("repro.vm.kernel", "Machine.run_process", "vm.run", None),
    ("repro.vm.kernel", "Machine.step_all", "vm.run", _steps),
    ("repro.vm.blocks", "compile_block", "vm.decode", None),
    ("repro.vm.blocks", "codegen", "vm.codegen", None),
    ("repro.vm.chains", "build_chain", "vm.chain_build", None),
    ("repro.core.migration", "MigrationPipeline.migrate", "core.migrate",
     None),
    ("repro.core.runtime", "DapperRuntime.pause_at_equivalence_points",
     "core.pause", None),
    ("repro.core.rewriter", "ProcessRewriter.rewrite", "core.recode",
     _frames),
    ("repro.core.runtime", "DapperRuntime.checkpoint", "criu.dump",
     _image_bytes),
    ("repro.criu.restore", "restore_process", "criu.restore", None),
    ("repro.store.checkpoints", "CheckpointStore.put", "store.put", None),
    ("repro.store.checkpoints", "CheckpointStore.materialize",
     "store.materialize", None),
    ("repro.store.checkpoints", "CheckpointStore.delete", "store.delete",
     None),
    ("repro.store.checkpoints", "CheckpointStore.gc", "store.gc", None),
    ("repro.store.checkpoints", "CheckpointStore.recover", "store.recover",
     None),
    ("repro.store.transfer", "plan_transfer", "store.plan_transfer", None),
    ("repro.store.transfer", "ship", "store.ship", _shipped),
    ("repro.store.backend", "SimDisk.write", "store.disk", _disk_write),
    ("repro.store.backend", "SimDisk.append", "store.disk", _disk_write),
    ("repro.store.backend", "SimDisk.fsync", "store.disk", _fsync),
    ("repro.store.backend", "SimDisk.rename", "store.disk", None),
    ("repro.verify.verifier", "ImageVerifier.verify", "verify.verify",
     _findings),
    ("repro.verify.verifier", "ImageVerifier.repair", "verify.repair", None),
    ("repro.replay.journal", "Journal.to_bytes", "replay.encode",
     _journal_bytes),
    ("repro.replay.journal", "Journal.from_bytes", "replay.decode", None),
    ("repro.replay.engine", "Replayer.run", "replay.replay", None),
    ("repro.debug.session", "DebugSession.__init__", "debug.open", None),
    ("repro.debug.session", "DebugSession.seek_instr", "debug.seek", None),
    ("repro.debug.session", "DebugSession.step_back", "debug.step_back",
     None),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> None:
    """Wrap every boundary (and each checkpoint plugin's dump and
    restore hooks) with ``tracer``."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for module_name, path, layer, hook in BOUNDARIES:
        owner, name = _resolve(module_name, path)
        tracer.patch_attr(owner, name, layer, hook)
    from repro.criu.plugins import default_registry
    for plugin in default_registry():
        cls = type(plugin)
        for hook in ("pre_dump", "dump"):
            tracer.patch_attr(cls, hook, f"criu.dump.{plugin.name}")
        for hook in ("pre_restore", "restore"):
            tracer.patch_attr(cls, hook, f"criu.restore.{plugin.name}")


def harvest(tracer: Tracer) -> None:
    """Add this process's tier-up cache counters (module globals that
    start at zero in every fresh interpreter)."""
    from repro.vm.blocks import trace_cache_info
    from repro.vm.chains import chain_cache_info
    traces = trace_cache_info()
    chains = chain_cache_info()
    tracer.count("vm.trace_hits", traces["hits"])
    tracer.count("vm.trace_misses", traces["misses"])
    tracer.count("vm.chain_built", chains["built"])
    tracer.count("vm.chain_bound", chains["bound"])


#: measured migrate() stages, as inclusive time of the layers called
#: directly under ``core.migrate``, named like the cost model's
#: ``stage_seconds`` so the two stand side by side
MIGRATE_STAGES = (
    ("checkpoint", ("core.pause", "criu.dump")),
    ("recode", ("core.recode",)),
    ("store", ("store.put",)),
    ("scp", ("store.plan_transfer", "store.ship", "store.materialize")),
    ("verify", ("verify.repair", "verify.verify")),
    ("restore", ("criu.restore",)),
)
MODEL_STAGES = ("checkpoint", "recode", "store", "scp", "verify", "restore")

_TIMED = (
    ("compiler.compile_ms", "compiler.compile"),
    ("vm.run_ms", "vm.run"),
    ("vm.decode_ms", "vm.decode"),
    ("vm.codegen_ms", "vm.codegen"),
    ("vm.chain_build_ms", "vm.chain_build"),
    ("core.migrate_ms", "core.migrate"),
    ("core.pause_ms", "core.pause"),
    ("core.recode_ms", "core.recode"),
    ("criu.dump_ms", "criu.dump"),
    ("criu.restore_ms", "criu.restore"),
    ("store.put_ms", "store.put"),
    ("store.materialize_ms", "store.materialize"),
    ("store.delete_ms", "store.delete"),
    ("store.gc_ms", "store.gc"),
    ("store.recover_ms", "store.recover"),
    ("store.plan_transfer_ms", "store.plan_transfer"),
    ("store.ship_ms", "store.ship"),
    ("store.disk_ms", "store.disk"),
    ("verify.verify_ms", "verify.verify"),
    ("verify.repair_ms", "verify.repair"),
    ("replay.encode_ms", "replay.encode"),
    ("replay.decode_ms", "replay.decode"),
    ("replay.replay_ms", "replay.replay"),
    ("debug.open_ms", "debug.open"),
    ("debug.seek_ms", "debug.seek"),
    ("debug.step_back_ms", "debug.step_back"),
) + tuple((f"criu.dump.{p}_ms", f"criu.dump.{p}") for p in PLUGINS) \
  + tuple((f"criu.restore.{p}_ms", f"criu.restore.{p}") for p in PLUGINS)

_SELF = (
    ("vm.run_self_ms", "vm.run"),
    ("core.pause_self_ms", "core.pause"),
)

_CALLS = (
    ("compiler.calls", "compiler.compile"),
    ("vm.decode_calls", "vm.decode"),
    ("vm.codegen_calls", "vm.codegen"),
    ("vm.chain_builds", "vm.chain_build"),
    ("core.migrate_calls", "core.migrate"),
    ("store.put_calls", "store.put"),
    ("store.materialize_calls", "store.materialize"),
    ("store.delete_calls", "store.delete"),
    ("store.gc_calls", "store.gc"),
    ("store.recover_calls", "store.recover"),
    ("store.plan_transfer_calls", "store.plan_transfer"),
    ("store.ship_calls", "store.ship"),
)

_COUNTS = (
    "vm.guest_instructions", "core.frames_rewritten", "criu.image_bytes",
    "store.bytes_shipped", "store.disk_writes", "store.disk_bytes",
    "store.fsyncs", "verify.findings", "replay.journal_bytes",
    "debug.slices_reexecuted", "debug.snapshots",
)

_UNITS = {"_ms": "ms", "_bytes": "bytes", "bytes_shipped": "bytes",
          "_ratio": "ratio", "_mips": "Minstr/s", "ops_per_s": "1/s"}

#: metrics an optimisation should raise; every other one should fall
HIGHER_IS_BETTER = frozenset({
    "vm.guest_mips", "vm.trace_cache_hit_ratio",
    "vm.chain_factory_hit_ratio", "store.dedup_ratio", "trace.ops_per_s",
})


def _unit(name: str) -> str:
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> List[str]:
    names = [n for n, _ in _TIMED] + [n for n, _ in _SELF] \
        + [n for n, _ in _CALLS] + list(_COUNTS)
    names += ["cli.import_ms", "vm.guest_mips", "vm.trace_cache_hit_ratio",
              "vm.chain_factory_hit_ratio", "store.dedup_ratio"]
    names += [f"measured.{stage}_ms" for stage, _ in MIGRATE_STAGES]
    names += ["measured.residual_ms"]
    names += [f"model.{stage}_ms" for stage in MODEL_STAGES]
    names += ["trace.spans", "trace.exceptions", "trace.op_p50_ms",
              "trace.op_mean_ms", "trace.ops_per_s", "trace.overhead_p50_ms",
              "trace.overhead_mean_ms"]
    return names


def per_layer_spec() -> List[Dict[str, str]]:
    """The ``per_layer`` entries of ``BENCHMARK.json``."""
    return [{"name": n, "unit": _unit(n),
             "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n in per_layer_names()]


def _ratio(useful: float, attempted: float) -> float:
    return useful / attempted if attempted else 0.0


def migrate_breakdown(tracer: Tracer) -> Dict[str, float]:
    """Mean milliseconds per ``migrate()`` call in each stage, plus the
    residual: migrate's own time outside every stage span."""
    calls = tracer.layers["core.migrate"].calls
    out: Dict[str, float] = {}
    under = {child: s for (parent, child), s in tracer.edges.items()
             if parent == "core.migrate"}
    for stage, layers in MIGRATE_STAGES:
        out[stage] = _ratio(sum(under.get(l, 0.0) for l in layers),
                            calls) * 1e3
    out["residual"] = _ratio(sum(s for l, s in under.items()
                                 if not any(l in ls for _, ls in
                                            MIGRATE_STAGES)),
                             calls) * 1e3
    out["residual"] += _ratio(tracer.layers["core.migrate"].self_time,
                              calls) * 1e3
    return out


def per_layer_metrics(tracer: Tracer, extra: Dict[str, float]
                      ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, by name, as ``(value, unit)``. Layers a
    workload does not use read 0. ``extra`` carries the values measured
    outside the wrappers (model stage means, traced end-to-end
    numbers, dedup ratio, debug-session counters)."""
    layers = tracer.layers
    counters = tracer.counters
    values: Dict[str, float] = {}
    for name, layer in _TIMED:
        values[name] = layers[layer].total * 1e3 if layer in layers else 0.0
    for name, layer in _SELF:
        values[name] = (layers[layer].self_time * 1e3
                        if layer in layers else 0.0)
    for name, layer in _CALLS:
        values[name] = layers[layer].calls if layer in layers else 0
    for name in _COUNTS:
        values[name] = counters.get(name, 0)
    values["cli.import_ms"] = counters.get("cli.import_s", 0.0) * 1e3
    run_s = layers["vm.run"].total if "vm.run" in layers else 0.0
    values["vm.guest_mips"] = _ratio(counters.get("vm.guest_instructions",
                                                  0), run_s) / 1e6
    hits = counters.get("vm.trace_hits", 0)
    values["vm.trace_cache_hit_ratio"] = _ratio(
        hits, hits + counters.get("vm.trace_misses", 0))
    bound = counters.get("vm.chain_bound", 0)
    values["vm.chain_factory_hit_ratio"] = _ratio(
        bound - counters.get("vm.chain_built", 0), bound)
    for stage, ms in migrate_breakdown(tracer).items():
        values[f"measured.{stage}_ms"] = ms
    values["trace.spans"] = tracer.spans
    values["trace.exceptions"] = sum(s.exceptions for s in layers.values())
    for name in per_layer_names():
        if name in extra:
            values[name] = extra[name]
        values.setdefault(name, 0.0)
    return {name: (values[name], _unit(name)) for name in per_layer_names()}
