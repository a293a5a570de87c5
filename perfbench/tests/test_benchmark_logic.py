"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

from perfbench import layers, stats
from perfbench.trace import Tracer, _MISSING

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- percentile selection -------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(100)), 90) == 89
    # exactly ten samples (90..99) lie above the 90th's rank
    assert sum(1 for x in range(100) if x > 89) == 10


def test_percentile_median_needs_twenty():
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile(list(range(20)), 50) == 9
    assert stats.percentile([], 50) is None


def test_percentile_is_order_free():
    samples = [5.0, 1.0, 4.0] * 40
    assert stats.percentile(samples, 90) == 5.0
    assert stats.percentile(samples, 50) == 4.0


# -- self time of nested spans --------------------------------------------


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def build_chain():
        clock.now += 3.0

    def pause():
        clock.now += 1.0
        traced_build()
        clock.now += 0.5
        traced_build()
        clock.now += 0.25

    traced_build = tracer.wrap("vm.chain_build", build_chain)
    tracer.wrap("core.pause", pause)()

    outer = tracer.layers["core.pause"]
    inner = tracer.layers["vm.chain_build"]
    assert outer.calls == 1 and inner.calls == 2
    assert outer.total == pytest.approx(7.75)
    assert outer.self_time == pytest.approx(1.75)
    assert inner.total == pytest.approx(6.0)
    assert inner.self_time == pytest.approx(6.0)
    assert tracer.edges[("core.pause", "vm.chain_build")] == \
        pytest.approx(6.0)
    assert tracer.edges[("", "core.pause")] == pytest.approx(7.75)


def test_reentrant_layer_counts_total_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def step_all():
        clock.now += 2.0

    traced_step = tracer.wrap("vm.run", step_all)

    def run_process():
        clock.now += 1.0
        traced_step()
        traced_step()

    tracer.wrap("vm.run", run_process)()
    run = tracer.layers["vm.run"]
    assert run.calls == 3
    assert run.total == pytest.approx(5.0)
    assert run.self_time == pytest.approx(5.0)


def test_exceptions_are_counted_and_reraised():
    tracer = Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("store.put", boom)()
    assert tracer.layers["store.put"].exceptions == 1
    assert not tracer._stack


def test_migrate_breakdown_accounts_for_wall_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def stage(seconds):
        def run():
            clock.now += seconds
        return run

    pause = tracer.wrap("core.pause", stage(4.0))
    dump = tracer.wrap("criu.dump", stage(1.0))
    put = tracer.wrap("store.put", stage(0.5))

    def migrate():
        pause()
        dump()
        put()
        clock.now += 0.25          # not inside any stage span

    tracer.wrap("core.migrate", migrate)()
    parts = layers.migrate_breakdown(tracer)
    assert parts["checkpoint"] == pytest.approx(5000.0)
    assert parts["store"] == pytest.approx(500.0)
    assert parts["residual"] == pytest.approx(250.0)
    assert sum(parts.values()) == pytest.approx(
        tracer.layers["core.migrate"].total * 1e3)


def test_merge_adds_child_process_stats():
    clock = FakeClock()
    child = Tracer(clock)
    child.wrap("compiler.compile", lambda: None)()
    child.count("cli.import_s", 0.25)
    parent = Tracer(clock)
    parent.merge(json.loads(json.dumps(child.to_dict())))
    parent.merge(child.to_dict())
    assert parent.layers["compiler.compile"].calls == 2
    assert parent.counters["cli.import_s"] == pytest.approx(0.5)


# -- failed_ratio accounting ------------------------------------------------


def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    assert tally.failed_ratio == 0.0
    assert tally.record(True)
    assert not tally.record(False, "output differs")
    tally.record(True)
    tally.record(False)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_ratio == 0.5
    assert tally.reasons == ["output differs", "failed"]


# -- installing and removing the wrappers ------------------------------------


def _snapshot():
    """Every attribute a boundary could patch, as the exact objects."""
    for name in layers.PRELOAD:
        importlib.import_module(name)
    seen = {}
    for module_name, path, _layer, _hook in layers.BOUNDARIES:
        owner, name = layers._resolve(module_name, path)
        if isinstance(owner, type):
            seen[(owner, name)] = owner.__dict__.get(name, _MISSING)
        else:
            original = getattr(owner, name)
            for module in list(sys.modules.values()):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        seen[(module, attr)] = value
    from repro.criu.plugins import default_registry
    for plugin in default_registry():
        cls = type(plugin)
        for hook in ("pre_dump", "dump", "pre_restore", "restore"):
            seen[(cls, hook)] = cls.__dict__.get(hook, _MISSING)
    return seen


def test_install_and_remove_restore_every_function():
    before = _snapshot()
    tracer = Tracer()
    layers.install(tracer)
    try:
        from repro.core import migration
        from repro.criu import restore
        from repro.vm import kernel
        assert hasattr(kernel.Machine.step_all, "__wrapped_layer__")
        assert migration.restore_process is restore.restore_process
        assert hasattr(migration.restore_process, "__wrapped_layer__")
    finally:
        tracer.remove()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, value in before.items():
        owner, name = key
        now = owner.__dict__.get(name, _MISSING) \
            if isinstance(owner, type) else getattr(owner, name)
        assert now is value, key
    # classmethods come back as the very same descriptor
    from repro.store.checkpoints import CheckpointStore
    assert isinstance(CheckpointStore.__dict__["recover"], classmethod)


def test_wrapped_boundaries_still_work():
    from repro.compiler import compile_source
    tracer = Tracer()
    layers.install(tracer)
    try:
        from repro import compiler
        program = compiler.compile_source(
            "func main() -> int { print(1); return 0; }", "tiny")
    finally:
        tracer.remove()
    assert tracer.layers["compiler.compile"].calls == 1
    assert program.name == "tiny"
    assert compiler.compile_source is compile_source


# -- BENCHMARK.json matches the code ------------------------------------------


def test_benchmark_json_names_match_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["per_layer"] == layers.per_layer_spec()
    from perfbench import run
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
