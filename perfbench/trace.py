"""Out-of-band span recorder for the traced benchmark run.

The traced run wraps the public functions at each layer boundary
(see :mod:`perfbench.layers`) from the benchmark's own files: the
program under test is not edited. Every wrapped call is one span. Per
layer the recorder keeps calls, total time, self time (the span minus
the child spans it covers) and exceptions raised, plus the inclusive
time each layer spends directly under each parent layer, which is how
a ``migrate()`` call is split into its stages.

Spans of one layer nested inside a span of the same layer (e.g.
``Machine.run_process`` calling ``Machine.step_all``, both ``vm.run``)
add their calls and self time but not their total, so a re-entrant
layer's total is the wall time it was active.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class LayerStats:
    __slots__ = ("calls", "total", "self_time", "exceptions")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.exceptions = 0

    def to_list(self) -> List:
        return [self.calls, self.total, self.self_time, self.exceptions]


class Tracer:
    """Spans and counters at layer boundaries, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: Dict[str, LayerStats] = defaultdict(LayerStats)
        self.counters: Counter = Counter()
        #: (parent layer, layer) -> inclusive seconds; parent "" = root
        self.edges: Dict[Tuple[str, str], float] = defaultdict(float)
        self.spans = 0
        # open spans: [layer, start, seconds covered by child spans]
        self._stack: List[list] = []
        self._depth: Counter = Counter()
        # (owner, attribute, original value or _MISSING)
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self, failed: bool = False) -> float:
        end = self.clock()
        layer, start, covered = self._stack.pop()
        span = end - start
        stats = self.layers[layer]
        stats.calls += 1
        stats.self_time += span - covered
        if failed:
            stats.exceptions += 1
        self._depth[layer] -= 1
        if not self._depth[layer]:
            stats.total += span
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += span
        self.edges[(parent[0] if parent else "", layer)] += span
        self.spans += 1
        return span

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def wrap(self, layer: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as one ``layer`` span per call.
        ``on_result(tracer, args, result)`` may add counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(failed=True)
                raise
            tracer.exit()
            if on_result is not None:
                on_result(tracer, args, result)
            return result
        traced.__wrapped_layer__ = layer
        return traced

    # -- installing wrappers ------------------------------------------------

    def patch_attr(self, owner, name: str, layer: str,
                   on_result: Optional[Callable] = None) -> None:
        """Wrap ``owner.name`` (a class attribute, plain or a
        class/static method, or a module-level function). For a module
        function, every loaded ``repro`` module that bound the same
        object by ``from ... import`` is patched too."""
        if isinstance(owner, type):
            original = owner.__dict__.get(name, _MISSING)
            current = getattr(owner, name) if original is _MISSING \
                else original
            if isinstance(current, (classmethod, staticmethod)):
                replacement = type(current)(
                    self.wrap(layer, current.__func__, on_result))
            else:
                replacement = self.wrap(layer, current, on_result)
            self._patches.append((owner, name, original))
            setattr(owner, name, replacement)
            return
        original = getattr(owner, name)
        replacement = self.wrap(layer, original, on_result)
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "") or ""
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def remove(self) -> None:
        """Undo every patch, newest first, leaving each attribute
        exactly as it was (an inherited attribute is inherited again)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "layers": {k: v.to_list() for k, v in self.layers.items()},
            "counters": dict(self.counters),
            "edges": [[p, c, s] for (p, c), s in self.edges.items()],
            "spans": self.spans,
        }

    def merge(self, data: Dict) -> None:
        """Fold another process's :meth:`to_dict` into this one."""
        for layer, (calls, total, self_time, exc) in data["layers"].items():
            stats = self.layers[layer]
            stats.calls += calls
            stats.total += total
            stats.self_time += self_time
            stats.exceptions += exc
        self.counters.update(data["counters"])
        for parent, child, seconds in data["edges"]:
            self.edges[(parent, child)] += seconds
        self.spans += data["spans"]


#: marks an attribute that a patch added rather than replaced
_MISSING = object()
