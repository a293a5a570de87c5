"""One workload run in a fresh interpreter: ``python -m perfbench.driver``.

Started by ``perfbench/run.py`` with a fresh working directory and
``HOME``. Times its own set-up (import, compile, reference outputs,
source files, initial processes), runs the measured loop unless
``--setup-only``, and writes a JSON result to ``--out``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def end_to_end(outcome) -> dict:
    """The operation metrics every workload reports."""
    samples = outcome.op_samples
    return {
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_mean_ms": statistics.fmean(samples) * 1e3,
        "ops_per_s": len(samples) / outcome.loop_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.driver")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from .workloads import WORKLOADS
    tracer = None
    if args.trace:
        from . import layers
        from .trace import Tracer
        tracer = Tracer()
        layers.install(tracer)
    workload = WORKLOADS[args.workload](args.seed, os.getcwd(),
                                        bool(args.trace))
    workload.setup()
    result = {"setup_s": time.perf_counter() - _START}
    if not args.setup_only:
        outcome = workload.run(args.seconds)
        if not outcome.op_samples:
            print("perfbench: no operation completed", file=sys.stderr)
            return 1
        e2e = end_to_end(outcome)
        result.update(
            attempted=outcome.tally.attempted, failed=outcome.tally.failed,
            reasons=outcome.tally.reasons[:20], e2e=e2e,
            report=outcome.report, samples=len(outcome.op_samples))
        if tracer is not None:
            from . import layers
            layers.harvest(tracer)
            tracer.remove()
            for child in workload.layer_stats:
                tracer.merge(child)
            extra = dict(outcome.extra)
            extra.update({f"trace.{k}": v for k, v in e2e.items()})
            result["per_layer"] = layers.per_layer_metrics(tracer, extra)
            result["layer_table"] = {
                name: stats.to_list()
                for name, stats in sorted(tracer.layers.items())}
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
