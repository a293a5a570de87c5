"""Interpreter speed benchmark: per-step vs tier-2 blocks, warm and cold.

Executes a mixed application suite — Dhrystone and K-means plus server
and HPC workloads (nginx, redis, NPB CG, PARSEC Black-Scholes) — on
both ISAs under both execution tiers:

* ``per_step``  — the per-instruction interpreter baseline
  (``Machine(block_engine=False)``),
* ``tier2``     — per-trace superblock specialization with mid-trace
  resume (:mod:`repro.vm.blocks`, the default engine),

reports instructions/sec for each, and writes ``BENCH_interp.json`` at
the repo root so the perf trajectory is tracked across PRs.

Two methodologies, side by side:

* **warm** (``*_ips``) — steady state: each measurement spawns a fresh
  process inside a warmed interpreter, so one-time global costs
  (decoding traces, ``compile()``-ing specializations) are amortized
  across every process a long-lived node executes. Tier timings are
  interleaved and the best of ``--reps`` runs is taken, because
  wall-clock noise on a shared host easily exceeds the effect being
  measured.
* **cold** (``cold_*_s``) — one fresh Python interpreter per app, ISA
  and tier, default tier-up thresholds, timing the guest run from
  spawn to exit: every trace decode and ``compile()`` is billed to the
  run, which is what a user of a one-shot tool pays. The best of
  ``COLD_REPS`` fresh interpreters is taken.

All tiers run under the same scheduling quantum (default 4096). Every
run is also checked for bit-identical results (stdout, exit code,
instruction and cycle totals) against the per-step baseline — a
speedup that changes architectural behaviour is a bug, not a result.

Usage::

    PYTHONPATH=src python benchmarks/bench_interp_speed.py [--smoke]

``--smoke`` is the quick CI signal: every app runs once at the small
size under both tiers (fingerprint agreement, harness sanity), then a
short timed Dhrystone medium comparison asserts that tier 2 is at least
as fast as per-step — the one ordering that must survive even a noisy
shared runner.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps.registry import get_app          # noqa: E402
from repro.isa import get_isa                    # noqa: E402
from repro.vm import blocks                      # noqa: E402
from repro.vm.kernel import Machine              # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

APPS = ("dhrystone", "kmeans", "nginx", "redis", "cg", "blackscholes")
ARCHES = ("x86_64", "aarch64")
QUANTUM = 4096
COLD_REPS = 3                              # fresh interpreters per tier

# Timed problem size per app ("medium" unless listed). Dhrystone medium
# retires only ~284k instructions — short enough that timer granularity
# and CPU frequency ramping swamp the warm signal; the large size
# (~2.1M instructions) keeps every timed region in the hundreds of
# milliseconds.
SIZES = {"dhrystone": "large"}

#: tier name -> Machine engine flags
TIERS = {
    "per_step": dict(block_engine=False),
    "tier2": dict(block_engine=True),
}


def warm_up_quickly() -> None:
    """Steady-state tuning for warm runs: tier up quickly so the
    shorter runs measure compiled throughput rather than threshold
    warmup. Thresholds only delay tier-up — they cannot change results,
    which the fingerprint check enforces anyway. Cold runs keep the
    defaults."""
    blocks.HOT_THRESHOLD = 2


def run_once(app: str, arch: str, size: str, tier: str) -> tuple:
    """One fresh process run; returns (result fingerprint, seconds)."""
    binary = get_app(app).compile(size).binary(arch)
    machine = Machine(get_isa(arch), quantum=QUANTUM, **TIERS[tier])
    machine.install_binary(binary, f"/bin/{app}")
    process = machine.spawn_process(f"/bin/{app}")
    start = time.perf_counter()
    machine.run_process(process)
    elapsed = time.perf_counter() - start
    fingerprint = (process.stdout(), process.exit_code,
                   process.instr_total, process.cycle_total)
    return fingerprint, elapsed


def run_cold(app: str, arch: str, size: str, tier: str) -> float:
    """Seconds of one guest run in a fresh interpreter (tier-up
    included; the app's DapperC compile and ``import`` are not)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cold-child",
         app, arch, size, tier],
        check=True, capture_output=True, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def check_fingerprints(app: str, arch: str, size: str) -> tuple:
    """Both tiers must retire the same execution, bit for bit."""
    base_fp, _ = run_once(app, arch, size, "per_step")
    fp, _ = run_once(app, arch, size, "tier2")
    if fp != base_fp:
        raise SystemExit(
            f"ENGINE MISMATCH on {app}/{arch}: per-step and tier2 runs "
            f"differ — refusing to report a speed for wrong results")
    return base_fp


def measure(app: str, arch: str, size: str, reps: int) -> dict:
    base_fp = check_fingerprints(app, arch, size)
    times = {tier: [] for tier in TIERS}
    cold = {tier: [] for tier in TIERS}
    for _ in range(reps):                  # interleaved to share the noise
        for tier in TIERS:
            times[tier].append(run_once(app, arch, size, tier)[1])
    for _ in range(COLD_REPS):
        for tier in TIERS:
            cold[tier].append(run_cold(app, arch, size, tier))
    instrs = base_fp[2]
    ips = {tier: instrs / min(ts) for tier, ts in times.items()}
    best_cold = {tier: min(ts) for tier, ts in cold.items()}
    return {
        "app": app,
        "arch": arch,
        "size": size,
        "instructions": instrs,
        "per_step_ips": round(ips["per_step"]),
        "tier2_ips": round(ips["tier2"]),
        "tier2_speedup": round(ips["tier2"] / ips["per_step"], 2),
        "cold_per_step_s": round(best_cold["per_step"], 3),
        "cold_tier2_s": round(best_cold["tier2"], 3),
        "cold_speedup": round(best_cold["per_step"] / best_cold["tier2"], 2),
    }


def smoke() -> int:
    warm_up_quickly()
    for app in APPS:
        for arch in ARCHES:
            check_fingerprints(app, arch, "small")
            print(f"{app:14s} {arch:8s} fingerprints agree across tiers")
    # One ordering must hold even on a noisy runner: compiled traces
    # beat per-instruction stepping on Dhrystone medium.
    best = {tier: 0.0 for tier in TIERS}
    for _ in range(3):
        for tier in TIERS:
            fp, elapsed = run_once("dhrystone", "x86_64", "medium", tier)
            best[tier] = max(best[tier], fp[2] / elapsed)
    print(f"dhrystone medium x86_64: per_step="
          f"{best['per_step']/1e6:.2f} M i/s "
          f"tier2={best['tier2']/1e6:.2f} M i/s")
    if best["tier2"] < best["per_step"]:
        print("FAIL: tier-2 blocks slower than per-step on Dhrystone")
        return 1
    print("OK: tier2 >= per_step on Dhrystone")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fingerprint check + tier2>=per_step assertion")
    parser.add_argument("--reps", type=int, default=5,
                        help="warm repetitions per tier (default 5)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required warm tier-2 speedup on Dhrystone "
                             "and K-means (default 5.0)")
    parser.add_argument("--cold-child", nargs=4,
                        metavar=("APP", "ARCH", "SIZE", "TIER"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.cold_child:
        print(run_once(*args.cold_child)[1])
        return 0
    if args.smoke:
        return smoke()

    warm_up_quickly()
    reps = max(1, args.reps)
    rows = []
    for app in APPS:
        for arch in ARCHES:
            row = measure(app, arch, SIZES.get(app, "medium"), reps)
            rows.append(row)
            print(f"{app:14s} {arch:8s} "
                  f"warm per_step={row['per_step_ips']/1e6:5.2f} "
                  f"tier2={row['tier2_ips']/1e6:5.2f} M i/s "
                  f"({row['tier2_speedup']:.2f}x)  "
                  f"cold per_step={row['cold_per_step_s']:.3f} "
                  f"tier2={row['cold_tier2_s']:.3f} s "
                  f"({row['cold_speedup']:.2f}x)")

    payload = {
        "benchmark": "interp_speed",
        "mode": "full",
        "reps": reps,
        "quantum": QUANTUM,
        "results": rows,
        "trace_cache": blocks.trace_cache_info(),
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_interp.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")

    gated = [r for r in rows if r["app"] in ("dhrystone", "kmeans")]
    failing = [r for r in gated if r["tier2_speedup"] < args.min_speedup]
    if failing:
        print(f"FAIL: warm tier-2 speedup below {args.min_speedup}x: "
              + ", ".join(f"{r['app']}/{r['arch']}={r['tier2_speedup']}x"
                          for r in failing))
        return 1
    print(f"OK: warm tier-2 >= {args.min_speedup}x on Dhrystone and "
          f"K-means, both ISAs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
