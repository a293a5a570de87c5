"""Cold wall-clock benchmark of the live-rewrite path.

Run from the repository root::

    python3 perfbench/run.py --workload migrate-churn --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit status is 0 only when every operation was correct.

Each run compiles the sources to bytecode once (the build), then
starts the workload in fresh interpreters whose working directory and
``HOME`` are fresh directories under ``.perfbench_runs/``, removed
afterwards. Untraced runs start :data:`SETUP_REPEATS` extra
interpreters that only set up, and report the median set-up time.
Traced runs measure the workload untraced, then traced, and report the
difference as the tracing overhead.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("migrate-churn", "cold-cli", "record-debug")
#: set-up-only interpreters started before the measured one
SETUP_REPEATS = 2
#: a run must finish within this many seconds
RUN_LIMIT_S = 170
#: the gated end-to-end metrics. The operation's median is printed but
#: not gated: on a shared 2-core x86_64 VM, speed alternated between
#: phases about 2x apart, and a median flips between them where a mean
#: moves in proportion (10-seed IQR/median of record-debug's step_back
#: p50 0.32, of its mean 0.17).
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "op_mean_ms": "ms",
             "ops_per_s": "1/s"}


def _child_env(root: str, home: str) -> dict:
    env = dict(os.environ)
    env["HOME"] = home
    env["PYTHONPATH"] = os.pathsep.join([root, os.path.join(root, "src")])
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".perfbench_build",
                                              "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(cmd, cwd: str, env: dict, deadline: float) -> int:
    """Run ``cmd`` in its own process group; kill the group if it
    outlives ``deadline``."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {' '.join(cmd[2:])} timed out", file=sys.stderr)
        return -1


def _driver(root, tmp, args, setup_only: bool, deadline: float,
            trace: int = 0):
    home = tempfile.mkdtemp(prefix="home-", dir=tmp)
    work = tempfile.mkdtemp(prefix="work-", dir=tmp)
    out = os.path.join(tmp, f"result-{os.path.basename(work)}.json")
    cmd = [sys.executable, "-m", "perfbench.driver",
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
    code = _run(cmd, work, _child_env(root, home), deadline)
    if code != 0:
        return None
    with open(out) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    env = _child_env(root, os.environ.get("HOME", root))
    build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            os.path.join(root, "src"),
                            os.path.join(root, "perfbench")], env=env,
                           stdout=subprocess.DEVNULL, check=False)
    if build.returncode != 0:
        print("perfbench: bytecode build failed", file=sys.stderr)
        return 2

    runs_dir = os.path.join(root, ".perfbench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                           dir=runs_dir)
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_REPEATS):
            res = _driver(root, tmp, args, True, deadline)
            if res is None:
                return 1
            setups.append(res["setup_s"])
        # A traced run first repeats the untraced one, so that it can
        # report its own overhead.
        plain = _driver(root, tmp, args, False, deadline)
        if plain is None:
            return 1
        setups.append(plain["setup_s"])
        res = plain
        if args.trace:
            res = _driver(root, tmp, args, False, deadline, trace=1)
            if res is None:
                return 1
            per_layer = res["per_layer"]
            for stat in ("p50", "mean"):
                traced, unit = per_layer[f"trace.op_{stat}_ms"]
                per_layer[f"trace.overhead_{stat}_ms"] = (
                    traced - plain["e2e"][f"op_{stat}_ms"], unit)
            res["attempted"] += plain["attempted"]
            res["failed"] += plain["failed"]
            res["reasons"] += plain["reasons"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    correct = res["failed"] == 0
    print(f"workload {args.workload} seed {args.seed}: "
          f"{res['samples']} operations timed, "
          f"{res['attempted']} checked, {res['failed']} failed")
    print(f"  failed_ratio = {res['failed'] / res['attempted']:.4f} "
          f"failed/attempted")
    for reason in res["reasons"]:
        print(f"  FAILED: {reason}")
    for name, value, unit in res["report"]:
        shown = "n/a (fewer than 10 samples beyond)" if value is None \
            else f"{value:.4f}"
        print(f"  {name} = {shown} {unit}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["per_layer"].items()}
        print("  layer               calls      total_ms   self_ms  exc")
        for name, (calls, total, self_s, exc) in res["layer_table"].items():
            print(f"  {name:<20}{calls:>6}{total * 1e3:>14.2f}"
                  f"{self_s * 1e3:>10.2f}{exc:>5}")
    else:
        values = dict(res["e2e"], setup_s=statistics.median(setups),
                      peak_rss_mb=peak_kib / 1024)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
