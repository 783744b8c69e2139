"""cent-atlas benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, analyze, files, pool (see BENCHMARK.json for why each
exists).  Every pass runs in a fresh interpreter (worker.py) that imports
cent_atlas from ``src/`` of this checkout, builds its inputs from the
seed, times its items and checks each output against the expectations
frozen in ``expected/``.  Passes repeat until ``--seconds`` have gone by
(at least one), and set-up is measured at least three times, more
often where it is cheap.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` it carries the per-layer metrics of ``tracer.PER_LAYER``,
from one traced pass with jobs=1 (spans inside pool workers would never
reach the parent) plus untraced passes for the tracing overhead and the
pool's own figures.  The last line of standard output is the result;
the lines before it repeat the figures for people, with sample counts and
the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CLAIM_IDS, PER_LAYER, per_layer_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cent_atlas"

WORKLOADS = ("sweep", "analyze", "files", "pool")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Set-up is measured at least MIN_SETUPS times, and more while the
# set-ups so far add up to less than SETUP_SECONDS, so that a cheap set-up
# (an interpreter start and imports) gets enough samples for a steady
# median.
MIN_SETUPS = 3
SETUP_SECONDS = 4.0
# Every pass must end by then, so the run exits within 180 s.
RUN_DEADLINE_S = 165
KILL_GRACE_S = 10


class PassFailed(RuntimeError):
    """A worker crashed or outlived the run's deadline."""


def spawn(workload: str, seed: int, mode: str, deadline: float, *,
          jobs: int | None = None, trace: bool = False,
          smoke: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode,
           "--deadline", repr(deadline)]
    cmd += ["--jobs", str(jobs)] if jobs is not None else []
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic() + KILL_GRACE_S))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} {mode} pass outlived the deadline")
    finally:
        # End whatever is left of the pass's process group, pool included.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} {mode} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float,
               **kw) -> tuple[dict, list[dict], list[str]]:
    started = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    # Start another pass only while there is room for one more as long as
    # the longest so far, with a margin, before the run's deadline: items
    # the deadline cuts off would count as failed.
    while not passes or (time.monotonic() - started < seconds and
                         deadline - time.monotonic() > 1.5 * longest):
        pass_started = time.monotonic()
        passes.append(spawn(workload, seed, "run", deadline, **kw))
        longest = max(longest, time.monotonic() - pass_started)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_SECONDS and
            deadline - time.monotonic() > 1.5 * max(setups)):
        setups.append(spawn(workload, seed, "setup", deadline,
                            **kw)["setup_s"])
    walls = [p["wall_s"] for p in passes]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"setup_s: median of {len(setups)} set-ups",
             f"wall_s: median of {len(walls)} passes",
             "peak_rss_mb: own and child processes, largest over passes"]
    latencies = [r[1] * 1000 for p in passes for r in p["items"]]
    # Item percentiles only where at least ten items lie beyond the p95
    # (analyze and files); they are printed, not part of the result.
    if len(latencies) >= 200:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        notes += [f"item_p50_ms {cuts[49]:.6g} ms ({len(latencies)} items)",
                  f"item_p95_ms {cuts[94]:.6g} ms ({len(latencies)} items)"]
    return values, passes, notes


def per_layer(workload: str, seed: int, deadline: float,
              **kw) -> tuple[dict, list[dict], list[str]]:
    base = spawn(workload, seed, "run", deadline, **kw)
    passes = [base]
    if base["jobs"] > 1:  # the traced pass runs with jobs=1
        same_jobs = spawn(workload, seed, "run", deadline, jobs=1, **kw)
        passes.append(same_jobs)
    else:
        same_jobs = base
    traced = spawn(workload, seed, "run", deadline, jobs=1, trace=True, **kw)
    passes.append(traced)
    claim_walls = {r[0].split(":", 1)[1]: r[1] for r in base["items"]
                   if r[0].startswith("claim:")}
    measured = {f"claims.{cid}.wall_s": claim_walls.get(cid, 0.0)
                for cid in CLAIM_IDS}
    measured["claims.pool.child_cpu_s"] = base["child_cpu_s"]
    measured["claims.pool.busy_ratio"] = (
        base["child_cpu_s"] / (base["jobs"] * base["wall_s"]))
    measured["trace.overhead_s"] = traced["wall_s"] - same_jobs["wall_s"]
    values = per_layer_values(traced["buckets"], traced["counters"],
                              measured)
    notes = [f"per-layer: one traced pass (jobs=1); claims.*.wall_s and "
             f"claims.pool.* from an untraced pass at jobs={base['jobs']}; "
             "a layer this workload does not reach reads 0"]
    notes += [f"{name} should move: {moves}"
              for name, _, _, moves in PER_LAYER]
    return values, passes, notes


def provenance(seed: int, passes: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": src.hexdigest(),
            "seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(),
            "numpy": passes[0]["numpy"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no cent_atlas package at {PACKAGE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    kw = {"smoke": args.smoke}
    try:
        if args.trace:
            values, passes, notes = per_layer(args.workload, args.seed,
                                              deadline, **kw)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            values, passes, notes = end_to_end(
                args.workload, args.seed, args.seconds, deadline, **kw)
            units = dict(END_TO_END)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["items"]) for p in passes)
    failures = [r for p in passes for r in p["items"] if r[2] is not None]
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(*notes, sep="\n")
    print(f"fail_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} attempted)")
    for name, _, error in failures[:20]:
        print(f"failed: {name}: {error}")
    print("provenance " + json.dumps(provenance(args.seed, passes)))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
