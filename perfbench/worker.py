"""One benchmark pass in a fresh interpreter: set up, run the items, check.

run.py starts this script once per pass, so every pass pays per-process
costs (imports, the claims catalog cache) the way a command-line user
does.  Modes: ``setup`` stops after building the inputs, ``run`` times
the items and checks each against ``expected/``, ``freeze`` times them
and reports what they returned.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class ItemTimeout(BaseException):
    """An item ran past its cap.  Not an Exception, so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    # A pool's shutdown would wait for its workers; end them first.
    for child in multiprocessing.active_children():
        child.kill()
    raise ItemTimeout


def run_item(run, cap_s: float):
    """Call ``run()`` under a wall-clock cap: (latency_s, result, error)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            result = run()
            latency = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        return time.perf_counter() - start, None, f"exceeded its {cap_s:.3g} s cap"
    except Exception as exc:  # the item fails; the workload goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return latency, result, None


def load_expected(directory: Path) -> dict:
    expected: dict = {}
    for path in sorted(directory.glob("*.json")):
        expected.update(json.loads(path.read_text()))
    return expected


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "freeze"),
                        required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.monotonic() by which every item ends")
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import cent_atlas
    if not Path(cent_atlas.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {cent_atlas.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import numpy
    import workloads

    expected = (load_expected(HERE / "expected") if args.mode == "run"
                else {})
    workdir = ROOT / ".bench_build" / f"{args.workload}-{os.getpid()}"
    prepared = workloads.PREPARE[args.workload](
        args.seed, args.smoke, args.jobs, workdir)
    setup_s = time.monotonic() - args.launched
    out: dict = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.mode == "setup":
        prepared.cleanup()
        print(json.dumps(out))
        return 0

    cap_s = workloads.ITEM_CAP_S[args.workload]
    records, observed = [], {}
    cpu_before = _children_cpu_s()
    start = time.perf_counter()
    try:
        for item in prepared.items:
            budget = min(cap_s, args.deadline - time.monotonic())
            if budget <= 0:
                records.append([item.name, 0.0, "not run: deadline reached"])
                continue
            latency, result, error = run_item(item.run, budget)
            if error is None:
                try:
                    seen = json.loads(json.dumps(item.observe(result)))
                except Exception as exc:  # a missing or malformed output
                    error = f"{type(exc).__name__}: {exc}"
            if error is None and args.mode == "freeze":
                observed[item.name] = seen
            elif error is None and item.name not in expected:
                error = "no frozen expectation"
            elif error is None and seen != expected[item.name]:
                error = "output differs from the frozen expectation"
            records.append([item.name, latency, error])
        wall_s = time.perf_counter() - start
    finally:
        prepared.cleanup()
    out.update(wall_s=wall_s, items=records, jobs=prepared.jobs,
               peak_rss_mb=_peak_rss_mb(),
               child_cpu_s=_children_cpu_s() - cpu_before)
    if args.mode == "freeze":
        out["observed"] = observed
    if tracer is not None:
        out["buckets"] = tracer.buckets()
        out["counters"] = tracer.counters
        tracer.write(ROOT / ".bench_build"
                     / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
