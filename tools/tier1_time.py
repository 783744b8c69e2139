"""Time the tier-1 suite: run it N times, each in a fresh subprocess from
the repository root with src/ first on PYTHONPATH, and print one JSON line
with each run's seconds, passed and failed counts, read from pytest's own
summary line, and the median seconds.  Errors count as failures.  Each
run also gives its summed per-test call time by test file, slowest file
first, read from pytest's ``--durations=0 --durations-min=0`` report;
those sums leave out collection, setup and teardown.

Usage: python tools/tier1_time.py [--runs N]   (N defaults to 3)
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = [sys.executable, "-m", "pytest", "-q",
           "--continue-on-collection-errors", "--durations=0",
           "--durations-min=0"]
# "1039 passed in 83.52s (0:01:23)", "2 failed, 1 skipped in 0.40s", with
# or without the "=" rules pytest draws around it outside -q
_SUMMARY = re.compile(r"=*\s*((?:\d+ \w+|no tests ran)(?:, \d+ \w+)*)"
                      r" in ([0-9.]+)s(?: \([0-9:]+\))?\s*=*")


def parse_summary(output: str) -> dict | None:
    """Seconds, passed and failed from the last pytest summary line in
    ``output``, or None if it has none."""
    for line in reversed(output.splitlines()):
        match = _SUMMARY.fullmatch(line.strip())
        if match:
            counts = {word: int(k)
                      for k, word in re.findall(r"(\d+) (\w+)", match[1])}
            return {"seconds": float(match[2]),
                    "passed": counts.get("passed", 0),
                    "failed": (counts.get("failed", 0) + counts.get("error", 0)
                               + counts.get("errors", 0))}
    return None


# "0.52s call     tests/test_core.py::TestGate::test_x[a b]"
_DURATION = re.compile(r"([0-9.]+)s call +([^:\s]+)::")


def parse_durations(output: str) -> dict[str, float]:
    """Summed call seconds per test file from pytest's durations report
    in ``output``, slowest file first; empty if it has none."""
    sums: Counter = Counter()
    for match in map(_DURATION.match, output.splitlines()):
        if match:
            sums[match[2]] += float(match[1])
    return {path: round(t, 2) for path, t in sums.most_common()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = []
    for _ in range(args.runs):
        proc = subprocess.run(COMMAND, cwd=ROOT, env=env,
                              capture_output=True, text=True)
        run = parse_summary(proc.stdout)
        if run is None:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            print("error: no pytest summary line", file=sys.stderr)
            return 1
        runs.append({**run, "by_file": parse_durations(proc.stdout)})
    print(json.dumps({"runs": runs, "median_s": statistics.median(
        run["seconds"] for run in runs)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
