"""Run alternating perfbench pairs of a parent and a change checkout and
print the figures of the pair rule as one JSON object.

Usage: python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
       [--pairs N] [--seed S]   (N defaults to 10, S to 1)

Pair i, from 0, runs ``perfbench/run.py --workload W --seed S+i --seconds
10 --trace 0`` under this interpreter in each checkout, one run at a
time, the parent first when i is even and the change first when i is
odd, and reads the JSON result on the last line of each run's standard
output.  For each end-to-end metric of this repository's BENCHMARK.json
the output gives both sides' runs and medians, the parent's interquartile
range (inclusive quartiles), the pairs the change won by the metric's
``better`` direction, ties counting for neither side, the pairs run, the
change's median relative to the parent's, the parent's range relative to
its median, the metric's ``bound`` and a verdict: "worse than bound"
where the change's median is worse by more than the bound; else
"unresolved" where the parent's range is wider than the bound and not
every change run beats every parent run; else "gain" where the change
won at least nine pairs in ten and its median beats the parent's by more
than the parent's range; else "within bound".
It also lists every run that read ``correct: false`` or ``failed`` above
0.  A run that exits nonzero or prints no result stops the tool.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: {checkout} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], sign: int,
            bound: float) -> str:
    """The pair rule's reading of one metric.  ``sign`` is 1 where lower is
    better and -1 where higher is; ``bound`` is the largest worsening of
    the change's median, relative to the parent's, that is no regression.
    """
    p, c = [sign * v for v in parent], [sign * v for v in change]
    p_med, c_med = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
    if c_med - p_med > bound * abs(p_med):
        return "worse than bound"
    if q3 - q1 > bound * abs(p_med) and max(c) >= min(p):
        return "unresolved"
    if (sum(x > y for x, y in zip(p, c)) >= 0.9 * len(p)
            and p_med - c_med > q3 - q1):
        return "gain"
    return "within bound"


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """The pair rule's figures for each metric of ``metrics`` (BENCHMARK.json
    entries with ``name``, ``better`` and ``bound``), from the results of
    both sides in pair order."""
    out = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in SIDES)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        sign = 1 if metric["better"] == "lower" else -1
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "parent_iqr": q3 - q1,
            "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            "pairs": len(parent),
            "change_vs_parent": (c_med - p_med) / p_med,
            "parent_iqr_ratio": (q3 - q1) / p_med,
            "bound": bound,
            "verdict": verdict(parent, change, sign, bound),
            "parent_runs": parent,
            "change_runs": change,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first, bad = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed)
            runs[side].append(result)
            if not result["correct"] or result["failed"] > 0:
                bad.append({"side": side, "seed": seed,
                            "correct": result["correct"],
                            "failed": result["failed"]})
    print(json.dumps({"workload": args.workload,
                      "seeds": [args.seed + i for i in range(args.pairs)],
                      "first": first, "metrics": summarize(runs, spec["end_to_end"]),
                      "bad_runs": bad}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
