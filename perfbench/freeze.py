"""Freeze the expected outputs of every benchmark item into expected/.

    python3 perfbench/freeze.py

Run this only at a commit whose outputs are known to be right: every
later run is checked against what it writes.  It runs each workload at
full and smoke size, and refuses to write when two runs disagree on an
item they share: the pool's reports at jobs=2 against the sweep's at
jobs=1, or the analyze reports under two different seeds.  It also
cross-checks the enumerator's class counts against the catalog.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, ROOT, spawn

FREEZE_DEADLINE_S = 600
# expected/<file>.json holds the items whose name starts with <prefix>:
FILES = {"claim": "claims", "enumerate": "enumeration",
         "analyze": "analyze", "catalog": "files", "read": "files",
         "construct": "files", "witness": "files"}


def main() -> int:
    observed: dict = {}
    runs = [(w, s, smoke) for w in ("sweep", "pool", "files")
            for s, smoke in ((1, False), (1, True))]
    runs += [("analyze", s, smoke) for s in (1, 2) for smoke in (False, True)]
    for workload, seed, smoke in runs:
        out = spawn(workload, seed, "freeze",
                    time.monotonic() + FREEZE_DEADLINE_S, smoke=smoke)
        failed = [r for r in out["items"] if r[2] is not None]
        if failed:
            print(f"{workload}: items failed: {failed}", file=sys.stderr)
            return 1
        for name, value in out["observed"].items():
            if observed.setdefault(name, value) != value:
                print(f"{name}: runs disagree", file=sys.stderr)
                return 1
        print(f"{workload} seed {seed}{' smoke' if smoke else ''}: "
              f"{len(out['observed'])} items")

    sys.path.insert(0, str(ROOT / "src"))
    import cent_atlas as ca
    for n in ca.catalog.covered_orders(12):
        if observed[f"enumerate:{n}"] != len(ca.groups_of_covered_order(n)):
            print(f"order {n}: enumerator and catalog disagree",
                  file=sys.stderr)
            return 1

    by_file: dict[str, dict] = {}
    for name in sorted(observed):
        by_file.setdefault(FILES[name.split(":", 1)[0]], {})[name] = \
            observed[name]
    (HERE / "expected").mkdir(exist_ok=True)
    for stem, items in by_file.items():
        path = HERE / "expected" / f"{stem}.json"
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in items.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(items)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
