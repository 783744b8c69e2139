"""The benchmark's workloads: inputs made from a seed, and the items run on them.

An item is a name, a call into public ``cent_atlas`` functions (the timed
part) and an observation of its result (untimed).  The observation is
compared with the frozen expectation stored under the item's name in
``expected/``.  Calls go through module attributes at call time, so the
tracer's rebinding sees them.

Why each workload exists is recorded in BENCHMARK.json; in short:
``sweep`` is the paper's claim sweeps (construction, validation and
isomorphism search), ``analyze`` is invariant-heavy on relabelled tables,
``files`` is the untrusted-input path through the CLI (JSON I/O, memory
at large n), and ``pool`` is the only one that runs the process pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

import cent_atlas as ca
from cent_atlas import claims, cli
from tracer import CLAIM_IDS

POOL_CLAIMS = ("C0", "C3", "C4", "C9", "C9w", "C13")
POOL_JOBS = 2
# The smoke size keeps every kind of item but only the cheap instances.
SMOKE_CLAIMS = ("C1", "C5", "C11", "C12")

# Wall-clock cap per item, far above the slowest item of each workload at
# the commit the expectations were frozen at: C9w about 10 s, the D2048
# analyze about 1.5 s, the H(5,31,2) construct and witness about 5 s each.
ITEM_CAP_S = {"sweep": 60.0, "analyze": 20.0, "files": 60.0, "pool": 60.0}


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    observe: Callable[[Any], Any]


@dataclass
class Prepared:
    items: Iterable[Item]
    jobs: int
    cleanup: Callable[[], None] = lambda: None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(report: Any) -> str:
    """SHA-256 of the canonical report, as ``verify --out`` writes it."""
    text = json.dumps(claims.report_to_jsonable(report), indent=2) + "\n"
    return _sha256(text.encode())


def _claim_item(claim_id: str, jobs: int) -> Item:
    return Item(f"claim:{claim_id}",
                lambda: ca.verify_claim(claim_id, jobs=jobs), _report_digest)


def _enumerate_item(n: int) -> Item:
    return Item(f"enumerate:{n}", lambda: ca.enumerate_groups(n), len)


def prepare_sweep(seed: int, smoke: bool, jobs: int | None,
                  workdir: Path) -> Prepared:
    rng = random.Random(seed)
    jobs = 1 if jobs is None else jobs
    ids = SMOKE_CLAIMS if smoke else CLAIM_IDS
    items = [_claim_item(c, jobs) for c in ids]
    items += [_enumerate_item(n) for n in range(1, 7 if smoke else 13)]
    rng.shuffle(items)
    return Prepared(items, jobs)


def prepare_pool(seed: int, smoke: bool, jobs: int | None,
                 workdir: Path) -> Prepared:
    rng = random.Random(seed)
    jobs = POOL_JOBS if jobs is None else jobs
    ids = list(SMOKE_CLAIMS[:3] if smoke else POOL_CLAIMS)
    rng.shuffle(ids)
    return Prepared([_claim_item(c, jobs) for c in ids], jobs)


def analyze_groups(smoke: bool) -> list[tuple[str, Any]]:
    """(key, group) for every analyzed group, in a fixed order.

    S5, S3xA5 and S3xS4 are left out: omega takes from 8 s to minutes on
    them at the commit the expectations were frozen at.
    """
    max_order = 30 if smoke else 300
    out = []
    for order, groups in ca.catalog_by_order(max_order).items():
        for index, g in enumerate(groups, start=1):
            out.append((f"{order}_{index}_{g.label}", g))
    d8, q8, s4 = ca.dihedral(8), ca.dicyclic(8), ca.symmetric(4)
    out.append(("A5", ca.alternating(5)))
    if not smoke:
        out += [
            ("S4xD8", ca.direct_product(s4, d8)),
            ("S4xQ8", ca.direct_product(s4, q8)),
            ("D8xD8xD8", ca.direct_product(ca.direct_product(d8, d8), d8)),
            ("Q8xQ8xQ8", ca.direct_product(ca.direct_product(q8, q8), q8)),
            ("D2048", ca.dihedral(2048)),
        ]
    return out


def relabel(table: np.ndarray, rng: random.Random) -> np.ndarray:
    """The same group under a random bijection that keeps 0 at 0."""
    n = table.shape[0]
    perm = np.array([0] + rng.sample(range(1, n), n - 1), dtype=table.dtype)
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _analyze_item(key: str, label: str, table: np.ndarray) -> Item:
    return Item(f"analyze:{key}",
                lambda: ca.analyze(ca.from_cayley_table(
                    table, label=label)).to_jsonable(),
                lambda report: report)


def prepare_analyze(seed: int, smoke: bool, jobs: int | None,
                    workdir: Path) -> Prepared:
    rng = random.Random(seed)
    items = [_analyze_item(key, g.label, relabel(np.array(g.table), rng))
             for key, g in analyze_groups(smoke)]
    rng.shuffle(items)
    return Prepared(items, 1)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _files_digest(directory: Path) -> str:
    """One digest over the names and contents of every file in a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(_sha256(path.read_bytes()).encode())
    return h.hexdigest()


def _table_digest(g: Any) -> str:
    return _sha256(np.ascontiguousarray(g.table, dtype="<i4").tobytes())


# (catalog max order, constructions, witness cover, (p, q, m, k)): the
# witness target is C_p x metacyclic(q, m, k).
_FILES_FULL = (300,
               (("dihedral-2048", ["--family", "dihedral", "--n", "2048"]),
                ("witness-h-5-31-2", ["--family", "witness-h", "--p", "5",
                                      "--q", "31", "--i", "2"])),
               "witness-h-5-31-2", (5, 31, 5, 2))
_FILES_SMOKE = (30,
                (("dihedral-64", ["--family", "dihedral", "--n", "64"]),
                 ("witness-h-2-5-4", ["--family", "witness-h", "--p", "2",
                                      "--q", "5", "--i", "4"])),
                "witness-h-2-5-4", (2, 5, 2, 4))
_CAP = ["--order-cap", "4096"]


def prepare_files(seed: int, smoke: bool, jobs: int | None,
                  workdir: Path) -> Prepared:
    rng = random.Random(seed)
    max_order, constructions, cover, (p, q, m, k) = (
        _FILES_SMOKE if smoke else _FILES_FULL)
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed pass
    workdir.mkdir(parents=True)
    cat_dir = workdir / "catalog"
    target = ca.direct_product(ca.cyclic(p), ca.metacyclic(q, m, k))
    target_file = workdir / "target.json"
    ca.write_group_file(target, target_file)

    def items():
        yield Item(f"catalog:{max_order}",
                   lambda: run_cli(["catalog", "--max-order", str(max_order),
                                    "--out-dir", str(cat_dir)]),
                   lambda res: [res[0], _files_digest(cat_dir)])
        # A missing or extra file already fails the catalog item's digest.
        names = sorted(f.name for f in cat_dir.iterdir()) \
            if cat_dir.is_dir() else []
        rng.shuffle(names)
        for name in names:
            yield Item(f"read:{name}",
                       lambda path=cat_dir / name: ca.read_group_file(path),
                       _table_digest)
        for name, argv in constructions:
            path = workdir / f"{name}.json"
            yield Item(f"construct:{name}",
                       lambda argv=argv, path=path: run_cli(
                           ["construct", *argv, *_CAP, "--out", str(path)]),
                       lambda res, path=path: [res[0],
                                               _sha256(path.read_bytes())])
        yield Item(f"witness:{cover}",
                   lambda: run_cli(["witness", str(workdir / f"{cover}.json"),
                                    str(target_file), *_CAP]),
                   lambda res: [res[0], res[1].splitlines()[0]])

    return Prepared(items(), 1,
                    lambda: shutil.rmtree(workdir, ignore_errors=True))


PREPARE = {"sweep": prepare_sweep, "analyze": prepare_analyze,
           "files": prepare_files, "pool": prepare_pool}
