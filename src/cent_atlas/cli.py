"""Command-line front end.

Subcommands: construct, analyze, catalog, verify, witness.  Exit codes:

- 0 success or pass;
- 2 usage or parameter errors (including empty sweeps, an empty catalog
  such as ``catalog --max-order 7``, and exceeded order caps or search
  budgets), and input files of the wrong overall shape: a table that is
  not a nonempty square matrix, JSON that is not an object or has
  neither a "table" nor a "generators" field, and generators that are
  empty, not permutations, or of a length other than "degree";
- 3 every other invalid input file: unreadable, not UTF-8 or not JSON, a
  field of the wrong type or value, a ragged table, entries that are not
  integers in range, or a table that is not a group;
- 4 failed claims or witness checks.

Standard output is UTF-8 whatever the locale, as the files ``--out``
writes are.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import partial
from itertools import chain
from pathlib import Path

from . import catalog as _catalog
from .claims import (
    claim_index,
    report_to_jsonable,
    verify_claim,
    witness_check,
)
from .errors import (
    BadParameters,
    CentAtlasError,
    EmptySweep,
    OrderCapExceeded,
    UnknownClaim,
)
from .numbers import primes_up_to
from .report import (
    analyze,
    catalog_filename,
    group_file_chunks,
    read_group_file,
    render_csv,
    render_json,
    render_markdown,
    write_group_file,
)

__all__ = ["main"]

# analyze's renderers by --format value
_RENDERERS = {"json": render_json, "md": render_markdown, "csv": render_csv}
# the construct flags: every FAMILIES parameter, in first-seen order
_FAMILY_PARAMS = tuple(dict.fromkeys(
    name for _, names in _catalog.FAMILIES.values() for name in names))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cent-atlas",
        description="Construct finite groups, compute centralizer "
                    "structure, and verify claims over group catalogs.")
    sub = parser.add_subparsers(dest="command", required=True)
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--order-cap", type=int)
    add = partial(sub.add_parser, parents=[capped])  # all five take the cap

    p_con = add("construct", help="build a named group")
    p_con.add_argument("--family", required=True,
                       choices=tuple(_catalog.FAMILIES))
    for flag in _FAMILY_PARAMS:
        p_con.add_argument(f"--{flag}", type=int)
    p_con.add_argument("--out", help="output group file (default: stdout)")
    p_con.set_defaults(func=_cmd_construct)

    p_ana = add("analyze", help="report invariants of a group file")
    p_ana.add_argument("--in", dest="infile", required=True,
                       help="group or permutation-generator JSON file")
    p_ana.add_argument("--format", choices=tuple(_RENDERERS), default="json")
    p_ana.add_argument("--out", help="output file (default: stdout)")
    p_ana.set_defaults(func=_cmd_analyze)

    p_cat = add("catalog", help="emit classification lists")
    p_cat.add_argument("--max-order", type=int, required=True)
    p_cat.add_argument("--out-dir", required=True)
    p_cat.set_defaults(func=_cmd_catalog)

    p_ver = add("verify", help="run a claim sweep")
    p_ver.add_argument("--claim")
    p_ver.add_argument("--list", action="store_true",
                       help="list claims and exit")
    p_ver.add_argument("--jobs", type=int,
                       help="worker processes (default: all cores)")
    p_ver.add_argument("--max-order", type=int)
    p_ver.add_argument("--p-max", type=int)
    p_ver.add_argument("--q-max", type=int)
    p_ver.add_argument("--out", help="write the JSON report here")
    p_ver.set_defaults(func=_cmd_verify)

    p_wit = add("witness",
                help="check that cover/Z(cover) matches a target group")
    p_wit.add_argument("cover", help="group file for the covering group H")
    p_wit.add_argument("target", help="group file for the target G")
    p_wit.set_defaults(func=_cmd_witness)
    return parser


def _cmd_construct(args: argparse.Namespace) -> int:
    g = _catalog.build(args.family, order_cap=args.order_cap,
                       **{name: getattr(args, name) for name in _FAMILY_PARAMS})
    if args.out:
        write_group_file(g, args.out)
        print(f"{g.label}: order {g.order} written to {args.out}")
    else:
        for chunk in group_file_chunks(g):
            sys.stdout.write(chunk.decode("ascii"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = read_group_file(args.infile, order_cap=args.order_cap)
    report = analyze(g)
    rendered = _RENDERERS[args.format](report)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    orders = _catalog.catalog_orders(args.max_order, order_cap=args.order_cap)
    first = next(orders, None)
    if first is None:
        raise BadParameters(
            f"the catalog has no group of order at most {args.max_order}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for order, groups in chain([first], orders):
        for index, g in enumerate(groups, start=1):
            write_group_file(g, out_dir / catalog_filename(index, g))
            total += 1
    print(f"wrote {total} group files to {out_dir}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for entry in claim_index():
            print(f"{entry['claim_id']:4s} {entry['statement']}")
            print(f"     default sweep: {entry['sweep_default']}")
        return 0
    if not args.claim:
        raise BadParameters("verify needs --claim or --list")
    params: dict[str, object] = {}
    if args.max_order is not None:
        params["max_order"] = args.max_order
    if args.p_max is not None:
        params["p_list"] = tuple(primes_up_to(args.p_max))
    if args.q_max is not None:
        params["q_max"] = args.q_max
    if args.order_cap is not None:
        params["order_cap"] = args.order_cap
    report = verify_claim(args.claim, jobs=args.jobs, **params)
    if args.out:
        Path(args.out).write_text(
            json.dumps(report_to_jsonable(report), indent=2) + "\n",
            encoding="utf-8")
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.claim_id}: {status} "
          f"({report.instances_checked} instances, {report.elapsed:.2f}s)")
    if not report.passed:
        print(f"counterexample: {report.counterexample}")
    return 0 if report.passed else 4


def _cmd_witness(args: argparse.Namespace) -> int:
    cover = read_group_file(args.cover, order_cap=args.order_cap)
    target = read_group_file(args.target, order_cap=args.order_cap)
    result = witness_check(cover, target)
    name_h = cover.label or "H"
    name_g = target.label or "G"
    print(f"{name_h}/Z({name_h}) ~ {name_g}: {str(result.ok).lower()}")
    if result.ok and result.isomorphism is not None:
        for qi, coset in enumerate(result.cosets):
            members = ", ".join(str(x) for x in coset)
            print(f"  {{{members}}} -> {result.isomorphism[qi]}")
    return 0 if result.ok else 4


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    try:
        return args.func(args)
    except (UnknownClaim, EmptySweep, BadParameters, OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CentAtlasError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
