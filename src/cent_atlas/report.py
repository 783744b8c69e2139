"""Per-group analysis reports, renderers, and canonical file formats.

The group file is JSON {"order": n, "label": str|null, "table": [[...]]}
with the identity at index 0; the permutation-generator file is
{"degree": d, "generators": [[...], ...]}.  ``read_group_file`` accepts
either and always revalidates the group axioms.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .claims import CapabilityVerdict, capable
from .core import Group, from_cayley_table, from_permutation_generators
from .errors import BadParameters, InconsistentInvariants
from .invariants import (
    abelian_profile,
    cent_structure,
    derived_subgroup,
    frobenius_structure,
    is_prime,
    omega,
    sylow,
)

__all__ = [
    "AnalysisReport",
    "analyze",
    "catalog_filename",
    "group_to_jsonable",
    "read_group_file",
    "render_csv",
    "render_markdown",
    "write_group_file",
]


@dataclass(frozen=True)
class AnalysisReport:
    """All computed quantities for one group, in a fixed field order."""

    label: str
    order: int
    center_order: int
    derived_order: int
    cent_count: int
    omega: int
    is_ca: bool
    abelian_kind: str
    invariant_factors: tuple[int, ...] | None
    sylow_counts: tuple[tuple[int, int], ...]
    frobenius: tuple[int, int, bool] | None
    capability: CapabilityVerdict

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "order": self.order,
            "center_order": self.center_order,
            "derived_order": self.derived_order,
            "cent_count": self.cent_count,
            "omega": self.omega,
            "is_ca": self.is_ca,
            "abelian_profile": {
                "kind": self.abelian_kind,
                "invariant_factors": (
                    list(self.invariant_factors)
                    if self.invariant_factors is not None else None),
            },
            "sylow_counts": [list(pair) for pair in self.sylow_counts],
            "frobenius": (
                None if self.frobenius is None else {
                    "kernel_order": self.frobenius[0],
                    "complement_order": self.frobenius[1],
                    "complement_is_cyclic": self.frobenius[2],
                }),
            "capability": {
                "status": self.capability.status,
                "rule": self.capability.rule,
                "detail": self.capability.detail,
            },
        }


def analyze(g: Group) -> AnalysisReport:
    """Compute the full report; raises InconsistentInvariants if the
    centralizer count disagrees with the clique bound on a CA-group."""
    cs = cent_structure(g)
    w = omega(g)
    if cs.is_ca and cs.count != w + 1:
        raise InconsistentInvariants(
            f"{g.label or 'group'} of order {g.order}: CA with "
            f"cent_count={cs.count} but omega={w}")
    prof = abelian_profile(g)
    primes = sorted(p for p in range(2, g.order + 1)
                    if is_prime(p) and g.order % p == 0)
    syl = tuple((p, sylow(g, p).count) for p in primes)
    fro = frobenius_structure(g)
    fro_summary = None
    if fro is not None:
        fro_summary = (len(fro.kernel), len(fro.complement),
                       fro.complement_is_cyclic)
    return AnalysisReport(
        label=g.label,
        order=g.order,
        center_order=len(cs.center),
        derived_order=len(derived_subgroup(g)),
        cent_count=cs.count,
        omega=w,
        is_ca=cs.is_ca,
        abelian_kind=prof.kind,
        invariant_factors=prof.invariant_factors,
        sylow_counts=syl,
        frobenius=fro_summary,
        capability=capable(g),
    )


def render_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_jsonable(), indent=2)


def render_markdown(report: AnalysisReport) -> str:
    data = report.to_jsonable()
    lines = [f"# {report.label or 'group'} (order {report.order})", "",
             "| field | value |", "| --- | --- |"]
    for key, value in data.items():
        if key == "label":
            continue
        lines.append(f"| {key} | {_flat(value)} |")
    return "\n".join(lines) + "\n"


def render_csv(report: AnalysisReport) -> str:
    data = report.to_jsonable()
    header = ",".join(data)
    row = ",".join(_csv_cell(_flat(v)) for v in data.values())
    return header + "\n" + row + "\n"


def _flat(value: Any) -> str:
    if isinstance(value, dict):
        return "; ".join(f"{k}={_flat(v)}" for k, v in value.items())
    if isinstance(value, list):
        return "; ".join(_flat(v) for v in value)
    return str(value)


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def group_to_jsonable(g: Group) -> dict[str, Any]:
    return {
        "order": g.order,
        "label": g.label or None,
        "table": g.table.tolist(),
    }


def write_group_file(g: Group, path: str | Path) -> None:
    payload = json.dumps(group_to_jsonable(g), separators=(",", ":"))
    Path(path).write_text(payload + "\n")


def read_group_file(path: str | Path,
                    order_cap: int | None = None) -> Group:
    """Load and revalidate a group or permutation-generator file."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise BadParameters(f"{path}: expected a JSON object")
    if "table" in raw:
        return from_cayley_table(raw["table"], label=raw.get("label") or "",
                                 order_cap=order_cap)
    if "generators" in raw:
        gens = [tuple(p) for p in raw["generators"]]
        degree = raw.get("degree")
        if degree is not None and any(len(p) != degree for p in gens):
            raise BadParameters(
                f"{path}: generator length disagrees with degree {degree}")
        return from_permutation_generators(gens, label=raw.get("label") or "",
                                           order_cap=order_cap)
    raise BadParameters(f"{path}: neither a group nor a permutation file")


def catalog_filename(index: int, g: Group) -> str:
    slug = re.sub(r"-+", "-", re.sub(r"[^A-Za-z0-9._]", "-", g.label)).strip("-")
    return f"{g.order}_{index}_{slug or 'group'}.json"
