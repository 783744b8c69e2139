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

import numpy as np

from .claims import CapabilityVerdict, capable
from .core import Group, from_cayley_table, from_permutation_generators
from .errors import BadGroupFile, BadParameters, InconsistentInvariants
from .invariants import (
    abelian_profile,
    cent_structure,
    derived_subgroup,
    frobenius_structure,
    omega,
    sylow,
)
from .numbers import factor

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
    syl = tuple((p, sylow(g, p).count) for p in sorted(factor(g.order)))
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
    """Load and revalidate a group or permutation-generator file.

    A group file's "label" must be a string or null, its "order" (when
    present) the table's size, and its table free of JSON booleans, which
    numpy would read as 0 and 1 next to integers.  A permutation file's
    "generators" must be a list of lists and its "degree" (when present)
    an integer.
    """
    text = Path(path).read_text()
    raw = json.loads(text)
    # the exact boolean scan below costs about a tenth of a load, so it
    # runs only where a JSON boolean can be
    maybe_bool = "true" in text or "false" in text
    del text  # as large as the table: free it before the table is built
    if not isinstance(raw, dict):
        raise BadParameters(f"{path}: expected a JSON object")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise BadGroupFile(
            f"{path}: field 'label' must be a string or null, got {label!r}")
    if "table" in raw:
        if maybe_bool and any(
                type(v) is bool
                for v in np.asarray(raw["table"], dtype=object).flat):
            raise BadGroupFile(f"{path}: field 'table' has a boolean entry")
        g = from_cayley_table(raw["table"], label=label or "",
                              order_cap=order_cap)
        order = raw.get("order")
        if order is not None and (type(order) is not int or order != g.order):
            raise BadGroupFile(f"{path}: field 'order' is {order!r} but the "
                               f"table has {g.order} rows")
        return g
    if "generators" in raw:
        gens = raw["generators"]
        if not isinstance(gens, list) or not all(
                isinstance(p, list) for p in gens):
            raise BadGroupFile(
                f"{path}: field 'generators' must be a list of lists")
        gens = [tuple(p) for p in gens]
        degree = raw.get("degree")
        if degree is not None and type(degree) is not int:
            raise BadGroupFile(
                f"{path}: field 'degree' must be an integer, got {degree!r}")
        if degree is not None and any(len(p) != degree for p in gens):
            raise BadParameters(
                f"{path}: generator length disagrees with degree {degree}")
        return from_permutation_generators(gens, label=label or "",
                                           order_cap=order_cap)
    raise BadParameters(f"{path}: neither a group nor a permutation file")


def catalog_filename(index: int, g: Group) -> str:
    slug = re.sub(r"-+", "-", re.sub(r"[^A-Za-z0-9._]", "-", g.label)).strip("-")
    return f"{g.order}_{index}_{slug or 'group'}.json"
