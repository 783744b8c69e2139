"""Per-group analysis reports, renderers, and canonical file formats.

The group file is JSON {"order": n, "label": str|null, "table": [[...]]}
with the identity at index 0; the permutation-generator file is
{"degree": d, "generators": [[...], ...]}.  ``write_group_file`` emits
compact one-line JSON without building a Python list of the table;
``read_group_file`` reads that layout by a fast path, in blocks of about
1 MB parsed on two threads, each chunk with one GIL-held
``bytes.translate`` and numpy passes that free the GIL, straight into
one int32 table that the validation gate takes over without a copy,
accepts any other valid JSON for either kind through ``json.loads``, and
always revalidates the group axioms.
"""

from __future__ import annotations

import io
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .claims import CapabilityVerdict, _field_values, capable
from .core import (
    Group,
    _check_order_cap,
    _ragged,
    _row_blocks,
    _validated,
    from_permutation_generators,
)
from .errors import (
    BadGroupFile,
    BadParameters,
    InconsistentInvariants,
    OrderCapExceeded,
)
from .invariants import (
    AbelianProfile,
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
    "group_file_chunks",
    "group_to_jsonable",
    "read_group_file",
    "render_csv",
    "render_markdown",
    "write_group_file",
]


@dataclass(frozen=True)
class AnalysisReport:
    """All computed quantities for one group; its fields, in order, are
    the keys of its JSON form."""

    label: str
    order: int
    center_order: int
    derived_order: int
    cent_count: int
    omega: int
    is_ca: bool
    abelian_profile: AbelianProfile
    sylow_counts: tuple[tuple[int, int], ...]
    frobenius: tuple[int, int, bool] | None  # kernel, complement, cyclic
    capability: CapabilityVerdict

    def to_jsonable(self) -> dict[str, Any]:
        """The fields as JSON values, made fresh on every call: the
        profile without its prime, each Sylow pair as a list, and the
        Frobenius triple and the verdict as objects."""
        prof, fro = self.abelian_profile, self.frobenius
        return {**_field_values(self),
                "abelian_profile": {"kind": prof.kind,
                                    "invariant_factors": list(prof.invariant_factors)},
                "sylow_counts": [list(pair) for pair in self.sylow_counts],
                "frobenius": None if fro is None else dict(zip(
                    ("kernel_order", "complement_order", "complement_is_cyclic"), fro)),
                "capability": _field_values(self.capability)}


def analyze(g: Group) -> AnalysisReport:
    """Compute the full report; raises InconsistentInvariants if the
    centralizer count disagrees with the clique bound on a CA-group."""
    cs = cent_structure(g)
    w = omega(g)
    if cs.is_ca and cs.count != w + 1:
        raise InconsistentInvariants(
            f"{g.label or 'group'} of order {g.order}: CA with "
            f"cent_count={cs.count} but omega={w}")
    fro = frobenius_structure(g)
    return AnalysisReport(
        label=g.label,
        order=g.order,
        center_order=len(cs.center),
        derived_order=len(derived_subgroup(g)),
        cent_count=cs.count,
        omega=w,
        is_ca=cs.is_ca,
        abelian_profile=abelian_profile(g),
        sylow_counts=tuple((p, sylow(g, p).count)
                           for p in sorted(factor(g.order))),
        frobenius=None if fro is None else (
            len(fro.kernel), len(fro.complement), fro.complement_is_cyclic),
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


def group_file_chunks(g: Group) -> Iterator[bytes]:
    """The group file of g as ASCII blocks, byte for byte
    ``json.dumps(group_to_jsonable(g), separators=(",", ":")) + "\n"``.

    The header comes from ``json.dumps``, so the label is escaped as JSON
    escapes it.  The table is formatted a ``_row_blocks`` run (at most
    ``_CLOSE_BLOCK`` cells, 2 MB of 8-byte words) at a time, through a
    lookup of ``"i,"`` and ``"i],["`` for i < n, each token NUL-padded to
    whole 8-byte words and gathered as one opaque item: one word per cell
    below order 10^5 (the 8-byte ``"99999],["``), two from there on by the
    same rounding.  A block is one gather, then the NULs dropped by
    ``bytes.translate``.  No table becomes a Python list.
    """
    n = g.order
    head = json.dumps({"order": n, "label": g.label or None, "table": [[]]},
                      separators=(",", ":"))
    yield head[:-3].encode("ascii")  # up to and including "table":[[
    digits = [str(i) for i in range(n)]
    width = -(-(len(digits[-1]) + 3) // 8) * 8
    lut = np.array([d + "," for d in digits] + [d + "],[" for d in digits],
                   dtype=f"S{width}").view(f"V{width}")
    for rows in _row_blocks(n, n):
        idx = g.table[rows].astype(np.intp)
        idx[:, -1] += n  # each row's last cell closes the row with "],["
        chunk = lut[idx].tobytes().translate(None, b"\0")
        # the last row ends "]]}" instead of "],["
        yield chunk if rows.stop < n else chunk[:-2] + b"]}\n"


def write_group_file(g: Group, path: str | Path) -> None:
    """Write g as compact one-line JSON, streamed a row block at a time
    (see ``group_file_chunks``)."""
    with open(path, "wb") as fh:
        fh.writelines(group_file_chunks(g))


_CANONICAL_HEAD = re.compile(
    rb'\{"order":(0|[1-9][0-9]{0,8}),"label":(null|".*")', re.DOTALL)
_CANONICAL_TABLE = b',"table":[['
_CANONICAL_END = b"]]}\n"
# bytes read at a time by the fast path: about 1 MB, so that what it holds
# besides the table stays small at every order
_READ_BLOCK = 1 << 20
# a translate table keeping digits and commas and blanking every other byte
_BLANK_ALL_BUT_CELLS = bytes(b if b in b"0123456789," else ord(" ")
                             for b in range(256))


def _row_chunks(fh: BinaryIO, rest: bytes) -> Iterator[bytes]:
    """The table of a canonical file as chunks of whole rows joined by
    ``],[``: ``rest`` (the start of the table, after its ``[[``) and then
    the rest of ``fh`` in blocks of ``_READ_BLOCK`` bytes, each chunk cut
    at the last row break of its newest block, so a break that straddles
    two blocks stays inside a chunk.  One join copies each byte once.
    The last chunk runs up to the closing ``]]}`` and newline; it is
    empty if the file ends otherwise."""
    parts = [rest]
    while block := fh.read(_READ_BLOCK):
        cut = block.rfind(b"],[")
        if cut < 0:
            parts.append(block)
            continue
        view = memoryview(block)
        yield b"".join((*parts, view[:cut]))
        parts = [view[cut + 3:]]
    tail = b"".join(parts)
    yield tail[:-len(_CANONICAL_END)] if tail.endswith(_CANONICAL_END) else b""


def _parse_rows(chunk: bytes) -> np.ndarray | None:
    """The rows of one chunk as a k x n int32 array, or None unless the
    chunk is k rows of n canonical tokens joined by ``],[``, for some n.

    One ``bytes.translate`` blanks every byte but digits and commas, so a
    row break ``],[`` reads as `` , ``; every other pass is numpy's and
    leaves the GIL free for the other thread.  The k - 1 ``]`` give k.
    Each must open a ``],[`` with a digit on both sides, and the blanks
    must be those breaks' brackets alone: then every byte is a digit, a
    comma or in a break, and no token is blank (numpy reads a blank token
    as 0, a digit no byte accounts for, which a leading zero elsewhere
    could offset).  ``np.fromstring`` raises ``ValueError`` on an empty
    token (numpy 2), but older numpy may warn and return the values before
    it.  Every token is at least as long as its value's decimal digits,
    and longer exactly when it has a leading zero or wrapped in int32 (ten
    or more digits), so a short parse leaves bytes that no value accounts
    for.  The last check therefore rejects it on its own, without the
    exception: the values must come k rows of n, and with each row's digit
    widths summed, every row's ``]`` must fall where its values put it and
    the last row must end where the chunk does.
    """
    raw = np.frombuffer(chunk, dtype=np.uint8)
    close = np.flatnonzero(raw == ord("]"))
    k = close.size + 1
    # a digit first, and room for "],[" and a digit after each "]"
    if not chunk[:1].isdigit() or k > 1 and close[-1] > len(chunk) - 4:
        return None
    around = raw[close[:, None] + np.arange(-1, 4)]  # a digit, "],[", a digit
    text = chunk.translate(_BLANK_ALL_BUT_CELLS)
    if (around[:, 1:4].tobytes() != b"],[" * (k - 1)
            or not (around[:, ::4] - ord("0") < 10).all()
            or np.count_nonzero(np.frombuffer(text, dtype=np.uint8)
                                == ord(" ")) != 2 * (k - 1)):
        return None
    try:  # an empty token, or not k rows' worth of values
        rows = np.fromstring(text, dtype=np.int32, sep=",").reshape(k, -1)
    except ValueError:
        return None
    del text
    top = int(rows.max())
    if rows.min() < 0 or top >= 10 ** 9:
        return None
    n = rows.shape[1]
    widths = np.full(k, n)
    for j in range(1, len(str(top))):
        widths += np.count_nonzero(rows >= 10 ** j, axis=1)
    # each row's digits, n - 1 commas and then "],[": where its "]" falls
    ends = np.cumsum(widths + n + 2) - 3
    if ends[-1] != len(chunk) or not np.array_equal(ends[:-1], close):
        return None
    return rows


def _in_order(fn: Callable, blocks: Iterable) -> Iterator:
    """fn(b) for each b of ``blocks``, yielded in the order of ``blocks``.

    Two threads apply fn, with at most two results outstanding, while
    ``blocks`` is drawn on the caller's thread; a single block runs inline
    and starts no thread.  Its one caller is the fast path of
    ``_read_canonical``, where two threads parse a file of several blocks
    clearly faster than one, since ``_parse_rows`` holds the GIL only for
    one ``bytes.translate`` (H(5,31,2) on a 2-core host: about 0.30
    against 0.44 s); the gate, where they gave no clear gain, checks its
    row blocks on the calling thread.  Results and exceptions come back
    in block order, so the first fault in block order is the one
    reported, and a later block's is dropped.  The threads are joined
    when the generator ends, raises or is closed (which CPython does as
    soon as a caller drops it), after at most the two blocks in flight.
    """
    it = iter(blocks)
    head = list(islice(it, 2))
    if len(head) < 2:
        yield from map(fn, head)
        return
    with ThreadPoolExecutor(2) as pool:
        pending = [pool.submit(fn, b) for b in head]
        for b in it:
            done = pending.pop(0).result()
            pending.append(pool.submit(fn, b))
            yield done
        yield from (future.result() for future in pending)


def _read_canonical(fh: BinaryIO,
                    order_cap: int | None) -> dict[str, Any] | None:
    """A file in exactly ``write_group_file``'s layout as the dict
    ``json.loads`` makes of it, with the table as an int32 array; None for
    any other text.

    The layout is ``{"order":N,"label":L,"table":[[...],...,[...]]}`` and a
    newline, with no whitespace: L must be null or load as one JSON string,
    and the table must be n rows of n tokens, each ``0|[1-9][0-9]{0,8}``,
    so none can wrap in int32.  Any text accepted here parses under JSON
    to the same object.

    The file is read in blocks of ``_READ_BLOCK`` bytes.  The first row
    gives n; the n x n table is allocated once, only if n is within the
    order cap and the file is long enough to hold n such rows, and each
    block is parsed straight into its rows.  Past the cap the rest is
    still parsed, block by block into nothing, and a file in the layout
    raises OrderCapExceeded as ``from_cayley_table`` would; one that
    leaves the layout anywhere returns None, for ``json.loads`` to judge.
    A file of more than one block is parsed on two threads with at most
    two chunks outstanding while this thread reads on (``_in_order``);
    one block is parsed inline, by the same ``_parse_rows``.  Refusing
    H(5,31,2) (order 3875) at a cap of 2048 peaks at about 14 MiB of
    Python allocations.
    """
    head = bytearray()
    while (start := head.find(_CANONICAL_TABLE)) < 0:
        block = fh.read(_READ_BLOCK)
        head += block
        # an indented or spaced file leaves at once, not at its end
        if not block or not head.startswith(b'{"order":'[:len(head)]):
            return None
    match = _CANONICAL_HEAD.fullmatch(head[:start])
    if not match:
        return None
    try:  # null, or one JSON string
        label = json.loads(match[2].decode("utf-8"))
    except ValueError:
        return None
    start += len(_CANONICAL_TABLE)
    size = fh.seek(0, os.SEEK_END)
    fh.seek(len(head))
    table, n, done = None, 0, 0
    for rows in _in_order(_parse_rows, _row_chunks(fh, bytes(head[start:]))):
        if rows is None:
            return None
        if not n:
            n = rows.shape[1]
            # n rows of n one-digit tokens, the shortest canonical table
            if size - start < 2 * n * n + 2 * n - 3 + len(_CANONICAL_END):
                return None
            try:  # raised again below if the whole file is in the layout
                _check_order_cap(n, order_cap)
                table = np.empty((n, n), dtype=np.int32)
            except (BadParameters, OrderCapExceeded):
                pass
        if rows.shape[1] != n or done + len(rows) > n:
            return None
        if table is not None:
            table[done:done + len(rows)] = rows
        done += len(rows)
    if done != n:
        return None
    if table is None:
        _check_order_cap(n, order_cap)
    return {"order": int(match[1]), "label": label, "table": table}


def read_group_file(path: str | Path,
                    order_cap: int | None = None) -> Group:
    """Load and revalidate a group or permutation-generator file.

    The file is read as UTF-8.  A file in exactly ``write_group_file``'s
    layout is parsed by a fast path straight to an int32 table, which the
    gate of ``from_cayley_table`` then checks in place of a copy: at order
    n that path holds the 4 n^2 byte table and O(n) more besides blocks
    of about 1 MB.  A file of more than one block is parsed on two
    threads with at most two blocks outstanding, and the table is checked
    on the calling thread; reading and checking H(5,31,2) takes about
    0.4 s (0.53 s on one thread) and peaks at about 71 MiB, its 57 MiB
    table included.  Any other text goes through ``json.loads``, and both
    meet the same checks below, so which files load and every error
    message are the same either way.

    A group file's "label" must be a string or null, its "order" (when
    present) the table's size, and its table free of JSON booleans, which
    numpy would read as 0 and 1 next to integers.  A permutation file's
    "generators" must be a list of lists and its "degree" (when present)
    an integer.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: hold its bytes to read them twice
            fh = io.BytesIO(fh.read())
        raw = _read_canonical(fh, order_cap)
        text = ""
        if raw is None:
            fh.seek(0)
            try:
                text = fh.read().decode("utf-8")
                if "\r" in text:  # universal newlines, as text mode gives
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                raw = json.loads(text)
            except ValueError as exc:  # also int-string limits in json.loads
                raise BadGroupFile(f"{path}: {exc}") from exc
    # the exact boolean scan below costs about a tenth of a load, so it
    # runs only where a JSON boolean can be
    maybe_bool = "true" in text or "false" in text
    del text
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
        try:
            table = np.asarray(raw["table"])
        except ValueError:  # numpy's rows-of-unequal-length error
            raise BadGroupFile(
                f"{path}: field 'table' is {_ragged(raw['table'])}") from None
        del raw["table"]  # frees the JSON lists before the gate runs
        # the gate owns the array: the fast path's fresh table, or a fresh
        # array made of the JSON lists, is not copied again
        g = _validated(table, label or "", order_cap)
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
    """``<order>_<index>_<slug>.json``: the slug is the label with each run
    of characters other than letters, digits, ``.`` and ``_`` made one
    ``-`` and trimmed, or ``group`` when that leaves nothing or the label
    is None."""
    slug = re.sub(r"-+", "-", re.sub(r"[^A-Za-z0-9._]", "-", g.label or "")).strip("-")
    return f"{g.order}_{index}_{slug or 'group'}.json"
