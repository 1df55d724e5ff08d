"""Halfspace-representation text format for the rate-region constants.

The format follows the convention of common vertex-enumeration tools:
each row ``b a_1 ... a_m`` encodes the halfspace b + a.x >= 0, so a
constraint sum_{k in K} Q_k >= C_K becomes the row [-C_K, indicator(K)].
Rows are ordered by subset (size, lexicographic); sender order is kept
in a leading comment so the file round-trips losslessly.
"""
from __future__ import annotations

from .region import RegionConstants, RegionError


def export_h_representation(rc: RegionConstants) -> str:
    lines = [
        f"* senders: {' '.join(rc.senders)}",
        f"* reference: {rc.reference}",
        "H-representation",
        "begin",
        f" {len(rc.subsets)} {rc.m + 1} real",
    ]
    for b, row in zip(-rc.bounds, rc.incidence.astype(int).tolist()):
        lines.append(" " + " ".join([format(b, ".17g"), *map(str, row)]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_h_representation(text: str) -> RegionConstants:
    senders: tuple[str, ...] | None = None
    reference = "R"
    rows: list[list[float]] = []
    expect = None
    in_block = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("*"):
            body = line[1:].strip()
            if body.startswith("senders:"):
                senders = tuple(body.split(":", 1)[1].split())
            elif body.startswith("reference:"):
                reference = body.split(":", 1)[1].strip()
            continue
        if line in ("begin", "end"):
            in_block = line == "begin"
        if not in_block or line in ("begin", "H-representation"):
            continue  # outside the block, or a marker line
        fields = line.split()
        if expect is None:
            if len(fields) < 2:
                raise RegionError(f"malformed size line: {line!r}")
            expect = (int(fields[0]), int(fields[1]))
            continue
        rows.append([float(f) for f in fields])

    if expect is None:
        raise RegionError("no begin/size line found")
    n_rows, n_cols = expect
    if len(rows) != n_rows or any(len(r) != n_cols for r in rows):
        raise RegionError(f"expected {n_rows} rows of {n_cols} entries")
    m = n_cols - 1
    if senders is None:
        senders = tuple(f"Q{i + 1}" for i in range(m))
    if len(senders) != m:
        raise RegionError(f"{len(senders)} sender names for {m} columns")

    c = {}
    for row in rows:
        subset = frozenset(lab for lab, a in zip(senders, row[1:])
                           if abs(a - 1.0) < 1e-9)
        live = sum(1 for a in row[1:] if abs(a) > 1e-9)
        if len(subset) != live:
            raise RegionError(f"non-indicator row {row}")
        if not subset:
            raise RegionError("empty-subset row")
        if subset in c:
            raise RegionError(f"repeated row for subset {sorted(subset)}")
        c[subset] = -row[0]
    return RegionConstants(senders, reference, c)
