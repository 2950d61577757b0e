"""Text form of every output file and of the policy files read back.

Floats are written with %.17g, which round-trips every double, so a
rerun reproduces a file byte for byte and a re-read gives back the
bits that were written.
"""

from __future__ import annotations


def fmt(v) -> str:
    """A float at full precision; anything else as str."""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-joined line of fields per row."""
    lines = [header] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def kv_text(pairs) -> str:
    """One key=value line per (key, value) pair."""
    return "".join(f"{k}={fmt(v)}\n" for k, v in pairs)


def read_rows(text: str, header: str):
    """Yield (line, fields) for each nonblank line after the header.

    Raises ValueError when the first line is not `header` or a line has
    another number of fields, quoting the line.
    """
    lines = [ln for ln in text.strip().splitlines() if ln] or [""]
    if lines[0] != header:
        raise ValueError(f"unexpected policy header: {lines[0]!r}, "
                         f"expected {header!r}")
    width = header.count(",") + 1
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != width:
            raise ValueError(f"policy line {ln!r}: {len(fields)} fields, "
                             f"expected {width}")
        yield ln, fields
