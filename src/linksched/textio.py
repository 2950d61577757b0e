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


def csv_lines(rows):
    """One comma-joined, newline-ended line of fields per row, lazily."""
    return (",".join(fmt(v) for v in row) + "\n" for row in rows)


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-joined line of fields per row."""
    return header + "\n" + "".join(csv_lines(rows))


def kv_text(pairs) -> str:
    """One key=value line per (key, value) pair."""
    return "".join(f"{k}={fmt(v)}\n" for k, v in pairs)


def read_rows(text: str, header: str, converters):
    """Yield (line, values) for each nonblank line after the header,
    values[i] being converters[i] applied to field i.

    Raises ValueError when the first line is not `header`, a line has
    another number of fields or a field does not convert, quoting the
    line.
    """
    lines = [ln for ln in text.strip().splitlines() if ln] or [""]
    if lines[0] != header:
        raise ValueError(f"unexpected policy header: {lines[0]!r}, "
                         f"expected {header!r}")
    names = header.split(",")
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(names):
            raise ValueError(f"policy line {ln!r}: {len(fields)} fields, "
                             f"expected {len(names)}")
        values = []
        for name, conv, field in zip(names, converters, fields):
            try:
                values.append(conv(field))
            except ValueError:
                raise ValueError(f"policy line {ln!r}: {name}={field!r} does "
                                 f"not parse as {conv.__name__}") from None
        yield ln, values
