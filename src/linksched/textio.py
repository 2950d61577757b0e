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


def line_format(*types) -> str:
    """The str.format template of one csv_lines line whose fields have
    these types, in order: %.17g where a type is float, str elsewhere.
    Its format(*row) is the line, one call a row, not one a field."""
    return ",".join("{:.17g}" if t is float else "{}" for t in types) + "\n"


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-joined line of fields per row."""
    return header + "\n" + "".join(csv_lines(rows))


def kv_text(pairs) -> str:
    """One key=value line per (key, value) pair."""
    return "".join(f"{k}={fmt(v)}\n" for k, v in pairs)


# lines split at once: splitting all 3263 lines of a K=2000 threshold
# file together kept the peak RSS of repeated passes 1.4 MiB higher
READ_LINES = 512


def nonblank_lines(text: str) -> list[str]:
    """The nonempty lines of text once its ends are stripped, or [""]
    when it has none; the first is a policy file's header line."""
    return [ln for ln in text.strip().splitlines() if ln] or [""]


def read_columns(text: str, header: str, converters, tops):
    """The fields of the nonblank lines after the header, one list per
    field: list i holds converters[i] of field i, in line order, and,
    where tops[i] is not None, an index in 0..tops[i].

    Raises ValueError when the first line is not `header`, or quoting
    the first line with another number of fields, a field that does not
    convert or an index out of range (its fields checked in order).
    Columns convert READ_LINES lines at a time; only a file with a bad
    line is read again line by line, to name it.
    """
    lines = nonblank_lines(text)
    if lines[0] != header:
        raise ValueError(f"unexpected policy header: {lines[0]!r}, "
                         f"expected {header!r}")
    names = header.split(",")
    columns = [[] for _ in names]
    try:
        for at in range(1, len(lines), READ_LINES):
            rows = [ln.split(",") for ln in lines[at:at + READ_LINES]]
            if not set(map(len, rows)) <= {len(names)}:
                raise ValueError("a line has another number of fields")
            for column, conv, fields in zip(columns, converters, zip(*rows)):
                column += map(conv, fields)
        if all(top is None or not col or 0 <= min(col) and max(col) <= top
               for col, top in zip(columns, tops)):
            return columns
    except ValueError:
        pass
    for ln in lines[1:]:
        _check_line(ln, names, converters, tops)
    raise AssertionError("a column failed but no line did")


def _check_line(line: str, names, converters, tops) -> None:
    """Raise ValueError quoting `line` at its first fault: its field
    count, then each field's conversion, then each index's range."""
    fields = line.split(",")
    if len(fields) != len(names):
        raise ValueError(f"policy line {line!r}: {len(fields)} fields, "
                         f"expected {len(names)}")
    values = []
    for name, conv, field in zip(names, converters, fields):
        try:
            values.append(conv(field))
        except ValueError:
            raise ValueError(f"policy line {line!r}: {name}={field!r} does "
                             f"not parse as {conv.__name__}") from None
    for name, v, top in zip(names, values, tops):
        if top is not None and not 0 <= v <= top:
            raise ValueError(
                f"policy line {line!r}: {name}={v} outside 0..{top}")
