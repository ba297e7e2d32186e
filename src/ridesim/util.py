"""Small shared helpers, and the one CSV reader and writer."""

import csv
import io


def read_input(path, fail) -> str:
    """The text of the UTF-8 input file at ``path`` (a ``Path``), line ends
    as written. Raises ``fail(why)`` when it is not a regular file or
    cannot be read or decoded."""
    if not path.is_file():
        raise fail("not found")
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise fail(f"unreadable ({exc})") from None


def fmt_num(x) -> str:
    """Format a number for CSV output: an int exactly, integral values
    without a trailing ``.0``, everything else via the shortest round-trip
    float repr."""
    if type(x) is int:      # not bool; float() would round ids above 2**53
        return str(x)
    f = float(x)
    return str(int(f)) if f.is_integer() else repr(f)


def cell(value) -> str:
    """The CSV text of one value: None empty, a bool ``true``/``false``, a
    float as ``fmt_num`` writes it, anything else ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_num(value)
    return str(value)


def read_csv(path, header, types, fail):
    """Yield ``(line, row)`` for each data row of the CSV file at ``path``
    (a ``Path``): ``line`` is the row's physical line number and ``row`` the
    tuple of its fields, each converted by the matching callable of
    ``types``. The first line must equal ``header``; blank lines are
    skipped. A problem raises ``fail(why, line)``, with ``line`` None when
    it concerns the whole file (unreadable, wrong header)."""
    text = read_input(path, lambda why: fail(f"file {why}", None))
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        got = next(rows, None)
        if got != header:
            raise fail(f"expected header {','.join(header)}, got "
                       f"{','.join(got) if got else '<empty file>'}", None)
        end = rows.line_num
        for row in rows:
            line, end = end + 1, rows.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise fail(f"has {len(row)} fields, expected {len(header)} fields",
                           line)
            try:
                fields = tuple(conv(value) for conv, value in zip(types, row))
            except ValueError:
                raise fail(f"malformed row {row!r}", line) from None
            yield line, fields
    except csv.Error as exc:
        raise fail(f"malformed CSV ({exc})", rows.line_num) from None


def write_csv(path, header, rows, eol) -> None:
    """Write ``header`` and then ``rows``, each a sequence of raw values
    formatted by ``cell``, to the CSV file at ``path``; every line ends in
    ``eol``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator=eol)
        w.writerow(header)
        w.writerows([cell(v) for v in row] for row in rows)
