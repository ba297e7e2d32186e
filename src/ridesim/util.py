"""Small shared helpers, and the one CSV reader and writer."""

import csv
import io
import math
import re

from ridesim.errors import ConfigError


def read_input(path, fail) -> str:
    """The text of the UTF-8 input file at ``path`` (a ``Path``), line ends
    as written. Raises ``fail(why)`` when it is missing, is not a regular
    file (a directory, a pipe) or cannot be read or decoded."""
    if not path.is_file():
        raise fail("is not a regular file" if path.exists() else "not found")
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise fail(f"unreadable ({exc})") from None


def fmt_num(x) -> str:
    """Format a number for CSV output: an int exactly, integral values
    without a trailing ``.0``, everything else via the shortest round-trip
    float repr."""
    if type(x) is not float:
        if type(x) is int:      # not bool; float() would round ids above 2**53
            return str(x)
        x = float(x)
    return repr(x) if not x.is_integer() else str(int(x))


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


_INTEGER = re.compile(r"-?[0-9]+")
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def integer(text: str) -> int:
    """The int ``text`` spells as an optional ``-`` and ASCII digits;
    ValueError for anything else."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def number(text: str) -> float:
    """The finite float ``text`` spells as an optional ``-``, ASCII digits,
    an optional ``.`` and digits, and an optional exponent (``e`` or ``E``,
    an optional sign, digits); ValueError for anything else. Reads back
    every finite number ``fmt_num`` writes."""
    if _NUMBER.fullmatch(text):
        value = float(text)
        if math.isfinite(value):
            return value
    raise ValueError(f"not a finite number: {text!r}")


def read_csv(path, header, types):
    """Yield ``(line, row)`` for each data row of the CSV file at ``path``
    (a ``Path``): ``line`` is the row's physical line number and ``row`` the
    tuple of its fields, each converted by the matching callable of
    ``types`` (a ValueError marks a malformed row). The first line must
    equal ``header``; blank lines are skipped. A problem raises a
    ``ConfigError`` whose path is ``<file>`` for the whole file (unreadable,
    wrong header) and ``<file>:row N`` for a row."""
    text = read_input(path, lambda why: ConfigError(str(path), f"file {why}"))
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        got = next(rows, None)
        if got != header:
            raise ConfigError(str(path), f"expected header {','.join(header)}, got "
                              f"{','.join(got) if got else '<empty file>'}")
        end = rows.line_num
        for row in rows:
            line, end = end + 1, rows.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"{path}:row {line}", f"has {len(row)} fields, "
                                  f"expected {len(header)} fields")
            try:
                fields = tuple(conv(value) for conv, value in zip(types, row))
            except ValueError:
                raise ConfigError(f"{path}:row {line}", f"malformed row {row!r}") from None
            yield line, fields
    except csv.Error as exc:
        raise ConfigError(f"{path}:row {rows.line_num}",
                          f"malformed CSV ({exc})") from None


def write_csv(path, header, rows, eol) -> None:
    """Write ``header`` and then ``rows``, each a sequence of raw values
    formatted by ``cell``, to the CSV file at ``path``; every line ends in
    ``eol``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator=eol)
        w.writerow(header)
        w.writerows([cell(v) for v in row] for row in rows)
