"""Small shared helpers."""


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
