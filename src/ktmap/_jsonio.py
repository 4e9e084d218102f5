"""Stage files written whole, and the JSON ones as json.dump(indent=2,
sort_keys=True) writes them, without its pure-Python encoder."""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from typing import TextIO


@contextmanager
def written(path) -> Iterator[TextIO]:
    """A text file to write `path` through: it is opened at a temporary
    name in the same directory, moved onto `path` (os.replace) when the
    block ends, and removed if the block raises, so `path` is either left
    as it was or holds the whole text."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(temporary, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def write_json(path, doc) -> None:
    """Write `doc` as json.dump(doc, indent=2, sort_keys=True) does, and a
    newline. The text is encoded here (``_json_text``), not by
    ``json.dump``: its pure-Python indented encoder leaves a few dozen
    objects of cyclic garbage per call, which the paused collector would
    keep until the caller's next pass. The text goes to the file's buffer
    piece by piece: joined first, report.json's text raised a planted
    report's peak RSS by about 0.7 MB. The file is written whole
    (``written``)."""
    with written(path) as fh:
        _json_text(doc, "\n", fh.write)
        fh.write("\n")


def _json_text(value, newline: str, write: Callable[[str], object]) -> None:
    """Pass to `write` the text json.dumps(value, indent=2,
    sort_keys=True) gives, nested at `newline` ("\\n" and the current
    indent): strings ASCII-escaped, floats by float.__repr__ or as NaN,
    Infinity and -Infinity, tuples as arrays. A dict key that is not a
    str, or a value of any other type, raises TypeError."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        write(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        write(_int_text(value))
    elif isinstance(value, float):
        write(float.__repr__(value) if math.isfinite(value)
              else "NaN" if value != value
              else "Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _json_text(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(sep + encode_basestring_ascii(key) + ": ")
            _json_text(value[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _int_text(value: int) -> str:
    """An int's decimal digits, also beyond the interpreter's limit on int
    to str conversion (sys.get_int_max_str_digits()), which is left as it
    is: an SPC main path's exact counts can outgrow it."""
    try:
        return int.__repr__(value)
    except ValueError:
        import decimal  # only here: a report does not load it otherwise

        return str(decimal.Decimal(value))


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
