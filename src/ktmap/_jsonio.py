"""Stage files written whole, the JSON ones as json.dump(indent=2,
sort_keys=True) writes them, without its pure-Python encoder, and copies
of files written before."""

from __future__ import annotations

import math
import os
import shutil
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
    newline; a ``JSONFile`` in it is written as its file's text. The text
    is encoded here (``_json_text``), not by ``json.dump``: its pure-Python
    indented encoder leaves a few dozen objects of cyclic garbage per call,
    which the paused collector would keep until the caller's next pass.
    The text goes to the file's buffer piece by piece: joined first,
    report.json's text raised a planted report's peak RSS by about 0.7 MB.
    The file is written whole (``written``)."""
    with written(path) as fh:
        _json_text(doc, "\n", fh.write, {})
        fh.write("\n")


class JSONFile:
    """A value of a document for write_json that write_json already wrote
    to the file at `path`: its text is copied from there, not encoded
    again."""

    __slots__ = ("path",)

    def __init__(self, path):
        self.path = path


def copy_file(source, path) -> None:
    """Write `path` as a byte copy of file `source`, whole (``written``)."""
    with open(source, "rb") as src, written(path) as fh:
        shutil.copyfileobj(src, fh.buffer)


def _json_text(value, newline: str, write: Callable[[str], object],
               ints: dict[int, str]) -> None:
    """Pass to `write` the text json.dumps(value, indent=2,
    sort_keys=True) gives, nested at `newline` ("\\n" and the current
    indent): strings ASCII-escaped, floats by float.__repr__ or as NaN,
    Infinity and -Infinity, tuples as arrays. `ints` keeps the digits of
    each int already written to the file, as an SPC main path repeats
    ints of thousands of digits. A JSONFile is its file's text, nested at
    `newline`. A dict key that is not a str, or a value of any other type,
    raises TypeError."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        write(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        text = ints.get(value)
        if text is None:
            text = ints[value] = _int_text(value)
        write(text)
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
            _json_text(item, inner, write, ints)
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
            _json_text(value[key], inner, write, ints)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, JSONFile):
        _nested_file_text(value.path, newline, write)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _nested_file_text(path, newline: str, write: Callable[[str], object]) -> None:
    """Pass to `write` the text of a file write_json wrote, without its
    final newline and with `newline` for each newline in it: the text its
    value has nested at `newline`. A newline in that text is one the
    encoder put between tokens, as strings are written escaped. The file
    is read a block at a time, as main_path.json can run to tens of MB."""
    with open(path, encoding="utf-8", newline="") as fh:
        held = ""
        for block in iter(lambda: fh.read(_BLOCK), ""):
            text = held + block
            write(text[:-1].replace("\n", newline))
            held = text[-1]


# characters per block of a file copied into a nested value
_BLOCK = 1 << 16


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
