"""The JSON stage files: json.dump(indent=2, sort_keys=True)'s bytes,
written without its pure-Python encoder."""

from __future__ import annotations

import math
from collections.abc import Callable
from json.encoder import encode_basestring_ascii


def write_json(path, doc) -> None:
    """Write `doc` as json.dump(doc, indent=2, sort_keys=True) does, and a
    newline. The text is encoded here (``_json_text``), not by
    ``json.dump``: its pure-Python indented encoder leaves a few dozen
    objects of cyclic garbage per call, which the paused collector would
    keep until the caller's next pass. The text goes to the file's buffer
    piece by piece: joined first, report.json's text raised a planted
    report's peak RSS by about 0.7 MB."""
    with open(path, "w", encoding="utf-8") as fh:
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
        write(int.__repr__(value))
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


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
