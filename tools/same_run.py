#!/usr/bin/env python3
"""Check that two `ktmap report` output directories hold the same run.

    python tools/same_run.py A B [--ignore-config KEY ...]

Both directories must list the same file names, every file but report.json
must be byte-identical, and the two report.json documents must be equal
without `generated_at` and the named keys of their `config` (by default
`out_dir`); their ints are compared exactly, however many digits they have.
Exits 0 if so; otherwise prints each difference and exits 1.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from pathlib import Path


def differences(a: Path, b: Path, ignore_config: list[str]) -> list[str]:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"{a} and {b} list different files"]
    found = [f"{name} differs" for name in names
             if name != "report.json"
             and (a / name).read_bytes() != (b / name).read_bytes()]
    docs = []
    for out in (a, b):
        # int() refuses text of more than 4,300 digits, and an SPC can be longer
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"),
                         parse_int=decimal.Decimal)
        del doc["generated_at"]
        for key in ignore_config:
            del doc["config"][key]
        docs.append(doc)
    if docs[0] != docs[1]:
        found.append("report.json differs")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--ignore-config", nargs="+", default=["out_dir"],
                        metavar="KEY", help="config keys left out of the "
                        "report.json comparison (default: out_dir)")
    args = parser.parse_args(argv)
    found = differences(args.a, args.b, args.ignore_config)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
