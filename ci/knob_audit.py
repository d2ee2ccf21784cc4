#!/usr/bin/env python3
"""CI gate: every environment knob the code reads is documented, and only those.

Usage: knob_audit.py [repo-root]   (default: the parent of this script's dir)

A knob is a C++ string literal that is exactly an `AIO_*` name in src/,
bench/ or tools/: every such literal is passed to getenv or to one of the
strict env parsers built on it.  A documented knob is the first cell of a
markdown table row in README.md or DESIGN.md.  The script fails (exit 1) if
a knob is read but not in any table, or a table lists a name nothing reads.
"""
import pathlib
import re
import sys

CODE_DIRS = ("src", "bench", "tools")
CODE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
DOCS = ("README.md", "DESIGN.md")
LITERAL = re.compile(r'"(AIO_[A-Z0-9_]+)"')
NAME = re.compile(r"`(AIO_[A-Z0-9_]+)`")


def read_knobs(root: pathlib.Path) -> dict:
    """Knob name -> first file that reads it."""
    knobs = {}
    for d in CODE_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in CODE_SUFFIXES:
                continue
            for name in LITERAL.findall(path.read_text(errors="replace")):
                knobs.setdefault(name, str(path.relative_to(root)))
    return knobs


def table_knobs(root: pathlib.Path) -> dict:
    """Knob name -> first doc whose table lists it."""
    knobs = {}
    for doc in DOCS:
        for line in (root / doc).read_text().splitlines():
            cells = line.split("|")
            if len(cells) < 3 or line.lstrip()[:1] != "|":
                continue
            for name in NAME.findall(cells[1]):
                knobs.setdefault(name, doc)
    return knobs


def main() -> int:
    if len(sys.argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = pathlib.Path(sys.argv[1] if len(sys.argv) == 2
                        else pathlib.Path(__file__).resolve().parent.parent)
    read = read_knobs(root)
    documented = table_knobs(root)
    ok = True
    for name in sorted(read.keys() - documented.keys()):
        print(f"knob_audit: {name} is read in {read[name]} but missing from the "
              f"README/DESIGN env tables", file=sys.stderr)
        ok = False
    for name in sorted(documented.keys() - read.keys()):
        print(f"knob_audit: {documented[name]} lists {name}, which nothing in "
              f"{'/, '.join(CODE_DIRS)}/ reads", file=sys.stderr)
        ok = False
    if ok:
        print(f"knob audit ok: {len(read)} AIO_* knobs, all documented")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
