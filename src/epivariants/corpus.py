"""The ``.sgp`` text format, and the shipped corpus of table files in it.

A file is the order n >= 1, then n rows of n space-separated integers, then
optionally a line "unary: i0 i1 ... i(n-1)", which must be the last line.
'#' starts a comment line.  An integer is an optional sign and ASCII digits.
A unary map is marked ``canonical`` when it is the pseudoinverse map of its
table (see :mod:`epivariants.epigroup`).
"""

from __future__ import annotations

from importlib import resources

from .core import (
    CayleyTable,
    EntryOutOfRange,
    NotAssociative,
    SemigroupError,
    UnarySemigroup,
    _unpack,
    validate,
)
from .epigroup import pseudoinverse_map


def _integers(lineno, line):
    """The whitespace-separated integers of input line ``lineno``."""
    tokens = line.split()
    if line.isascii() and "_" not in line:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    for tok in tokens:
        if not _is_integer(tok):
            raise SemigroupError(f"line {lineno}: {tok!r} is not an integer")
    return tuple(map(int, tokens))


def _is_integer(token):
    """Whether token is an optional sign and ASCII digits.  int() reads
    those, and on an ASCII token without underscores nothing else; it also
    reads underscores between digits and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        return False
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_semigroup(text):
    lines = []  # (line number, stripped text) of the lines that carry data
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise SemigroupError("empty input")
    lineno, first = lines[0]
    if not _is_integer(first):
        raise SemigroupError(f"line {lineno}: order {first!r} is not an integer")
    n = int(first)
    if n < 1:
        raise SemigroupError(f"order must be a positive integer, got {n}")
    if len(lines) < n + 1:
        raise SemigroupError(f"expected {n} table rows, got {len(lines) - 1}")
    rows = []
    for i in range(n):
        row = _integers(*lines[1 + i])
        if len(row) != n:
            raise SemigroupError(f"row {i} has {len(row)} entries, expected {n}")
        rows.append(row)
    # range-check only; associativity is the job of validate(), so that a
    # broken table can still be loaded and diagnosed.  A row is walked cell
    # by cell only when the set test fails, so the error names the first
    # bad cell in row-major order.
    values = set(range(n))
    for i, row in enumerate(rows):
        if not values.issuperset(row):
            j, v = next((j, v) for j, v in enumerate(row) if v not in values)
            raise EntryOutOfRange((i, j), v)
    t = CayleyTable(rows)
    rest = [line for _, line in lines[1 + n:]]
    if rest:
        if not rest[0].startswith("unary:"):
            raise SemigroupError(f"unexpected line: {rest[0]!r}")
        if len(rest) > 1:
            raise SemigroupError(f"unexpected line after the unary map: {rest[1]!r}")
        unary = _integers(lines[1 + n][0], rest[0][len("unary:"):])
        if len(unary) != n:
            raise SemigroupError(f"unary map has length {len(unary)}, expected {n}")
        for a, v in enumerate(unary):
            if not 0 <= v < n:
                raise EntryOutOfRange(("unary", a), v)
        try:
            validate(t)
        except NotAssociative:
            # no pseudoinverse map to compare with: a table that is not a
            # semigroup is loaded for validate() to diagnose
            return UnarySemigroup(t, unary, canonical=False)
        canonical = pseudoinverse_map(t).unary == unary
        return UnarySemigroup(t, unary, canonical=canonical)
    return t


def emit_semigroup(s):
    table, unary = _unpack(s)
    lines = [str(len(table))]
    lines.extend(" ".join(str(v) for v in row) for row in table)
    if unary is not None:
        lines.append("unary: " + " ".join(str(v) for v in unary))
    return "\n".join(lines) + "\n"


def load_semigroup(path):
    with open(path) as fh:
        return parse_semigroup(fh.read())


def _corpus_dir():
    return resources.files(__package__) / "corpus"


def corpus_names():
    return sorted(p.name for p in _corpus_dir().iterdir() if p.name.endswith(".sgp"))


def corpus_text(name):
    return (_corpus_dir() / name).read_text()


def load_corpus(name):
    return parse_semigroup(corpus_text(name))
