"""Compare two directories of `mupre` artifacts, file by file.

    python3 tools/audit.py PARENT_DIR CHANGE_DIR [--tol 1e-12]

Both directories hold the outputs of the same commands, such as one
`--out` directory per config, run once by each of two checkouts. For every
file found under either directory, by relative path, it prints:

  identical   the bytes are equal
  close       a CSV or JSONL file whose text cells and keys are equal and
              whose numbers differ by at most --tol relative
  differs     anything else; a CSV or JSONL file is then read cell by cell

and, for a CSV or JSONL file that is not identical, the largest relative
gap |a - b| / max(|a|, |b|) per CSV column and per JSONL number key (the
key's path, list positions as [i]) that moved, with the largest absolute
gap beside it: a value near zero, such as a fitted slope, can move far
in relative terms by round-off alone. A last line says whether the
`diverged` flags of the JSONL run records match, by `run_id`. The exit
status is 0 when every file is identical or close and the flags match,
else 1. The default --tol of 0 accepts equal numbers only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    """Two files cannot be compared cell by cell: a row count, header, text
    cell or key differs."""


def rel_gap(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values, infinities and NaNs
    included, and inf for unequal non-finite ones."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _note(gaps: dict[str, tuple[float, float]], key: str, a: float, b: float) -> None:
    """Fold the pair (a, b) into key's largest (relative, absolute) gap."""
    rel, gap = gaps.get(key, (0.0, 0.0))
    gaps[key] = (max(rel, rel_gap(a, b)), max(gap, abs(a - b) if a != b else 0.0))


def csv_gaps(old: str, new: str) -> dict[str, tuple[float, float]]:
    """The largest (relative, absolute) gap per column of two CSV texts
    with the same header and row count; cells that are not numbers must
    be equal."""
    old_rows, new_rows = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        raise Mismatch("headers differ")
    if len(old_rows) != len(new_rows):
        raise Mismatch(f"{len(old_rows) - 1} rows against {len(new_rows) - 1}")
    header, gaps = old_rows[0], {}
    for line, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=2):
        if len(a_row) != len(header) or len(b_row) != len(header):
            raise Mismatch(f"line {line}: cell count differs from the header")
        for column, a, b in zip(header, a_row, b_row):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    raise Mismatch(f"line {line} column {column}: {a!r} against {b!r}")
                continue
            _note(gaps, column, x, y)
    return gaps


def _leaves(value, path: str = ""):
    """(path, value) for every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def jsonl_gaps(old: str, new: str) -> dict[str, tuple[float, float]]:
    """The largest (relative, absolute) gap per number key of two JSONL
    texts with the same line count and keys; other values must be equal."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        raise Mismatch(f"{len(old_lines)} lines against {len(new_lines)}")
    gaps = {}
    for line, (a_text, b_text) in enumerate(zip(old_lines, new_lines), start=1):
        a_leaves, b_leaves = dict(_leaves(json.loads(a_text))), dict(_leaves(json.loads(b_text)))
        if a_leaves.keys() != b_leaves.keys():
            raise Mismatch(f"line {line}: keys differ")
        for key, a in a_leaves.items():
            b = b_leaves[key]
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
            if not numbers:
                if a != b:
                    raise Mismatch(f"line {line} key {key}: {a!r} against {b!r}")
                continue
            _note(gaps, key, float(a), float(b))
    return gaps


def divergence_flags(root: Path) -> dict[str, bool]:
    """run_id -> diverged, from every JSONL run record under root."""
    flags = {}
    for path in sorted(root.rglob("*.jsonl")):
        for text in path.read_text().splitlines():
            record = json.loads(text)
            if "run_id" in record and "diverged" in record:
                flags[f"{path.relative_to(root)}:{record['run_id']}"] = record["diverged"]
    return flags


GAPS = {".csv": csv_gaps, ".jsonl": jsonl_gaps}


def audit(parent: Path, change: Path, tol: float = 0.0) -> tuple[list[str], bool]:
    """(report lines, whether every check passed)."""
    lines, ok = [], True
    names = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        a_path, b_path = parent / name, change / name
        if not (a_path.is_file() and b_path.is_file()):
            lines.append(f"differs     {name}: only in {'parent' if a_path.is_file() else 'change'}")
            ok = False
            continue
        a, b = a_path.read_bytes(), b_path.read_bytes()
        if a == b:
            lines.append(f"identical   {name}")
            continue
        compare = GAPS.get(name.suffix)
        if compare is None:
            lines.append(f"differs     {name}: bytes differ")
            ok = False
            continue
        try:
            gaps = compare(a.decode(), b.decode())
        except (Mismatch, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            lines.append(f"differs     {name}: {exc}")
            ok = False
            continue
        worst = max((rel for rel, _ in gaps.values()), default=0.0)
        close = worst <= tol
        ok &= close
        moved = {key: gap for key, gap in gaps.items() if gap[0] > 0.0}
        lines.append(f"{'close' if close else 'differs':<11} {name}: largest relative gap "
                     f"{worst:.3g}, {len(moved)} of {len(gaps)} number keys moved")
        lines += [f"    {key}: {rel:.3g} relative, {gap:.3g} absolute"
                  for key, (rel, gap) in moved.items()]
    a_flags, b_flags = divergence_flags(parent), divergence_flags(change)
    if a_flags == b_flags:
        diverged = sum(a_flags.values())
        lines.append(f"divergence flags match: {len(a_flags)} runs, {diverged} diverged")
    else:
        keys = sorted(k for k in a_flags.keys() | b_flags.keys() if a_flags.get(k) != b_flags.get(k))
        lines.append("divergence flags differ: " + ", ".join(
            f"{k} {a_flags.get(k)} -> {b_flags.get(k)}" for k in keys))
        ok = False
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest relative gap a close file may show (default 0)")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    lines, ok = audit(args.parent, args.change, args.tol)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
