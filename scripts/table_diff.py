#!/usr/bin/env python3
"""Which tables differ between two trees written by scripts/table_hashes.py, and by how much.

    python scripts/table_diff.py OLD NEW

Prints one line per CSV path whose bytes differ between OLD and NEW (or
that exists in only one of them), sorted by path. For each column that
differs, usually the `value` column, the line gives the largest relative
difference max|a - b| / max|a| over the rows, with a from OLD, and how
many of the rows differ (`n of m rows`), so a change confined to some
rows shows as such; index columns agree and are left out. Prints
nothing when the two trees hold the same tables byte for byte.

Exits 0 when the trees hold the same tables byte for byte and 1 when a
table differs or exists on one side only, as diff(1) does.
"""

import csv
import sys
from pathlib import Path


def read_columns(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, [list(column) for column in zip(*rows)]


def as_floats(column: list[str]):
    try:
        return [float(v) for v in column]
    except ValueError:
        return None


def describe(old: Path, new: Path) -> str:
    """The per-column differences of one table, or why they cannot be given."""
    header, old_cols = read_columns(old)
    new_header, new_cols = read_columns(new)
    if header != new_header or [len(c) for c in old_cols] != [len(c) for c in new_cols]:
        return "header or row count differs"
    parts = []
    for name, a_text, b_text in zip(header, old_cols, new_cols):
        if a_text == b_text:
            continue
        rows = f"{sum(x != y for x, y in zip(a_text, b_text))} of {len(a_text)} rows"
        a, b = as_floats(a_text), as_floats(b_text)
        if a is None or b is None:
            parts.append(f"{name}: text differs in {rows}")
            continue
        diff = max(abs(x - y) for x, y in zip(a, b))
        scale = max(abs(x) for x in a)
        rel = diff / scale if scale > 0.0 else float("inf")
        parts.append(f"{name}: max|a-b|/max|a| = {rel:.3g} in {rows}")
    return "; ".join(parts) if parts else "bytes differ, values agree"


def main(old_dir: str, new_dir: str) -> int:
    """Print the differing tables; return 1 if there are any, else 0."""
    old_root, new_root = Path(old_dir), Path(new_dir)
    old = {p.relative_to(old_root).as_posix() for p in old_root.rglob("*.csv")}
    new = {p.relative_to(new_root).as_posix() for p in new_root.rglob("*.csv")}
    differing = [
        path for path in sorted(old | new)
        if path not in old or path not in new
        or (old_root / path).read_bytes() != (new_root / path).read_bytes()
    ]
    for path in differing:
        if path not in new:
            print(f"{path}  only in {old_dir}")
        elif path not in old:
            print(f"{path}  only in {new_dir}")
        else:
            print(f"{path}  {describe(old_root / path, new_root / path)}")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: scripts/table_diff.py OLD NEW")
    sys.exit(main(sys.argv[1], sys.argv[2]))
