#!/usr/bin/env python3
"""SHA-256 of every CSV table the six subcommands write on the shipped configs.

    python scripts/table_hashes.py [out_dir]

Runs each subcommand on each `configs/*.json` into
`<out_dir>/<config>/<subcommand>/` (default `out/table_hashes` at the
repository root) and prints one `sha256  path` line per table, sorted by
path relative to `out_dir`. Two trees whose outputs are identical write
byte-identical tables; the subcommands' own messages go to stderr.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

from spde_moments.cli import main

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("simulate", "solve-mean", "solve-moment", "solve-covariance", "validate", "inf-sup")


def write_tables(out: Path) -> None:
    for config in sorted((ROOT / "configs").glob("*.json")):
        for sub in SUBCOMMANDS:
            with contextlib.redirect_stdout(sys.stderr):
                main([sub, "--config", str(config), "--out", str(out / config.stem / sub)])


if __name__ == "__main__":
    out = Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "out" / "table_hashes").resolve()
    write_tables(out)
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")):
        print(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
