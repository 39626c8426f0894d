#!/usr/bin/env python3
"""SHA-256 of every CSV table that `cli.COMMANDS` writes on the shipped configs.

    python scripts/table_hashes.py [out_dir]

Runs each subcommand on each `configs/*.json` into
`<out_dir>/<config>/<subcommand>/` (default `out/table_hashes` at the
repository root), then `solve-moment` and `solve-covariance` on
`multimode_n8_k64`, a variant of `configs/multimode.json` with N=8 modes
and K=64 steps that the script writes to `<out_dir>` itself. It prints
one `sha256  path` line per table, sorted by path relative to `out_dir`.
Two trees whose outputs are identical write byte-identical tables; the
subcommands' own messages go to stderr.
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this tree's package, whatever PYTHONPATH holds

from spde_moments.cli import COMMANDS, main  # noqa: E402


def multimode_variant(out: Path) -> Path:
    """Write `configs/multimode.json` with N=8 modes and K=64 steps to
    `out` and return its path; the noise and the initial mean extend the
    shipped 2**-j and 1/j sequences."""
    raw = json.loads((ROOT / "configs" / "multimode.json").read_text(encoding="utf-8"))
    raw["model"]["dimension"] = 8
    raw["time"]["steps"] = 64
    raw["noise"]["q_eigenvalues"] = [2.0 ** -j for j in range(1, 9)]
    raw["initial"]["mean"] = [1.0 / j for j in range(1, 9)]
    path = out / "multimode_n8_k64.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def write_tables(out: Path) -> None:
    runs = [(config, sub) for config in sorted((ROOT / "configs").glob("*.json"))
            for sub in COMMANDS]
    out.mkdir(parents=True, exist_ok=True)
    variant = multimode_variant(out)
    runs += [(variant, "solve-moment"), (variant, "solve-covariance")]
    for config, sub in runs:
        with contextlib.redirect_stdout(sys.stderr):
            main([sub, "--config", str(config), "--out", str(out / config.stem / sub)])


if __name__ == "__main__":
    out = Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "out" / "table_hashes").resolve()
    write_tables(out)
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")):
        print(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
