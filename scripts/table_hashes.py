#!/usr/bin/env python3
"""SHA-256 of every CSV table that `cli.COMMANDS` writes on the shipped
configs, and of the arrays of the wide-n16 library pipeline.

    python scripts/table_hashes.py [out_dir]

Runs each subcommand on each `configs/*.json` into
`<out_dir>/<config>/<subcommand>/` (default `out/table_hashes` at the
repository root), then `solve-moment` and `solve-covariance` on
`multimode_n8_k64`, a variant of `configs/multimode.json` with N=8 modes
and K=64 steps that the script writes to `<out_dir>` itself, and
`solve-mean`, `solve-moment`, `solve-covariance` and `inf-sup` on
`multimode_n8_k16`, the same variant at K=16 steps: its top three modes
have lambda dt = 2.25, 3.06 and 4, so it hashes stiff modes, whose
ratio is negative. It prints
one `sha256  path` line per table, sorted by path relative to `out_dir`.
It then runs the benchmark's wide-n16 pipeline (`bench/pipeline.run`,
N=16 modes and K=32 steps, at `bench/workloads.DEFAULT_SEED`) into
`<out_dir>/wide-n16/` and prints one `sha256  wide-n16/<name>` line for
each array it saves, pg_diag, oracle_diag and picard_trace, the hash of
the array's bytes. Two trees whose outputs are identical print the same
lines; the subcommands' own messages go to stderr.
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this tree's package, whatever PYTHONPATH holds

from spde_moments.cli import COMMANDS, main  # noqa: E402

PIPELINE_ARRAYS = ("pg_diag", "oracle_diag", "picard_trace")


def multimode_variant(out: Path, steps: int = 64) -> Path:
    """Write `configs/multimode.json` with N=8 modes and K=`steps` steps
    to `out` and return its path; the noise and the initial mean extend
    the shipped 2**-j and 1/j sequences."""
    raw = json.loads((ROOT / "configs" / "multimode.json").read_text(encoding="utf-8"))
    raw["model"]["dimension"] = 8
    raw["time"]["steps"] = steps
    raw["noise"]["q_eigenvalues"] = [2.0 ** -j for j in range(1, 9)]
    raw["initial"]["mean"] = [1.0 / j for j in range(1, 9)]
    path = out / f"multimode_n8_k{steps}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def write_tables(out: Path) -> None:
    runs = [(config, sub) for config in sorted((ROOT / "configs").glob("*.json"))
            for sub in COMMANDS]
    out.mkdir(parents=True, exist_ok=True)
    variant, stiff = multimode_variant(out), multimode_variant(out, steps=16)
    runs += [(variant, "solve-moment"), (variant, "solve-covariance")]
    runs += [(stiff, sub) for sub in ("solve-mean", "solve-moment", "solve-covariance", "inf-sup")]
    for config, sub in runs:
        with contextlib.redirect_stdout(sys.stderr):
            main([sub, "--config", str(config), "--out", str(out / config.stem / sub)])


def pipeline_hashes(out: Path) -> list[str]:
    """Run the wide-n16 pipeline at its default seed into `out/wide-n16`
    and return one `sha256  wide-n16/<name>` line per saved array."""
    sys.path.insert(0, str(ROOT / "bench"))
    import pipeline
    from workloads import DEFAULT_SEED, wide_config

    wide = out / "wide-n16"
    wide.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):
        if pipeline.run(wide_config(DEFAULT_SEED["wide-n16"], smoke=False), wide, {}) != 0:
            sys.exit("the wide-n16 Picard iteration did not converge")
    with np.load(wide / "fields.npz") as fields:
        return [f"{hashlib.sha256(fields[name].tobytes()).hexdigest()}  wide-n16/{name}"
                for name in PIPELINE_ARRAYS]


if __name__ == "__main__":
    out = Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "out" / "table_hashes").resolve()
    write_tables(out)
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")):
        print(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
    print("\n".join(pipeline_hashes(out)))
