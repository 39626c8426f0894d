#!/usr/bin/env python3
"""Stability diagnostic: discrete inf-sup values across eigenvalues and grids.

Prints one row per (eigenvalue, step count); values near one indicate a
well-conditioned pairing, values drifting with the step count indicate
an under-resolved stiff mode (eigenvalue * dt no longer small).
"""

import csv
import sys
from pathlib import Path

from spde_moments import SpectralModel, TimeGrid, assemble_per_mode, per_mode_singular_range

ROOT = Path(__file__).resolve().parent.parent
EIGENVALUES = (1.0, 10.0, 100.0)
STEP_COUNTS = (16, 32, 64)

if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out" / "infsup_sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"{'eigenvalue':>12} {'steps':>6} {'inf_sup':>12}")
    for lam in EIGENVALUES:
        model = SpectralModel(eigenvalues=[lam], horizon=1.0)
        for steps in STEP_COUNTS:
            system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
            value = float(per_mode_singular_range(system)[0][0])
            rows.append({"eigenvalue": lam, "steps": steps, "inf_sup": value})
            print(f"{lam:12.1f} {steps:6d} {value:12.6f}")
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["eigenvalue", "steps", "inf_sup"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"table written to {out}")
