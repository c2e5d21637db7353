#!/usr/bin/env python3
"""Scan the ground-state energy against the relative external potential for
several atom numbers and write the curves as CSV (the E0/mu1 vs mu2/mu1
diagram).  The scan set couples both wells with uniform tunneling and is
handled by sparse Lanczos for the lowest level only; mu2 enters the
Hamiltonian only on its diagonal, so H(mu2) = H(0) + mu2 (N_b2 - N_a2) is
assembled once per atom number."""

import sys

import numpy as np

from twowell.cli import scan_params
from twowell.fock import Mode, enumerate_sector, number_operator
from twowell.model import build_hamiltonian, lowest

MU1 = 1.0
GRID = np.arange(0.0, 5.0 + 1e-12, 0.05)
ATOMS = (1, 2, 3, 4)

out = sys.argv[1] if len(sys.argv) > 1 else "ground_state_scan.csv"

rows = ["N,mu2_over_mu1,E0_over_mu1"]
for N in ATOMS:
    sector = enumerate_sector(2, N)
    H0 = build_hamiltonian(scan_params(mu2=0.0, mu1=MU1), sector)
    D = number_operator(sector, Mode("b", 2)) - number_operator(sector, Mode("a", 2))
    curve = []
    for x in GRID:
        e0 = lowest(H0 + (x * MU1) * D).eigenvalues[0]
        curve.append(e0 / MU1)
        rows.append(f"{N},{x:.17g},{e0 / MU1:.17g}")
    second = np.diff(curve, 2)
    print(f"N = {N}: E0/mu1 from {curve[0]:+.4f} to {curve[-1]:+.4f}, "
          f"concave (max second difference {np.max(second):+.2e})")

with open(out, "w", encoding="utf-8") as fh:
    fh.write("\n".join(rows) + "\n")
print(f"\nwrote {len(rows) - 1} rows to {out}")
print("same output via the CLI: twowell fig2 --out", out)
