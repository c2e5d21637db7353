#!/usr/bin/env python3
"""Build a two-well Hamiltonian and diagonalize it: the whole spectrum
densely, the lowest levels by sparse Lanczos."""

import numpy as np

from twowell import (
    ModelParams,
    build_hamiltonian,
    enumerate_sector,
    lowest,
    spectrum,
)

params = ModelParams(
    n_levels=2,
    U_aa=[[1.0, 2.0], [2.0, 1.0]],
    U_bb=[[1.0, 2.0], [2.0, 1.0]],
    U_ab=[[1.0, 1.0], [1.0, 1.0]],
    mu=[1.0, 0.5],
    eps_a=[-2.0, 2.0],
    eps_b=[1.0, -1.0],
    Omega=[[0.5, 0.5], [0.5, 0.5]],
)

sector = enumerate_sector(2, 3)
H = build_hamiltonian(params, sector)
print(f"N = 3 sector: dimension {sector.dim}, nnz = {H.nnz}")

full = spectrum(H)  # dense, all 20 levels
low = lowest(H, k=5)  # sparse Lanczos, 5 levels
print("lowest five eigenvalues:", np.round(low, 6))
print(f"dense vs Lanczos: max gap {np.max(np.abs(full[:5] - low)):.1e}")

