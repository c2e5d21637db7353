#!/usr/bin/env python3
"""Build a two-well Hamiltonian, diagonalize it (the whole spectrum densely,
the lowest levels by sparse Lanczos), and inspect which number operators are
conserved as the tunneling pattern changes."""

import numpy as np

from twowell import (
    ModelParams,
    build_hamiltonian,
    conservation_report,
    decoupled_energies,
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

full = spectrum(H, want_vectors=True)  # dense, all 20 levels
low = lowest(H, k=5, want_vectors=True)  # sparse Lanczos, 5 levels
print("lowest five eigenvalues:", np.round(low.eigenvalues, 6))
print(f"dense vs Lanczos: max gap {np.max(np.abs(full.eigenvalues[:5] - low.eigenvalues)):.1e}, "
      f"eigenpair residuals {full.max_residual:.1e} / {low.max_residual:.1e}")

# With the tunneling off the model decouples into two independent wells and
# the diagonal reproduces E_a + E_b plus the cross-well density term.
params.Omega = np.zeros((2, 2))
H0 = build_hamiltonian(params, sector).toarray()
state = sector.basis[0]
e_a, e_b = decoupled_energies(params, state)
na, nb = np.array(state[:2]), np.array(state[2:])
cross = na @ params.U_ab @ nb
print(f"\nOmega = 0: <state|H|state> = {H0[0, 0]:.6f}, E_a + E_b + cross = {e_a + e_b + cross:.6f}")

# Conservation pattern: total N always commutes; level sums N_aj + N_bj
# survive whenever tunneling never mixes different levels.
for label, omega in (
    ("Omega = 0", np.zeros((2, 2))),
    ("diagonal Omega", np.diag([0.5, 0.25])),
    ("full Omega", np.full((2, 2), 0.5)),
):
    params.Omega = omega
    report = conservation_report(params, enumerate_sector(2, 2))
    print(f"\n{label}:")
    print(f"  ||[H, N_total]|| = {report.total_number:.1e}")
    print(f"  conserved modes: {report.conserved_modes() or 'none'}")
    print(f"  conserved level sums: {report.conserved_levels() or 'none'}")
