#!/usr/bin/env python3
"""Solve the rapidity equations for a few atom numbers, rebuild the Bethe
eigenvectors, and cross-check every energy against exact diagonalization.

The solver is deterministic: the N+1 energies come from a tridiagonal on the
collective basis, and each state's roots from Baxter's TQ relation; a state
keeps its roots only if they give its energy back."""

import numpy as np

from twowell import (
    bethe_vector,
    build_hamiltonian,
    collective_energies,
    default_integrable_params,
    enumerate_sector,
    identify_parameters,
    match_spectrum,
    solve_bae,
    spectrum,
    transfer_eigenvalue,
)

ip = default_integrable_params(2)
print(f"parameters: eta = {ip.eta}, zeta = {ip.zeta:.3f}, W = {ip.omega_sum}, "
      f"s = t = {np.round(ip.s, 4)}")

for N in (1, 2, 3):
    result = solve_bae(ip, N)
    sector = enumerate_sector(2, N)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
    report = match_spectrum(result.solutions, ed)
    print(f"\nN = {N}: {len(result.solutions)} of {N + 1} Bethe states, "
          f"{report.n_matched} matched to ED (of {report.n_eigenvalues} levels); "
          f"tridiagonal energies {np.round(collective_energies(ip, N), 6)}")
    for sol in result.solutions:
        roots = ", ".join(f"{r:.6f}" for r in sol.roots)
        print(f"  E = {sol.energy:+.8f}   roots [{roots}]")
        print(f"      |BAE| = {sol.residual:.1e}, |Hx - Ex| = {sol.h_residual:.1e}, "
              f"|t x - Lx| = {sol.t_residual:.1e}")

# The N = 1 case in closed form: v^2 = W^2 + zeta^2/eta^2 = 5, and the Bethe
# state is supported on the symmetric one-atom combinations only.
v = np.sqrt(5.0)
vec = bethe_vector([v], ip)
print(f"\nclosed-form N = 1 root ±sqrt(5); vector for +sqrt(5): {np.round(vec.real, 6)}")
print(f"transfer eigenvalue at u = 0: {transfer_eigenvalue(0.0, [v], ip).real:.8f} "
      f"(= -3 + sqrt(5))")

# The unmatched ED levels sit in the antisymmetric sector, which the Bethe
# construction does not reach for these couplings; the coverage count above
# reports that honestly rather than asserting completeness.
