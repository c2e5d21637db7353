#!/usr/bin/env python3
"""Numerically verify the algebraic backbone: Yang-Baxter equation, RLL
relation for the multi-state Lax operator, commuting transfer matrices,
conserved charges, and the Hamiltonian reconstruction."""

import numpy as np

from twowell import (
    IntegrableParams,
    build_hamiltonian,
    conserved_charges,
    default_integrable_params,
    enumerate_sector,
    hop_operator,
    identify_parameters,
    r_matrix,
    rll_residual,
    transfer_commutator_residual,
    transfer_hamiltonian_terms,
    transfer_matrix,
    validate_model,
    ybe_residual,
)

rng = np.random.default_rng(0)

# The rational R-matrix satisfies the Yang-Baxter equation identically.
print("R(0.3, eta=1.1) =\n", np.round(r_matrix(0.3, 1.1).real, 4))
print(f"Yang-Baxter residual at (0.7, -0.3, 1.1): {ybe_residual(0.7, -0.3, 1.1):.2e}")

# The RLL relation holds for any couplings with zeta = s . t, and breaks
# visibly when the D-entry is detuned from zeta.
s, t = rng.standard_normal(3), rng.standard_normal(3)
ip3 = IntegrableParams(3, 1.0, np.ones(3), s, t, alpha=1.0)
print(f"\nRLL residual, n = 3, random s/t: {rll_residual(0.9, -0.4, ip3):.2e}")
print(f"RLL residual with detuned D-block: {rll_residual(0.9, -0.4, ip3, zeta_shift=0.1):.2e}")

# Transfer matrices commute at different spectral parameters, and their
# polynomial coefficients are the conserved charges.
ip = default_integrable_params(2)
sector = enumerate_sector(2, 3)
worst = max(
    transfer_commutator_residual(
        complex(*rng.uniform(-3, 3, 2)), complex(*rng.uniform(-3, 3, 2)), ip, sector
    )
    for _ in range(10)
)
print(f"\nmax |[t(u), t(v)]| over 10 random pairs: {worst:.2e}")

C0, C1, C2 = conserved_charges(ip, sector)
u = 0.8
gap = transfer_matrix(u, ip, sector) - ((u * u) * C2 + u * C1 + C0)
print(f"t(u) - (u^2 C2 + u C1 + C0) at u = {u}: {np.max(np.abs(gap.toarray())):.2e}")
print(f"C1 = eta N: {np.allclose(C1.toarray(), 3.0 * np.eye(sector.dim))}")

# The physical Hamiltonian is a linear combination of the charges; the
# identified couplings rebuild it entry for entry.
H_t = hop_operator(sector, *transfer_hamiltonian_terms(ip, sector))
H_m = build_hamiltonian(identify_parameters(ip), sector)
print(f"\n|H_transfer - H_model|: {np.max(np.abs((H_t - H_m).toarray())):.2e}")

# And the reverse direction recovers the algebraic data.
report = validate_model(identify_parameters(ip))
d = report.derived
print(f"reverse identification: integrable = {report.integrable}, "
      f"eta = {d.eta:.3f}, W = {d.omega_sum:.3f}, zeta = {d.zeta:.3f}")
