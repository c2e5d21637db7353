#!/usr/bin/env python3
"""Walk through the fixed-number Fock machinery: sector enumeration,
dimension counting, and the sparse mode operators."""

import numpy as np
import scipy.sparse as sp

from twowell import (
    dimension,
    enumerate_sector,
    hop_operator,
    truncated_ladder,
)

# A sector collects every occupation vector of the 2n modes (n levels in
# well a, then n in well b) with a fixed total atom number N.
sector = enumerate_sector(2, 2)
print(f"n = 2 levels, N = 2 atoms: dimension {sector.dim}")
print("occupation rows (layer order: N_a descending, then descending lexicographic):")
for state in sector.occ.tolist():
    print("  ", tuple(state))

# The counting formula C(2n - 1 + N, N) matches the enumeration.
for n in (1, 2, 3):
    for N in (0, 2, 5):
        assert dimension(n, N) == enumerate_sector(n, N).dim
print("\ndimension(n, N) == number of rows for n <= 3, N <= 5")

# Number operators are diagonal: N_a1 is the first occupation column.  Hops
# between the wells come from one builder, hop_operator, which fills diag(d) +
# sum_jk coeffs[j, k] (a_j^dag b_k + b_k^dag a_j) into the hop table the
# sector keeps; each term moves one quantum and carries the usual sqrt matrix
# elements.
n_a1 = sp.diags(sector.occ[:, 0], dtype=float)
print("\nN_a1 diagonal:", n_a1.diagonal())

hop = hop_operator(sector, 0.0, [[1.0, 0.0], [0.0, 0.0]])  # a1^dag b1 + b1^dag a1
# a row is found by its combinatorial rank, not by a lookup table
src = sector.rank((1, 0, 1, 0))
dst = sector.rank((0, 0, 2, 0))
print(f"<0,0,2,0| b1^dag a1 |1,0,1,0> = {hop[dst, src]:.6f}  (sqrt(2))")

# a1^dag b1 is the transpose of b1^dag a1, so the sum is symmetric.
assert (hop.T - hop).nnz == 0
print("a1^dag b1 + b1^dag a1 is symmetric")

# Truncated single-well ladders: canonical commutation holds exactly below
# the occupation cutoff.
ladders = truncated_ladder(2, 3)
print(f"\ntruncated ladder space (2 modes, cutoff 3): dimension {ladders.dim}")
a1, a1_dag = ladders.ann[0], ladders.ann[0].T  # a_j^dag is the transpose of a_j
comm = (a1 @ a1_dag - a1_dag @ a1).toarray()
sub = ladders.totals <= 2
gap = np.max(np.abs(comm[np.ix_(sub, sub)] - np.eye(ladders.dim)[np.ix_(sub, sub)]))
print(f"|[a_1, a_1^dag] - 1| below cutoff: {gap:.2e}")
