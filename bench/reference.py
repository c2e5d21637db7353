"""Independent exact-diagonalization reference for the benchmark's output checks.

The Hamiltonian is assembled straight from the formula in the package's model
documentation,

    H = sum_p sum_j U_pp[j,j] N_pj^2 + 1/2 sum_p sum_{j!=k} U_pp[j,k] N_pj N_pk
      + sum_{j,k} U_ab[j,k] N_aj N_bk - sum_j mu[j] (N_aj - N_bj)
      + sum_j eps_a[j] N_aj + sum_j eps_b[j] N_bj
      - sum_{j,k} Omega[j,k] (a_j^dag b_k + b_k^dag a_j),

without importing twowell, so a defect in the program's own assembly or
eigensolver cannot also sit in the numbers its output is checked against.
Basis order is irrelevant here: only spectra, traces and norms are compared.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def occupations(n_modes, total):
    """Every occupation row of `n_modes` modes summing to `total` (stars and bars)."""
    slots = total + n_modes - 1
    rows = []
    for bars in itertools.combinations(range(slots), n_modes - 1):
        edges = (-1,) + bars + (slots,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(n_modes)])
    return np.array(rows, dtype=np.int64).reshape(-1, n_modes)


def integrable_couplings(n, eta, omega, s, t, alpha):
    """Physical couplings of the integrable family (the documented identification):
    U_ppjj = alpha, U_ppjk = 2 alpha, U_abjk = 2 alpha - eta^2, Omega = s t^T,
    eps_a = eta W, eps_b = -eta W, mu = 0, with W = sum(omega)."""
    W = float(np.sum(omega))
    same = np.full((n, n), 2.0 * alpha)
    np.fill_diagonal(same, alpha)
    return {
        "n": n,
        "U_aa": same,
        "U_bb": same,
        "U_ab": np.full((n, n), 2.0 * alpha - eta**2),
        "mu": np.zeros(n),
        "eps_a": np.full(n, eta * W),
        "eps_b": np.full(n, -eta * W),
        "Omega": np.outer(s, t),
    }


def _same_well(m, U):
    U = np.asarray(U, dtype=float)
    off = U - np.diag(np.diag(U))
    return (m**2) @ np.diag(U) + 0.5 * np.einsum("ij,jk,ik->i", m, off, m)


class Sector:
    """Reference Hamiltonian of one fixed-N sector, split as
    H = diag(diagonal) + hopping, with the mu-dependent part kept apart so a
    potential scan reuses the assembly."""

    def __init__(self, c, N):
        n = c["n"]
        occ = occupations(2 * n, N)
        na = occ[:, :n].astype(float)
        nb = occ[:, n:].astype(float)
        self.dim = occ.shape[0]
        self.imbalance = na - nb  # H gains -mu_j * imbalance[:, j]
        self.base = (
            _same_well(na, c["U_aa"])
            + _same_well(nb, c["U_bb"])
            + np.einsum("ij,jk,ik->i", na, np.asarray(c["U_ab"], dtype=float), nb)
            + na @ np.asarray(c["eps_a"], dtype=float)
            + nb @ np.asarray(c["eps_b"], dtype=float)
        )
        index = {tuple(row): i for i, row in enumerate(occ.tolist())}
        rows, cols, vals = [], [], []
        Omega = np.asarray(c["Omega"], dtype=float)
        for i, row in enumerate(occ.tolist()):
            for k in range(n):
                nbk = row[n + k]
                if nbk == 0:
                    continue
                for j in range(n):
                    if Omega[j, k] == 0.0:
                        continue
                    target = list(row)
                    target[j] += 1
                    target[n + k] -= 1
                    amp = -Omega[j, k] * math.sqrt((row[j] + 1) * nbk)
                    t = index[tuple(target)]
                    rows += [t, i]
                    cols += [i, t]
                    vals += [amp, amp]
        self.hopping = sp.csr_matrix(
            sp.coo_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))
        )

    def diagonal(self, mu):
        return self.base - self.imbalance @ np.asarray(mu, dtype=float)

    def matrix(self, mu):
        return sp.diags(self.diagonal(mu)) + self.hopping

    def trace(self, mu):
        return float(np.sum(self.diagonal(mu)))

    def frobenius_sq(self, mu):
        """sum_ij H_ij^2, which equals the sum of squared eigenvalues."""
        return float(np.sum(self.diagonal(mu) ** 2) + np.sum(self.hopping.data**2))

    def eigenvalues(self, mu):
        return np.linalg.eigvalsh(self.matrix(mu).toarray())

    def ground_energy(self, mu):
        if self.dim <= 64:
            return float(self.eigenvalues(mu)[0])
        v0 = np.ones(self.dim)
        val = spla.eigsh(self.matrix(mu).tocsr(), k=1, which="SA", v0=v0, tol=0)[0]
        return float(val[0])
