"""Physical two-well Hamiltonians: construction, diagonalization, conservation.

The Hamiltonian for n on-well states per well is

    H = sum_p sum_j U_pp[j,j] N_pj^2
      + 1/2 sum_p sum_{j!=k} U_pp[j,k] N_pj N_pk
      + sum_{j,k} U_ab[j,k] N_aj N_bk
      - sum_j mu[j] (N_aj - N_bj)
      + sum_j eps_a[j] N_aj + sum_j eps_b[j] N_bj
      - sum_{j,k} Omega[j,k] (a_j^dag b_k + b_k^dag a_j)

with p in {a, b}.  Same-well couplings are stored in the symmetric
general form; for n = 2 the conventional single-count cross coupling
equals the stored off-diagonal entry (the 1/2 and the double count cancel).
All couplings share one arbitrary energy unit.

Eigenvalues come from one of two entry points, one per question:
`spectrum(H)` returns every level by dense diagonalization, after checking
the dense matrix against DENSE_BYTES_CAP, and is the only dense path;
`lowest(H, k)` returns the k lowest levels by sparse Lanczos, and hands the
tiny matrices ARPACK cannot take (d <= k + 1) to `spectrum`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, eigvalsh

from .fock import FockSector, Mode, number_operator, total_number_operator, tunneling_operator

__all__ = [
    "ModelParams",
    "SpectrumResult",
    "ConservationReport",
    "build_hamiltonian",
    "decoupled_energies",
    "DENSE_BYTES_CAP",
    "check_dense_fits",
    "lowest",
    "spectrum",
    "conservation_report",
]

HERMITICITY_TOL = 1e-12
# Largest dense matrix `spectrum` will allocate (1 GiB: d = 11585 in float64).
DENSE_BYTES_CAP = 1 << 30


def _as_array(name, value, shape):
    m = np.asarray(value, dtype=float)
    if m.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass
class ModelParams:
    """Physical couplings of the two-well model.

    U_aa, U_bb : (n, n) same-well scattering, symmetric in the level indices.
    U_ab       : (n, n) cross-well scattering.
    mu         : (n,) relative external potentials.
    eps_a/b    : (n,) on-well state energies.
    Omega      : (n, n) tunneling amplitudes, Omega[j, k] for a_j <-> b_k.
    """

    n_levels: int
    U_aa: np.ndarray
    U_bb: np.ndarray
    U_ab: np.ndarray
    mu: np.ndarray
    eps_a: np.ndarray
    eps_b: np.ndarray
    Omega: np.ndarray

    def __post_init__(self):
        n = self.n_levels
        if n < 1:
            raise ValueError(f"n_levels must be >= 1, got {n}")
        for name in ("U_aa", "U_bb", "U_ab", "Omega"):
            setattr(self, name, _as_array(name, getattr(self, name), (n, n)))
        for name in ("mu", "eps_a", "eps_b"):
            setattr(self, name, _as_array(name, getattr(self, name), (n,)))
        for name, m in (("U_aa", self.U_aa), ("U_bb", self.U_bb)):
            skew = np.max(np.abs(m - m.T))
            if skew > 1e-12 * max(1.0, np.max(np.abs(m))):
                raise ValueError(f"{name} must be symmetric in the level indices")
        # store exactly symmetric copies
        self.U_aa = (self.U_aa + self.U_aa.T) / 2.0
        self.U_bb = (self.U_bb + self.U_bb.T) / 2.0


def _diagonal_energy(params: ModelParams, occ: np.ndarray) -> np.ndarray:
    """Diagonal of H over an array of occupation rows (shape (d, 2n))."""
    n = params.n_levels
    na = occ[:, :n].astype(float)
    nb = occ[:, n:].astype(float)

    def same_well(nvec, U):
        quad = 0.5 * np.einsum("ij,jk,ik->i", nvec, U, nvec)
        quad += 0.5 * nvec**2 @ np.diag(U)
        return quad

    diag = same_well(na, params.U_aa) + same_well(nb, params.U_bb)
    diag += np.einsum("ij,jk,ik->i", na, params.U_ab, nb)
    diag += na @ (params.eps_a - params.mu) + nb @ (params.eps_b + params.mu)
    return diag


def build_hamiltonian(params: ModelParams, sector: FockSector) -> sp.csr_matrix:
    """Real symmetric Hamiltonian matrix on the given sector."""
    if params.n_levels != sector.n_levels:
        raise ValueError(
            f"params have {params.n_levels} levels, sector has {sector.n_levels}"
        )
    diag = sp.diags(_diagonal_energy(params, sector.occ), shape=(sector.dim,) * 2)
    return sp.csr_matrix(diag - tunneling_operator(sector, params.Omega))


def decoupled_energies(params: ModelParams, state) -> tuple[float, float]:
    """(E_a, E_b) of a product state when the tunneling is switched off.

    E_a + E_b equals the diagonal Hamiltonian element minus the cross-well
    density-density contribution.
    """
    occ = np.asarray(state, dtype=np.int64).reshape(1, -1)
    n = params.n_levels
    if occ.shape[1] != 2 * n:
        raise ValueError(f"state must have {2 * n} occupations, got {occ.shape[1]}")
    na = occ[:, :n].astype(float)[0]
    nb = occ[:, n:].astype(float)[0]

    def well(nvec, U, lin):
        e = 0.5 * nvec @ U @ nvec + 0.5 * nvec**2 @ np.diag(U)
        return float(e + nvec @ lin)

    e_a = well(na, params.U_aa, params.eps_a - params.mu)
    e_b = well(nb, params.U_bb, params.eps_b + params.mu)
    return e_a, e_b


@dataclass
class SpectrumResult:
    """Eigenvalues in ascending order, optionally with eigenvector columns.

    `max_residual` is max|H V - V diag(E)| when vectors were computed, else 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    max_residual: float = 0.0


def _check_square(H):
    if len(H.shape) != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")


def _check_hermitian(H):
    """Raise unless max|H - H^dag| <= HERMITICITY_TOL; sparse input stays sparse."""
    if sp.issparse(H):
        gap = sp.coo_matrix(H - H.conj().T)
        if gap.nnz == 0:
            return
        worst_at = int(np.argmax(np.abs(gap.data)))
        worst = float(np.abs(gap.data[worst_at]))
        i, j = int(gap.row[worst_at]), int(gap.col[worst_at])
    else:
        gap = np.abs(H - H.conj().T)
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        worst = float(gap[i, j])
    if worst > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: |H[{i},{j}] - conj(H[{j},{i}])| = {worst:.3e}"
        )


def check_dense_fits(d: int, dtype=np.float64):
    """Raise ValueError if one dense d x d matrix of `dtype` exceeds DENSE_BYTES_CAP."""
    need = d * d * np.dtype(dtype).itemsize
    if need > DENSE_BYTES_CAP:
        raise ValueError(
            f"dimension {d} needs a dense {d}x{d} matrix of {need} bytes "
            f"> DENSE_BYTES_CAP = {DENSE_BYTES_CAP} bytes"
        )


def _residual(H, vals, vecs) -> float:
    return float(np.max(np.abs(H @ vecs - vecs * vals)))


def spectrum(H, want_vectors: bool = False) -> SpectrumResult:
    """Every eigenvalue of a Hermitian matrix, ascending, by dense diagonalization.

    The only dense path.  The d x d matrix is checked against DENSE_BYTES_CAP
    before it is allocated (eigenvectors take as much again), and all d
    eigenvalues are returned.  Eigenvectors and their residual are computed
    only when `want_vectors` is set.
    """
    is_sparse = sp.issparse(H)
    if not is_sparse:
        H = np.asarray(H)
    _check_square(H)
    check_dense_fits(H.shape[0], np.result_type(H.dtype, np.float64))
    _check_hermitian(H)
    # LAPACK reads one triangle; the private copy from toarray() may be overwritten
    dense = H.toarray() if is_sparse else H
    if not want_vectors:
        return SpectrumResult(eigenvalues=eigvalsh(dense, overwrite_a=is_sparse))
    vals, vecs = eigh(dense, overwrite_a=is_sparse)
    return SpectrumResult(vals, vecs, _residual(H, vals, vecs))


def _start_vector(d: int) -> np.ndarray:
    # Fixed but unstructured, so that no symmetry of H makes it orthogonal to
    # the lowest eigenvectors (a uniform vector can be).
    return np.random.default_rng(0).standard_normal(d)


def lowest(H, k: int = 1, want_vectors: bool = False) -> SpectrumResult:
    """The k lowest eigenvalues of a Hermitian matrix, ascending, by sparse Lanczos.

    Sparse end to end: ARPACK `eigsh(which="SA")` from a fixed start vector,
    a sparse Hermiticity check and a sparse-matvec residual.  Where ARPACK
    cannot run (d <= k + 1) the k lowest levels are taken from `spectrum`.
    """
    H = sp.csr_matrix(H)
    _check_square(H)
    d = H.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got k={k}")
    _check_hermitian(H)
    vecs = None
    if d <= k + 1:
        full = spectrum(H, want_vectors)
        vals = full.eigenvalues[:k]
        if want_vectors:
            vecs = full.eigenvectors[:, :k]
    elif H.count_nonzero() == 0:  # ARPACK rejects the zero operator
        vals = np.zeros(k)
        if want_vectors:
            vecs = np.eye(d, k, dtype=H.dtype)
    else:
        v0 = _start_vector(d).astype(H.dtype)
        found = spla.eigsh(H, k=k, which="SA", v0=v0, return_eigenvectors=want_vectors)
        vals = found[0] if want_vectors else found
        order = np.argsort(vals)
        vals = vals[order]
        if want_vectors:
            vecs = found[1][:, order]
    if not want_vectors:
        return SpectrumResult(eigenvalues=vals)
    return SpectrumResult(vals, vecs, _residual(H, vals, vecs))


@dataclass
class ConservationReport:
    """Max-abs commutator entries of H with candidate conserved quantities.

    `total_number` is ||[H, N_total]||_max (always zero), `per_mode` maps each
    mode to ||[H, N_pj]||_max, and `per_level` maps level j to
    ||[H, N_aj + N_bj]||_max.
    """

    total_number: float
    per_mode: dict
    per_level: dict

    def conserved_modes(self):
        return sorted(str(m) for m, r in self.per_mode.items() if r == 0.0)

    def conserved_levels(self):
        return sorted(j for j, r in self.per_level.items() if r == 0.0)


def _comm_norm(A, B) -> float:
    """Max-abs entry of the sparse commutator [A, B]."""
    return float(np.max(np.abs((A @ B - B @ A).data), initial=0.0))


def conservation_report(params: ModelParams, sector: FockSector) -> ConservationReport:
    H = build_hamiltonian(params, sector)
    n_tot = total_number_operator(sector)
    per_mode = {}
    per_level = {}
    for level in range(1, params.n_levels + 1):
        na = number_operator(sector, Mode("a", level))
        nb = number_operator(sector, Mode("b", level))
        per_mode[Mode("a", level)] = _comm_norm(H, na)
        per_mode[Mode("b", level)] = _comm_norm(H, nb)
        per_level[level] = _comm_norm(H, na + nb)
    return ConservationReport(
        total_number=_comm_norm(H, n_tot),
        per_mode=per_mode,
        per_level=per_level,
    )
