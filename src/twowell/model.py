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

Eigenvalues come from one of two entry points, one per question.  Both read
H as one CSR matrix, refuse it unless it is square, finite and Hermitian, and
return ascending eigenvalues: `spectrum(H)` every level, by dense
diagonalization after checking the dense matrix against DENSE_BYTES_CAP (the
only dense path; that one d x d array is all it allocates that grows as d^2,
apart from scipy's one-byte-per-entry finiteness mask); `lowest(H, k)` the k
lowest, by sparse Lanczos, handing the tiny matrices ARPACK cannot take
(d <= k + 1) to `spectrum`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh

from .fock import FockSector, Mode, hop_operator, number_operator, total_number_operator

__all__ = [
    "ModelParams",
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
# LAPACK works on that array in place, so a solve at the cap peaks at about
# 1.1 GiB: the array plus scipy's d^2-byte finiteness mask.
DENSE_BYTES_CAP = 1 << 30


def _as_array(name, value, shape):
    m = np.asarray(value, dtype=float)
    if m.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _symmetrized(name, m):
    """(m + m^T) / 2, exactly symmetric (m itself if it is), from halves that
    cannot overflow; ValueError unless m is symmetric to 1e-12 relative."""
    half = 0.5 * m
    out = half - half.T
    skew = np.max(np.abs(out, out=out))
    if skew > 1e-12 * max(0.5, np.max(half), -np.min(half)):
        raise ValueError(f"{name} must be symmetric in the level indices")
    return m if skew == 0.0 else np.add(half, half.T, out=out)


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
        for name in ("U_aa", "U_bb"):
            setattr(self, name, _symmetrized(name, getattr(self, name)))


def _diagonal_energy(params: ModelParams, occ: np.ndarray) -> np.ndarray:
    """Diagonal of H over an array of occupation rows (shape (d, 2n))."""
    n = params.n_levels
    na = occ[:, :n].astype(float)
    nb = occ[:, n:].astype(float)

    # each quadratic form is one (d, n) x (n, n) BLAS product and a row sum
    def same_well(nvec, U):
        quad = 0.5 * ((nvec @ U) * nvec).sum(1)
        quad += 0.5 * nvec**2 @ np.diag(U)
        return quad

    diag = same_well(na, params.U_aa) + same_well(nb, params.U_bb)
    diag += ((na @ params.U_ab) * nb).sum(1)
    diag += na @ (params.eps_a - params.mu) + nb @ (params.eps_b + params.mu)
    return diag


def build_hamiltonian(params: ModelParams, sector: FockSector) -> sp.csr_matrix:
    """Real symmetric Hamiltonian matrix on the given sector."""
    if params.n_levels != sector.n_levels:
        raise ValueError(
            f"params have {params.n_levels} levels, sector has {sector.n_levels}"
        )
    # an entry that overflows comes out inf or nan, which spectrum and lowest refuse
    with np.errstate(over="ignore", invalid="ignore"):
        return hop_operator(sector, _diagonal_energy(params, sector.occ), -params.Omega)


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


def _checked(H) -> sp.csr_matrix:
    """H as a CSR matrix, after checking that it is square, that its entries are
    finite and that max|H - H^dag| <= HERMITICITY_TOL; the checks stay sparse."""
    H = sp.csr_matrix(H)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H.data)):
        raise ValueError("matrix entries must be finite, not inf or nan")
    gap = sp.coo_matrix(H - H.conj().T)
    size = np.abs(gap.data)
    if size.size and np.max(size) > HERMITICITY_TOL:
        at = int(np.argmax(size))
        i, j = int(gap.row[at]), int(gap.col[at])
        raise ValueError(f"matrix is not Hermitian: |H[{i},{j}] - conj(H[{j},{i}])| = {size[at]:.3e}")
    return H


def check_dense_fits(d: int, dtype=np.float64):
    """Raise ValueError if one dense d x d matrix of `dtype` exceeds DENSE_BYTES_CAP."""
    need = d * d * np.dtype(dtype).itemsize
    if need > DENSE_BYTES_CAP:
        raise ValueError(
            f"dimension {d} needs a dense {d}x{d} matrix of {need} bytes "
            f"> DENSE_BYTES_CAP = {DENSE_BYTES_CAP} bytes"
        )


def spectrum(H) -> np.ndarray:
    """Every eigenvalue of a Hermitian matrix, ascending, by dense diagonalization.

    The only dense path.  The d x d matrix is checked against DENSE_BYTES_CAP
    from the input's shape and dtype, before the input is converted or
    checked, and all d eigenvalues are returned.  That array is
    the only d x d one: it is built in Fortran order and LAPACK overwrites it
    in place, so the peak is d^2 (itemsize + 1) bytes, the extra byte per entry
    being scipy's finiteness mask, plus LAPACK's O(d) workspace.
    """
    if not sp.issparse(H):
        H = np.asarray(H)
    if H.ndim == 2:  # sized from shape and dtype, before _checked converts a dense array
        check_dense_fits(H.shape[0], np.result_type(H.dtype, np.float64))
    H = _checked(H)
    # toarray() always allocates a new array, so LAPACK may overwrite it; in
    # Fortran order LAPACK takes it as is, where a C-ordered one is copied first
    return eigvalsh(H.toarray(order="F"), overwrite_a=True)


def lowest(H, k: int = 1) -> np.ndarray:
    """The k lowest eigenvalues of a Hermitian matrix, ascending, by sparse Lanczos.

    Sparse end to end: ARPACK `eigsh(which="SA")` from a fixed start vector,
    after the same sparse checks as `spectrum`.  Where ARPACK cannot run
    (d <= k + 1) the k lowest levels are taken from `spectrum`.
    """
    H = _checked(H)
    d = H.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got k={k}")
    if d <= k + 1:
        return spectrum(H)[:k]
    if H.count_nonzero() == 0:  # ARPACK rejects the zero operator
        return np.zeros(k)
    # a fixed but unstructured start, so that no symmetry of H makes it
    # orthogonal to the lowest eigenvectors (a uniform vector can be)
    v0 = np.random.default_rng(0).standard_normal(d).astype(H.dtype)
    return np.sort(spla.eigsh(H, k=k, which="SA", v0=v0, return_eigenvectors=False))


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
