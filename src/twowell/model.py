"""Physical two-well Hamiltonians: construction and diagonalization.

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
H as one CSR matrix and refuse it unless it is square, finite and Hermitian:
`spectrum(H)` returns every level, ascending, after checking the dense d x d
matrix against DENSE_BYTES_CAP.  It reads the half-bandwidth b of H in the
order H is given, and where the band is narrow (d >= BAND_RATIO (b + 1)) it
solves the (b + 1) x d band with LAPACK's banded driver; otherwise it
diagonalizes H as one dense d x d array, the only array that grows as d^2.  A
hop a_j^dag b_k moves one atom between the wells, so with a sector's rows
sorted by N_a, the atoms in well a (the layer order, in which the CLI passes
every sector), H is block tridiagonal: b = 1 at n = 1, and at n = 2
b = max_k (k + 1)(N - k + 1) + ceil(N / 2) for a full Omega (at most that for
any Omega), about d^(2/3); n = 3 sectors stay dense.  `lowest(H, D, xs)`
returns the lowest level of H + x diag(D) for each x, by a plain Lanczos
recurrence that runs all the shifts in lockstep, sparse end to end, and stops
each shift on a certified residual bound.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig_banded, eigh_tridiagonal, eigvalsh, norm

from .fock import FockSector, hop_operator

__all__ = [
    "ModelParams",
    "build_hamiltonian",
    "hamiltonian_terms",
    "BAND_RATIO",
    "DENSE_BYTES_CAP",
    "check_fits",
    "check_dense_fits",
    "LOWEST_BLOCK_ENTRIES",
    "LOWEST_STEP_CAP",
    "LOWEST_TOL",
    "NotConverged",
    "ShiftError",
    "lowest",
    "spectrum",
]

HERMITICITY_TOL = 1e-12
# `spectrum` solves a sector as a band when d >= BAND_RATIO (b + 1), b being its
# half-bandwidth in the order it is given.  The path is chosen for memory: the
# band holds at most d^2 / BAND_RATIO entries.  With one BLAS thread its solve
# is also about as fast as the dense one or faster: LAPACK's band reduction
# does fewer flops than the dense one, but as plane rotations where the dense
# one runs blocked matrix products, so the two break even between
# d / (b + 1) = 10.8 and 11.4.  Measured on n = 2 physical sets (five: the
# benchmark's spectrum configs at seeds 41-43 and two random ones), one BLAS
# thread, banded time over dense: N = 15 (d / (b + 1) = 10.1) 1.23-1.40,
# N = 16 (10.8) 1.05-1.27, N = 17 (11.4) 0.90-0.99 on four sets and 1.22 on
# one, N = 18 (12.1) 0.86-0.95, N = 21 (14.1) 0.75-1.00; n = 3, N = 8 (5.4)
# about 2.  With two BLAS threads the dense solve was faster on n = 2 sectors
# the band takes: 1.8-2.6 s against 2.7-3.2 s at N = 25, 7.4-8.6 s against
# 11.5-14.4 s at N = 30 (12.8 s band against 16.0 s dense on one thread).
BAND_RATIO = 11
# Largest dense matrix `spectrum` will allocate (1 GiB: d = 11585 in float64).
# Every sector is checked against it, whichever path it takes.  On the dense
# path LAPACK works on that array in place, so a solve at the cap peaks at
# about 1 GiB: the array plus LAPACK's O(d) workspace.  On the banded path
# the band is at most 1/BAND_RATIO of that array.
DENSE_BYTES_CAP = 1 << 30
# Entries d x G of one block of shifts that `lowest` runs in lockstep: 4 MiB
# per float64 array, and a block holds at most about nine such arrays (peak
# 21 MB on a 50-point line at n = 2, N = 60, against 80 MB as one block).
# Measured per point on n = 2 scan lines, one shift at a time -> this bound:
# N = 24 (d = 2925) 9.1 -> 5.8 ms, N = 40 33.5 -> 33.2 ms, N = 60 (d = 39711)
# 142 -> 154 ms.  At 1 << 18, N = 60 runs blocks of 6 shifts at 231 ms: below
# about 8 columns the row-by-row broadcast of the alpha and beta updates costs
# more than the shared sparse product saves.
LOWEST_BLOCK_ENTRIES = 1 << 19
# Lanczos steps after which `lowest` refuses a shift as unconverged; the n = 2
# scan needs at most 368 (N = 60), about 6 N.
LOWEST_STEP_CAP = 5000
# Residual bound beta |s_last| at which a Ritz value is the converged level,
# relative to ||T||_inf (at most about ||H||): the value is then within
# 1e-13 ||H|| of an eigenvalue, and quadratically closer where the level is
# isolated (measured against `spectrum`, relative: within 6e-15 on the bench's
# scan grids, 1.6e-14 on fig2's default grid, at N = 3 where |E0| is about
# 0.5).  Plain Lanczos drives the bound to about eps ||H|| before ghost copies
# appear, so it is reachable at every scale of H.
LOWEST_TOL = 1e-13
# Steps between two convergence checks of a shift.  A check (one tridiagonal
# eigen solve) costs about two steps of a column at N = 24, so checking every
# 16 steps costs about as much as the 8 steps a column overruns on average
# (on the bench grids, 73 checks at N = 24 against 140 every 8 steps).
_CHECK_EVERY = 16


class ShiftError(ValueError):
    """`lowest` has no level at the shift xs[index]: float64 overflows there
    (or, as `NotConverged`, the step cap is reached)."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class NotConverged(ShiftError):
    """`lowest` has no level at the shift xs[index]: LOWEST_STEP_CAP steps did not converge it."""


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


# an entry that overflows comes out inf or nan, which spectrum and lowest refuse
@np.errstate(over="ignore", invalid="ignore")
def hamiltonian_terms(params: ModelParams, sector: FockSector):
    """(diag, coeffs) of H on the given sector, the pair `build_hamiltonian`
    fills: the diagonal energy of each row and -Omega."""
    if params.n_levels != sector.n_levels:
        raise ValueError(
            f"params have {params.n_levels} levels, sector has {sector.n_levels}"
        )
    return _diagonal_energy(params, sector.occ), -params.Omega


@np.errstate(over="ignore", invalid="ignore")
def build_hamiltonian(params: ModelParams, sector: FockSector) -> sp.csr_matrix:
    """Real symmetric Hamiltonian matrix on the given sector: one fill of
    `hamiltonian_terms`."""
    return hop_operator(sector, *hamiltonian_terms(params, sector))


def _checked(H) -> sp.csr_matrix:
    """H as a canonical CSR matrix (sorted indices, no duplicates), after checking
    that it is square, that its entries are finite and that
    max|H - H^dag| <= HERMITICITY_TOL; the checks stay sparse.

    Where H^T has the pattern of H, as it has for a Hermitian H unless H stores
    an entry (an explicit zero, or one within HERMITICITY_TOL) without its
    mirror, the two are compared entry by entry, from one transposed copy of H.
    H - H^dag is formed only where the patterns differ or an entry fails, to
    name the worst entry."""
    H = sp.csr_matrix(H)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H.data)):
        raise ValueError("matrix entries must be finite, not inf or nan")
    if not H.has_canonical_format:
        H = H.copy()  # sum_duplicates sorts in place, and H may share the caller's arrays
        H.sum_duplicates()
    T = H.T.tocsr()
    # numpy has no boolean subtraction, which H - H^dag below upcasts
    if H.dtype != bool and np.array_equal(T.indptr, H.indptr) and np.array_equal(T.indices, H.indices):
        gap = np.conjugate(T.data, out=T.data)
        gap -= H.data
        if gap.size == 0 or np.abs(gap, out=gap).real.max() <= HERMITICITY_TOL:
            return H
    gap = sp.coo_matrix(H - H.conj().T)
    size = np.abs(gap.data)
    if size.size and np.max(size) > HERMITICITY_TOL:
        at = int(np.argmax(size))
        i, j = int(gap.row[at]), int(gap.col[at])
        raise ValueError(f"matrix is not Hermitian: |H[{i},{j}] - conj(H[{j},{i}])| = {size[at]:.3e}")
    return H


def check_fits(what: str, need: int):
    """Raise ValueError if `need` bytes exceed DENSE_BYTES_CAP, its message `what` then the bytes."""
    if need > DENSE_BYTES_CAP:
        raise ValueError(f"{what} {need} bytes > DENSE_BYTES_CAP = {DENSE_BYTES_CAP} bytes")


def check_dense_fits(d: int, dtype=np.float64):
    """Raise ValueError if one dense d x d matrix of `dtype` exceeds DENSE_BYTES_CAP."""
    check_fits(f"dimension {d} needs a dense {d}x{d} matrix of", d * d * np.dtype(dtype).itemsize)


def spectrum(H) -> np.ndarray:
    """Every eigenvalue of a Hermitian matrix, ascending: from its band where the
    band is narrow, by dense diagonalization otherwise.

    The dense d x d matrix is checked against DENSE_BYTES_CAP from the input's
    shape and dtype, before the input is converted or checked, whichever path
    the sector then takes, and all d eigenvalues are returned.

    Banded path: where the half-bandwidth b of H in the order it is given
    (the largest row - column over its entries) has d >= BAND_RATIO (b + 1),
    LAPACK's ?sbevd / ?hbevd solves the (b + 1) x d lower band in place, so the
    peak is itemsize d (b + 1) bytes plus O(nnz + d).  H is not reordered: a
    caller who wants the band passes H in a banded order, as the CLI passes a
    Fock sector's H with its rows sorted by N_a (a hop moves one atom between
    the wells).  Dense path, every other sector: H built in Fortran order as
    the one d x d array, which LAPACK's ?syevr / ?heevr overwrites in place
    (peak itemsize d^2 bytes plus O(d) workspace).  Neither path makes scipy's
    finiteness mask: `_checked` has refused every non-finite entry already.
    """
    if not sp.issparse(H):
        H = np.asarray(H)
    if H.ndim == 2:  # sized from shape and dtype, before _checked converts a dense array
        check_dense_fits(H.shape[0], np.result_type(H.dtype, np.float64))
    H = _checked(H)
    band = _lower_band(H)
    if band is not None:
        return eig_banded(band, lower=True, eigvals_only=True, overwrite_a_band=True, check_finite=False)
    # toarray() always allocates a new array, so LAPACK may overwrite it; in
    # Fortran order LAPACK takes it as is, where a C-ordered one is copied first
    return eigvalsh(H.toarray(order="F"), overwrite_a=True, check_finite=False)


def _lower_band(H):
    """The lower band of canonical CSR H in its own order, as the
    Fortran-ordered (b + 1, d) array LAPACK reads (band[i - j, j] = H[i, j] for
    i >= j), or None unless d >= BAND_RATIO (b + 1), b = max(row - column)
    over H's entries; the upper ones are never written."""
    d = H.shape[0]
    offsets = np.repeat(np.arange(d), np.diff(H.indptr)) - H.indices  # row - column of each entry
    b = int(offsets.max(initial=0))
    if d < BAND_RATIO * (b + 1):
        return None
    lower = offsets >= 0
    band = np.zeros((b + 1, d), dtype=H.dtype, order="F")
    band[offsets[lower], H.indices[lower]] = H.data[lower]
    return band


def lowest(H, D=None, xs=(0.0,)) -> np.ndarray:
    """The lowest eigenvalue of H + x diag(D) for each x in xs, by plain Lanczos.

    H is checked once (square, finite, Hermitian, as for `spectrum`); D, of
    length d, defaults to zeros, so `lowest(H)[0]` is the ground level of H.
    Every shift starts from the same fixed pseudo-random vector, and the
    shifts run in lockstep: blocks of at most LOWEST_BLOCK_ENTRIES d x G
    entries, one sparse product H @ V per step for the whole block.  The
    three-term recurrence keeps no basis and does not reorthogonalize.

    A shift's value is the lowest Ritz value of its tridiagonal T at the first
    check where the residual bound beta |s_last| is at most LOWEST_TOL ||T||.
    A check comes every _CHECK_EVERY steps, at every step from step d on (the
    Krylov space is complete there in exact arithmetic; later steps only
    add rounding), at the step cap, and at once where beta = 0 (an invariant
    subspace, where T is exact).  A shift whose recurrence overflows float64
    (||T|| turns non-finite, from step 1 where x diag(D) does) raises
    `ShiftError`; one unconverged after LOWEST_STEP_CAP steps, `NotConverged`.
    Either names the first failing shift in xs order, whichever way it fails.
    """
    H = _checked(H)
    d = H.shape[0]
    D = np.zeros(d) if D is None else np.asarray(D, dtype=float)
    if D.shape != (d,):
        raise ValueError(f"D must have shape ({d},), got {D.shape}")
    if not np.all(np.isfinite(D)):
        raise ValueError("D must be finite, not inf or nan")
    xs = np.asarray(xs, dtype=float).reshape(-1)
    # a fixed but unstructured start, so that no symmetry of H makes it
    # orthogonal to the ground state (a uniform vector can be)
    start = np.random.default_rng(0).standard_normal(d).astype(H.dtype)
    start /= np.linalg.norm(start)
    width = max(1, LOWEST_BLOCK_ENTRIES // d)
    levels = np.empty(xs.size)
    # overflow is read from the values, never raised as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, xs.size, width):
            block = D[:, None] * xs[first:first + width]
            levels[first:first + width], failed = _lanczos_lowest(H, block, start)
            if failed:
                k, overflowed = min(failed.items())
                k += first
                at = f"xs[{k}] = {float(xs[k])!r}"
                if overflowed:
                    raise ShiftError(f"{at}: the Lanczos recurrence overflows float64", k)
                raise NotConverged(f"{at}: not converged in {LOWEST_STEP_CAP} Lanczos steps", k)
    return levels


def _re_dots(X, Y):
    """Re(x^H y) for each column pair of two C-ordered (d, G) blocks, read as
    real arrays so that one einsum serves real and complex blocks."""
    d, g = X.shape
    return np.einsum("ijk,ijk->j", X.view(np.float64).reshape(d, g, -1), Y.view(np.float64).reshape(d, g, -1))


def _lanczos_lowest(H, shifts, start):
    """Lowest eigenvalue of H + diag(shifts[:, c]) for each column c, in lockstep.

    Returns the values (nan where there is none) and, for each column without
    one, {column: True if it overflowed, False if LOWEST_STEP_CAP steps did not
    converge it}.  A column leaves the block when it converges or fails.
    """
    d, g = shifts.shape
    V = np.repeat(start[:, None], g, axis=1)
    V_prev = np.zeros_like(V)
    scratch = np.empty_like(V)
    live = np.arange(g)  # the column of `shifts` each block column solves
    alpha, beta = np.empty((16, g)), np.empty((16, g))
    t_norm = np.zeros(g)  # ||T||_inf of each column's tridiagonal, beta_m included
    b_prev = np.zeros(g)
    levels = np.full(g, np.nan)
    failed = {}
    for step in range(LOWEST_STEP_CAP):
        W = H @ V
        W += np.multiply(shifts, V, out=scratch)
        a = _re_dots(V, W)
        W -= np.multiply(V, a, out=scratch)
        W -= np.multiply(V_prev, b_prev, out=scratch)
        b = np.sqrt(_re_dots(W, W))
        # |W| above ~1e154: the squares overflow (tested per column, since a
        # column that overflowed, and fails anyway, may hold nan)
        if np.isinf(b).any():
            b = np.array([norm(w, check_finite=False) for w in W.T])  # BLAS nrm2, which scales
        if step == alpha.shape[0]:  # the coefficients grow with the step count
            alpha, beta = (np.concatenate([c, np.empty_like(c)]) for c in (alpha, beta))
        alpha[step], beta[step] = a, b
        t_norm = np.maximum(t_norm, np.abs(a) + b_prev + b)
        m = step + 1
        due = m % _CHECK_EVERY == 0 or m >= d or m == LOWEST_STEP_CAP
        # between checks only beta = 0 (an invariant subspace: T is exact, and
        # beta is no divisor) or an overflow (||T|| inf or nan) stops a column
        if due or not (b.min() > 0.0 and t_norm.max() < np.inf):
            stop = ~np.isfinite(t_norm)
            failed.update((live[c], True) for c in np.flatnonzero(stop))
            for c in np.flatnonzero(~stop & (due | (b == 0.0))):
                # T over a power of two near ||T||, exactly: LAPACK's stebz
                # squares the off-diagonal, which overflows above ~1e154
                scale = np.ldexp(1.0, -np.frexp(t_norm[c])[1])
                theta, s = eigh_tridiagonal(
                    alpha[:m, c] * scale, beta[:m - 1, c] * scale, select="i", select_range=(0, 0)
                )
                if b[c] * abs(s[-1, 0]) <= LOWEST_TOL * t_norm[c]:
                    levels[live[c]] = theta[0] / scale
                    stop[c] = True
            if stop.any():
                keep = ~stop
                live = live[keep]
                if live.size == 0:
                    return levels, failed
                V, V_prev, W, shifts = V[:, keep], V_prev[:, keep], W[:, keep], shifts[:, keep]
                scratch = np.empty_like(V)
                b, t_norm = b[keep], t_norm[keep]
                alpha, beta = alpha[:, keep], beta[:, keep]
        W /= b
        V_prev, V, b_prev = V, W, b
    failed.update((c, False) for c in live)
    return levels, failed
