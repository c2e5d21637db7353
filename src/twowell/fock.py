"""Fixed-number bosonic Fock sectors over two wells and their sparse operators.

A sector holds every occupation vector of ``2 * n_levels`` modes (the n
on-well levels of well ``a`` first, then those of well ``b``) with a fixed
total atom number as the rows of one int64 array, `FockSector.occ`, in
descending lexicographic order.  A row is found by its exact combinatorial
rank (`FockSector.rank`), not by a lookup table.  Every operator is built
with no loop over basis states, and builders return ``scipy.sparse`` CSR
matrices.  `hop_operator` is the one hop builder: every operator of the form
diag(d) + sum_jk c_jk (a_j^dagger b_k + h.c.), the physical Hamiltonian and
the transfer matrix alike, is one fill of the sector's hop table
(`FockSector.hops`).  The sector builds that table on first use, in one
vectorized pass over every (j, k), and keeps it: the canonical CSR pattern of
the diagonal and of every hop term, with the term and amplitude of each
entry.  The ladder operators lower one mode on all rows at once.  A mode is
named `Mode("a", j)` or `Mode("b", j)`.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mode",
    "FockSector",
    "TruncatedLadder",
    "dimension",
    "SECTOR_DIM_CAP",
    "check_sector_fits",
    "enumerate_sector",
    "hop_operator",
    "number_operator",
    "total_number_operator",
    "truncated_ladder",
]

WELLS = ("a", "b")
# Largest basis `enumerate_sector` or `truncated_ladder` builds.  A sparse job
# on a sector (occupations, the hop table the sector keeps, operators with up
# to 1 + 2n^2 entries per row, ~20 Lanczos vectors) takes about 0.63 kB per
# state (tracemalloc peak of enumerate_sector, build_hamiltonian and lowest at
# n = 2, N = 60, of which the table holds 65 bytes), so 2**20 states stay below
# model.DENSE_BYTES_CAP (1 GiB); the largest sector the tests and the benchmark
# use (n = 2, N = 60: 39711 states) is 26 times smaller.
SECTOR_DIM_CAP = 1 << 20


@dataclass(frozen=True)
class Mode:
    """A single bosonic mode: well 'a' or 'b', on-well level 1..n."""

    well: str
    level: int

    def __post_init__(self):
        if self.well not in WELLS:
            raise ValueError(f"well must be one of {WELLS}, got {self.well!r}")
        if isinstance(self.level, bool) or not isinstance(self.level, numbers.Integral):
            raise ValueError(f"level must be an integer, got {self.level!r}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")

    def __str__(self):
        return f"{self.well}{self.level}"


def dimension(n_levels: int, n_atoms: int) -> int:
    """Dimension of the fixed-number sector: C(2n - 1 + N, N).

    For n_levels = 2 this is (N+3)(N+2)(N+1)/6, for n_levels = 1 it is N+1.
    Exact integer arithmetic, no overflow.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    if n_atoms < 0:
        raise ValueError(f"n_atoms must be >= 0, got {n_atoms}")
    return math.comb(2 * n_levels - 1 + n_atoms, n_atoms)


def check_sector_fits(d: int):
    """Raise ValueError if a basis of d states exceeds SECTOR_DIM_CAP."""
    if d > SECTOR_DIM_CAP:
        raise ValueError(f"{d} states > SECTOR_DIM_CAP = {SECTOR_DIM_CAP} states")


def _enumerate(n_modes, total):
    """Every occupation row of `n_modes` modes summing to `total`, descending
    lexicographically, built one mode at a time: a partial row with `rest`
    atoms left spawns the heads rest, rest - 1, ..., 0 in turn.  Each level
    keeps only its heads and their parents; the rows are then written once,
    column by column from the last mode back, along the parent chain."""
    check_sector_fits(math.comb(total + n_modes - 1, total))
    rest = np.array([total], dtype=np.int64)
    levels = []
    for _ in range(n_modes - 1):
        parent = np.repeat(np.arange(rest.size), rest + 1)
        starts = np.cumsum(rest + 1) - (rest + 1)
        head = rest[parent] - (np.arange(parent.size) - starts[parent])
        levels.append((parent, head))
        rest = rest[parent] - head
    occ = np.empty((rest.size, n_modes), dtype=np.int64)
    occ[:, -1] = rest
    row = np.arange(rest.size)
    while levels:
        parent, head = levels.pop()
        occ[:, len(levels)] = head[row]
        row = parent[row]
    return occ


def _binomials(n_atoms, m):
    """binom[r, k] = C(r + k - 1, k) for r <= n_atoms and k < m (0 at r = 0),
    each column the running sum of the one before it."""
    binom = np.zeros((n_atoms + 1, m), dtype=np.int64)
    binom[1:, 0] = 1
    for k in range(1, m):
        binom[:, k] = np.cumsum(binom[:, k - 1])
    return binom


def _rank(occ):
    """Position of each row of `occ` among the rows of `_enumerate` with the
    same number of modes and the same total:

        rank(x) = sum_{i < m-1} C(r_i - x_i - 1 + k_i, k_i),

    with k_i = m - i - 1 and r_i = x_i + ... + x_{m-1}: term i counts the
    rows that agree with x before mode i and hold more than x_i there."""
    m = occ.shape[1]
    rest = occ.sum(axis=1)
    binom = _binomials(int(rest.max(initial=0)), m)
    rank = np.zeros(len(occ), dtype=np.int64)
    for i in range(m - 1):
        rest -= occ[:, i]  # r_i - x_i
        rank += binom[rest, m - i - 1]
    return rank


def _hop_terms(occ, n_atoms):
    """Every term a_j^dagger b_k on every row of `occ` with n_bk > 0, in one
    pass: (src, dst, pair, weight) are the source row, the target row, the
    index j * n + k into the flattened coefficients and n_bk (n_aj + 1).

    The term moves an atom from column q = n + k to column p = j < q, so the
    atoms r right of column i fall by one for p <= i < q, and by Pascal's
    rule term i of `_rank`, C(r + k_i - 1, k_i), falls by C(r + k_i - 2,
    k_i - 1): the target's rank is the source's, its row, less a difference
    of running sums of those falls."""
    d, m = occ.shape
    n = m // 2
    src, k = np.nonzero(occ[:, n:])
    src, q, p = np.repeat(src, n), np.repeat(n + k, n), np.tile(np.arange(n), src.size)
    right = np.cumsum(occ[:, :0:-1], axis=1)[:, ::-1]  # r for each column i < m - 1
    falls = np.zeros((d, m), dtype=np.int64)
    np.cumsum(_binomials(n_atoms, m)[right, np.arange(m - 2, -1, -1)], axis=1, out=falls[:, 1:])
    dst = src - (falls[src, q] - falls[src, p])
    return src, dst, p * n + q - n, occ[src, q] * (occ[src, p] + 1)


@dataclass(frozen=True, eq=False)
class _HopTable:
    """Canonical CSR pattern of diag + sum_jk (a_j^dagger b_k + b_k^dagger a_j)
    on a sector: `diag` holds the slot of each row's diagonal entry, and the
    other slots, in order, the term of coefficient `pair` (into the flattened
    coefficients) with amplitude sqrt(`weight`)."""

    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray
    pair: np.ndarray
    weight: np.ndarray


def _hop_table(occ, n_atoms):
    """The `_HopTable` of the sector with rows `occ` and `n_atoms` atoms."""
    d, m = occ.shape
    src, dst, pair, weight = _hop_terms(occ, n_atoms)
    # the diagonal, then a_j^dagger b_k (row dst, column src), then its adjoint
    key = np.concatenate([np.arange(d) * (d + 1), dst * d + src, src * d + dst])
    order = np.argsort(key, kind="stable")  # keys are distinct
    is_diag = order < d
    term = order[~is_diag] - d  # the adjoint of term t is term src.size + t
    term[term >= src.size] -= src.size
    row_nnz = 1 + np.bincount(src, minlength=d) + np.bincount(dst, minlength=d)
    index = np.int32 if key.size < 2**31 else np.int64
    # the smallest integer types that hold them, since the sector keeps the table
    pair = pair.astype(np.min_scalar_type((m // 2) ** 2 - 1))
    weight = weight.astype(np.min_scalar_type(weight.max(initial=0)))
    return _HopTable(
        indptr=np.concatenate([[0], np.cumsum(row_nnz)]).astype(index),
        indices=(key[order] % d).astype(index),
        diag=np.flatnonzero(is_diag).astype(index),
        pair=pair[term],
        weight=weight[term],
    )


@dataclass(frozen=True, eq=False)
class FockSector:
    """Occupation vectors at fixed total atom number, one row each of `occ`."""

    n_levels: int
    n_atoms: int
    occ: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.occ)

    def mode_position(self, mode: Mode) -> int:
        """Column of `mode` inside an occupation row."""
        if mode.level > self.n_levels:
            raise ValueError(f"mode {mode} invalid for a sector with {self.n_levels} levels")
        offset = 0 if mode.well == "a" else self.n_levels
        return offset + mode.level - 1

    def rank(self, occ):
        """Row of each occupation vector along the last axis of the integer array `occ`."""
        x = np.asarray(occ)
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError(f"occupations {occ!r} must be integers, got dtype {x.dtype}")
        rows = x.astype(np.int64, copy=False).reshape(-1, 2 * self.n_levels)
        if np.any(rows < 0) or np.any(rows.sum(axis=1) != self.n_atoms):
            raise ValueError(f"occupations {occ!r} are not in the N={self.n_atoms} sector")
        return _rank(rows).reshape(x.shape[:-1])[()]

    @functools.cached_property
    def hops(self) -> _HopTable:
        """The sector's hop table, built on first use and kept with the sector."""
        return _hop_table(self.occ, self.n_atoms)


def enumerate_sector(n_levels: int, n_atoms: int) -> FockSector:
    """Enumerate the fixed-number basis in descending lexicographic order.

    Raises ValueError, before allocating, above SECTOR_DIM_CAP states."""
    dimension(n_levels, n_atoms)  # validates the arguments
    occ = _enumerate(2 * n_levels, n_atoms)
    return FockSector(n_levels=n_levels, n_atoms=n_atoms, occ=occ)


def number_operator(sector: FockSector, mode: Mode) -> sp.csr_matrix:
    """Diagonal matrix of the occupation of `mode` on each basis state."""
    diag = sector.occ[:, sector.mode_position(mode)].astype(float)
    return sp.csr_matrix(sp.diags(diag, shape=(sector.dim, sector.dim)))


def total_number_operator(sector: FockSector) -> sp.csr_matrix:
    """Sum of all mode number operators; equals n_atoms * identity on the sector."""
    diag = sector.occ.sum(axis=1).astype(float)
    return sp.csr_matrix(sp.diags(diag, shape=(sector.dim, sector.dim)))


def hop_operator(sector: FockSector, diag, coeffs) -> sp.csr_matrix:
    """Matrix of diag(diag) + sum_{jk} coeffs[j, k] (a_j^dagger b_k + b_k^dagger a_j),
    `diag` holding one value per row or one for all rows.

    One fill of the sector's hop table; entries that come out zero are dropped,
    so the matrix holds only the nonzero diagonal and the nonzero terms."""
    n, d = sector.n_levels, sector.dim
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n, n):
        raise ValueError(f"coeffs must have shape ({n}, {n}), got {coeffs.shape}")
    diag = np.broadcast_to(diag, (d,))
    table = sector.hops
    data = np.empty(table.indices.size, dtype=np.result_type(diag, float))
    hop = np.ones(data.size, dtype=bool)
    hop[table.diag] = False
    data[hop] = coeffs.ravel()[table.pair] * np.sqrt(table.weight, dtype=float)
    data[table.diag] = diag
    # the copies are the caller's: eliminate_zeros and callers write into them
    out = sp.csr_matrix((data, table.indices.copy(), table.indptr.copy()), shape=(d, d))
    out.eliminate_zeros()
    return out


@dataclass(frozen=True, eq=False)
class TruncatedLadder:
    """Ladder operators on the direct sum of total-occupation sectors 0..cutoff,
    stacked in `occ` by increasing total, each in descending lexicographic order.

    `ann[j]` lowers mode j with amplitude sqrt(n_j); its transpose `ann[j].T`
    is a_j^dagger, which raises it and maps the top sector to zero.  Canonical
    commutation [a_i, a_j^dagger] = delta_ij holds exactly on all states of
    total occupation <= cutoff - 1.
    """

    n_modes: int
    cutoff: int
    occ: np.ndarray = field(repr=False)
    ann: list = field(repr=False)
    totals: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.occ)


def truncated_ladder(n_modes: int, cutoff: int) -> TruncatedLadder:
    """Build the annihilators on the occupation-truncated Fock space."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    # A leading slack mode holding cutoff - total puts the sectors in
    # increasing total, each in descending lexicographic order.
    occ = _enumerate(n_modes + 1, cutoff)[:, 1:]
    totals = occ.sum(axis=1)
    dim = len(occ)
    ann = []
    for j in range(n_modes):
        src = np.flatnonzero(occ[:, j])
        target = occ[src]
        target[:, j] -= 1
        row = np.searchsorted(totals, totals[src] - 1) + _rank(target)  # + first row of its sector
        ann.append(sp.coo_matrix((np.sqrt(occ[src, j]), (row, src)), shape=(dim, dim)).tocsr())
    return TruncatedLadder(n_modes, cutoff, occ=occ, ann=ann, totals=totals)
