"""Fixed-number bosonic Fock sectors over two wells and their sparse operators.

A sector holds every occupation vector of ``2 * n_levels`` modes (the n
on-well levels of well ``a`` first, then those of well ``b``) with a fixed
total atom number as the rows of one int64 array, `FockSector.occ`, in layer
order: sorted by N_a, the atoms in well a, descending, and each layer in
descending lexicographic order.  A hop moves one atom between the wells, so
every operator of a sector is block tridiagonal in this order, and its band
is the basis's own.  A row is found by its exact combinatorial rank
(`FockSector.rank`), not by a lookup table.  Every operator is built
with no loop over basis states, and builders return ``scipy.sparse`` CSR
matrices.  `hop_operator` is the one hop builder: every operator of the form
diag(d) + sum_jk c_jk (a_j^dagger b_k + h.c.), the physical Hamiltonian and
the transfer matrix alike, is one fill of the sector's hop table
(`FockSector.hops`).  The sector builds that table on first use, in one
vectorized pass over every (j, k), and keeps it: the canonical CSR pattern of
the diagonal and of every hop term, with the term and amplitude of each
entry.  One fill can also give a stack: from P diagonals, one
block-diagonal matrix of the P operators.  `hop_gap` compares two such
operators from their (diagonal, coefficients) pairs alone, with no fill, and
`_fill` gives the entries of a fill in the table's slots without a matrix
(`bethe.collective_levels` contracts them in place).
The ladder operators lower one mode on all rows at once.  The occupation of
mode c on every row is the column `occ[:, c]`.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FockSector",
    "TruncatedLadder",
    "dimension",
    "SECTOR_DIM_CAP",
    "SECTOR_ROW_ARRAYS",
    "check_sector_fits",
    "enumerate_sector",
    "hop_gap",
    "hop_operator",
    "truncated_ladder",
]

# Largest basis `enumerate_sector` or `truncated_ladder` builds.  A sparse job
# on a sector (occupations, the hop table the sector keeps, operators with up
# to 1 + 2n^2 entries per row, and a one-point `lowest`) takes about 0.47 kB
# per state at n = 2 (tracemalloc peak of enumerate_sector, build_hamiltonian
# and lowest at n = 2, N = 60, reached while build_hamiltonian builds the
# table and fills H; the table holds 65 bytes, and lowest, with its
# Hermiticity check, peaks at 0.32 kB).  The cost per state grows with the
# 2n columns of a row, which SECTOR_ROW_ARRAYS bounds for every basis too.
# The largest sector CI and the tests use (n = 2, N = 60: 39711 states) is
# 26 times smaller; the benchmark's largest n = 2 sector is N = 24.
SECTOR_DIM_CAP = 1 << 20
# int64 arrays of d rows x w columns (w = 2n for a sector) that a basis of d
# states may cost: the occupations and `_hop_terms`' temporaries grow with w.
# Tracemalloc peaks in such arrays, traced from before enumerate_sector, of
# the sector with its hop table; verify's hrel; charges; a 17-shift fig2
# `lowest` with build_hamiltonian (identify_parameters' couplings if n != 2):
# n = 1, N = 200000 10.5, 10.5, 12.6 (lowest does not converge); n = 2, N = 60
# 14.4, 14.4, 14.4, 14.7; n = 3, N = 30 18.0, 18.0, 18.0, 18.2; n = 4, N = 12
# 17.5, 17.5, 17.5, 17.6; n = 8, N = 4 11.9, 11.9, 11.9, 14.8.  It bounds
# every sector job of every verb; tcommute's products and solve_bae have theirs.
SECTOR_ROW_ARRAYS = 20


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


def check_sector_fits(d: int, width: int):
    """Raise ValueError if a basis of d states exceeds SECTOR_DIM_CAP, or if
    SECTOR_ROW_ARRAYS int64 arrays of its d rows x `width` columns exceed model.DENSE_BYTES_CAP."""
    from . import model  # at call time, since model imports this module

    if d > SECTOR_DIM_CAP:
        raise ValueError(f"{d} states > SECTOR_DIM_CAP = {SECTOR_DIM_CAP} states")
    need = SECTOR_ROW_ARRAYS * 8 * width * d
    model.check_fits(f"{SECTOR_ROW_ARRAYS} int64 arrays of {d} rows x {width} columns need", need)


def _enumerate(n_modes, total):
    """Every occupation row of `n_modes` modes summing to `total`, descending
    lexicographically, built one mode at a time: a partial row with `rest`
    atoms left spawns the heads rest, rest - 1, ..., 0 in turn.  Each level
    keeps only its heads and their parents; the rows are then written once,
    column by column from the last mode back, along the parent chain."""
    check_sector_fits(math.comb(total + n_modes - 1, total), n_modes)
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


def _layers(n_levels, n_atoms):
    """(count, start) of the layer order of the N-atom sector: count[t] =
    C(t + n - 1, t) rows of one well hold t atoms, and layer L, the rows with
    N_b = L atoms in well b, holds count[N - L] count[L] rows from row
    start[L] on."""
    count = _binomials(n_atoms + 1, n_levels)[1:, -1]
    start = np.zeros(n_atoms + 2, dtype=np.int64)
    np.cumsum(count[::-1] * count, out=start[1:])
    return count, start


def _hop_terms(occ, n_atoms):
    """Every term a_j^dagger b_k on every row of `occ` with n_bk > 0, in one
    pass: (src, dst, pair, weight) are the source row, the target row, the
    index j * n + k into the flattened coefficients and n_bk (n_aj + 1).

    A row of layer L with well ranks (a, b) (`_rank` of each well's columns)
    is row start[L] + a count[L] + b, so a and b come from the row's own
    index.  The term takes the row to layer L - 1 and, by Pascal's rule,
    raises term i < j of well a's rank, C(r + k_i - 1, k_i) with r the atoms
    right of column i, by C(r + k_i - 1, k_i - 1), and lowers term i < k of
    well b's by C(r + k_i - 2, k_i - 1): running sums of those rises and
    falls give the target's well ranks."""
    d, m = occ.shape
    n = m // 2
    count, start = _layers(n, n_atoms)
    cum = np.cumsum(occ.reshape(d, 2, n), axis=2)  # each well's running sums
    layer = cum[:, 1, -1]
    a, b = np.divmod(np.arange(d) - start[layer], count[layer])
    below = np.maximum(layer - 1, 0)  # the targets' layer (layer 0 has no term)
    base = start[below] + a * count[below] + b  # the target of a term with no rise or fall
    right = cum[:, :, -1:] - cum[:, :, :-1]  # r for each column i < n - 1
    right[:, 0] += 1  # well a's rises read the table at r + 1
    steps = np.zeros((d, 2, n), dtype=np.int64)
    np.cumsum(_binomials(n_atoms + 1, n)[right, np.arange(n - 2, -1, -1)], axis=2, out=steps[:, :, 1:])
    steps[:, 0] *= count[below][:, None]  # a rise of well a's rank moves count[L - 1] rows
    src, k = np.nonzero(occ[:, n:])
    src, k, j = np.repeat(src, n), np.repeat(k, n), np.tile(np.arange(n), src.size)
    dst = base[src] + steps[src, 0, j] - steps[src, 1, k]
    return src, dst, j * n + k, occ[src, n + k] * (occ[src, j] + 1)


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

    def rank(self, occ):
        """Row of each occupation vector along the last axis of the integer array `occ`."""
        x = np.asarray(occ)
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError(f"occupations {occ!r} must be integers, got dtype {x.dtype}")
        rows = x.astype(np.int64, copy=False).reshape(-1, 2 * self.n_levels)
        if np.any(rows < 0) or np.any(rows.sum(axis=1) != self.n_atoms):
            raise ValueError(f"occupations {occ!r} are not in the N={self.n_atoms} sector")
        n = self.n_levels
        count, start = _layers(n, self.n_atoms)
        layer = rows[:, n:].sum(axis=1)
        rank = start[layer] + _rank(rows[:, :n]) * count[layer] + _rank(rows[:, n:])
        return rank.reshape(x.shape[:-1])[()]

    @functools.cached_property
    def hops(self) -> _HopTable:
        """The sector's hop table, built on first use and kept with the sector."""
        return _hop_table(self.occ, self.n_atoms)


def enumerate_sector(n_levels: int, n_atoms: int) -> FockSector:
    """Enumerate the fixed-number basis in layer order: the rows sorted by N_a,
    the atoms in well a, descending, and each layer in descending
    lexicographic order.  A hop moves one atom between the wells, so an
    operator of `hop_operator` is block tridiagonal in this order.

    Raises ValueError, before allocating, where `check_sector_fits` refuses it."""
    dimension(n_levels, n_atoms)  # validates the arguments
    occ = _enumerate(2 * n_levels, n_atoms)
    # stable, by N_b ascending: N_a descending, each layer kept in lexicographic order
    occ = occ.take(np.argsort(occ[:, n_levels:].sum(axis=1), kind="stable"), axis=0)
    return FockSector(n_levels=n_levels, n_atoms=n_atoms, occ=occ)


def _fill(sector: FockSector, diag, coeffs):
    """(table, data): the sector's hop table and, in its slots, the entries of
    diag(diag) + sum_{jk} coeffs[j, k] (a_j^dagger b_k + b_k^dagger a_j), one row
    of `data` per row of a (P, d) `diag` (one row for a scalar or a (d,) one)."""
    n, d = sector.n_levels, sector.dim
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n, n):
        raise ValueError(f"coeffs must have shape ({n}, {n}), got {coeffs.shape}")
    diag = np.asarray(diag)
    if diag.ndim > 2:
        raise ValueError(f"diag must have at most 2 axes, got shape {diag.shape}")
    diag = np.broadcast_to(diag, (len(diag) if diag.ndim == 2 else 1, d))
    table = sector.hops
    nnz = table.indices.size
    data = np.empty((len(diag), nnz), dtype=np.result_type(diag, float))
    hop = np.ones(nnz, dtype=bool)
    hop[table.diag] = False
    data[:, hop] = coeffs.ravel()[table.pair] * np.sqrt(table.weight, dtype=float)
    data[:, table.diag] = diag
    return table, data


def hop_operator(sector: FockSector, diag, coeffs) -> sp.csr_matrix:
    """Matrix of diag(diag) + sum_{jk} coeffs[j, k] (a_j^dagger b_k + b_k^dagger a_j),
    `diag` holding one value per row or one for all rows.

    One fill of the sector's hop table; entries that come out zero are dropped,
    so the matrix holds only the nonzero diagonal and the nonzero terms.  A
    (P, d) `diag` gives the P operators with its rows as diagonals, the same
    coeffs, as one P d x P d block-diagonal matrix: one fill of the table,
    with the index offsets of each block, whose block p is bitwise the
    operator of diag[p] alone (its zeros dropped as that fill drops them)."""
    table, data = _fill(sector, diag, coeffs)
    (blocks, nnz), d = data.shape, sector.dim
    # new index arrays, the caller's: eliminate_zeros and callers write into them
    index = np.int32 if blocks * nnz < 2**31 else np.int64
    offsets = np.arange(blocks, dtype=index)[:, None]
    indices = (table.indices + offsets * d).ravel()
    indptr = np.concatenate([np.zeros(1, index), (table.indptr[1:] + offsets * nnz).ravel()])
    out = sp.csr_matrix((data.ravel(), indices, indptr), shape=(blocks * d,) * 2)
    out.eliminate_zeros()  # row by row, so block by block
    return out


def hop_gap(sector: FockSector, first, second) -> float:
    """Max-abs entry of hop_operator(sector, *first) - hop_operator(sector, *second),
    read from the two (diag, coeffs) pairs: neither matrix is filled.

    The diagonal part is max |diag - diag'|, bitwise that of the two fills.
    Each other entry is one term c_jk sqrt(w), w = n_bk (n_aj + 1), and on
    the N-atom sector w reaches w_N = floor((N+1)/2) ceil((N+1)/2) for every
    (j, k) (all N atoms in modes b_k and a_j, split evenly), so the off
    part is max_jk |c_jk sqrt(w_N) - c'_jk sqrt(w_N)|: bitwise the fills'
    where the coefficients agree, else within a few ulps of the terms.
    Leading axes of the diagonals (a (P, d) diag, as to `hop_operator`) and
    of the coefficients ((P, n, n)) broadcast together as blocks, and the
    result is the max over all of them."""
    n, d, N = sector.n_levels, sector.dim, sector.n_atoms
    (diag, coeffs), (other_diag, other_coeffs) = first, second
    coeffs, other_coeffs = (np.asarray(c, dtype=float) for c in (coeffs, other_coeffs))
    if coeffs.shape[-2:] != (n, n) or other_coeffs.shape[-2:] != (n, n):
        raise ValueError(f"coeffs must end in shape ({n}, {n}), got {coeffs.shape} and {other_coeffs.shape}")
    diag, other_diag = (np.broadcast_to(x, (*np.shape(x)[:-1], d)) for x in (diag, other_diag))
    gap = float(np.max(np.abs(diag - other_diag), initial=0.0))
    w_N = ((N + 1) // 2) * ((N + 2) // 2)
    if w_N:  # N = 0 has no hop term
        root = math.sqrt(w_N)
        gap = max(gap, float(np.max(np.abs(coeffs * root - other_coeffs * root))))
    return gap


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
    """Build the annihilators on the occupation-truncated Fock space; raises
    ValueError, before allocating, where `check_sector_fits` refuses its basis."""
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
