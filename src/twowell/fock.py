"""Fixed-number bosonic Fock sectors over two wells and their sparse operators.

A sector holds every occupation vector of ``2 * n_levels`` modes (the n
on-well levels of well ``a`` first, then those of well ``b``) with a fixed
total atom number as the rows of one int64 array, `FockSector.occ`, in
descending lexicographic order.  A row is found by its exact combinatorial
rank (`FockSector.rank`), not by a lookup table.  Every operator is built,
with no loop over basis states, from one vectorized primitive (`_shift`) that
raises and/or lowers a mode on all rows at once.  Builders return
``scipy.sparse`` CSR matrices.  `tunneling_operator` is the one assembly of
the inter-well hopping term, shared by the physical Hamiltonian and the
transfer matrix; `creation_operator` maps a sector to the next one up.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mode",
    "FockSector",
    "TruncatedLadder",
    "a_mode",
    "b_mode",
    "dimension",
    "SECTOR_DIM_CAP",
    "check_sector_fits",
    "enumerate_sector",
    "number_operator",
    "hopping_operator",
    "tunneling_operator",
    "creation_operator",
    "total_number_operator",
    "truncated_ladder",
]

WELLS = ("a", "b")
# Largest basis `enumerate_sector` or `truncated_ladder` builds.  A sparse job
# on a sector (occupations, operators with up to 1 + 2n^2 entries per row,
# ~20 Lanczos vectors) takes about 0.6 kB per state (fig2 at n = 2), so 2**20
# states stay below model.DENSE_BYTES_CAP (1 GiB); the largest sector the tests
# and the benchmark use (n = 2, N = 60: 39711 states) is 26 times smaller.
SECTOR_DIM_CAP = 1 << 20


@dataclass(frozen=True)
class Mode:
    """A single bosonic mode: well 'a' or 'b', on-well level 1..n."""

    well: str
    level: int

    def __post_init__(self):
        if self.well not in WELLS:
            raise ValueError(f"well must be one of {WELLS}, got {self.well!r}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")

    def __str__(self):
        return f"{self.well}{self.level}"


def a_mode(level: int) -> Mode:
    return Mode("a", level)


def b_mode(level: int) -> Mode:
    return Mode("b", level)


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
    atoms left spawns the heads rest, rest - 1, ..., 0 in turn."""
    check_sector_fits(math.comb(total + n_modes - 1, total))
    occ = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([total], dtype=np.int64)
    for _ in range(n_modes - 1):
        parent = np.repeat(np.arange(rest.size), rest + 1)
        starts = np.cumsum(rest + 1) - (rest + 1)
        head = rest[parent] - (np.arange(parent.size) - starts[parent])
        occ = np.column_stack([occ[parent], head])
        rest = rest[parent] - head
    return np.column_stack([occ, rest])


def _rank(occ):
    """Position of each row of `occ` among the rows of `_enumerate` with the
    same number of modes and the same total:

        rank(x) = sum_{i < m-1} C(r_i - x_i - 1 + k_i, k_i),

    with k_i = m - i - 1 and r_i = x_i + ... + x_{m-1}: term i counts the
    rows that agree with x before mode i and hold more than x_i there."""
    m = occ.shape[1]
    rest = occ.sum(axis=1)
    # integer C(a, b), a <= N + m - 2, b < m: C(a, b) = sum_{j<a} C(j, b-1), 0 for a < b
    table = np.zeros((int(rest.max(initial=0)) + m - 1, m), dtype=np.int64)
    table[:, 0] = 1
    for b in range(1, m):
        table[1:, b] = np.cumsum(table[:-1, b - 1])
    rank = np.zeros(len(occ), dtype=np.int64)
    for i in range(m - 1):
        k = m - i - 1
        rest -= occ[:, i]  # r_i - x_i
        rank += table[rest + k - 1, k]
    return rank


def _shift(occ, create=None, annihilate=None):
    """x_create^dagger and/or x_annihilate (columns of `occ`) on every row at once:
    (src, dst, amp) are the rows not annihilated, the `_rank` of each shifted row
    and the amplitudes sqrt((n_create + 1) n_annihilate), a factor per given mode."""
    src = np.arange(len(occ)) if annihilate is None else np.flatnonzero(occ[:, annihilate])
    target = occ[src]
    weight = np.ones(src.size, dtype=np.int64)
    if annihilate is not None:
        weight *= target[:, annihilate]
        target[:, annihilate] -= 1
    if create is not None:
        weight *= target[:, create] + 1
        target[:, create] += 1
    return src, _rank(target), np.sqrt(weight)


def _csr(entries, shape):
    """CSR matrix from (rows, cols, values) triples that hit distinct entries."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries)) if entries else ([], [], [])
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


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
        """Row of each occupation vector along the last axis of `occ`."""
        x = np.asarray(occ, dtype=np.int64)
        rows = x.reshape(-1, 2 * self.n_levels)
        if np.any(rows < 0) or np.any(rows.sum(axis=1) != self.n_atoms):
            raise ValueError(f"occupations {occ!r} are not in the N={self.n_atoms} sector")
        return _rank(rows).reshape(x.shape[:-1])[()]


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


def hopping_operator(sector: FockSector, create: Mode, annihilate: Mode) -> sp.csr_matrix:
    """Matrix of x_create^dagger x_annihilate restricted to the sector.

    The element between target and source states is
    sqrt((n_create + 1) * n_annihilate); total atom number is conserved.
    """
    if create == annihilate:
        raise ValueError(f"create and annihilate coincide ({create}); use number_operator")
    c, a = sector.mode_position(create), sector.mode_position(annihilate)
    src, dst, amp = _shift(sector.occ, c, a)
    return _csr([(dst, src, amp)], (sector.dim, sector.dim))


def tunneling_operator(sector: FockSector, coeffs) -> sp.csr_matrix:
    """Matrix of sum_{jk} coeffs[j, k] (a_j^dagger b_k + b_k^dagger a_j) on the sector.

    One COO assembly: the terms of distinct (j, k) and their adjoints hit
    distinct entries, so no value is a sum."""
    n = sector.n_levels
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n, n):
        raise ValueError(f"coeffs must have shape ({n}, {n}), got {coeffs.shape}")
    entries = []
    for j, k in zip(*np.nonzero(coeffs)):
        src, dst, amp = _shift(sector.occ, create=j, annihilate=n + k)
        w = coeffs[j, k] * amp
        entries += [(dst, src, w), (src, dst, w)]
    return _csr(entries, (sector.dim, sector.dim))


def creation_operator(sector: FockSector, well: str, coeffs) -> sp.csr_matrix:
    """Matrix of sum_j coeffs[j] x_j^dagger, x_j the modes of `well`, from
    `sector` to the sector with one more atom."""
    n = sector.n_levels
    offset = WELLS.index(well) * n
    entries = []
    for j in range(n):
        src, dst, amp = _shift(sector.occ, create=offset + j)
        entries.append((dst, src, coeffs[j] * amp))
    return _csr(entries, (dimension(n, sector.n_atoms + 1), sector.dim))


@dataclass(frozen=True, eq=False)
class TruncatedLadder:
    """Ladder operators on the direct sum of total-occupation sectors 0..cutoff,
    stacked in `occ` by increasing total, each in descending lexicographic order.

    `ann[j]` lowers mode j with amplitude sqrt(n_j); `cre[j]` raises it and
    maps the top sector to zero.  Canonical commutation [a_i, a_j^dagger] =
    delta_ij holds exactly on all states of total occupation <= cutoff - 1.
    """

    n_modes: int
    cutoff: int
    occ: np.ndarray = field(repr=False)
    ann: list = field(repr=False)
    cre: list = field(repr=False)
    totals: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.occ)


def truncated_ladder(n_modes: int, cutoff: int) -> TruncatedLadder:
    """Build annihilators and creators on the occupation-truncated Fock space."""
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
        src, dst, amp = _shift(occ, annihilate=j)
        row = np.searchsorted(totals, totals[src] - 1) + dst  # + first row of its sector
        ann.append(_csr([(row, src, amp)], (dim, dim)))
    # a_j^dagger is the transpose: it has no entry out of the top sector
    cre = [op.T.tocsr() for op in ann]
    return TruncatedLadder(n_modes, cutoff, occ=occ, ann=ann, cre=cre, totals=totals)
