"""Fixed-number bosonic Fock sectors over two wells and their sparse operators.

A sector holds every occupation vector of ``2 * n_levels`` modes (the n
on-well levels of well ``a`` first, then those of well ``b``) with a fixed
total atom number.  Bases are ordered descending-lexicographically, so all
matrix layouts are deterministic and reproducible.  Operator builders return
``scipy.sparse`` CSR matrices.  `tunneling_operator` is the one assembly of the
inter-well hopping term, shared by the physical Hamiltonian and the transfer
matrix.
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
    "enumerate_sector",
    "number_operator",
    "hopping_operator",
    "tunneling_operator",
    "total_number_operator",
    "truncated_ladder",
]

WELLS = ("a", "b")


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


def _compositions(n_modes, total):
    """All occupation tuples of `n_modes` modes summing to `total`,
    in descending lexicographic order."""
    if n_modes == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(n_modes - 1, total - head):
            yield (head,) + tail


@dataclass(frozen=True, eq=False)
class FockSector:
    """Ordered basis of occupation vectors at fixed total atom number."""

    n_levels: int
    n_atoms: int
    basis: tuple
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def mode_position(self, mode: Mode) -> int:
        """Column of `mode` inside an occupation tuple."""
        if mode.level > self.n_levels:
            raise ValueError(
                f"mode {mode} invalid for a sector with {self.n_levels} levels"
            )
        offset = 0 if mode.well == "a" else self.n_levels
        return offset + mode.level - 1

    def occupations(self) -> np.ndarray:
        """Basis occupations as an integer array of shape (dim, 2*n_levels)."""
        return np.array(self.basis, dtype=np.int64).reshape(self.dim, 2 * self.n_levels)


def enumerate_sector(n_levels: int, n_atoms: int) -> FockSector:
    """Enumerate the fixed-number basis in descending lexicographic order."""
    d = dimension(n_levels, n_atoms)
    basis = tuple(_compositions(2 * n_levels, n_atoms))
    assert len(basis) == d
    index = {state: i for i, state in enumerate(basis)}
    return FockSector(n_levels=n_levels, n_atoms=n_atoms, basis=basis, index=index)


def number_operator(sector: FockSector, mode: Mode) -> sp.csr_matrix:
    """Diagonal matrix of the occupation of `mode` on each basis state."""
    pos = sector.mode_position(mode)
    diag = np.array([state[pos] for state in sector.basis], dtype=float)
    return sp.csr_matrix(sp.diags(diag, shape=(sector.dim, sector.dim)))


def total_number_operator(sector: FockSector) -> sp.csr_matrix:
    """Sum of all mode number operators; equals n_atoms * identity on the sector."""
    out = sp.csr_matrix((sector.dim, sector.dim))
    for well in WELLS:
        for level in range(1, sector.n_levels + 1):
            out = out + number_operator(sector, Mode(well, level))
    return sp.csr_matrix(out)


def hopping_operator(sector: FockSector, create: Mode, annihilate: Mode) -> sp.csr_matrix:
    """Matrix of x_create^dagger x_annihilate restricted to the sector.

    The element between target and source states is
    sqrt((n_create + 1) * n_annihilate); total atom number is conserved.
    """
    if create == annihilate:
        raise ValueError(
            f"create and annihilate coincide ({create}); use number_operator"
        )
    cpos = sector.mode_position(create)
    apos = sector.mode_position(annihilate)
    rows, cols, vals = [], [], []
    for i, state in enumerate(sector.basis):
        n_ann = state[apos]
        if n_ann == 0:
            continue
        target = list(state)
        target[apos] -= 1
        target[cpos] += 1
        j = sector.index[tuple(target)]
        rows.append(j)
        cols.append(i)
        vals.append(math.sqrt((state[cpos] + 1) * n_ann))
    out = sp.coo_matrix((vals, (rows, cols)), shape=(sector.dim, sector.dim))
    return out.tocsr()


def tunneling_operator(sector: FockSector, coeffs) -> sp.csr_matrix:
    """Matrix of sum_{jk} coeffs[j, k] (a_j^dagger b_k + b_k^dagger a_j) on the sector."""
    n = sector.n_levels
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n, n):
        raise ValueError(f"coeffs must have shape ({n}, {n}), got {coeffs.shape}")
    out = sp.csr_matrix((sector.dim, sector.dim))
    for j in range(n):
        for k in range(n):
            w = coeffs[j, k]
            if w == 0.0:
                continue
            hop = hopping_operator(sector, Mode("a", j + 1), Mode("b", k + 1))
            out = out + w * (hop + hop.T)
    return sp.csr_matrix(out)


@dataclass(frozen=True, eq=False)
class TruncatedLadder:
    """Ladder operators on the direct sum of total-occupation sectors 0..cutoff.

    `ann[j]` lowers mode j with amplitude sqrt(n_j); `cre[j]` raises it and
    maps the top sector to zero.  Canonical commutation [a_i, a_j^dagger] =
    delta_ij holds exactly on all states of total occupation <= cutoff - 1.
    """

    n_modes: int
    cutoff: int
    basis: tuple
    index: dict = field(repr=False)
    ann: list = field(repr=False)
    cre: list = field(repr=False)
    totals: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


def truncated_ladder(n_modes: int, cutoff: int) -> TruncatedLadder:
    """Build annihilators and creators on the occupation-truncated Fock space."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    basis = []
    for k in range(cutoff + 1):
        basis.extend(_compositions(n_modes, k))
    basis = tuple(basis)
    index = {state: i for i, state in enumerate(basis)}
    totals = np.array([sum(state) for state in basis], dtype=np.int64)
    dim = len(basis)

    ann, cre = [], []
    for j in range(n_modes):
        a_rows, a_cols, a_vals = [], [], []
        c_rows, c_cols, c_vals = [], [], []
        for i, state in enumerate(basis):
            nj = state[j]
            if nj > 0:
                lower = list(state)
                lower[j] -= 1
                a_rows.append(index[tuple(lower)])
                a_cols.append(i)
                a_vals.append(math.sqrt(nj))
            if totals[i] < cutoff:
                upper = list(state)
                upper[j] += 1
                c_rows.append(index[tuple(upper)])
                c_cols.append(i)
                c_vals.append(math.sqrt(nj + 1))
        ann.append(sp.coo_matrix((a_vals, (a_rows, a_cols)), shape=(dim, dim)).tocsr())
        cre.append(sp.coo_matrix((c_vals, (c_rows, c_cols)), shape=(dim, dim)).tocsr())

    return TruncatedLadder(
        n_modes=n_modes,
        cutoff=cutoff,
        basis=basis,
        index=index,
        ann=ann,
        cre=cre,
        totals=totals,
    )
