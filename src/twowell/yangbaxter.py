"""Integrable structure of the two-well model.

Builds the gl(2)-invariant rational R-matrix, the multi-state single-site Lax
operator, the two-site transfer matrix and its conserved charges, and checks
the defining relations numerically (Yang-Baxter, RLL between the kept states
of the RLL_CUTOFF-truncated Fock space of one well, commuting transfer
matrices, Hamiltonian reconstruction).  Also maps the algebraic data (eta, omega, s, t, alpha) to
physical couplings and back, to IDENTIFY_TOL relative; the way back returns the gauge
t = +-s, the only one the Bethe-ansatz layer solves.

Each operator has one construction and each relation one check: the
constructors here do not check themselves, the residual functions (and the
suites of `twowell verify`) do.  The residual functions take arrays, so a
suite checks all its draws in one call, and a scalar call is the one-draw
case of the same code: the Yang-Baxter draws as one stack of 8x8 products;
the RLL draws, negative controls (a nonzero `zeta_shift`) among them, as
stacks of Lax operators (`lax_operator` of an array u), one batched product
per block pair; the commutator pairs of one sector as block-diagonal stacks
of transfer matrices (`transfer_matrix` of an array u, one fill of the
sector's hop table) and one sparse product per stack.

t(u), the charges and the Hamiltonian each have a `*_terms` function that
returns their (diagonal, coefficients) pairs; the builders of t(u) and the
charges are one `fock.hop_operator` fill of their pair, and the Hamiltonian's
matrix is that fill of `transfer_hamiltonian_terms`.  A linear relation (the charges'
reconstruction of t(u), the Hamiltonian against the physical couplings')
compares the pairs with `fock.hop_gap` and fills nothing; only the relations
with a product (the commutators, RLL, Yang-Baxter) build matrices.  Each
side of a comparison is still built on its own, from its own formula.

Conventions:

* The Lax operator on one well is
      [[u I + eta sum_j N_j,  sum_j t_j a_j],
       [sum_j s_j a_j^dag,    zeta/eta I]]
  with zeta = sum_j s_j t_j != 0.
* The two-site transfer matrix at spectral parameter u is
      t(u) = u^2 I + u eta N + (zeta^2/eta^2 - W^2) I
           + eta W sum_j (N_bj - N_aj) + eta^2 sum_{jk} N_aj N_bk
           + sum_{jk} s_j t_k (a_j^dag b_k + b_k^dag a_j),
  where W = sum_j omega_j.  The hopping term is written in the
  self-adjoint pairing, which agrees with the operator-ordered trace of
  the site-a x site-b monodromy whenever s and t are proportional (the
  gauge in which the Bethe-ansatz layer operates and which the reverse
  identification always produces).  t(u) is one fill, diagonal and hopping
  term together, of `fock.hop_operator` with coefficients outer(s, t): the
  builder and the sector's hop table that the physical Hamiltonian uses with
  -Omega.
* The Hamiltonian is H = (alpha N^2 + zeta^2/eta^2 - W^2) I - t(0), one
  fill of the same table with coefficients -outer(s, t): the scalar less
  t(0)'s pair.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import model
from .fock import (
    FockSector,
    TruncatedLadder,
    dimension,
    hop_operator,
    truncated_ladder,
)

__all__ = [
    "IntegrableParams",
    "IdentificationReport",
    "default_integrable_params",
    "r_matrix",
    "ybe_residual",
    "lax_operator",
    "rll_residual",
    "check_rll_fits",
    "transfer_terms",
    "transfer_matrix",
    "transfer_commutator_residual",
    "COMMUTATOR_ROW_BYTES",
    "check_commutator_fits",
    "charge_terms",
    "conserved_charges",
    "transfer_hamiltonian_terms",
    "identify_parameters",
    "validate_model",
]

# Occupation cutoff of the one-well Fock space on which `rll_residual` checks RLL.
RLL_CUTOFF = 4
# Largest max-abs deviation from a constraint that `validate_model` accepts, in
# units of the largest |entry| among the couplings the constraint reads.
IDENTIFY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class IntegrableParams:
    """Algebraic data entering the Lax and transfer-matrix construction.

    eta must be a nonzero real, and zeta = s . t must be nonzero.  Only the
    sum W = sum_j omega_j enters any physical quantity, and zeta^2/eta^2 - W^2,
    eta W and 2 alpha - eta^2 must not overflow float64.  The set is frozen and
    compared by identity, its arrays read-only copies, so zeta and W are computed
    once; change a field with `dataclasses.replace`, which validates the new set.
    """

    n_levels: int
    eta: float
    omega: np.ndarray
    s: np.ndarray
    t: np.ndarray
    alpha: float

    def __post_init__(self):
        n = self.n_levels
        if n < 1:
            raise ValueError(f"n_levels must be >= 1, got {n}")
        eta = complex(self.eta)
        if eta.imag != 0.0:
            raise ValueError("eta must be real")
        object.__setattr__(self, "eta", float(eta.real))
        if self.eta == 0.0:
            raise ValueError("eta must be nonzero")
        for name in ("omega", "s", "t"):  # copies, which the cached zeta and W read
            object.__setattr__(self, name, model._as_array(name, np.array(getattr(self, name), dtype=float), (n,)))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not np.isfinite(self.eta) or not np.isfinite(self.alpha):
            raise ValueError(f"eta and alpha must be finite, got {self.eta} and {self.alpha}")
        with np.errstate(over="ignore"):  # an overflow shows as inf
            z, W = self.zeta / self.eta, self.omega_sum
        if not all(map(math.isfinite, (z * z - W * W, self.eta * W, 2 * self.alpha - self.eta * self.eta))):
            raise ValueError("zeta^2/eta^2 - W^2, eta W and 2 alpha - eta^2 must be finite in float64")
        if self.zeta == 0.0:
            raise ValueError("zeta = sum_j s_j t_j must be nonzero")

    @functools.cached_property
    def zeta(self) -> float:
        return float(np.dot(self.s, self.t))

    @functools.cached_property
    def omega_sum(self) -> float:
        """W = sum_j omega_j."""
        return float(np.sum(self.omega))


def default_integrable_params(n_levels: int) -> IntegrableParams:
    """Reference parameter set: eta = alpha = 1, omega_j = 1, s = t = 1/sqrt(n).

    Gives zeta = 1 and W = n_levels; for n_levels = 2 this is the closed-form
    set used throughout the tests (W = 2, s = t = (sqrt(1/2), sqrt(1/2))).
    """
    n = n_levels
    return IntegrableParams(
        n_levels=n,
        eta=1.0,
        omega=np.ones(n),
        s=np.full(n, 1.0 / np.sqrt(n)),
        t=np.full(n, 1.0 / np.sqrt(n)),
        alpha=1.0,
    )


# ---------------------------------------------------------------------------
# R-matrix and Yang-Baxter equation
# ---------------------------------------------------------------------------

def r_matrix(u, eta) -> np.ndarray:
    """Rational R-matrix with b = u/(u+eta), c = eta/(u+eta): one 4x4 matrix
    for each element of u and eta broadcast together, shape (..., 4, 4).

    Raises ValueError if any element sits at the pole u = -eta.  The
    divisions are complex for every input, so an element gets bitwise the same
    matrix whether its u is real or complex, alone or in a stack."""
    u, eta = np.broadcast_arrays(np.asarray(u), np.asarray(eta))
    den = np.add(u, eta, dtype=complex)
    pole = np.abs(den) <= 1e-14 * np.maximum(1.0, np.maximum(np.abs(u), np.abs(eta)))
    if np.any(pole):
        at = np.argwhere(pole)[0] if pole.ndim else ()
        raise ValueError(f"R-matrix pole: u = -eta (u={u[tuple(at)]}, eta={eta[tuple(at)]})")
    out = np.zeros((*den.shape, 4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = 1.0
    out[..., 1, 1] = out[..., 2, 2] = u / den
    out[..., 1, 2] = out[..., 2, 1] = eta / den
    return out


_SWAP = np.zeros((4, 4))
_SWAP[0, 0] = _SWAP[3, 3] = _SWAP[1, 2] = _SWAP[2, 1] = 1.0


def _kron(a, b):
    """np.kron over the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def ybe_residual(u, v, eta):
    """Max-abs entry of R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v), the
    three embedded in the 8-dimensional triple product space.

    u, v and eta broadcast together; all their elements are checked as one
    stack of 8x8 products.  A float for scalar arguments, else an array of the
    broadcast shape."""
    eye2 = np.eye(2)
    R12 = _kron(r_matrix(np.subtract(u, v), eta), eye2)
    R23 = _kron(eye2, r_matrix(v, eta))
    swap23 = _kron(eye2, _SWAP)
    R13 = swap23 @ _kron(r_matrix(u, eta), eye2) @ swap23
    worst = np.max(np.abs(R12 @ R13 @ R23 - R23 @ R13 @ R12), axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# Lax operator and RLL relation
# ---------------------------------------------------------------------------

def lax_operator(u, ip, ladders: TruncatedLadder) -> np.ndarray:
    """Single-site Lax operator as a (2, 2, d, d) block array on the
    occupation-truncated Fock space of one well.

    With a 1-D array u of D draws, and `ip` one IntegrableParams or a
    sequence of D, the D operators come as one (D, 2, 2, d, d) stack, each
    bitwise the operator of its own scalar call."""
    ips = [ip] if isinstance(ip, IntegrableParams) else list(ip)
    if any(p.n_levels != ladders.n_modes for p in ips):
        raise ValueError(f"ladders built for {ladders.n_modes} modes, params have "
                         f"{sorted({p.n_levels for p in ips})} levels")
    eta, d_block = np.array([[p.eta] for p in ips]), np.array([[p.zeta / p.eta] for p in ips])
    s, t = np.array([p.s for p in ips]), np.array([p.t for p in ips])
    draws = np.reshape(u, (-1, 1))
    d = ladders.dim
    blocks = np.zeros((np.broadcast_shapes(draws.shape, eta.shape)[0], 2, 2, d, d), dtype=complex)
    flat = blocks.reshape(len(blocks), 2, 2, d * d)  # a view; d + 1 apart are the diagonals
    flat[:, 0, 0, :: d + 1] = draws + eta * ladders.totals
    flat[:, 1, 1, :: d + 1] = d_block  # nonzero, as IntegrableParams checks
    for j in range(ladders.n_modes):  # distinct modes hit distinct entries
        lower = ladders.ann[j]  # CSR; a_j^dagger is its transpose
        rows = np.repeat(np.arange(d), np.diff(lower.indptr))
        flat[:, 0, 1, rows * d + lower.indices] = t[:, j, None] * lower.data
        flat[:, 1, 0, lower.indices * d + rows] = s[:, j, None] * lower.data
    return blocks[0] if np.ndim(u) == 0 and isinstance(ip, IntegrableParams) else blocks


# Most bytes of the Lax operators (u- and v-stacks together) of one stack of
# `rll_residual` draws.  The time per draw levels off by this size while the
# tracemalloc peak grows with the stack: 40 draws, one BLAS thread on a 2.0 GHz
# Xeon, take 0.42 ms each alone and 0.10 ms stacked at n = 3; at n = 6 they take
# 1.21 ms alone and 0.91 ms in stacks of 4 (peak 7 MiB), and no less in one
# stack of 37 (35 MiB).  From n = 8 on (m = 165, 3.3 MiB a draw) draws run alone.
RLL_STACK_BYTES = 4 << 20


def rll_residual(u, v, ip, zeta_shift=0.0):
    """Max-abs entry of R12(u-v) L1(u) L2(v) - L2(v) L1(u) R12(u-v) on the
    RLL_CUTOFF-truncated Fock space of one well, between the kept states, of
    total occupation <= RLL_CUTOFF - 2 (each side raises the occupation by at
    most two, so these elements carry no truncation artifacts).  The two Lax
    operators span only the states of `_rll_ladder`; `check_rll_fits` refuses
    them, with a ValueError, before either is built.

    u, v and `zeta_shift` broadcast together into draws; `ip` is one
    IntegrableParams for all of them or a sequence with one per draw, all of
    the same n_levels.
    The draws' Lax operators are built as one u-stack and one v-stack of at
    most min(RLL_STACK_BYTES, DENSE_BYTES_CAP) bytes together, and each of
    the 16 block pairs is one batched product over the stack; each draw's
    residual is bitwise that of its own call.  A float for scalar arguments,
    else an array of the broadcast shape.

    A nonzero `zeta_shift` perturbs the draw's D-block to (zeta + shift)/eta,
    breaking the construction on purpose; used as a negative control, which
    can share a stack with unshifted draws.
    """
    u, v, zeta_shift = np.broadcast_arrays(u, v, zeta_shift)
    shape = u.shape
    u, v, zeta_shift = u.ravel(), v.ravel(), zeta_shift.ravel()
    ips = [ip] * u.size if isinstance(ip, IntegrableParams) else list(ip)
    levels = sorted({p.n_levels for p in ips})
    if len(ips) != u.size or len(levels) != 1:
        raise ValueError(f"need one IntegrableParams, or {u.size} of one n_levels, got {len(ips)} "
                         f"with n_levels {levels}")
    check_rll_fits(levels[0])
    ladders = _rll_ladder(levels[0])
    # rows go by total occupation, so the kept states lead; only kept rows of
    # left factors and kept columns of right ones are formed
    k, m = int(np.count_nonzero(ladders.totals <= RLL_CUTOFF - 2)), ladders.dim
    step = max(1, min(RLL_STACK_BYTES, model.DENSE_BYTES_CAP) // (2 * 4 * m * m * 16))
    out = np.empty(u.size)
    for first in range(0, u.size, step):
        draws = slice(first, first + step)
        out[draws] = _rll_stack(u[draws], v[draws], ips[draws], ladders, k, zeta_shift[draws])
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _rll_stack(u, v, ips, ladders, k, zeta_shift):
    """`rll_residual` of one stack of draws, its Lax operators freed on return."""
    m, eta = ladders.dim, np.array([p.eta for p in ips])
    Lu, Lv = (lax_operator(x, ips, ladders) for x in (u, v))
    for L in (Lu, Lv):  # the D-block shift of the negative control
        L.reshape(len(L), 4, m * m)[:, 3, :: m + 1] += (zeta_shift / eta)[:, None]
    # with X[a1 a2, b1 b2] = Lu[a1, b1] Lv[a2, b2] the blocks of L1(u) L2(v) and
    # Y[a1 a2, b1 b2] = Lv[a2, b2] Lu[a1, b1] those of L2(v) L1(u), R12 = b I + c P
    # makes each residual block b (X - Y) + c (X[a2 a1, b1 b2] - Y[a1 a2, b2 b1]),
    # one batched product over the stack for each block pair
    R = r_matrix(u - v, eta)
    b, c = R[:, 1, 1, None, None], R[:, 1, 2, None, None]
    worst = np.zeros(len(u))
    for a1, a2, b1, b2 in itertools.product((0, 1), repeat=4):
        same = Lu[:, a1, b1, :k] @ Lv[:, a2, b2, :, :k] - Lv[:, a2, b2, :k] @ Lu[:, a1, b1, :, :k]
        swapped = Lu[:, a2, b1, :k] @ Lv[:, a1, b2, :, :k] - Lv[:, a2, b1, :k] @ Lu[:, a1, b2, :, :k]
        np.maximum(worst, np.max(np.abs(b * same + c * swapped), axis=(1, 2)), out=worst)
    return worst


@functools.cache
def _rll_ladder(n_levels):
    """The ladder of one well to total occupation RLL_CUTOFF - 1, all one Lax
    factor reaches from a kept state, built once per level count."""
    return truncated_ladder(n_levels, RLL_CUTOFF - 1)


def check_rll_fits(n_levels: int):
    """Raise ValueError unless the two (2, 2, m, m) complex Lax operators of
    `rll_residual`, m = C(n_levels + RLL_CUTOFF - 1, n_levels), fit
    model.DENSE_BYTES_CAP."""
    m = math.comb(n_levels + RLL_CUTOFF - 1, n_levels)
    model.check_fits(f"two (2, 2, {m}, {m}) complex128 Lax operators need", 2 * 4 * m * m * 16)


# ---------------------------------------------------------------------------
# Transfer matrix, charges, Hamiltonian reconstruction
# ---------------------------------------------------------------------------

def transfer_terms(u, ip: IntegrableParams, sector: FockSector):
    """(diag, coeffs) of t(u) on the sector, the pair `transfer_matrix` fills:
    one diagonal value per row, one row of them for each element of an array
    u (real if every u is), and coefficients outer(s, t)."""
    if ip.n_levels != sector.n_levels:
        raise ValueError(f"params have {ip.n_levels} levels, sector has {sector.n_levels}")
    n = ip.n_levels
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    N = float(sector.n_atoms)

    # the terms without a row dependence, per u in Python arithmetic: numpy's
    # complex product can differ from it in the last bit
    def head(x):
        x = complex(x)
        if x.imag == 0.0:
            x = x.real
        return x * x + x * eta * N + (zeta**2 / eta**2 - W**2)

    heads = np.array([head(x) for x in np.ravel(u)]).reshape(*np.shape(u), 1)
    na_tot = sector.occ[:, :n].sum(axis=1).astype(float)
    nb_tot = sector.occ[:, n:].sum(axis=1).astype(float)
    diag = heads + eta * W * (nb_tot - na_tot) + eta**2 * na_tot * nb_tot
    return diag, np.outer(ip.s, ip.t)


def transfer_matrix(u, ip: IntegrableParams, sector: FockSector) -> sp.csr_matrix:
    """Two-site transfer matrix t(u) on the fixed-number sector: one fill of
    `transfer_terms`.

    For a 1-D array u of P values, the P matrices as one P d x P d
    block-diagonal stack: one `hop_operator` fill, block p bitwise t(u[p])."""
    return hop_operator(sector, *transfer_terms(u, ip, sector))


# Most rows of one block-diagonal stack of `transfer_commutator_residual`.  A
# sector of more rows takes its pairs one at a time: all 20 pairs of n = 2,
# N = 40 (12341 rows) in one stack peak at 760 MiB (tracemalloc), one at 34 MiB
COMMUTATOR_STACK_ROWS = 1 << 10
# Bytes that one stack of `transfer_commutator_residual` holds at its peak,
# per row and per (1 + w)^2, w the mean entries per row of t(u): a row of a
# product t(u) t(v) holds up to w^2 entries.  Tracemalloc peaks of the call,
# in these units: n = 1, N = 20000 36.2; n = 2, N = 10, 40 and 80 27.9, 33.1
# and 32.9; n = 3, N = 16 and 20 31.1 and 30.9; n = 4, N = 10 29.8; n = 8,
# N = 4 26.0; n = 12, N = 3 23.3.
COMMUTATOR_ROW_BYTES = 37


def check_commutator_fits(n_levels: int, n_atoms: int):
    """Raise ValueError unless one stack of `transfer_commutator_residual` on
    the (n, N) sector fits model.DENSE_BYTES_CAP: COMMUTATOR_ROW_BYTES
    (1 + w)^2 bytes for each of max(d, COMMUTATOR_STACK_ROWS) rows, where
    t(u) holds d + 2 n^2 dimension(n, N - 1) entries, w per row (a term
    a_j^dag b_k and its adjoint on each row with n_bk > 0)."""
    d = dimension(n_levels, n_atoms)
    entries = d + (2 * n_levels**2 * dimension(n_levels, n_atoms - 1) if n_atoms else 0)
    rows = max(d, COMMUTATOR_STACK_ROWS)
    need = -(-COMMUTATOR_ROW_BYTES * rows * (d + entries) ** 2 // (d * d))
    model.check_fits(f"transfer commutators of {rows} rows, {entries / d:.3g} entries each, need", need)


def _block_max_abs(m, d):
    """Max-abs stored entry of each diagonal d x d block of the CSR matrix m,
    0 for a block with none."""
    bounds = m.indptr[::d]  # where each block's entries start, and the end
    out = np.zeros(bounds.size - 1)
    nonempty = bounds[:-1] < bounds[1:]
    if np.any(nonempty):  # a block's reduction runs to the next nonempty block's start
        out[nonempty] = np.maximum.reduceat(np.abs(m.data), bounds[:-1][nonempty])
    return out


def transfer_commutator_residual(u, v, ip: IntegrableParams, sector: FockSector):
    """Max-abs entry of [t(u), t(v)], normalized by max(1, |t(u)| |t(v)|),
    with |.| the max-abs entry; the matrices stay sparse.

    u and v broadcast together into pairs.  Per stack of at most
    COMMUTATOR_STACK_ROWS rows, the pairs' t(u_i) and t(v_i) are two
    block-diagonal `transfer_matrix` stacks, their commutators one sparse
    product, and each pair's max-abs entries are read from its block.  A
    float for scalar arguments, else an array of the broadcast shape.

    Raises ValueError, before anything is built, where
    `check_commutator_fits` refuses the sector."""
    check_commutator_fits(sector.n_levels, sector.n_atoms)
    u, v = np.broadcast_arrays(u, v)
    shape = u.shape
    u, v = u.ravel(), v.ravel()
    d = sector.dim
    step = max(1, COMMUTATOR_STACK_ROWS // d)
    out = np.empty(u.size)
    for first in range(0, u.size, step):
        pairs = slice(first, first + step)
        TU, TV = (transfer_matrix(x[pairs], ip, sector) for x in (u, v))
        comm_max, tu_max, tv_max = (_block_max_abs(m, d) for m in (TU @ TV - TV @ TU, TU, TV))
        out[pairs] = comm_max / np.maximum(1.0, tu_max * tv_max)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def charge_terms(ip: IntegrableParams, sector: FockSector):
    """The (diag, coeffs) pairs of (C0, C1, C2), t(u) = C2 u^2 + C1 u + C0:
    those of t(0), then eta N_row and 1 on each row with zero coefficients."""
    zero = np.zeros((ip.n_levels, ip.n_levels))
    n_row = sector.occ.sum(axis=1).astype(float)
    return transfer_terms(0.0, ip, sector), (ip.eta * n_row, zero), (np.ones(sector.dim), zero)


def conserved_charges(ip: IntegrableParams, sector: FockSector):
    """(C0, C1, C2) with t(u) = C2 u^2 + C1 u + C0: C2 = I, C1 = eta N, C0 = t(0).

    A plain constructor from `charge_terms`: C0 is one `hop_operator` fill,
    C1 and C2 are diagonal.  `twowell verify --suite charges` checks t(u)
    and the commutators from `charge_terms` instead: the commutators from C0's
    entries and the two diagonals, with no sparse product."""
    t0, (diag1, _), (diag2, _) = charge_terms(ip, sector)
    return hop_operator(sector, *t0), sp.diags(diag1, format="csr"), sp.diags(diag2, format="csr")


def transfer_hamiltonian_terms(ip: IntegrableParams, sector: FockSector):
    """(diag, coeffs) of the Hamiltonian from the transfer matrix,

        H = u^2 I + u C1 + (alpha/eta^2) C1^2 + (zeta^2/eta^2 - W^2) I - t(u)
          = (alpha N^2 + zeta^2/eta^2 - W^2) I - t(0),

    since C1 = eta N I on the sector; the u-dependent parts cancel against
    t(u), so it is evaluated at u = 0: the scalar less the diagonal of t(0),
    with coefficients -outer(s, t)."""
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    N = float(sector.n_atoms)
    scalar = ip.alpha * N * N + zeta**2 / eta**2 - W**2
    diag, coeffs = transfer_terms(0.0, ip, sector)
    return scalar - diag, -coeffs


# ---------------------------------------------------------------------------
# Parameter identification
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class IdentificationReport:
    """Outcome of checking physical couplings against the integrable family."""

    integrable: bool
    derived: IntegrableParams | None = None
    violations: list = field(default_factory=list)


def identify_parameters(ip: IntegrableParams) -> model.ModelParams:
    """Physical couplings realized by the transfer-matrix Hamiltonian.

    U_ppjj = alpha, U_ppjk = 2 alpha (stored general form), U_abjk =
    2 alpha - eta^2, Omega_jk = s_j t_k, and the u-independent single-particle
    identification eps_aj - mu_j = +eta W, eps_bj + mu_j = -eta W (mu_j = 0 by
    gauge choice; only these combinations enter H).
    """
    n = ip.n_levels
    alpha, eta, W = ip.alpha, ip.eta, ip.omega_sum
    U_same = np.full((n, n), 2.0 * alpha)
    np.fill_diagonal(U_same, alpha)
    return model.ModelParams(
        n_levels=n,
        U_aa=U_same,  # symmetric: ModelParams keeps a read-only view for each
        U_bb=U_same,
        U_ab=np.full((n, n), 2.0 * alpha - eta**2),
        mu=np.zeros(n),
        eps_a=np.full(n, eta * W),
        eps_b=np.full(n, -eta * W),
        Omega=np.outer(ip.s, ip.t),
    )


def _max_abs(dev):
    """max|dev|, overwriting `dev`: one n x n temporary where np.abs would add a second."""
    return float(np.max(np.abs(dev, out=dev), initial=0.0))


def _max_off_diagonal_dev(U, value):
    """max |U_jk - value| over j != k (0 for n = 1)."""
    dev = U - value
    np.fill_diagonal(dev, 0.0)
    return _max_abs(dev)


def _rank_one_factors(Omega):
    """Leading singular data of Omega: s = sqrt(sigma_1) u_1 with its first
    nonzero component positive, the sign of u_1 . v_1 (+1 when it is 0), and
    the max-abs residual of the rank-1 approximation."""
    U, sv, Vt = np.linalg.svd(Omega)
    # |approx - Omega|, with the temporary approx overwritten in place
    residual = _max_abs(np.outer(U[:, 0], Vt[0]) * sv[0] - Omega)
    s = np.sqrt(sv[0]) * U[:, 0]
    nz = np.nonzero(np.abs(s) > 1e-14)[0]
    if nz.size and s[nz[0]] < 0:
        s = -s
    sign = -1.0 if np.dot(U[:, 0], Vt[0]) < 0 else 1.0
    return s, sign, residual


def _scale(*couplings):
    """Largest |entry| among the couplings a constraint reads: the unit of its deviation."""
    return max(float(np.max(np.abs(c), initial=0.0)) for c in couplings)


@np.errstate(over="ignore")  # an overflowing deviation shows as inf
def validate_model(mp: model.ModelParams) -> IdentificationReport:
    """Check whether physical couplings sit on the integrable manifold, each
    constraint to IDENTIFY_TOL times its scale: the largest |entry| among the
    couplings it reads, so that all couplings may share any energy unit.

    Constraints: (i) a common alpha on all same-well diagonals, (ii) same-well
    off-diagonals equal to 2 alpha, (iii) a common positive eta^2 =
    2 alpha - U_abjk, (iv) nonzero rank-1 tunneling Omega = sigma_1 u_1 v_1^T,
    (v) eps_aj - mu_j level-independent and opposite to eps_bj + mu_j, fixing
    eta W.  Violations are reported as (constraint, lhs, rhs, scale), and a
    deviation that overflows float64 is one; eta^2, eps_a - mu, eps_b + mu or
    a derived parameter that overflows raises ValueError.

    The derived parameters are in the gauge t = +-s: s = sqrt(sigma_1) u_1,
    t = sign(u_1 . v_1) s.  For symmetric Omega these are its own factors.
    Otherwise they describe the model rotated in well b by an orthogonal map
    taking v_1 to +-u_1; every other coupling on the manifold depends on
    well b only through N_b, so the spectrum is the same.
    """
    n = mp.n_levels
    violations = []

    diags = np.concatenate([np.diag(mp.U_aa), np.diag(mp.U_bb)])
    alpha = float(diags[0])
    scale = _scale(diags)
    if np.max(np.abs(diags - alpha)) > IDENTIFY_TOL * scale:
        violations.append(("U_ppjj common alpha", diags.tolist(), alpha, scale))

    scale = _scale(mp.U_aa, mp.U_bb)
    if max(_max_off_diagonal_dev(U, 2.0 * alpha) for U in (mp.U_aa, mp.U_bb)) > IDENTIFY_TOL * scale:
        off_mask = ~np.eye(n, dtype=bool)
        offs = np.concatenate([mp.U_aa[off_mask], mp.U_bb[off_mask]])
        violations.append(("U_ppjk (j != k) equals 2 alpha", offs.tolist(), 2.0 * alpha, scale))

    eta_sq = float(np.mean(2.0 * alpha - mp.U_ab))  # finite only if every entry is
    lin_a = mp.eps_a - mp.mu
    lin_b = mp.eps_b + mp.mu
    if not np.all(np.isfinite([eta_sq, *lin_a, *lin_b])):
        raise ValueError("2 alpha - U_ab, eps_a - mu and eps_b + mu must be finite in float64")
    scale = _scale(mp.U_ab, alpha)
    if _max_abs(2.0 * alpha - mp.U_ab - eta_sq) > IDENTIFY_TOL * scale:
        violations.append(
            ("U_abjk common value 2 alpha - eta^2", mp.U_ab.tolist(), 2.0 * alpha - eta_sq, scale))
    if eta_sq <= 0.0:
        violations.append(("eta^2 = 2 alpha - U_abjk positive", eta_sq, 0.0, scale))

    scale = _scale(mp.Omega)
    if scale == 0.0:
        violations.append(("Omega nonzero (zeta != 0)", 0.0, "nonzero", scale))
    else:
        s, sign, r1_residual = _rank_one_factors(mp.Omega)
        if r1_residual > IDENTIFY_TOL * scale:
            violations.append(("Omega rank-1", r1_residual, 0.0, scale))

    eta_W = float(lin_a[0])
    scale = _scale(mp.eps_a, mp.eps_b, mp.mu)
    for j in range(1, n):
        if abs(lin_a[j] - eta_W) > IDENTIFY_TOL * scale:
            name = f"eps_a{j + 1} - mu_{j + 1} equals eps_a1 - mu_1"
            violations.append((name, float(lin_a[j]), eta_W, scale))
    for j in range(n):
        if abs(lin_b[j] + eta_W) > IDENTIFY_TOL * scale:
            name = f"eps_b{j + 1} + mu_{j + 1} equals -(eps_a1 - mu_1)"
            violations.append((name, float(lin_b[j]), -eta_W, scale))

    if violations:
        return IdentificationReport(integrable=False, violations=violations)

    eta = float(np.sqrt(eta_sq))
    W = eta_W / eta
    derived = IntegrableParams(n_levels=n, eta=eta, omega=np.full(n, W / n), s=s, t=sign * s, alpha=alpha)
    return IdentificationReport(integrable=True, derived=derived, violations=[])
