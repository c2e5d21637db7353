"""Integrable structure of the two-well model.

Builds the gl(2)-invariant rational R-matrix, the multi-state single-site Lax
operator, the two-site transfer matrix and its conserved charges, and checks
the defining relations numerically (Yang-Baxter, RLL, commuting transfer
matrices, Hamiltonian reconstruction).  Also maps the algebraic data
(eta, omega, s, t, alpha) to physical couplings and back; the way back
returns the gauge t = +-s, the only one the Bethe-ansatz layer solves.

Each operator has one construction and each relation one check: the
constructors here do not check themselves, the residual functions (and the
suites of `twowell verify`) do.

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
  identification always produces).  It is
  assembled by `fock.tunneling_operator` with coefficients outer(s, t), the
  same assembly the physical Hamiltonian uses with Omega.
* The Hamiltonian is H = (alpha N^2 + zeta^2/eta^2 - W^2) I - t(0).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import (
    FockSector,
    TruncatedLadder,
    total_number_operator,
    truncated_ladder,
    tunneling_operator,
)
from .model import ModelParams

__all__ = [
    "IntegrableParams",
    "IdentificationReport",
    "default_integrable_params",
    "r_matrix",
    "ybe_residual",
    "lax_operator",
    "rll_residual",
    "transfer_matrix",
    "transfer_commutator_residual",
    "conserved_charges",
    "hamiltonian_from_transfer",
    "identify_parameters",
    "validate_model",
]


@dataclass
class IntegrableParams:
    """Algebraic data entering the Lax and transfer-matrix construction.

    eta must be a nonzero real, and zeta = s . t must be nonzero.  Only the
    sum W = sum_j omega_j enters any physical quantity.
    """

    n_levels: int
    eta: float
    omega: np.ndarray
    s: np.ndarray
    t: np.ndarray
    alpha: float
    u: complex = 0.0

    def __post_init__(self):
        n = self.n_levels
        if n < 1:
            raise ValueError(f"n_levels must be >= 1, got {n}")
        eta = complex(self.eta)
        if eta.imag != 0.0:
            raise ValueError("eta must be real")
        self.eta = float(eta.real)
        if self.eta == 0.0:
            raise ValueError("eta must be nonzero")
        for name in ("omega", "s", "t"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} contains non-finite entries")
            setattr(self, name, v)
        self.alpha = float(self.alpha)
        self.u = complex(self.u)
        if self.zeta == 0.0:
            raise ValueError("zeta = sum_j s_j t_j must be nonzero")

    @property
    def zeta(self) -> float:
        return float(np.dot(self.s, self.t))

    @property
    def omega_sum(self) -> float:
        """W = sum_j omega_j."""
        return float(np.sum(self.omega))


def default_integrable_params(n_levels: int, u: complex = 0.0) -> IntegrableParams:
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
        u=u,
    )


# ---------------------------------------------------------------------------
# R-matrix and Yang-Baxter equation
# ---------------------------------------------------------------------------

def r_matrix(u: complex, eta: float) -> np.ndarray:
    """4x4 rational R-matrix with b = u/(u+eta), c = eta/(u+eta)."""
    den = u + eta
    if abs(den) <= 1e-14 * max(1.0, abs(u), abs(eta)):
        raise ValueError(f"R-matrix pole: u = -eta (u={u}, eta={eta})")
    b = u / den
    c = eta / den
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 3] = 1.0
    out[1, 1] = out[2, 2] = b
    out[1, 2] = out[2, 1] = c
    return out


_SWAP = np.zeros((4, 4))
_SWAP[0, 0] = _SWAP[3, 3] = _SWAP[1, 2] = _SWAP[2, 1] = 1.0


def _triple_embeddings(r12, r13_arg, r23_arg, eta):
    """R12, R13, R23 on the 8-dimensional triple product space."""
    eye2 = np.eye(2)
    R12 = np.kron(r_matrix(r12, eta), eye2)
    R23 = np.kron(eye2, r_matrix(r23_arg, eta))
    swap23 = np.kron(eye2, _SWAP)
    R13 = swap23 @ np.kron(r_matrix(r13_arg, eta), eye2) @ swap23
    return R12, R13, R23


def ybe_residual(u: complex, v: complex, eta: float) -> float:
    """Max-abs entry of R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v)."""
    R12, R13, R23 = _triple_embeddings(u - v, u, v, eta)
    lhs = R12 @ R13 @ R23
    rhs = R23 @ R13 @ R12
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Lax operator and RLL relation
# ---------------------------------------------------------------------------

def lax_operator(u: complex, ip: IntegrableParams, ladders: TruncatedLadder) -> np.ndarray:
    """Single-site Lax operator as a (2, 2, d, d) block array on the
    occupation-truncated Fock space of one well."""
    if ladders.n_modes != ip.n_levels:
        raise ValueError(
            f"ladders built for {ladders.n_modes} modes, params have {ip.n_levels}"
        )
    zeta = ip.zeta
    if zeta == 0.0:
        raise ValueError("zeta = 0: the Lax D-entry is degenerate")
    d = ladders.dim
    eye = np.eye(d, dtype=complex)
    blocks = np.zeros((2, 2, d, d), dtype=complex)
    blocks[0, 0] = u * eye + ip.eta * np.diag(ladders.totals.astype(float))
    blocks[0, 1] = sum(ip.t[j] * ladders.ann[j].toarray() for j in range(ip.n_levels))
    blocks[1, 0] = sum(ip.s[j] * ladders.cre[j].toarray() for j in range(ip.n_levels))
    blocks[1, 1] = (zeta / ip.eta) * eye
    return blocks


def rll_residual(
    u: complex,
    v: complex,
    ip: IntegrableParams,
    cutoff: int,
    zeta_shift: float = 0.0,
) -> float:
    """Max-abs entry of R12(u-v) L1(u) L2(v) - L2(v) L1(u) R12(u-v), projected
    onto quantum-space elements between states of total occupation
    <= cutoff - 2 (each side raises the occupation by at most two, so these
    elements carry no truncation artifacts).

    `zeta_shift` perturbs the D-block to (zeta + shift)/eta, breaking the
    construction on purpose; used as a negative control.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    ladders = truncated_ladder(ip.n_levels, cutoff)
    d = ladders.dim
    Lu = lax_operator(u, ip, ladders)
    Lv = lax_operator(v, ip, ladders)
    if zeta_shift != 0.0:
        bump = (zeta_shift / ip.eta) * np.eye(d, dtype=complex)
        Lu = Lu.copy()
        Lv = Lv.copy()
        Lu[1, 1] += bump
        Lv[1, 1] += bump
    # X[a1, a2, b1, b2] = Lu[a1, b1] Lv[a2, b2] is L1(u) L2(v), Y likewise
    # L2(v) L1(u); R12 = b I + c P swaps the row (P X) or column (Y P) pair
    R = r_matrix(u - v, ip.eta)
    b, c = R[1, 1], R[1, 2]
    X = Lu[:, None, :, None] @ Lv[None, :, None, :]
    Y = Lv[None, :, None, :] @ Lu[:, None, :, None]
    diff = b * (X - Y) + c * (X.swapaxes(0, 1) - Y.swapaxes(2, 3))
    keep = np.where(ladders.totals <= cutoff - 2)[0]
    return float(np.max(np.abs(diff[..., keep, :][..., keep])))


# ---------------------------------------------------------------------------
# Transfer matrix, charges, Hamiltonian reconstruction
# ---------------------------------------------------------------------------

def transfer_matrix(u: complex, ip: IntegrableParams, sector: FockSector) -> sp.csr_matrix:
    """Two-site transfer matrix t(u) on the fixed-number sector."""
    if ip.n_levels != sector.n_levels:
        raise ValueError(
            f"params have {ip.n_levels} levels, sector has {sector.n_levels}"
        )
    n = ip.n_levels
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    u = complex(u)
    complex_out = u.imag != 0.0
    if not complex_out:
        u = u.real

    na_tot = sector.occ[:, :n].sum(axis=1).astype(float)
    nb_tot = sector.occ[:, n:].sum(axis=1).astype(float)
    N = float(sector.n_atoms)
    diag = (
        u * u
        + u * eta * N
        + (zeta**2 / eta**2 - W**2)
        + eta * W * (nb_tot - na_tot)
        + eta**2 * na_tot * nb_tot
    )
    out = sp.diags(diag, shape=(sector.dim,) * 2)
    return sp.csr_matrix(out + tunneling_operator(sector, np.outer(ip.s, ip.t)))


def transfer_commutator_residual(
    u: complex, v: complex, ip: IntegrableParams, sector: FockSector
) -> float:
    """Max-abs entry of [t(u), t(v)], normalized by max(1, |t(u)| |t(v)|)."""
    tu = transfer_matrix(u, ip, sector).toarray()
    tv = transfer_matrix(v, ip, sector).toarray()
    comm = tu @ tv - tv @ tu
    scale = max(1.0, float(np.max(np.abs(tu))) * float(np.max(np.abs(tv))))
    return float(np.max(np.abs(comm))) / scale


def conserved_charges(ip: IntegrableParams, sector: FockSector):
    """(C0, C1, C2) with t(u) = C2 u^2 + C1 u + C0: C2 = I, C1 = eta N, C0 = t(0).

    A plain constructor; the reconstruction of t(u) and the pairwise
    commutators are checked by `twowell verify --suite charges`."""
    C2 = sp.identity(sector.dim, format="csr")
    C1 = sp.csr_matrix(ip.eta * total_number_operator(sector))
    C0 = transfer_matrix(0.0, ip, sector)
    return C0, C1, C2


def hamiltonian_from_transfer(ip: IntegrableParams, sector: FockSector) -> sp.csr_matrix:
    """Hamiltonian from the transfer matrix, real and sparse:

        H = u^2 I + u C1 + (alpha/eta^2) C1^2 + (zeta^2/eta^2 - W^2) I - t(u)
          = (alpha N^2 + zeta^2/eta^2 - W^2) I - t(0),

    since C1 = eta N I on the sector; the u-dependent parts cancel against
    t(u), so it is evaluated at u = 0."""
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    N = float(sector.n_atoms)
    scalar = ip.alpha * N * N + zeta**2 / eta**2 - W**2
    identity = sp.identity(sector.dim, format="csr")
    return sp.csr_matrix(scalar * identity - transfer_matrix(0.0, ip, sector))


# ---------------------------------------------------------------------------
# Parameter identification
# ---------------------------------------------------------------------------

@dataclass
class IdentificationReport:
    """Outcome of checking physical couplings against the integrable family."""

    integrable: bool
    derived: IntegrableParams | None = None
    violations: list = field(default_factory=list)


def identify_parameters(ip: IntegrableParams) -> ModelParams:
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
    return ModelParams(
        n_levels=n,
        U_aa=U_same.copy(),
        U_bb=U_same.copy(),
        U_ab=np.full((n, n), 2.0 * alpha - eta**2),
        mu=np.zeros(n),
        eps_a=np.full(n, eta * W),
        eps_b=np.full(n, -eta * W),
        Omega=np.outer(ip.s, ip.t),
    )


def _rank_one_factors(Omega):
    """Leading singular data of Omega: s = sqrt(sigma_1) u_1 with its first
    nonzero component positive, the sign of u_1 . v_1 (+1 when it is 0), and
    the max-abs residual of the rank-1 approximation."""
    U, sv, Vt = np.linalg.svd(Omega)
    residual = float(np.max(np.abs(Omega - sv[0] * np.outer(U[:, 0], Vt[0]))))
    s = np.sqrt(sv[0]) * U[:, 0]
    nz = np.nonzero(np.abs(s) > 1e-14)[0]
    if nz.size and s[nz[0]] < 0:
        s = -s
    sign = -1.0 if np.dot(U[:, 0], Vt[0]) < 0 else 1.0
    return s, sign, residual


def validate_model(mp: ModelParams, tol: float = 1e-10) -> IdentificationReport:
    """Check whether physical couplings sit on the integrable manifold.

    Constraints: (i) a common alpha on all same-well diagonals, (ii) same-well
    off-diagonals equal to 2 alpha, (iii) a common positive eta^2 =
    2 alpha - U_abjk, (iv) nonzero rank-1 tunneling Omega = sigma_1 u_1 v_1^T,
    (v) eps_aj - mu_j level-independent and opposite to eps_bj + mu_j, fixing
    eta W.  Violations are reported with both sides; nothing raises.

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
    if np.max(np.abs(diags - alpha)) > tol:
        violations.append(("U_ppjj common alpha", diags.tolist(), alpha))

    if n > 1:
        off_mask = ~np.eye(n, dtype=bool)
        offs = np.concatenate([mp.U_aa[off_mask], mp.U_bb[off_mask]])
        if np.max(np.abs(offs - 2.0 * alpha)) > tol:
            violations.append(("U_ppjk (j != k) equals 2 alpha", offs.tolist(), 2.0 * alpha))

    eta_sq_all = 2.0 * alpha - mp.U_ab
    eta_sq = float(np.mean(eta_sq_all))
    if np.max(np.abs(eta_sq_all - eta_sq)) > tol:
        violations.append(
            ("U_abjk common value 2 alpha - eta^2", mp.U_ab.tolist(), 2.0 * alpha - eta_sq)
        )
    if eta_sq <= 0.0:
        violations.append(("eta^2 = 2 alpha - U_abjk positive", eta_sq, 0.0))

    if np.max(np.abs(mp.Omega)) == 0.0:
        violations.append(("Omega nonzero (zeta != 0)", 0.0, "nonzero"))
    else:
        s, sign, r1_residual = _rank_one_factors(mp.Omega)
        if r1_residual > tol:
            violations.append(("Omega rank-1", r1_residual, 0.0))

    lin_a = mp.eps_a - mp.mu
    lin_b = mp.eps_b + mp.mu
    eta_W = float(lin_a[0])
    for j in range(1, n):
        if abs(lin_a[j] - eta_W) > tol:
            violations.append(
                (f"eps_a{j + 1} - mu_{j + 1} equals eps_a1 - mu_1", float(lin_a[j]), eta_W)
            )
    for j in range(n):
        if abs(lin_b[j] + eta_W) > tol:
            violations.append(
                (f"eps_b{j + 1} + mu_{j + 1} equals -(eps_a1 - mu_1)", float(lin_b[j]), -eta_W)
            )

    if violations:
        return IdentificationReport(integrable=False, violations=violations)

    eta = float(np.sqrt(eta_sq))
    W = eta_W / eta
    derived = IntegrableParams(
        n_levels=n,
        eta=eta,
        omega=np.full(n, W / n),
        s=s,
        t=sign * s,
        alpha=alpha,
        u=0.0,
    )
    return IdentificationReport(integrable=True, derived=derived, violations=[])
