"""Bethe-ansatz layer: rapidity equations, a deterministic TQ solver,
energies, transfer-matrix eigenvalues, Bethe vectors, and matching against
exact diagonalization.

The equations for N rapidities {v_i} read

    eta^2 (v_i^2 - W^2) / zeta^2 = prod_{j != i} (v_i - v_j - eta) / (v_i - v_j + eta)

and solutions make prod_i C(v_i)|0> an exact eigenvector of the transfer
matrix and of the derived Hamiltonian.  The layer serves only the gauge
where s and t are proportional, which `validate_model` returns for every
integrable coupling set; `solve_bae` refuses any other.

The solver finds all N+1 solutions without a search.  With q(u) = prod_i
(u - v_i), the transfer eigenvalue is equivalent to Baxter's TQ relation

    Lambda(u) q(u) = (u^2 - W^2) q(u + eta) + (zeta^2/eta^2) q(u - eta),
    Lambda(u) = u^2 + u eta N + lambda0,

which is linear in q: on polynomials of degree <= N it is an (N+1)x(N+1)
eigenproblem for lambda0 (Baxter 1982; Links, Zhou, McKenzie & Gould,
J. Phys. A 36 (2003) R63).  Its monomial form is ill-conditioned, so the
eigenvalues come instead from the equivalent real symmetric tridiagonal on the
collective basis |m, N-m> of the modes A ~ s.a and B ~ t.b
(`collective_energies`), with lambda0 = alpha N^2 + zeta^2/eta^2 - W^2 - E.
Each state's roots are the zeros of the TQ null vector at its lambda0,
polished by damped Newton with an analytic Jacobian.  Bethe vectors are built
by sparse products with root-independent factors from `fock`, never densely.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import comb

from . import fock
from .yangbaxter import IntegrableParams, hamiltonian_from_transfer, transfer_matrix

__all__ = [
    "BetheSolution",
    "SolveResult",
    "MatchReport",
    "bae_residual",
    "collective_energies",
    "solve_bae",
    "bethe_energy",
    "transfer_eigenvalue",
    "bethe_vector",
    "match_spectrum",
]

COINCIDENT_TOL = 1e-9
# Roots are accepted when the sup-norm equation residual reaches this.  Near
# a two-string (v_i - v_j ~ -eta) the product form cannot resolve better in
# double precision, so a stricter tolerance only loses states.
BAE_TOL = 1e-10
MAX_NEWTON_ITER = 200


def _pair_gaps(v, eta):
    """(min |v_i - v_j|, min |v_i - v_j + eta|) over i != j; inf for N < 2."""
    n = v.size
    if n < 2:
        return np.inf, np.inf
    diff = v[:, None] - v[None, :]
    off = ~np.eye(n, dtype=bool)
    return float(np.min(np.abs(diff[off]))), float(np.min(np.abs(diff[off] + eta)))


def _residual(v, ip):
    """Residual vector of the rapidity equations (no pole guarding)."""
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    lhs = eta**2 * (v**2 - W**2) / zeta**2
    if v.size < 2:
        return lhs - 1.0
    diff = v[:, None] - v[None, :]
    ratio = (diff - eta) / (diff + eta)
    np.fill_diagonal(ratio, 1.0)
    return lhs - np.prod(ratio, axis=1)


def _jacobian(v, ip):
    """Complex Jacobian dF_i/dv_k of the residual map."""
    eta, zeta = ip.eta, ip.zeta
    n = v.size
    J = np.diag(2.0 * eta**2 * v / zeta**2)
    if n < 2:
        return J
    diff = v[:, None] - v[None, :]
    ratio = (diff - eta) / (diff + eta)
    np.fill_diagonal(ratio, 1.0)
    P = np.prod(ratio, axis=1)
    K = 1.0 / (diff - eta) - 1.0 / (diff + eta)
    np.fill_diagonal(K, 0.0)
    J -= np.diag(P * K.sum(axis=1))
    J += P[:, None] * K
    return J


def bae_residual(roots, ip: IntegrableParams) -> np.ndarray:
    """Componentwise residuals of the rapidity equations; all-zero for
    exact solutions."""
    v = np.asarray(roots, dtype=complex).reshape(-1)
    gap, pole = _pair_gaps(v, ip.eta)
    if gap < COINCIDENT_TOL:
        raise ValueError(f"coincident roots (min pair distance {gap:.3e})")
    if pole < 1e-12:
        raise ValueError("pole: v_i - v_j = -eta for some pair")
    return _residual(v, ip)


def _safe_norms(v, ip):
    """Residual and its sup-norm, or None near a pole."""
    gap, pole = _pair_gaps(v, ip.eta)
    if gap < 1e-13 or pole < 1e-13:
        return None, np.inf
    f = _residual(v, ip)
    if not np.all(np.isfinite(f)):
        return None, np.inf
    return f, float(np.max(np.abs(f)))


def _newton(v0, ip, tol=BAE_TOL, max_iter=MAX_NEWTON_ITER):
    """Damped Newton iteration over the 2N real root coordinates.

    Returns the converged roots or None.  Steps are damped by Armijo
    backtracking on the squared residual norm; once the residual is below
    `tol`, up to two undamped steps polish toward machine precision.
    """
    v = np.asarray(v0, dtype=complex).copy()
    f, fmax = _safe_norms(v, ip)
    if f is None:
        return None
    n = v.size
    for _ in range(max_iter):
        if fmax <= tol:
            # undamped polish toward machine precision
            for _ in range(2):
                step = _newton_step(v, f, ip)
                if step is None:
                    break
                cand = v + step
                fc, fcmax = _safe_norms(cand, ip)
                if fc is None or fcmax >= fmax:
                    break
                v, f, fmax = cand, fc, fcmax
            return v
        step = _newton_step(v, f, ip)
        if step is None:
            return None
        lam = 1.0
        sq = float(np.sum(np.abs(f) ** 2))
        while True:
            cand = v + lam * step
            fc, fcmax = _safe_norms(cand, ip)
            if fc is not None and float(np.sum(np.abs(fc) ** 2)) <= (1.0 - 1e-4 * lam) * sq:
                v, f, fmax = cand, fc, fcmax
                break
            lam *= 0.5
            if lam < 1e-7:
                return None
    return v if fmax <= tol else None


def _newton_step(v, f, ip):
    """Solve J dv = -f through the real embedding of the holomorphic Jacobian."""
    n = v.size
    Jc = _jacobian(v, ip)
    J = np.empty((2 * n, 2 * n))
    J[:n, :n] = Jc.real
    J[:n, n:] = -Jc.imag
    J[n:, :n] = Jc.imag
    J[n:, n:] = Jc.real
    rhs = np.concatenate([-f.real, -f.imag])
    try:
        dx = np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(dx)):
        return None
    return dx[:n] + 1j * dx[n:]


def _canonical(v):
    """Roots sorted by real part, then imaginary part."""
    return np.sort_complex(np.asarray(v, dtype=complex))


@dataclass
class BetheSolution:
    """One converged root multiset with its derived quantities."""

    roots: np.ndarray
    residual: float
    energy: complex
    vector: np.ndarray | None = None
    h_residual: float | None = None
    t_residual: float | None = None
    matched_eigenvalue: float | None = None
    near_eval_pole: bool = False

    @property
    def n_atoms(self) -> int:
        return len(self.roots)


@dataclass
class SolveResult:
    """Solutions in ascending energy, with the count of states tried
    (`attempts`, N+1), whose roots polished below the residual tolerance
    (`converged`) and that passed every check (`unique`); `rejected` counts
    the reasons for the rest."""

    solutions: list
    attempts: int
    converged: int
    unique: int
    rejected: dict = field(default_factory=dict)


def collective_energies(ip: IntegrableParams, n_atoms: int) -> np.ndarray:
    """Ascending energies of the N+1 Bethe states.

    They are the spectrum of the Hamiltonian on the collective basis
    |m, N-m>, m = 0..N, of the modes A ~ s.a and B ~ t.b: a real symmetric
    tridiagonal with diagonal

        alpha Na^2 + alpha Nb^2 + (2 alpha - eta^2) Na Nb + eta W (Na - Nb)

    (Na = m, Nb = N - m) and off-diagonal -|zeta| sqrt((m+1)(N-m)), where
    |zeta| = |s||t| for proportional s and t.
    """
    N = int(n_atoms)
    if N < 0:
        raise ValueError(f"n_atoms must be >= 0, got {N}")
    na = np.arange(N + 1, dtype=float)
    nb = N - na
    alpha, eta, W = ip.alpha, ip.eta, ip.omega_sum
    diag = alpha * na**2 + alpha * nb**2 + (2 * alpha - eta**2) * na * nb + eta * W * (na - nb)
    if N == 0:
        return diag
    off = -abs(ip.zeta) * np.sqrt((na[:-1] + 1.0) * nb[:-1])
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def _tq_matrix(N, eta, W, kappa):
    """Matrix of q -> (u^2 - W^2) q(u + eta) + kappa q(u - eta) - (u^2 + u eta N) q(u)
    on the monomials u^0..u^N; its eigenvalues are lambda0.  Degrees N+1 and
    N+2 cancel and are dropped."""
    T = np.zeros((N + 3, N + 1))
    for k in range(N + 1):
        j = np.arange(k + 1)
        up = comb(k, j) * eta ** (k - j)  # coefficients of (u + eta)^k
        down = comb(k, j) * (-eta) ** (k - j)  # of (u - eta)^k
        T[j + 2, k] += up
        T[j, k] += kappa * down - W**2 * up
        T[k + 2, k] -= 1.0
        T[k + 1, k] -= eta * N
    return T[: N + 1]


def _tq_roots(T, lam):
    """Zeros of the monic q spanning the null space of T - lam I."""
    c = np.linalg.svd(T - lam * np.eye(T.shape[0]))[2][-1]
    return np.roots(c[::-1] / c[-1]).astype(complex)


def solve_bae(ip: IntegrableParams, n_atoms: int, compute_vectors: bool = True) -> SolveResult:
    """All N+1 solutions of the rapidity equations, in ascending energy.

    The energies come from `collective_energies`, each state's roots from
    the null vector of the TQ operator at lambda0 = alpha N^2 + zeta^2/eta^2
    - W^2 - E, polished by Newton until the equation residual is at most
    1e-10.  States whose roots do not reach that residual, or that show a
    standard pathology (coincident roots, a pair at v_i - v_j = -eta, a
    u-dependent energy, a numerically zero Bethe vector) are left out and
    counted in `rejected`.  With `compute_vectors`, each state carries its
    Bethe vector and its eigen-residuals against H and t(u).

    Raises ValueError for N > 0 unless s and t are proportional: otherwise
    the self-adjoint t(u) is not the monodromy trace the equations solve.
    """
    N = int(n_atoms)
    if N < 0:
        raise ValueError(f"n_atoms must be >= 0, got {N}")
    rejected = {"unconverged": 0, "coincident": 0, "string_pole": 0, "zero_vector": 0, "u_dependence": 0}

    st_gap = np.linalg.norm(ip.s) * np.linalg.norm(ip.t) - abs(ip.zeta)
    if N and st_gap > 1e-10 * max(1.0, abs(ip.zeta)):
        raise ValueError(
            "s and t are not proportional: the Bethe layer solves only t = c s, "
            "the gauge validate_model returns for physical couplings"
        )

    if compute_vectors:
        sectors = [fock.enumerate_sector(ip.n_levels, k) for k in range(N + 1)]
        factors = [_c_factors(ip, sector) for sector in sectors[:N]]  # shared by all states
        H = hamiltonian_from_transfer(ip, sectors[N])
        t_at = {}  # evaluation point -> sparse t(u) on the N-atom sector

    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    # u = scale x keeps the monomial coefficients of q of comparable size
    scale = max(abs(W), abs(zeta / eta), abs(eta) * N, 1.0)
    T = _tq_matrix(N, eta / scale, W / scale, (zeta / eta / scale) ** 2)
    lam0 = ip.alpha * N * N + (zeta / eta) ** 2 - W * W - collective_energies(ip, N)

    converged = 0
    solutions = []
    for lam in lam0:
        v = np.array([], dtype=complex)
        if N:
            v = _newton(scale * _tq_roots(T, lam / scale**2), ip)
            if v is None:
                rejected["unconverged"] += 1
                continue
        converged += 1
        v = _canonical(v)
        gap, pole = _pair_gaps(v, ip.eta)
        if gap < COINCIDENT_TOL:
            rejected["coincident"] += 1
            continue
        if pole < COINCIDENT_TOL:
            rejected["string_pole"] += 1
            continue
        residual = float(np.max(np.abs(_residual(v, ip)), initial=0.0))
        try:
            energy = bethe_energy(v, ip, N)
        except ValueError:
            rejected["u_dependence"] += 1
            continue
        sol = BetheSolution(
            roots=v,
            residual=residual,
            energy=energy,
            near_eval_pole=bool(v.size and np.min(np.abs(v - ip.u)) < 1e-6),
        )
        if compute_vectors:
            try:
                sol.vector = _c_product(v, ip, iter(factors))
            except ValueError:
                rejected["zero_vector"] += 1
                continue
            sol.h_residual = _eigen_residual(H, sol.vector, energy)
            u_t = _admissible_eval_point(ip.u, v)
            if u_t not in t_at:
                t_at[u_t] = transfer_matrix(u_t, ip, sectors[N])
            sol.t_residual = _eigen_residual(t_at[u_t], sol.vector, transfer_eigenvalue(u_t, v, ip))
        solutions.append(sol)

    return SolveResult(
        solutions=solutions,
        attempts=N + 1,
        converged=converged,
        unique=len(solutions),
        rejected=rejected,
    )


def _eigen_residual(op, vec, value):
    return float(np.max(np.abs(op @ vec - value * vec)) / np.max(np.abs(vec)))


def _admissible_eval_point(u, roots, min_gap=1e-6):
    u = complex(u)
    while roots.size and np.min(np.abs(roots - u)) < min_gap:
        u += 0.5
    return u


def transfer_eigenvalue(u: complex, roots, ip: IntegrableParams) -> complex:
    """Transfer-matrix eigenvalue

        Lambda(u) = (u^2 - W^2) prod_i (v_i - u - eta)/(v_i - u)
                  + zeta^2/eta^2 prod_i (v_i - u + eta)/(v_i - u).
    """
    # canonical root order makes the symmetric products bitwise
    # permutation-invariant
    v = _canonical(np.asarray(roots, dtype=complex).reshape(-1))
    u = complex(u)
    if v.size and np.min(np.abs(v - u)) < 1e-9:
        raise ValueError(
            "evaluation point coincides with a root; evaluate at a shifted u"
        )
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    p_minus = np.prod((v - u - eta) / (v - u)) if v.size else 1.0
    p_plus = np.prod((v - u + eta) / (v - u)) if v.size else 1.0
    return (u * u - W * W) * p_minus + (zeta**2 / eta**2) * p_plus


def bethe_energy(
    roots,
    ip: IntegrableParams,
    n_atoms: int,
    u: complex | None = None,
    check: bool = True,
) -> complex:
    """Energy of a Bethe state,

        E = u^2 + u eta N + alpha N^2 + zeta^2/eta^2 - W^2 - Lambda(u),

    which is u-independent on rapidity-equation solutions.  With `check` the
    value is recomputed at a shifted spectral parameter and both must agree
    to 1e-9 relative.
    """
    v = np.asarray(roots, dtype=complex).reshape(-1)
    N = int(n_atoms)
    if v.size != N:
        raise ValueError(f"expected {N} roots, got {v.size}")
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum

    def energy_at(ueval):
        lam = transfer_eigenvalue(ueval, v, ip)
        return (
            ueval * ueval
            + ueval * eta * N
            + ip.alpha * N * N
            + zeta**2 / eta**2
            - W * W
            - lam
        )

    u0 = complex(ip.u if u is None else u)
    if v.size and np.min(np.abs(v - u0)) < 1e-9:
        raise ValueError(
            "spectral parameter coincides with a root; evaluate at a shifted u"
        )
    e0 = energy_at(u0)
    if check:
        u1 = _admissible_eval_point(u0 + 1.0, v)
        e1 = energy_at(u1)
        if abs(e0 - e1) > 1e-9 * max(1.0, abs(e0)):
            raise ValueError(
                f"energy is u-dependent ({e0} at u={u0} vs {e1} at u={u1}): "
                "roots do not solve the rapidity equations"
            )
    return e0


def _c_factors(ip, sector):
    """The root-independent factors (A^dag, N_b, B^dag) of the Bethe creation
    operator C(v) from `sector` to the next one up (see `bethe_vector`)."""
    n_b = sum(fock.number_operator(sector, fock.b_mode(j + 1)) for j in range(ip.n_levels))
    return fock.creation_operator(sector, "a", ip.s), n_b, fock.creation_operator(sector, "b", ip.s)


def _c_product(v, ip, factors):
    """prod_i C(v_i)|0>, with `factors` an iterator over the `_c_factors` of
    sectors 0..N-1 and C(v) x = A^dag ((v - W) x + eta N_b x) + (zeta/eta) B^dag x."""
    x = np.array([1.0 + 0.0j])
    for vi in v:
        a_up, n_b, b_up = next(factors)
        x = a_up @ ((vi - ip.omega_sum) * x + ip.eta * (n_b @ x)) + (ip.zeta / ip.eta) * (b_up @ x)
        del a_up, n_b, b_up  # so a lazy `factors` holds one sector's factors at a time
    if v.size and np.max(np.abs(x)) < 1e-14:
        raise ValueError("Bethe vector is numerically zero: spurious solution")
    return x


def bethe_vector(roots, ip: IntegrableParams, sectors=None) -> np.ndarray:
    """Unnormalized Bethe state prod_i C(v_i)|0> in the N-atom sector, with

        C(v) = (v - W) A^dag + eta A^dag N_b + (zeta/eta) B^dag,

    A = sum_j s_j a_j, B = sum_j s_j b_j and N_b = sum_j N_bj.  The factors
    A^dag, N_b and B^dag are root-independent sparse matrices from `fock`,
    built one sector at a time, so no dense matrix is formed.

    `sectors` may supply the pre-enumerated sector chain 0..N.  Raises if the
    amplitudes all vanish (a spurious root configuration)."""
    v = np.asarray(roots, dtype=complex).reshape(-1)
    N = v.size
    if sectors is None:
        sectors = [fock.enumerate_sector(ip.n_levels, k) for k in range(N + 1)]
    if len(sectors) < N + 1:
        raise ValueError(f"sector chain must cover 0..{N}")
    return _c_product(v, ip, (_c_factors(ip, sector) for sector in sectors))


@dataclass
class MatchReport:
    """Greedy pairing of Bethe energies with exact-diagonalization levels."""

    pairs: list  # (solution index, eigenvalue index, |delta|)
    n_matched: int
    n_solutions: int
    n_eigenvalues: int
    unmatched_solutions: list
    unmatched_eigenvalues: list
    max_matched_delta: float


def match_spectrum(solutions, spectrum, tol: float = 1e-8) -> MatchReport:
    """Pair each Bethe energy (real part) with the nearest unmatched
    eigenvalue; a pair within `tol` consumes the level.  Coverage of the
    spectrum is reported, never asserted."""
    eigenvalues = np.asarray(spectrum.eigenvalues, dtype=float)
    taken = np.zeros(eigenvalues.size, dtype=bool)
    pairs = []
    unmatched_solutions = []
    deltas = []
    for si, sol in enumerate(solutions):
        free = np.where(~taken)[0]
        if free.size == 0:
            unmatched_solutions.append(si)
            continue
        gaps = np.abs(eigenvalues[free] - sol.energy.real)
        best = free[int(np.argmin(gaps))]
        delta = float(np.min(gaps))
        if delta <= tol:
            taken[best] = True
            pairs.append((si, int(best), delta))
            deltas.append(delta)
            sol.matched_eigenvalue = float(eigenvalues[best])
        else:
            unmatched_solutions.append(si)
    return MatchReport(
        pairs=pairs,
        n_matched=len(pairs),
        n_solutions=len(solutions),
        n_eigenvalues=int(eigenvalues.size),
        unmatched_solutions=unmatched_solutions,
        unmatched_eigenvalues=[int(i) for i in np.where(~taken)[0]],
        max_matched_delta=max(deltas) if deltas else 0.0,
    )
