"""Bethe-ansatz layer: rapidity equations, a deterministic TQ solver,
energies, transfer-matrix eigenvalues, Bethe vectors, and matching against
exact diagonalization (`match_spectrum` returns the pairing and leaves the
solutions as they are).

The equations for N rapidities {v_i} read

    eta^2 (v_i^2 - W^2) / zeta^2 = prod_{j != i} (v_i - v_j - eta) / (v_i - v_j + eta)

and solutions make prod_i C(v_i)|0> an exact eigenvector of the transfer
matrix and of the derived Hamiltonian.  The layer serves only the gauge
where s and t are proportional, which `validate_model` returns for every
integrable coupling set; for N > 0 the collective basis below exists only
there, and `collective_energies`, `bethe_vector` and `solve_bae` refuse any
other.

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
Each state keeps that exact energy E.  Its roots are the zeros of the TQ null
vector at its lambda0, polished by damped Newton (one evaluation per point,
which the analytic Jacobian reuses), and kept only if `bethe_energy`, which
reads N from the number of roots, gives E back from them.  `solve_bae`
returns the kept states and the count of the others by reason; every other
count follows from those two.

C(v) never leaves the N+1 collective states, so neither does the solver: each
kept state's Bethe vector is its N+1 amplitudes on |N-k, k>, k = N_b, and its
eigen-residuals are measured against the one signed tridiagonal of H on those
states, whatever the level count n.  `bethe_vector` alone writes a state into
the Fock sector, d = C(N + 2n - 1, N) amplitudes.
"""

import collections
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import fock, model
from .yangbaxter import IntegrableParams

__all__ = [
    "BetheSolution",
    "SolveResult",
    "MatchReport",
    "bae_residual",
    "collective_energies",
    "check_proportional",
    "SOLVE_SQUARES",
    "check_solve_fits",
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
# Damped Newton steps per state.  No state kept on n = 1..3, N <= 20 takes more
# than 6; more steps only spend time on states that are rejected anyway.
MAX_NEWTON_ITER = 8
# Largest |E_Bethe - E_ED| at which `match_spectrum` pairs a state with a level.
MATCH_TOL = 1e-8
# float64 (N+1) x (N+1) arrays that `solve_bae` holds at its peak: the TQ
# null-vector work of one state (T - lambda0 I, its SVD, np.roots' companion
# matrix), or T and five complex N x N arrays of its Newton iteration.
# Tracemalloc peaks of solve_bae, in such arrays: 11.0-11.4 at n = 1..3 and
# N = 50, 100 and 150; the rest is O(N), which only small N shows.
SOLVE_SQUARES = 13


def _pairs(v, eta):
    """(diff, min |diff_ij|, min |diff_ij + eta|) with diff_ij = v_i - v_j, the
    minima over i != j (inf for N < 2)."""
    diff = v[:, None] - v[None, :]
    off = diff[~np.eye(v.size, dtype=bool)]  # a copy, shifted in place
    gap = float(np.min(np.abs(off), initial=np.inf))
    off += eta
    return diff, gap, float(np.min(np.abs(off), initial=np.inf))


def _residual(v, diff, ip):
    """(F, P): the residual F of the rapidity equations at v, whose differences
    are diff, and its ratio products P_i = prod_{j != i} (diff_ij - eta) / (diff_ij + eta)."""
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    ratio = diff - eta
    ratio /= diff + eta
    np.fill_diagonal(ratio, 1.0)
    P = np.prod(ratio, axis=1)
    return eta**2 * (v**2 - W**2) / zeta**2 - P, P


# A Newton point: roots v, residual f and max |f|, and the diff and P `_jacobian` reads.
_Point = collections.namedtuple("_Point", "v f fmax diff P")


def _point(v, ip):
    """The `_Point` at v from one `_residual`; None within 1e-13 of a
    coincidence or a pole, or where the residual is not finite."""
    diff, gap, pole = _pairs(v, ip.eta)
    if gap < 1e-13 or pole < 1e-13:
        return None
    f, P = _residual(v, diff, ip)
    if not np.all(np.isfinite(f)):
        return None
    return _Point(v, f, float(np.max(np.abs(f))), diff, P)


def _jacobian(point, ip):
    """Complex Jacobian dF_i/dv_k of the residual map at a `_Point`."""
    J = np.diag(2.0 * ip.eta**2 * point.v / ip.zeta**2)
    K = 1.0 / (point.diff - ip.eta) - 1.0 / (point.diff + ip.eta)
    np.fill_diagonal(K, 0.0)
    J -= np.diag(point.P * K.sum(axis=1))
    J += point.P[:, None] * K
    return J


def bae_residual(roots, ip: IntegrableParams) -> np.ndarray:
    """Componentwise residuals of the rapidity equations; all-zero for
    exact solutions."""
    v = np.asarray(roots, dtype=complex).reshape(-1)
    diff, gap, pole = _pairs(v, ip.eta)
    if gap < COINCIDENT_TOL:
        raise ValueError(f"coincident roots (min pair distance {gap:.3e})")
    if pole < 1e-12:
        raise ValueError("pole: v_i - v_j = -eta for some pair")
    return _residual(v, diff, ip)[0]


def _newton(v0, ip):
    """Damped Newton iteration on the N complex roots.

    Returns the converged roots or None.  Each point is one `_Point`, which
    its step reuses.  Steps are damped by Armijo backtracking on the squared
    residual norm; below BAE_TOL, up to two undamped steps polish toward
    machine precision.  At most MAX_NEWTON_ITER damped steps are taken.
    """
    p = _point(np.asarray(v0, dtype=complex), ip)
    if p is None:
        return None
    for _ in range(MAX_NEWTON_ITER):
        if p.fmax <= BAE_TOL:
            # undamped polish toward machine precision
            for _ in range(2):
                step = _newton_step(p, ip)
                if step is None:
                    break
                cand = _point(p.v + step, ip)
                if cand is None or cand.fmax >= p.fmax:
                    break
                p = cand
            return p.v
        step = _newton_step(p, ip)
        if step is None:
            return None
        lam = 1.0
        sq = float(np.sum(np.abs(p.f) ** 2))
        while True:
            cand = _point(p.v + lam * step, ip)
            if cand is not None and float(np.sum(np.abs(cand.f) ** 2)) <= (1.0 - 1e-4 * lam) * sq:
                p = cand
                break
            lam *= 0.5
            if lam < 1e-7:
                return None
    return p.v if p.fmax <= BAE_TOL else None


def _newton_step(point, ip):
    """Solve J dv = -F at a `_Point`; the residual map is holomorphic, so J is its complex Jacobian."""
    try:
        dv = np.linalg.solve(_jacobian(point, ip), -point.f)
    except np.linalg.LinAlgError:
        return None
    return dv if np.all(np.isfinite(dv)) else None


@dataclass(eq=False)
class BetheSolution:
    """One Bethe state: its exact energy, the roots that reproduce it, and
    its Bethe vector with the eigen-residuals against H and t(u).

    `vector` holds the N+1 amplitudes of prod_i C(v_i)|0> on the collective
    states |N-k, k>, k = N_b = 0..N (`bethe_vector` writes the state into the
    Fock sector); `h_residual` and `t_residual` are max-abs eigen-residuals
    of those amplitudes, relative to their largest one."""

    roots: np.ndarray
    residual: float
    energy: float
    vector: np.ndarray
    h_residual: float
    t_residual: float


@dataclass(eq=False)
class SolveResult:
    """The kept solutions in ascending energy, and in `rejected` the count of
    the N+1 states left out for each reason; the states whose roots polished
    below the residual tolerance are the N+1 less `rejected["unconverged"]`."""

    solutions: list
    rejected: dict


def _collective_hamiltonian(ip, N):
    """(diag, off): H on the collective states |N-k, k>, k = N_b = 0..N, of the
    modes A ~ s.a and B ~ t.b, for proportional s and t.  It is real symmetric
    tridiagonal, with diagonal

        alpha Na^2 + alpha Nb^2 + (2 alpha - eta^2) Na Nb + eta W (Na - Nb)

    (Na = N - k, Nb = k) and off-diagonal <N-k-1, k+1|H|N-k, k> =
    -zeta sqrt((N-k)(k+1)), zeta = s.t with its sign, so t = -s is included.
    For N > 0 there is no such basis unless `check_proportional` passes."""
    if N:
        check_proportional(ip)
    nb = np.arange(N + 1, dtype=float)
    na = N - nb
    alpha, eta, W = ip.alpha, ip.eta, ip.omega_sum
    diag = alpha * na**2 + alpha * nb**2 + (2 * alpha - eta**2) * na * nb + eta * W * (na - nb)
    return diag, -ip.zeta * np.sqrt(na[:-1] * (nb[:-1] + 1.0))


def collective_energies(ip: IntegrableParams, n_atoms: int) -> np.ndarray:
    """Ascending energies of the N+1 Bethe states: the spectrum of
    `_collective_hamiltonian`, as built.  Raises ValueError for N > 0 unless s
    and t are proportional (`check_proportional`)."""
    N = int(n_atoms)
    if N < 0:
        raise ValueError(f"n_atoms must be >= 0, got {N}")
    return eigh_tridiagonal(*_collective_hamiltonian(ip, N), eigvals_only=True)


def _tq_matrix(N, eta, W, kappa):
    """Matrix of q -> (u^2 - W^2) q(u + eta) + kappa q(u - eta) - (u^2 + u eta N) q(u)
    on the monomials u^0..u^N; its eigenvalues are lambda0.  Degrees N+1 and
    N+2 cancel and are dropped; `check_solve_fits` keeps its binomials finite."""
    T = np.zeros((N + 3, N + 1))
    exact = [1]  # C(k, 0..k) as exact integers, each rounded once; row k + 1 by Pascal's rule
    for k in range(N + 1):
        j = np.arange(k + 1)
        binom = np.array(exact, dtype=float)
        exact = [a + b for a, b in zip([0, *exact], [*exact, 0])]
        up = binom * eta ** (k - j)  # coefficients of (u + eta)^k
        down = binom * (-eta) ** (k - j)  # of (u - eta)^k
        T[j + 2, k] += up
        T[j, k] += kappa * down - W**2 * up
        T[k + 2, k] -= 1.0
        T[k + 1, k] -= eta * N
    return T[: N + 1]


def _tq_roots(T, lam):
    """Zeros of the monic q spanning the null space of T - lam I."""
    c = np.linalg.svd(T - lam * np.eye(T.shape[0]))[2][-1]
    return np.roots(c[::-1] / c[-1]).astype(complex)


def check_proportional(ip: IntegrableParams):
    """Raise ValueError unless s and t are proportional (|s||t| = |s.t| to 1e-10
    relative), the gauge of the collective basis of a sector of N > 0 atoms."""
    st_gap = np.linalg.norm(ip.s) * np.linalg.norm(ip.t) - abs(ip.zeta)
    if st_gap > 1e-10 * max(1.0, abs(ip.zeta)):
        raise ValueError("s and t are not proportional: the Bethe layer solves only t = c s, "
                         "the gauge validate_model returns for physical couplings")


def check_solve_fits(n_atoms: int):
    """Raise ValueError unless `solve_bae`'s SOLVE_SQUARES float64 (N+1) x (N+1)
    arrays fit model.DENSE_BYTES_CAP, and then unless float64 holds the largest
    binomial of its TQ matrix, C(N, N // 2): N <= 1029."""
    N = int(n_atoms)
    m = N + 1
    model.check_fits(f"solve_bae's {SOLVE_SQUARES} ({m}, {m}) float64 arrays need", SOLVE_SQUARES * 8 * m * m)
    if math.comb(N, N // 2) > sys.float_info.max:
        past = f"past the largest float64 {sys.float_info.max:.17g}"
        raise ValueError(f"solve_bae's TQ matrix needs the binomial C({N}, {N // 2}), {past}")


def solve_bae(ip: IntegrableParams, n_atoms: int) -> SolveResult:
    """All N+1 solutions of the rapidity equations, in ascending energy.

    Each state's energy E is exact, an eigenvalue of the sector's one
    tridiagonal `_collective_hamiltonian` (as in `collective_energies`); its
    roots come from the null vector of the TQ operator at lambda0 = alpha N^2
    + zeta^2/eta^2 - W^2 - E, polished by Newton until the equation residual
    is at most 1e-10.  The roots are kept only if `bethe_energy` gives back
    E from them to 1e-9 relative.  States whose roots do not reach the
    residual, show a standard pathology (coincident roots, a pair at
    v_i - v_j = -eta) or fail the energy check are left out and counted in
    `rejected`.  Each kept state carries its Bethe vector, the N+1
    amplitudes on the collective states |N-k, k>, and its eigen-residuals
    against H and t(u), with u the point at which its energy was checked,
    both read from the same tridiagonal: on it t(u) = (E(u) + Lambda(u)) I
    - H, so the t(u)-residual is that of H at E(u).  No Fock sector is
    built, so the cost does not grow with the level count n.

    Raises ValueError, before anything is built, where `check_solve_fits`
    refuses N, and for N > 0 unless s and t are proportional
    (`_collective_hamiltonian`'s `check_proportional`): otherwise the
    self-adjoint t(u) is not the monodromy trace the equations solve.
    """
    N = int(n_atoms)
    if N < 0:
        raise ValueError(f"n_atoms must be >= 0, got {N}")
    check_solve_fits(N)
    rejected = {"unconverged": 0, "coincident": 0, "string_pole": 0, "energy_mismatch": 0}
    diag, off = _collective_hamiltonian(ip, N)  # the energies and every state's residuals

    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    # u = scale x keeps the monomial coefficients of q of comparable size
    scale = max(abs(W), abs(zeta / eta), abs(eta) * N, 1.0)
    T = _tq_matrix(N, eta / scale, W / scale, (zeta / eta / scale) ** 2)
    energies = eigh_tridiagonal(diag, off, eigvals_only=True)
    lam0 = ip.alpha * N * N + (zeta / eta) ** 2 - W * W - energies

    solutions = []
    for energy, lam in zip(energies, lam0):
        v = np.array([], dtype=complex)
        if N:
            v = _newton(scale * _tq_roots(T, lam / scale**2), ip)
            if v is None:
                rejected["unconverged"] += 1
                continue
        v = np.sort_complex(v)  # by real part, then imaginary part
        diff, gap, pole = _pairs(v, eta)
        if gap < COINCIDENT_TOL:
            rejected["coincident"] += 1
            continue
        if pole < COINCIDENT_TOL:
            rejected["string_pole"] += 1
            continue
        e_u = bethe_energy(v, ip, _admissible_eval_point(v))
        if abs(e_u - energy) > 1e-9 * max(1.0, abs(energy)):
            rejected["energy_mismatch"] += 1
            continue
        vector = _collective_state(v, ip)
        solutions.append(
            BetheSolution(
                roots=v,
                residual=float(np.max(np.abs(_residual(v, diff, ip)[0]), initial=0.0)),
                energy=float(energy),
                vector=vector,
                h_residual=_eigen_residual(diag, off, vector, energy),
                t_residual=_eigen_residual(diag, off, vector, e_u),
            )
        )

    return SolveResult(solutions=solutions, rejected=rejected)


def _eigen_residual(diag, off, vec, value):
    """max |T vec - value vec| / max |vec| for the symmetric tridiagonal T = (diag, off)."""
    r = (diag - value) * vec
    r[:-1] += off * vec[1:]
    r[1:] += off * vec[:-1]
    return float(np.max(np.abs(r)) / np.max(np.abs(vec)))


def _admissible_eval_point(roots):
    """The first of u = 0, 0.5, 1, ... at least 1e-6 away from every root."""
    u = 0j
    while roots.size and np.min(np.abs(roots - u)) < 1e-6:
        u += 0.5
    return u


def transfer_eigenvalue(u: complex, roots, ip: IntegrableParams) -> complex:
    """Transfer-matrix eigenvalue

        Lambda(u) = (u^2 - W^2) prod_i (v_i - u - eta)/(v_i - u)
                  + zeta^2/eta^2 prod_i (v_i - u + eta)/(v_i - u).
    """
    # canonical root order makes the symmetric products bitwise
    # permutation-invariant
    v = np.sort_complex(np.asarray(roots, dtype=complex).reshape(-1))
    u = complex(u)
    if v.size and np.min(np.abs(v - u)) < 1e-9:
        raise ValueError("evaluation point coincides with a root; evaluate at a shifted u")
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    p_minus = np.prod((v - u - eta) / (v - u))
    p_plus = np.prod((v - u + eta) / (v - u))
    return (u * u - W * W) * p_minus + (zeta**2 / eta**2) * p_plus


def bethe_energy(roots, ip: IntegrableParams, u: complex = 0.0) -> complex:
    """Energy of a Bethe state of N atoms from its N roots (Baxter's TQ relation),

        E = u^2 + u eta N + alpha N^2 + zeta^2/eta^2 - W^2 - Lambda(u),

    which is u-independent on rapidity-equation solutions.  Raises if u
    coincides with a root, where Lambda(u) has a pole.
    """
    v = np.asarray(roots, dtype=complex).reshape(-1)
    N = v.size
    u = complex(u)
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    lam = transfer_eigenvalue(u, v, ip)
    return u * u + u * eta * N + ip.alpha * N * N + zeta**2 / eta**2 - W * W - lam


def _collective_state(v, ip):
    """prod_i C(v_i)|0> on the collective states |N-k, k>, k = N_b = 0..N: with
    C(v)|m, k> = |s| [(v - W + eta k) sqrt(m+1) |m+1, k> + (zeta/eta) sqrt(k+1) |m, k+1>],
    one update of the amplitudes over k per root.  The amplitude of |0, N> is
    (|s| zeta/eta)^N sqrt(N!), so for zeta != 0 the state never vanishes."""
    W, eta, ratio, norm_s = ip.omega_sum, ip.eta, ip.zeta / ip.eta, np.linalg.norm(ip.s)
    amp = np.array([1.0 + 0.0j])
    for n, vi in enumerate(v):
        k = np.arange(n + 1)
        nxt = np.zeros(n + 2, dtype=complex)
        nxt[:-1] = (vi - W + eta * k) * np.sqrt(n + 1 - k) * amp
        nxt[1:] += ratio * np.sqrt(k + 1) * amp
        amp = norm_s * nxt
    return amp


def bethe_vector(roots, ip: IntegrableParams) -> np.ndarray:
    """Unnormalized Bethe state prod_i C(v_i)|0> in the N-atom sector, with

        C(v) = (v - W) A^dag + eta A^dag N_b + (zeta/eta) B^dag,

    A = sum_j s_j a_j, B = sum_j s_j b_j and N_b = sum_j N_bj.  C(v) keeps the
    state on the N+1 collective states, where the roots act
    (`_collective_state`); the result is written into the Fock sector once.
    A row with N_b = k has overlap w = <ka; kb|m, k> with the normalized
    collective state |m, k> = (A^dag)^m (B^dag)^k|0> / (|s|^(m+k) sqrt(m! k!)),
    w = sqrt(m! k! / prod_j ka_j! kb_j!) prod_j (s_j/|s|)^(ka_j + kb_j).
    For N > 0 there are no such states unless `check_proportional` passes."""
    v = np.asarray(roots, dtype=complex).reshape(-1)
    if v.size:
        check_proportional(ip)
    n, sector = ip.n_levels, fock.enumerate_sector(ip.n_levels, v.size)
    occ = sector.occ
    k = occ[:, n:].sum(axis=1)
    # log i! of each exact factorial: rounded once, as accurate as a log-gamma
    factorials = itertools.accumulate(range(1, sector.n_atoms + 1), operator.mul, initial=1)
    log_factorial = np.array([math.log(f) for f in factorials])
    log_ratio = log_factorial[sector.n_atoms - k] + log_factorial[k] - log_factorial[occ].sum(axis=1)
    s_hat = ip.s / np.linalg.norm(ip.s)
    weight = np.exp(0.5 * log_ratio) * np.prod(s_hat ** (occ[:, :n] + occ[:, n:]), axis=1)
    return weight * _collective_state(v, ip)[k]


@dataclass
class MatchReport:
    """Pairing of Bethe energies with exact-diagonalization levels: `index[i]`
    is the level paired with solution i, or -1 where none is."""

    index: list
    n_matched: int
    n_eigenvalues: int


def match_spectrum(solutions, eigenvalues) -> MatchReport:
    """Pair each Bethe energy, in the order given (ascending for `solve_bae`),
    with the nearest free one of `eigenvalues` if it lies within MATCH_TOL; a
    pair consumes the level.  Coverage of the spectrum is reported, never
    asserted, and the solutions are not modified."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    taken = np.zeros(eigenvalues.size, dtype=bool)
    index = []
    for sol in solutions:
        free = np.flatnonzero(~taken)
        gaps = np.abs(eigenvalues[free] - sol.energy)
        best = -1
        if free.size and np.min(gaps) <= MATCH_TOL:
            best = int(free[np.argmin(gaps)])
            taken[best] = True
        index.append(best)
    return MatchReport(index=index, n_matched=int(taken.sum()), n_eigenvalues=int(eigenvalues.size))
