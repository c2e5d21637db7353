"""Bethe-ansatz layer: rapidity equations, a deterministic TQ solver, energies,
transfer-matrix eigenvalues, Bethe vectors, and matching against exact
diagonalization.

The equations for N rapidities {v_i} read

    eta^2 (v_i^2 - W^2) / zeta^2 = prod_{j != i} (v_i - v_j - eta) / (v_i - v_j + eta)

and solutions make prod_i C(v_i)|0> an exact eigenvector of the transfer
matrix and of the derived Hamiltonian.  The layer serves only the gauge where
s and t are proportional, which `validate_model` returns for every integrable
coupling set: for N > 0 the collective basis below exists only there.

The solver finds all N+1 solutions without a search.  With q(u) = prod_i
(u - v_i), the transfer eigenvalue is equivalent to Baxter's TQ relation

    Lambda(u) q(u) = (u^2 - W^2) q(u + eta) + (zeta^2/eta^2) q(u - eta),
    Lambda(u) = u^2 + u eta N + lambda0,

which is linear in q: on polynomials of degree <= N it is an (N+1)x(N+1)
eigenproblem for lambda0 (Baxter 1982; Links, Zhou, McKenzie & Gould,
J. Phys. A 36 (2003) R63).  Its monomial form is ill-conditioned, so the
eigenvalues come from the equivalent real symmetric tridiagonal on the
collective basis |m, N-m> of the modes A ~ s.a and B ~ t.b
(`collective_energies`), with lambda0 = alpha N^2 + zeta^2/eta^2 - W^2 - E.
Each state keeps that exact energy E.  Its roots are the zeros of the TQ null
vector at its lambda0, polished by damped Newton (one evaluation per point,
which the analytic Jacobian reuses), and kept only if `bethe_energy` gives E
back from them.  The states run in lockstep, one (B, N) stack of roots per
block of B states (SOLVE_BLOCK_BYTES), each row bitwise the state alone.

C(v) never leaves the N+1 collective states, so neither does the solver: a kept
state's Bethe vector is its N+1 amplitudes on |N-k, k>, k = N_b, its residuals
read from the one tridiagonal of H there, whatever the level count n.
`bethe_vector` alone writes a state into the Fock sector, C(N + 2n - 1, N) rows.
"""

import collections
import contextlib
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import fock, model
from .yangbaxter import IntegrableParams

__all__ = ["BetheSolution", "SolveResult", "MatchReport", "bae_residual", "collective_energies",
           "check_proportional", "SOLVE_SQUARES", "check_solve_fits", "solve_bae", "bethe_energy",
           "transfer_eigenvalue", "bethe_vector", "match_spectrum"]

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
# float64 (N+1) x (N+1) arrays per state at `solve_bae`'s peak: the TQ work (T - lambda0 I,
# its SVD, np.roots' companion matrix), or T and five complex N x N arrays of Newton.
# Tracemalloc peaks per state: 11.0-11.4 alone (N = 50..150), 8.5-10.4 in blocks (N = 24..60).
SOLVE_SQUARES = 13
# Bytes of the SOLVE_SQUARES arrays of all states of one lockstep block of
# `solve_bae` (at least one state: from N = 100 on, blocks hold one).
SOLVE_BLOCK_BYTES = 2 << 20


def _pairs(v, eta):
    """(diff, diff + eta, min |diff_ij|, min |diff_ij + eta|) of each row of the (B, N)
    roots v: diff_bij = v_bi - v_bj, the minima over i != j (inf for N < 2)."""
    diff, i = v[:, :, None] - v[:, None, :], np.arange(v.shape[1])
    plus = diff + eta
    gap, pole = np.abs(diff), np.abs(plus)
    gap[:, i, i] = pole[:, i, i] = np.inf
    return diff, plus, gap.min(axis=(1, 2), initial=np.inf), pole.min(axis=(1, 2), initial=np.inf)


def _residual(v, diff, plus, ip):
    """(F, P): the residuals F of the rapidity equations at the rows of v, whose `_pairs`
    are diff and plus, with P_bi = prod_{j != i} (diff_bij - eta) / (diff_bij + eta)."""
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    ratio, i = diff - eta, np.arange(v.shape[1])
    ratio /= plus
    ratio[:, i, i] = 1.0
    P = ratio.prod(axis=2)
    return eta**2 * (v**2 - W**2) / zeta**2 - P, P


# A stack of Newton points: roots v, residuals f, max |f|, and what `_jacobian` reads.
_Points = collections.namedtuple("_Points", "v f fmax diff P")


def _take(p, keep):
    """The rows of the `_Points` p where keep holds (p itself where it keeps all)."""
    return p if keep.all() else _Points(*(a[keep] for a in p))


def _points(v, ip):
    """(ok, points) at the rows of v: ok marks those at least 1e-13 from a
    coincidence or a pole with a finite residual, formed only past that guard."""
    diff, plus, gap, pole = _pairs(v, ip.eta)
    ok = ~((gap < 1e-13) | (pole < 1e-13))
    if not ok.all():
        v, diff, plus = v[ok], diff[ok], plus[ok]
    f, P = _residual(v, diff, plus, ip)
    finite = np.isfinite(f).all(axis=1)
    ok[ok] = finite
    return ok, _take(_Points(v, f, np.abs(f).max(axis=1), diff, P), finite)


def bae_residual(roots, ip: IntegrableParams) -> np.ndarray:
    """Componentwise residuals of the rapidity equations; all-zero for exact solutions."""
    v = np.asarray(roots, dtype=complex).reshape(1, -1)
    diff, plus, gap, pole = _pairs(v, ip.eta)
    if gap[0] < COINCIDENT_TOL:
        raise ValueError(f"coincident roots (min pair distance {gap[0]:.3e})")
    if pole[0] < 1e-12:
        raise ValueError("pole: v_i - v_j = -eta for some pair")
    return _residual(v, diff, plus, ip)[0][0]


def _jacobian(p, ip):
    """Complex Jacobians dF_bi/dv_bk of the residual map at the `_Points` p."""
    J, i = np.zeros(p.diff.shape, dtype=complex), np.arange(p.v.shape[1])
    J[:, i, i] = 2.0 * ip.eta**2 * p.v / ip.zeta**2
    K = 1.0 / (p.diff - ip.eta) - 1.0 / (p.diff + ip.eta)
    K[:, i, i] = 0.0
    J[:, i, i] -= p.P * K.sum(axis=2)
    J += p.P[:, :, None] * K
    return J


def _newton_steps(p, ip):
    """(solved, dv): J dv = -F at the `_Points` p as one stack, or row by row where a
    J is singular (J is complex: the map is holomorphic); dv of the finite rows."""
    J, b = _jacobian(p, ip), -p.f
    try:
        dv = np.linalg.solve(J, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        dv = np.full_like(b, np.nan)
        for k in range(len(b)):
            with contextlib.suppress(np.linalg.LinAlgError):
                dv[k] = np.linalg.solve(J[k], b[k])
    return (solved := np.isfinite(dv).all(axis=1)), dv[solved]


def _backtrack(p, step, ip):
    """(accepted, points): Armijo backtracking of each row of the `_Points` p along
    its step, lam = 1, 1/2, ... until its squared residual norm falls enough."""
    lam, sq = 1.0, (np.abs(p.f) ** 2).sum(axis=1)
    accepted, trying = np.zeros(len(step), dtype=bool), np.arange(len(step))
    while trying.size and lam >= 1e-7:
        ok, cand = _points(p.v[trying] + lam * step[trying], ip)
        rows = trying[ok]
        good = (np.abs(cand.f) ** 2).sum(axis=1) <= (1.0 - 1e-4 * lam) * sq[rows]
        if good.all() and rows.size == len(step):  # the whole stack at once: no copies
            return good, cand
        if good.any():  # rows that accept leave the search with their point
            for a, b in zip(p, cand):
                a[rows[good]] = b[good]
            accepted[rows[good]] = True
            trying = trying[~accepted[trying]]
        lam *= 0.5
    return accepted, _take(p, accepted)


def _newton(v0, ip):
    """(roots, converged): damped Newton on each row of the (B, N) roots v0 in lockstep, each
    on its own path: at most MAX_NEWTON_ITER steps damped by `_backtrack`, and once its residual
    is at most BAE_TOL at the start of a step, up to two undamped ones while it falls."""
    roots, converged = np.zeros_like(v0), np.zeros(len(v0), dtype=bool)
    ok, p = _points(v0.copy(), ip)  # its rows are updated in place
    rows, polish = np.flatnonzero(ok), []
    for _ in range(MAX_NEWTON_ITER):
        small = p.fmax <= BAE_TOL
        if small.any():
            polish.append((rows[small], *_take(p, small)))
            rows, p = rows[~small], _take(p, ~small)
        if not rows.size:
            break
        solved, step = _newton_steps(p, ip)
        accepted, p = _backtrack(_take(p, solved), step, ip)
        rows = rows[solved][accepted]
    small = p.fmax <= BAE_TOL
    roots[rows[small]], converged[rows[small]] = p.v[small], True
    if polish:  # every row that reached BAE_TOL before its last damped step
        rows, *points = map(np.concatenate, zip(*polish))
        p = _Points(*points)
        roots[rows], converged[rows] = p.v, True
        for _ in range(2):
            if rows.size:
                solved, step = _newton_steps(p, ip)
                ok, cand = _points(p.v[solved] + step, ip)
                better = cand.fmax < p.fmax[solved][ok]
                rows, p = rows[solved][ok][better], _take(cand, better)
                roots[rows] = p.v
    return roots, converged


@dataclass(eq=False)
class BetheSolution:
    """One Bethe state: its exact energy, the roots that reproduce it, its N+1
    amplitudes of prod_i C(v_i)|0> on the collective states |N-k, k>, k = N_b
    (`bethe_vector` writes it into the Fock sector), and their max-abs
    eigen-residuals against H and t(u), relative to the largest amplitude."""

    roots: np.ndarray
    residual: float
    energy: float
    vector: np.ndarray
    h_residual: float
    t_residual: float


@dataclass(eq=False)
class SolveResult:
    """The kept solutions in ascending energy, and in `rejected` the count of the
    N+1 states left out for each reason ("unconverged" the rest of the N+1)."""

    solutions: list
    rejected: dict


def _collective_hamiltonian(ip, N):
    """(diag, off): H on the collective states |N-k, k>, k = N_b = 0..N, of the
    modes A ~ s.a and B ~ t.b, a real symmetric tridiagonal with diagonal

        alpha Na^2 + alpha Nb^2 + (2 alpha - eta^2) Na Nb + eta W (Na - Nb)

    (Na = N - k, Nb = k) and <N-k-1, k+1|H|N-k, k> = -zeta sqrt((N-k)(k+1)),
    zeta = s.t with its sign (t = -s included).  For N > 0 there is no such
    basis unless `check_proportional` passes."""
    if N:
        check_proportional(ip)
    nb = np.arange(N + 1, dtype=float)
    na = N - nb
    alpha, eta, W = ip.alpha, ip.eta, ip.omega_sum
    diag = alpha * na**2 + alpha * nb**2 + (2 * alpha - eta**2) * na * nb + eta * W * (na - nb)
    return diag, -ip.zeta * np.sqrt(na[:-1] * (nb[:-1] + 1.0))


def collective_energies(ip: IntegrableParams, n_atoms: int) -> np.ndarray:
    """Ascending energies of the N+1 Bethe states: the spectrum of `_collective_hamiltonian`,
    as built.  Raises ValueError for N > 0 unless `check_proportional` passes."""
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
    """Zeros of the monic q spanning the null space of T - lam_b I, a row per lam_b: one
    stacked SVD, then np.roots' arithmetic, a companion stack per count of roots at 0."""
    M = lam[:, None, None] * np.eye(T.shape[0])
    c = np.linalg.svd(np.subtract(T, M, out=M))[2][:, -1]
    p = c[:, ::-1] / c[:, -1:]
    roots, zeros = np.zeros((len(p), p.shape[1] - 1), dtype=complex), np.argmax(p[:, ::-1] != 0, axis=1)
    for z in np.unique(zeros):
        rows, n = zeros == z, roots.shape[1] - z
        A = np.zeros((rows.sum(), n, n))
        A[:, 0] = -p[rows, 1 : n + 1] / p[rows, :1]
        A[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        roots[rows, :n] = np.linalg.eigvals(A)  # LAPACK's real roots have imag +0, as np.roots'
    return roots


def check_proportional(ip: IntegrableParams):
    """Raise ValueError unless s and t are proportional (|s||t| = |s.t| to 1e-10
    relative), the gauge of the collective basis of a sector of N > 0 atoms."""
    st_gap = np.linalg.norm(ip.s) * np.linalg.norm(ip.t) - abs(ip.zeta)
    if st_gap > 1e-10 * max(1.0, abs(ip.zeta)):
        raise ValueError("s and t are not proportional: the Bethe layer solves only t = c s, "
                         "the gauge validate_model returns for physical couplings")


def _block_states(N):
    """States per lockstep block of `solve_bae`: as many of the N+1 as keep their
    SOLVE_SQUARES arrays each within SOLVE_BLOCK_BYTES, and at least one."""
    return min(N + 1, max(1, SOLVE_BLOCK_BYTES // (SOLVE_SQUARES * 8 * max(1, N + 1) ** 2)))


def check_solve_fits(n_atoms: int):
    """Raise ValueError unless `solve_bae`'s SOLVE_SQUARES float64 (N+1) x (N+1)
    arrays for each state of one block fit model.DENSE_BYTES_CAP, and then unless
    float64 holds the largest binomial of its TQ matrix, C(N, N // 2): N <= 1029."""
    N = int(n_atoms)
    m, squares = N + 1, _block_states(N) * SOLVE_SQUARES
    model.check_fits(f"solve_bae's {squares} ({m}, {m}) float64 arrays need", squares * 8 * m * m)
    if math.comb(N, N // 2) > sys.float_info.max:
        past = f"past the largest float64 {sys.float_info.max:.17g}"
        raise ValueError(f"solve_bae's TQ matrix needs the binomial C({N}, {N // 2}), {past}")


def solve_bae(ip: IntegrableParams, n_atoms: int) -> SolveResult:
    """All N+1 solutions of the rapidity equations, in ascending energy.

    Each state's energy E is exact, an eigenvalue of the sector's one tridiagonal
    `_collective_hamiltonian`; its TQ roots are polished by Newton to an equation
    residual of at most BAE_TOL and kept only if `bethe_energy` gives E back from
    them to 1e-9 relative.  States that do not converge, show a standard pathology
    (coincident roots, a pair at v_i - v_j = -eta) or fail the energy check are
    counted in `rejected` by reason.  A kept state's eigen-residuals against H and
    t(u), u the point of its energy check, come from the same tridiagonal, on which
    t(u) = (E(u) + Lambda(u)) I - H.  The states run in lockstep blocks of
    `_block_states(N)`.  Raises ValueError, before anything is built, where
    `check_solve_fits` refuses N, and for N > 0 unless `check_proportional` passes:
    otherwise the self-adjoint t(u) is not the monodromy trace the equations solve."""
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
    solutions, B = [], _block_states(N)
    for first in range(0, N + 1, B):
        E, v = energies[first : first + B], np.zeros((min(B, N + 1 - first), 0), dtype=complex)
        if N:
            v, converged = _newton(scale * _tq_roots(T, lam0[first : first + B] / scale**2), ip)
            rejected["unconverged"] += int(np.sum(~converged))
            E, v = E[converged], v[converged]
        if not len(E):
            continue
        v = np.sort_complex(v)  # each row by real part, then imaginary part
        diff, plus, gap, pole = _pairs(v, eta)
        rejected["coincident"] += int(np.sum(gap < COINCIDENT_TOL))
        rejected["string_pole"] += int(np.sum((pole < COINCIDENT_TOL) & (gap >= COINCIDENT_TOL)))
        paired = (gap >= COINCIDENT_TOL) & (pole >= COINCIDENT_TOL)
        E, v, diff, plus = E[paired], v[paired], diff[paired], plus[paired]
        e_u = _transfer_values(v, _admissible_eval_points(v), ip)[1]
        keep = np.array([not abs(e - x) > 1e-9 * max(1.0, abs(x)) for e, x in zip(e_u, E)], dtype=bool)
        rejected["energy_mismatch"] += int(np.sum(~keep))
        E, v, e_u = E[keep], v[keep], np.array(e_u, dtype=complex)[keep]
        residuals = np.abs(_residual(v, diff[keep], plus[keep], ip)[0]).max(axis=1, initial=0.0)
        vectors = _collective_state(v, ip)
        h_res, t_res = _eigen_residual(diag, off, vectors, E), _eigen_residual(diag, off, vectors, e_u)
        solutions += map(BetheSolution, v, residuals.tolist(), E.tolist(), vectors, h_res.tolist(), t_res.tolist())
    return SolveResult(solutions=solutions, rejected=rejected)


def _eigen_residual(diag, off, vec, value):
    """max |T x - value_b x| / max |x| of each row x of vec, T the tridiagonal (diag, off)."""
    r = (diag - value[:, None]) * vec
    r[:, :-1] += off * vec[:, 1:]
    r[:, 1:] += off * vec[:, :-1]
    return np.abs(r).max(axis=1) / np.abs(vec).max(axis=1)


def _admissible_eval_points(v):
    """For each row of roots v, the first of u = 0, 0.5, 1, ... 1e-6 or more from each."""
    u = np.zeros(len(v), dtype=complex)
    while (near := np.abs(v - u[:, None]).min(axis=1, initial=np.inf) < 1e-6).any():
        u[near] += 0.5
    return u


def _transfer_values(v, u, ip):
    """(Lambda(u_b), E(u_b)) at each row of the sorted (B, N) roots v, as lists:
    the products as one stack, the rest in one state's scalar arithmetic."""
    N, eta, zeta, W, us = v.shape[1], ip.eta, ip.zeta, ip.omega_sum, u.tolist()
    d = v - u[:, None]
    p_minus, p_plus = np.prod((d - eta) / d, axis=1), np.prod((d + eta) / d, axis=1)
    lam = [(x * x - W * W) * m + (zeta**2 / eta**2) * p for x, m, p in zip(us, p_minus, p_plus)]
    return lam, [x * x + x * eta * N + ip.alpha * N * N + zeta**2 / eta**2 - W * W - y for x, y in zip(us, lam)]


def _one_state(roots, u, ip):
    """`_transfer_values` of one state, its roots sorted (the canonical order makes
    the symmetric products bitwise permutation-invariant) and u away from them."""
    v, u = np.sort_complex(np.asarray(roots, dtype=complex).reshape(1, -1)), complex(u)
    if v.size and np.min(np.abs(v - u)) < 1e-9:
        raise ValueError("evaluation point coincides with a root; evaluate at a shifted u")
    return [x[0] for x in _transfer_values(v, np.array([u]), ip)]


def transfer_eigenvalue(u: complex, roots, ip: IntegrableParams) -> complex:
    """Transfer-matrix eigenvalue

        Lambda(u) = (u^2 - W^2) prod_i (v_i - u - eta)/(v_i - u)
                  + zeta^2/eta^2 prod_i (v_i - u + eta)/(v_i - u)."""
    return _one_state(roots, u, ip)[0]


def bethe_energy(roots, ip: IntegrableParams, u: complex = 0.0) -> complex:
    """Energy of a Bethe state of N atoms from its N roots (Baxter's TQ relation),

        E = u^2 + u eta N + alpha N^2 + zeta^2/eta^2 - W^2 - Lambda(u),

    which is u-independent on rapidity-equation solutions.  Raises if u
    coincides with a root, where Lambda(u) has a pole."""
    return _one_state(roots, u, ip)[1]


def _collective_state(v, ip):
    """prod_i C(v_i)|0> on |N-k, k>, k = N_b = 0..N, for each row of the (..., N) roots v,
    with C(v)|m, k> = |s| [(v - W + eta k) sqrt(m+1) |m+1, k> + (zeta/eta) sqrt(k+1) |m, k+1>]
    one update per root.  The amplitude of |0, N> is (|s| zeta/eta)^N sqrt(N!), never 0."""
    W, eta, ratio, norm_s = ip.omega_sum, ip.eta, ip.zeta / ip.eta, np.linalg.norm(ip.s)
    amp = np.ones((*v.shape[:-1], 1), dtype=complex)
    for n in range(v.shape[-1]):
        k = np.arange(n + 1)
        nxt = np.zeros((*v.shape[:-1], n + 2), dtype=complex)
        nxt[..., :-1] = (v[..., n, None] - W + eta * k) * np.sqrt(n + 1 - k) * amp
        nxt[..., 1:] += ratio * np.sqrt(k + 1) * amp
        amp = norm_s * nxt
    return amp


def bethe_vector(roots, ip: IntegrableParams) -> np.ndarray:
    """Unnormalized Bethe state prod_i C(v_i)|0> in the N-atom sector, with

        C(v) = (v - W) A^dag + eta A^dag N_b + (zeta/eta) B^dag,

    A = sum_j s_j a_j, B = sum_j s_j b_j, N_b = sum_j N_bj, from the N+1 collective
    amplitudes (`_collective_state`): a row with N_b = k has overlap w = sqrt(m! k! /
    prod_j ka_j! kb_j!) prod_j (s_j/|s|)^(ka_j + kb_j) with the normalized |m, k> =
    (A^dag)^m (B^dag)^k|0> / (|s|^(m+k) sqrt(m! k!)).  For N > 0 there are no
    such states unless `check_proportional` passes."""
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
