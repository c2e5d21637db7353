import copy
import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from twowell import bethe, fock, model
from twowell.bethe import (
    MATCH_TOL,
    bae_residual,
    bethe_energy,
    bethe_vector,
    collective_energies,
    match_spectrum,
    solve_bae,
    transfer_eigenvalue,
)
from twowell.fock import dimension, enumerate_sector, hop_operator
from twowell.model import build_hamiltonian, spectrum
from twowell.yangbaxter import (
    IntegrableParams,
    default_integrable_params,
    identify_parameters,
    transfer_hamiltonian_terms,
    transfer_matrix,
    validate_model,
)

SQRT5 = np.sqrt(5.0)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_residual_exact_single_root():
    ip = default_integrable_params(2)
    res = bae_residual([SQRT5], ip)
    assert abs(res[0]) <= 1e-14


def test_residual_off_solution_value():
    ip = default_integrable_params(2)
    res = bae_residual([1.0], ip)
    assert res[0] == pytest.approx(-4.0, abs=1e-14)


def test_residual_conjugate_pair_symmetry():
    ip = default_integrable_params(2)
    r = 1.4 + 0.6j
    res = bae_residual([r, np.conj(r)], ip)
    assert abs(res[0] - np.conj(res[1])) <= 1e-13


def test_residual_pole_guards():
    ip = default_integrable_params(2)
    with pytest.raises(ValueError, match="coincident"):
        bae_residual([1.0, 1.0 + 1e-12], ip)
    with pytest.raises(ValueError, match="pole"):
        bae_residual([1.0, 1.0 + ip.eta], ip)


def test_residual_permutation_covariance():
    ip = default_integrable_params(2)
    roots = np.array([1.7 + 0.3j, -2.1, 0.4 - 0.9j])
    res = bae_residual(roots, ip)
    perm = [2, 0, 1]
    res_p = bae_residual(roots[perm], ip)
    # componentwise up to reordering of the floating-point products
    assert np.allclose(res[perm], res_p, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solver_single_atom_closed_form():
    ip = default_integrable_params(2)
    result = solve_bae(ip, 1)
    assert len(result.solutions) == 2
    roots = sorted(sol.roots[0].real for sol in result.solutions)
    assert abs(roots[0] + SQRT5) <= 1e-12
    assert abs(roots[1] - SQRT5) <= 1e-12
    energies = sorted(sol.energy.real for sol in result.solutions)
    assert abs(energies[0] - (1.0 - SQRT5)) <= 1e-10
    assert abs(energies[1] - (1.0 + SQRT5)) <= 1e-10


def test_solver_vacuum():
    ip = default_integrable_params(2)
    result = solve_bae(ip, 0)
    assert len(result.solutions) == 1
    sol = result.solutions[0]
    assert sol.roots.size == 0
    assert abs(sol.energy) <= 1e-14


def test_solver_deterministic():
    ip = default_integrable_params(2)
    r1 = solve_bae(ip, 3)
    r2 = solve_bae(ip, 3)
    assert len(r1.solutions) == len(r2.solutions) == 4
    for a, b in zip(r1.solutions, r2.solutions):
        assert np.array_equal(a.roots, b.roots)
        assert a.energy == b.energy


def test_solver_residuals_below_threshold():
    ip = default_integrable_params(2)
    for N in (1, 2, 3):
        result = solve_bae(ip, N)
        assert result.solutions
        for sol in result.solutions:
            assert sol.residual <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_solver_finds_all_states(n, N):
    # n=1, N=3 is where a random multi-start search found 3 of the 4 states
    ip = default_integrable_params(n)
    result = solve_bae(ip, N)
    assert len(result.solutions) == N + 1
    assert not any(result.rejected.values())  # every state converged and was kept
    energies = [sol.energy.real for sol in result.solutions]
    assert energies == sorted(energies)
    for sol in result.solutions:
        assert sol.roots.size == N
        assert sol.residual <= 1e-10
        assert max(sol.h_residual, sol.t_residual) <= 1e-9
    ed = spectrum(build_hamiltonian(identify_parameters(ip), enumerate_sector(n, N)))
    report = match_spectrum(result.solutions, ed)
    assert report.n_matched == N + 1


def test_solver_random_proportional_couplings():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        s = rng.standard_normal(n)
        t = rng.uniform(0.5, 2.0) * s
        ip = IntegrableParams(n, -0.7, rng.uniform(0.5, 1.5, n), s, t, alpha=0.8)
        for N in (2, 3):
            result = solve_bae(ip, N)
            assert len(result.solutions) == N + 1
            assert max(s.residual for s in result.solutions) <= 1e-10
            assert max(max(s.h_residual, s.t_residual) for s in result.solutions) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collective_energies_are_ed_levels(n):
    rng = np.random.default_rng(n)
    s = rng.standard_normal(n)
    ips = [
        default_integrable_params(n),
        IntegrableParams(n, 1.3, rng.uniform(0.5, 1.5, n), s, rng.uniform(0.5, 2.0) * s, alpha=0.6),
    ]
    for ip in ips:
        for N in range(6):
            levels = spectrum(build_hamiltonian(identify_parameters(ip), enumerate_sector(n, N)))
            energies = collective_energies(ip, N)
            assert energies.size == N + 1
            free = np.ones(levels.size, dtype=bool)
            for e in energies:
                gaps = np.where(free, np.abs(levels - e), np.inf)
                k = int(np.argmin(gaps))
                assert gaps[k] <= 1e-10
                free[k] = False
            if n == 1:  # the collective basis is the whole sector
                assert not free.any()


@st.composite
def nonproportional_params(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    x = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    s, t, omega = (np.array(draw(st.lists(x, min_size=n, max_size=n))) for _ in range(3))
    norms = np.linalg.norm(s) * np.linalg.norm(t)
    zeta = float(np.dot(s, t))
    assume(min(np.linalg.norm(s), np.linalg.norm(t)) >= 0.1 and zeta != 0.0)
    assume(n == 1 or norms - abs(zeta) >= 1e-3 * norms)
    eta = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.3, 1.5))
    return IntegrableParams(n, eta, omega, s, t, alpha=draw(x))


@settings(max_examples=60, deadline=None)
@given(ip=nonproportional_params(), N=st.integers(0, 4))
def test_gauge_keeps_spectrum_and_bethe_energies(ip, N):
    # a rotation of well b maps any rank-1 Omega onto t = +-s
    mp = identify_parameters(ip)
    derived = validate_model(mp).derived
    sector = enumerate_sector(ip.n_levels, N)
    levels = spectrum(build_hamiltonian(mp, sector))
    gauged = spectrum(build_hamiltonian(identify_parameters(derived), sector))
    assert np.max(np.abs(levels - gauged)) <= 1e-12
    free = np.ones(levels.size, dtype=bool)
    for e in collective_energies(derived, N):
        gaps = np.where(free, np.abs(levels - e), np.inf)
        k = int(np.argmin(gaps))
        assert gaps[k] <= 1e-10
        free[k] = False


@settings(max_examples=60, deadline=None)
@given(
    ip=nonproportional_params(),
    N=st.integers(0, 4),
    wells=st.sampled_from(["a", "ab"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_well_rotations_keep_spectrum_and_bethe_energies(ip, N, wells, seed):
    # the couplings see well a only through N_a and Omega = s t^T, and well b
    # only through N_b and Omega; rotating s, t, or both, keeps the spectrum
    rng = np.random.default_rng(seed)
    n = ip.n_levels
    O_a, O_b = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    if wells == "a":
        O_b = np.eye(n)
    rotated = IntegrableParams(n, ip.eta, ip.omega, O_a @ ip.s, O_b @ ip.t, alpha=ip.alpha)
    sector = enumerate_sector(n, N)
    mp, mp_rot = identify_parameters(ip), identify_parameters(rotated)
    levels = spectrum(build_hamiltonian(mp, sector))
    levels_rot = spectrum(build_hamiltonian(mp_rot, sector))
    assert np.max(np.abs(levels - levels_rot)) <= 1e-12
    energies = collective_energies(validate_model(mp).derived, N)
    energies_rot = collective_energies(validate_model(mp_rot).derived, N)
    assert np.max(np.abs(energies - energies_rot)) <= 1e-12


def _generic_params(n):
    s = np.linspace(0.6, 1.1, n)
    s /= np.linalg.norm(s)
    return IntegrableParams(n, 0.83, np.full(n, 1.371 / n), s, 1.29 * s, alpha=0.7)


@pytest.mark.parametrize(
    "params, n, N, floor",
    [
        (default_integrable_params, 1, 8, 8),
        (default_integrable_params, 2, 8, 7),
        (_generic_params, 1, 12, 11),
        (_generic_params, 2, 12, 11),
        (_generic_params, 3, 12, 11),
        (_generic_params, 2, 16, 10),
    ],
    ids=["default-1-8", "default-2-8", "generic-1-12", "generic-2-12", "generic-3-12", "generic-2-16"],
)
def test_solver_coverage_floor(params, n, N, floor):
    # states kept today out of N+1; a better root representation may raise these
    ip = params(n)
    result = solve_bae(ip, N)
    assert len(result.solutions) >= floor
    assert len(result.solutions) + sum(result.rejected.values()) == N + 1
    for sol in result.solutions:
        assert sol.residual <= 1e-10
        assert sol.h_residual <= 1e-7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collective_energies_equal_the_reversed_form_bitwise(n):
    # the form collective_energies replaced, kept here as the reference: the
    # tridiagonal reversed into order of Na, with off-diagonal -|off| (t = -s
    # flips the sign of off), and its diagonal alone at N = 0
    s = np.linspace(0.6, 1.1, n)
    ips = [default_integrable_params(n), _generic_params(n),
           IntegrableParams(n, -0.7, np.full(n, 0.9), s, -1.3 * s, alpha=-0.4)]
    for ip in ips:
        for N in range(61):
            diag, off = bethe._collective_hamiltonian(ip, N)
            want = diag if N == 0 else eigh_tridiagonal(diag[::-1], -np.abs(off[::-1]), eigvals_only=True)
            assert collective_energies(ip, N).tobytes() == want.tobytes(), (ip, N)


@pytest.mark.parametrize(
    "build",
    [
        collective_energies,
        lambda ip, N: bethe_vector(np.linspace(-1.0, 1.0, N) + 0.3j, ip),
        solve_bae,
    ],
    ids=["collective_energies", "bethe_vector", "solve_bae"],
)
def test_collective_basis_refuses_nonproportional_couplings(build):
    # s = (1, 0.3), t = (0.2, 1.1) has no collective basis: the energies
    # collective_energies gave sat 0.046-0.18 from every ED level (N = 1..3);
    # N = 0 has no roots, so any s and t
    ip = IntegrableParams(2, 1.0, np.ones(2), np.array([1.0, 0.3]), np.array([0.2, 1.1]), alpha=1.0)
    for N in (1, 2, 3):
        with pytest.raises(ValueError, match="not proportional"):
            build(ip, N)
    build(ip, 0)


def test_newton_budget_per_state(monkeypatch):
    # at most 8 damped steps and 2 polishing steps for each of the N+1 states:
    # the Jacobians formed, counted by state, whatever the blocks
    solves = []
    jacobian = bethe._jacobian
    monkeypatch.setattr(bethe, "_jacobian", lambda points, ip: solves.append(len(points.v)) or jacobian(points, ip))
    solve_bae(default_integrable_params(1), 16)
    assert 0 < sum(solves) <= 17 * (8 + 2)


@pytest.mark.parametrize("N", [8, 16])
def test_newton_forms_products_once_per_point(monkeypatch, N):
    # each Newton point forms its differences and ratio products in one
    # `_residual` row, and its Jacobian reuses them; the only other `_residual`
    # rows of a solve are the reported residuals of the kept states (8 of 9 at
    # N = 8, none at N = 16).  Every count is of states (rows), not of calls.
    stack, owners, counts = [], [], {"_points": 0, "_jacobian": 0}

    def spy(name, f):
        def wrapped(*args):
            rows = len(args[0]) if name != "_jacobian" else len(args[0].v)
            if name == "_residual":
                owners.extend([stack[-1] if stack else None] * rows)
            else:
                counts[name] += rows
            stack.append(name)
            try:
                return f(*args)
            finally:
                stack.pop()
        return wrapped

    for name in ("_points", "_residual", "_jacobian"):
        monkeypatch.setattr(bethe, name, spy(name, getattr(bethe, name)))
    result = solve_bae(default_integrable_params(1), N)
    assert counts["_jacobian"] > 0 and "_jacobian" not in owners
    assert 0 < owners.count("_points") <= counts["_points"]
    assert owners.count(None) == len(result.solutions) == {8: 8, 16: 0}[N]
    assert len(owners) == owners.count("_points") + owners.count(None)


@pytest.mark.parametrize("N", [0, 1, 5])
def test_solve_builds_the_collective_hamiltonian_once(monkeypatch, N):
    # the energies and every state's residuals come from one tridiagonal
    built = []
    collective = bethe._collective_hamiltonian
    monkeypatch.setattr(bethe, "_collective_hamiltonian", lambda *a: built.append(1) or collective(*a))
    solve_bae(default_integrable_params(2), N)
    assert len(built) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solver_keeps_states_under_gauge_rescaling(n):
    # s -> c s, t -> t / c keeps Omega = s t^T; the Bethe amplitudes carry
    # |s|^N, so no check on them may be absolute
    s = np.linspace(0.6, 1.1, n)
    s /= np.linalg.norm(s)
    for N in range(9):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = {
                c: solve_bae(IntegrableParams(n, 1.0, np.ones(n), c * s, s / c, alpha=1.0), N)
                for c in (1e-4, 1e-2, 1.0, 1e2, 1e4)
            }
        energies = [sol.energy for sol in results[1.0].solutions]
        for c, result in results.items():
            assert len(result.solutions) == len(results[1.0].solutions), (c, N)
            assert np.allclose([sol.energy for sol in result.solutions], energies, rtol=1e-12, atol=1e-12)
            assert all(sol.h_residual <= 1e-7 for sol in result.solutions)


def test_solver_refuses_nonproportional_couplings():
    ip = IntegrableParams(
        2, 1.0, np.ones(2), np.array([1.0, 0.5]), np.array([0.5, 1.0]), alpha=1.0
    )
    with pytest.raises(ValueError, match="not proportional"):
        solve_bae(ip, 1)
    with pytest.raises(ValueError, match="not proportional"):
        bethe.check_proportional(ip)
    assert len(solve_bae(ip, 0).solutions) == 1  # no roots at N = 0: any s and t
    bethe.check_proportional(dataclasses.replace(ip, t=-2.0 * ip.s))  # t = c s, c < 0 too


def test_solver_sizes_its_tq_work(monkeypatch):
    # a library call is refused before anything is built, with the count
    # check_solve_fits gives; at a cap equal to the count it runs
    ip = default_integrable_params(1)
    need = _solve_model_bytes(8)
    built = []
    collective = bethe._collective_hamiltonian
    monkeypatch.setattr(bethe, "_collective_hamiltonian", lambda *a: built.append(1) or collective(*a))
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need - 1)
    with pytest.raises(ValueError, match=rf"\(9, 9\) float64 arrays need {need} bytes > DENSE_BYTES_CAP"):
        solve_bae(ip, 8)
    assert not built
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need)
    assert len(solve_bae(ip, 8).solutions) == 8
    assert built


def _solve_model_bytes(N):
    """check_solve_fits' count: SOLVE_SQUARES (N+1)^2 float64 arrays for each
    state of one lockstep block."""
    return bethe._block_states(N) * bethe.SOLVE_SQUARES * 8 * (N + 1) ** 2


def test_solver_peak_is_the_counted_squares():
    # the check_solve_fits model and O(N) more (measured 54 kB at N = 50 one
    # state at a time, where no state of n = 1 is kept): N = 50 runs 7 states
    # per block, and n = 2, N = 8 all 9 states as one stack
    solve_bae(default_integrable_params(1), 3)  # first-call set-up is not the solve's
    for n, N in ((1, 50), (2, 8)):
        tracemalloc.start()
        try:
            solve_bae(default_integrable_params(n), N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _solve_model_bytes(N) + 64 * 1024, (n, N)
    assert bethe._block_states(8) == 9 and 1 < bethe._block_states(50) < 51


def test_conjugation_closure_of_solutions():
    ip = default_integrable_params(2)
    result = solve_bae(ip, 3)
    assert len(result.solutions) == 4
    for sol in result.solutions:
        v = sol.roots
        gaps = np.abs(v[:, None] - np.conj(v)[None, :])
        nearest = np.argmin(gaps, axis=1)
        # closed as a multiset: the nearest-conjugate map is a permutation
        assert sorted(nearest) == list(range(v.size))
        assert np.max(gaps[np.arange(v.size), nearest]) <= 1e-8
        conj_res = np.max(np.abs(bae_residual(np.conj(sol.roots), ip)))
        assert conj_res <= 1e-10


# ---------------------------------------------------------------------------
# energies and eigenvalues
# ---------------------------------------------------------------------------

def test_energy_closed_form_values():
    ip = default_integrable_params(2)
    assert bethe_energy([SQRT5], ip) == pytest.approx(1.0 - SQRT5, abs=1e-12)
    assert bethe_energy([-SQRT5], ip) == pytest.approx(1.0 + SQRT5, abs=1e-12)


def test_energy_vacuum():
    ip = default_integrable_params(2)
    lam = transfer_eigenvalue(0.7, [], ip)
    assert lam == pytest.approx(0.7**2 - 4.0 + 1.0, abs=1e-14)
    assert abs(bethe_energy([], ip)) <= 1e-14


def test_energy_u_independent_on_solutions():
    ip = default_integrable_params(2)
    e1 = bethe_energy([SQRT5], ip, u=0.0)
    e2 = bethe_energy([SQRT5], ip, u=1.3)
    assert abs(e1 - e2) <= 1e-9 * max(1.0, abs(e1))


def test_energy_check_rejects_non_solutions(monkeypatch):
    # every state seeded with the first state's TQ roots: they solve the
    # rapidity equations, but give back the energy of the first state only
    ip = default_integrable_params(2)
    N = 3
    tq_roots, seeds = bethe._tq_roots, []

    def first_roots(T, lam):
        if not seeds:
            seeds.append(tq_roots(T, lam[:1]))
        return np.repeat(seeds[0], len(lam), axis=0)

    monkeypatch.setattr(bethe, "_tq_roots", first_roots)
    result = solve_bae(ip, N)
    assert result.rejected["unconverged"] == 0
    assert len(result.solutions) == 1
    assert result.rejected["energy_mismatch"] == N
    assert result.solutions[0].energy == collective_energies(ip, N)[0]


def test_energy_pole_guard():
    ip = default_integrable_params(2)
    with pytest.raises(ValueError, match="shifted"):
        bethe_energy([SQRT5], ip, u=SQRT5)


def test_transfer_eigenvalue_closed_form():
    ip = default_integrable_params(2)
    lam = transfer_eigenvalue(0.0, [SQRT5], ip)
    assert lam == pytest.approx(-3.0 + SQRT5, abs=1e-12)


def test_energy_permutation_invariance():
    ip = default_integrable_params(2)
    result = solve_bae(ip, 3)
    roots = result.solutions[0].roots
    e1 = bethe_energy(roots, ip)
    e2 = bethe_energy(roots[::-1], ip)
    assert e1 == e2


# ---------------------------------------------------------------------------
# Bethe vectors
# ---------------------------------------------------------------------------

def test_vector_single_atom_closed_form():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 1)
    vec = bethe_vector([SQRT5], ip)
    amp_a = (SQRT5 - 2.0) / np.sqrt(2.0)
    amp_b = 1.0 / np.sqrt(2.0)
    expected = np.zeros(4, dtype=complex)
    expected[sector.rank((1, 0, 0, 0))] = amp_a
    expected[sector.rank((0, 1, 0, 0))] = amp_a
    expected[sector.rank((0, 0, 1, 0))] = amp_b
    expected[sector.rank((0, 0, 0, 1))] = amp_b
    assert np.allclose(vec, expected, atol=1e-14)

    H = hop_operator(sector, *transfer_hamiltonian_terms(ip, sector)).toarray()
    resid = H @ vec - (1.0 - SQRT5) * vec
    assert np.max(np.abs(resid)) <= 1e-12

    t0 = transfer_matrix(0.0, ip, sector).toarray()
    lam = transfer_eigenvalue(0.0, [SQRT5], ip)
    assert np.max(np.abs(t0 @ vec - lam * vec)) <= 1e-12


def test_vector_weights_equal_the_scipy_log_gamma_ones():
    # bethe_vector's log-factorials are the logs of exact factorials; the
    # scipy.special gammaln weights they replaced are the oracle, to rounding
    from scipy.special import gammaln

    ip = IntegrableParams(3, 1.0, np.ones(3), [0.3, -1.1, 0.8], [0.6, -2.2, 1.6], alpha=1.0)
    for roots in ([0.7], [0.7, -1.3 + 0.2j, 2.1], [0.4 + 0.1j, -0.9, 1.7, 2.6, -2.2]):
        sector = enumerate_sector(3, len(roots))
        k = sector.occ[:, 3:].sum(axis=1)
        log_ratio = gammaln(sector.n_atoms - k + 1) + gammaln(k + 1) - gammaln(sector.occ + 1).sum(axis=1)
        s_hat = ip.s / np.linalg.norm(ip.s)
        weight = np.exp(0.5 * log_ratio) * np.prod(s_hat ** (sector.occ[:, :3] + sector.occ[:, 3:]), axis=1)
        want = weight * bethe._collective_state(np.asarray(roots, dtype=complex), ip)[k]
        np.testing.assert_allclose(bethe_vector(roots, ip), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("N", [0, 1, 5, 13, 30])
def test_tq_matrix_binomials_are_scipy_comb_through_n_30(N):
    # exact binomials rounded once; scipy.special.comb, the oracle, agrees with
    # them bitwise through k = 30 (it first differs at C(31, 14)), so the TQ
    # matrix of every sector up to N = 30 is bitwise the old one
    from scipy.special import comb

    eta, W, kappa = 0.37, 1.9, 0.61
    T = np.zeros((N + 3, N + 1))
    for k in range(N + 1):
        j = np.arange(k + 1)
        up, down = comb(k, j) * eta ** (k - j), comb(k, j) * (-eta) ** (k - j)
        T[j + 2, k] += up
        T[j, k] += kappa * down - W**2 * up
        T[k + 2, k] -= 1.0
        T[k + 1, k] -= eta * N
    assert bethe._tq_matrix(N, eta, W, kappa).tobytes() == T[: N + 1].tobytes()


def test_solve_refuses_tq_binomials_past_float64(monkeypatch):
    # C(1029, 514) <= DBL_MAX < C(1030, 515): a binomial of the TQ matrix at
    # N = 1030 was clamped to inf, whose only product, inf * 0, is nan
    class Built(Exception):
        pass

    built = []
    tq_matrix = bethe._tq_matrix

    def spy(*args):  # checks the matrix solve_bae builds, then stops the solve
        built.append(np.isfinite(tq_matrix(*args)).all())
        raise Built

    monkeypatch.setattr(bethe, "_tq_matrix", spy)
    for n in (1, 2, 3):
        with pytest.raises(Built):
            solve_bae(default_integrable_params(n), 1029)
    assert built == [True] * 3
    bethe.check_solve_fits(1029)
    with pytest.raises(ValueError, match=r"TQ matrix needs the binomial C\(1030, 515\)"):
        bethe.check_solve_fits(1030)
    with pytest.raises(ValueError, match=r"C\(1030, 515\)"):
        solve_bae(default_integrable_params(1), 1030)
    assert len(built) == 3


def test_vector_vacuum():
    ip = default_integrable_params(2)
    vec = bethe_vector([], ip)
    assert np.array_equal(vec, np.array([1.0 + 0.0j]))


@pytest.mark.parametrize("n", [1, 2])
def test_vector_eigen_residuals(n):
    ip = default_integrable_params(n)
    for N in (1, 2, 3):
        result = solve_bae(ip, N)
        assert len(result.solutions) == N + 1
        for sol in result.solutions:
            assert sol.h_residual <= 1e-9
            assert sol.t_residual <= 1e-9


def _refuse(*args):
    raise AssertionError("solve_bae touched the Fock sector")


def test_solver_builds_no_fock_sector(monkeypatch):
    # the Bethe problem has N+1 states at any n: no sector, no hop table; at
    # n = 8, N = 8 the sector has 490314 states, which the solver never holds
    monkeypatch.setattr(fock, "enumerate_sector", _refuse)
    monkeypatch.setattr(fock, "_hop_table", _refuse)
    for n, N in ((1, 4), (2, 4), (3, 4), (8, 8)):
        tracemalloc.start()
        try:
            result = solve_bae(default_integrable_params(n), N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert len(result.solutions) >= (2 if n == 8 else N + 1)  # n = 8 keeps 2 of 9 today
        for sol in result.solutions:
            assert sol.vector.shape == (N + 1,)
            assert max(sol.h_residual, sol.t_residual) <= 1e-9


def _fock_residual(op, vec, value):
    return float(np.max(np.abs(op @ vec - value * vec)) / np.max(np.abs(vec)))


def _within_factor_two(value, reference, scale):
    # below 1e-15 scale both are rounding, and their ratio says nothing
    floor = 1e-15 * scale
    value, reference = max(value, floor), max(reference, floor)
    return reference / 2 <= value <= 2 * reference


@pytest.mark.parametrize("params", [default_integrable_params, _generic_params], ids=["default", "generic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_residual_is_the_transfer_matrix_residual(params, n):
    # reference: the Bethe vector in the Fock sector, against both Hamiltonians
    # and t(u) built on their own at the point where the energy was checked;
    # the solver's residuals, read on the N+1 collective amplitudes, agree with
    # the Fock-basis ones to within the basis dependence of the max-abs norm
    for sign in (1.0, -1.0):  # the gauges t = s and t = -s
        base = params(n)
        ip = IntegrableParams(n, base.eta, base.omega, base.s, sign * base.t, alpha=base.alpha)
        for N in range(9):
            sector = enumerate_sector(n, N)
            H_t = hop_operator(sector, *transfer_hamiltonian_terms(ip, sector))
            H_m = build_hamiltonian(identify_parameters(ip), sector)
            for sol in solve_bae(ip, N).solutions:
                vec = bethe_vector(sol.roots, ip)
                u = bethe._admissible_eval_points(sol.roots[None])[0]
                h_ref = _fock_residual(H_t, vec, sol.energy)
                t_ref = _fock_residual(
                    transfer_matrix(u, ip, sector), vec, transfer_eigenvalue(u, sol.roots, ip)
                )
                assert max(h_ref, t_ref, _fock_residual(H_m, vec, sol.energy)) <= 1e-9
                scale = max(1.0, abs(sol.energy))
                assert _within_factor_two(sol.h_residual, h_ref, scale), (sign, N, sol.h_residual, h_ref)
                assert _within_factor_two(sol.t_residual, t_ref, scale), (sign, N, sol.t_residual, t_ref)


def test_vector_stays_sparse():
    # one dense C(v) from N=19 to N=20 atoms at n=2 is 1771 x 1540 complex (43.6 MB)
    ip = default_integrable_params(2)
    N = 20
    roots = np.linspace(-3.0, 3.0, N) + 0.25j  # arbitrary and distinct
    dense_bytes = 16 * dimension(2, N) * dimension(2, N - 1)
    tracemalloc.start()
    try:
        vec = bethe_vector(roots, ip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.shape == (dimension(2, N),)
    assert peak < 0.01 * dense_bytes


def _occupation_c_product(roots, ip):
    """prod_i C(v_i)|0> applied one occupation row at a time, with
    C(v) = sum_j s_j [a_j^dag ((v - W) + eta N_b) + (zeta/eta) b_j^dag]."""
    n = ip.n_levels
    x = np.array([1.0 + 0.0j])
    for N, v in enumerate(roots):
        source, target = enumerate_sector(n, N), enumerate_sector(n, N + 1)
        y = np.zeros(target.dim, dtype=complex)
        for amp, occ in zip(x, source.occ):
            diag = v - ip.omega_sum + ip.eta * occ[n:].sum()
            for j in range(n):
                for mode, coeff in ((j, diag), (n + j, ip.zeta / ip.eta)):
                    up = occ.copy()
                    up[mode] += 1
                    y[target.rank(up)] += coeff * ip.s[j] * np.sqrt(up[mode]) * amp
        x = y
    return x


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_matches_occupation_arithmetic(n):
    rng = np.random.default_rng(40 + n)
    s = rng.standard_normal(n)
    ips = [
        default_integrable_params(n),
        IntegrableParams(n, -0.9, rng.uniform(0.5, 1.5, n), s, -1.7 * s, alpha=0.6),
    ]
    for ip in ips:
        for N in range(5):
            roots = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            ref = _occupation_c_product(roots, ip)
            vec = bethe_vector(roots, ip)
            assert np.max(np.abs(vec - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# spectrum matching
# ---------------------------------------------------------------------------

def test_match_single_atom_partition():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 1)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
    result = solve_bae(ip, 1)
    report = match_spectrum(result.solutions, ed)
    assert report.n_matched == 2
    deltas = [abs(sol.energy - ed[i]) for sol, i in zip(result.solutions, report.index)]
    assert max(deltas) <= 1e-10
    leftovers = np.delete(ed, report.index)
    assert np.allclose(leftovers, [-1.0, 3.0], atol=1e-12)


def test_match_empty_solution_list():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 1)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
    report = match_spectrum([], ed)
    assert report.n_matched == 0
    assert report.index == []
    assert report.n_eigenvalues == 4


@pytest.mark.parametrize("N", [2, 3])
def test_match_oracle_equivalence(N):
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, N)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
    result = solve_bae(ip, N)
    report = match_spectrum(result.solutions, ed)
    assert len(result.solutions) == N + 1
    assert report.n_matched == len(result.solutions)
    assert -1 not in report.index


def test_match_leaves_solutions_unchanged():
    # the pairing is returned in the report, never written into the solutions
    ip = default_integrable_params(2)
    result = solve_bae(ip, 3)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), enumerate_sector(2, 3)))
    before = copy.deepcopy(result.solutions)
    report = match_spectrum(result.solutions, ed)
    assert report.n_matched == 4
    for old, sol in zip(before, result.solutions):
        for f in dataclasses.fields(sol):
            assert np.array_equal(getattr(old, f.name), getattr(sol, f.name)), f.name


def _states(*energies):
    return [SimpleNamespace(energy=e) for e in energies]


def test_match_near_degenerate_energies_take_distinct_levels():
    # both energies lie within MATCH_TOL of both levels 0 and 1
    levels = np.array([0.0, 0.4 * MATCH_TOL, 1.0])
    report = match_spectrum(_states(0.1 * MATCH_TOL, 0.2 * MATCH_TOL), levels)
    assert report.index == [0, 1]
    assert (report.n_matched, report.n_eigenvalues) == (2, 3)
    # with one level in range, the higher energy is left unpaired
    levels = np.array([0.0, 1.0])
    report = match_spectrum(_states(0.1 * MATCH_TOL, 0.2 * MATCH_TOL), levels)
    assert report.index == [0, -1]
    assert report.n_matched == 1


def _greedy_oracle(energies, levels):
    """In the order given, each energy takes the nearest free level (the
    first on a tie) if it lies within MATCH_TOL."""
    free = list(range(len(levels)))
    index = []
    for e in energies:
        best = min(free, key=lambda j: abs(levels[j] - e), default=None)
        if best is not None and abs(levels[best] - e) <= MATCH_TOL:
            free.remove(best)
            index.append(best)
        else:
            index.append(-1)
    return index


# clusters of values a few MATCH_TOL apart, around a few well-separated centres
near_degenerate = st.builds(
    lambda centre, k: centre + k * MATCH_TOL / 4,
    st.sampled_from([-1.5, 0.0, 2.5]),
    st.integers(-8, 8),
)


@settings(max_examples=200, deadline=None)
@given(
    energies=st.lists(near_degenerate | st.floats(-3, 3), max_size=8),
    levels=st.lists(near_degenerate | st.floats(-3, 3), max_size=8),
)
def test_match_agrees_with_greedy_oracle(energies, levels):
    energies, levels = sorted(energies), sorted(levels)
    report = match_spectrum(_states(*energies), levels)
    assert report.index == _greedy_oracle(energies, levels)
    assert report.n_matched == sum(i >= 0 for i in report.index)
    assert report.n_eigenvalues == len(levels)


@pytest.mark.parametrize("reason, apart", [("coincident", 1e-11), ("string_pole", -1.0 + 1e-11)])
def test_solve_counts_pathological_roots_once_and_keeps_none(monkeypatch, reason, apart):
    # Newton returns roots 1e-11 apart, or with v_0 - v_1 = -eta + 1e-11
    # (eta = 1): each state is rejected for its one reason, and none is kept
    ip = default_integrable_params(2)
    N = 2
    roots = np.array([0.3 + 0.1j, 0.3 + 0.1j - apart])
    monkeypatch.setattr(bethe, "_newton", lambda v0, ip: (np.tile(roots, (len(v0), 1)), np.ones(len(v0), dtype=bool)))
    result = solve_bae(ip, N)
    assert result.solutions == []
    assert result.rejected == {"unconverged": 0, "coincident": 0, "string_pole": 0, "energy_mismatch": 0,
                               reason: N + 1}


def test_tq_roots_are_np_roots_of_each_null_vector(monkeypatch):
    # one stacked SVD, then np.roots' companion arithmetic for each row: rows
    # with 0, 1 and N - 1 roots at 0 (zero low coefficients) and a row whose
    # roots are all real, whose imaginary parts np.roots returns as +0, all
    # bitwise np.roots of their own null vector (set here through the SVD)
    rng = np.random.default_rng(5)
    N = 6
    c = rng.standard_normal((5, N + 1))
    c[1, :1] = c[2, : N - 1] = c[4, :1] = 0.0
    c[3] = 0.7 * np.poly([-2.5, -1.0, 0.3, 1.1, 2.0, 3.7])[::-1]
    vh = np.concatenate([np.zeros((len(c), N, N + 1)), c[:, None]], axis=1)
    monkeypatch.setattr(np.linalg, "svd", lambda M: (None, None, vh))
    roots = bethe._tq_roots(np.zeros((N + 1, N + 1)), np.zeros(len(c)))
    assert not np.any(roots[3].imag) and np.any(roots[0].imag)
    for got, ci in zip(roots, c):
        assert got.tobytes() == np.roots(ci[::-1] / ci[-1]).astype(complex).tobytes()


def test_newton_steps_fall_back_to_one_state_where_the_stack_is_singular(monkeypatch):
    # each state's step is bitwise its own np.linalg.solve; a singular Jacobian
    # fails only its own state
    rng = np.random.default_rng(9)
    J = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    f = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    points = bethe._Points(None, f, None, None, None)
    monkeypatch.setattr(bethe, "_jacobian", lambda p, ip: J)
    each = np.array([np.linalg.solve(J[k], -f[k]) for k in range(3)])
    solved, dv = bethe._newton_steps(points, None)
    assert solved.all() and dv.tobytes() == each.tobytes()
    J[1] = 0.0
    solved, dv = bethe._newton_steps(points, None)
    assert solved.tolist() == [True, False, True]
    assert dv.tobytes() == each[[0, 2]].tobytes()


# ---------------------------------------------------------------------------
# the per-state solve that the lockstep one replaced, kept as its bitwise
# reference: one state at a time, each Newton point one `_ref_point`
# ---------------------------------------------------------------------------

def _ref_pairs(v, eta):
    diff = v[:, None] - v[None, :]
    off = diff[~np.eye(v.size, dtype=bool)]  # a copy, shifted in place
    gap = float(np.min(np.abs(off), initial=np.inf))
    off += eta
    return diff, gap, float(np.min(np.abs(off), initial=np.inf))


def _ref_residual(v, diff, ip):
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    ratio = diff - eta
    ratio /= diff + eta
    np.fill_diagonal(ratio, 1.0)
    P = np.prod(ratio, axis=1)
    return eta**2 * (v**2 - W**2) / zeta**2 - P, P


def _ref_point(v, ip):
    diff, gap, pole = _ref_pairs(v, ip.eta)
    if gap < 1e-13 or pole < 1e-13:
        return None
    f, P = _ref_residual(v, diff, ip)
    if not np.all(np.isfinite(f)):
        return None
    return SimpleNamespace(v=v, f=f, fmax=float(np.max(np.abs(f))), diff=diff, P=P)


def _ref_step(p, ip):
    J = np.diag(2.0 * ip.eta**2 * p.v / ip.zeta**2)
    K = 1.0 / (p.diff - ip.eta) - 1.0 / (p.diff + ip.eta)
    np.fill_diagonal(K, 0.0)
    J -= np.diag(p.P * K.sum(axis=1))
    J += p.P[:, None] * K
    try:
        dv = np.linalg.solve(J, -p.f)
    except np.linalg.LinAlgError:
        return None
    return dv if np.all(np.isfinite(dv)) else None


def _ref_newton(v0, ip):
    p = _ref_point(v0, ip)
    if p is None:
        return None
    for _ in range(bethe.MAX_NEWTON_ITER):
        if p.fmax <= bethe.BAE_TOL:
            for _ in range(2):  # undamped polish
                step = _ref_step(p, ip)
                if step is None:
                    break
                cand = _ref_point(p.v + step, ip)
                if cand is None or cand.fmax >= p.fmax:
                    break
                p = cand
            return p.v
        step = _ref_step(p, ip)
        if step is None:
            return None
        lam, sq = 1.0, float(np.sum(np.abs(p.f) ** 2))
        while True:
            cand = _ref_point(p.v + lam * step, ip)
            if cand is not None and float(np.sum(np.abs(cand.f) ** 2)) <= (1.0 - 1e-4 * lam) * sq:
                p = cand
                break
            lam *= 0.5
            if lam < 1e-7:
                return None
    return p.v if p.fmax <= bethe.BAE_TOL else None


def _ref_state(v, ip):
    W, eta, ratio, norm_s = ip.omega_sum, ip.eta, ip.zeta / ip.eta, np.linalg.norm(ip.s)
    amp = np.array([1.0 + 0.0j])
    for n, vi in enumerate(v):
        k = np.arange(n + 1)
        nxt = np.zeros(n + 2, dtype=complex)
        nxt[:-1] = (vi - W + eta * k) * np.sqrt(n + 1 - k) * amp
        nxt[1:] += ratio * np.sqrt(k + 1) * amp
        amp = norm_s * nxt
    return amp


def _ref_eigen_residual(diag, off, vec, value):
    r = (diag - value) * vec
    r[:-1] += off * vec[1:]
    r[1:] += off * vec[:-1]
    return float(np.max(np.abs(r)) / np.max(np.abs(vec)))


def _per_state_solve(ip, N):
    """(rejected, [(roots, residual, energy, vector, h_residual, t_residual)])."""
    rejected = dict.fromkeys(("unconverged", "coincident", "string_pole", "energy_mismatch"), 0)
    diag, off = bethe._collective_hamiltonian(ip, N)
    eta, zeta, W = ip.eta, ip.zeta, ip.omega_sum
    scale = max(abs(W), abs(zeta / eta), abs(eta) * N, 1.0)
    T = bethe._tq_matrix(N, eta / scale, W / scale, (zeta / eta / scale) ** 2)
    energies = eigh_tridiagonal(diag, off, eigvals_only=True)
    lam0 = ip.alpha * N * N + (zeta / eta) ** 2 - W * W - energies
    solutions = []
    for energy, lam in zip(energies, lam0):
        v = np.array([], dtype=complex)
        if N:
            c = np.linalg.svd(T - lam / scale**2 * np.eye(N + 1))[2][-1]
            v = _ref_newton(scale * np.roots(c[::-1] / c[-1]).astype(complex), ip)
            if v is None:
                rejected["unconverged"] += 1
                continue
        v = np.sort_complex(v)
        diff, gap, pole = _ref_pairs(v, eta)
        reason = "coincident" if gap < bethe.COINCIDENT_TOL else "string_pole" if pole < bethe.COINCIDENT_TOL else None
        u = 0j
        while reason is None and v.size and np.min(np.abs(v - u)) < 1e-6:
            u += 0.5
        if reason is None:
            p_minus, p_plus = np.prod((v - u - eta) / (v - u)), np.prod((v - u + eta) / (v - u))
            lam_u = (u * u - W * W) * p_minus + (zeta**2 / eta**2) * p_plus
            e_u = u * u + u * eta * N + ip.alpha * N * N + zeta**2 / eta**2 - W * W - lam_u
            if abs(e_u - energy) > 1e-9 * max(1.0, abs(energy)):
                reason = "energy_mismatch"
        if reason:
            rejected[reason] += 1
            continue
        vector = _ref_state(v, ip)
        residual = float(np.max(np.abs(_ref_residual(v, diff, ip)[0]), initial=0.0))
        solutions.append((v.tobytes(), residual, float(energy), vector.tobytes(),
                          _ref_eigen_residual(diag, off, vector, energy), _ref_eigen_residual(diag, off, vector, e_u)))
    return rejected, solutions


def _flipped_random_params(n):
    rng = np.random.default_rng(70 + n)
    s = rng.standard_normal(n)
    return IntegrableParams(n, -0.8, rng.uniform(0.5, 1.5, n), s, -rng.uniform(0.5, 2.0) * s, alpha=rng.uniform(-0.5, 1.5))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lockstep_solve_equals_the_per_state_solve_bitwise(n):
    # every state, kept or rejected, as the per-state solve gives it: the same
    # bytes of roots and vector, the same floats, the same reasons; N = 16 and
    # 24 run in blocks where some or all states are rejected
    for ip in (default_integrable_params(n), _generic_params(n), _flipped_random_params(n)):
        for N in [*range(13), 16, 24]:
            rejected, want = _per_state_solve(ip, N)
            result = solve_bae(ip, N)
            got = [(s.roots.tobytes(), s.residual, s.energy, s.vector.tobytes(), s.h_residual, s.t_residual)
                   for s in result.solutions]
            assert (result.rejected, got) == (rejected, want), (ip, N)
            assert all(type(x) is float for sol in got for x in sol[1:3] + sol[4:])


@pytest.mark.parametrize("N", [2, 4, 7])
def test_lockstep_newton_equals_the_per_state_newton_from_perturbed_roots(N):
    # solutions moved by 1e-6 to 3 in random directions: the far starts reach
    # deep backtracking, its lam < 1e-7 cut-off and the guard, which TQ seeds
    # seldom do; each row of one stack ends as the per-state iteration does
    rng = np.random.default_rng(50 + N)
    ip = default_integrable_params(2)
    kept = np.array([sol.roots for sol in solve_bae(ip, N).solutions])
    scales = np.repeat([1e-6, 1e-2, 0.3, 1.0, 3.0], 12)
    v0 = kept[rng.integers(len(kept), size=scales.size)] + scales[:, None] * (
        rng.standard_normal((scales.size, N)) + 1j * rng.standard_normal((scales.size, N)))
    v0[0, 1] = v0[0, 0]  # a start on a coincidence, which the guard refuses at once
    roots, converged = bethe._newton(v0.copy(), ip)
    for k, start in enumerate(v0):
        want = _ref_newton(start, ip)
        assert converged[k] == (want is not None), k
        if want is not None:
            assert roots[k].tobytes() == want.tobytes(), k
    assert 0 < converged.sum() < len(v0) and not converged[0]


def test_backtrack_tries_each_lam_down_to_the_last_above_1e_minus_7():
    # near solutions the Newton step dv roughly halves the distance: a step of
    # 3 * 2^22 dv overshoots at every lam down to 2^-22 and is accepted at
    # 2^-23, the last lam >= 1e-7 (the point 1.5 dv on); 3 * 2^23 dv would
    # need 2^-24 < 1e-7, and is refused
    ip = default_integrable_params(2)
    kept = np.array([sol.roots for sol in solve_bae(ip, 4).solutions])
    ok, p = bethe._points(kept + 1e-3, ip)
    solved, dv = bethe._newton_steps(p, ip)
    assert ok.all() and solved.all()
    step = 3 * 2.0**22 * dv
    accepted, q = bethe._backtrack(bethe._Points(*(a.copy() for a in p)), step, ip)
    assert accepted.all() and q.v.tobytes() == (p.v + 2.0**-23 * step).tobytes()
    accepted, _ = bethe._backtrack(bethe._Points(*(a.copy() for a in p)), 2 * step, ip)
    assert not accepted.any()
