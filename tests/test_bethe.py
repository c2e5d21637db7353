import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twowell.bethe import (
    bae_residual,
    bethe_energy,
    bethe_vector,
    collective_energies,
    match_spectrum,
    solve_bae,
    transfer_eigenvalue,
)
from twowell.fock import dimension, enumerate_sector
from twowell.model import build_hamiltonian, spectrum
from twowell.yangbaxter import (
    IntegrableParams,
    default_integrable_params,
    hamiltonian_from_transfer,
    identify_parameters,
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
    assert result.unique == 2
    roots = sorted(sol.roots[0].real for sol in result.solutions)
    assert abs(roots[0] + SQRT5) <= 1e-12
    assert abs(roots[1] - SQRT5) <= 1e-12
    energies = sorted(sol.energy.real for sol in result.solutions)
    assert abs(energies[0] - (1.0 - SQRT5)) <= 1e-10
    assert abs(energies[1] - (1.0 + SQRT5)) <= 1e-10


def test_solver_vacuum():
    ip = default_integrable_params(2)
    result = solve_bae(ip, 0)
    assert result.unique == 1
    sol = result.solutions[0]
    assert sol.roots.size == 0
    assert abs(sol.energy) <= 1e-14


def test_solver_deterministic():
    ip = default_integrable_params(2)
    r1 = solve_bae(ip, 3, compute_vectors=False)
    r2 = solve_bae(ip, 3, compute_vectors=False)
    assert r1.unique == r2.unique == 4
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
    assert result.attempts == result.converged == result.unique == N + 1
    assert not any(result.rejected.values())
    energies = [sol.energy.real for sol in result.solutions]
    assert energies == sorted(energies)
    for sol in result.solutions:
        assert sol.roots.size == N
        assert sol.residual <= 1e-10
        assert max(sol.h_residual, sol.t_residual) <= 1e-9
    ed = spectrum(build_hamiltonian(identify_parameters(ip), enumerate_sector(n, N)))
    report = match_spectrum(result.solutions, ed, tol=1e-8)
    assert report.n_matched == N + 1


def test_solver_random_proportional_couplings():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        s = rng.standard_normal(n)
        t = rng.uniform(0.5, 2.0) * s
        ip = IntegrableParams(n, -0.7, rng.uniform(0.5, 1.5, n), s, t, alpha=0.8)
        for N in (2, 3):
            result = solve_bae(ip, N)
            assert result.unique == N + 1
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
            levels = spectrum(
                build_hamiltonian(identify_parameters(ip), enumerate_sector(n, N))
            ).eigenvalues
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
    levels = spectrum(build_hamiltonian(mp, sector)).eigenvalues
    gauged = spectrum(build_hamiltonian(identify_parameters(derived), sector)).eigenvalues
    assert np.max(np.abs(levels - gauged)) <= 1e-12
    free = np.ones(levels.size, dtype=bool)
    for e in collective_energies(derived, N):
        gaps = np.where(free, np.abs(levels - e), np.inf)
        k = int(np.argmin(gaps))
        assert gaps[k] <= 1e-10
        free[k] = False


def test_solver_refuses_nonproportional_couplings():
    ip = IntegrableParams(
        2, 1.0, np.ones(2), np.array([1.0, 0.5]), np.array([0.5, 1.0]), alpha=1.0
    )
    with pytest.raises(ValueError, match="not proportional"):
        solve_bae(ip, 1, compute_vectors=False)


def test_conjugation_closure_of_solutions():
    ip = default_integrable_params(2)
    result = solve_bae(ip, 3)
    assert result.unique == 4
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
    assert bethe_energy([SQRT5], ip, 1) == pytest.approx(1.0 - SQRT5, abs=1e-12)
    assert bethe_energy([-SQRT5], ip, 1) == pytest.approx(1.0 + SQRT5, abs=1e-12)


def test_energy_vacuum():
    ip = default_integrable_params(2)
    lam = transfer_eigenvalue(0.7, [], ip)
    assert lam == pytest.approx(0.7**2 - 4.0 + 1.0, abs=1e-14)
    assert abs(bethe_energy([], ip, 0)) <= 1e-14


def test_energy_u_independent_on_solutions():
    ip = default_integrable_params(2)
    e1 = bethe_energy([SQRT5], ip, 1, u=0.0)
    e2 = bethe_energy([SQRT5], ip, 1, u=1.3)
    assert abs(e1 - e2) <= 1e-9 * max(1.0, abs(e1))


def test_energy_check_rejects_non_solutions():
    ip = default_integrable_params(2)
    with pytest.raises(ValueError, match="u-dependent"):
        bethe_energy([1.0], ip, 1)


def test_energy_pole_guard():
    ip = default_integrable_params(2)
    with pytest.raises(ValueError, match="shifted"):
        bethe_energy([SQRT5], ip, 1, u=SQRT5)


def test_transfer_eigenvalue_closed_form():
    ip = default_integrable_params(2)
    lam = transfer_eigenvalue(0.0, [SQRT5], ip)
    assert lam == pytest.approx(-3.0 + SQRT5, abs=1e-12)


def test_energy_permutation_invariance():
    ip = default_integrable_params(2)
    result = solve_bae(ip, 3, compute_vectors=False)
    roots = result.solutions[0].roots
    e1 = bethe_energy(roots, ip, 3)
    e2 = bethe_energy(roots[::-1], ip, 3)
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

    H = hamiltonian_from_transfer(ip, sector).toarray()
    resid = H @ vec - (1.0 - SQRT5) * vec
    assert np.max(np.abs(resid)) <= 1e-12

    t0 = transfer_matrix(0.0, ip, sector).toarray()
    lam = transfer_eigenvalue(0.0, [SQRT5], ip)
    assert np.max(np.abs(t0 @ vec - lam * vec)) <= 1e-12


def test_vector_vacuum():
    ip = default_integrable_params(2)
    vec = bethe_vector([], ip)
    assert np.array_equal(vec, np.array([1.0 + 0.0j]))


@pytest.mark.parametrize("n", [1, 2])
def test_vector_eigen_residuals(n):
    ip = default_integrable_params(n)
    for N in (1, 2, 3):
        result = solve_bae(ip, N)
        assert result.unique == N + 1
        for sol in result.solutions:
            assert sol.h_residual <= 1e-9
            assert sol.t_residual <= 1e-9


def test_vector_stays_sparse():
    # one dense C(v) from N=19 to N=20 atoms at n=2 is 1771 x 1540 complex (43.6 MB)
    ip = default_integrable_params(2)
    N = 20
    sectors = [enumerate_sector(2, k) for k in range(N + 1)]
    roots = np.linspace(-3.0, 3.0, N) + 0.25j  # arbitrary and distinct
    dense_bytes = 16 * dimension(2, N) * dimension(2, N - 1)
    tracemalloc.start()
    try:
        vec = bethe_vector(roots, ip, sectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.shape == (dimension(2, N),)
    assert peak < 0.01 * dense_bytes


def test_vector_requires_full_sector_chain():
    ip = default_integrable_params(2)
    with pytest.raises(ValueError, match="chain"):
        bethe_vector([SQRT5], ip, sectors=[enumerate_sector(2, 0)])


# ---------------------------------------------------------------------------
# spectrum matching
# ---------------------------------------------------------------------------

def test_match_single_atom_partition():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 1)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
    result = solve_bae(ip, 1)
    report = match_spectrum(result.solutions, ed, tol=1e-8)
    assert report.n_matched == 2
    assert report.max_matched_delta <= 1e-10
    leftovers = sorted(ed.eigenvalues[i] for i in report.unmatched_eigenvalues)
    assert np.allclose(leftovers, [-1.0, 3.0], atol=1e-12)


def test_match_empty_solution_list():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 1)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
    report = match_spectrum([], ed, tol=1e-8)
    assert report.n_matched == 0
    assert len(report.unmatched_eigenvalues) == 4


@pytest.mark.parametrize("N", [2, 3])
def test_match_oracle_equivalence(N):
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, N)
    ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
    result = solve_bae(ip, N)
    report = match_spectrum(result.solutions, ed, tol=1e-8)
    assert result.unique == N + 1
    assert report.n_matched == result.unique
    assert not report.unmatched_solutions
