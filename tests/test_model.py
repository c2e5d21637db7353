import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from twowell import model
from twowell.cli import scan_params
from twowell.fock import Mode, dimension, enumerate_sector, number_operator, total_number_operator
from twowell.model import ModelParams, build_hamiltonian, lowest, spectrum

SQRT5 = np.sqrt(5.0)


def closed_form_params():
    """n = 2 set with U_ppjj = 1, eps_a - mu = 2, eps_b + mu = -2, Omega = 1/2."""
    return ModelParams(
        n_levels=2,
        U_aa=[[1.0, 2.0], [2.0, 1.0]],
        U_bb=[[1.0, 2.0], [2.0, 1.0]],
        U_ab=[[1.0, 1.0], [1.0, 1.0]],
        mu=[0.0, 0.0],
        eps_a=[2.0, 2.0],
        eps_b=[-2.0, -2.0],
        Omega=[[0.5, 0.5], [0.5, 0.5]],
    )


def random_params(rng, n):
    sym_a = rng.standard_normal((n, n))
    sym_b = rng.standard_normal((n, n))
    return ModelParams(
        n_levels=n,
        U_aa=sym_a + sym_a.T,
        U_bb=sym_b + sym_b.T,
        U_ab=rng.standard_normal((n, n)),
        mu=rng.standard_normal(n),
        eps_a=rng.standard_normal(n),
        eps_b=rng.standard_normal(n),
        Omega=rng.standard_normal((n, n)),
    )


def test_same_well_couplings_stored_exactly_symmetric():
    # within 1e-12 of symmetric, U is stored as (U + U^T) / 2; near the largest
    # float64 the halves keep the stored couplings finite
    U = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    big = np.array([[1e308, 1.7e308], [1.7e308, -1.7e308]])
    zeros = np.zeros((2, 2))
    params = ModelParams(2, U, big, zeros, np.zeros(2), np.zeros(2), np.zeros(2), zeros)
    assert np.array_equal(params.U_aa, (U + U.T) / 2)
    assert np.array_equal(params.U_aa, params.U_aa.T)
    assert np.array_equal(params.U_bb, big)


def test_params_reject_asymmetric_same_well():
    with pytest.raises(ValueError):
        ModelParams(
            n_levels=2,
            U_aa=[[1.0, 2.0], [3.0, 1.0]],
            U_bb=np.eye(2),
            U_ab=np.zeros((2, 2)),
            mu=np.zeros(2),
            eps_a=np.zeros(2),
            eps_b=np.zeros(2),
            Omega=np.zeros((2, 2)),
        )


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        ModelParams(
            n_levels=1,
            U_aa=[[np.inf]],
            U_bb=[[0.0]],
            U_ab=[[0.0]],
            mu=[0.0],
            eps_a=[0.0],
            eps_b=[0.0],
            Omega=[[0.0]],
        )


def test_hamiltonian_single_atom_matrix():
    sector = enumerate_sector(2, 1)
    H = build_hamiltonian(closed_form_params(), sector).toarray()
    expected = np.array(
        [
            [3.0, 0.0, -0.5, -0.5],
            [0.0, 3.0, -0.5, -0.5],
            [-0.5, -0.5, -1.0, 0.0],
            [-0.5, -0.5, 0.0, -1.0],
        ]
    )
    assert np.allclose(H, expected, atol=0.0)


def test_hamiltonian_vacuum_sector_is_zero():
    sector = enumerate_sector(2, 0)
    H = build_hamiltonian(closed_form_params(), sector).toarray()
    assert H.shape == (1, 1)
    assert H[0, 0] == 0.0


def test_hamiltonian_level_count_mismatch():
    with pytest.raises(ValueError):
        build_hamiltonian(closed_form_params(), enumerate_sector(3, 1))


def test_hamiltonian_exactly_symmetric():
    rng = np.random.default_rng(0)
    sector = enumerate_sector(2, 3)
    H = build_hamiltonian(random_params(rng, 2), sector)
    assert (H - H.T).nnz == 0


def test_diagonal_matches_decoupled_plus_cross():
    # with the tunneling off, H is diagonal: each product state has the energy
    # of well a alone, plus well b alone, plus the cross-well density term
    rng = np.random.default_rng(1)
    params = random_params(rng, 2)
    params.Omega = np.zeros((2, 2))
    sector = enumerate_sector(2, 3)
    H = build_hamiltonian(params, sector).toarray()
    assert np.allclose(H, np.diag(np.diag(H)), atol=0.0)

    def well(nvec, U, lin):
        return 0.5 * nvec @ U @ nvec + 0.5 * nvec**2 @ np.diag(U) + nvec @ lin

    for i, state in enumerate(sector.occ):
        na = np.array(state[:2], dtype=float)
        nb = np.array(state[2:], dtype=float)
        e_a = well(na, params.U_aa, params.eps_a - params.mu)
        e_b = well(nb, params.U_bb, params.eps_b + params.mu)
        cross = na @ params.U_ab @ nb
        assert H[i, i] == pytest.approx(e_a + e_b + cross, rel=1e-14, abs=1e-14)
    # spectrum of the decoupled model is the sorted diagonal
    assert np.allclose(spectrum(H), np.sort(np.diag(H)), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_matches_einsum_quadratic_forms(n):
    # reference: the quadratic forms as einsum contractions, the construction
    # the BLAS products replaced; they differ only in summation order
    rng = np.random.default_rng(20 + n)
    params = random_params(rng, n)
    occ = enumerate_sector(n, 5).occ
    na, nb = occ[:, :n].astype(float), occ[:, n:].astype(float)
    expected = (
        0.5 * np.einsum("ij,jk,ik->i", na, params.U_aa, na) + 0.5 * na**2 @ np.diag(params.U_aa)
        + 0.5 * np.einsum("ij,jk,ik->i", nb, params.U_bb, nb) + 0.5 * nb**2 @ np.diag(params.U_bb)
        + np.einsum("ij,jk,ik->i", na, params.U_ab, nb)
        + na @ (params.eps_a - params.mu) + nb @ (params.eps_b + params.mu)
    )
    diag = model._diagonal_energy(params, occ)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(diag - expected)) <= 1e-13 * scale


def test_eigensolve_closed_form_spectrum():
    sector = enumerate_sector(2, 1)
    levels = spectrum(build_hamiltonian(closed_form_params(), sector))
    expected = np.sort([1.0 - SQRT5, -1.0, 3.0, 1.0 + SQRT5])
    assert np.allclose(levels, expected, atol=1e-12)


def test_eigensolve_trivial_cases():
    assert spectrum(np.zeros((1, 1))) == pytest.approx([0.0])
    diag = np.diag([3.0, -1.0, 2.0])
    assert np.allclose(spectrum(diag), [-1.0, 2.0, 3.0], atol=0.0)


def test_eigensolve_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"H\[0,1\]"):
        spectrum(bad)


def test_spectrum_dense_input_equals_its_csr_form():
    # both are read as CSR, so the dense array and its sparse form give the same bits
    rng = np.random.default_rng(2)
    H = build_hamiltonian(random_params(rng, 2), enumerate_sector(2, 3))
    dense = H.toarray()
    assert np.array_equal(spectrum(dense), spectrum(H))
    assert np.array_equal(lowest(dense, 3), lowest(H, 3))


def test_spectrum_never_writes_into_its_input():
    # LAPACK overwrites the dense array it is given; that array must be spectrum's own
    H = build_hamiltonian(random_params(np.random.default_rng(5), 2), enumerate_sector(2, 3))
    ref = spectrum(H)
    for given_H in (H.toarray(), np.asfortranarray(H.toarray()), H.copy()):
        kept = given_H.copy()
        assert np.array_equal(spectrum(given_H), ref)
        if sp.issparse(given_H):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(given_H, part), getattr(kept, part))
        else:
            assert np.array_equal(given_H, kept)


@pytest.mark.parametrize("dtype", ["real", "complex"])
def test_spectrum_allocates_one_dense_matrix(dtype):
    # the d x d array that check_dense_fits counts and LAPACK's O(d)
    # workspace: no second copy, and no d^2-byte finiteness mask (d > 800
    # here, so a mask would exceed the bound)
    if dtype == "real":
        H = build_hamiltonian(scan_params(mu2=0.3), enumerate_sector(2, 16))  # d = 969
    else:
        # a complex Hermitian tridiagonal; LAPACK's heevr workspace is about
        # 780 d bytes (about 320 d for the real syevr)
        rng, d = np.random.default_rng(6), 1200
        off = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        H = sp.diags([off.conj(), rng.standard_normal(d), off], [-1, 0, 1], format="csr")
    d, itemsize = H.shape[0], H.dtype.itemsize
    spectrum(H)  # first-call set-up is not the solve's
    tracemalloc.start()
    try:
        spectrum(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= itemsize * d * d + 800 * d


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_refused(bad):
    H = np.diag([1.0, 2.0, 3.0, 4.0])
    H[1, 1] = bad
    for solve in (spectrum, lowest):
        with pytest.raises(ValueError, match="must be finite"):
            solve(H)


def test_non_square_refused():
    for solve in (spectrum, lowest):
        with pytest.raises(ValueError, match="square"):
            solve(np.zeros((2, 3)))


def test_iterative_ground_state_agrees_with_dense():
    rng = np.random.default_rng(3)
    sectors = [enumerate_sector(2, N) for N in (0, 1, 3)]  # d = 1, 4, 20
    for sector in sectors:
        H = build_hamiltonian(random_params(rng, 2), sector)
        dense = spectrum(H)
        for k in range(1, min(3, sector.dim) + 1):
            iterative = lowest(H, k)
            assert iterative.size == k
            assert np.all(np.abs(iterative - dense[:k]) < 1e-10)
    # d = k + 1: the dense fallback, where ARPACK cannot run
    for k in range(1, 4):
        H = np.diag(np.arange(k + 1, 0, -1, dtype=float))
        assert np.array_equal(lowest(H, k), np.arange(1.0, k + 1.0))


def test_lowest_rejects_non_hermitian_and_bad_k():
    bad = np.diag([1.0, 2.0, 3.0, 4.0])
    bad[2, 1] = 1e-6
    with pytest.raises(ValueError, match=r"H\[2,1\]"):
        lowest(bad)
    with pytest.raises(ValueError, match="k"):
        lowest(np.eye(3), 4)


def test_lowest_finds_ground_state_orthogonal_to_uniform_vector():
    # hopping-only a1<->b1 (-1) and a2<->b2 (+0.3): the ground state at N = 5
    # has no overlap with the uniform vector, so a uniform Lanczos start
    # converges to -4.3 instead of -5
    params = ModelParams(
        n_levels=2,
        U_aa=np.zeros((2, 2)),
        U_bb=np.zeros((2, 2)),
        U_ab=np.zeros((2, 2)),
        mu=np.zeros(2),
        eps_a=np.zeros(2),
        eps_b=np.zeros(2),
        Omega=np.diag([-1.0, 0.3]),
    )
    H = build_hamiltonian(params, enumerate_sector(2, 5))
    assert lowest(H)[0] == pytest.approx(-5.0, abs=1e-12)
    assert spectrum(H)[0] == pytest.approx(-5.0, abs=1e-12)


def test_lowest_zero_operator():
    assert np.array_equal(lowest(np.zeros((5, 5)), 2), [0.0, 0.0])


@st.composite
def physical_params(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    x = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)

    def mat():
        return np.array(draw(st.lists(x, min_size=n * n, max_size=n * n))).reshape(n, n)

    def vec():
        return draw(st.lists(x, min_size=n, max_size=n))

    U_aa, U_bb = mat(), mat()
    return ModelParams(
        n_levels=n,
        U_aa=U_aa + U_aa.T,
        U_bb=U_bb + U_bb.T,
        U_ab=mat(),
        mu=vec(),
        eps_a=vec(),
        eps_b=vec(),
        Omega=mat(),
    )


@settings(max_examples=60, deadline=None)
@given(params=physical_params(), N=st.integers(0, 4))
def test_lowest_matches_spectrum_property(params, N):
    H = build_hamiltonian(params, enumerate_sector(params.n_levels, N))
    assert abs(lowest(H)[0] - spectrum(H)[0]) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(params=physical_params(), N=st.integers(0, 4))
def test_spectrum_invariant_under_well_relabeling(params, N):
    # a <-> b swaps the same-well couplings and the on-well energies, transposes
    # the cross-well ones, and flips mu, which enters as -mu_j (N_aj - N_bj)
    swapped = ModelParams(
        n_levels=params.n_levels,
        U_aa=params.U_bb,
        U_bb=params.U_aa,
        U_ab=params.U_ab.T,
        mu=-params.mu,
        eps_a=params.eps_b,
        eps_b=params.eps_a,
        Omega=params.Omega.T,
    )
    sector = enumerate_sector(params.n_levels, N)
    n_total = total_number_operator(sector)
    H, H_swapped = build_hamiltonian(params, sector), build_hamiltonian(swapped, sector)
    for h in (H, H_swapped):
        assert abs(h @ n_total - n_total @ h).max() == 0.0
    levels, levels_swapped = spectrum(H), spectrum(H_swapped)
    assert np.max(np.abs(levels - levels_swapped)) <= 1e-10


def test_lowest_stays_sparse_at_large_dimension():
    sector = enumerate_sector(2, 60)
    d = sector.dim
    assert d == 39711
    H = build_hamiltonian(random_params(np.random.default_rng(9), 2), sector)
    tracemalloc.start()
    try:
        e0 = lowest(H)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = 8 * d * d  # 12.6 GB
    assert peak < dense / 100  # measured: 17 MB, 0.13%
    # reference: ARPACK's ground pair from its own start, certified by its residual
    ref_vals, ref_vecs = spla.eigsh(H, k=1, which="SA")
    ref, vec = ref_vals[0], ref_vecs[:, 0]
    assert np.max(np.abs(H @ vec - ref * vec)) < 1e-9
    assert abs(e0 - ref) < 1e-9


def test_spectrum_refuses_above_byte_cap(monkeypatch):
    H = build_hamiltonian(random_params(np.random.default_rng(10), 2), enumerate_sector(2, 3))
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 8 * 20 * 20 - 1)
    with pytest.raises(ValueError, match="DENSE_BYTES_CAP"):
        spectrum(H)
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 8 * 20 * 20)
    assert spectrum(H).size == dimension(2, 3) == 20


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_spectrum_sizes_a_dense_array_before_converting_it(monkeypatch, dtype):
    # the cap is read from the shape and dtype: nothing of size d^2 is made
    # (converting this array to CSR and forming H - H^dag took 60 d^2 bytes)
    d = 1000
    H = np.random.default_rng(7).standard_normal((d, d)).astype(dtype)
    H += H.T
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", H.nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="DENSE_BYTES_CAP"):
            spectrum(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d / 10


@pytest.mark.parametrize("tunneling", ["random", "diagonal", "full"])
def test_conservation_laws(tunneling):
    # N_total always commutes with H; a diagonal Omega keeps each level sum
    # N_aj + N_bj, and a full one conserves no single mode or level number
    params = random_params(np.random.default_rng(4), 2)
    if tunneling == "diagonal":
        params.Omega = np.diag([0.7, -0.3])
    elif tunneling == "full":
        params.Omega = np.full((2, 2), 0.5)
    sector = enumerate_sector(2, 3)
    H = build_hamiltonian(params, sector)

    def commutator(A):
        return abs(H @ A - A @ H).max()

    assert commutator(total_number_operator(sector)) == 0.0
    modes = [number_operator(sector, Mode(w, j)) for w in "ab" for j in (1, 2)]
    levels = [modes[j] + modes[2 + j] for j in (0, 1)]
    if tunneling == "diagonal":
        assert all(commutator(N) == 0.0 for N in levels)
    if tunneling == "full":
        assert all(commutator(N) > 0.0 for N in modes + levels)


def test_spectrum_invariant_under_level_relabeling():
    rng = np.random.default_rng(6)
    params = random_params(rng, 3)
    perm = [2, 0, 1]
    permuted = ModelParams(
        n_levels=3,
        U_aa=params.U_aa[np.ix_(perm, perm)],
        U_bb=params.U_bb[np.ix_(perm, perm)],
        U_ab=params.U_ab[np.ix_(perm, perm)],
        mu=params.mu[perm],
        eps_a=params.eps_a[perm],
        eps_b=params.eps_b[perm],
        Omega=params.Omega[np.ix_(perm, perm)],
    )
    sector = enumerate_sector(3, 2)
    e1 = spectrum(build_hamiltonian(params, sector))
    e2 = spectrum(build_hamiltonian(permuted, sector))
    assert np.allclose(e1, e2, atol=1e-10)


def test_ground_state_concave_in_mu():
    rng = np.random.default_rng(7)
    params = random_params(rng, 2)
    sector = enumerate_sector(2, 3)
    grid = np.linspace(-2.0, 2.0, 21)
    energies = []
    for mu1 in grid:
        params.mu = np.array([mu1, 0.3])
        energies.append(spectrum(build_hamiltonian(params, sector))[0])
    second = np.diff(energies, 2)
    assert np.all(second <= 1e-9)
