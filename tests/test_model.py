import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh
from hypothesis import given, settings
from hypothesis import strategies as st

from twowell import cli, model, yangbaxter
from twowell.cli import scan_params
from twowell.fock import dimension, enumerate_sector
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


def layered_hamiltonian(params, N):
    """H on the N-atom sector with its rows sorted by N_a, the layer order in
    which the CLI passes every sector to `spectrum`."""
    sector = enumerate_sector(params.n_levels, N)
    o = np.argsort(-sector.occ[:, :params.n_levels].sum(1), kind="stable")
    return build_hamiltonian(params, sector)[o][:, o]


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
    assert np.array_equal(lowest(dense), lowest(H))


def _non_canonical(H):
    """H as a CSR matrix with each row's columns descending and its first
    entry split into two halves: the same matrix, not in canonical form."""
    rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
    order = np.lexsort((-H.indices, rows))
    data, indices = H.data[order], H.indices[order]
    data[0] /= 2
    data, indices = np.insert(data, 1, data[0]), np.insert(indices, 1, indices[0])
    messy = sp.csr_matrix((data, indices, H.indptr + (np.arange(H.shape[0] + 1) > 0)), shape=H.shape)
    assert not messy.has_canonical_format
    return messy


def test_spectrum_never_writes_into_its_input():
    # LAPACK overwrites the dense array it is given; that array must be
    # spectrum's own, and a non-canonical CSR is summed and sorted in a copy
    H = build_hamiltonian(random_params(np.random.default_rng(5), 2), enumerate_sector(2, 3))
    ref = spectrum(H)
    for given_H in (H.toarray(), np.asfortranarray(H.toarray()), H.copy(), _non_canonical(H)):
        kept = given_H.copy()
        assert np.array_equal(spectrum(given_H), ref)
        if sp.issparse(given_H):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(given_H, part), getattr(kept, part))
        else:
            assert np.array_equal(given_H, kept)


@pytest.mark.parametrize("dtype", ["real", "complex", "complex-dense"])
def test_spectrum_allocates_one_dense_matrix(dtype):
    # at most the d x d array that check_dense_fits counts and LAPACK's O(d)
    # workspace: no second copy, and no d^2-byte finiteness mask (d > 800
    # here, so a mask would exceed the bound).  The real sector (d / (b + 1)
    # = 10.8 even in layer order) and the random complex pattern are solved
    # dense; the tridiagonal takes the banded path, which stays far below
    if dtype == "real":
        H = build_hamiltonian(scan_params(mu2=0.3), enumerate_sector(2, 16))  # d = 969
    elif dtype == "complex-dense":
        rng, d = np.random.default_rng(6), 900
        A = sp.random(d, d, density=0.01, random_state=rng) * (1 + 1j)
        H = (A + A.conj().T + sp.diags(rng.standard_normal(d))).tocsr()
    else:
        # a complex Hermitian tridiagonal; LAPACK's heevr workspace is about
        # 780 d bytes (about 320 d for the real syevr)
        rng, d = np.random.default_rng(6), 1200
        off = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        H = sp.diags([off.conj(), rng.standard_normal(d), off], [-1, 0, 1], format="csr")
    assert (model._lower_band(model._checked(H)) is None) == (dtype != "complex")
    d, itemsize = H.shape[0], H.dtype.itemsize
    spectrum(H)  # first-call set-up is not the solve's
    tracemalloc.start()
    try:
        spectrum(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= itemsize * d * d + 800 * d


def _banded_case(case):
    rng = np.random.default_rng(30)
    if case == "tridiagonal":  # n = 1: the two-mode Josephson model, b = 1
        return build_hamiltonian(random_params(rng, 1), enumerate_sector(1, 2000))
    if case == "n2":  # d = 2024, b = 143 in layer order
        return layered_hamiltonian(random_params(rng, 2), 21)
    # a complex Hermitian band of half-bandwidth 6
    d, b = 600, 6
    A = sp.diags([rng.standard_normal(d - k) + 1j * rng.standard_normal(d - k) for k in range(b + 1)],
                 range(b + 1), format="csr")
    return ((A + A.conj().T) / 2).tocsr()


@pytest.mark.parametrize("case", ["tridiagonal", "n2", "complex"])
def test_banded_spectrum_agrees_with_dense(case):
    H = _banded_case(case)
    band = model._lower_band(model._checked(H))
    assert band is not None and H.shape[0] >= model.BAND_RATIO * band.shape[0]
    if case == "n2":
        assert band.shape == (144, 2024)
    levels = spectrum(H)
    ref = eigvalsh(H.toarray())
    assert np.all(np.diff(levels) >= 0.0)
    assert np.max(np.abs(levels - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.array_equal(spectrum(H), levels)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64, bool])
def test_both_paths_keep_the_precision_eigvalsh_picks(dtype):
    # the band keeps H's dtype, so LAPACK runs in the precision eigvalsh picks
    # for the dense array; d = 3 is below BAND_RATIO and solved dense
    for d in (3, 60):
        H = sp.diags([np.ones(d - 1), np.arange(d) % 2, np.ones(d - 1)], [-1, 0, 1], format="csr").astype(dtype)
        assert (model._lower_band(model._checked(H)) is None) == (d < model.BAND_RATIO)
        ref = eigvalsh(H.toarray())
        levels = spectrum(H)
        assert levels.dtype == ref.dtype
        assert np.max(np.abs(levels - ref)) <= 1e-5


def test_banded_spectrum_allocates_its_band():
    # n = 2, N = 21 in layer order: the (b + 1) x d band and O(nnz + d) for
    # its coordinates, where the dense path takes 8 d^2 = 33 MB
    H = layered_hamiltonian(random_params(np.random.default_rng(8), 2), 21)
    d, itemsize = H.shape[0], H.dtype.itemsize
    b = model._lower_band(model._checked(H)).shape[0] - 1
    assert (d, b) == (2024, 143)
    spectrum(H)  # first-call set-up is not the solve's
    tracemalloc.start()
    try:
        spectrum(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= itemsize * d * (b + 1) + 600 * d
    assert peak < itemsize * d * d / 5


def _cli_half_bandwidth(mp, N, monkeypatch):
    """b of the matrix that `cli._ed_levels` hands to spectrum for the N-atom sector."""
    seen = []
    monkeypatch.setattr(model, "spectrum", lambda H: seen.append(H.tocoo()))
    cli._ed_levels(mp, N)
    return int((seen[0].row - seen[0].col).max(initial=0))


def test_layer_order_half_bandwidth(monkeypatch):
    # a hop moves one atom between the wells, so in the layer order the CLI
    # passes, b is a formula in (n, N): 1 at n = 1, and at n = 2, for a full
    # Omega, the largest layer (k + 1)(N - k + 1) plus ceil(N / 2); with a
    # diagonal Omega H has a subset of those entries, so b is at most that
    rng = np.random.default_rng(40)
    full, diagonal = random_params(rng, 2), random_params(rng, 2)
    diagonal.Omega = np.diag(np.diag(diagonal.Omega))
    assert {_cli_half_bandwidth(random_params(rng, 1), N, monkeypatch) for N in (1, 2, 7, 300)} == {1}
    for N in range(1, 41):
        b = max((k + 1) * (N - k + 1) for k in range(N + 1)) + (N + 1) // 2
        assert _cli_half_bandwidth(scan_params(mu2=0.3), N, monkeypatch) == b
        assert _cli_half_bandwidth(full, N, monkeypatch) == b
        assert _cli_half_bandwidth(diagonal, N, monkeypatch) <= b


def test_cli_sectors_take_the_band_from_n_17(monkeypatch):
    # the default n = 2 model: every sector up to N = 16 is solved dense, and
    # from N = 17 as a band
    mp = yangbaxter.identify_parameters(yangbaxter.default_integrable_params(2))
    widths = {N: _cli_half_bandwidth(mp, N, monkeypatch) for N in range(22)}
    assert [widths[N] for N in (17, 18, 21)] == [99, 109, 143]
    for N, b in widths.items():
        assert (dimension(2, N) >= model.BAND_RATIO * (b + 1)) == (N >= 17)


def _dense_case(case):
    rng = np.random.default_rng(31)
    if case in ("n3_4", "n3_6"):  # in layer order, d / (b + 1) = 2.6 at N = 4 and 3.5 at N = 6
        return layered_hamiltonian(random_params(rng, 3), int(case[-1]))
    if case == "ndarray":
        A = rng.standard_normal((60, 60))
        return A + A.T
    if case == "shuffled":  # a tridiagonal in a shuffled order, which spectrum keeps
        d = 800
        off = rng.standard_normal(d - 1)
        perm = rng.permutation(d)
        return sp.diags([off, rng.standard_normal(d), off], [-1, 0, 1], format="csr")[perm][:, perm].tocsr()
    # K_{m,m}: every state of one half hops to every state of the other, so
    # no order gives a band narrower than about m
    m = 30
    B = sp.csr_matrix(rng.standard_normal((m, m)))
    return sp.bmat([[sp.diags(rng.standard_normal(m)), B], [B.T, sp.diags(rng.standard_normal(m))]], format="csr")


@pytest.mark.parametrize("case", ["n3_4", "n3_6", "ndarray", "bipartite", "shuffled"])
def test_dense_path_keeps_the_input_order(case):
    # each is refused the band on its half-bandwidth in the order given; H is
    # never reordered, so the values are eigvalsh's on the matrix as given,
    # bit for bit
    H = _dense_case(case)
    assert H.shape[0] >= model.BAND_RATIO
    assert model._lower_band(model._checked(H)) is None
    dense = H.toarray() if sp.issparse(H) else H
    assert np.array_equal(spectrum(H), eigvalsh(dense))


def test_hermiticity_check_stays_sparse():
    # H^T has the pattern of H, so the check makes one transposed copy of H (12
    # bytes per entry) and no H - H^dag, which took 16.9 MB (49 bytes per entry)
    H = build_hamiltonian(scan_params(mu2=0.5), enumerate_sector(2, 60))
    model._checked(H)
    tracemalloc.start()
    try:
        model._checked(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * H.nnz  # measured 4.6 MB, 13.5 bytes per entry


@pytest.mark.parametrize(
    "bad, where",
    [
        ([[1.0, 2.0], [3.0, 1.0]], "H[0,1]"),  # same pattern, values differ
        ([[1.0, 1j], [1j, 1.0]], "H[0,1]"),  # symmetric, not Hermitian
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.4, 0.0]], "H[1,2]"),
    ],
)
def test_hermiticity_error_names_the_worst_entry(bad, where):
    # H^T has the pattern of H here, so the entry-by-entry comparison fails
    # and the error path names the entry as test_eigensolve_rejects_non_hermitian
    # sees it named where the patterns differ
    with pytest.raises(ValueError, match=f"not Hermitian: \\|{re.escape(where)} - conj"):
        spectrum(np.array(bad))


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
        iterative = lowest(H)
        assert iterative.size == 1
        assert abs(iterative[0] - spectrum(H)[0]) < 1e-10
    # d = 2: the recurrence ends at step d, where T is H in the Lanczos basis
    assert lowest(np.diag([2.0, 1.0]))[0] == pytest.approx(1.0, abs=1e-15)


def test_lowest_rejects_non_hermitian_and_bad_k():
    bad = np.diag([1.0, 2.0, 3.0, 4.0])
    bad[2, 1] = 1e-6
    with pytest.raises(ValueError, match=r"H\[2,1\]"):
        lowest(bad)
    # the shift direction D takes the place of the level count k
    with pytest.raises(ValueError, match=r"D must have shape \(3,\)"):
        lowest(np.eye(3), np.ones(4), [0.0])
    with pytest.raises(ValueError, match="D must be finite"):
        lowest(np.eye(3), [0.0, np.nan, 0.0], [0.0])


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
    assert np.array_equal(lowest(np.zeros((5, 5))), [0.0])


def _dense_line(H, D, xs):
    """spectrum(H + x diag D)[0] for each x: the per-point dense reference."""
    H = sp.csr_matrix(H)
    return np.array([spectrum(H + sp.diags(x * np.asarray(D, dtype=float)))[0] for x in xs])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowest_line_matches_dense_per_point(n):
    rng = np.random.default_rng(20 + n)
    xs = np.linspace(-2.0, 2.0, 9)
    for N in range(6):
        sector = enumerate_sector(n, N)
        H = build_hamiltonian(random_params(rng, n), sector)
        D = sector.occ[:, n] - sector.occ[:, 0]  # N_b1 - N_a1
        np.testing.assert_allclose(lowest(H, D, xs), _dense_line(H, D, xs), rtol=1e-12, atol=0.0)


def test_lowest_line_degenerate_ground_level():
    # Omega = 0 leaves H diagonal; with the wells' couplings equal and integer,
    # each state ties with its mirror image, and at N = 3 the ground level -4 is
    # the pair n_a1, n_b1 = (1, 2), (2, 1).  D = N_a1 + N_b1 keeps the tie.
    params = ModelParams(
        n_levels=2,
        U_aa=np.eye(2),
        U_bb=np.eye(2),
        U_ab=np.zeros((2, 2)),
        mu=np.zeros(2),
        eps_a=[-3.0, 0.0],
        eps_b=[-3.0, 0.0],
        Omega=np.zeros((2, 2)),
    )
    sector = enumerate_sector(2, 3)
    H = build_hamiltonian(params, sector)
    D = sector.occ[:, 0] + sector.occ[:, 2]
    xs = np.linspace(-0.5, 0.5, 5)
    dense = _dense_line(H, D, xs)
    levels = spectrum(H)
    assert levels[0] == levels[1] == -4.0 < levels[2]
    np.testing.assert_allclose(lowest(H, D, xs), dense, rtol=1e-12, atol=0.0)


def test_lowest_line_at_one_state_and_on_the_zero_operator():
    # d = 1 and the zero operator end at once, on beta = 0: exactly what dense gives
    xs = [-1.5, 0.0, 2.25]
    assert np.array_equal(lowest([[2.5]], [1.0], xs), _dense_line([[2.5]], [1.0], xs))
    assert np.array_equal(lowest(np.zeros((5, 5)), None, xs), np.zeros(3))
    assert lowest(np.zeros((5, 5)), None, []).shape == (0,)


def test_lowest_complex_hermitian_equals_spectrum():
    rng = np.random.default_rng(13)
    d = 60
    A = sp.random(d, d, density=0.1, random_state=rng) + 1j * sp.random(d, d, density=0.1, random_state=rng)
    H = (A + A.conj().T) / 2 + sp.diags(rng.standard_normal(d))
    D = rng.standard_normal(d)
    xs = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_allclose(lowest(H, D, xs), _dense_line(H, D, xs), rtol=1e-12, atol=0.0)


def test_lowest_line_refuses_the_first_overflowing_shift():
    H = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(model.ShiftError, match=r"^xs\[1\] = 1e\+308: the Lanczos recurrence overflows float64$") as exc:
        lowest(H, [0.0, 2.0, 1.0], [1.0, 1e308, 1.7e308])
    assert exc.value.index == 1 and not isinstance(exc.value, model.NotConverged)
    # a finite diagonal whose Lanczos coefficients overflow; at 1e200 only
    # their squares do, and the scaled norm and tridiagonal solve carry on
    with pytest.raises(model.ShiftError, match=r"^xs\[0\] = 1.5e\+308: the Lanczos recurrence overflows float64$"):
        lowest(H, [0.0, 1.0, -1.0], [1.5e308])
    assert lowest(H, [0.0, 1.0, -1.0], [1e200])[0] == pytest.approx(-1e200, rel=1e-12)


def test_lowest_names_the_first_failing_shift_whichever_way_it_fails(monkeypatch):
    # xs[0] needs the scaled norms (its squares overflow) in a block where
    # xs[1]'s recurrence turns nan (x diag(D) holds +inf and -inf): it is
    # still solved, and xs[1] is the one refused
    with pytest.raises(model.ShiftError, match=r"^xs\[1\] = 1e\+308: the Lanczos recurrence overflows") as exc:
        lowest(np.diag([1.0, 2.0, 3.0]), [0.0, 2.0, -2.0], [1e200, 1e308])
    assert exc.value.index == 1
    # xs[0] stops unconverged at the step cap and xs[1] overflows at step 1,
    # in one block: the first in xs order is refused, as it is across blocks
    H = sp.diags([np.ones(4), np.arange(1.0, 6.0), np.ones(4)], [-1, 0, 1])
    monkeypatch.setattr(model, "LOWEST_STEP_CAP", 2)
    with pytest.raises(model.NotConverged, match=r"^xs\[0\] = 0.5: not converged in 2 Lanczos steps$") as exc:
        lowest(H, [0.0, 0.0, 0.0, 0.0, 2.0], [0.5, 1e308])
    assert exc.value.index == 0


def test_lowest_line_memory_is_bounded_by_its_block():
    sector = enumerate_sector(2, 60)
    d = sector.dim
    H = build_hamiltonian(scan_params(mu2=0.5), sector)
    # D picks one basis state, which a large x isolates as the ground state, so
    # each shift converges in a few dozen steps
    D = np.zeros(d)
    D[d // 2] = -1.0
    xs = 1e4 + np.arange(50.0)
    assert model.LOWEST_BLOCK_ENTRIES // d < xs.size  # more than one block
    tracemalloc.start()
    try:
        levels = lowest(H, D, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ten float64 arrays of one block (42 MB; measured peak 21 MB), where
    # five arrays of the whole line as one block would need 79 MB
    assert peak < 10 * 8 * model.LOWEST_BLOCK_ENTRIES < 5 * 8 * d * xs.size
    single = [lowest(H, D, [x])[0] for x in xs[[0, -1]]]
    np.testing.assert_allclose(levels[[0, -1]], single, rtol=1e-12, atol=0.0)


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
    n_total = sp.diags(sector.occ.sum(1).astype(float), format="csr")
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
    assert peak < dense / 100  # measured: 4.6 MB, 0.04%
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

    assert commutator(sp.diags(sector.occ.sum(1).astype(float), format="csr")) == 0.0
    modes = [sp.diags(sector.occ[:, c], dtype=float) for c in range(4)]  # N_a1, N_a2, N_b1, N_b2
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
