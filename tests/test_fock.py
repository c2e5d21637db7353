import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twowell import fock, model
from twowell.bethe import bethe_vector
from twowell.fock import (
    dimension,
    enumerate_sector,
    hop_gap,
    hop_operator,
    truncated_ladder,
)
from twowell.yangbaxter import default_integrable_params


def test_dimension_reference_values():
    assert dimension(2, 2) == 10
    assert dimension(1, 5) == 6
    assert dimension(3, 0) == 1


@pytest.mark.parametrize("N", range(7))
def test_dimension_closed_forms(N):
    assert dimension(2, N) == (N + 3) * (N + 2) * (N + 1) // 6
    assert dimension(1, N) == N + 1


def test_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        dimension(0, 3)
    with pytest.raises(ValueError):
        dimension(2, -1)


def test_enumerate_two_mode_sector():
    sector = enumerate_sector(1, 2)
    assert sector.occ.tolist() == [[2, 0], [1, 1], [0, 2]]


def test_enumerate_unit_occupations():
    sector = enumerate_sector(2, 1)
    assert sector.dim == 4
    assert sector.occ.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_enumerate_matches_dimension_exhaustively():
    for n in range(1, 5):
        for N in range(7):
            sector = enumerate_sector(n, N)
            assert sector.dim == dimension(n, N)
            states = [tuple(row) for row in sector.occ.tolist()]
            assert all(sum(state) == N for state in states)
            # layer order: N_a descending, each layer strictly descending
            # lexicographic; rank is the inverse map
            assert states == sorted(states, key=lambda state: (sum(state[:n]), state), reverse=True)
            assert all(sector.rank(state) == i for i, state in enumerate(states))


def column_stack_enumerate(n_modes, total):
    """Reference: the enumeration as one `column_stack` per mode, each copying
    the partial rows built so far."""
    occ = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([total], dtype=np.int64)
    for _ in range(n_modes - 1):
        parent = np.repeat(np.arange(rest.size), rest + 1)
        starts = np.cumsum(rest + 1) - (rest + 1)
        head = rest[parent] - (np.arange(parent.size) - starts[parent])
        occ = np.column_stack([occ[parent], head])
        rest = rest[parent] - head
    return np.column_stack([occ, rest])


@pytest.mark.parametrize(
    "n_modes, total",
    [(1, 0), (1, 5), (2, 0), (2, 3), (4, 7), (6, 5), (8, 12), (3, 30), (4, 60), (40, 2)]
    # truncated_ladder(n_modes, cutoff) enumerates (n_modes + 1, cutoff)
    + [(n_modes + 1, cutoff) for n_modes in (1, 4, 8) for cutoff in (1, 3)],
)
def test_enumerate_equals_the_column_stack_loop(n_modes, total):
    occ = fock._enumerate(n_modes, total)
    ref = column_stack_enumerate(n_modes, total)
    assert occ.dtype == ref.dtype and occ.shape == ref.shape
    assert occ.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), N=st.integers(0, 8))
def test_occupation_array_rank_and_hopping(n, N):
    sector = enumerate_sector(n, N)
    occ = sector.occ
    assert occ.shape == (dimension(n, N), 2 * n)
    assert np.all(occ.sum(axis=1) == N)
    # consecutive rows are distinct and in layer order: with N_a put in front
    # of each row, the first column where they differ is larger in the
    # earlier row
    keyed = np.column_stack([occ[:, :n].sum(axis=1), occ])
    step = keyed[:-1] - keyed[1:]
    first = np.argmax(step != 0, axis=1)
    assert np.all(step[np.arange(len(step)), first] > 0)
    assert np.array_equal(sector.rank(occ), np.arange(sector.dim))

    eye = np.eye(2 * n, dtype=np.int64)
    for c, k in itertools.product(range(n), repeat=2):
        a = n + k  # column of b_k
        tunnel = hop_operator(sector, 0.0, np.outer(np.eye(n)[c], np.eye(n)[k]))
        # a_c^dag b_k raises N_a, so in layer order its half lies above the
        # diagonal
        hop = sp.triu(tunnel, k=1).tocoo()
        # checked against the rows themselves, without rank
        assert np.array_equal(occ[hop.row], occ[hop.col] + eye[c] - eye[a])
        n_c, n_a = occ[hop.col, c], occ[hop.col, a]
        assert np.array_equal(hop.data, np.sqrt((n_c + 1.0) * n_a))
        assert hop.nnz == np.count_nonzero(occ[:, a])
        assert (tunnel - hop - hop.T).nnz == 0  # the other half is b_k^dag a_c


def compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head, *rest)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), N=st.integers(0, 8))
@example(n=2, N=40)
@example(n=8, N=5)
def test_layer_order_ranks_rows_and_hop_targets(n, N):
    # the rows are every composition, sorted by (-N_a, descending lex); rank
    # inverts them; each hop term's target, which the table finds from its
    # source's index, is the rank of the moved row
    sector = enumerate_sector(n, N)
    layered = sorted(compositions(N, 2 * n), key=lambda state: (-sum(state[:n]), [-x for x in state]))
    assert sector.occ.tolist() == [list(state) for state in layered]
    assert np.array_equal(sector.rank(sector.occ), np.arange(sector.dim))
    src, dst, pair, _ = fock._hop_terms(sector.occ, N)
    j, k = np.divmod(pair, n)
    moved = sector.occ[src]
    moved[np.arange(src.size), j] += 1
    moved[np.arange(src.size), n + k] -= 1
    assert np.array_equal(dst, sector.rank(moved))


def test_enumerate_refuses_sectors_above_cap(monkeypatch):
    assert dimension(3, 200) > fock.SECTOR_DIM_CAP  # 2.9e9 states
    with pytest.raises(ValueError, match="SECTOR_DIM_CAP"):
        enumerate_sector(3, 200)
    monkeypatch.setattr(fock, "SECTOR_DIM_CAP", dimension(2, 3))
    assert enumerate_sector(2, 3).dim == 20
    with pytest.raises(ValueError, match="SECTOR_DIM_CAP"):
        enumerate_sector(2, 4)
    with pytest.raises(ValueError, match="SECTOR_DIM_CAP"):
        truncated_ladder(3, 4)  # C(7, 3) = 35 states
    assert truncated_ladder(3, 3).dim == 20


@pytest.mark.parametrize(
    "build",
    [
        lambda: enumerate_sector(3, 2),
        lambda: truncated_ladder(5, 2),  # a slack mode and five: the same 21 rows of 6 columns
        lambda: bethe_vector([0.3, -0.7], default_integrable_params(3)),
    ],
    ids=["enumerate_sector", "truncated_ladder", "bethe_vector"],
)
def test_every_basis_counts_its_row_width(build, monkeypatch):
    # the bound the CLI applies, reached from the library: SECTOR_ROW_ARRAYS
    # int64 arrays of the 21 rows x 6 columns of n = 3, N = 2
    need = fock.SECTOR_ROW_ARRAYS * 8 * 6 * 21
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need - 1)
    refusal = (
        f"^{fock.SECTOR_ROW_ARRAYS} int64 arrays of 21 rows x 6 columns need {need} bytes "
        f"> DENSE_BYTES_CAP = {need - 1} bytes$"
    )
    with pytest.raises(ValueError, match=refusal):
        build()
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need)
    built = build()  # a basis, or the Bethe vector over one
    assert len(getattr(built, "occ", built)) == 21


def test_enumerate_sector_20_states():
    assert enumerate_sector(2, 3).dim == 20


def test_total_number_is_scalar():
    sector = enumerate_sector(2, 3)
    n_tot = sp.diags(sector.occ.sum(1).astype(float)).toarray()
    assert np.array_equal(n_tot, 3.0 * np.eye(sector.dim))


def test_hopping_single_quantum_transfer():
    sector = enumerate_sector(2, 1)
    hop = hop_operator(sector, 0.0, [[1.0, 0.0], [0.0, 0.0]]).toarray()
    src = sector.rank((1, 0, 0, 0))
    dst = sector.rank((0, 0, 1, 0))
    assert hop[dst, src] == 1.0


def test_hopping_ladder_amplitude():
    sector = enumerate_sector(1, 3)
    hop = hop_operator(sector, 0.0, [[1.0]]).toarray()
    src = sector.rank((1, 2))
    dst = sector.rank((0, 3))
    assert hop[dst, src] == pytest.approx(math.sqrt(3.0), abs=0.0)


def test_hopping_commutes_with_total_number():
    sector = enumerate_sector(2, 2)
    hop = hop_operator(sector, 0.0, [[0.0, 0.0], [1.0, 0.0]])
    n_tot = sp.diags(sector.occ.sum(1).astype(float), format="csr")
    comm = hop @ n_tot - n_tot @ hop
    assert comm.nnz == 0


def test_one_hop_table_per_sector_and_no_rank_call(monkeypatch):
    # the table ranks every target from its source row in one pass; builds
    # after the first only fill it
    calls = []
    table, rank = fock._hop_table, fock._rank
    monkeypatch.setattr(fock, "_hop_table", lambda *a: calls.append("table") or table(*a))
    monkeypatch.setattr(fock, "_rank", lambda *a: calls.append("rank") or rank(*a))
    n = 30
    sector = enumerate_sector(n, 2)
    coeffs = np.random.default_rng(3).standard_normal((n, n))
    first = hop_operator(sector, 0.0, coeffs)
    diag = np.arange(sector.dim, dtype=float)
    second = hop_operator(sector, diag, 2.0 * coeffs)
    assert calls == ["table"]
    # a_j^dag b_k and its adjoint for every j and every occupied b_k of a row
    assert first.nnz == 2 * n * np.count_nonzero(sector.occ[:, n:])
    assert second.nnz == first.nnz + sector.dim - 1  # the diagonal's one zero is dropped
    assert np.array_equal(second.diagonal(), diag)
    assert np.array_equal((second - sp.diags(diag)).data, 2.0 * first.data)


def test_truncated_ladder_single_mode_matrix():
    ladders = truncated_ladder(1, 2)
    expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
    assert np.allclose(ladders.ann[0].toarray(), expected, atol=0.0)
    assert np.allclose(ladders.ann[0].T.toarray(), expected.T, atol=0.0)


def test_truncated_ladder_space_size():
    assert truncated_ladder(2, 3).dim == sum(k + 1 for k in range(4))


@pytest.mark.parametrize("n_modes,cutoff", [(1, 2), (2, 3), (3, 4)])
def test_canonical_commutation_below_cutoff(n_modes, cutoff):
    ladders = truncated_ladder(n_modes, cutoff)
    sub = ladders.totals <= cutoff - 1
    for i in range(n_modes):
        for j in range(n_modes):
            a_i, a_j_dag = ladders.ann[i], ladders.ann[j].T
            comm = (a_i @ a_j_dag - a_j_dag @ a_i).toarray()
            expected = np.eye(ladders.dim) if i == j else np.zeros((ladders.dim,) * 2)
            # sqrt(n)*sqrt(n) rounds at the last bit, hence the tiny atol
            assert np.allclose(comm[np.ix_(sub, sub)], expected[np.ix_(sub, sub)], atol=1e-14)


def test_rank_refuses_occupations_outside_the_sector():
    sector = enumerate_sector(2, 1)
    for occ in [(1.7, 0, 0, 0), (1.0, 0, 0, 0), (True, False, False, False), (2, -1, 0, 0), (1, 1, 0, 0)]:
        with pytest.raises(ValueError):
            sector.rank(occ)
    # integers of any width, and the sector's own rows, are ranked
    assert sector.rank(np.array([0, 0, 1, 0], dtype=np.uint8)) == 2
    assert np.array_equal(sector.rank(sector.occ), np.arange(sector.dim))


def _csr_bytes(m):
    return m.dtype, m.shape, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()


def test_hop_operator_stack_is_the_block_diagonal_of_single_fills():
    # block 1 has zero diagonal entries and, with coeffs[0, 1] = 0, zero hop
    # terms: a stacked fill drops them as its own fill does
    rng = np.random.default_rng(12)
    sector = enumerate_sector(2, 3)
    coeffs = rng.standard_normal((2, 2))
    coeffs[0, 1] = 0.0
    diag = rng.standard_normal((3, sector.dim))
    diag[1, ::2] = 0.0
    stack = hop_operator(sector, diag, coeffs)
    each = [hop_operator(sector, row, coeffs) for row in diag]
    assert stack.shape == (3 * sector.dim,) * 2
    assert each[1].nnz < each[0].nnz
    assert _csr_bytes(stack) == _csr_bytes(sp.block_diag(each, format="csr"))
    # the 1-D call is the one-block stack
    assert _csr_bytes(hop_operator(sector, diag[:1], coeffs)) == _csr_bytes(each[0])


def filled_gap(sector, first, second):
    """The max-abs entry of the difference of the two assembled fills."""
    return abs(hop_operator(sector, *first) - hop_operator(sector, *second)).max()


@pytest.mark.parametrize("n, N", [(1, 0), (1, 1), (1, 4), (2, 0), (2, 1), (2, 3), (2, 4), (3, 2), (3, 5)])
def test_hop_gap_is_the_max_entry_of_the_filled_difference(n, N):
    # equal coefficients: bitwise the assembled difference, its off-diagonal
    # entries all zero; other coefficients: the same to a few ulps of the terms
    rng = np.random.default_rng(100 * n + N)
    sector = enumerate_sector(n, N)
    coeffs, diag, other = rng.standard_normal((n, n)), *rng.standard_normal((2, sector.dim))
    w_N = max((occ[n + k] * (occ[j] + 1) for occ in sector.occ for j in range(n) for k in range(n)), default=0)
    assert w_N == ((N + 1) // 2) * ((N + 2) // 2)
    assert hop_gap(sector, (diag, coeffs), (diag, coeffs)) == 0.0
    assert hop_gap(sector, (diag, coeffs), (other, coeffs)) == filled_gap(sector, (diag, coeffs), (other, coeffs))
    assert hop_gap(sector, (diag, coeffs), (2.5, coeffs)) == filled_gap(sector, (diag, coeffs), (2.5, coeffs))
    for changed in (coeffs + 1e-9 * rng.standard_normal((n, n)), 2.0 * coeffs, np.zeros((n, n))):
        ulps = 4 * np.spacing(np.max(np.abs(np.concatenate([coeffs, changed]))) * math.sqrt(max(w_N, 1)))
        got = hop_gap(sector, (diag, coeffs), (diag, changed))
        assert got == pytest.approx(filled_gap(sector, (diag, coeffs), (diag, changed)), rel=0.0, abs=ulps)
        assert (got > 0.0) == (N > 0)  # N = 0 has no hop term to differ in


def test_hop_gap_reads_stacks_and_refuses_bad_coeffs():
    # a (P, d) diag, and (P, n, n) coefficients, are blocks; the gap is the max over all
    rng = np.random.default_rng(13)
    sector = enumerate_sector(2, 3)
    coeffs, diag = rng.standard_normal((2, 2)), rng.standard_normal((3, sector.dim))
    other = diag.copy()
    other[2, 5] += 1e-3
    assert hop_gap(sector, (diag, coeffs), (other, coeffs)) == filled_gap(sector, (diag, coeffs), (other, coeffs))
    assert hop_gap(sector, (diag, coeffs), (other, coeffs)) == abs(diag[2, 5] - other[2, 5])
    blocks = np.stack([coeffs, coeffs, 3.0 * coeffs])
    want = max(filled_gap(sector, (row, block), (row, coeffs)) for row, block in zip(diag, blocks))
    assert hop_gap(sector, (diag, blocks), (diag, coeffs)) == pytest.approx(want, rel=0.0, abs=8 * np.spacing(want))
    with pytest.raises(ValueError, match="coeffs must end in shape"):
        hop_gap(sector, (diag, coeffs[:1]), (diag, coeffs))


def test_public_builders_refuse_bad_shapes_and_sizes():
    sector = enumerate_sector(2, 2)
    with pytest.raises(ValueError, match=r"^coeffs must have shape \(2, 2\), got \(3, 3\)$"):
        hop_operator(sector, 0.0, np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"^diag must have at most 2 axes, got shape \(1, 1, 10\)$"):
        hop_operator(sector, np.zeros((1, 1, sector.dim)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^n_modes must be >= 1, got 0$"):
        truncated_ladder(0, 3)
    with pytest.raises(ValueError, match=r"^cutoff must be >= 1, got 0$"):
        truncated_ladder(2, 0)
