import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from twowell import fock
from twowell.fock import (
    Mode,
    dimension,
    enumerate_sector,
    hop_operator,
    number_operator,
    total_number_operator,
    truncated_ladder,
)


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
            # strictly descending lexicographic order, rank is the inverse map
            assert states == sorted(states, reverse=True)
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
    # consecutive rows are distinct and strictly descending-lex: the first
    # column where they differ is larger in the earlier row
    step = occ[:-1] - occ[1:]
    first = np.argmax(step != 0, axis=1)
    assert np.all(step[np.arange(len(step)), first] > 0)
    assert np.array_equal(sector.rank(occ), np.arange(sector.dim))

    eye = np.eye(2 * n, dtype=np.int64)
    for c, k in itertools.product(range(n), repeat=2):
        a = n + k  # column of b_k
        tunnel = hop_operator(sector, 0.0, np.outer(np.eye(n)[c], np.eye(n)[k]))
        # a_c^dag b_k raises column c, the first column where target and source
        # differ, so in descending-lex order its half lies above the diagonal
        hop = sp.triu(tunnel, k=1).tocoo()
        # checked against the rows themselves, without rank
        assert np.array_equal(occ[hop.row], occ[hop.col] + eye[c] - eye[a])
        n_c, n_a = occ[hop.col, c], occ[hop.col, a]
        assert np.array_equal(hop.data, np.sqrt((n_c + 1.0) * n_a))
        assert hop.nnz == np.count_nonzero(occ[:, a])
        assert (tunnel - hop - hop.T).nnz == 0  # the other half is b_k^dag a_c


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


def test_enumerate_sector_20_states():
    assert enumerate_sector(2, 3).dim == 20


def test_number_operator_unit_state():
    sector = enumerate_sector(2, 1)
    n_a1 = number_operator(sector, Mode("a", 1)).toarray()
    state = np.zeros(4)
    state[sector.rank((1, 0, 0, 0))] = 1.0
    assert n_a1 @ state @ state == 1.0


def test_number_operator_vacuum_sector():
    sector = enumerate_sector(2, 0)
    assert number_operator(sector, Mode("b", 2)).nnz == 0


def test_number_operator_trace_sums_to_total():
    sector = enumerate_sector(2, 2)
    trace = sum(
        number_operator(sector, Mode(w, l)).diagonal().sum()
        for w in "ab"
        for l in (1, 2)
    )
    assert trace == 2 * 10


def test_number_operator_invalid_mode():
    sector = enumerate_sector(2, 1)
    with pytest.raises(ValueError):
        number_operator(sector, Mode("a", 3))


def test_total_number_is_scalar():
    sector = enumerate_sector(2, 3)
    n_tot = total_number_operator(sector).toarray()
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
    n_tot = total_number_operator(sector)
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


def test_mode_validation():
    for well, level in [("c", 1), ("a", 0), ("a", 1.5), ("a", 2.0), ("a", True), ("b", "1")]:
        with pytest.raises(ValueError):
            Mode(well, level)
    # Python and NumPy integers name the same mode
    assert Mode("a", np.int64(2)) == Mode("a", 2)
    assert str(Mode("b", np.int32(1))) == "b1"


def test_rank_refuses_occupations_outside_the_sector():
    sector = enumerate_sector(2, 1)
    for occ in [(1.7, 0, 0, 0), (1.0, 0, 0, 0), (True, False, False, False), (2, -1, 0, 0), (1, 1, 0, 0)]:
        with pytest.raises(ValueError):
            sector.rank(occ)
    # integers of any width, and the sector's own rows, are ranked
    assert sector.rank(np.array([0, 0, 1, 0], dtype=np.uint8)) == 2
    assert np.array_equal(sector.rank(sector.occ), np.arange(sector.dim))
