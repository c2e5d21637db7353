import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twowell import fock
from twowell.fock import (
    Mode,
    a_mode,
    b_mode,
    dimension,
    enumerate_sector,
    hopping_operator,
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

    modes = [Mode("a", j + 1) for j in range(n)] + [Mode("b", j + 1) for j in range(n)]
    eye = np.eye(2 * n, dtype=np.int64)
    for c, create in enumerate(modes):
        for a, annihilate in enumerate(modes):
            if c == a:
                continue
            hop = hopping_operator(sector, create, annihilate).tocoo()
            # checked against the rows themselves, without rank
            assert np.array_equal(occ[hop.row], occ[hop.col] + eye[c] - eye[a])
            n_c, n_a = occ[hop.col, c], occ[hop.col, a]
            assert np.array_equal(hop.data, np.sqrt((n_c + 1.0) * n_a))
            assert hop.nnz == np.count_nonzero(occ[:, a])


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
    n_a1 = number_operator(sector, a_mode(1)).toarray()
    state = np.zeros(4)
    state[sector.rank((1, 0, 0, 0))] = 1.0
    assert n_a1 @ state @ state == 1.0


def test_number_operator_vacuum_sector():
    sector = enumerate_sector(2, 0)
    assert number_operator(sector, b_mode(2)).nnz == 0


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
        number_operator(sector, a_mode(3))


def test_total_number_is_scalar():
    sector = enumerate_sector(2, 3)
    n_tot = total_number_operator(sector).toarray()
    assert np.array_equal(n_tot, 3.0 * np.eye(sector.dim))


def test_hopping_single_quantum_transfer():
    sector = enumerate_sector(2, 1)
    hop = hopping_operator(sector, b_mode(1), a_mode(1)).toarray()
    src = sector.rank((1, 0, 0, 0))
    dst = sector.rank((0, 0, 1, 0))
    assert hop[dst, src] == 1.0


def test_hopping_ladder_amplitude():
    sector = enumerate_sector(1, 3)
    hop = hopping_operator(sector, b_mode(1), a_mode(1)).toarray()
    src = sector.rank((1, 2))
    dst = sector.rank((0, 3))
    assert hop[dst, src] == pytest.approx(math.sqrt(3.0), abs=0.0)


def test_hopping_transpose_swaps_roles():
    sector = enumerate_sector(2, 3)
    fwd = hopping_operator(sector, a_mode(1), b_mode(2))
    bwd = hopping_operator(sector, b_mode(2), a_mode(1))
    assert (fwd.T - bwd).nnz == 0


def test_hopping_commutes_with_total_number():
    sector = enumerate_sector(2, 2)
    hop = hopping_operator(sector, a_mode(2), b_mode(1))
    n_tot = total_number_operator(sector)
    comm = hop @ n_tot - n_tot @ hop
    assert comm.nnz == 0


def test_hopping_rejects_equal_modes():
    sector = enumerate_sector(2, 1)
    with pytest.raises(ValueError):
        hopping_operator(sector, a_mode(1), a_mode(1))


def test_truncated_ladder_single_mode_matrix():
    ladders = truncated_ladder(1, 2)
    expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
    assert np.allclose(ladders.ann[0].toarray(), expected, atol=0.0)
    assert np.allclose(ladders.cre[0].toarray(), expected.T, atol=0.0)


def test_truncated_ladder_space_size():
    assert truncated_ladder(2, 3).dim == sum(k + 1 for k in range(4))


@pytest.mark.parametrize("n_modes,cutoff", [(1, 2), (2, 3), (3, 4)])
def test_canonical_commutation_below_cutoff(n_modes, cutoff):
    ladders = truncated_ladder(n_modes, cutoff)
    sub = ladders.totals <= cutoff - 1
    for i in range(n_modes):
        for j in range(n_modes):
            comm = (ladders.ann[i] @ ladders.cre[j] - ladders.cre[j] @ ladders.ann[i]).toarray()
            expected = np.eye(ladders.dim) if i == j else np.zeros((ladders.dim,) * 2)
            # sqrt(n)*sqrt(n) rounds at the last bit, hence the tiny atol
            assert np.allclose(comm[np.ix_(sub, sub)], expected[np.ix_(sub, sub)], atol=1e-14)


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode("c", 1)
    with pytest.raises(ValueError):
        Mode("a", 0)
