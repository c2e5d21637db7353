import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from twowell.fock import enumerate_sector, hop_operator, truncated_ladder
from twowell.model import build_hamiltonian, spectrum
from twowell import fock, model, yangbaxter
from twowell.yangbaxter import (
    IntegrableParams,
    conserved_charges,
    default_integrable_params,
    identify_parameters,
    lax_operator,
    r_matrix,
    rll_residual,
    transfer_commutator_residual,
    transfer_hamiltonian_terms,
    transfer_matrix,
    validate_model,
    ybe_residual,
)

SQRT5 = np.sqrt(5.0)


def transfer_hamiltonian(ip, sector):
    """The Hamiltonian from the transfer matrix: one fill of its terms."""
    return hop_operator(sector, *transfer_hamiltonian_terms(ip, sector))


def random_ip(rng, n, eta=1.0):
    while True:
        s = rng.standard_normal(n)
        t = rng.standard_normal(n)
        if abs(np.dot(s, t)) > 0.2:
            return IntegrableParams(n, eta, rng.standard_normal(n), s, t, alpha=rng.standard_normal())


# ---------------------------------------------------------------------------
# R-matrix and Yang-Baxter
# ---------------------------------------------------------------------------

def test_r_matrix_row_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        eta = rng.uniform(0.2, 2.0)
        R = r_matrix(u, eta)
        b, c = R[1, 1], R[1, 2]
        assert abs(b + c - 1.0) < 1e-14


def test_r_matrix_permutation_at_zero():
    R = r_matrix(0.0, 1.3)
    P = np.zeros((4, 4))
    P[0, 0] = P[3, 3] = P[1, 2] = P[2, 1] = 1.0
    assert np.allclose(R, P, atol=0.0)


def test_r_matrix_large_u_limit():
    R = r_matrix(1e8, 1.0)
    assert np.max(np.abs(R - np.eye(4))) <= 1e-7


def test_r_matrix_pole():
    with pytest.raises(ValueError):
        r_matrix(-1.5, 1.5)


def test_ybe_reference_point():
    assert ybe_residual(0.7, -0.3, 1.1) <= 1e-13


def test_ybe_at_equal_arguments():
    assert ybe_residual(0.8 + 0.2j, 0.8 + 0.2j, 0.9) <= 1e-14


def test_ybe_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(100):
        eta = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        u = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        v = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        if min(abs(u + eta), abs(v + eta), abs(u - v + eta)) < 0.05:
            continue
        assert ybe_residual(u, v, eta) <= 1e-12


def random_pairs(rng, count, scale=3.0):
    return [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(count)]


def test_r_matrix_broadcasts():
    u = np.array([[0.3], [1.2 - 0.5j]])
    eta = np.array([0.7, -1.1, 2.0])
    R = r_matrix(u, eta)
    assert R.shape == (2, 3, 4, 4)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(R[i, j], r_matrix(u[i, 0], eta[j]))
    assert r_matrix(0.3, 0.7).shape == (4, 4)


def test_ybe_arrays_equal_scalar_calls():
    rng = np.random.default_rng(5)
    eta = rng.choice([-1.0, 1.0], 60) * rng.uniform(0.1, 3.0, 60)
    u, v = (np.array(random_pairs(rng, 60, 3.5)) for _ in "uv")
    u[:3] = [0.7, 0.0, v[2]]  # real, zero and u = v elements among complex ones
    away = np.minimum.reduce([abs(u + eta), abs(v + eta), abs(u - v + eta)]) > 0.05
    u, v, eta = u[away], v[away], eta[away]
    stacked = ybe_residual(u, v, eta)
    each = [ybe_residual(*args) for args in zip(u, v, eta)]
    assert stacked.shape == u.shape
    assert np.array_equal(stacked, each)
    assert max(each) <= 1e-12


def test_ybe_broadcast_shapes_and_scalars():
    u = np.array([0.7, -0.2 + 1.1j, 2.3j])[:, None]
    v = np.array([-0.3, 1.4, 0.5 - 0.5j, -2.0j])
    residual = ybe_residual(u, v, 1.1)
    assert residual.shape == (3, 4)
    assert np.max(residual) <= 1e-13
    assert residual[1, 2] == pytest.approx(ybe_residual(u[1, 0], v[2], 1.1), abs=1e-15)
    assert type(ybe_residual(0.7, -0.3, 1.1)) is float
    assert ybe_residual(np.array([0.7]), -0.3, 1.1).shape == (1,)


def test_r_matrix_pole_anywhere_in_an_array():
    u = np.array([0.3, 1.2, -1.5, 0.4j])
    with pytest.raises(ValueError, match=r"pole: u = -eta \(u=\(-1\.5\+0j\), eta=1\.5\)"):
        r_matrix(u, 1.5)
    with pytest.raises(ValueError, match="pole"):  # at v = -eta in its third element
        ybe_residual(0.2, u, 1.5)
    with pytest.raises(ValueError, match="pole"):  # at u - v = -eta in its first
        ybe_residual(np.array([-1.2, 0.5]), 0.3, 1.5)


# ---------------------------------------------------------------------------
# Lax operator and RLL
# ---------------------------------------------------------------------------

def test_lax_vacuum_action():
    ip = default_integrable_params(2)
    ladders = truncated_ladder(2, 3)
    u = 0.37
    L = lax_operator(u, ip, ladders)
    row = {tuple(state): i for i, state in enumerate(ladders.occ.tolist())}
    vac = np.zeros(ladders.dim)
    vac[row[(0, 0)]] = 1.0
    assert np.allclose(L[0, 0] @ vac, u * vac, atol=0.0)
    assert np.allclose(L[0, 1] @ vac, 0.0, atol=0.0)
    c_vac = L[1, 0] @ vac
    for j, occ in ((0, (1, 0)), (1, (0, 1))):
        assert c_vac[row[occ]] == pytest.approx(ip.s[j], abs=0.0)
    assert np.allclose(L[1, 1] @ vac, (ip.zeta / ip.eta) * vac, atol=0.0)


def test_lax_block_commutators_below_cutoff():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        ip = random_ip(rng, n)
        ladders = truncated_ladder(n, 4)
        sub = np.ix_(ladders.totals <= 3, ladders.totals <= 3)
        Lu = lax_operator(0.6 - 0.2j, ip, ladders)
        Lv = lax_operator(-0.9 + 0.4j, ip, ladders)
        A, B, C, D = Lu[0, 0], Lv[0, 1], Lv[1, 0], Lu[1, 1]

        def comm(x, y):
            return x @ y - y @ x

        assert np.max(np.abs((comm(A, B) + ip.eta * B)[sub])) <= 1e-12
        assert np.max(np.abs((comm(A, C) - ip.eta * C)[sub])) <= 1e-12
        bc = comm(Lu[0, 1], Lv[1, 0]) - ip.zeta * np.eye(ladders.dim)
        assert np.max(np.abs(bc[sub])) <= 1e-12
        for X in (A, Lu[0, 1], Lu[1, 0]):
            assert np.max(np.abs(comm(X, D)[sub])) == 0.0


def test_rll_random_couplings():
    rng = np.random.default_rng(7)
    ip = random_ip(rng, 2)
    assert rll_residual(0.9, -0.4, ip) <= 1e-12


def test_rll_detects_broken_constraint():
    ip = default_integrable_params(2)
    assert rll_residual(0.9, -0.4, ip, zeta_shift=0.1) >= 1e-3


def test_rll_single_mode_reduction():
    ip = IntegrableParams(1, 1.0, np.ones(1), np.ones(1), np.ones(1), alpha=1.0)
    assert rll_residual(0.9, -0.4, ip) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rll_property_sweep(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        ip = random_ip(rng, n)
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(u - v + ip.eta) < 0.05:
            continue
        assert rll_residual(u, v, ip) <= 1e-12


def full_space_rll(u, v, ip, zeta_shift):
    """The RLL residual from whole-space Lax products, read on the kept states."""
    ladders = truncated_ladder(ip.n_levels, yangbaxter.RLL_CUTOFF)
    Lu, Lv = lax_operator(u, ip, ladders), lax_operator(v, ip, ladders)
    for L in (Lu, Lv):
        L[1, 1] += (zeta_shift / ip.eta) * np.eye(ladders.dim)
    b, c = r_matrix(u - v, ip.eta)[1, 1:3]
    X = Lu[:, None, :, None] @ Lv[None, :, None, :]
    Y = Lv[None, :, None, :] @ Lu[:, None, :, None]
    diff = b * (X - Y) + c * (X.swapaxes(0, 1) - Y.swapaxes(2, 3))
    keep = ladders.totals <= yangbaxter.RLL_CUTOFF - 2
    return np.max(np.abs(diff[..., keep, :][..., keep]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rll_reads_the_full_space_elements(n):
    # the detuned D-block makes the residual O(0.1), so a wrong block shows
    rng = np.random.default_rng(200 + n)
    for zeta_shift in (0.0, 0.1, -0.37):
        ip = random_ip(rng, n)
        u, v = complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))
        reference = full_space_rll(u, v, ip, zeta_shift)
        assert rll_residual(u, v, ip, zeta_shift) == pytest.approx(reference, abs=1e-13, rel=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rll_lax_operators_are_the_leading_corner(n):
    # a Lax factor takes a kept state (total <= RLL_CUTOFF - 2) no higher than
    # RLL_CUTOFF - 1, so building on that ladder loses no element rll reads
    ip = random_ip(np.random.default_rng(300 + n), n)
    small = truncated_ladder(n, yangbaxter.RLL_CUTOFF - 1)
    big = truncated_ladder(n, yangbaxter.RLL_CUTOFF)
    m = small.dim
    assert yangbaxter._rll_ladder(n).cutoff == small.cutoff
    assert np.array_equal(small.occ, big.occ[:m])
    for u in (0.9, -0.4 + 1.3j):
        L = lax_operator(u, ip, small)
        assert np.array_equal(L, lax_operator(u, ip, big)[..., :m, :m])


@pytest.mark.parametrize("n", range(1, 7))
def test_rll_stays_inside_its_precheck(n, monkeypatch):
    # check_rll_fits counts two (2, 2, m, m) complex Lax operators, m = C(n +
    # RLL_CUTOFF - 1, n); a call takes them, a few k x k complex products of
    # the k kept states and a fixed slack.  Whole-space Lax operators, or
    # corners copied out of them, would take 2.6 to 4.1 times the count at n = 3..6
    ip = default_integrable_params(n)
    rll_residual(0.9, -0.4, ip)  # the ladder of n levels is built once, then reused
    operators = 2 * 4 * math.comb(n + yangbaxter.RLL_CUTOFF - 1, n) ** 2 * 16
    k = math.comb(n + yangbaxter.RLL_CUTOFF - 2, n)
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", operators - 1)
    with pytest.raises(ValueError, match=f"Lax operators need {operators} bytes"):
        yangbaxter.check_rll_fits(n)
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", operators)
    yangbaxter.check_rll_fits(n)
    tracemalloc.start()
    try:
        residual = rll_residual(0.9, -0.4, ip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < operators + 8 * k * k * 16 + 16 * 1024


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rll_residual_sizes_its_own_lax_operators(n, monkeypatch):
    # a library call is refused as the verify verb is, before either Lax
    # operator is built; at the cap equal to the count it runs
    ip = default_integrable_params(n)
    operators = 2 * 4 * math.comb(n + yangbaxter.RLL_CUTOFF - 1, n) ** 2 * 16
    built = []
    monkeypatch.setattr(yangbaxter, "lax_operator", lambda *a: built.append(1) or lax_operator(*a))
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", operators - 1)
    with pytest.raises(ValueError, match="DENSE_BYTES_CAP"):
        rll_residual(0.9, -0.4, ip)
    assert not built
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", operators)
    assert rll_residual(0.9, -0.4, ip) <= 1e-12
    assert len(built) == 2


def rll_draws(rng, n, count):
    """`count` (ip, u, v) draws with complex u, v, except a real pair and u = v."""
    ips = [random_ip(rng, n) for _ in range(count)]
    u = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
    v = rng.uniform(-2, 2, count) + 1j * rng.uniform(-2, 2, count)
    u[:2], v[:2] = [0.9, 0.4 - 0.3j], [-0.4, 0.4 - 0.3j]
    return ips, u, v


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("zeta_shift", [0.0, 0.1])
def test_rll_stack_equals_scalar_calls_bitwise(n, zeta_shift):
    ips, u, v = rll_draws(np.random.default_rng(400 + n), n, 12)
    stacked = rll_residual(u, v, ips, zeta_shift)
    each = np.array([rll_residual(x, y, ip, zeta_shift) for x, y, ip in zip(u, v, ips)])
    assert stacked.shape == (12,)
    assert stacked.tobytes() == each.tobytes()
    assert rll_residual(0.9, -0.4, ips[0], zeta_shift) == each[0]
    shared = rll_residual(u, v, ips[3], zeta_shift)  # one ip for every draw
    assert shared.tobytes() == np.array([rll_residual(x, y, ips[3], zeta_shift) for x, y in zip(u, v)]).tobytes()
    assert stacked[1] == 0.0  # u = v: b = 0 and L1(u), L2(v) are the same blocks
    # a real draw alone and stacked with a complex one: R(u - v) divides alike
    control = default_integrable_params(n)
    mixed = rll_residual(np.array([0.5, u[2]]), np.array([1.1, v[2]]), control, zeta_shift)
    assert mixed[0] == rll_residual(0.5, 1.1, control, zeta_shift)
    if zeta_shift == 0.0:
        assert np.max(stacked) <= 1e-12
    else:
        assert np.min(np.delete(stacked, 1)) >= 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_rll_mixed_shift_stack_equals_scalar_calls_bitwise(n):
    # shifted and unshifted draws share a stack (at n = 6, three stacks of
    # four), as verify runs each level's zeta-shift control as the last of
    # its draws: each residual is bitwise that of its own call
    ips, u, v = rll_draws(np.random.default_rng(420 + n), n, 12)
    control = default_integrable_params(n)
    ips[-1], u[-1], v[-1] = control, 0.9, -0.4
    shift = np.zeros(12)
    shift[[0, 4, 7]], shift[-1] = -0.37, 0.1
    stacked = rll_residual(u, v, ips, shift)
    each = np.array([rll_residual(x, y, ip, z) for x, y, ip, z in zip(u, v, ips, shift)])
    assert stacked.tobytes() == each.tobytes()
    assert stacked[-1] == rll_residual(0.9, -0.4, control, zeta_shift=0.1)  # the real scalar call
    assert np.max(stacked[shift == 0.0]) <= 1e-12
    assert np.min(stacked[shift != 0.0]) >= 1e-3
    # one draw, two shifts: the shift alone broadcasts
    pair = rll_residual(0.9, -0.4, control, [0.0, 0.1])
    assert pair.tobytes() == np.array([rll_residual(0.9, -0.4, control), stacked[-1]]).tobytes()


def test_lax_operator_stack_equals_scalar_calls_bitwise():
    ips, u, _ = rll_draws(np.random.default_rng(410), 2, 5)
    ladders = yangbaxter._rll_ladder(2)
    stack = lax_operator(u, ips, ladders)
    assert stack.shape == (5, 2, 2, ladders.dim, ladders.dim)
    for L, x, ip in zip(stack, u, ips):
        assert L.tobytes() == lax_operator(x, ip, ladders).tobytes()
    assert lax_operator(u, ips[0], ladders).tobytes() == np.stack(
        [lax_operator(x, ips[0], ladders) for x in u]).tobytes()


def test_rll_stacks_split_bitwise(monkeypatch):
    # a stack holds whole draws: at most RLL_STACK_BYTES of Lax operators, or
    # DENSE_BYTES_CAP if lower, one draw if its own pair is larger
    ips, u, v = rll_draws(np.random.default_rng(420), 2, 7)
    pair = 2 * 4 * math.comb(2 + yangbaxter.RLL_CUTOFF - 1, 2) ** 2 * 16
    whole = rll_residual(u, v, ips)
    for limit in (3 * pair, pair, 1):  # stacks of 3, 1 and 1 draws
        monkeypatch.setattr(yangbaxter, "RLL_STACK_BYTES", limit)
        assert rll_residual(u, v, ips).tobytes() == whole.tobytes()
    monkeypatch.setattr(yangbaxter, "RLL_STACK_BYTES", 100 * pair)
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 2 * pair)
    assert rll_residual(u, v, ips).tobytes() == whole.tobytes()


def test_rll_residual_shapes_and_refusals():
    ips, u, v = rll_draws(np.random.default_rng(430), 1, 6)
    assert type(rll_residual(0.9, -0.4, ips[0])) is float
    assert rll_residual(u.reshape(2, 3), v.reshape(2, 3), ips).shape == (2, 3)
    assert rll_residual(u, 0.3, ips[0]).shape == (6,)
    with pytest.raises(ValueError, match="6 of one n_levels, got 5"):
        rll_residual(u, v, ips[:5])
    with pytest.raises(ValueError, match=r"n_levels \[1, 2\]"):
        rll_residual(u[:2], v[:2], [ips[0], default_integrable_params(2)])


@pytest.mark.parametrize("n, draws", [(3, 20), (4, 26), (5, 10)])
def test_rll_stack_peak_within_its_bound(n, draws):
    # one stack of the draws' Lax operators (at most RLL_STACK_BYTES) and
    # each draw's few k x k complex temporaries, as in a call of one draw
    ips, u, v = rll_draws(np.random.default_rng(440 + n), n, draws)
    rll_residual(u[:1], v[:1], ips[:1])  # the ladder of n levels is built once, then reused
    stacked = draws * 2 * 4 * math.comb(n + yangbaxter.RLL_CUTOFF - 1, n) ** 2 * 16
    k = math.comb(n + yangbaxter.RLL_CUTOFF - 2, n)
    assert stacked <= yangbaxter.RLL_STACK_BYTES
    tracemalloc.start()
    try:
        residual = rll_residual(u, v, ips)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(residual) <= 1e-12
    assert peak < stacked + draws * 8 * k * k * 16 + 32 * 1024


# ---------------------------------------------------------------------------
# Transfer matrix, charges, Hamiltonian
# ---------------------------------------------------------------------------

def test_transfer_vacuum_value():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 0)
    t0 = transfer_matrix(0.0, ip, sector).toarray()
    # zeta = s . t carries one ulp of rounding from s = t = 1/sqrt(2)
    assert t0[0, 0] == pytest.approx(-3.0, abs=1e-14)


def symmetric_block(matrix, sector):
    vec_a = np.zeros(sector.dim)
    vec_b = np.zeros(sector.dim)
    vec_a[sector.rank([(1, 0, 0, 0), (0, 1, 0, 0)])] = 1 / np.sqrt(2)
    vec_b[sector.rank([(0, 0, 1, 0), (0, 0, 0, 1)])] = 1 / np.sqrt(2)
    basis = np.column_stack([vec_a, vec_b])
    return basis.T @ matrix @ basis


def test_transfer_symmetric_subspace_block():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 1)
    block = symmetric_block(transfer_matrix(0.0, ip, sector).toarray(), sector)
    assert np.allclose(block, [[-5.0, 1.0], [1.0, -1.0]], atol=1e-14)


def test_transfer_conserves_total_number():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 2)
    t = transfer_matrix(0.3 + 0.1j, ip, sector)
    n_tot = sp.diags(sector.occ.sum(1).astype(float), format="csr")
    assert (t @ n_tot - n_tot @ t).nnz == 0


def test_transfer_commutator_random_pairs():
    rng = np.random.default_rng(11)
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 3)
    for _ in range(20):
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert transfer_commutator_residual(u, v, ip, sector) <= 1e-10
    assert transfer_commutator_residual(0.4, 0.4, ip, sector) == 0.0


@pytest.mark.parametrize("n, N", [(1, 0), (1, 5), (2, 3), (3, 2)])
def test_transfer_commutator_arrays_equal_scalar_calls_bitwise(n, N):
    rng = np.random.default_rng(20 + 10 * n + N)
    ip = random_ip(rng, n)
    sector = enumerate_sector(n, N)
    u, v = (np.array(random_pairs(rng, 20)) for _ in "uv")
    u[:4] = [0.9, 0.4, -1.3, 0.0]  # real pairs, and u = v, among complex ones
    v[:4] = [-0.4, 0.4, 0.7j, 0.0]
    stacked = transfer_commutator_residual(u, v, ip, sector)
    each = np.array([transfer_commutator_residual(x, y, ip, sector) for x, y in zip(u, v)])
    assert stacked.shape == (20,)
    assert stacked.tobytes() == each.tobytes()
    assert stacked[1] == stacked[3] == 0.0
    assert np.max(stacked) <= 1e-10


def test_transfer_commutator_stacks_split_bitwise(monkeypatch):
    # a stack holds whole pairs: at most COMMUTATOR_STACK_ROWS rows, one pair
    # if one sector has more
    rng = np.random.default_rng(31)
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 2)  # 10 states
    u, v = (np.array(random_pairs(rng, 7)) for _ in "uv")
    whole = transfer_commutator_residual(u, v, ip, sector)
    for rows in (25, 10, 1):  # stacks of 2, 1 and 1 pairs
        monkeypatch.setattr(yangbaxter, "COMMUTATOR_STACK_ROWS", rows)
        assert transfer_commutator_residual(u, v, ip, sector).tobytes() == whole.tobytes()


def commutator_bytes(n, N):
    """COMMUTATOR_ROW_BYTES (1 + w)^2 bytes for each of max(d, COMMUTATOR_STACK_ROWS)
    rows, w the entries per row of t(u), counted from the sector's rows."""
    occ = enumerate_sector(n, N).occ
    d = len(occ)
    entries = d + 2 * n * np.count_nonzero(occ[:, n:])  # a_j^dag b_k and its adjoint
    return math.ceil(yangbaxter.COMMUTATOR_ROW_BYTES * max(d, yangbaxter.COMMUTATOR_STACK_ROWS) * (1 + entries / d) ** 2)


def test_transfer_commutators_are_sized_before_anything_is_built(monkeypatch):
    # a library call is refused with the count check_commutator_fits gives,
    # before the sector's hop table is built; at a cap equal to the count it runs
    ip = default_integrable_params(2)
    need = commutator_bytes(2, 3)  # 1024 rows of w = 5 entries
    assert need == 37 * 1024 * 36
    built = []
    table = fock._hop_table
    monkeypatch.setattr(fock, "_hop_table", lambda *a: built.append(1) or table(*a))
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need - 1)
    with pytest.raises(ValueError, match=f"^transfer commutators of 1024 rows, 5 entries each, need {need} bytes"):
        transfer_commutator_residual(0.3, 0.7j, ip, enumerate_sector(2, 3))
    assert not built
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need)
    assert transfer_commutator_residual(0.3, 0.7j, ip, enumerate_sector(2, 3)) <= 1e-10
    assert built


@pytest.mark.parametrize("n, N", [(1, 500), (2, 20), (3, 8)])
def test_transfer_commutator_peak_is_within_its_count(n, N):
    # 20 pairs, as verify draws them, on a new sector (its hop table built
    # inside the call): measured 95%, 90% and 85% of the count
    ip = default_integrable_params(n)
    u, v = np.random.default_rng(32).uniform(-3, 3, size=(20, 4)).view(complex).T
    transfer_commutator_residual(u[:2], v[:2], ip, enumerate_sector(n, 1))  # first-call set-up
    sector = enumerate_sector(n, N)
    tracemalloc.start()
    try:
        transfer_commutator_residual(u, v, ip, sector)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= commutator_bytes(n, N)


def test_transfer_matrix_stack_is_the_block_diagonal_of_single_fills():
    # at n = 1, N = 2 of the reference set the diagonal entry of (1, 1) is
    # (u + 1)^2, so the block of u = -1 drops it as its own fill does
    ip = default_integrable_params(1)
    sector = enumerate_sector(1, 2)
    for u in (np.array([0.9, -1.0, 2.5]), np.array([0.9, -1.0, 0.3 + 0.2j])):
        stack = transfer_matrix(u, ip, sector)
        each = [transfer_matrix(x, ip, sector) for x in u]
        assert each[1].nnz == each[0].nnz - 1
        whole = sp.block_diag(each, format="csr").astype(stack.dtype)
        assert np.array_equal(stack.indptr, whole.indptr)
        assert np.array_equal(stack.indices, whole.indices)
        assert np.array_equal(stack.data, whole.data)
    assert stack.dtype == complex and transfer_matrix(u.real, ip, sector).dtype == float


def test_transfer_commutator_broadcast_shapes_and_scalars():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 2)
    u = np.array([[0.9, 0.3j, -1.0], [2.0, 0.1 + 0.1j, 0.4]])
    residual = transfer_commutator_residual(u, -0.4 + 1.1j, ip, sector)
    assert residual.shape == (2, 3)
    assert residual[1, 2] == transfer_commutator_residual(0.4, -0.4 + 1.1j, ip, sector)
    assert type(transfer_commutator_residual(0.9, -0.4, ip, sector)) is float
    assert transfer_commutator_residual(np.array([0.9]), -0.4, ip, sector).shape == (1,)


def test_transfer_commutator_stays_sparse():
    # one dense t(u) at n=2, N=20 is 1771 x 1771 complex (50 MB)
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 20)
    dense_bytes = 16 * sector.dim**2
    tracemalloc.start()
    try:
        residual = transfer_commutator_residual(0.9 + 0.3j, -0.4 + 1.1j, ip, sector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-10
    assert peak < 0.1 * dense_bytes


def test_transfer_commutator_blind_to_hopping_perturbations():
    # The family is quadratic in u with coefficients I and eta*N, so
    # [t(u), t(v)] reduces to (u - v) eta [N, t(0)] and vanishes for any
    # number-conserving deformation; perturbing one hopping coefficient
    # cannot raise it.  The structural checks live in the RLL relation.
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 3)
    coeffs = np.zeros((2, 2))
    coeffs[0, 1] = 0.1 * ip.s[0] * ip.t[1]  # a_1 <-> b_2
    pert = hop_operator(sector, 0.0, coeffs).toarray()
    tu = transfer_matrix(0.9, ip, sector).toarray() + pert
    tv = transfer_matrix(-0.4, ip, sector).toarray() + pert
    residual = np.max(np.abs(tu @ tv - tv @ tu))
    assert residual <= 1e-12


def test_charges_reference_values():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 3)
    C0, C1, C2 = conserved_charges(ip, sector)
    assert np.array_equal(C1.toarray(), 3.0 * ip.eta * np.eye(sector.dim))
    assert np.array_equal(C2.toarray(), np.eye(sector.dim))
    comm = C0 @ C1 - C1 @ C0
    assert comm.nnz == 0


def test_charges_reconstruct_transfer_matrix():
    rng = np.random.default_rng(13)
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 2)
    C0, C1, C2 = conserved_charges(ip, sector)
    for u in rng.uniform(-2, 2, size=3):
        recon = (u * u) * C2 + u * C1 + C0
        gap = transfer_matrix(u, ip, sector) - recon
        assert (0.0 if gap.nnz == 0 else np.max(np.abs(gap.data))) <= 1e-12


def test_hamiltonian_from_transfer_symmetric_block():
    ip = default_integrable_params(2)
    sector = enumerate_sector(2, 1)
    H = transfer_hamiltonian(ip, sector).toarray()
    block = symmetric_block(H, sector)
    assert np.allclose(block, [[3.0, -1.0], [-1.0, -1.0]], atol=1e-14)
    vals = np.linalg.eigvalsh(block)
    assert np.allclose(vals, [1.0 - SQRT5, 1.0 + SQRT5], atol=1e-12)


def test_hamiltonian_from_transfer_vacuum():
    ip = default_integrable_params(2)
    H = transfer_hamiltonian(ip, enumerate_sector(2, 0)).toarray()
    assert abs(H[0, 0]) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonian_matches_identified_model(n):
    rng = np.random.default_rng(200 + n)
    for ip in (default_integrable_params(n), random_ip(rng, n), random_ip(rng, n, eta=0.7)):
        for N in range(5):
            sector = enumerate_sector(n, N)
            h_t = transfer_hamiltonian(ip, sector)
            h_m = build_hamiltonian(identify_parameters(ip), sector)
            gap = h_t - h_m
            assert (0.0 if gap.nnz == 0 else np.max(np.abs(gap.data))) <= 1e-12
    # both sides share fock.hop_operator; a detuned coupling must still show
    sector = enumerate_sector(n, 2)
    mp = identify_parameters(ip)
    omega = mp.Omega.copy()
    omega[0, -1] += 1e-6
    mp = dataclasses.replace(mp, Omega=omega)
    gap = transfer_hamiltonian(ip, sector) - build_hamiltonian(mp, sector)
    assert np.max(np.abs(gap.data)) > 1e-7


# Reference assembly: every operator built as it was before the sector kept a
# hop table, one COO block per nonzero (j, k) term and a sparse diagonal added
# to it.

def reference_tunneling(sector, coeffs):
    n, occ = sector.n_levels, sector.occ
    entries = []
    for j, k in zip(*np.nonzero(coeffs)):
        src = np.flatnonzero(occ[:, n + k])
        amp = np.sqrt(occ[src, n + k] * (occ[src, j] + 1))
        target = occ[src].copy()
        target[:, j] += 1
        target[:, n + k] -= 1
        dst = sector.rank(target)
        entries += [(dst, src, coeffs[j, k] * amp), (src, dst, coeffs[j, k] * amp)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries)) if entries else ([], [], [])
    return sp.coo_matrix((vals, (rows, cols)), shape=(sector.dim,) * 2).tocsr()


def reference_transfer(u, ip, sector):
    n, eta, zeta, W = ip.n_levels, ip.eta, ip.zeta, ip.omega_sum
    u = complex(u)
    if u.imag == 0.0:
        u = u.real
    na = sector.occ[:, :n].sum(axis=1).astype(float)
    nb = sector.occ[:, n:].sum(axis=1).astype(float)
    N = float(sector.n_atoms)
    diag = u * u + u * eta * N + (zeta**2 / eta**2 - W**2) + eta * W * (nb - na) + eta**2 * na * nb
    out = sp.diags(diag, shape=(sector.dim,) * 2)
    return sp.csr_matrix(out + reference_tunneling(sector, np.outer(ip.s, ip.t)))


def reference_hamiltonian_from_transfer(ip, sector):
    N = float(sector.n_atoms)
    scalar = ip.alpha * N * N + ip.zeta**2 / ip.eta**2 - ip.omega_sum**2
    identity = sp.identity(sector.dim, format="csr")
    return sp.csr_matrix(scalar * identity - reference_transfer(0.0, ip, sector))


def reference_hamiltonian(mp, sector):
    diag = sp.diags(model._diagonal_energy(mp, sector.occ), shape=(sector.dim,) * 2)
    return sp.csr_matrix(diag - reference_tunneling(sector, mp.Omega))


def assert_same_csr(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def dark_vacuum_ip(n):
    """zeta = eta W and s = t = e_1: t(0) vanishes on the vacuum, and every
    tunneling coefficient but one is zero."""
    e1 = np.eye(n)[0]
    return IntegrableParams(n, 1.0, e1, e1, e1, alpha=0.6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operators_equal_the_reference_assembly_bitwise(n):
    rng = np.random.default_rng(400 + n)
    ips = [default_integrable_params(n), random_ip(rng, n), dark_vacuum_ip(n)]
    omega = rng.standard_normal((n, n))
    omega[0, -1] = 0.0
    u_all = (0.0, 0.9, -1.7, complex(0.4, -1.1), 2j)
    for N in range(7):
        sector = enumerate_sector(n, N)
        for ip in ips:
            for u in u_all:
                assert_same_csr(transfer_matrix(u, ip, sector), reference_transfer(u, ip, sector))
            assert_same_csr(transfer_hamiltonian(ip, sector), reference_hamiltonian_from_transfer(ip, sector))
            mp = identify_parameters(ip)
            assert_same_csr(build_hamiltonian(mp, sector), reference_hamiltonian(mp, sector))
        mp = dataclasses.replace(identify_parameters(ips[1]), Omega=omega)
        assert_same_csr(build_hamiltonian(mp, sector), reference_hamiltonian(mp, sector))
    # the zero entries are dropped, not stored: t(0) on the dark vacuum is empty
    assert transfer_matrix(0.0, ips[2], enumerate_sector(n, 0)).nnz == 0
    assert build_hamiltonian(mp, enumerate_sector(n, 0)).nnz == 0


def test_returned_matrices_share_nothing_with_the_next_build():
    ip = default_integrable_params(2)
    mp = identify_parameters(ip)
    sector = enumerate_sector(2, 3)
    builds = [
        lambda: transfer_matrix(0.9, ip, sector),
        lambda: transfer_matrix(complex(0.4, -1.1), ip, sector),
        lambda: transfer_hamiltonian(ip, sector),
        lambda: build_hamiltonian(mp, sector),
        lambda: hop_operator(sector, 0.0, mp.Omega),
    ]
    for build in builds:
        first = build()
        want = first.copy()
        first.data[:] = 7.0
        first.indices[:] = 0
        first.indptr[:] = 0
        assert_same_csr(build(), want)


# ---------------------------------------------------------------------------
# Identification
# ---------------------------------------------------------------------------

def test_identify_forward_reference_values():
    mp = identify_parameters(default_integrable_params(2))
    assert np.allclose(mp.Omega, 0.5 * np.ones((2, 2)), atol=1e-15)
    assert np.allclose(mp.U_ab, np.ones((2, 2)), atol=0.0)
    assert np.allclose(mp.eps_a - mp.mu, [2.0, 2.0], atol=0.0)
    assert np.allclose(mp.eps_b + mp.mu, [-2.0, -2.0], atol=0.0)
    assert np.allclose(np.diag(mp.U_aa), [1.0, 1.0], atol=0.0)
    assert mp.U_aa[0, 1] == 2.0


def test_validate_reference_scan_set_not_integrable():
    from twowell.cli import scan_params

    report = validate_model(scan_params(mu2=1.0))
    assert not report.integrable
    names = [v[0] for v in report.violations]
    assert any("eps_a2 - mu_2" in name for name in names)


def test_validate_rank_one_factorization():
    mp = identify_parameters(default_integrable_params(2))
    mp = dataclasses.replace(mp, Omega=np.array([[1.0, 2.0], [2.0, 4.0]]))
    report = validate_model(mp)
    # Omega itself is fine; the single-particle sector still matches, so the
    # factorization must reproduce Omega and the equal-norm gauge.
    derived = report.derived
    assert report.integrable
    assert np.allclose(np.outer(derived.s, derived.t), mp.Omega, atol=1e-12)
    assert np.linalg.norm(derived.s) == pytest.approx(np.linalg.norm(derived.t), abs=1e-12)
    assert derived.s[0] > 0
    assert np.allclose(derived.s, [1.0, 2.0], atol=1e-12)
    assert np.allclose(derived.t, [1.0, 2.0], atol=1e-12)
    # negative-definite Omega: u_1 . v_1 < 0, so the gauge takes t = -s
    mp = dataclasses.replace(mp, Omega=-mp.Omega)
    derived = validate_model(mp).derived
    assert np.allclose(np.outer(derived.s, derived.t), mp.Omega, atol=1e-12)
    assert np.allclose(derived.s, [1.0, 2.0], atol=1e-12)
    assert np.allclose(derived.t, -derived.s, atol=0.0)


def test_validate_rejects_full_rank_omega():
    mp = identify_parameters(default_integrable_params(2))
    mp = dataclasses.replace(mp, Omega=np.array([[1.0, 0.0], [0.0, 1.0]]))
    report = validate_model(mp)
    assert not report.integrable
    assert any("rank-1" in v[0] for v in report.violations)


def test_validate_reports_negative_eta_squared():
    ip = default_integrable_params(2)
    mp = identify_parameters(ip)
    mp = dataclasses.replace(mp, U_ab=np.full((2, 2), 3.0))  # 2 alpha - U_ab = -1
    report = validate_model(mp)
    assert not report.integrable
    assert any("eta^2" in v[0] for v in report.violations)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identification_round_trip(n):
    rng = np.random.default_rng(300 + n)
    ip = random_ip(rng, n, eta=0.8)
    report = validate_model(identify_parameters(ip))
    assert report.integrable
    derived = report.derived
    assert derived.eta == pytest.approx(abs(ip.eta), abs=1e-10)
    assert derived.alpha == pytest.approx(ip.alpha, abs=1e-10)
    assert derived.eta * derived.omega_sum == pytest.approx(ip.eta * ip.omega_sum, abs=1e-10)
    # the gauge t = +-s, with the input's sigma_1 = |s||t|, and the same spectrum
    norms = np.linalg.norm(derived.s) * np.linalg.norm(derived.t)
    assert abs(derived.zeta) == pytest.approx(norms, abs=1e-12)
    sigma_1 = np.linalg.svd(np.outer(ip.s, ip.t), compute_uv=False)[0]
    assert norms == pytest.approx(sigma_1, abs=1e-10)
    if n == 1:  # s and t are parallel, so the gauge keeps Omega itself
        assert np.allclose(np.outer(derived.s, derived.t), np.outer(ip.s, ip.t), atol=1e-10)
    for N in range(4):
        sector = enumerate_sector(n, N)
        levels = [spectrum(build_hamiltonian(identify_parameters(p), sector)) for p in (ip, derived)]
        assert np.max(np.abs(levels[0] - levels[1])) <= 1e-12


def test_integrable_params_validation():
    with pytest.raises(ValueError):
        IntegrableParams(2, 0.0, np.ones(2), np.ones(2), np.ones(2), alpha=1.0)
    with pytest.raises(ValueError):
        IntegrableParams(2, 1.0, np.ones(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), alpha=1.0)
    with pytest.raises(ValueError):
        IntegrableParams(2, 1.0, np.ones(3), np.ones(2), np.ones(2), alpha=1.0)


def test_integrable_params_are_frozen_after_validation():
    # a field set after validation used to reach the Bethe solver unchecked:
    # eta = 0 ended in ZeroDivisionError, a nan entry in scipy's own error
    ip = default_integrable_params(2)
    zeta, W = ip.zeta, ip.omega_sum
    with pytest.raises(dataclasses.FrozenInstanceError):
        ip.eta = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ip.s = [1.0, np.nan]
    with pytest.raises(ValueError, match="read-only"):
        ip.s[1] = np.nan  # the arrays too, so the computed zeta and W stay right
    with pytest.raises(ValueError, match="eta must be nonzero"):
        dataclasses.replace(ip, eta=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        dataclasses.replace(ip, s=[1.0, np.nan])
    # a replaced set is validated and computes its own zeta and W
    other = dataclasses.replace(ip, t=2.0 * ip.s, omega=[1.0, 3.0])
    assert (other.zeta, other.omega_sum) == (2.0 * zeta, 4.0)
    assert (ip.zeta, ip.omega_sum, ip.eta) == (zeta, W, 1.0)
    # the caller's arrays are copied, not frozen in place
    s = np.array([0.6, 0.8])
    IntegrableParams(2, 1.0, np.ones(2), s, s, alpha=1.0)
    s[0] = 0.0


def _scaled(mp, c):
    """The couplings of `mp`, each multiplied by c."""
    names = ("U_aa", "U_bb", "U_ab", "mu", "eps_a", "eps_b", "Omega")
    return model.ModelParams(mp.n_levels, *(c * getattr(mp, name) for name in names))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identification_in_the_couplings_own_unit(n):
    # every coupling shares one energy unit, so an exact rescale keeps the
    # outcome: the n = 2 defaults times 2^20 were refused (Omega rank-1
    # residual 1.16e-10 against an absolute 1e-10)
    rng = np.random.default_rng(400 + n)
    for ip in (default_integrable_params(n), random_ip(rng, n, eta=0.8)):
        mp = identify_parameters(ip)
        for k in range(-40, 41):
            report = validate_model(_scaled(mp, 2.0**k))
            assert report.integrable and not report.violations, (k, report.violations)
            assert report.derived.alpha == 2.0**k * ip.alpha
            assert report.derived.eta == pytest.approx(2.0 ** (k / 2) * abs(ip.eta), rel=1e-12)


def test_validate_refuses_scaled_nonintegrable_couplings():
    # scan_params(0.37) times 1e-11 was accepted: each of its deviations is
    # below 1e-10 in absolute terms
    from twowell.cli import scan_params

    for c in (1e-11, 1.0, 1e11):
        report = validate_model(_scaled(scan_params(0.37), c))
        assert not report.integrable
        by_name = {v[0]: v for v in report.violations}
        # mu = (1, 0.37), eps_a = (-2, 2) and eps_b = (1, -1): eps_a2 - mu_2 is not eps_a1 - mu_1
        constraint, lhs, rhs, scale = by_name["eps_a2 - mu_2 equals eps_a1 - mu_1"]
        assert (lhs, rhs) == (c * 2.0 - c * 0.37, c * -2.0 - c * 1.0)
        assert scale == 2.0 * c
        assert all(len(v) == 4 and v[3] > 0.0 for v in report.violations)
