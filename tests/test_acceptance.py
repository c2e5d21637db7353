"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its residual and runtime.  Tolerances are fixed here,
not calibrated elsewhere."""

import time

import numpy as np
import pytest

from twowell.bethe import match_spectrum, solve_bae
from twowell.cli import main
from twowell.fock import dimension, enumerate_sector, hop_operator
from twowell.model import build_hamiltonian, spectrum
from twowell.yangbaxter import (
    IntegrableParams,
    conserved_charges,
    default_integrable_params,
    identify_parameters,
    rll_residual,
    transfer_commutator_residual,
    transfer_hamiltonian_terms,
    transfer_matrix,
    ybe_residual,
)

SQRT5 = np.sqrt(5.0)


class Criterion:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.limit_s else "FAIL"
        print(
            f"criterion {self.number} ({self.label}): {status} "
            f"[{detail}; {elapsed:.2f}s < {self.limit_s:g}s]"
        )
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.limit_s, f"criterion {self.number}: runtime {elapsed:.2f}s"


def random_unit_ip(rng, n):
    while True:
        s = rng.standard_normal(n)
        t = rng.standard_normal(n)
        if abs(np.dot(s, t)) > 0.2:
            return IntegrableParams(n, 1.0, np.ones(n), s, t, alpha=1.0)


def test_criterion_1_yang_baxter():
    crit = Criterion(1, "Yang-Baxter residuals", 1.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    draws = 0
    while draws < 100:
        eta = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        u = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        v = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        if min(abs(u + eta), abs(v + eta), abs(u - v + eta)) < 0.05:
            continue
        worst = max(worst, ybe_residual(u, v, eta))
        draws += 1
    crit.finish(worst <= 1e-12, f"max residual {worst:.3e} <= 1e-12 over 100 draws")


def test_criterion_2_rll_relation():
    crit = Criterion(2, "RLL relation for the multi-state Lax operator", 10.0)
    rng = np.random.default_rng(2025)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(20):
            ip = random_unit_ip(rng, n)
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(u - v + ip.eta) < 0.05:
                continue
            worst = max(worst, rll_residual(u, v, ip))
    control = min(
        rll_residual(0.9, -0.4, default_integrable_params(n), zeta_shift=0.1)
        for n in (1, 2, 3)
    )
    crit.finish(
        worst <= 1e-12 and control >= 1e-3,
        f"max residual {worst:.3e} <= 1e-12, negative control {control:.3e} >= 1e-3",
    )


def test_criterion_3_commuting_transfer_matrices():
    crit = Criterion(3, "commuting transfer matrices", 30.0)
    rng = np.random.default_rng(2026)
    ip = default_integrable_params(2)
    worst = 0.0
    for N in (1, 2, 3, 4):
        sector = enumerate_sector(2, N)
        for _ in range(20):
            u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            worst = max(worst, transfer_commutator_residual(u, v, ip, sector))
    crit.finish(worst <= 1e-10, f"max normalized residual {worst:.3e} <= 1e-10")


def test_criterion_4_hamiltonian_transfer_relation():
    crit = Criterion(4, "Hamiltonian-transfer relation", 30.0)
    rng = np.random.default_rng(2027)
    worst = 0.0
    for n in (1, 2, 3):
        for ip in (default_integrable_params(n), random_unit_ip(rng, n)):
            for N in range(5):
                sector = enumerate_sector(n, N)
                gap = hop_operator(sector, *transfer_hamiltonian_terms(ip, sector)) - build_hamiltonian(
                    identify_parameters(ip), sector
                )
                worst = max(worst, 0.0 if gap.nnz == 0 else float(np.max(np.abs(gap.data))))
    crit.finish(worst <= 1e-12, f"max entrywise difference {worst:.3e} <= 1e-12")


def test_criterion_5_closed_form_single_atom():
    crit = Criterion(5, "closed-form single-atom case", 5.0)
    ip = default_integrable_params(2)
    result = solve_bae(ip, 1)
    ok = len(result.solutions) == 2
    detail = [f"{len(result.solutions)} solutions"]
    if ok:
        by_sign = sorted(result.solutions, key=lambda s: s.roots[0].real)
        root_gap = max(
            abs(by_sign[0].roots[0] + SQRT5), abs(by_sign[1].roots[0] - SQRT5)
        )
        energy_gap = max(
            abs(by_sign[0].energy - (1.0 + SQRT5)), abs(by_sign[1].energy - (1.0 - SQRT5))
        )
        eig_res = max(max(s.h_residual, s.t_residual) for s in result.solutions)
        sector = enumerate_sector(2, 1)
        ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
        ed_gap = float(
            np.max(
                np.abs(
                    ed
                    - np.sort([1 - SQRT5, -1.0, 3.0, 1 + SQRT5])
                )
            )
        )
        ok = (
            root_gap <= 1e-12
            and energy_gap <= 1e-10
            and eig_res <= 1e-10
            and ed_gap <= 1e-10
        )
        detail = [
            f"roots +-sqrt5 to {root_gap:.1e}",
            f"energies 1-+sqrt5 to {energy_gap:.1e}",
            f"eigenvector residuals {eig_res:.1e}",
            f"ED spectrum gap {ed_gap:.1e}",
        ]
    crit.finish(ok, ", ".join(detail))


def test_criterion_6_bae_spectrum_equivalence():
    crit = Criterion(6, "rapidity-equation / diagonalization equivalence", 120.0)
    ip = default_integrable_params(2)
    ok = True
    details = []
    for N in (2, 3):
        result = solve_bae(ip, N)
        sector = enumerate_sector(2, N)
        ed = spectrum(build_hamiltonian(identify_parameters(ip), sector))
        report = match_spectrum(result.solutions, ed)
        ok &= len(result.solutions) == N + 1
        ok &= report.n_matched == N + 1 and -1 not in report.index
        delta = max(abs(sol.energy - ed[i]) for sol, i in zip(result.solutions, report.index))
        details.append(
            f"N={N}: {len(result.solutions)} of {N + 1} states, {report.n_matched} matched, "
            f"max delta {delta:.1e}"
        )
    crit.finish(ok, "; ".join(details))


def test_criterion_7_conserved_charges():
    crit = Criterion(7, "conserved charges", 30.0)
    rng = np.random.default_rng(2028)
    ip = default_integrable_params(2)
    worst_recon = 0.0
    worst_comm = 0.0
    exact = True
    for N in (1, 2, 3):
        sector = enumerate_sector(2, N)
        C0, C1, C2 = conserved_charges(ip, sector)
        eye = np.eye(sector.dim)
        exact &= np.array_equal(C1.toarray(), ip.eta * N * eye)
        exact &= np.array_equal(C2.toarray(), eye)
        for u in rng.uniform(-2, 2, size=3):
            gap = transfer_matrix(u, ip, sector) - ((u * u) * C2 + u * C1 + C0)
            worst_recon = max(
                worst_recon, 0.0 if gap.nnz == 0 else float(np.max(np.abs(gap.data)))
            )
        for A, B in ((C0, C1), (C0, C2), (C1, C2)):
            comm = A @ B - B @ A
            worst_comm = max(
                worst_comm, 0.0 if comm.nnz == 0 else float(np.max(np.abs(comm.data)))
            )
    crit.finish(
        worst_recon <= 1e-12 and worst_comm <= 1e-12 and exact,
        f"reconstruction {worst_recon:.3e}, commutators {worst_comm:.3e}, "
        f"C1 = eta N and C2 = I exact: {exact}",
    )


def test_criterion_8_dimension_formulas():
    crit = Criterion(8, "dimension formulas", 30.0)
    ok = True
    for n in range(1, 5):
        for N in range(7):
            ok &= dimension(n, N) == enumerate_sector(n, N).dim
    for N in range(7):
        ok &= dimension(2, N) == (N + 3) * (N + 2) * (N + 1) // 6
        ok &= dimension(1, N) == N + 1
    crit.finish(ok, "enumerated sizes equal closed forms for n <= 4, N <= 6")


def test_criterion_9_ground_state_scan(tmp_path):
    crit = Criterion(9, "ground-state scan curves", 10.0)
    out = tmp_path / "scan.csv"
    code = main(["fig2", "--grid", "0:5:0.05", "--atoms", "1,2,3,4", "--out", str(out)])
    ok = code == 0
    worst = -np.inf
    if ok:
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        curves = {}
        for N, x, e0 in rows:
            curves.setdefault(int(N), []).append((float(x), float(e0)))
        ok &= sorted(curves) == [1, 2, 3, 4]
        for N, points in curves.items():
            xs, es = zip(*sorted(points))
            ok &= len(xs) == 101
            second = np.diff(es, 2)
            worst = max(worst, float(np.max(second)))
            ok &= np.all(second <= 1e-9)
    crit.finish(ok, f"4 curves x 101 points, max second difference {worst:.3e} <= 1e-9")
