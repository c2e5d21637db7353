import dataclasses
import errno
import io
import itertools
import json
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twowell import bethe, cli, fock, model, yangbaxter
from twowell.cli import GRID_POINTS_CAP, LEVEL_MATRICES, _model_from_config, _parse_grid, main, scan_params
from twowell.fock import SECTOR_ROW_ARRAYS
from twowell.yangbaxter import IntegrableParams, default_integrable_params

SQRT5 = np.sqrt(5.0)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def scan_config(tmp_path, mu2):
    return write_config(
        tmp_path,
        {
            "model": {
                "kind": "physical",
                "n_levels": 2,
                "U_aa": [[1.0, 2.0], [2.0, 1.0]],
                "U_bb": [[1.0, 2.0], [2.0, 1.0]],
                "U_ab": [[1.0, 1.0], [1.0, 1.0]],
                "mu": [1.0, mu2],
                "eps_a": [-2.0, 2.0],
                "eps_b": [1.0, -1.0],
                "Omega": [[0.5, 0.5], [0.5, 0.5]],
            },
            "n_atoms": [2],
        },
    )


def test_spectrum_default_single_atom(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--atoms", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["n_atoms", "index", "eigenvalue"]
    values = [float(r[2]) for r in rows]
    assert np.allclose(values, sorted([1 - SQRT5, -1.0, 3.0, 1 + SQRT5]), atol=1e-12)


def test_spectrum_vacuum_row(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--atoms", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0][2]) == 0.0


def test_spectrum_scan_set_has_ten_rows(tmp_path):
    out = tmp_path / "spectrum.csv"
    cfg = scan_config(tmp_path, mu2=1.0)
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 10


def test_spectrum_refuses_oversized_sector(tmp_path, capsys):
    assert main(["spectrum", "--atoms", "200"]) == 1
    err = capsys.readouterr().err
    assert "dimension 1373701" in err and str(model.DENSE_BYTES_CAP) in err


def test_bae_refuses_oversized_sector(capsys):
    assert main(["bae", "--atoms", "1,200"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "N=200" in err[0]


def test_spectrum_prints_every_level_above_old_dense_threshold(tmp_path):
    out = tmp_path / "spectrum.csv"
    cfg = scan_config(tmp_path, mu2=1.0)
    assert main(["spectrum", "--config", cfg, "--atoms", "21", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [int(r[1]) for r in rows] == list(range(2024))
    vals = [float(r[2]) for r in rows]
    assert vals == sorted(vals)


def test_spectrum_byte_cap_checked_before_allocation(tmp_path, capsys, monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense diagonalization reached")

    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 8 * 20 * 20 - 1)  # d = 20 at N = 3
    monkeypatch.setattr(model, "spectrum", no_dense)
    monkeypatch.setattr(model, "build_hamiltonian", no_dense)
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--atoms", "1,3", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "N=3" in err[0]
    assert "DENSE_BYTES_CAP" in err[0]
    assert not out.exists()


def test_spectrum_rows_sorted_per_atom_number(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--atoms", "1,2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    for N in ("1", "2"):
        vals = [float(r[2]) for r in rows if r[0] == N]
        assert vals == sorted(vals)


def test_bae_closed_form_csv(tmp_path, capsys):
    out = tmp_path / "bae.csv"
    assert main(["bae", "--atoms", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[0] == "solution_id"
    assert len(rows) == 2
    energies = sorted(float(r[4]) for r in rows)
    assert abs(energies[0] - (1 - SQRT5)) <= 1e-10
    assert abs(energies[1] - (1 + SQRT5)) <= 1e-10
    assert all(r[7] != "" for r in rows)  # both matched
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "bae"
    assert report["residual_summary"]["matched"] == 2
    assert set(report) == {"command", "config_echo", "results", "residual_summary"}


def test_bae_vacuum_row(tmp_path):
    out = tmp_path / "bae.csv"
    assert main(["bae", "--atoms", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][1] == "-1"
    assert float(rows[0][4]) == 0.0


def test_bae_rejects_non_integrable_couplings(tmp_path, capsys):
    cfg = scan_config(tmp_path, mu2=1.0)
    assert main(["bae", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "not integrable" in err
    assert "eps_a2 - mu_2" in err
    # one line, as every refusal; identify writes the violations report
    assert err == (
        "error: physical couplings are not integrable: eps_a2 - mu_2 equals eps_a1 - mu_1; "
        "eps_b1 + mu_1 equals -(eps_a1 - mu_1); eps_b2 + mu_2 equals -(eps_a1 - mu_1)\n"
    )


def physical_block(mp):
    block = {f.name: np.asarray(getattr(mp, f.name)).tolist() for f in dataclasses.fields(mp)}
    return {"kind": "physical"} | block


def physical_config(tmp_path, mp, atoms):
    return write_config(tmp_path, {"model": physical_block(mp), "n_atoms": atoms})


def rank_one_tunneling(name):
    """Integrable couplings with asymmetric rank-1 Omega: s not parallel to t,
    or s perpendicular to t."""
    if name == "nonparallel":
        ip = IntegrableParams(2, 1.0, [1.0, 1.0], s=[0.9, 0.3], t=[0.2, 0.8], alpha=1.0)
        return yangbaxter.identify_parameters(ip)
    mp = yangbaxter.identify_parameters(yangbaxter.default_integrable_params(2))
    return dataclasses.replace(mp, Omega=np.array([[0.0, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize("name", ["nonparallel", "perpendicular"])
def test_identify_gauges_rank_one_tunneling(tmp_path, capsys, name):
    mp = rank_one_tunneling(name)
    assert main(["identify", "--config", physical_config(tmp_path, mp, [1])]) == 0
    derived = json.loads(capsys.readouterr().out)["results"]["derived"]
    assert derived["t"] == derived["s"]  # u_1 . v_1 >= 0 in both
    assert np.dot(derived["s"], derived["t"]) == pytest.approx(np.linalg.norm(mp.Omega, 2), abs=1e-12)


@pytest.mark.parametrize("name", ["nonparallel", "perpendicular"])
def test_bae_matches_every_state_of_rank_one_tunneling(tmp_path, capsys, name):
    # matched against the ED of the couplings as given, not of the gauge
    out = tmp_path / "bae.csv"
    cfg = physical_config(tmp_path, rank_one_tunneling(name), [1, 2, 3])
    assert main(["bae", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)["residual_summary"]
    assert summary["unique"] == summary["matched"] == 2 + 3 + 4
    assert summary["max_eigvec_residual"] <= 1e-9
    if name == "nonparallel":
        _, rows = read_csv(out)
        energies = sorted({float(r[4]) for r in rows if r[0].startswith("3_")})
        assert np.allclose(energies, [2.233872, 5.172631, 9.290615, 15.302881], atol=1e-6)


def test_bae_refuses_nonparallel_integrable_block(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {
                "kind": "integrable", "n_levels": 2, "eta": 1.0, "omega": [1.0, 1.0],
                "s": [0.9, 0.3], "t": [0.2, 0.8], "alpha": 1.0,
            },
        },
    )
    out = tmp_path / "bae.csv"
    for argv in (["--out", str(out)], []):
        assert main(["bae", "--config", cfg] + argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not proportional" in err[0]
        assert captured.out == ""
    assert not out.exists()


def test_bae_refuses_nonparallel_block_before_any_sector(tmp_path, capsys, monkeypatch):
    # the N = 30 sector's dense ED (d = 5456) used to run before the refusal
    def no_sector(*args, **kwargs):
        raise AssertionError("a sector was built")

    block = integrable_block(2) | {"s": [0.9, 0.3], "t": [0.2, 0.8]}
    cfg = write_config(tmp_path, {"model": block})
    for name in ("enumerate_sector", "_enumerate"):
        monkeypatch.setattr(fock, name, no_sector)
    monkeypatch.setattr(model, "spectrum", no_sector)
    assert main(["bae", "--config", cfg, "--atoms", "30,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: s and t are not proportional: the Bethe layer solves only t = c s, "
        "the gauge validate_model returns for physical couplings\n"
    )


@pytest.mark.parametrize("config", ["default", "physical"])
def test_bae_report_agrees_with_its_csv(tmp_path, capsys, config):
    out = tmp_path / "bae.csv"
    if config == "default":
        argv = ["bae", "--n", "2", "--atoms", "0,1,2,3"]
    else:  # the n = 2 default integrable set with Omega all 0.5
        mp = yangbaxter.identify_parameters(default_integrable_params(2))
        mp = dataclasses.replace(mp, Omega=np.full((2, 2), 0.5))
        argv = ["bae", "--config", physical_config(tmp_path, mp, [0, 1, 2, 3])]
    assert main([*argv, "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    header, rows = read_csv(out)
    states = {}  # solution id -> its rows, in order
    for row in rows:
        states.setdefault(row[0], []).append(dict(zip(header, row)))
    first = [rs[0] for rs in states.values()]
    matched = [r for r in first if r["matched_eigenvalue"] != ""]

    summary = report["residual_summary"]
    assert summary["unique"] == len(states) == 1 + 2 + 3 + 4
    assert summary["matched"] == len(matched) > 0
    for key, column, group in (("max_bae_residual", "bae_residual", first),
                               ("max_eigvec_residual", "eigvec_residual", first),
                               ("max_matched_delta", "delta", matched)):
        assert summary[key] == max(float(r[column]) for r in group), key

    solutions = report["results"]["solutions"]
    assert [s["solution_id"] for s in solutions] == list(states)
    for sol in solutions:
        rs = states[sol["solution_id"]]
        assert all(float(r["energy"]) == sol["energy"] for r in rs)
        level = rs[0]["matched_eigenvalue"]
        assert sol["matched_eigenvalue"] == (float(level) if level else None)
        roots = [[float(r["re_v"]), float(r["im_v"])] for r in rs if r["root_index"] != "-1"]
        assert roots == sol["roots"] and len(roots) == sol["n_atoms"]


def test_bae_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["bae", "--atoms", "2,3", "--out", str(out1)]) == 0
    assert main(["bae", "--atoms", "2,3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, rows = read_csv(out1)
    assert len({r[0] for r in rows}) == 3 + 4  # all N+1 states per atom number


def test_bae_report_counts_every_state(tmp_path, capsys):
    out = tmp_path / "bae.csv"
    assert main(["bae", "--atoms", "1,3", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    summary = report["residual_summary"]
    assert summary["attempts"] == summary["converged"] == summary["unique"] == 2 + 4
    assert summary["matched"] == 6
    assert "seed" not in report["config_echo"] and "budget" not in report["config_echo"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bae_matches_every_kept_state(tmp_path, capsys, n):
    # each kept energy is certified against H's levels on its N+1 collective
    # states, while spectrum_levels still counts every level of each sector
    out = tmp_path / "bae.csv"
    atoms = range(11)
    assert main(["bae", "--n", str(n), "--atoms", ",".join(map(str, atoms)), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)["residual_summary"]
    assert summary["matched"] == summary["unique"] > 0
    assert summary["spectrum_levels"] == sum(fock.dimension(n, N) for N in atoms)
    assert summary["max_matched_delta"] <= bethe.MATCH_TOL


def test_bae_forms_no_dense_matrix(capsys, monkeypatch):
    # n = 2, N = 40 (d = 12341): a dense d x d matrix of it would exceed
    # DENSE_BYTES_CAP, and bae needs none
    def no_dense(*args, **kwargs):
        raise AssertionError("a dense reference was formed")

    for name in ("spectrum", "check_dense_fits"):
        monkeypatch.setattr(model, name, no_dense)
    assert main(["bae", "--n", "2", "--atoms", "3,40"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "solutions: 4, matched: 4\n"
    assert {line.split(",")[0].split("_")[0] for line in captured.out.splitlines()[1:]} == {"3"}


def test_bae_report_counts_a_rejected_state(tmp_path, capsys):
    # n = 1, N = 8 keeps 8 of its 9 states: one is left unconverged, so the
    # three counts are not all equal here
    out = tmp_path / "bae.csv"
    assert main(["bae", "--n", "1", "--atoms", "8", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)["residual_summary"]
    _, rows = read_csv(out)
    rejected = bethe.solve_bae(default_integrable_params(1), 8).rejected
    assert summary["attempts"] == 9
    assert summary["converged"] == 9 - rejected["unconverged"]
    assert summary["unique"] == len({r[0] for r in rows})


@pytest.mark.parametrize("key", ["seed", "budget", "u"])
def test_bae_rejects_solver_knobs_in_config(tmp_path, capsys, key):
    # refused by name, so no value is parsed: a malformed one gives no traceback
    cfg = write_config(
        tmp_path,
        {
            "model": {
                "kind": "integrable", "n_levels": 1, "eta": 1.0, "omega": [1.0],
                "s": [1.0], "t": [1.0], "alpha": 1.0,
            },
            key: "abc",
        },
    )
    assert main(["bae", "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and repr(key) in err[0]


@pytest.mark.parametrize("flag", ["--seed", "--budget", "--force-bae"])
def test_bae_has_no_solver_flags(flag):
    # --seed and --budget drove bae's restart search; --force-bae sent fig2's
    # non-integrable scan set to the Bethe solver, which always refused it
    if flag == "--force-bae":
        argv = ["fig2", "--grid", "0:1:1", "--atoms", "1", flag]
    else:
        argv = ["bae", "--atoms", "1", flag, "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["spectrum", "bae", "verify"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_levels_below_one_rejected(verb, n, capsys):
    assert main([verb, "--n", n, "--atoms", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--n" in err


def test_fig2_single_grid_point(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--grid", "1:1:1", "--atoms", "1,2,3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["N", "mu2_over_mu1", "E0_over_mu1"]
    assert len(rows) == 3


def test_fig2_ground_state_reference_value(tmp_path):
    from twowell.cli import scan_params
    from twowell.fock import enumerate_sector
    from twowell.model import build_hamiltonian, spectrum

    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--grid", "1:1:1", "--atoms", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ed = spectrum(build_hamiltonian(scan_params(mu2=1.0), enumerate_sector(2, 1)))
    assert float(rows[0][2]) == pytest.approx(ed[0], abs=1e-14)


def test_fig2_matches_dense_ground_state_per_point(tmp_path):
    from twowell.cli import scan_params
    from twowell.fock import enumerate_sector
    from twowell.model import build_hamiltonian, spectrum

    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--grid", "0:2:0.4", "--atoms", "0,1,5", "--mu1", "1.5",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3 * 6
    for N, x, e0 in rows:
        params = scan_params(mu2=float(x) * 1.5, mu1=1.5)
        ref = spectrum(build_hamiltonian(params, enumerate_sector(2, int(N))))[0]
        assert float(e0) == pytest.approx(ref / 1.5, rel=1e-12, abs=1e-12)


def _scan_e0(N, x, mu1):
    """E0/mu1 of the scan set at mu2/mu1 = x, by dense diagonalization."""
    sector = fock.enumerate_sector(2, N)
    return model.spectrum(model.build_hamiltonian(scan_params(mu2=x * mu1, mu1=mu1), sector))[0] / mu1


def test_fig2_negative_values_in_the_equals_form(capsys):
    # after a space argparse reads -1:0:0.5 and -1e-3 as options (exit 2); the
    # = form reads them as values, as the --grid and --mu1 help says
    for argv in (["--grid", "-1:0:0.5"], ["--mu1", "-1e-3"]):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--atoms", "1", *argv])
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["fig2", "--atoms", "1,3", "--grid=-1:0:0.5", "--mu1=-1e-3"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [(N, x) for N, x, _ in rows] == [(N, x) for N in "13" for x in ("-1", "-0.5", "0")]
    for N, x, e0 in rows:
        assert float(e0) == pytest.approx(_scan_e0(int(N), float(x), -1e-3), rel=1e-12, abs=0.0)


def test_fig2_grid_points_equal_their_single_point_runs(capsys):
    # a sector's grid is one lowest call; each point must not depend on the others
    assert main(["fig2", "--atoms", "1,5,12", "--grid=-0.5:2:0.5", "--mu1", "1.5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 * 6
    for row in rows:
        N, x, e0 = row.split(",")
        assert main(["fig2", "--atoms", N, f"--grid={x}:{x}:1", "--mu1", "1.5"]) == 0
        (single,) = capsys.readouterr().out.splitlines()[1:]
        assert single.split(",")[:2] == [N, x]
        assert float(e0) == pytest.approx(float(single.split(",")[2]), rel=1e-12, abs=0.0)


def test_fig2_unconverged_point_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(model, "LOWEST_STEP_CAP", 2)
    sector = fock.enumerate_sector(2, 3)
    with pytest.raises(ValueError, match=r"^xs\[0\] = 0.0: not converged in 2 Lanczos steps$"):
        model.lowest(model.build_hamiltonian(scan_params(mu2=0.0), sector))
    # N = 0 (d = 1) is exact at step 1; N = 3 (d = 20) is not converged at step 2
    assert main(["fig2", "--atoms", "0,3", "--grid", "0.5:1:0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: N=3, mu2/mu1=0.5: the lowest level did not converge in 2 Lanczos steps"
    ]


def test_fig2_rejects_zero_mu1(capsys):
    assert main(["fig2", "--mu1", "0"]) == 1
    assert "mu1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--mu1", "nan"],
        ["--mu1", "inf"],
        ["--mu1=-inf"],
        ["--grid", "nan:1:1"],
        ["--grid", "0:inf:1"],
        ["--grid", "0:1:nan"],
        ["--grid", "0:1e9:1e-9"],
        ["--grid=-1e308:1e308:1"],
        ["--grid", "0:1e300:1e299", "--mu1", "1e10"],
    ],
)
def test_fig2_bad_numbers_give_one_error_line(argv, capsys):
    assert main(["fig2", "--atoms", "1", *argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_fig2_keeps_the_end_point_of_a_large_grid(capsys):
    # 560427.9 + 0.3 passes 560428.2 by 1.2e-10: rounding at this magnitude, not a step
    assert main(["fig2", "--atoms", "1", "--grid", "560427.9:560428.2:0.3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["560427.90000000002", "560428.20000000007"]


def test_decimal_grids_keep_every_point():
    # start:start+k*step:step in decimal, with |start| up to 1e7, where the
    # rounding of start + k * step exceeds 1e-12
    rng = np.random.default_rng(7)
    for _ in range(2000):
        start = Decimal(int(rng.integers(-(10**10), 10**10))).scaleb(-int(rng.integers(3, 7)))
        step = Decimal(int(rng.integers(1, 1000))).scaleb(-int(rng.integers(0, 4)))
        k = int(rng.integers(0, 41))
        stop = start + k * step
        errors = []
        grid = _parse_grid(f"{start}:{stop}:{step}", errors)
        assert errors == [] and len(grid) == k + 1, (start, stop, step)
        # the last point misses stop by rounding alone
        assert grid[-1] - float(stop) <= 4 * np.spacing(float(abs(start) + abs(stop)))


def test_fig2_grid_point_cap(capsys):
    errors = []
    assert len(_parse_grid(f"0:{GRID_POINTS_CAP - 1}:1", errors)) == GRID_POINTS_CAP
    assert errors == []
    assert main(["fig2", "--atoms", "1", "--grid", f"0:{GRID_POINTS_CAP}:1"]) == 1
    assert str(GRID_POINTS_CAP) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fig2", "--n", "3"], id="fig2"),
        pytest.param(["identify", "--n", "3"], id="identify"),
        pytest.param(["identify", "--atoms", "3"], id="identify-atoms"),
        # verify and fig2 read no config
        pytest.param(["fig2", "--config", "/nonexistent.json"], id="fig2-config"),
        pytest.param(["verify", "--suite", "ybe", "--config", "/nonexistent.json"], id="verify-config"),
        # a config carries its own n_levels
        pytest.param(["spectrum", "--config", "/nonexistent.json", "--n", "3"], id="spectrum-config-n"),
        pytest.param(["bae", "--config", "/nonexistent.json", "--n", "1"], id="bae-config-n"),
    ],
)
def test_verbs_without_levels_reject_n(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cap",
    [
        pytest.param(["verify", "--suite", "hrel", "--atoms", "200"], None, id="hrel-200"),  # 2.9e9 states at n=3
        pytest.param(["fig2", "--atoms", "200"], None, id="fig2-200"),  # 1.4e6 states
        pytest.param(["verify", "--suite", "hrel"], 3, id="hrel-cap3"),
        pytest.param(["verify", "--suite", "charges"], 3, id="charges-cap3"),
        pytest.param(["verify"], 3, id="verify-cap3"),
        pytest.param(["fig2"], 3, id="fig2-cap3"),
    ],
)
def test_sectors_checked_before_enumeration(argv, cap, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a sector was enumerated")

    monkeypatch.setattr(fock, "enumerate_sector", no_enumeration)
    if cap is not None:
        monkeypatch.setattr(fock, "SECTOR_DIM_CAP", cap)
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert err and all(line.startswith("error: sector n=") for line in err)
    assert all("SECTOR_DIM_CAP" in line for line in err)
    assert len(err) == len(set(err))  # one line per sector
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # d = 980,700 is under SECTOR_DIM_CAP; its occupations alone take 10.2 GiB
        ["verify", "--suite", "hrel", "--n", "700", "--atoms", "2"],
        # d = 6000: the dense matrix (275 MiB) fits, the rows of 6000 modes do not
        ["spectrum", "--n", "3000", "--atoms", "1"],
    ],
    ids=lambda argv: f"{argv[0]}-n{argv[-3]}",
)
def test_wide_rows_refused_before_enumeration(argv, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a sector was enumerated")

    monkeypatch.setattr(fock, "_enumerate", no_enumeration)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: sector n={argv[-3]}, N={argv[-1]}: ")
    assert f"{SECTOR_ROW_ARRAYS} int64 arrays of" in err[0] and "DENSE_BYTES_CAP" in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        # hrel: tcommute's commutator stacks need more than the rows
        ["verify", "--suite", "hrel", "--n", "3", "--atoms", "2"],
        ["spectrum", "--n", "3", "--atoms", "2"],
        ["bae", "--n", "3", "--atoms", "2"],
        ["fig2", "--atoms", "3", "--grid", "0:1:1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_verb_counts_the_row_width(argv, capsys, monkeypatch):
    # one int64 array of a sector's rows is d x 2n x 8 bytes: 21 x 6 x 8 at
    # n = 3, N = 2, and 20 x 4 x 8 at n = 2, N = 3
    n, N = (2, 3) if argv[0] == "fig2" else (3, 2)
    need = SECTOR_ROW_ARRAYS * 8 * 2 * n * fock.dimension(n, N)
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need - 1)
    monkeypatch.setattr(fock, "_enumerate", lambda *a: pytest.fail("a sector was enumerated"))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: sector n={n}, N={N}: {SECTOR_ROW_ARRAYS} int64 arrays of {fock.dimension(n, N)} "
        f"rows x {2 * n} columns need {need} bytes > DENSE_BYTES_CAP = {need - 1} bytes\n"
    )


def test_bae_sizes_solve_bae_before_any_sector(capsys, monkeypatch):
    # n = 1, N = 8: the dense matrix (8 x 9 x 9 bytes) and the rows fit a cap
    # that solve_bae's SOLVE_SQUARES (9, 9) float64 arrays for each of its 9
    # states, run as one block, do not
    squares = bethe._block_states(8) * bethe.SOLVE_SQUARES
    need = squares * 8 * 9 * 9
    argv = ["bae", "--n", "1", "--atoms", "2,8"]
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", need - 1)
    monkeypatch.setattr(fock, "_enumerate", lambda *a: pytest.fail("a sector was enumerated"))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: sector n=1, N=8: solve_bae's {squares} (9, 9) float64 arrays need "
        f"{need} bytes > DENSE_BYTES_CAP = {need - 1} bytes\n"
    )


@pytest.mark.parametrize("atoms", ["1030", "1029,1030"])
def test_bae_refuses_tq_binomials_past_float64_before_any_sector(capsys, monkeypatch, atoms):
    # N = 1030 fits the memory cap, but C(1030, 515) does not fit float64; it
    # ended in a LinAlgError from the nan of its inf binomial
    monkeypatch.setattr(fock, "_enumerate", lambda *a: pytest.fail("a sector was enumerated"))
    monkeypatch.setattr(bethe, "_collective_hamiltonian", lambda *a: pytest.fail("a Bethe sector was built"))
    assert main(["bae", "--n", "1", "--atoms", atoms]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sector n=1, N=1030: solve_bae's TQ matrix needs the binomial C(1030, 515), "
        "past the largest float64 1.7976931348623157e+308\n"
    )


def test_identify_integrable_roundtrip(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {
                "kind": "physical",
                "n_levels": 2,
                "U_aa": [[1.0, 2.0], [2.0, 1.0]],
                "U_bb": [[1.0, 2.0], [2.0, 1.0]],
                "U_ab": [[1.0, 1.0], [1.0, 1.0]],
                "mu": [0.0, 0.0],
                "eps_a": [2.0, 2.0],
                "eps_b": [-2.0, -2.0],
                "Omega": [[0.5, 0.5], [0.5, 0.5]],
            }
        },
    )
    assert main(["identify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["integrable"] is True
    derived = report["results"]["derived"]
    assert derived["eta"] == pytest.approx(1.0)
    assert sum(derived["omega"]) == pytest.approx(2.0)


def test_identify_reports_all_violations(tmp_path, capsys):
    cfg = scan_config(tmp_path, mu2=1.0)
    assert main(["identify", "--config", cfg]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["integrable"] is False
    assert len(report["results"]["violations"]) >= 2


def test_identify_reports_the_scale_of_each_violation(tmp_path, capsys):
    # each constraint is judged on the largest |entry| of the couplings it
    # reads; bae's refusal names the constraints alone, as before
    cfg = scan_config(tmp_path, mu2=1.0)
    assert main(["identify", "--config", cfg]) == 1
    violations = json.loads(capsys.readouterr().out)["results"]["violations"]
    assert violations and all(set(v) == {"constraint", "lhs", "rhs", "scale"} for v in violations)
    assert {v["scale"] for v in violations if v["constraint"].startswith("eps_")} == {2.0}
    assert main(["bae", "--config", cfg]) == 1
    names = "; ".join(v["constraint"] for v in violations)
    assert capsys.readouterr().err == f"error: physical couplings are not integrable: {names}\n"


def test_config_errors_reported_together(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_atoms": [-1, "x"]})
    assert main(["spectrum", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "model" in err
    assert "atom" in err


@pytest.mark.parametrize("verb", ["spectrum", "bae", "identify"])
@pytest.mark.parametrize("key", ["n_atom", "seed"])
def test_config_top_level_keys_are_model_and_n_atoms(tmp_path, capsys, verb, key):
    # a misspelt n_atoms was ignored, and spectrum and bae ran N = 1
    payload = {"model": physical_block(rank_one_tunneling("nonparallel")), key: [3]}
    assert main([verb, "--config", write_config(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and repr(key) in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["spectrum", "bae", "identify"])
def test_config_errors_of_every_verb_come_in_one_pass(tmp_path, capsys, verb):
    # identify stopped at the unknown key, where spectrum and bae went on to the model block
    block = physical_block(rank_one_tunneling("nonparallel"))
    del block["Omega"]
    assert main([verb, "--config", write_config(tmp_path, {"model": block, "seed": 1})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config: unknown top-level keys ['seed']; the keys are 'model' and 'n_atoms'\n"
        "error: config: model block missing fields ['Omega']\n"
    )


@pytest.mark.parametrize("verb", ["spectrum", "bae"])
@pytest.mark.parametrize("content, reason", [
    (None, "No such file"),
    ("{\"model\": ", "Expecting value"),
    ("[1, 2]", "top level must be a JSON object"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["missing", "malformed", "non-object", "nested-too-deep"])
def test_unreadable_config_gives_one_error_line(tmp_path, capsys, verb, content, reason):
    # a config that cannot be read is not parsed as a model: no second line
    # "config: missing 'model' block" after the reason
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    assert main([verb, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {path}:") and reason in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["spectrum", "bae", "identify"])
@pytest.mark.parametrize("block", [3, [1, 2]])
def test_non_object_model_block_rejected(tmp_path, capsys, verb, block):
    cfg = write_config(tmp_path, {"model": block, "n_atoms": [1]})
    assert main([verb, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'model'" in err[0]


def test_verify_dense_sizes_checked_before_any_suite(capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a residual was computed")

    # rll at n=1 builds two (2, 2, 4, 4) complex Lax operators, 2048 bytes
    # (m = C(4, 1)); tcommute, on sectors of 100 and 101 states at n=1, N=99
    # and 100, forms no dense matrix: its commutator stacks of 1024 rows are
    # held to the cap, yangbaxter.check_commutator_fits (600221 bytes at
    # N=100, 600162 at N=99)
    suites = {name: getattr(yangbaxter, name) for name in (
        "ybe_residual", "rll_residual", "transfer_commutator_residual",
        "charge_terms", "transfer_hamiltonian_terms")}
    for name in suites:
        monkeypatch.setattr(yangbaxter, name, no_suite)
    # at the real cap the first level refused is n = 24 (m = 2925, 1.1e9
    # bytes); n = 23 (m = 2600) fits, and is only sized here
    yangbaxter.check_rll_fits(23)
    assert main(["verify", "--suite", "rll", "--n", "24"]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: rll n=24: two (2, 2, 2925, 2925)")
    tcommute = ["verify", "--suite", "tcommute", "--n", "1", "--atoms", "99,100"]
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 600220)
    assert main(tcommute) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: tcommute n=1, N=100: transfer commutators of 1024 rows")
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 600221)
    for name in ("rll_residual", "transfer_commutator_residual"):
        monkeypatch.setattr(yangbaxter, name, suites[name])
    assert main(tcommute) == 0
    out = capsys.readouterr().out
    assert "tcommute n=1 N=100 20 pairs" in out and "FAIL" not in out
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 2048)
    assert main(["verify", "--suite", "rll", "--n", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 2047)
    assert main(["verify", "--suite", "rll", "--n", "1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: rll n=1:")


def test_verify_sizes_tcommute_products_before_any_sector(capsys, monkeypatch):
    # n = 2, N = 150: its 585276 rows fit fock.check_sector_fits, but one
    # commutator pair peaks near 3 kB per row, about 1.7 GB
    monkeypatch.setattr(fock, "_enumerate", lambda *a: pytest.fail("a sector was enumerated"))
    assert main(["verify", "--suite", "tcommute", "--atoms", "150"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: tcommute n=2, N=150: transfer commutators of 585276 rows, 8.84 entries each, "
        "need 2098116127 bytes > DENSE_BYTES_CAP = 1073741824 bytes\n"
    )


def test_verify_rll_past_the_old_precheck(capsys):
    # n = 13 was refused on one (4 C(17, 4))^2 complex matrix, 1.45e9 bytes; its
    # two Lax operators take 40 MB
    assert main(["verify", "--suite", "rll", "--n", "13"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(": max residual")[0] for line in lines] == [
        "rll n=13 20 draws", "rll n=13 zeta-shift control (>= 1e-3)"]
    assert all(line.endswith("PASS") for line in lines)


def test_verify_rll_builds_one_ladder_per_level(monkeypatch, capsys):
    levels = []
    build = yangbaxter.truncated_ladder
    monkeypatch.setattr(yangbaxter, "truncated_ladder", lambda n, c: levels.append(n) or build(n, c))
    yangbaxter._rll_ladder.cache_clear()
    assert main(["verify", "--suite", "rll"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert sorted(levels) == [1, 2, 3]


def test_verify_tcommute_builds_one_hop_table_per_sector(monkeypatch, capsys):
    # 20 pairs of t(u), t(v) on each of the four sectors fill the one table
    # their sector keeps
    sectors = []
    build = fock._hop_table
    monkeypatch.setattr(fock, "_hop_table", lambda occ, N: sectors.append(N) or build(occ, N))
    assert main(["verify", "--suite", "tcommute"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert sectors == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "4", "--atoms", "0"],
        ["bae", "--n", "4", "--atoms", "0"],
        ["verify", "--suite", "hrel", "--n", "4", "--atoms", "0"],
        "integrable-config",
    ],
    ids=["spectrum", "bae", "verify-hrel", "integrable-config"],
)
def test_levels_refused_before_any_model_is_built(argv, tmp_path, monkeypatch, capsys):
    # the sector at N = 0 has one state, so only the n x n couplings bound n
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(yangbaxter, "identify_parameters", no_model)
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", LEVEL_MATRICES * 8 * 3 * 3)  # n = 3 fits, n = 4 does not
    if argv == "integrable-config":
        block = dataclasses.asdict(default_integrable_params(4))
        block = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in block.items()}
        argv = ["spectrum", "--config", write_config(tmp_path, {"model": {"kind": "integrable", **block}})]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and "= 4:" in err[0] and "DENSE_BYTES_CAP" in err[0]


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_level_matrices_count_what_identification_builds():
    # at n = 600 the peak is 5.03 n x n doubles: the three couplings
    # identify_parameters fills and two temporaries of ModelParams' symmetry check
    n = 600
    ip = default_integrable_params(n)
    peak = _peak_bytes(lambda: yangbaxter.identify_parameters(ip))
    assert LEVEL_MATRICES >= 5 and peak < 5 * 8 * n * n + 128 * 1024


def test_level_matrices_count_a_physical_config_through_bae():
    # what bae builds from a physical config before its first sector: at n = 600
    # the peak is 7.06 n x n doubles, the four couplings ModelParams holds and
    # three temporaries of the rank-1 check of Omega, plus O(n) bytes (170 KiB
    # here); the config's lists are parsed before the guard, and before the
    # measurement
    n = 600
    cfg = {"model": physical_block(yangbaxter.identify_parameters(default_integrable_params(n)))}

    def couplings():
        params = _model_from_config(cfg, [])[1]
        assert yangbaxter.validate_model(params).integrable

    assert _peak_bytes(couplings) < LEVEL_MATRICES * 8 * n * n + 256 * 1024


def test_verify_ybe_suite(capsys):
    assert main(["verify", "--suite", "ybe", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def _recorded(monkeypatch, name):
    """Replace yangbaxter.<name> by a stub that records its arrays and returns zeros."""
    calls = []

    def record(*args):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        calls.append(arrays)
        return np.zeros(np.broadcast(*arrays).shape)

    monkeypatch.setattr(yangbaxter, name, record)
    return calls


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_verify_ybe_draws_as_the_scalar_loop_did(seed, monkeypatch):
    # the draws, and where they leave the generator, of the loop that called
    # ybe_residual once per draw
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(100):
        eta = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        want.append((*cli._draw_away_from_poles(rng, eta), eta))
    calls = _recorded(monkeypatch, "ybe_residual")
    got = np.random.default_rng(seed)
    cli._suite_ybe(got, (), ())
    assert got.bit_generator.state == rng.bit_generator.state
    assert len(calls) == 1 and np.array_equal(np.column_stack(calls[0]), np.array(want))


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_verify_tcommute_draws_as_the_scalar_loop_did(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(2 * 3):  # levels x atoms
        pairs = []
        for _ in range(20):
            u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            pairs.append((u, v))
        want.append(np.array(pairs))
    calls = _recorded(monkeypatch, "transfer_commutator_residual")
    got = np.random.default_rng(seed)
    cli._suite_tcommute(got, (1, 2), (1, 2, 3))
    assert got.bit_generator.state == rng.bit_generator.state
    assert len(calls) == 6
    for (u, v), pairs in zip(calls, want):
        assert np.array_equal(np.column_stack([u, v]), pairs)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_verify_rll_draws_as_the_scalar_loop_did(seed, monkeypatch):
    # the loop that called rll_residual once per draw drew ip, then (u, v)
    rng = np.random.default_rng(seed)
    want = []
    for n in (1, 2):
        for _ in range(20):
            ip = cli._random_ip(rng, n)
            want.append((ip, *cli._draw_away_from_poles(rng, ip.eta)))
    calls = []

    def record(u, v, ip, zeta_shift=0.0):
        calls.append((u, v, ip, zeta_shift))
        return np.zeros(np.shape(u))[()]

    monkeypatch.setattr(yangbaxter, "rll_residual", record)
    got = np.random.default_rng(seed)
    cli._suite_rll(got, (1, 2), ())
    assert got.bit_generator.state == rng.bit_generator.state
    assert len(calls) == 2  # per level one call: its 20 draws, then the control
    for level, (u, v, ips, zeta_shift) in enumerate(calls):
        draws = want[20 * level : 20 * level + 20]
        assert len(ips) == len(u) == len(v) == len(zeta_shift) == 21
        assert np.array_equal(zeta_shift, [0.0] * 20 + [0.1])
        assert np.array_equal(u, [x for _, x, _ in draws] + [0.9])
        assert np.array_equal(v, [y for *_, y in draws] + [-0.4])
        for ip, (drawn, *_) in zip(ips, draws):
            assert ip.n_levels == level + 1
            assert np.array_equal(ip.s, drawn.s) and np.array_equal(ip.t, drawn.t)
        control, default = ips[-1], cli.default_integrable_params(level + 1)
        assert np.array_equal(control.s, default.s) and np.array_equal(control.t, default.t)


def test_verify_enumerates_each_sector_once(monkeypatch, capsys):
    # tcommute, charges and hrel share the run's sectors: 15 sectors where
    # each suite enumerating its own made 22.  Only the products of tcommute
    # and of the charge commutators fill matrices, so only the n = 2, N = 1..4
    # sectors build a hop table, one each; hrel and the charges' linear checks
    # compare hop terms
    sectors, tables = [], []
    enumerate_sector, build = fock.enumerate_sector, fock._hop_table
    monkeypatch.setattr(fock, "enumerate_sector", lambda n, N: sectors.append((n, N)) or enumerate_sector(n, N))
    monkeypatch.setattr(fock, "_hop_table", lambda occ, N: tables.append((occ.shape[1] // 2, N)) or build(occ, N))
    assert main(["verify"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(sectors) == len(set(sectors)) == 15
    assert sorted(tables) == [(2, 1), (2, 2), (2, 3), (2, 4)]


def assembled_charges(rng, levels, atoms, params_of=default_integrable_params):
    """(reconstruction, C1 = eta N and C2 = I) residuals of each charges sector
    as abs(A - B).max() of assembled matrices, with the draws of the suite."""
    out = []
    for n, N in itertools.product(levels, atoms):
        ip = params_of(n)
        sector = fock.enumerate_sector(n, N)
        C0, C1, C2 = yangbaxter.conserved_charges(ip, sector)
        eye = sp.identity(sector.dim, format="csr")
        worst = 0.0
        for u in rng.uniform(-2, 2, size=3):
            recon = (u * u) * C2 + u * C1 + C0
            worst = max(worst, abs(yangbaxter.transfer_matrix(u, ip, sector) - recon).max())
        out += [worst, max(abs(C1 - ip.eta * N * eye).max(), abs(C2 - eye).max())]
    return out


def assembled_hrel(rng, levels, atoms):
    """The hrel residual of each sector as abs(A - B).max() of the two assembled Hamiltonians."""
    out = []
    for n in levels:
        ips = [default_integrable_params(n), cli._random_ip(rng, n)]
        mps = [yangbaxter.identify_parameters(ip) for ip in ips]
        for N in atoms:
            sector = fock.enumerate_sector(n, N)
            worst = 0.0
            for ip, mp in zip(ips, mps):
                h_t = fock.hop_operator(sector, *yangbaxter.transfer_hamiltonian_terms(ip, sector))
                h_m = model.build_hamiltonian(mp, sector)
                worst = max(worst, abs(h_t - h_m).max())
            out.append(worst)
    return out


def term_residuals(suite, seed, levels, atoms):
    checks = suite(np.random.default_rng(seed), levels, atoms)
    return [residual for name, residual, _, _ in checks if "commutators" not in name]


@pytest.mark.parametrize("seed", [0, 7, 123, 99999])
def test_verify_term_residuals_equal_the_assembled_matrices(seed, monkeypatch):
    # hrel and the charges' linear checks read hop terms; the matrices they
    # stand for give bitwise the same residuals, on the default sets and on
    # random ones (hrel's second set; charges with a random set per level)
    levels, atoms = (1, 2, 3), (0, 1, 2, 3, 4)
    assert term_residuals(cli._suite_hrel, seed, levels, atoms) == assembled_hrel(
        np.random.default_rng(seed), levels, atoms)
    assert term_residuals(cli._suite_charges, seed, levels, atoms) == assembled_charges(
        np.random.default_rng(seed), levels, atoms)
    params = np.random.default_rng(seed + 1)
    random_ips = {n: cli._random_ip(params, n) for n in levels}
    monkeypatch.setattr(cli, "default_integrable_params", random_ips.get)
    assert term_residuals(cli._suite_charges, seed, levels, atoms) == assembled_charges(
        np.random.default_rng(seed), levels, atoms, random_ips.get)


def bumped(pair, part, where):
    """A (diag, coeffs) pair with entry `where` of its diagonal (part 0) or coefficients (part 1) raised by 1e-9."""
    pair = [np.array(x, dtype=float) for x in pair]
    pair[part][where] += 1e-9
    return tuple(pair)


@pytest.mark.parametrize("part, where", [(0, 3), (1, (0, 1))])
def test_verify_hrel_terms_fail_as_the_matrices_do(part, where, monkeypatch, capsys):
    # a wrong diagonal entry or coefficient of the physical Hamiltonian fails
    # the term check and the assembled one alike, with the same residual to a
    # few ulps of the entries (bitwise where only the diagonal differs)
    terms = model.hamiltonian_terms
    monkeypatch.setattr(model, "hamiltonian_terms", lambda mp, sector: bumped(terms(mp, sector), part, where))
    levels, atoms = (2,), (2, 3, 4)
    got = term_residuals(cli._suite_hrel, 5, levels, atoms)
    want = assembled_hrel(np.random.default_rng(5), levels, atoms)
    assert min(got) > 1e-12 and min(want) > 1e-12
    if part == 0:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=0.0, abs=4 * np.spacing(16.0))
    assert main(["verify", "--suite", "hrel", "--n", "2", "--atoms", "2"]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("charge, part, where", [(0, 1, (1, 0)), (0, 0, 2), (1, 0, 4)])
def test_verify_charges_terms_fail_as_the_matrices_do(charge, part, where, monkeypatch, capsys):
    # a wrong coefficient or diagonal entry of C0, or a wrong entry of C1, fails
    # the reconstruction (and for C1 the C1 = eta N check) in terms and in
    # assembled matrices alike
    terms = yangbaxter.charge_terms

    def charge_terms(ip, sector):
        pairs = list(terms(ip, sector))
        pairs[charge] = bumped(pairs[charge], part, where)
        return tuple(pairs)

    monkeypatch.setattr(yangbaxter, "charge_terms", charge_terms)
    levels, atoms = (2,), (2, 3)
    got = term_residuals(cli._suite_charges, 5, levels, atoms)
    want = assembled_charges(np.random.default_rng(5), levels, atoms)
    failing = [r > (1e-12 if i % 2 == 0 else 0.0) for i, r in enumerate(want)]
    assert failing == [r > (1e-12 if i % 2 == 0 else 0.0) for i, r in enumerate(got)]
    assert all(failing[::2]) and failing[1::2] == [charge == 1] * len(atoms)
    if part == 0:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=0.0, abs=4 * np.spacing(16.0))
    assert main(["verify", "--suite", "charges", "--atoms", "2"]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_charge_commutators_equal_the_sparse_products(n):
    # the charges suite reads [C0, diag(c)] from C0's entries; on a sector
    # its diagonals are constant and the value 0, so non-constant ones, from
    # 1e-3 to 1e3, check the formula: bitwise the products', and nonzero
    rng = np.random.default_rng(n)
    for ip in (default_integrable_params(n), cli._random_ip(rng, n)):
        for N in range(7):
            sector = fock.enumerate_sector(n, N)
            A = fock.hop_operator(sector, *yangbaxter.charge_terms(ip, sector)[0])
            for _ in range(3):
                c = 10.0 ** rng.uniform(-3, 3, size=sector.dim)
                D = sp.diags(c, format="csr")
                gap = cli._diag_commutator_gap(A, c)
                assert gap == abs(A @ D - D @ A).max()
                assert gap > 0 or N == 0
    # a fill that stores no entry: the one N = 0 state with a zero diagonal
    empty = fock.hop_operator(fock.enumerate_sector(n, 0), 0.0, np.zeros((n, n)))
    assert empty.nnz == 0 and cli._diag_commutator_gap(empty, np.zeros(1)) == 0.0


@pytest.mark.parametrize("n, N", [(2, 40), (3, 16), (4, 10)])
def test_sector_suites_fit_the_row_bound(n, N):
    # hrel and charges, with the sector and its hop table built inside the
    # trace as verify keeps them, peak within fock.check_sector_fits' bound:
    # about 14, 16 and 16 arrays of 20
    bound = SECTOR_ROW_ARRAYS * 8 * 2 * n * fock.dimension(n, N)
    for suite in (cli._suite_hrel, cli._suite_charges):
        def run():
            sector = fock.enumerate_sector(n, N)
            sector.hops
            checks = suite(np.random.default_rng(0), (n,), (N,), lambda *_: sector)
            assert all(passed for *_, passed in checks)

        assert _peak_bytes(run) <= bound


def test_verify_out_max_residual_is_the_gated_checks(tmp_path, capsys):
    # the zeta-shift controls are large on purpose; the summary leaves them out
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    results, summary = report["results"], report["residual_summary"]
    controls = [r for r in results if "control" in r["check"]]
    gated = [r["residual"] for r in results if r not in controls]
    assert len(controls) == 3 and min(r["residual"] for r in controls) >= 1e-3
    assert summary["max_residual"] == max(gated) <= 1e-10
    assert summary["n_checks"] == len(results) and summary["n_failed"] == 0


def test_verify_refuses_negative_seed(capsys):
    # numpy's generator takes no negative seed; this ended in a ValueError traceback
    assert main(["verify", "--suite", "ybe", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: --seed must be >= 0, got -1"]


def test_verify_hrel_narrowed(capsys):
    assert main(["verify", "--suite", "hrel", "--n", "2", "--atoms", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "hrel n=2 N=3" in out


@pytest.mark.parametrize(
    "suite, flag, value",
    [("ybe", "--n", "3"), ("ybe", "--atoms", "5"), ("rll", "--atoms", "200")],
)
def test_verify_refuses_flags_no_selected_suite_takes(suite, flag, value, capsys):
    # refused before any suite runs, rather than ignored
    assert main(["verify", "--suite", suite, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: --suite {suite} does not take {flag}"]


@pytest.mark.parametrize(
    "argv, checks",
    [
        (["--suite", "rll", "--n", "3"], ["rll n=3 20 draws", "rll n=3 zeta-shift control (>= 1e-3)"]),
        (
            ["--suite", "all", "--n", "1", "--atoms", "0,6"],
            ["ybe 100 draws", "rll n=1 20 draws", "rll n=1 zeta-shift control (>= 1e-3)"]
            + [f"tcommute n=1 N={N} 20 pairs" for N in (0, 6)]
            + [f"charges n=1 N={N} {c}" for N in (0, 6)
               for c in ("reconstruction", "commutators", "C1=etaN, C2=I")]
            + [f"hrel n=1 N={N}" for N in (0, 6)],
        ),
    ],
)
def test_verify_flags_a_selected_suite_takes(argv, checks, capsys):
    assert main(["verify", "--seed", "5", *argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(": max residual")[0] for line in lines] == checks
    assert all(line.endswith("PASS") for line in lines)


def test_identify_derived_block_is_a_model_block(tmp_path, capsys):
    # every echoed model block is accepted back as a config's model block
    cfg = physical_config(tmp_path, rank_one_tunneling("nonparallel"), [1])
    assert main(["identify", "--config", cfg]) == 0
    derived = json.loads(capsys.readouterr().out)["results"]["derived"]
    cfg = write_config(tmp_path, {"model": derived, "n_atoms": [0, 1, 2, 3]})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spectrum.csv")]) == 0
    assert main(["bae", "--config", cfg, "--out", str(tmp_path / "bae.csv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config_echo"]["model"] == derived
    assert report["residual_summary"]["unique"] == report["residual_summary"]["matched"] == 10

    cfg = write_config(tmp_path, {"model": derived | {"u": 0.0}, "n_atoms": [1]})
    for verb in ("spectrum", "bae"):
        assert main([verb, "--config", cfg]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'u'" in err[0]


class FullStream(io.StringIO):
    """A stream on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("verb", ["spectrum", "fig2", "bae", "verify", "identify"])
def test_unwritable_out_gives_one_error_line(tmp_path, capsys, monkeypatch, verb):
    out = str(tmp_path / "missing" / "out.txt")
    argv = {
        "spectrum": ["spectrum", "--atoms", "1"],
        "fig2": ["fig2", "--grid", "1:1:1", "--atoms", "1"],
        "bae": ["bae", "--atoms", "1"],
        "verify": ["verify", "--suite", "ybe"],
        "identify": ["identify", "--config", physical_config(tmp_path, rank_one_tunneling("nonparallel"), [1])],
    }[verb]
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and out in err[0]
    # a write that fails names no file; the error names the --out file or stdout
    enospc = os.strerror(errno.ENOSPC)
    full = tmp_path / "full.txt"
    monkeypatch.setattr(cli, "open", lambda path, mode="r", **kw: FullStream() if "w" in mode
                        else open(path, mode, **kw), raising=False)
    assert main(argv + ["--out", str(full)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write {full}: {enospc}"]
    monkeypatch.setattr("sys.stdout", FullStream())
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write standard output: {enospc}"]


def integrable_block(n_levels=1):
    return {
        "kind": "integrable", "n_levels": n_levels, "eta": 1.0, "omega": [1.0] * n_levels,
        "s": [1.0] * n_levels, "t": [1.0] * n_levels, "alpha": 1.0,
    }


@pytest.mark.parametrize(
    "argv, atoms",
    [
        (["verify", "--atoms", "1,1"], [1, 1]),
        (["verify", "--suite", "tcommute", "--n", "1", "--atoms", "1,1"], [1, 1]),
        (["verify", "--suite", "charges", "--atoms", "0,2,0"], [0, 2, 0]),
        (["verify", "--suite", "hrel", "--atoms", "3,3"], [3, 3]),
        (["spectrum", "--atoms", "2,1,2"], [2, 1, 2]),
        (["bae", "--atoms", "1,1"], [1, 1]),
        (["fig2", "--atoms", "1,1"], [1, 1]),
        ("spectrum", [1, 1]),
        ("bae", [0, 0]),
    ],
    ids=["verify-all", "verify-tcommute", "verify-charges", "verify-hrel", "spectrum", "bae",
         "fig2", "spectrum-config", "bae-config"],
)
def test_repeated_atom_numbers_refused(argv, atoms, tmp_path, capsys):
    # a repeat printed its sector's output again: bae --atoms 1,1 gave states
    # 1_0 and 1_1 twice each
    if isinstance(argv, str):
        argv = [argv, "--config", write_config(tmp_path, {"model": integrable_block(2), "n_atoms": atoms})]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: atom numbers must be distinct, got {atoms}"]


@pytest.mark.parametrize("verb", ["spectrum", "bae"])
@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"model": integrable_block() | {"n_levels": 1.0}}, id="levels-float"),
        pytest.param({"model": integrable_block(2) | {"n_levels": 2.7}}, id="levels-2.7"),
        pytest.param({"model": integrable_block() | {"n_levels": True}}, id="levels-bool"),
        pytest.param({"model": integrable_block(), "n_atoms": [True, 2]}, id="atoms-bool"),
        pytest.param({"model": integrable_block(), "n_atoms": [1.5]}, id="atoms-float"),
        pytest.param({"model": integrable_block(), "n_atoms": 2}, id="atoms-scalar"),
    ],
)
def test_config_counts_must_be_integers(tmp_path, capsys, verb, payload):
    # refused, not truncated to n = 2 or to N = 1, 2
    assert main([verb, "--config", write_config(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["spectrum", "bae", "identify"])
@pytest.mark.parametrize("kind", ["integrable", "physical"])
def test_config_couplings_must_be_json_numbers(tmp_path, capsys, verb, kind):
    # the parameter classes read "1.5" as 1.5 and true as 1.0, so these ran as
    # numbers: spectrum printed four levels
    if kind == "integrable":
        block = integrable_block(2) | {"eta": "1", "alpha": "1.5", "omega": ["1", "1"], "s": [True, 0.5]}
        bad = ["eta", "omega", "s", "alpha"]
    else:
        block = physical_block(yangbaxter.identify_parameters(default_integrable_params(2)))
        block["U_ab"][1][0], block["mu"][0] = "0", False
        bad = ["U_ab", "mu"]
    assert main([verb, "--config", write_config(tmp_path, {"model": block, "n_atoms": [1]})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: config: model fields {bad} must be JSON numbers or arrays of numbers"]


@pytest.mark.parametrize("verb", ["spectrum", "bae"])
def test_config_couplings_read_json_integers(tmp_path, capsys, verb):
    # integers are JSON numbers: the same levels as the float block, and an
    # integer beyond float64 is one error line, not a traceback
    outputs = []
    for value in (1.0, 1):
        block = integrable_block(2) | {"eta": value, "omega": [value, 0.5], "s": [value, value], "alpha": value}
        assert main([verb, "--config", write_config(tmp_path, {"model": block, "n_atoms": [1, 2]})]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    block = integrable_block(2) | {"omega": [1, 10**400]}
    assert main([verb, "--config", write_config(tmp_path, {"model": block})]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: config: invalid model parameters: int too large to convert to float"]


@pytest.mark.parametrize("verb", ["spectrum", "bae"])
@pytest.mark.parametrize("field", ["eta", "alpha"])
def test_non_finite_couplings_give_one_error_line(tmp_path, capsys, verb, field):
    cfg = write_config(tmp_path, {"model": integrable_block() | {field: float("nan")}})
    assert main([verb, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]


def overflow_block(kind):
    """n = 1 couplings, every one finite, whose model overflows float64."""
    if kind == "integrable":  # W^2 in t(u), and eta W N in H
        return integrable_block() | {"omega": [1e308]}
    if kind == "integrable-H":  # only H overflows: alpha N^2 at N = 3
        return integrable_block() | {"alpha": 5e307}
    block = physical_block(yangbaxter.identify_parameters(default_integrable_params(1)))
    if kind == "physical":  # 2 alpha in the identification, and alpha N^2 in H
        return block | {"U_aa": [[1e308]]}
    return block | {"U_bb": [[1e307]]}  # only H overflows, at N = 30


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "physical"],
        ["spectrum", "physical-H", "--atoms", "30"],
        ["spectrum", "integrable"],
        ["bae", "integrable"],
        ["bae", "integrable", "--atoms", "0"],
        ["bae", "integrable-H"],
        ["bae", "physical"],
        ["identify", "physical"],
        ["fig2", "--atoms", "1", "--grid", "0:1:1", "--mu1", "1e-310"],
        ["fig2", "--atoms", "1", "--grid", "1e308:1.7e308:5e307"],
        ["fig2", "--atoms", "3", "--grid", "1:1:1", "--mu1", "1e308"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_overflow_from_finite_input_gives_one_error_line(argv, tmp_path, capsys):
    if argv[0] != "fig2":
        cfg = write_config(tmp_path, {"model": overflow_block(argv[1]), "n_atoms": [3]})
        argv = [argv[0], "--config", cfg, *argv[2:]]
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "float64" in err[0]
    assert captured.out == ""
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "integrable": json.dumps({"model": integrable_block(2), "n_atoms": [1, 2]}),
        "physical": json.dumps({"model": physical_block(rank_one_tunneling("nonparallel")), "n_atoms": [2]}),
        "non-integrable": json.dumps({"model": physical_block(scan_params(1.0)), "n_atoms": [1]}),
        "non-finite": json.dumps({"model": integrable_block(2) | {"alpha": float("inf")}}),
        "overflow-integrable": json.dumps({"model": overflow_block("integrable")}),
        "overflow-physical": json.dumps({"model": overflow_block("physical")}),
        "overflow-physical-H": json.dumps({"model": overflow_block("physical-H")}),
        "malformed": '{"model": ',
        "non-object": "[1, 2]",
        "missing-field": json.dumps({"model": {k: v for k, v in integrable_block(2).items() if k != "alpha"}}),
        "unknown-field": json.dumps({"model": integrable_block(2) | {"u": 0.0}}),
        "unknown-top-key": json.dumps({"model": integrable_block(2), "n_atom": [3]}),
    }
    files = {}
    for name, text in texts.items():
        files[name] = root / f"{name}.json"
        files[name].write_text(text)
    files["out"] = root / "out.txt"
    files["unwritable"] = root / "missing" / "out.txt"
    return {name: str(path) for name, path in files.items()}


LEVELS = ["-1", "0", "1", "2", "3"]
ATOMS = ["0", "1", "2", "3", "4", "200", "x", "1,-1", ""]
CONFIGS = ["integrable", "physical", "non-integrable", "non-finite", "overflow-integrable",
           "overflow-physical", "overflow-physical-H", "malformed", "non-object", "missing-field",
           "unknown-field", "unknown-top-key"]
# verb -> (options always given, options given or not), each with its values
ARGV_OPTIONS = {
    "verify": ({"--suite": ["ybe", "rll", "tcommute", "charges", "hrel"]},
               {"--seed": ["0", "3", "-1"], "--n": LEVELS, "--atoms": ATOMS}),
    "spectrum": ({}, {"--config": CONFIGS, "--n": LEVELS, "--atoms": ATOMS}),
    "bae": ({}, {"--config": CONFIGS, "--n": LEVELS, "--atoms": ATOMS}),
    "fig2": ({}, {"--atoms": ATOMS, "--mu1": ["1", "-2.5", "0", "nan", "inf", "junk", "1e-310", "1e308"],
                  "--grid": ["0:1:0.5", "1:1:1", "junk", "nan:1:1", "0:inf:1", "0:1e9:1e-9",
                             "1e308:1.7e308:5e307"]}),
    "identify": ({}, {"--config": CONFIGS}),
}


@st.composite
def command_lines(draw):
    verb = draw(st.sampled_from(sorted(ARGV_OPTIONS)))
    required, optional = ARGV_OPTIONS[verb]
    opts = draw(st.fixed_dictionaries(
        {k: st.sampled_from(v) for k, v in required.items()},
        optional={k: st.sampled_from(v) for k, v in optional.items()},
    ))
    return verb, opts, draw(st.sampled_from([None, "out", "unwritable"]))


@settings(max_examples=100, deadline=None)
@given(command=command_lines())
def test_no_command_line_ends_in_a_traceback(fuzz_files, command):
    verb, opts, out = command
    # n = 1, N = 200 is a valid bae sector whose 201 Newton solves take about 30 s
    assume(not (verb == "bae" and opts.get("--n") == "1" and opts.get("--atoms") == "200"))
    argv = [verb]
    for flag, value in opts.items():
        argv += [flag, fuzz_files[value] if flag == "--config" else value]
    if out is not None:
        argv += ["--out", fuzz_files[out]]
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 1:
        assert stderr.getvalue().strip().splitlines()[-1].startswith("error:")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(argv, capsys):
    cli._parser.cache_clear()  # a parser that has parsed nothing yet
    return _run(argv, capsys)


def test_parser_reuse_matches_fresh_calls(capsys):
    # an option of one call must not leak into the next call of the same verb
    argvs = [
        ["spectrum", "--n", "1", "--atoms", "2"],
        ["spectrum", "--n", "1"],
        ["spectrum", "--atoms", "0,1"],
        ["bae", "--n", "2", "--atoms", "2"],
        ["bae"],
        ["verify", "--suite", "hrel", "--atoms", "1"],
        ["verify", "--suite", "hrel"],
    ]
    fresh = [_fresh(argv, capsys) for argv in argvs]
    main(["fig2", "--atoms", "1", "--grid", "0:1:1"])  # the parser is now warm
    capsys.readouterr()
    assert [_run(argv, capsys) for argv in argvs] == fresh
    assert fresh[0][1] != fresh[1][1]  # --atoms 2 against the default 1


def test_verb_is_looked_up_at_call_time(capsys, monkeypatch):
    # a tracer or a test replaces cmd_* on the module after the parser exists
    assert main(["spectrum", "--n", "1"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args: seen.append(args.atoms) or 7)
    assert main(["spectrum", "--n", "1", "--atoms", "3"]) == 7
    assert seen == ["3"]


def test_bae_formats_its_report_only_for_out(tmp_path, capsys, monkeypatch):
    reports = []
    report_json = cli._report_json
    monkeypatch.setattr(cli, "_report_json", lambda *a: reports.append(a[0]) or report_json(*a))
    assert main(["bae", "--atoms", "1,3"]) == 0
    stdout = capsys.readouterr().out
    assert reports == []
    out = tmp_path / "bae.csv"
    assert main(["bae", "--atoms", "1,3", "--out", str(out)]) == 0
    assert reports == ["bae"]
    assert json.loads(capsys.readouterr().out)["command"] == "bae"
    assert out.read_text(encoding="utf-8") == stdout


@pytest.mark.parametrize("argv, config, line", [
    (["spectrum"], {"model": integrable_block() | {"kind": "foo"}, "n_atoms": [1]},
     "config: model.kind must be 'integrable' or 'physical', got 'foo'"),
    (["spectrum", "--atoms=-1,2"], None, "atom numbers must be >= 0, got [-1]"),
    (["bae"], {"model": integrable_block(2), "n_atoms": [2, -1]}, "atom numbers must be >= 0, got [-1]"),
    (["verify", "--atoms=-2"], None, "atom numbers must be >= 0, got [-2]"),
    (["fig2", "--grid", "1:0:0.5"], None, "invalid grid '1:0:0.5': need step > 0 and stop >= start"),
    (["identify"], {"model": integrable_block(2), "n_atoms": [1]}, "identify requires model.kind == 'physical'"),
], ids=["model-kind", "spectrum-atoms", "bae-config-atoms", "verify-atoms", "fig2-grid", "identify-integrable"])
def test_refusals_print_one_error_line(tmp_path, capsys, argv, config, line):
    if config is not None:
        argv = [*argv, "--config", write_config(tmp_path, config)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")
