import dataclasses
import json

import numpy as np
import pytest

from twowell import fock, model, yangbaxter
from twowell.cli import GRID_POINTS_CAP, _parse_grid, main
from twowell.yangbaxter import IntegrableParams

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


def physical_config(tmp_path, mp, atoms):
    block = {f.name: np.asarray(getattr(mp, f.name)).tolist() for f in dataclasses.fields(mp)}
    return write_config(tmp_path, {"model": {"kind": "physical"} | block, "n_atoms": atoms})


def rank_one_tunneling(name):
    """Integrable couplings with asymmetric rank-1 Omega: s not parallel to t,
    or s perpendicular to t."""
    if name == "nonparallel":
        ip = IntegrableParams(2, 1.0, [1.0, 1.0], s=[0.9, 0.3], t=[0.2, 0.8], alpha=1.0)
        return yangbaxter.identify_parameters(ip)
    mp = yangbaxter.identify_parameters(yangbaxter.default_integrable_params(2))
    mp.Omega = np.array([[0.0, 0.5], [0.0, 0.0]])
    return mp


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


@pytest.mark.parametrize("key", ["seed", "budget", "u"])
def test_bae_rejects_solver_knobs_in_config(tmp_path, capsys, key):
    # refused by name, so no value is parsed: a malformed one gives no traceback;
    # the spectral parameter is set only as model.u
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
    assert float(rows[0][2]) == pytest.approx(ed.eigenvalues[0], abs=1e-14)


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
        ref = spectrum(build_hamiltonian(params, enumerate_sector(2, int(N)))).eigenvalues[0]
        assert float(e0) == pytest.approx(ref / 1.5, rel=1e-12, abs=1e-12)


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


def test_config_errors_reported_together(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_atoms": [-1, "x"]})
    assert main(["spectrum", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "model" in err
    assert "atom" in err


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

    # rll at n=1 forms 20 x 20 complex matrices (4 C(5, 4)); tcommute at n=1,
    # N=19 one of 20 x 20 and at N=20 one of 21 x 21
    for name in ("ybe_residual", "rll_residual", "transfer_commutator_residual",
                 "conserved_charges", "hamiltonian_from_transfer"):
        monkeypatch.setattr(yangbaxter, name, no_suite)
    assert main(["verify", "--suite", "rll", "--n", "13"]) == 1  # 9520 x 9520 at the real cap
    assert "rll n=13" in capsys.readouterr().err
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 16 * 20 * 20)
    assert main(["verify", "--n", "1", "--atoms", "19,20"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "tcommute n=1 N=20" in err[0] and "DENSE_BYTES_CAP" in err[0]
    monkeypatch.setattr(model, "DENSE_BYTES_CAP", 16 * 20 * 20 - 1)
    assert main(["verify", "--suite", "rll", "--n", "1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: rll n=1:")


def test_verify_ybe_suite(capsys):
    assert main(["verify", "--suite", "ybe", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_hrel_narrowed(capsys):
    assert main(["verify", "--suite", "hrel", "--n", "2", "--atoms", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "hrel n=2 N=3" in out
