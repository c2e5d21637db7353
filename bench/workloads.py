"""The benchmark's workloads: inputs drawn from the workload seed, the CLI argv
of every operation (op), and the check of each op's output.

Each op is one in-process call of ``twowell.cli.main(argv)``.  The seed only
generates inputs (configs, grids, draw seeds); no op passes ``--seed`` or
``--budget`` to ``bae``.  Checks compare against ``reference.py``, which does
not import the program.

An op ends in one of four states:

* ``ok``          every value it printed is right and its output is complete;
* ``incomplete``  every value it printed is right, but output is missing
                  (for example a spectrum with fewer rows than the sector has
                  levels) -- a failed op;
* ``wrong``       a printed value is wrong -- a failed op, and the run is
                  reported as not correct;
* ``error``       nonzero exit, a traceback, or unparseable output -- a failed op.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

OK, INCOMPLETE, WRONG, ERROR = "ok", "incomplete", "wrong", "error"

# Gates the program's own tests apply today.
BAE_RESIDUAL_GATE = 1e-10
EIGVEC_RESIDUAL_GATE = 1e-9
MATCH_TOL = 1e-8
# |E0 - E0_ref| <= E0_REL_TOL * max(1, |E0_ref|): far above eigensolver error
# (~1e-13), far below the 1e-6 perturbation the self-test must catch.
E0_REL_TOL = 1e-9
# Eigenvalue-sum checks scale with the size of the rounding errors they add up.
SUM_TOL = 1e-13


@dataclass
class Outcome:
    status: str
    reason: str = ""
    bethe_found: int = 0
    bethe_expected: int = 0
    levels_found: int = 0
    levels_expected: int = 0

    @property
    def failed(self) -> bool:
        return self.status != OK


def _close(value, ref, rel=E0_REL_TOL):
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def _write_config(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _csv_rows(text, header):
    """Rows of a CSV text as dicts, or None when its header lacks a column."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not set(header) <= set(reader.fieldnames):
        return None
    return list(reader)


def _random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


class Workload:
    """Inputs for one workload and seed; `argv[i]` is op i, `check(i, ...)` its check.

    The constructor only generates inputs (it is part of the timed set-up);
    `prepare()` computes the reference data the checks need and runs once,
    outside the set-up timing.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        workdir.mkdir(parents=True, exist_ok=True)
        self.argv = []

    def prepare(self):
        pass

    def check(self, i, code, out, err) -> Outcome:
        raise NotImplementedError


class Bae(Workload):
    """`bae --config` on integrable configs with t proportional to s, one op per sector.

    The seed draws s (direction and length), t = c s, the split of omega and
    alpha, but keeps eta = 1, zeta = s.t = 1 and W = sum(omega) = n.  The
    rapidity equations depend on (eta, zeta, W) only, so every seed poses the
    same root-finding problem: pass_s and bethe_coverage stay comparable across
    seeds, while the Hamiltonian matrices, Bethe vectors and energies (alpha
    shifts them by alpha N^2) differ.
    """

    name = "bae"
    # (n_levels, N); n=1, N=3 is where the multi-start solver finds 3 of 4 states.
    SECTORS = ((1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.models, configs = {}, {}
        for n in sorted({n for n, _ in self.SECTORS}):
            c = self.rng.uniform(0.5, 2.0)
            s = _random_unit(self.rng, n) / math.sqrt(c)
            spread = self.rng.standard_normal(n)
            self.models[n] = {
                "kind": "integrable",
                "n_levels": n,
                "eta": 1.0,
                "omega": (1.0 + 0.5 * (spread - spread.mean())).tolist(),
                "s": s.tolist(),
                "t": (c * s).tolist(),
                "alpha": float(self.rng.uniform(0.5, 1.5)),
            }
            configs[n] = _write_config(workdir / f"bae_n{n}.json", {"model": self.models[n]})
        self.argv = [["bae", "--config", configs[n], "--atoms", str(N)] for n, N in self.SECTORS]

    def prepare(self):
        self.levels = {}
        for n, N in self.SECTORS:
            m = self.models[n]
            c = reference.integrable_couplings(
                n, m["eta"], np.array(m["omega"]), np.array(m["s"]), np.array(m["t"]), m["alpha"]
            )
            self.levels[(n, N)] = reference.Sector(c, N).eigenvalues(c["mu"])

    def check(self, i, code, out, err):
        n, N = self.SECTORS[i]
        levels = self.levels[(n, N)]
        base = dict(bethe_expected=N + 1, levels_expected=levels.size)
        if code != 0:
            return Outcome(ERROR, f"exit code {code}", **base)
        cols = ("solution_id", "root_index", "energy", "bae_residual", "eigvec_residual",
                "matched_eigenvalue", "delta")
        rows = _csv_rows(out, cols)
        if rows is None:
            return Outcome(ERROR, "CSV header lacks a column", **base)
        solutions = {}
        for row in rows:
            solutions.setdefault(row["solution_id"], []).append(row)
        base["bethe_found"] = len(solutions)
        if len(solutions) > N + 1:
            return Outcome(WRONG, f"{len(solutions)} Bethe states > N+1 = {N + 1}", **base)
        energies = []
        for sid, group in solutions.items():
            first = group[0]
            if any(r["energy"] != first["energy"] for r in group):
                return Outcome(WRONG, f"{sid}: rows disagree on the energy", **base)
            if sum(int(r["root_index"]) >= 0 for r in group) != N:
                return Outcome(WRONG, f"{sid}: expected {N} roots", **base)
            energy = float(first["energy"])
            if not float(first["bae_residual"]) <= BAE_RESIDUAL_GATE:
                return Outcome(WRONG, f"{sid}: BAE residual {first['bae_residual']}", **base)
            if not float(first["eigvec_residual"]) <= EIGVEC_RESIDUAL_GATE:
                return Outcome(WRONG, f"{sid}: eigenvector residual {first['eigvec_residual']}", **base)
            if first["matched_eigenvalue"] == "" or not float(first["delta"]) <= MATCH_TOL:
                return Outcome(WRONG, f"{sid}: not matched to the spectrum within {MATCH_TOL:g}", **base)
            if abs(float(first["matched_eigenvalue"]) - energy) > MATCH_TOL:
                return Outcome(WRONG, f"{sid}: matched level disagrees with its energy", **base)
            energies.append(energy)
        # each Bethe energy must consume its own reference level
        free = np.ones(levels.size, dtype=bool)
        for energy in sorted(energies):
            gaps = np.where(free, np.abs(levels - energy), np.inf)
            k = int(np.argmin(gaps))
            if gaps[k] > MATCH_TOL:
                return Outcome(WRONG, f"energy {energy!r} is no reference level", **base)
            free[k] = False
        return Outcome(OK, levels_found=len(energies), **base)


def scan_couplings(mu1):
    """The fig2 reference parameter set at mu2 = 0 (mu2 enters through `mu`):
    U_ppjj = U_abjk = 1, U_pp12 = 2, eps_a = (-2, 2), eps_b = (1, -1), Omega_jk = 1/2."""
    return {
        "n": 2,
        "U_aa": [[1.0, 2.0], [2.0, 1.0]],
        "U_bb": [[1.0, 2.0], [2.0, 1.0]],
        "U_ab": [[1.0, 1.0], [1.0, 1.0]],
        "mu": [mu1, 0.0],
        "eps_a": [-2.0, 2.0],
        "eps_b": [1.0, -1.0],
        "Omega": [[0.5, 0.5], [0.5, 0.5]],
    }


class Scan(Workload):
    """`fig2` ground-state scans, one op per atom number.

    N = 8, 16, 24 (d = 165, 969, 2925) straddle the eigensolver's dense
    threshold of 2000.  The seed sets mu1 and the grid offset; the grid length
    is fixed, so every seed does the same amount of work.
    """

    name = "scan"
    ATOMS = (8, 16, 24)
    POINTS = 8
    STEP = 0.625

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.mu1 = float(self.rng.uniform(0.5, 2.0))
        start = float(self.rng.uniform(0.0, self.STEP))
        self.grid = [start + k * self.STEP for k in range(self.POINTS)]
        spec = f"{start!r}:{self.grid[-1]!r}:{self.STEP!r}"
        self.argv = [
            ["fig2", "--atoms", str(N), "--grid", spec, "--mu1", repr(self.mu1)]
            for N in self.ATOMS
        ]

    def prepare(self):
        self.e0 = []
        for N in self.ATOMS:
            sector = reference.Sector(scan_couplings(self.mu1), N)
            self.e0.append(
                [sector.ground_energy([self.mu1, x * self.mu1]) / self.mu1 for x in self.grid]
            )

    def check(self, i, code, out, err):
        N = self.ATOMS[i]
        base = dict(levels_expected=self.POINTS)
        if code != 0:
            return Outcome(ERROR, f"exit code {code}", **base)
        rows = _csv_rows(out, ("N", "mu2_over_mu1", "E0_over_mu1"))
        if rows is None:
            return Outcome(ERROR, "CSV header lacks a column", **base)
        if len(rows) > self.POINTS:
            return Outcome(WRONG, f"{len(rows)} rows > {self.POINTS} grid points", **base)
        for k, row in enumerate(rows):
            x, e0 = float(row["mu2_over_mu1"]), float(row["E0_over_mu1"])
            if int(row["N"]) != N or abs(x - self.grid[k]) > 1e-12:
                return Outcome(WRONG, f"row {k} is not grid point (N={N}, x={self.grid[k]!r})", **base)
            if not _close(e0, self.e0[i][k]):
                return Outcome(WRONG, f"N={N} x={x!r}: E0/mu1 {e0!r} != reference {self.e0[i][k]!r}", **base)
        if len(rows) < self.POINTS:
            return Outcome(INCOMPLETE, f"{len(rows)} of {self.POINTS} grid points", levels_found=len(rows), **base)
        return Outcome(OK, levels_found=len(rows), **base)


class Spectrum(Workload):
    """`spectrum --config` on seeded non-integrable couplings, n = 2, one op per N.

    N = 0..18 plus N = 21 (d = 2024, just above the dense threshold), where the
    program prints 1 row of 2024: that op is counted as failed, not sized away.
    """

    name = "spectrum"
    ATOMS = tuple(range(19)) + (21,)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        r = self.rng

        def sym(lo, hi):
            m = r.uniform(lo, hi, size=(2, 2))
            return ((m + m.T) / 2).tolist()

        self.model = {
            "kind": "physical",
            "n_levels": 2,
            "U_aa": sym(0.5, 1.5),
            "U_bb": sym(0.5, 1.5),
            "U_ab": r.uniform(0.0, 1.0, size=(2, 2)).tolist(),
            "mu": r.uniform(-1.0, 1.0, size=2).tolist(),
            "eps_a": r.uniform(-2.0, 2.0, size=2).tolist(),
            "eps_b": r.uniform(-2.0, 2.0, size=2).tolist(),
            "Omega": r.uniform(0.2, 0.8, size=(2, 2)).tolist(),
        }
        cfg = _write_config(workdir / "spectrum.json", {"model": self.model})
        self.argv = [["spectrum", "--config", cfg, "--atoms", str(N)] for N in self.ATOMS]

    def prepare(self):
        c = {**self.model, "n": 2}
        self.refs = []
        for N in self.ATOMS:
            sector = reference.Sector(c, N)
            self.refs.append(
                (sector.dim, sector.trace(c["mu"]), sector.frobenius_sq(c["mu"]), sector.ground_energy(c["mu"]))
            )

    def check(self, i, code, out, err):
        N = self.ATOMS[i]
        dim, trace, frob_sq, e0 = self.refs[i]
        base = dict(levels_expected=dim)
        if code != 0:
            return Outcome(ERROR, f"exit code {code}", **base)
        rows = _csv_rows(out, ("n_atoms", "index", "eigenvalue"))
        if rows is None:
            return Outcome(ERROR, "CSV header lacks a column", **base)
        if not rows:
            return Outcome(INCOMPLETE, "no rows", **base)
        if any(int(r["n_atoms"]) != N for r in rows) or [int(r["index"]) for r in rows] != list(range(len(rows))):
            return Outcome(WRONG, "rows are not indices 0.. of this sector", **base)
        vals = np.array([float(r["eigenvalue"]) for r in rows])
        if np.any(np.diff(vals) < -1e-12):
            return Outcome(WRONG, "eigenvalues are not ascending", **base)
        if not _close(vals[0], e0):
            return Outcome(WRONG, f"lowest eigenvalue {float(vals[0])!r} != reference {e0!r}", **base)
        if vals.size > dim:
            return Outcome(WRONG, f"{vals.size} rows > dim {dim}", **base)
        if vals.size < dim:
            return Outcome(INCOMPLETE, f"{vals.size} of {dim} rows", levels_found=vals.size, **base)
        scale = dim * max(1.0, float(np.max(np.abs(vals))))
        if abs(vals.sum() - trace) > SUM_TOL * scale:
            return Outcome(WRONG, f"sum of eigenvalues {float(vals.sum())!r} != trace {trace!r}", **base)
        if abs(np.sum(vals**2) - frob_sq) > 2 * SUM_TOL * scale * max(1.0, float(np.max(np.abs(vals)))):
            return Outcome(WRONG, "sum of squared eigenvalues != squared Frobenius norm", **base)
        return Outcome(OK, levels_found=dim, **base)


class Verify(Workload):
    """`verify --suite all --seed s` for a few seeded s: every check must print PASS."""

    name = "verify"
    RUNS = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        draws = self.rng.integers(0, 2**31 - 1, size=self.RUNS)
        self.argv = [["verify", "--suite", "all", "--seed", str(int(s))] for s in draws]

    def check(self, i, code, out, err):
        lines = [line for line in out.splitlines() if line.strip()]
        failing = [line for line in lines if not line.endswith(" PASS")]
        if failing:
            return Outcome(WRONG, f"check did not pass: {failing[0]}")
        if code != 0:
            return Outcome(ERROR, f"exit code {code}")
        if not lines:
            return Outcome(ERROR, "no check lines")
        return Outcome(OK)


WORKLOADS = {w.name: w for w in (Bae, Scan, Spectrum, Verify)}
