"""Command-line front end.

Verbs:
  verify    run the algebraic-relation residual suites (ybe, rll, tcommute,
            charges, hrel, all) with the levels and atom numbers of the
            SUITES table (--n and --atoms are refused where no selected
            suite has them), after checking every sector they would enumerate
            with fock.check_sector_fits, and the two Lax operators of one rll
            draw, the only dense matrices formed, and tcommute's commutator
            stacks against model.DENSE_BYTES_CAP (yangbaxter.check_rll_fits
            and check_commutator_fits, which rll_residual and
            transfer_commutator_residual also call before they build, so that
            every refusal is found before any suite); each sector is enumerated
            once per run and shared by the suites that use it; hrel and the
            charges compare hop terms (fock.hop_gap) or read C0's entries,
            so only tcommute multiplies sparse matrices
  spectrum  exact-diagonalization spectrum as CSV: every level of every
            sector (H in the layer order of fock.enumerate_sector, solved
            from its band where the band is narrow, densely otherwise), or
            an error if a sector's dense matrix would exceed
            model.DENSE_BYTES_CAP, whichever path it would take
  bae       solve the rapidity equations in the gauge t = +-s, cross-check
            against the couplings as given, emit CSV rows (and with --out a
            JSON report on stdout); each state's energy is exact, and its
            roots are kept only if they give it back; the reference is
            bethe.collective_levels, the levels of H on its N+1 collective
            states with the certificate r, and an energy is matched only
            within MATCH_TOL - r of a level, so within MATCH_TOL of an exact
            eigenvalue of H; each sector is sized by fock.check_sector_fits
            and bethe.check_solve_fits, with no dense d x d matrix
  fig2      ground-state scan E0/mu1 versus mu2/mu1 for the reference
            non-integrable parameter set, as CSV (lowest level only: one
            sparse Lanczos call per sector solves its whole grid; every sector
            checked with fock.check_sector_fits first)
  identify  map physical couplings to the integrable family, report as JSON

Each verb parses its input, checks the size of all it will build, computes
and prints.  spectrum and bae share one front, `_model_front`, which returns
(kind, params, mp, atoms): the model as parsed, mp its couplings as given
(what spectrum diagonalizes and bae's reference reads) and the atom numbers.
A refusal is raised as `_Refused`; only `main` prints it, one `error:` line
per reason, and exits 1, as it does for an OSError from writing the output.

A level count, from --n or a config's model.n_levels, is refused before any
model is built unless LEVEL_MATRICES n x n float64 matrices fit
model.DENSE_BYTES_CAP: no sector check bounds them, since N = 0 has one state.
A config's JSON is parsed before this check, which does not bound the parser.
Atom numbers, from --atoms or a config's n_atoms, are refused if one repeats.
Every sector a verb enumerates is sized, before any is built, by the checks
of the modules that allocate it (`_sector_errors`): the CLI's own bounds,
LEVEL_MATRICES and GRID_POINTS_CAP, bound only what it parses.

Configs are single JSON documents whose only top-level keys are 'model' and
'n_atoms', and whose couplings are JSON numbers or arrays of them, never
strings or booleans; numbers are printed with 17 significant digits so CSV
output is byte-deterministic for a fixed config (and, for verify, seed).
Exit codes: 0 success/all-pass, 1 validation or integrability failure,
2 numerical-threshold failure.
"""

import argparse
import dataclasses
import functools
import io
import itertools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import bethe, fock, model, yangbaxter
from .model import ModelParams
from .yangbaxter import IntegrableParams, default_integrable_params

GRID_POINTS_CAP = 100_000
# n x n float64 matrices alive at once on the costliest way to n levels, a
# physical config in bae or identify: the four couplings ModelParams holds and
# three temporaries of yangbaxter.validate_model's rank-1 check (tracemalloc
# peak 7.06 n^2 doubles at n = 600; identify_parameters peaks at 5.03)
LEVEL_MATRICES = 7


class _Refused(Exception):
    """Input a verb refuses: `main` prints each argument as an `error:` line."""


def _refuse_if(errors):
    if errors:
        raise _Refused(*errors)


def _refusals(rows):
    """One `label: message` line per (label, check, *args) row whose
    check(*args) raises ValueError, in row order."""
    errors = []
    for label, check, *args in rows:
        try:
            check(*args)
        except ValueError as exc:
            errors.append(f"{label}: {exc}")
    return errors


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path, errors):
    """The JSON object at `path`, whose only keys may be 'model' and 'n_atoms'
    (an unknown key goes to `errors`); refused if it cannot be read as one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # recursion: arrays nested too deep
        raise _Refused(f"config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise _Refused(f"config {path}: top level must be a JSON object")
    unknown = [k for k in cfg if k not in ("model", "n_atoms")]
    if unknown:
        errors.append(f"config: unknown top-level keys {unknown}; the keys are 'model' and 'n_atoms'")
    return cfg


def _levels_errors(name, n):
    """Why n levels are refused, if they are: LEVEL_MATRICES n x n float64
    matrices must fit model.DENSE_BYTES_CAP.  n < 1 is left to the callers."""
    return _refusals([(f"{name} = {n}", model.check_fits, f"{LEVEL_MATRICES} n x n float64 coupling matrices need",
                       LEVEL_MATRICES * 8 * max(n, 0) ** 2)])


def _numbers_only(value):
    """True for a JSON number or an array, nested to any depth, of numbers only
    (a bool is not a number)."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(item)
        elif type(item) not in (int, float):
            return False
    return True


def _model_from_config(cfg, errors):
    """Returns ('integrable', IntegrableParams) or ('physical', ModelParams)."""
    block = cfg.get("model")
    if block is None:
        errors.append("config: missing 'model' block")
        return None
    if not isinstance(block, dict):
        errors.append(f"config: 'model' must be a JSON object, got {type(block).__name__}")
        return None
    kind = block.get("kind")
    if kind not in ("integrable", "physical"):
        errors.append(f"config: model.kind must be 'integrable' or 'physical', got {kind!r}")
        return None
    cls = IntegrableParams if kind == "integrable" else ModelParams
    fields = [f.name for f in dataclasses.fields(cls)]
    missing = [f for f in fields if f not in block]
    unknown = [k for k in block if k not in fields and k != "kind"]
    if missing:
        errors.append(f"config: model block missing fields {missing}")
    if unknown:
        errors.append(f"config: model block has unknown fields {unknown}")
    if missing or unknown:
        return None
    # counts are JSON integers (type() excludes bools), never truncated floats
    if type(block["n_levels"]) is not int:
        errors.append(f"config: model.n_levels must be an integer, got {block['n_levels']!r}")
        return None
    if level_errors := _levels_errors("config: model.n_levels", block["n_levels"]):
        errors += level_errors
        return None
    # couplings are JSON numbers, which the parameter classes would also read from strings
    strings = [f for f in fields if f != "n_levels" and not _numbers_only(block[f])]
    if strings:
        errors.append(f"config: model fields {strings} must be JSON numbers or arrays of numbers")
        return None
    try:
        params = cls(**{f: block[f] for f in fields})
    except (ValueError, TypeError, OverflowError) as exc:  # overflow: an integer beyond float64
        errors.append(f"config: invalid model parameters: {exc}")
        return None
    return kind, params


def _atoms_from(cfg, args, errors, default=(1,)):
    if args.atoms is not None:
        try:
            atoms = [int(x) for x in args.atoms.split(",")]
        except ValueError:
            errors.append(f"invalid atom list {args.atoms!r}")
            return list(default)
    elif "n_atoms" in cfg:
        atoms = cfg["n_atoms"]
        if not (isinstance(atoms, list) and all(type(a) is int for a in atoms)):
            errors.append(f"config: n_atoms must be a list of integers, got {atoms!r}")
            return list(default)
    else:
        return list(default)
    bad = [a for a in atoms if a < 0]
    if bad:
        errors.append(f"atom numbers must be >= 0, got {bad}")
    if len(set(atoms)) < len(atoms):  # a repeat would repeat its sector's output
        errors.append(f"atom numbers must be distinct, got {atoms}")
    return atoms


def _model_front(args, dense):
    """(kind, params, mp, atoms) of spectrum and bae: the model of --config, or
    the default integrable one of --n levels (2 without --n); mp, its
    couplings as given (params, or an integrable block's identify_parameters);
    and the atom numbers.  Refuses bad input, then every sector whose
    occupation rows, or where `dense` its dense matrix, would not fit, before
    any sector is built."""
    errors = []
    if args.config:
        cfg = _load_config(args.config, errors)
        parsed = _model_from_config(cfg, errors)
    else:
        cfg, parsed = {}, ("integrable", default_integrable_params(args.n or 2))
    atoms = _atoms_from(cfg, args, errors)
    _refuse_if(errors)
    kind, params = parsed
    _refuse_if(_sector_errors([(params.n_levels, N) for N in atoms], dense))
    mp = params if kind == "physical" else yangbaxter.identify_parameters(params)
    return kind, params, mp, atoms


def _validated(params):
    """validate_model's report on physical couplings; refused where they overflow float64."""
    try:
        return yangbaxter.validate_model(params)
    except ValueError as exc:
        raise _Refused(str(exc)) from None


def _echo_model(kind, params):
    """Every field of the parameters as JSON, arrays as lists: a valid model block."""
    echo = {"kind": kind}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        echo[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return echo


def _report_json(command, config_echo, results, residual_summary):
    return json.dumps(
        {
            "command": command,
            "config_echo": config_echo,
            "results": results,
            "residual_summary": residual_summary,
        },
        indent=2,
        sort_keys=True,
    )


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # one from a write or the close names no file
        exc.filename = path
        raise


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _draw_away_from_poles(rng, eta):
    while True:
        u = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        v = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        if min(abs(u + eta), abs(v + eta), abs(u - v + eta)) > 0.05:
            return u, v


def _gated(name, residual, threshold):
    """A verify check (name, residual, gate text, passed): residual <= threshold passes."""
    return name, residual, f"threshold {threshold:g}", residual <= threshold


def _suite_ybe(rng, levels, atoms):
    draws = []  # (u, v, eta), drawn in turn; checked as one stack
    for _ in range(100):
        eta = (-1.0, 1.0)[rng.integers(2)] * rng.uniform(0.1, 3.0)
        draws.append((*_draw_away_from_poles(rng, eta), eta))
    u, v, eta = (np.array(column) for column in zip(*draws))
    return [_gated("ybe 100 draws", float(np.max(yangbaxter.ybe_residual(u, v, eta))), 1e-12)]


def _random_ip(rng, n):
    while True:
        s = rng.standard_normal(n)
        t = rng.standard_normal(n)
        if abs(np.dot(s, t)) > 0.2:
            return IntegrableParams(n, 1.0, np.ones(n), s, t, alpha=1.0)


def _suite_rll(rng, levels, atoms):
    checks = []
    for n in levels:
        draws = []  # (ip, u, v), drawn in turn; checked as one call
        for _ in range(20):
            ip = _random_ip(rng, n)
            draws.append((ip, *_draw_away_from_poles(rng, ip.eta)))
        # the zeta-shift control is the call's 21st and last draw
        ips, u, v = zip(*draws, (default_integrable_params(n), 0.9, -0.4))
        shift = np.zeros(21)
        shift[-1] = 0.1
        *residuals, control = yangbaxter.rll_residual(np.array(u), np.array(v), ips, zeta_shift=shift)
        checks.append(_gated(f"rll n={n} 20 draws", float(max(residuals)), 1e-12))
        control = float(control)
        checks.append((f"rll n={n} zeta-shift control (>= 1e-3)", control, "control", control >= 1e-3))
    return checks


def _suite_tcommute(rng, levels, atoms, sector_of=fock.enumerate_sector):
    checks = []
    for n, N in itertools.product(levels, atoms):
        ip = default_integrable_params(n)
        sector = sector_of(n, N)
        # row i is (Re u_i, Im u_i, Re v_i, Im v_i), drawn in that order
        u, v = rng.uniform(-3, 3, size=(20, 4)).view(complex).T
        worst = float(np.max(yangbaxter.transfer_commutator_residual(u, v, ip, sector)))
        checks.append(_gated(f"tcommute n={n} N={N} 20 pairs", worst, 1e-10))
    return checks


def _diag_commutator_gap(A, c):
    """Max-abs entry of A @ D - D @ A, D = diag(c), read from the CSR entries
    of A: entry (i, j) is x c_j - c_i x, the two products and one difference
    the sparse products compute, so bitwise their value; 0.0 if A stores none."""
    x = A.data
    return float(np.max(np.abs(x * c[A.indices] - np.repeat(c, np.diff(A.indptr)) * x), initial=0.0))


def _suite_charges(rng, levels, atoms, sector_of=fock.enumerate_sector):
    checks = []
    for n, N in itertools.product(levels, atoms):
        ip = default_integrable_params(n)
        sector = sector_of(n, N)
        pairs = yangbaxter.charge_terms(ip, sector)  # (diag, coeffs) of C0, C1, C2
        zero = np.zeros((n, n))
        c1_gap = fock.hop_gap(sector, pairs[1], (ip.eta * N, zero))
        c2_gap = fock.hop_gap(sector, pairs[2], (1.0, zero))
        # u^2 C2 + u C1 + C0 at three u, one block each, against t(u) at all three
        u = rng.uniform(-2, 2, size=(3, 1))
        w = u[:, :, None]
        (d0, c0), (d1, c1), (d2, c2) = pairs
        recon = ((u * u) * d2 + u * d1 + d0, (w * w) * c2 + w * c1 + c0)
        worst = fock.hop_gap(sector, yangbaxter.transfer_terms(u[:, 0], ip, sector), recon)
        C0 = fock.hop_operator(sector, d0, c0)
        comm = max(_diag_commutator_gap(C0, d1), _diag_commutator_gap(C0, d2),
                   float(np.max(np.abs(d1 * d2 - d2 * d1), initial=0.0)))
        checks.append(_gated(f"charges n={n} N={N} reconstruction", worst, 1e-12))
        checks.append(_gated(f"charges n={n} N={N} commutators", comm, 1e-12))
        checks.append(_gated(f"charges n={n} N={N} C1=etaN, C2=I", max(c1_gap, c2_gap), 0.0))
    return checks


def _suite_hrel(rng, levels, atoms, sector_of=fock.enumerate_sector):
    checks = []
    for n in levels:
        ips = [default_integrable_params(n), _random_ip(rng, n)]
        mps = [yangbaxter.identify_parameters(ip) for ip in ips]
        for N in atoms:
            sector = sector_of(n, N)
            worst = 0.0
            for ip, mp in zip(ips, mps):
                h_t = yangbaxter.transfer_hamiltonian_terms(ip, sector)
                h_m = model.hamiltonian_terms(mp, sector)
                worst = max(worst, fock.hop_gap(sector, h_t, h_m))
            checks.append(_gated(f"hrel n={n} N={N}", worst, 1e-12))
    return checks


# suite -> (residual function, levels without --n, atom numbers without
# --atoms); --n and --atoms replace only the defaults a suite has.  A suite
# with atom numbers also takes `sector_of(n, N)`, the run's sectors
SUITES = {
    "ybe": (_suite_ybe, (), ()),
    "rll": (_suite_rll, (1, 2, 3), ()),
    "tcommute": (_suite_tcommute, (2,), (1, 2, 3, 4)),
    "charges": (_suite_charges, (2,), (1, 2, 3)),
    "hrel": (_suite_hrel, (1, 2, 3), (0, 1, 2, 3, 4)),
}


def _sector_errors(pairs, dense=False):
    """One message per sector (n_levels, N) refused before it is enumerated: by
    model.check_dense_fits of its dimension d where `dense` (spectrum forms
    its d x d matrix), then by fock.check_sector_fits of its d rows."""
    def check(n, N):
        d = fock.dimension(n, N)
        if dense:
            model.check_dense_fits(d)
        fock.check_sector_fits(d, 2 * n)
    return _refusals((f"sector n={n}, N={N}", check, n, N) for n, N in pairs)


def _ed_levels(mp, N):
    """Every level of `mp` in the N-atom sector; refused where H overflows float64."""
    sector = fock.enumerate_sector(mp.n_levels, N)
    try:
        return model.spectrum(model.build_hamiltonian(mp, sector))
    except ValueError as exc:
        raise _Refused(f"sector n={mp.n_levels}, N={N}: H overflows float64 ({exc})") from None


def cmd_verify(args) -> int:
    errors = [] if args.seed >= 0 else [f"--seed must be >= 0, got {args.seed}"]
    given_atoms = tuple(_atoms_from({}, args, errors, default=()))
    selected = {name: row for name, row in SUITES.items() if args.suite in (name, "all")}
    # a suite takes --n if it has default levels, --atoms if it has default atom numbers
    for flag, given, column in (("--n", args.n, 1), ("--atoms", args.atoms, 2)):
        if given is not None and not any(row[column] for row in selected.values()):
            errors.append(f"--suite {args.suite} does not take {flag}")
    _refuse_if(errors)
    plan = {
        name: (suite, (args.n,) if args.n and levels else levels,
               given_atoms if given_atoms and atoms else atoms)
        for name, (suite, levels, atoms) in selected.items()
    }
    sectors = {(n, N) for _, levels, atoms in plan.values() for n in levels for N in atoms}
    # rll forms the only dense matrices; tcommute's sparse products outgrow the sector's rows
    rows = [(f"rll n={n}", yangbaxter.check_rll_fits, n) for n in plan.get("rll", (None, (), ()))[1]]
    _, levels, atoms = plan.get("tcommute", (None, (), ()))
    rows += [(f"tcommute n={n}, N={N}", yangbaxter.check_commutator_fits, n, N)
             for n, N in itertools.product(levels, atoms)]
    _refuse_if(_sector_errors(sorted(sectors)) + _refusals(rows))

    checks = []  # (name, residual, gate text, passed)
    sector_of = functools.cache(fock.enumerate_sector)  # each (n, N) once, with its hop table
    for suite, levels, atoms in plan.values():
        rng = np.random.default_rng(args.seed)
        checks += suite(rng, levels, atoms, sector_of) if atoms else suite(rng, levels, atoms)
    for name, residual, gate, passed in checks:
        print(f"{name}: max residual {residual:.3e} ({gate}) {'PASS' if passed else 'FAIL'}")

    if args.out:
        results = [{"check": name, "residual": residual, "pass": bool(passed)}
                   for name, residual, _, passed in checks]
        # the controls' residuals are large on purpose: the summary is the gated checks'
        gated = [residual for _, residual, gate, _ in checks if gate != "control"]
        summary = {"max_residual": max(gated, default=0.0),
                   "n_checks": len(results), "n_failed": sum(not r["pass"] for r in results)}
        config_echo = {"suite": args.suite, "seed": args.seed}
        _write_text(args.out, _report_json("verify", config_echo, results, summary) + "\n")
    return 0 if all(passed for *_, passed in checks) else 2


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    _, _, mp, atoms = _model_front(args, dense=True)
    buf = io.StringIO()
    buf.write("n_atoms,index,eigenvalue\n")
    for N in atoms:
        for i, val in enumerate(_ed_levels(mp, N)):
            buf.write(f"{N},{i},{_fmt(val)}\n")
    _write_text(args.out, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# bae
# ---------------------------------------------------------------------------

class _BetheState(NamedTuple):
    """A Bethe state bae keeps, with the reference level paired with it (None if none)."""

    n_atoms: int
    solution_id: str
    sol: bethe.BetheSolution
    level: float | None

    @property
    def eigvec_residual(self):
        return max(self.sol.h_residual, self.sol.t_residual)

    @property
    def delta(self):
        return None if self.level is None else abs(self.sol.energy - self.level)


def _bae_csv(states):
    """One CSV row per root of each state, and one with root_index -1 for a state of no atoms."""
    rows = ["solution_id,root_index,re_v,im_v,energy,bae_residual,eigvec_residual,matched_eigenvalue,delta"]
    for st in states:
        matched, delta = ("", "") if st.level is None else (_fmt(st.level), _fmt(st.delta))
        residuals = f"{_fmt(st.sol.residual)},{_fmt(st.eigvec_residual)}"
        common = f"{_fmt(st.sol.energy)},{residuals},{matched},{delta}"
        if st.n_atoms == 0:
            rows.append(f"{st.solution_id},-1,,,{common}")
        rows += [f"{st.solution_id},{ri},{_fmt(r.real)},{_fmt(r.imag)},{common}"
                 for ri, r in enumerate(st.sol.roots)]
    return "\n".join(rows) + "\n"


def cmd_bae(args) -> int:
    kind, params, mp, atoms = _model_front(args, dense=False)
    # the TQ work and binomials of solve_bae, which the row check does not count
    _refuse_if(_refusals((f"sector n={params.n_levels}, N={N}", bethe.check_solve_fits, N) for N in atoms))
    ip = params  # physical couplings are replaced by their integrable gauge
    if kind == "physical":
        report = _validated(params)
        if not report.integrable:  # identify writes the full report
            constraints = "; ".join(c for c, *_ in report.violations)
            raise _Refused(f"physical couplings are not integrable: {constraints}")
        ip = report.derived
    if any(atoms):  # solve_bae refuses N > 0 off this gauge: refuse before any sector
        try:
            bethe.check_proportional(ip)
        except ValueError as exc:
            raise _Refused(str(exc)) from None

    states, unconverged = [], 0  # each kept state; the states no sector's solve converged
    for N in atoms:
        # the reference is H of the couplings as given, so each match tests the gauge
        try:  # first: a Hamiltonian that overflows goes no further
            levels, residual = bethe.collective_levels(mp, N)
        except ValueError as exc:
            raise _Refused(f"sector n={mp.n_levels}, N={N}: H overflows float64 ({exc})") from None
        result = bethe.solve_bae(ip, N)
        match = bethe.match_spectrum(result.solutions, levels, residual)
        unconverged += result.rejected["unconverged"]
        states += [
            _BetheState(N, f"{N}_{sid}", sol, None if level < 0 else float(levels[level]))
            for sid, (sol, level) in enumerate(zip(result.solutions, match.index))
        ]

    csv_text = _bae_csv(states)
    matched = sum(st.level is not None for st in states)
    if not args.out:
        sys.stdout.write(csv_text)
        print(f"solutions: {len(states)}, matched: {matched}", file=sys.stderr)
        return 0
    # the JSON report goes to stdout only when the CSV does not
    _write_text(args.out, csv_text)
    solutions = [
        {"n_atoms": st.n_atoms, "solution_id": st.solution_id,
         "roots": [[r.real, r.imag] for r in st.sol.roots], "energy": st.sol.energy,
         "bae_residual": st.sol.residual, "h_residual": st.sol.h_residual,
         "t_residual": st.sol.t_residual, "matched_eigenvalue": st.level}
        for st in states
    ]
    attempts = sum(N + 1 for N in atoms)  # every sector tries its N+1 states
    summary = {
        "attempts": attempts,
        "converged": attempts - unconverged,
        "unique": len(states),
        "matched": matched,
        "spectrum_levels": sum(fock.dimension(mp.n_levels, N) for N in atoms),  # every level of H
        # each maximum starts at 0.0, as for no state
        "max_bae_residual": max([0.0, *(st.sol.residual for st in states)]),
        "max_eigvec_residual": max([0.0, *(st.eigvec_residual for st in states)]),
        "max_matched_delta": max([0.0, *(st.delta for st in states if st.level is not None)]),
    }
    config_echo = {"model": _echo_model("integrable", ip), "n_atoms": atoms}
    print(_report_json("bae", config_echo, {"solutions": solutions}, summary))
    return 0


# ---------------------------------------------------------------------------
# fig2
# ---------------------------------------------------------------------------

def scan_params(mu2: float, mu1: float = 1.0) -> ModelParams:
    """Reference two-level parameter set for the ground-state scan:
    U_ppjj = U_abjk = 1, U_pp12 = 2, eps_a = (-2, 2), eps_b = (1, -1),
    Omega_jk = 1/2, mu = (mu1, mu2).  Not integrable for generic mu2."""
    return ModelParams(
        n_levels=2,
        U_aa=[[1.0, 2.0], [2.0, 1.0]],
        U_bb=[[1.0, 2.0], [2.0, 1.0]],
        U_ab=[[1.0, 1.0], [1.0, 1.0]],
        mu=[mu1, mu2],
        eps_a=[-2.0, 2.0],
        eps_b=[1.0, -1.0],
        Omega=[[0.5, 0.5], [0.5, 0.5]],
    )


def _parse_grid(text, errors):
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        errors.append(f"invalid grid {text!r}: expected start:stop:step")
        return []
    if not all(map(math.isfinite, (start, stop, step))):
        errors.append(f"invalid grid {text!r}: start, stop and step must be finite")
        return []
    if step <= 0 or stop < start:
        errors.append(f"invalid grid {text!r}: need step > 0 and stop >= start")
        return []
    span = (stop - start) / step
    if not span <= GRID_POINTS_CAP - 1:
        errors.append(f"invalid grid {text!r}: more than {GRID_POINTS_CAP} points")
        return []
    count = int(round(span)) + 1
    # start + k * step misses stop by rounding relative to the grid's magnitude
    slack = 1e-12 * max(1.0, abs(start), abs(stop))
    return [start + k * step for k in range(count) if start + k * step <= stop + slack]


def cmd_fig2(args) -> int:
    errors = []
    atoms = _atoms_from({}, args, errors, default=(1, 2, 3, 4))
    grid = _parse_grid(args.grid, errors)
    mu1 = args.mu1
    if not math.isfinite(mu1) or mu1 == 0.0:
        errors.append(f"mu1 must be finite and nonzero (output is normalized by it), got {mu1!r}")
    elif grid and not all(math.isfinite(x * mu1) for x in (grid[0], grid[-1])):
        errors.append(f"mu2 = (mu2/mu1) * mu1 overflows on the grid {args.grid!r}")
    _refuse_if(errors or _sector_errors([(2, N) for N in atoms]))

    buf = io.StringIO()
    buf.write("N,mu2_over_mu1,E0_over_mu1\n")
    xs = [x * mu1 for x in grid]
    for N in atoms:
        # mu2 enters only through -mu2 (N_a2 - N_b2): H(mu2) = H0 + mu2 diag(N_b2 - N_a2)
        sector = fock.enumerate_sector(2, N)
        H0 = model.build_hamiltonian(scan_params(mu2=0.0, mu1=mu1), sector)
        D = sector.occ[:, 3] - sector.occ[:, 1]
        try:
            with np.errstate(over="ignore"):  # E0/mu1 is checked below
                e0 = model.lowest(H0, D, xs) / mu1
            bad = next((k for k, e in enumerate(e0) if not math.isfinite(e)), None)
        except model.NotConverged as exc:
            raise _Refused(
                f"N={N}, mu2/mu1={_fmt(grid[exc.index])}: "
                f"the lowest level did not converge in {model.LOWEST_STEP_CAP} Lanczos steps"
            ) from None
        except model.ShiftError as exc:
            bad = exc.index
        except ValueError:  # H0 itself overflows, so every point does
            bad = 0
        if bad is not None:
            raise _Refused(f"N={N}, mu2/mu1={_fmt(grid[bad])}: H or E0/mu1 overflows float64")
        buf.writelines(f"{N},{_fmt(x)},{_fmt(e)}\n" for x, e in zip(grid, e0))
    _write_text(args.out, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

def cmd_identify(args) -> int:
    if not args.config:
        raise _Refused("identify requires --config with a physical model block")
    errors = []
    parsed = _model_from_config(_load_config(args.config, errors), errors)
    _refuse_if(errors)
    kind, params = parsed
    if kind != "physical":
        raise _Refused("identify requires model.kind == 'physical'")

    report = _validated(params)
    results = {
        "integrable": report.integrable,
        "violations": [{"constraint": c, "lhs": l, "rhs": r, "scale": sc} for c, l, r, sc in report.violations],
        "derived": _echo_model("integrable", report.derived) if report.derived else None,
    }
    text = _report_json("identify", _echo_model(kind, params), results, {})
    print(text)
    if args.out:
        _write_text(args.out, text + "\n")
    if not report.integrable:
        raise _Refused("physical couplings are not integrable")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p, levels=True, config=False):
    # a config carries its own n_levels, so --n and --config exclude each other
    group = p.add_mutually_exclusive_group() if config else p
    if config:
        group.add_argument("--config", help="JSON config file")
    if levels:
        group.add_argument("--n", type=int, help="number of on-well levels (>= 1)")
    p.add_argument("--atoms", help="comma-separated total atom numbers")
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twowell",
        description="Two-well multi-state boson models: spectra, integrable-structure checks, rapidity equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run algebraic-relation residual suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0, help="random seed of the residual draws (default 0)")
    _add_common(p)

    p = sub.add_parser("spectrum", help="exact-diagonalization spectrum as CSV")
    _add_common(p, config=True)

    p = sub.add_parser("bae", help="solve the rapidity equations and cross-check")
    _add_common(p, config=True)

    p = sub.add_parser("fig2", help="ground-state scan E0/mu1 vs mu2/mu1 as CSV")
    _add_common(p, levels=False)  # the scan set has n = 2
    # argparse reads a value such as -1:0:0.5 or -1e-3 as an option; the = form
    # is always read as the value
    p.add_argument("--grid", default="0:5:0.05",
                   help="mu2/mu1 grid start:stop:step; give a negative start as --grid=-1:0:0.5")
    p.add_argument("--mu1", type=float, default=1.0,
                   help="normalizing potential; give a negative exponent form as --mu1=-1e-3")

    p = sub.add_parser("identify", help="check couplings against the integrable family")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output path (default: stdout)")  # n from the config; no atom numbers

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one verb; each refusal and failed write ends here, in `error:` lines and exit 1."""
    args = _parser().parse_args(argv)
    n = getattr(args, "n", None)
    try:
        if n is not None:
            _refuse_if([f"--n must be >= 1, got {n}"] if n < 1 else _levels_errors("--n", n))
        # looked up per call, so a cmd_* replaced on the module is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except _Refused as exc:
        lines = exc.args
    except OSError as exc:  # --out, or stdout if no file is named; configs: _load_config
        target = "standard output" if exc.filename is None else exc.filename
        lines = [f"cannot write {target}: {exc.strerror}"]
    for line in lines:
        print(f"error: {line}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
