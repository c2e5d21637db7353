"""Span tracing of the program's public functions, from outside the program.

`Tracer.install()` replaces each traced function at every place it is bound
in the loaded ``twowell`` modules (several are imported by name, for example
``bethe.transfer_matrix``, ``model.hopping_operator`` and
``yangbaxter.hopping_operator``) with a wrapper that records a span
``[id, parent id, op id, name, start, end]`` and the counts taken from the
call's arguments and return value.  Spans stay in memory until `write()`.
Self time is a span's duration minus the durations of its direct children.

The program is single-threaded and has no queues, so no span ever waits:
there is no wait time to report.
"""

import json
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("main", "cmd_verify", "cmd_spectrum", "cmd_bae", "cmd_fig2"),
    "fock": ("enumerate_sector", "hopping_operator"),
    "model": ("build_hamiltonian", "eigensolve"),
    "yangbaxter": (
        "transfer_matrix",
        "hamiltonian_from_transfer",
        "rll_residual",
        "ybe_residual",
        "transfer_commutator_residual",
        "conserved_charges",
        "identify_parameters",
        "validate_model",
    ),
    "bethe": ("solve_bae", "bethe_vector", "match_spectrum"),
}

# (name, unit) of the counts taken from arguments and return values.
COUNTS = (
    ("fock.enumerate_sector.states", "count"),
    ("model.build_hamiltonian.nnz", "count"),
    ("model.eigensolve.dim_max", "dim"),
    ("model.eigensolve.dense_bytes", "B"),
    ("model.eigensolve.used_ratio", "ratio"),
    ("bethe.solve_bae.attempts", "count"),
    ("bethe.solve_bae.retries", "count"),
    ("bethe.solve_bae.yield", "ratio"),
    ("bethe.match_spectrum.matched", "count"),
    ("bethe.match_spectrum.levels", "count"),
)

# Per-pass figures of the traced run as a whole.
RUN = (
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.outside_s", "s"),
)


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for layer, functions in TRACED.items():
        for fn in functions:
            specs += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.s", "s"), (f"{layer}.{fn}.self_s", "s")]
    specs += [(f"{layer}.self_s", "s") for layer in TRACED]
    return specs + list(COUNTS) + list(RUN)


def _enumerate_sector(c, args, kwargs, result, caller):
    c["states"] += result.dim


def _build_hamiltonian(c, args, kwargs, result, caller):
    c["nnz"] += result.nnz


def _eigensolve(c, args, kwargs, result, caller):
    H = args[0] if args else kwargs["H"]
    d = H.shape[0]
    computed = len(result.eigenvalues)
    c["dim_max"] = max(c["dim_max"], d)
    c["dense_bytes"] += 8 * d * d  # computed from d, not measured
    c["eig_computed"] += computed
    # fig2 reads eigenvalues[0] only; every other caller reads them all
    c["eig_used"] += 1 if caller == "cli.cmd_fig2" else computed


def _solve_bae(c, args, kwargs, result, caller):
    unique = len(result.solutions)
    attempts = getattr(result, "attempts", unique)
    c["attempts"] += attempts
    c["retries"] += attempts - getattr(result, "converged", attempts)
    c["unique"] += unique


def _match_spectrum(c, args, kwargs, result, caller):
    c["matched"] += result.n_matched
    c["levels"] += result.n_eigenvalues


COUNT_HOOKS = {
    "fock.enumerate_sector": _enumerate_sector,
    "model.build_hamiltonian": _build_hamiltonian,
    "model.eigensolve": _eigensolve,
    "bethe.solve_bae": _solve_bae,
    "bethe.match_spectrum": _match_spectrum,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.op = 0
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = COUNT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [len(spans), parent, self.op, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result, spans[parent][3] if parent >= 0 else None)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "twowell" or k.startswith("twowell.")]
        for layer, functions in TRACED.items():
            origin = sys.modules[f"twowell.{layer}"]
            for fname in functions:
                fn = getattr(origin, fname, None)
                if fn is None:  # removed from the program: reported as zero calls
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is fn]:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def layer_metrics(self, passes):
        """Per-pass means of every function and count metric over `passes` traced passes."""
        duration = [s[5] - s[4] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += duration[s[0]]
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for s in self.spans:
            calls[s[3]] += 1
            total[s[3]] += duration[s[0]]
            own[s[3]] += duration[s[0]] - child[s[0]]
        out = {}
        for layer, functions in TRACED.items():
            for fn in functions:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = calls[key] / passes
                out[f"{key}.s"] = total[key] / passes
                out[f"{key}.self_s"] = own[key] / passes
            out[f"{layer}.self_s"] = sum(own[f"{layer}.{fn}"] for fn in functions) / passes
        c = self.counts
        out["fock.enumerate_sector.states"] = c["states"] / passes
        out["model.build_hamiltonian.nnz"] = c["nnz"] / passes
        out["model.eigensolve.dim_max"] = c["dim_max"]
        out["model.eigensolve.dense_bytes"] = c["dense_bytes"] / passes
        out["model.eigensolve.used_ratio"] = c["eig_used"] / c["eig_computed"] if c["eig_computed"] else 0.0
        out["bethe.solve_bae.attempts"] = c["attempts"] / passes
        out["bethe.solve_bae.retries"] = c["retries"] / passes
        out["bethe.solve_bae.yield"] = c["unique"] / c["attempts"] if c["attempts"] else 0.0
        out["bethe.match_spectrum.matched"] = c["matched"] / passes
        out["bethe.match_spectrum.levels"] = c["levels"] / passes
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "op", "name", "start", "end"), s))) + "\n")
