"""Run one benchmark workload of the twowell CLI and print its metrics.

    python3 bench/run.py --workload bae|scan|spectrum|verify --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src (never from
an installed copy) and driven by a single closed-loop client: each op is one
in-process call of twowell.cli.main(argv), started when the previous one has
been checked.  A pass runs every op of the workload once and checks every
output.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see spans.py).  The
end-to-end times are scaled to a reference host speed (see `HostClock`); the
per-layer times are plain wall time.  The last line of standard output is the
JSON result; the lines before it are a readable summary and the run context.
Run files go to bench/out/.
"""

import argparse
import collections
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_ROUNDS = 5
# Host-speed probes of the end-to-end timings: one every PROBE_EVERY_S, and
# PROBE_REF_S is the probe time of the reference host speed (see `HostClock`).
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.4e-3

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("bethe_coverage", "ratio"),
    ("ed_coverage", "ratio"),
)


# One client on one CPU: the BLAS/OpenMP pools get one thread (set before
# numpy is imported), and each op is pinned to a single CPU by `pick_cpu`.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
CPUS = sorted(os.sched_getaffinity(0))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _probe():
    """A few milliseconds of small-array numpy work, like the solver loops."""
    v = np.arange(3.0)
    start = time.perf_counter()
    for _ in range(300):
        np.abs(v * 1.5 + 1j).sum()
    return time.perf_counter() - start


def pick_cpu():
    """Pin this process to the allowed CPU that runs a short probe fastest;
    return (that CPU, its probe time).

    On a shared host other tenants slow each virtual CPU by up to 2x, in
    spells of seconds to minutes that come and go per CPU.  Left to the
    scheduler, one process mixes fast and slow CPUs; choosing the faster CPU
    before each op halved the run-to-run spread of `scan` on a 2-vCPU VM.
    The probe runs between ops and is not part of any timing.
    """
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe() for _ in range(3))
    cpu = min(speed, key=speed.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, speed[cpu]


_PROBE_V = np.arange(3.0)


def _speed_probe():
    """About half a millisecond of fixed interpreter and small-array numpy work."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    for _ in range(60):
        np.abs(_PROBE_V * 1.5 + 1j).sum()


class HostClock:
    """Times stretches of work in seconds of a reference host speed.

    A shared host changes the speed of a virtual CPU by up to 2x within
    seconds, with CPU time and wall time alike (it is contention for the
    physical core, not stolen time), so run-to-run spreads of plain wall time
    reach 10-50%, the most on the interpreter-bound workloads.  While the
    clock runs, SIGALRM interrupts the work every PROBE_EVERY_S (first after
    1 ms) and times `_speed_probe` on the same CPU; the handler runs between
    bytecodes of the main thread, after any long call into compiled code
    returns.  `wall` sums the stretches less the probes; `s` scales it by
    PROBE_REF_S over the mean probe time of all stretches: the time the work
    would take on a CPU that runs the probe in PROBE_REF_S.  The probe is
    fixed code outside the program, so a change of the program moves `s` as
    it moves the wall time on a steady host.
    """

    def __init__(self):
        self.wall = 0.0
        self.probes = []

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        _speed_probe()
        self.probes.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self._sample)
        before = len(self.probes)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 1e-3, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall += time.perf_counter() - start - sum(self.probes[before:])

    @property
    def s(self):
        if not self.probes:  # too short to be interrupted: probe right after
            self._sample()
        return self.wall * PROBE_REF_S / statistics.fmean(self.probes)


def import_program():
    """Import twowell.cli from ./src afresh (dropping any loaded copy)."""
    for name in [m for m in sys.modules if m == "twowell" or m.startswith("twowell.")]:
        del sys.modules[name]
    cli = importlib.import_module("twowell.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"twowell was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, argv):
    """One op: (exit code, stdout, stderr).  A raised exception is a traceback,
    reported as exit code None with the traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the op failed; the run goes on and counts it
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, wl, outcomes, probes, tracer=None):
    """Run and check every op once; return the pass's (time, wall time),
    checks included and the CPU choice between ops excluded.  An untraced
    pass is timed by a `HostClock`; a traced one by wall time only, so that
    no probe lands in a span, and both figures are its wall time."""
    clock = HostClock()
    wall = 0.0
    for i, argv in enumerate(wl.argv):
        probes.append(pick_cpu())
        if tracer is None:
            with clock.running():
                outcomes.append(wl.check(i, *run_op(cli, argv)))
        else:
            tracer.op += 1
            start = time.perf_counter()
            outcomes.append(wl.check(i, *run_op(cli, argv)))
            wall += time.perf_counter() - start
    return (clock.s, clock.wall) if tracer is None else (wall, wall)


def git_sha():
    """HEAD commit read from .git without starting git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def coverage(outcomes, found, expected):
    """sum(found) / sum(expected) over ops; 1.0 when no op expects anything."""
    want = sum(getattr(o, expected) for o in outcomes)
    return sum(getattr(o, found) for o in outcomes) / want if want else 1.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twowell" / "cli.py").is_file():
        print(f"error: program source {SRC / 'twowell'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{args.workload}-seed{args.seed}"
    Workload = workloads.WORKLOADS[args.workload]

    # Reference data for the checks: computed once, not part of set-up time.
    t0 = time.perf_counter()
    wl = Workload(args.seed, workdir)
    wl.prepare()
    reference_s = time.perf_counter() - t0

    # Set-up: import the program, generate the inputs, run and check one warm-up op.
    warmup, setups, setups_wall, probes = [], [], [], []
    for _ in range(SETUP_ROUNDS):
        probes.append(pick_cpu())
        with HostClock().running() as clock:
            cli = import_program()
            fresh = Workload(args.seed, workdir)
            warmup.append(wl.check(0, *run_op(cli, fresh.argv[0])))
        setups.append(clock.s)
        setups_wall.append(clock.wall)

    # plain: untraced passes as (time, wall time); traced: wall times
    outcomes, plain, traced = [], [], []
    tracer = spans.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while True:
        done = [wall for _, wall in plain] + traced
        if done and (tracer is None or traced):
            # start no pass that would likely end past the deadline
            if time.perf_counter() + statistics.median(done) > deadline:
                break
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(cli, wl, outcomes, probes, tracer)[1])
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(cli, wl, outcomes, probes))

    failed = sum(o.failed for o in outcomes)
    correct = all(o.status != workloads.WRONG for o in warmup + outcomes)
    plain_s = [s for s, _ in plain]
    plain_wall = [wall for _, wall in plain]
    if args.trace:
        layer = tracer.layer_metrics(len(traced))
        layer["trace.pass_s"] = statistics.median(traced)
        layer["trace.untraced_pass_s"] = statistics.median(plain_wall)
        layer["trace.overhead_s"] = layer["trace.pass_s"] - layer["trace.untraced_pass_s"]
        # what the layers' self times leave of a traced pass: the benchmark's checks
        layer["trace.outside_s"] = statistics.fmean(traced) - sum(
            layer[f"{k}.self_s"] for k in spans.TRACED
        )
        specs = spans.metric_specs()
        values = layer
        samples = {"traced_passes": traced, "untraced_passes": plain_wall}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(plain_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / len(outcomes),
            "bethe_coverage": coverage(outcomes, "bethe_found", "bethe_expected"),
            "ed_coverage": coverage(outcomes, "levels_found", "levels_expected"),
        }
        specs = END_TO_END
        samples = {"setup_s": setups, "setup_wall_s": setups_wall, "passes": plain_s,
                   "passes_wall_s": plain_wall, "ops": len(outcomes)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(CPUS),
        "ops_per_cpu": {str(c): n for c, n in sorted(collections.Counter(c for c, _ in probes).items())},
        "probe_ms_median": 1e3 * statistics.median(t for _, t in probes),
        "host_probe_ref_ms": 1e3 * PROBE_REF_S,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "samples": samples,
        "reference_s": reference_s,
        "wait_s": "none: one thread, no queues",
    }
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.jsonl")
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} ops, {failed} failed, correct {correct}")
    seen = set()
    for o in warmup + outcomes:
        if o.failed and o.reason not in seen:
            seen.add(o.reason)
            print(f"  failed op ({o.status}): {o.reason}")
    for name, unit in specs:
        print(f"  {name:48s} {values[name]:14.6g} {unit}")
    if args.trace:
        print("  wait time: none (one thread, no queues)")
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0



if __name__ == "__main__":
    sys.exit(main())
