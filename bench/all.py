"""Run every workload untraced and traced, and print all their metrics.

    python3 bench/all.py [--seed N] [--seconds S]

Run from the repository root.  For each workload this prints the end-to-end
metrics by name with unit and sample count, then the traced per-layer
figures: each layer's self time and share of the traced pass, the part of the
pass outside every layer (the benchmark's own output checks), the tracing
overhead, and the counts.  Each run is a separate process, so peak memory is
per workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    context = json.loads(next(line for line in lines if line.startswith("context: "))[len("context: "):])
    return json.loads(lines[-1]), context


def report(workload, seed, seconds):
    result, context = run(workload, seed, seconds, 0)
    samples = context["samples"]
    counts = {"setup_s": len(samples["setup_s"]), "pass_s": len(samples["passes"]), "peak_rss_mb": 1}
    print(f"== {workload} (seed {seed}): correct {result['correct']}, "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        n = counts.get(name, samples["ops"])
        print(f"  {name:16s} {m['value']:12.6g} {m['unit']:6s} n={n}")

    traced, context = run(workload, seed, seconds, 1)
    v = {name: m["value"] for name, m in traced["metrics"].items()}
    samples = context["samples"]
    print(f"  traced pass {v['trace.pass_s']:.4g} s ({len(samples['traced_passes'])} passes), "
          f"untraced {v['trace.untraced_pass_s']:.4g} s ({len(samples['untraced_passes'])} passes), "
          f"tracing overhead {v['trace.overhead_s']:+.4g} s")
    total = sum(v[f"{layer}.self_s"] for layer in spans.TRACED) + v["trace.outside_s"]
    for layer in spans.TRACED:
        print(f"    {layer:12s} self {v[f'{layer}.self_s']:10.4g} s  {v[f'{layer}.self_s'] / total:7.1%}")
    print(f"    {'(checks)':12s} self {v['trace.outside_s']:10.4g} s  {v['trace.outside_s'] / total:7.1%}")
    top = sorted(
        ((v[f"{layer}.{fn}.self_s"], f"{layer}.{fn}") for layer, fns in spans.TRACED.items() for fn in fns),
        reverse=True,
    )[:4]
    print("    top self time: " + ", ".join(f"{name} {t:.4g} s" for t, name in top))
    print("    counts per pass: " + ", ".join(
        f"{name.split('.', 1)[1]} {v[name]:.4g}" for name, _ in spans.COUNTS if v[name]))
    print("    wait time: none (one thread, no queues)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    for workload in workloads.WORKLOADS:
        report(workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
