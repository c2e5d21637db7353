"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the repository root.  It checks two things and exits 1 if either fails:

1. Each workload, run briefly untraced and traced, prints exactly the metric
   names and units that BENCHMARK.json declares.
2. Each workload's output check passes a real output of one op and rejects
   deliberately corrupted copies of it (an E0 perturbed by 1e-6, a truncated
   spectrum, a FAIL line, an unmatched Bethe energy, a nonzero exit, ...).
"""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_metric_names(failures):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                failures.append(
                    f"{label}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want[trace]) - set(got))}, "
                    f"extra {sorted(set(got) - set(want[trace]))}, "
                    f"units {sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])}"
                )
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                failures.append(f"{label}: bad result line {result}")
            print(f"  {label}: {len(got)} metrics")


def edit_csv(text, edit):
    """Apply `edit` to the list of row dicts of a CSV text and write it back."""
    reader = csv.DictReader(io.StringIO(text))
    rows = edit(list(reader))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def bump(row, column, by=1e-6):
    return {**row, column: repr(float(row[column]) + by)}


def corruptions(name, out):
    """(label, exit code, stdout, status a correct check must report)."""
    W = workloads
    if name == "bae":
        first = out.splitlines()[1].split(",")[0]  # solution_id of the first solution
        return [
            ("energy + 1e-6", 0, edit_csv(out, lambda rows: [
                bump(r, "energy") if r["solution_id"] == first else r for r in rows]), W.WRONG),
            ("unmatched solution", 0, edit_csv(out, lambda rows: [
                {**r, "matched_eigenvalue": "", "delta": ""} for r in rows]), W.WRONG),
            ("BAE residual 1e-6", 0, edit_csv(out, lambda rows: [
                {**r, "bae_residual": "1e-06"} for r in rows]), W.WRONG),
            ("exit code 2", 2, out, W.ERROR),
        ]
    if name == "scan":
        return [
            ("E0 + 1e-6", 0, edit_csv(out, lambda rows: [bump(rows[0], "E0_over_mu1")] + rows[1:]), W.WRONG),
            ("missing grid point", 0, edit_csv(out, lambda rows: rows[:-1]), W.INCOMPLETE),
            ("exit code 1", 1, out, W.ERROR),
        ]
    if name == "spectrum":
        return [
            ("truncated spectrum", 0, edit_csv(out, lambda rows: rows[:-1]), W.INCOMPLETE),
            ("top eigenvalue + 1e-6", 0, edit_csv(out, lambda rows: rows[:-1] + [bump(rows[-1], "eigenvalue")]), W.WRONG),
            ("E0 - 1e-6", 0, edit_csv(out, lambda rows: [bump(rows[0], "eigenvalue", -1e-6)] + rows[1:]), W.WRONG),
            ("no output", 0, "", W.ERROR),
        ]
    return [
        ("a FAIL line", 2, out.replace(" PASS\n", " FAIL\n", 1), W.WRONG),
        ("exit code 2", 2, out, W.ERROR),
        ("no output", 0, "", W.ERROR),
    ]


def check_rejections(failures):
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    workdir = run.OUT / "selftest"
    ops = {"bae": 0, "scan": 0, "spectrum": 5, "verify": 0}
    for name, Workload in workloads.WORKLOADS.items():
        wl = Workload(0, workdir)
        wl.prepare()
        i = ops[name]
        code, out, err = run.run_op(cli, wl.argv[i])
        real = wl.check(i, code, out, err)
        if real.status != workloads.OK:
            failures.append(f"{name}: real output of op {i} rejected: {real.reason}")
            continue
        for label, bad_code, bad_out, status in corruptions(name, out):
            got = wl.check(i, bad_code, bad_out, err)
            print(f"  {name}: {label} -> {got.status} ({got.reason})")
            if got.status != status:
                failures.append(f"{name}: {label} gave {got.status}, expected {status}")


def main():
    failures = []
    print("output checks reject corrupted outputs:")
    check_rejections(failures)
    print("metric names match BENCHMARK.json:")
    check_metric_names(failures)
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
