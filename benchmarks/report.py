"""Run every workload and print every metric, by name and unit.

Usage, from the repository root:

    python3 benchmarks/report.py [--save FILE] [--label TEXT]

For each workload in BENCHMARK.json this runs ``run.py`` untraced once
per seed 1-10, then traced on seed 1, each in its own process for
BENCHMARK.json's ``run_seconds``, as any benchmark run is made. It prints
the end-to-end metrics (median and quartiles over the seeds, and the
spread, the quartile distance as a share of the median, against the bound
in BENCHMARK.json), the per-layer metrics, the self time of every span
name and the tracing overhead. ``--save`` writes all of it, with the
environment, as one JSON document; the files under ``trajectory/`` are
such documents.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def invoke(workload, seed, seconds, trace):
    """One benchmark run; returns (result, extra lines keyed by prefix)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    extra = {}
    for line in lines[:-1]:
        key, _, payload = line.partition(" ")
        extra[key] = json.loads(payload)
    return json.loads(lines[-1]), extra


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    document = {"label": args.label, "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [invoke(workload, seed, seconds, 0) for seed in SEEDS]
        traced, extra = invoke(workload, SEEDS[0], seconds, 1)
        document["environment"] = extra["environment"]
        entry = {
            "attempted": sum(r["attempted"] for r, _ in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r, _ in runs) + traced["failed"],
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "end_to_end": {},
            "per_layer": traced["metrics"],
            "self_s": extra["self_time"],
        }
        print(f"\n== {workload}: {entry['attempted']} commands, {entry['failed']} failed, "
              f"correct={entry['correct']}")
        print(f"{'metric':<34}{'unit':>9}{'median':>13}{'q1':>13}{'q3':>13}"
              f"{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            median, q1, q3, rel = spread(values)
            unit = runs[0][0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {"unit": unit, "values": values, "median": median,
                                         "q1": q1, "q3": q3, "spread": rel, "bound": bound}
            print(f"{name:<34}{unit:>9}{median:>13.6g}{q1:>13.6g}{q3:>13.6g}"
                  f"{rel:>9.4f}{bound:>7}")
        print(f"-- per layer, traced run of seed {SEEDS[0]}")
        for name, metric in traced["metrics"].items():
            print(f"{name:<34}{metric['unit']:>9}{metric['value']:>13.6g}")
        print(f"-- self time by span, seed {SEEDS[0]} (s)")
        for name, value in sorted(extra["self_time"].items(), key=lambda kv: -kv[1]):
            print(f"{name:<34}{value:>13.6g}")
        overhead = traced["metrics"]["trace.overhead_pct"]["value"]
        print(f"tracing overhead: {overhead:.2f} % of untraced wall_s")
        document["workloads"][workload] = entry
    if args.save:
        args.save.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
