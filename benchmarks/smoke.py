"""Smoke test of the benchmark itself, at tiny input sizes.

Usage, from the repository root:  python3 benchmarks/smoke.py

For every workload in BENCHMARK.json it runs ``run.py`` untraced and
traced and checks that the last line is the result object, that every
metric BENCHMARK.json names is emitted with its unit, and that no command
failed. The traced run alternates untraced and traced commands on one
input and fails any command whose outputs differ from the first, so a
passing traced run shows that tracing leaves every output byte-identical;
with two traced commands it also shows that the counts repeat exactly.
Last, it checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, workload, trace, seconds):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "0", "--seconds",
                              str(seconds), "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def check_result(proc, expected, min_attempted):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    faults = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        faults.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        faults.append(f"correct={result['correct']} failed={result['failed']}: "
                      f"{proc.stderr.strip()[-500:]}")
    if result["attempted"] < min_attempted:
        faults.append(f"only {result['attempted']} commands attempted")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        faults.append(f"metrics {emitted} != {expected}")
    return faults


def main():
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in BENCH["workloads"]):
        # untraced: two commands on one input; traced: four, two of them traced
        for trace, expected, seconds, min_attempted in ((0, end_to_end, 1, 2),
                                                        (1, per_layer, 20, 4)):
            faults = check_result(run(ROOT, workload, trace, seconds), expected, min_attempted)
            failures += bool(faults)
            print(f"{'FAIL' if faults else 'ok  '} {workload} trace={trace}")
            for fault in faults:
                print(f"     {fault}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, BENCH["workloads"][0]["name"], 0, 1)
    shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program "
          f"(exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
