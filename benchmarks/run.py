"""scalemix benchmark: CLI commands run as users run them, timed and checked.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command is one fresh interpreter (``command.py``) running
``scalemix.cli.main``; the inputs are written from ``--seed`` before any
timing. Commands repeat until ``--seconds`` is spent. The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's commands: ``wall_s`` (``main`` call to return), ``setup_s``
(``import scalemix.cli``), ``peak_rss_mb`` (the command process's peak
resident memory) and ``accuracy`` (scored outside the timed section).
A run holds at most a few dozen commands, fewer than the 20 a percentile
above the median needs to have ten samples beyond it, so only the median
is reported. With ``--trace 1`` untraced and traced commands alternate on
one input, at least two of each; the metrics are the per-layer ones from
the traced commands (see ``spans.py``) plus the tracing overhead, and the
counts among them must agree exactly between the traced commands.

A command fails when it exits non-zero, when its outputs (every file but
``timings.csv``, and its standard streams) differ from an earlier command
on the same input, or when an output check fails. Failed commands are
counted against those attempted.

The environment (interpreter and library versions, CPU count, BLAS and
its thread variables as the command process sees them) is printed on the
line before the result. Commands run in the caller's environment, with
``--threads`` at most the CPU count.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 165.0  # every run must end within 180 s
WARM_UP_S = 2.0

# sizes of the inputs; "tiny" is for the smoke test only
SIZES = {
    "full": {
        "predict_csv": {"rows": 100_000},
        "protocol_select": {"participants": 1, "trials": 3, "rows_per_class": 50},
    },
    "tiny": {
        "predict_csv": {"rows": 2000},
        "protocol_select": {"participants": 1, "trials": 3, "rows_per_class": 15},
    },
}

# accuracy a correct program reaches on every seed; well below the figures
# observed, so only a broken model or predictor trips it
ACCURACY_FLOOR = {"predict_csv": 0.7, "protocol_select": 0.8}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy": "fraction"}


def cli_threads():
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------- reference

def reference_log_posterior(model, points):
    """Plug-in Student-t predictive of a model document, in numpy.

    Written from the model's definition, independently of the package, to
    check the program's predictions.
    """
    d = model["dim"]
    joint = []
    for cm, log_prior in zip(model["classes"], model["class_log_prior"]):
        comp_logs = []
        for c in cm["components"]:
            nu = c["nu"]
            lower = np.linalg.cholesky(np.array(c["W"]) / (c["eta"] - d - 1.0))
            y = np.linalg.solve(lower, (points - np.array(c["m"])).T)
            d2 = np.einsum("ij,ij->j", y, y)
            log_norm = (
                math.lgamma(0.5 * (nu + d)) - math.lgamma(0.5 * nu)
                - 0.5 * d * math.log(math.pi * nu) - float(np.log(np.diag(lower)).sum())
            )
            comp_logs.append(
                math.log(c["alpha"] / cm["alpha_hat"]) + log_norm
                - 0.5 * (nu + d) * np.log1p(d2 / nu)
            )
        comp_logs = np.array(comp_logs)
        top = comp_logs.max(axis=0)
        joint.append(top + np.log(np.exp(comp_logs - top).sum(axis=0)) + log_prior)
    joint = np.array(joint)
    top = joint.max(axis=0)
    joint -= top + np.log(np.exp(joint - top).sum(axis=0))
    return joint.T


# ---------------------------------------------------------------- workloads

def predict_argv(ctx, out):
    return ["predict", "--model", str(ctx["model"]), "--data", str(ctx["data"]),
            "--out-dir", str(out)]


def predict_check(ctx, out):
    """Every label, and the full rows of a sample, against the reference."""
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
    model, feats, labels = ctx["model_doc"], ctx["features"], ctx["labels"]
    d, c = model["dim"], len(model["classes"])
    problems = []
    if len(lines) != labels.shape[0] + 1:
        return 0.0, [f"{len(lines) - 1} prediction rows for {labels.shape[0]} inputs"]
    pred = np.array([int(ln.split(",", d + 4)[d + 3]) for ln in lines[1:]])
    sample = np.random.default_rng(0).choice(labels.shape[0], size=min(500, labels.shape[0]),
                                             replace=False)
    rows = np.array([[float(v) for v in lines[1 + i].split(",")] for i in sample])
    if rows.shape[1] != d + 4 + c or not np.array_equal(rows[:, :d], feats[sample]):
        problems.append("feature columns do not echo the input bit-exactly")
    ref = reference_log_posterior(model, feats[sample])
    if not np.allclose(rows[:, d + 4 :], ref, rtol=1e-9, atol=1e-9):
        problems.append("log posteriors differ from the reference predictive")
    if not np.array_equal(pred[sample], np.argmax(ref, axis=1) + 1):
        problems.append("pred_label differs from the reference argmax")
    return float(np.mean(pred == labels)), problems


def protocol_argv(ctx, out):
    return ["evaluate", "--data", str(ctx["data"]), "--select-nu", "--k-init", "10",
            "--threads", str(cli_threads()), "--out-dir", str(out)]


def protocol_check(ctx, out):
    metrics = dict(
        line.split(",", 1)
        for line in (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    )
    combos = (out / "combinations.csv").read_text(encoding="utf-8").splitlines()[1:]
    problems = []
    if len(combos) != ctx["combinations"]:
        problems.append(f"{len(combos)} combinations, expected {ctx['combinations']}")
    return float(metrics["accuracy"]), problems


# Why each workload exists is recorded in BENCHMARK.json. A workload with
# fresh=True draws a new input for each untraced command after the first
# two (the second repeats the first, for the byte-identity check): its work
# per input varies with the input, so the median spans several inputs.
WORKLOADS = {
    "predict_csv": (inputs.make_predict, predict_argv, predict_check, False),
    "protocol_select": (inputs.make_protocol, protocol_argv, protocol_check, True),
}


# ---------------------------------------------------------------- running

def digest(out, streams):
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "timings.csv":
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    for path in streams:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_command(argv, out, traced, time_left):
    """One fresh process; returns its record (None if it produced none)."""
    out.mkdir(parents=True)
    result = out.with_name(out.name + ".result.json")
    stdout, stderr = out.with_name(out.name + ".stdout"), out.with_name(out.name + ".stderr")
    env = child_env()
    cmd = [sys.executable, str(HERE / "command.py"), str(result), "1" if traced else "0", "--"]
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        try:
            subprocess.run(cmd + argv, stdout=so, stderr=se, env=env, cwd=ROOT,
                           timeout=max(time_left, 1.0), check=False)
        except subprocess.TimeoutExpired:
            return None, [stdout, stderr]
    if not result.is_file():
        return None, [stdout, stderr]
    return json.loads(result.read_text(encoding="utf-8")), [stdout, stderr]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def warm_up():
    """Untimed: import the package once (compiling it on a fresh checkout),
    then keep the CPUs busy briefly, so the first timed command does not
    pay for idle-to-busy transitions that later commands do not see."""
    subprocess.run([sys.executable, "-c", "import scalemix.cli"], env=child_env(), cwd=ROOT,
                   check=True, timeout=120)
    a = np.random.default_rng(0).random((300, 300))
    end = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < end:
        a = a @ a
        a /= np.abs(a).max()


def run(workload, seed, seconds, trace, size="full"):
    """Commands until ``seconds`` are spent; returns records and failures."""
    make_inputs, make_argv, check, fresh = WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    # two untraced commands for the byte-identity check; traced, two of each
    min_commands = 4 if trace else 2
    warm_up()
    started = time.perf_counter()
    contexts, reference, durations = {}, {}, []
    records, problems, accuracy = [], [], None
    try:
        while True:
            i = len(durations)
            # trace: untraced and traced commands alternate on input 0
            traced = bool(trace) and i % 2 == 1
            index = i - 1 if (fresh and not trace and i >= 2) else 0
            begun = time.perf_counter()
            if index not in contexts:
                directory = work / f"input{index}"
                directory.mkdir(parents=True)
                contexts[index] = make_inputs(directory, seed, index, **SIZES[size][workload])
            ctx = contexts[index]
            out = work / f"cmd{i}"
            record, streams = run_command(
                make_argv(ctx, out), out, traced, DEADLINE_S - (begun - started)
            )
            faults = []
            if record is None:
                faults.append("no result record (crashed or timed out)")
            elif record["exit_code"] != 0:
                faults.append(f"exit code {record['exit_code']}")
            elif index not in reference:
                reference[index] = digest(out, streams)
                try:
                    acc, faults = check(ctx, out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    acc, faults = 0.0, [f"unreadable output: {exc!r}"]
                if index == 0:
                    accuracy = acc
                    if acc < ACCURACY_FLOOR[workload]:
                        faults.append(f"accuracy {acc!r} below {ACCURACY_FLOOR[workload]}")
            elif digest(out, streams) != reference[index]:
                faults.append("outputs differ from an earlier command on the same input")
            if faults:
                problems += [f"command {i}: {f}" for f in faults]
            else:
                records.append(dict(record, traced=traced, input=index))
            shutil.rmtree(out, ignore_errors=True)
            for path in streams:
                path.unlink(missing_ok=True)
            now = time.perf_counter()
            durations.append(now - begun)
            next_end = now - started + statistics.median(durations)
            if (len(durations) >= min_commands and next_end > seconds) or next_end > DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return records, len(durations), len(durations) - len(records), problems, accuracy


def end_to_end(records, accuracy):
    values = {
        name: statistics.median(r[name] for r in records)
        for name in ("wall_s", "setup_s", "peak_rss_mb")
    }
    values["accuracy"] = accuracy
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(records):
    """Medians over traced commands; counts must agree exactly between them."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    problems, metrics = [], {}
    for name, unit in spans.LAYER_METRICS.items():
        values = [r["layers"][name] for r in traced]
        if unit == "count" and len(set(values)) != 1:
            problems.append(f"count {name} differs between traced commands: {values}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_wall - plain_wall) / plain_wall, "unit": "%"
    }
    return metrics, problems


def self_time_breakdown(records):
    """Median self time per span name over the traced commands."""
    traced = [r for r in records if r["traced"]]
    names = sorted({n for r in traced for n in r["self_s"]})
    return {n: statistics.median(r["self_s"].get(n, 0.0) for r in traced) for n in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "scalemix" / "cli.py").is_file():
        print(f"error: no scalemix sources under {SRC}", file=sys.stderr)
        return 2
    records, attempted, failed, problems, accuracy = run(
        args.workload, args.seed, args.seconds, args.trace, args.size
    )
    for line in problems:
        print(line, file=sys.stderr)
    n_traced = sum(r["traced"] for r in records)
    if accuracy is None or (args.trace and min(n_traced, len(records) - n_traced) < 2):
        print("error: too few successful commands to report", file=sys.stderr)
        return 1
    correct = failed == 0
    if args.trace:
        metrics, count_problems = per_layer(records)
        for line in count_problems:
            print(line, file=sys.stderr)
        print("self_time " + json.dumps(self_time_breakdown(records)))
        correct = correct and not count_problems
    else:
        metrics = end_to_end(records, accuracy)
    print("environment " + json.dumps(records[0]["environment"], sort_keys=True))
    print("commands " + json.dumps([
        {k: r[k] for k in ("input", "traced", "wall_s", "setup_s", "peak_rss_mb")}
        for r in records
    ]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
