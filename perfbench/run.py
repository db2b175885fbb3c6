#!/usr/bin/env python3
"""Benchmark of the measurement -> characterization -> generation pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flood --seed 1964 --seconds 50 --trace 0

The script builds the `perfbench` package (its own cargo workspace, with
path dependencies on the repository's crates), then spends `--seconds`
on measured runs of one workload. Every measured run is a fresh
process of the `perfbench` binary, so no run inherits RSS, allocator
state or warmed tables from another. It checks every run's output, and
prints a table of the metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics (medians over
the runs). With `--trace 1` the last run is traced and the metrics are
the per-layer ones. README.md in this directory explains the workloads
and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"

# The seed the pinned counts were recorded with, and a seed kept out of
# tuning, for checking a claim on inputs it was not tuned on.
DEFAULT_SEED = 1964
HELDOUT_SEED = 2004

# Simulated days per run, and the prefix (in days) run at both
# fidelities to check that hybrid reproduces the full trace.
WORKLOADS = {
    "observed": {"days": 1.0, "prefix_days": 0.05},
    "flood": {"days": 1.0, "prefix_days": 0.01},
    "reproduce": {"days": 2.0, "prefix_days": None},
}

# Workloads that run.py still runs but BENCHMARK.json does not list, and
# why. Every invocation prints this, so the output records the drop.
NOT_IN_BENCHMARK = {
    "observed": (
        "its quartile spread over ten seeds was 0.28, 0.32 and 0.17 in three "
        "sets on a 2-vCPU host, above the 0.25 bound, because its campaign "
        "time swings 1.6x with contention for the host's shared cache"
    ),
}

# Fewest measured runs per invocation, whatever `--seconds` says.
MIN_RUNS = 1
# Simulated days of the discarded warm-up run that precedes the
# measured ones (the first process after a pause runs slow).
WARMUP_DAYS = 0.05
# Set-up-only processes at the start, before each measured run and at
# the end (`setup_s` is their median together with the measured runs'
# set-up times). The cost of starting a process drifts by up to 1.8x
# within minutes on a shared host, so the probes are spread over the
# whole invocation rather than taken at one moment.
SETUP_PROBES = 10
# Wall-clock budget of one invocation after the build, in seconds. It
# holds a traced `reproduce` invocation (two runs of about 20 s) even when
# the host runs three times slower than usual. No process starts that the
# budget cannot hold, and every worker's timeout ends with the budget,
# so an invocation never outlives it by more than the final checks.
BUDGET_S = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("result_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("peak_trace_mb", "MiB"),
]
# Stages of the reproduction only `reproduce` runs; printed for every
# workload in the table, and reported with the per-layer metrics.
REPRODUCE_STAGES = [
    ("analysis_s", "s"),
    ("gen_events_per_s", "events/s"),
    ("report_s", "s"),
]

MIB = 1024.0 * 1024.0


def layer_unit(name):
    units = dict(REPRODUCE_STAGES)
    if name in units:
        return units[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name == "simnet.ns_per_event":
        return "ns"
    if name.endswith("_frac") or name.endswith("_ratio") or name.endswith("_per_event"):
        return "ratio"
    return "count"


def binary_path():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = Path(target) if target else HERE / "target"
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "release" / "perfbench"


def build():
    """Build the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
    ]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    path = binary_path()
    if r.returncode != 0 or not path.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return None
    return path


def spawn(binary, args, timeout=BUDGET_S):
    """Run one worker process; returns (t_spawn_unix_ns, output dict or None)."""
    t0 = time.time_ns()
    try:
        r = subprocess.run(
            [str(binary)] + [str(a) for a in args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out: {args}", file=sys.stderr)
        return t0, None
    if r.returncode != 0:
        print(f"perfbench: worker exited {r.returncode}: {args}\n{r.stderr[-2000:]}", file=sys.stderr)
        return t0, None
    lines = r.stdout.strip().splitlines()
    try:
        return t0, json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: unreadable worker output: {args}", file=sys.stderr)
        return t0, None


def measure(t0, out):
    """End-to-end metrics of one run from the worker's output."""
    times = out["times"]
    campaign_s = times["campaign_s"]
    return {
        "setup_s": (out["t_campaign_start_unix_ns"] - t0) / 1e9,
        "campaign_s": campaign_s,
        "msgs_per_s": out["counts"]["messages"] / campaign_s,
        "result_s": (out["t_end_unix_ns"] - t0) / 1e9,
        "peak_rss_mb": out["peak_rss_bytes"] / MIB,
        "peak_trace_mb": out["counts"]["peak_trace_bytes"] / MIB,
        "analysis_s": times["analysis_s"],
        "gen_events_per_s": out.get("gen_events_per_s", 0.0),
        "report_s": times["report_s"],
    }


def check_run(out, reference):
    """Reasons a run's output is wrong (empty when it is right).

    `reference` holds the deterministic counts the run must reproduce:
    the pinned ones for the default seed, otherwise the counts most runs
    of the set agree on.
    """
    reasons = []
    counts = out["counts"]
    for key, want in sorted(reference.items()):
        got = counts.get(key)
        if got != want:
            reasons.append(f"{key} = {got}, expected {want}")
    c = out["check"]
    if c["sink_records"] != c["analysis_records"]:
        reasons.append(
            f"sink delivered {c['sink_records']} records, analysis saw {c['analysis_records']}"
        )
    if c["sink_sessions"] != c["analysis_sessions"]:
        reasons.append(
            f"sink saw {c['sink_sessions']} sessions, analysis counted {c['analysis_sessions']}"
        )
    for exp_id, n in out.get("experiment_bytes", {}).items():
        if n == 0:
            reasons.append(f"experiment {exp_id} returned empty output")
    return reasons


def check_prefix(out):
    """Reasons the full/hybrid prefix check failed (empty when it passed)."""
    if out is None:
        return ["prefix check did not run"]
    if out["full"] != out["hybrid"]:
        return [f"hybrid fingerprint {out['hybrid']} != full {out['full']}"]
    return []


def reference_counts(workload, seed, outputs, days):
    """Counts every run must match: pinned for the default seed at the
    benchmark's size, else the counts most runs agree on."""
    if seed == DEFAULT_SEED and days == WORKLOADS[workload]["days"] and PINNED.is_file():
        pinned = json.loads(PINNED.read_text()).get(workload)
        if pinned is not None:
            return pinned
    tuples = Counter(json.dumps(o["counts"], sort_keys=True) for o in outputs)
    if not tuples:
        return {}
    return json.loads(tuples.most_common(1)[0][0])


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def provenance(binary, workload, days, config, deadline=None):
    left = BUDGET_S if deadline is None else deadline - time.monotonic()
    cal = None
    if left > 10.0:
        _, cal = spawn(
            binary,
            ["--workload", workload, "--seed", 0, "--days", days, "--mode", "calibrate"],
            timeout=left,
        )
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "calibration_mops": cal["calibration_mops"] if cal else None,
        "memory_mhops": cal["memory_mhops"] if cal else None,
        "build_profile": "release (lto = fat, codegen-units = 1)",
        "git_rev": git_rev,
        "workload": workload,
        "config": config,
    }


def run_workload(binary, workload, seed, seconds, traced, days=None, out_dir=None, deadline=None):
    """All the runs of one invocation. Returns a summary dict.

    `deadline` (a `time.monotonic()` value, default `BUDGET_S` from now)
    bounds every process the invocation starts.
    """
    deadline = time.monotonic() + BUDGET_S if deadline is None else deadline

    def left():
        return deadline - time.monotonic()

    spec = WORKLOADS[workload]
    days = spec["days"] if days is None else days
    base = ["--workload", workload, "--seed", seed, "--days", days]
    out_dir = out_dir or (Path.cwd() / ".bench_out")

    # Output checks and set-up samples, outside every timed window.
    prefix_reasons = []
    if spec["prefix_days"] is not None:
        pdays = min(spec["prefix_days"], days)
        _, p = spawn(
            binary, ["--workload", workload, "--seed", seed, "--days", pdays, "--mode", "prefix"], timeout=left()
        )
        prefix_reasons = check_prefix(p)
    spawn(binary, ["--workload", workload, "--seed", seed, "--days", min(WARMUP_DAYS, days)], timeout=left())
    setup = []

    def probe_setup():
        for _ in range(SETUP_PROBES):
            t0, out = spawn(binary, base + ["--mode", "setup"], timeout=left())
            if out is not None:
                setup.append((out["t_campaign_start_unix_ns"] - t0) / 1e9)

    probe_setup()

    # Measured runs: fresh processes until the time is spent. A traced
    # invocation keeps room for its one traced run at the end. A run
    # that would not end within the budget is not started.
    runs = []  # (t0, output or None, traced)
    start = time.monotonic()
    while True:
        durations = [(o["t_end_unix_ns"] - t) / 1e9 for t, o, _ in runs if o]
        est = statistics.median(durations) if durations else 0.0
        reserve = est if traced else 0.0
        if len(runs) >= MIN_RUNS and (
            time.monotonic() - start + est + reserve > seconds or est + reserve > left()
        ):
            break
        probe_setup()
        t0, out = spawn(binary, base, timeout=left())
        runs.append((t0, out, False))
    probe_setup()
    if traced:
        t0, out = spawn(binary, base + ["--trace", 1, "--out", out_dir], timeout=left())
        runs.append((t0, out, True))

    outputs = [o for _, o, _ in runs if o is not None]
    reference = reference_counts(workload, seed, outputs, days)
    failures = []
    ok = []  # (metrics, output, traced)
    for t0, out, was_traced in runs:
        reasons = ["run crashed or printed no result"] if out is None else check_run(out, reference)
        if reasons:
            failures.append(reasons)
        else:
            ok.append((measure(t0, out), out, was_traced))
    if not ok:
        # Nothing passed the check: report what ran, flagged incorrect.
        ok = [(measure(t0, out), out, t) for t0, out, t in runs if out is not None]
    if prefix_reasons:
        failures.append(prefix_reasons)
    attempted = len(runs) + (1 if spec["prefix_days"] is not None else 0)

    untraced = [m for m, _, t in ok if not t]
    setup += [m["setup_s"] for m in untraced]
    metrics = {}
    spreads = {}
    for name, _unit in END_TO_END + REPRODUCE_STAGES:
        values = setup if name == "setup_s" else [m[name] for m in untraced]
        if values:
            metrics[name] = statistics.median(values)
            spreads[name] = quartile_spread(values)

    layers = {}
    traced_ok = [(m, o) for m, o, t in ok if t]
    if traced_ok:
        m, o = traced_ok[0]
        layers = dict(o["layers"])
        for name, _unit in REPRODUCE_STAGES:
            layers[name] = m[name]
        base_result = metrics.get("result_s")
        layers["bench.trace_overhead_frac"] = m["result_s"] / base_result - 1.0 if base_result else 0.0
        t = o["times"]
        accounted = (
            m["setup_s"]
            + t["campaign_s"]
            + t["finish_s"]
            + t["analysis_s"]
            + t["calibrate_s"]
            + t["generate_s"]
            + t["report_s"]
        )
        layers["bench.unattributed_frac"] = (m["result_s"] - accounted) / m["result_s"]

    return {
        "workload": workload,
        "seed": seed,
        "days": days,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "runs": len(untraced),
        "metrics": metrics,
        "spreads": spreads,
        "layers": layers,
        "config": (
            {k: outputs[0][k] for k in ("population", "shards", "worker_threads")} if outputs else None
        ),
    }


def print_table(summary, traced):
    w = summary["workload"]
    print(
        f"workload {w}: seed {summary['seed']}, {summary['days']} simulated day(s), "
        f"{summary['runs']} untraced run(s), fail_frac "
        f"{summary['failed'] / summary['attempted']:.3f} "
        f"({summary['failed']} of {summary['attempted']})"
    )
    for reasons in summary["failures"]:
        print(f"  FAILED: {'; '.join(reasons)}")
    for name, unit in END_TO_END + REPRODUCE_STAGES:
        if name in summary["metrics"]:
            v = summary["metrics"][name]
            spread = summary["spreads"].get(name, 0.0)
            print(f"  {name:<18} {v:>16.6g} {unit:<9} (quartile spread {spread:.3f})")
    if traced:
        for name, v in summary["layers"].items():
            print(f"  {name:<34} {v:>16.6g} {layer_unit(name)}")


def result_line(summary, traced):
    if traced:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in summary["layers"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {
            k: {"value": v, "unit": units[k]} for k, v in summary["metrics"].items() if k in units
        }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    binary = build()
    if binary is None:
        return 1
    deadline = time.monotonic() + BUDGET_S
    summary = run_workload(binary, a.workload, a.seed, a.seconds, a.trace == 1, deadline=deadline)
    prov = provenance(binary, a.workload, summary["days"], summary["config"], deadline)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, why in NOT_IN_BENCHMARK.items():
        print(f"not in BENCHMARK.json: workload {name}: {why}")
    print_table(summary, a.trace == 1)
    line = result_line(summary, a.trace == 1)
    if not summary["runs"] or (a.trace == 1 and not summary["layers"]):
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


def pin(binary, workload):
    """Record the default seed's deterministic counts for `workload`."""
    _, out = spawn(binary, ["--workload", workload, "--seed", DEFAULT_SEED, "--days", WORKLOADS[workload]["days"]])
    if out is None:
        raise SystemExit("perfbench: cannot pin, the run failed")
    pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    pinned[workload] = out["counts"]
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
