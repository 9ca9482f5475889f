"""qgeom benchmark: closed-loop CLI workloads, timed per call from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-q3 --seed 1 --seconds 20 --trace 0

One client, one call at a time.  Each pass of a workload runs in a fresh
interpreter (worker.py), because a CLI user pays qgeom's cold caches on
every invocation, and drives qgeom only through `qgeom.cli.main`.  A run
makes whole passes while the next one is expected to end within
--seconds (at least one), then judges every call against pinned outputs.

The shared host's speed moves by 10-50% over seconds, so the timed
metrics are given at a fixed host speed (see speed.py): a timed pass
probes the host's speed while it runs, and each set-up sample is
bracketed by probes.  The whole benchmark is pinned to one CPU, so
that the probes and the work they are set against share it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
makes one untraced, one traced and one counting pass at the same seed
and reports the per-layer metrics (see tracing.py).  The last line of
standard output is the JSON result.  The exit code is 0 when every call
passed, 1 when one failed, and 2 when the benchmark itself could not
run (then no result is printed).  `--workload all` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from speed import REFERENCE_S, probe_time
from tracing import summarize
from workloads import WORKLOADS, calls, judge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 9  # set-up spawns per timed run; the median is reported
SETUP_PROBES = 3  # probes before and after each set-up spawn
RUN_LIMIT_S = 175  # a run must end within 180 s


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run worker.py once; returns its result with `setup_s` and `outdir` added."""
    outdir = os.path.join(OUT, workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    result = os.path.join(OUT, f"{workload}.{mode}.json")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), outdir, result]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result) as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - start
    res["outdir"] = outdir
    return res


def check_pass(plan, res) -> tuple[list, int]:
    """(failed calls with reasons, bytes of exported files) for one pass."""
    failed = []
    exported = 0
    for call, (code, _) in zip(plan, res["calls"]):
        try:
            with open(os.path.join(res["outdir"], call.output), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = None
        problems = judge(call, code, data)
        if problems:
            failed.append((call.metric, problems))
        if call.argv[0] == "build" and data is not None:
            exported += len(data)
    return failed, exported


def timed_run(workload: str, seed: int, seconds: float, deadline: float):
    plan = calls(workload, seed)
    spawn("setup", workload, seed, deadline)  # unmeasured: compiles bytecode once
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        before = probe_time(SETUP_PROBES)
        raw = spawn("setup", workload, seed, deadline)["setup_s"]
        speed = REFERENCE_S / statistics.median([before, probe_time(SETUP_PROBES)])
        raw_setups.append(raw)
        setups.append(raw * speed)
    passes, failed = [], []
    start = time.perf_counter()
    while True:
        res = spawn("timed", workload, seed, deadline)
        failed += check_pass(plan, res)[0]
        passes.append(res)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    samples = {
        "wall_s": [p["ref_wall_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_kb"] / 1024 for p in passes],
    }
    for i, call in enumerate(plan):
        samples[call.metric] = [p["ref_calls"][i] for p in passes]
    if any(c.elements for c in plan):
        samples["elements_per_s"] = [
            sum(c.elements for c in plan)
            / sum(t for c, t in zip(plan, p["ref_calls"]) if c.elements)
            for p in passes
        ]
    samples["raw_wall_s"] = [p["wall_s"] for p in passes]
    samples["raw_setup_s"] = raw_setups
    attempted = len(plan) * len(passes)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["failed_ratio"] = len(failed) / attempted
    units = {"peak_rss_mb": "MB", "elements_per_s": "1/s", "failed_ratio": "fraction"}
    for name, v in samples.items():
        print(f"{name:26} {values[name]:14.6g} {units.get(name, 's'):8} median of {len(v)}, max {max(v):.6g}")
    print(f"{'failed_ratio':26} {values['failed_ratio']:14.6g} fraction {len(failed)} of {attempted} calls")
    return values, attempted, failed


def traced_run(workload: str, seed: int, deadline: float):
    plan = calls(workload, seed)
    spawn("setup", workload, seed, deadline)
    untraced = spawn("timed", workload, seed, deadline)
    failed = check_pass(plan, untraced)[0]

    traced = spawn("traced", workload, seed, deadline)
    bad, exported = check_pass(plan, traced)
    failed += bad
    with np.load(os.path.join(OUT, f"{workload}.traced.spans.npz")) as npz:
        spans, names = npz["spans"], [str(n) for n in npz["names"]]
    values = summarize(spans, names, traced["counts"], traced["errors"])
    for target in traced["missing"]:
        print(f"warning: {target} not found; its metrics read 0", file=sys.stderr)

    counting = spawn("counting", workload, seed, deadline)
    failed += check_pass(plan, counting)[0]

    values["gf.calls"] = counting["gf_calls"]
    values["formats.bytes"] = exported
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - (untraced["wall_s"] - untraced["probe_s"])
    named = sum(v for k, v in values.items() if k.endswith(".self_s") and not k.startswith("cli."))
    values["trace.named_share"] = named / traced["wall_s"]
    for name in sorted(values):
        print(f"{name:44} {values[name]:.6g}")
    return values, 3 * len(plan), failed


def run(workload: str, seed: int, seconds: float, trace: bool, declared: list) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'timed'} run")
    if trace:
        values, attempted, failed = traced_run(workload, seed, deadline)
    else:
        values, attempted, failed = timed_run(workload, seed, seconds, deadline)
    for metric, problems in failed:
        print(f"FAILED {metric}: {'; '.join(problems)}")
    print(f"correct: {not failed} ({len(failed)} of {attempted} calls failed)")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "qgeom")):
        print(f"error: no qgeom sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # workers inherit it

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            results[w] = run(w, args.seed, args.seconds, bool(args.trace), declared)
            if len(workloads) > 1:
                print(json.dumps(results[w]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = results[workloads[0]] if len(workloads) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
