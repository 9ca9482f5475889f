"""One pass of a workload in a fresh interpreter.

Usage: worker.py MODE WORKLOAD SEED OUTDIR RESULT

MODE is one of:
  setup     import qgeom and stop (a set-up time sample);
  timed     run the pass with only the host-speed probe (see speed.py);
  traced    run the pass with span wrappers installed (see tracing.py);
  counting  run the pass with the scalar Field calls counted.

The worker writes a JSON result to RESULT.  `ready` is the perf_counter
reading just before the first call; on Linux perf_counter is
CLOCK_MONOTONIC, which the parent shares, so the parent turns it into
the set-up time.  qgeom is imported first, so set-up covers interpreter
start and `import qgeom` and little else.
"""

import time  # qgeom must be the next import: see above

import qgeom.cli

import contextlib
import json
import os
import resource
import sys


def main(argv):
    mode, workload, seed, outdir, result = argv
    if mode == "setup":
        out = {"ready": time.perf_counter()}
    else:
        from workloads import calls

        recorder = count_field_calls = meter = None
        if mode == "timed":
            from speed import SpeedMeter

            meter = SpeedMeter()
        elif mode == "traced":
            from tracing import Recorder

            recorder = Recorder()
            recorder.install()
        elif mode == "counting":
            from tracing import install_field_counters

            count_field_calls = install_field_counters()
        plan = calls(workload, int(seed))
        timings, spans = [], []
        with meter or contextlib.nullcontext():
            ready = time.perf_counter()
            for call in plan:
                argv = [*call.argv, "--out", os.path.join(outdir, call.output)]
                t0 = time.perf_counter()
                code = qgeom.cli.main(argv)
                t1 = time.perf_counter()
                timings.append((code, t1 - t0))
                spans.append((t0, t1))
            end = time.perf_counter()
        out = {
            "ready": ready,
            "wall_s": end - ready,
            "calls": timings,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if meter is not None:
            from speed import reference_time

            out["ref_wall_s"] = reference_time(meter.samples, ready, end)
            out["ref_calls"] = [reference_time(meter.samples, t0, t1) for t0, t1 in spans]
            out["probes"] = len(meter.samples)
            out["probe_s"] = sum(stop - start for start, _, stop in meter.samples)
        if recorder is not None:
            recorder.save(os.path.splitext(result)[0] + ".spans.npz")
            out.update(counts=recorder.counts, errors=recorder.errors, missing=recorder.missing)
        if count_field_calls is not None:
            out["gf_calls"] = count_field_calls()
    with open(result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
