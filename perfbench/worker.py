"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--trace 1] [--setup-only]

Imports chainops from the checkout's src/, builds the workload's inputs from
the seed, runs every job once in order and prints one JSON object: the
monotonic time at which set-up ended and the processor's speed then, each
job's wall-clock and reference time and verified instances, the pass's peak
resident memory and, with ``--trace 1``, the per-layer totals.  A fresh
interpreter per pass keeps the library's caches cold, as they are for every
command-line call.  ``--setup-only`` stops after set-up.
"""

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import chainops  # noqa: E402  (path set above)
import workloads  # noqa: E402


def peak_rss_mib():
    """High-water resident set of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# The processor's speed on a shared machine swings by tens of percent, in
# phases of seconds to minutes.  A timer interrupts the jobs every
# PROBE_INTERVAL_S and times a fixed probe of dict, tuple and sort work, the
# kind of work chainops does; a job's reference time is its wall time, less
# the probes, times the mean of REF_PROBE_S / probe time over those probes.
PROBE_INTERVAL_S = 0.1
# The probe's time at the reference speed: the fast phase of the shared
# 2-core x86-64 machine the benchmark was sized on (Python 3.11).
REF_PROBE_S = 0.0015


def probe_work():
    table = {}
    for i in range(4000):
        key = (i % 7, i)
        table[key] = table.get(key, 0) + 1
    sorted(table, key=lambda k: k[::-1])


class SpeedProbe:
    """Samples the processor's speed, from a SIGALRM handler in the main
    thread, while the jobs run."""

    def __init__(self):
        self.samples = []        # (start, duration) of each probe

    def _probe(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()             # the job's heap must not show in the probe
        start = time.perf_counter()
        probe_work()
        self.samples.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spot(self, count=8):
        """Mean speed factor over ``count`` probes taken now."""
        for _ in range(count):
            self._probe(None, None)
        return statistics.fmean(REF_PROBE_S / d for _, d in
                                self.samples[-count:])

    def window(self, start, end):
        """(probe time spent, mean speed factor) inside [start, end]."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            return 0.0, None
        return sum(inside), statistics.fmean(REF_PROBE_S / d for d in inside)


def run_pass(workload, seed, tracer):
    """Set up, run every job once and return the pass's result."""
    jobs = workloads.jobs(workload)
    inputs = workloads.build_inputs(workload, seed)
    if tracer is not None:
        tracer.install()
    ready = time.monotonic()
    probe = SpeedProbe()
    ready_speed = probe.spot()
    windows = []
    with probe:
        for job in jobs:
            start = time.perf_counter()
            try:
                outcome = job(inputs)
                raised = None
            except Exception:           # a raising job is a failed operation
                outcome = workloads.Outcome()
                outcome.check(False)
                raised = traceback.format_exc(limit=3)
            windows.append((job, start, time.perf_counter(), outcome, raised))
    results = []
    for job, start, end, outcome, raised in windows:
        probed, speed = probe.window(start, end)
        clock = end - start - probed
        results.append({"job": job.__name__, "clock_s": clock,
                        "seconds": clock * (speed or ready_speed),
                        "checks": outcome.checks, "failures": outcome.failures,
                        "unexplained": outcome.unexplained,
                        "record": outcome.record, "raised": raised})
    out = {"ready": ready, "ready_speed": ready_speed,
           "wall_s": sum(r["seconds"] for r in results),
           "wall_clock_s": sum(r["clock_s"] for r in results),
           "probes": len(probe.samples), "jobs": results,
           "peak_rss_mib": peak_rss_mib(), "chainops": chainops.__version__}
    if tracer is not None:
        # spans include the probes that fired inside them, so compare them
        # with the jobs' windows, probes included
        out["trace"] = tracer.summary(sum(end - start
                                          for _, start, end, _, _ in windows))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--span-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.setup_only:
        workloads.jobs(args.workload)
        workloads.build_inputs(args.workload, args.seed)
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "ready_speed": SpeedProbe().spot()}))
        return

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    out = run_pass(args.workload, args.seed, tracer)
    if tracer is not None and args.span_file:
        tracer.write_spans(args.span_file)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
