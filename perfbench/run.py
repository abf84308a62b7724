"""chainops benchmark: exact-arithmetic workloads, end to end and per layer.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a chainops checkout.  Each measured pass is a fresh
interpreter (perfbench/worker.py) that imports chainops from src/, builds
the workload's inputs from the seed and calls the jobs one after another: a
closed loop with one caller and no threads.  Passes repeat until --seconds
have been spent (at least MIN_PASSES of them); every metric is the median
over the passes of the run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates plain and
traced passes and prints the per-layer metrics, the tracing overhead and the
share of traced wall time that no layer span covers.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Attempted operations are the verified instances (report instances plus
oracle comparisons); failed ones raised, were recorded as report failures or
disagreed with an oracle.  ``correct`` is false if any failure is not a
known, independently confirmed defect.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("homology", "axioms", "totalize", "calculus")

MIN_PASSES = 2
SETUP_PROBES = 3          # set-up-only interpreters before each pass
RUN_BUDGET_S = 150        # a run must end well inside 180 s

# Times are reference seconds: wall-clock seconds scaled by the processor's
# speed, sampled while they elapse, relative to the reference speed
# (worker.SpeedProbe).  On a shared machine the speed swings by tens of
# percent over seconds to minutes; scaled times hold still through that.
END_TO_END = (("wall_s", "s"), ("max_job_s", "s"), ("checks_per_s", "1/s"),
              ("peak_rss_mib", "MiB"), ("setup_s", "s"))
# The same in unscaled wall-clock seconds: printed and recorded, not gated.
WALL_CLOCK = (("wall_clock_s", "s"), ("max_job_clock_s", "s"),
              ("checks_per_clock_s", "1/s"), ("setup_clock_s", "s"))

# (layer, measure, unit): reported as "<layer>.<measure>" by --trace 1.
PER_LAYER = tuple(
    [("boxprod.enumerate_symbols", m, u) for m, u in
     (("busy_s", "s"), ("calls", "count"), ("symbols", "count"),
      ("distinct_ratio", "ratio"))] +
    [("boxprod.box_basis", m, u) for m, u in
     (("busy_s", "s"), ("calls", "count"), ("symbols", "count"),
      ("distinct_ratio", "ratio"))] +
    [("boxprod.t_boundary", "busy_s", "s"), ("boxprod.t_boundary", "calls", "count"),
     ("operads.assemble", "busy_s", "s"), ("operads.assemble", "basis", "count"),
     ("operads.assemble", "nnz", "count")] +
    [("boxprod." + f, m, u)
     for f in ("ker_expand", "apply_tuple", "flatten", "box_functorial_map")
     for m, u in (("busy_s", "s"), ("calls", "count"))] +
    [("operads.gamma_substitution", "busy_s", "s"),
     ("operads.gamma_substitution", "calls", "count"),
     ("operads.gamma_matrix", "busy_s", "s"),
     ("operads.gamma_matrix", "calls", "count"),
     ("operads.gamma_matrix", "max_call_s", "s")] +
    [(mod + ".verify", m, u) for mod in ("operads", "cochain_ops", "hochschild")
     for m, u in (("busy_s", "s"), ("checks", "count"), ("failures", "count"))] +
    [("cubes", "checks", "count"), ("cubes", "failures", "count"),
     ("complexes.reduced_homology", "busy_s", "s"),
     ("complexes.reduced_homology", "calls", "count"),
     ("complexes.reduced_homology", "input_nnz", "count"),
     ("complexes.homology", "busy_s", "s"), ("complexes.homology", "calls", "count"),
     ("complexes.construct", "busy_s", "s"),
     ("intmat.snf", "busy_s", "s"), ("intmat.snf", "calls", "count"),
     ("intmat.snf", "input_nnz", "count"), ("intmat.snf", "max_dim", "count"),
     ("intmat.solve", "busy_s", "s"), ("intmat.solve", "calls", "count"),
     ("intmat.solve", "distinct_ratio", "ratio"),
     ("intmat.kernel_basis", "busy_s", "s"),
     ("intmat.kernel_basis", "calls", "count")] +
    [("cosimplicial." + f, m, u)
     for f in ("conormalize_kernel", "conormalize_cokernel",
               "conormalize_bicomplex")
     for m, u in (("busy_s", "s"), ("calls", "count"))] +
    [("boxprod.box_cosimplicial", "busy_s", "s"),
     ("simplicial.dual_cosimplicial", "busy_s", "s"),
     ("simplicial.restrict", "busy_s", "s"), ("simplicial.restrict", "calls", "count")] +
    [("cochain_ops." + f, m, u) for f in ("angle", "pushforward")
     for m, u in (("busy_s", "s"), ("calls", "count"))] +
    [("hochschild." + f, m, u)
     for f in ("differential", "differential_matrix", "modp_eliminate")
     for m, u in (("busy_s", "s"), ("calls", "count"))] +
    [("hochschild.cup", "calls", "count"), ("hochschild.bracket", "calls", "count"),
     ("cubes.gamma_cubes", "busy_s", "s"), ("cubes.gamma_cubes", "calls", "count"),
     ("trace", "overhead_frac", "ratio"), ("trace", "uncovered_frac", "ratio")])

# Measured on the shared 2-core, 8 GB x86-64 machine the benchmark was sized on.
CEILINGS = {
    "wall_spread": "about +-12% wall time over a ~20 s composite, "
                   "6 back-to-back runs",
    "cpu_vs_wall": "CPU time equalled wall time and steal was under 1%, so "
                   "the spread comes from the processor's speed",
    "calibration": "an in-process calibration loop varied +-25% and did not "
                   "cancel the spread",
    "memory": "T(3) at level 3 was killed above 7.5 GB on the 8 GB machine",
}


class PassFailed(Exception):
    pass


def machine_facts():
    mem_kib = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kib = int(line.split()[1])
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "mem_total_mib": mem_kib // 1024 if mem_kib else None,
            "ceilings": CEILINGS}


def spawn(workload, seed, trace=0, setup_only=False, span_file=None,
          timeout=RUN_BUDGET_S):
    """Run one worker interpreter; returns its JSON result with the set-up
    time (interpreter start to inputs built) filled in."""
    # -E -S: no PYTHON* variables and no site-packages, so the host's
    # start-up hooks stay out of set-up time; bytecode is cached in OUT_DIR.
    cmd = [sys.executable, "-E", "-S",
           "-X", "pycache_prefix=" + os.path.join(OUT_DIR, "pycache"),
           os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if span_file:
        cmd += ["--span-file", span_file]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:     # run() has killed and reaped it
        raise PassFailed("pass timed out after %.0f s" % exc.timeout) from None
    if proc.returncode != 0:
        raise PassFailed("worker exited %d:\n%s" % (proc.returncode,
                                                     proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_clock_s"] = result["ready"] - start
    result["setup_s"] = result["setup_clock_s"] * result["ready_speed"]
    result["process_s"] = time.monotonic() - start
    return result


def pass_totals(result):
    jobs = result["jobs"]
    return {"checks": sum(j["checks"] for j in jobs),
            "failures": sum(j["failures"] for j in jobs),
            "unexplained": sum(j["unexplained"] for j in jobs),
            "raised": [j["job"] for j in jobs if j["raised"]]}


def run_passes(workload, seed, seconds, plan, start):
    """Cycle through ``plan`` (a tuple of trace flags) until ``seconds`` have
    gone by since ``start`` and every flag has run at least MIN_PASSES times
    (once each when tracing).  Set-up probes run before each cycle, so that
    they spread over the run.  Returns the passes by flag and the probes."""
    runs = {flag: [] for flag in set(plan)}
    setups = []
    floor = MIN_PASSES if plan == (0,) else 1
    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    while True:
        setups += [spawn(workload, seed, setup_only=True)
                   for _ in range(SETUP_PROBES)]
        for flag in plan:
            span_file = None
            if flag:
                span_file = os.path.join(
                    OUT_DIR, "traces", "%s-seed%d-pass%d.jsonl"
                    % (workload, seed, len(runs[flag])))
            left = RUN_BUDGET_S - (time.monotonic() - start)
            runs[flag].append(spawn(workload, seed, flag, span_file=span_file,
                                    timeout=max(left, 10)))
        elapsed = time.monotonic() - start
        cycle = statistics.median(
            sum(r["process_s"] for r in group) / len(group)
            for group in runs.values()) * len(plan)
        enough = all(len(r) >= floor for r in runs.values())
        if enough and (elapsed + cycle > seconds or
                       elapsed + cycle > RUN_BUDGET_S):
            return runs, setups


def end_to_end(passes, setups):
    """Gated metrics and their wall-clock twins, medians over the passes."""
    med = statistics.median
    out = {"peak_rss_mib": med(p["peak_rss_mib"] for p in passes),
           "setup_s": med(r["setup_s"] for r in setups),
           "setup_clock_s": med(r["setup_clock_s"] for r in setups)}
    for suffix, key in (("s", "seconds"), ("clock_s", "clock_s")):
        walls = [sum(j[key] for j in p["jobs"]) for p in passes]
        out["wall_" + suffix] = med(walls)
        out["max_job_" + suffix] = med(max(j[key] for j in p["jobs"])
                                       for p in passes)
        out["checks_per_" + suffix] = med(pass_totals(p)["checks"] / w
                                          for p, w in zip(passes, walls))
    return out


def per_layer(plain, traced):
    med = statistics.median
    out = {}
    for layer, measure, _unit in PER_LAYER:
        name = "%s.%s" % (layer, measure)
        if layer == "trace":
            if measure == "overhead_frac":
                value = (med(p["wall_s"] for p in traced) /
                         med(p["wall_s"] for p in plain)) - 1
            else:
                value = med(p["trace"]["uncovered_frac"] for p in traced)
        elif layer == "cubes":
            # the benchmark's own little-cubes loop, not a wrapped function
            key = "checks" if measure == "checks" else "failures"
            value = med(sum(j[key] for j in p["jobs"] if j["job"] == "cubes")
                        for p in traced)
        else:
            value = med(p["trace"]["layers"].get(layer, {}).get(measure, 0)
                        for p in traced)
        out[name] = value
    return out


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    spawn(workload, seed, setup_only=True)      # writes the bytecode cache
    plan = (0, 1) if trace else (0,)
    runs, probes = run_passes(workload, seed, seconds, plan, start)
    every = [p for group in runs.values() for p in group]
    totals = [pass_totals(p) for p in every]
    attempted = sum(t["checks"] for t in totals)
    failed = sum(t["failures"] for t in totals)
    correct = attempted > 0 and all(
        t["unexplained"] == 0 and not t["raised"] for t in totals)
    plain = end_to_end(runs[0], probes + runs[0])
    if trace:
        values = per_layer(runs[0], runs[1])
        units = {"%s.%s" % (l, m): u for l, m, u in PER_LAYER}
    else:
        values = {name: plain[name] for name, _unit in END_TO_END}
        units = dict(END_TO_END)
    first = every[0]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(),
        "passes": {str(flag): len(group) for flag, group in runs.items()},
        "end_to_end": {name: {"value": plain[name], "unit": unit}
                       for name, unit in END_TO_END + WALL_CLOCK},
        "ops_attempted": attempted, "ops_failed": failed,
        "failed_frac": failed / attempted if attempted else None,
        "setup_s": [r["setup_s"] for r in probes + runs[0]],
        "checks_per_pass": [t["checks"] for t in totals],
        "failures_per_pass": [t["failures"] for t in totals],
        "jobs": [{"job": j["job"], "checks": j["checks"],
                  "failures": j["failures"], "record": j["record"],
                  "seconds": [p["jobs"][i]["seconds"] for p in every]}
                 for i, j in enumerate(first["jobs"])],
        "raised": sorted({name for t in totals for name in t["raised"]}),
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as fh:
        json.dump({"record": record, "metrics": values,
                   "passes": every}, fh)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
            "record": record}


def describe(workload, result):
    record = result["record"]
    lines = ["== %s: %s" % (workload, "correct" if result["correct"]
                             else "INCORRECT")]
    shown = dict(record["end_to_end"])
    shown.update(result["metrics"])
    shown["failed_frac"] = {"value": record["failed_frac"],
                            "unit": "%d/%d" % (result["failed"],
                                               result["attempted"])}
    for name, metric in shown.items():
        lines.append("  %-44s %14.6g %s" % (name, metric["value"],
                                            metric["unit"]))
    for job in result["record"]["jobs"]:
        lines.append("  job %-40s checks=%d failures=%d" % (
            job["job"], job["checks"], job["failures"]))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "chainops", "__init__.py")):
        print("perfbench: no chainops sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except PassFailed as exc:
            print("perfbench: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        print(describe(name, results[name]))
        print(json.dumps({"record": results[name]["record"]}))

    if len(names) == 1:
        result = results[names[0]]
        metrics = result["metrics"]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values())}
        metrics = {"%s.%s" % (w, k): v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
