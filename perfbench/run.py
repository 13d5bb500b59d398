#!/usr/bin/env python3
"""Campaign benchmark for the mum LPR engine.

One command builds the bench binaries from source, runs one workload, checks the
science against the committed per-seed reference and prints every metric by
name and unit. The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-reference     # rewrite perfbench/reference
    python3 perfbench/run.py --write-spec         # rewrite BENCHMARK.json

--trace 0 reports the end-to-end metrics, measured through
run::Runner::run_all_contained() with tracing off. --trace 1 reports the
per-layer metrics from the traced binary, which replays the Runner's cycle
loop through the public call of each layer; it also runs the untraced
campaign so that it can report the tracing overhead and compare reports.
See perfbench/README.md for the workloads, metrics and the layer map.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# The paper study's world seed and its neighbours. A benchmark seed picks one
# of these worlds, so every run can be checked against a committed reference.
WORLD_SEEDS = [20151028 + i for i in range(8)]

# study-par's pool leaves one core to the rest of the machine: with every
# core busy, any other process stalls a pool worker and the whole cycle waits
# for it (4 threads on a shared 4-core VM spread 36% over ten runs).
NPROC = os.cpu_count() or 1
THREADS_PAR = 1 if NPROC < 2 else min(4, max(2, NPROC - 1))

WORKLOADS = {
    "study": {
        "config": "study", "threads": 1, "cycles": 60, "passes": 1,
        "reference": "study",
        "why": "the paper's default 60-cycle study at 1 thread; probe and "
               "LPR carry its time, control for SPF work",
    },
    "study-par": {
        "config": "study-par", "threads": THREADS_PAR, "cycles": 60,
        "passes": 1, "reference": "study",
        "why": "the same study at min(nproc - 1, 4) threads; its reports must "
               "equal study's, shows pool scaling and pool-only regressions",
    },
    "churn": {
        "config": "churn", "threads": 1, "cycles": 4, "passes": 1,
        "reference": "churn",
        "why": "20k routers with 5% link churn for 4 cycles at 1 thread; SPF "
               "carries it, control for probe and LPR changes",
    },
    "resume": {
        "config": "resume", "threads": 1, "cycles": 12, "passes": 2,
        "reference": "study",
        "why": "12-cycle write pass with data shards, then a resume pass that "
               "re-ingests every cycle; the only persist and ingest load",
    },
}

# (name, unit, better, bound): the end-to-end metrics, measured untraced.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("cycle_p50_ms", "ms", "lower", 0.25),
    ("cycle_p80_ms", "ms", "lower", 0.25),
]

# (name, unit, better): the per-layer metrics of the traced run.
PER_LAYER = [
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("gen.evolve.self_s", "s", "lower"),
    ("gen.evolve.cpu_s", "s", "lower"),
    ("gen.evolve.share", "ratio", "lower"),
    ("igp.spf_s", "s", "lower"),
    ("igp.spf_share", "ratio", "lower"),
    ("igp.sources_recomputed", "count", "lower"),
    ("igp.recompute_ratio", "ratio", "lower"),
    ("mpls.lsps_signalled", "count", "lower"),
    ("probe.self_s", "s", "lower"),
    ("probe.cpu_s", "s", "lower"),
    ("probe.traces", "count", "higher"),
    ("probe.hops", "count", "higher"),
    ("probe.ns_per_trace", "ns", "lower"),
    ("probe.allocs_per_trace", "count", "lower"),
    ("core.extract.self_s", "s", "lower"),
    ("core.extract.ns_per_trace", "ns", "lower"),
    ("core.filter.self_s", "s", "lower"),
    ("core.filter.keep_ratio", "ratio", "higher"),
    ("core.group.self_s", "s", "lower"),
    ("core.classify.self_s", "s", "lower"),
    ("core.iotps", "count", "higher"),
    ("core.allocs_per_trace", "count", "lower"),
    ("run.persist.self_s", "s", "lower"),
    ("run.persist.bytes", "bytes", "lower"),
    ("run.persist.mb_per_s", "MB/s", "higher"),
    ("dataset.ingest.self_s", "s", "lower"),
    ("dataset.ingest.bytes", "bytes", "lower"),
    ("dataset.ingest.traces_per_s", "1/s", "higher"),
    ("util.pool.utilization", "ratio", "higher"),
]

RUN_SECONDS = 20
# Untraced repetitions per run even when one outlasts --seconds: the 60-cycle
# study takes ~15 s per repetition, and one sample is too noisy. A traced
# run needs one untraced + traced pair.
MIN_REPS = 2
SETUP_SAMPLES = 7
REP_TIMEOUT_S = 150
# Order of the class counts kept in the reference, per cycle and per AS.
COUNT_KEYS = ["total", "mono_lsp", "multi_fec", "mono_fec", "parallel_links",
              "routers_disjoint", "unclassified"]
FAILED_OUTCOMES = {"failed", "timed_out", "skipped"}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return os.path.join(root, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the mum sources (src/) are not next to perfbench/")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", out, "-j", jobs])
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        cache = f.read()
    if "-fsanitize" in cache or "MUM_ASAN:BOOL=ON" in cache or \
            "MUM_TSAN:BOOL=ON" in cache:
        raise BenchError("refusing to benchmark a sanitizer build")
    build_type = bench_output(["--mode", "build-type"]).strip()
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError("refusing to benchmark a %r build" % build_type)
    return build_type


def run_checked(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("%s failed with exit code %d" %
                         (" ".join(cmd[:2]), proc.returncode))


def bench_output(args, traced=False, timeout=REP_TIMEOUT_S):
    binary = os.path.join(build_dir(),
                          "perfbench_traced" if traced else
                          "perfbench_untraced")
    proc = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s %s exited %d: %s" %
                         (os.path.basename(binary), " ".join(args),
                          proc.returncode,
                          proc.stderr.strip()[-500:]))
    return proc.stdout


# ---------------------------------------------------------------------------
# One bench process = one repetition of a workload


def world_seed(seed):
    return WORLD_SEEDS[seed % len(WORLD_SEEDS)]


def bench_args(mode, workload, seed, cycles=0):
    spec = WORKLOADS[workload]
    return ["--mode", mode, "--workload", spec["config"],
            "--world-seed", str(world_seed(seed)),
            "--threads", str(spec["threads"]),
            "--cycles", str(cycles or spec["cycles"])]


def run_rep(workload, seed, mode, cycles=0, persistence_j=-1):
    """Runs the workload once in its own process; returns (summary, reports).

    reports maps (pass, cycle) to the cycle's report JSON line.
    """
    args = bench_args(mode, workload, seed, cycles)
    if persistence_j >= 0:
        args += ["--persistence-j", str(persistence_j)]
    work = None
    if workload == "resume":
        work = os.path.join(build_dir(), "work", "%d-%s" % (os.getpid(), mode))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        args += ["--dir", os.path.join(work, "checkpoints")]
    try:
        out = bench_output(args, traced=(mode == "traced"))
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    reports = {}
    summary = None
    for line in out.splitlines():
        if line.startswith("R\t"):
            _, pass_id, cycle, body = line.split("\t", 3)
            reports[(int(pass_id), int(cycle))] = body
        elif line.startswith("{"):
            summary = json.loads(line)
    if summary is None:
        raise BenchError("the bench binary printed no summary")
    return summary, reports


def setup_sample(workload, seed):
    out = bench_output(bench_args("setup", workload, seed) +
                        ["--dir", os.path.join(build_dir(), "work", "setup")])
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Correctness


def counts_of(report_json):
    report = json.loads(report_json)
    per_as = {str(entry["asn"]): [entry["classes"][k] for k in COUNT_KEYS]
              for entry in report["per_as"]}
    return [report["global"][k] for k in COUNT_KEYS], per_as


def reference_entry(report_json):
    global_counts, per_as = counts_of(report_json)
    return {"sha256": hashlib.sha256(report_json.encode()).hexdigest(),
            "global": global_counts, "per_as": per_as}


def load_reference(seed, kind):
    path = os.path.join(REFERENCE_DIR, "world-%d.json" % world_seed(seed))
    if not os.path.isfile(path):
        raise BenchError("no reference for world seed %d" % world_seed(seed))
    with open(path) as f:
        return json.load(f)[kind]


def check_reports(workload, summary, reports, reference, cycles=0):
    """Returns (attempted, failed, problems) for one repetition.

    A cycle fails when it is missing from the manifest, when its outcome is
    failed/timed-out/skipped, when its report differs from the reference by a
    single byte, or (resume) when the resume pass did not re-ingest it or
    changed its report.
    """
    spec = WORKLOADS[workload]
    expected = {(p, c) for p in range(spec["passes"])
                for c in range(cycles or spec["cycles"])}
    problems = []
    records = summary["cycles"]
    seen = {(r["pass"], r["cycle"]) for r in records}
    failed = len(expected - seen)
    if failed:
        problems.append("%d cycles missing from the manifest" % failed)
    for record in records:
        pass_id, cycle = record["pass"], record["cycle"]
        bad = []
        if (pass_id, cycle) not in expected:
            bad.append("unexpected cycle")
        if record["outcome"] in FAILED_OUTCOMES:
            bad.append("outcome %s" % record["outcome"])
        if workload == "resume" and pass_id == 1 and \
                record["outcome"] != "from_data":
            bad.append("resume cycle not from_data (%s)" % record["outcome"])
        body = reports.get((pass_id, cycle))
        if body is None:
            bad.append("no report")
        elif cycle >= len(reference):
            bad.append("no reference cycle")
        else:
            ref = reference[cycle]
            if hashlib.sha256(body.encode()).hexdigest() != \
                    ref["sha256"]:
                got_global, got_per_as = counts_of(body)
                detail = "report bytes differ"
                if got_global != ref["global"]:
                    detail += "; global %s != %s" % (got_global,
                                                     ref["global"])
                diff_as = sorted(a for a in set(got_per_as) |
                                 set(ref["per_as"])
                                 if got_per_as.get(a) !=
                                 ref["per_as"].get(a))
                if diff_as:
                    detail += "; per-AS counts differ for AS %s" % \
                              ",".join(diff_as[:5])
                bad.append(detail)
            if workload == "resume" and pass_id == 1 and \
                    body != reports.get((0, cycle)):
                bad.append("resume report differs from the write pass")
        if bad:
            failed += 1
            problems.append("pass %d cycle %d: %s" %
                            (pass_id, cycle + 1, "; ".join(bad)))
    return len(expected | seen), failed, problems


# ---------------------------------------------------------------------------
# Metrics


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cycle_latencies_ms(summary):
    """Per-cycle latency from the manifest's duration_ns. For resume a
    cycle's latency is its write-pass plus its resume-pass time."""
    by_cycle = {}
    for record in summary["cycles"]:
        by_cycle[record["cycle"]] = by_cycle.get(record["cycle"], 0) + \
            record["duration_ns"]
    return [ns / 1e6 for ns in by_cycle.values()]


def end_to_end_metrics(summaries, setups):
    latencies = []
    for summary in summaries:
        latencies += cycle_latencies_ms(summary)
    med = statistics.median
    return {
        "wall_s": med([s["wall_s"] for s in summaries]),
        "setup_s": med(setups),
        "cpu_s": med([s["cpu_s"] for s in summaries]),
        "peak_rss_mb": med([s["peak_rss_bytes"] / 1e6 for s in summaries]),
        "cycle_p50_ms": quantile(latencies, 0.5),
        "cycle_p80_ms": quantile(latencies, 0.8),
    }, len(latencies)


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(traced, untraced_wall_s):
    layers, counts = traced["layers"], traced["counts"]
    wall = traced["wall_s"]

    def self_s(name):
        return layers[name]["self_s"]

    core = ["core.extract", "core.filter", "core.group", "core.classify"]
    traces_extracted = counts["probe.traces"] + counts["dataset.ingest.traces"]
    recomputed = counts["igp.reconverge_sources_recomputed"] + \
        counts["delta.spf_sources_recomputed"]
    considered = counts["igp.reconverge_sources_recomputed"] + \
        counts["igp.reconverge_sources_skipped"] + \
        counts["delta.spf_sources_total"]
    return {
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(l["self_s"]
                                           for l in layers.values()),
        "trace.overhead": ratio(wall, untraced_wall_s),
        "gen.evolve.self_s": self_s("gen.evolve"),
        "gen.evolve.cpu_s": layers["gen.evolve"]["cpu_s"],
        "gen.evolve.share": ratio(self_s("gen.evolve"), wall),
        "igp.spf_s": counts["igp.spf_ns"] / 1e9,
        "igp.spf_share": ratio(counts["igp.spf_ns"] / 1e9, wall),
        "igp.sources_recomputed": recomputed,
        "igp.recompute_ratio": ratio(recomputed, considered),
        "mpls.lsps_signalled": counts["mpls.lsps_signalled"],
        "probe.self_s": self_s("probe"),
        "probe.cpu_s": layers["probe"]["cpu_s"],
        "probe.traces": counts["probe.traces"],
        "probe.hops": counts["probe.hops"],
        "probe.ns_per_trace": ratio(self_s("probe") * 1e9,
                                    counts["probe.traces"]),
        "probe.allocs_per_trace": ratio(layers["probe"]["allocs"],
                                        counts["probe.traces"]),
        "core.extract.self_s": self_s("core.extract"),
        "core.extract.ns_per_trace": ratio(self_s("core.extract") * 1e9,
                                           traces_extracted),
        "core.filter.self_s": self_s("core.filter"),
        "core.filter.keep_ratio": ratio(counts["core.kept"],
                                        counts["core.observed"]),
        "core.group.self_s": self_s("core.group"),
        "core.classify.self_s": self_s("core.classify"),
        "core.iotps": counts["core.iotps"],
        "core.allocs_per_trace": ratio(sum(layers[l]["allocs"] for l in core),
                                       traces_extracted),
        "run.persist.self_s": self_s("run.persist"),
        "run.persist.bytes": counts["run.persist.bytes"],
        "run.persist.mb_per_s": ratio(counts["run.persist.bytes"] / 1e6,
                                      self_s("run.persist")),
        "dataset.ingest.self_s": self_s("dataset.ingest"),
        "dataset.ingest.bytes": counts["dataset.ingest.bytes"],
        "dataset.ingest.traces_per_s": ratio(counts["dataset.ingest.traces"],
                                             self_s("dataset.ingest")),
        "util.pool.utilization": ratio(traced["cpu_s"],
                                       wall * traced["threads"]),
    }


def median_metrics(rows):
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


# ---------------------------------------------------------------------------
# Provenance


def provenance(workload, build_type):
    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "threads": WORKLOADS[workload]["threads"],
    }


def calibration_s():
    out = bench_output(["--mode", "calibrate"])
    return json.loads(out.strip().splitlines()[-1])["calibration_s"]


# ---------------------------------------------------------------------------
# Workload run


def run_workload(args):
    build_type = build()
    spec = WORKLOADS[args.workload]
    reference = load_reference(args.seed, spec["reference"])
    prov = provenance(args.workload, build_type)
    prov.update(workload=args.workload, seed=args.seed,
                world_seed=world_seed(args.seed), trace=args.trace,
                seconds=args.seconds,
                loadavg_start=list(os.getloadavg()),
                calibration_start_s=calibration_s())

    attempted = failed = 0
    problems = []

    def check(summary, reports):
        nonlocal attempted, failed
        a, f, p = check_reports(args.workload, summary, reports, reference)
        attempted += a
        failed += f
        problems.extend(p)

    untraced, traced, setups = [], [], []
    if not args.trace:
        setups = [setup_sample(args.workload, args.seed)
                  for _ in range(SETUP_SAMPLES)]
    # Closed loop: repetitions back to back, each in its own process, at
    # least MIN_REPS, then while the next one is predicted to end inside the
    # measuring time.
    start = time.monotonic()
    reps = 0
    while True:
        t0 = time.monotonic()
        summary, reports = run_rep(args.workload, args.seed, "untraced")
        check(summary, reports)
        untraced.append(summary)
        setups += summary["setup_s"]
        if args.trace:
            t_summary, t_reports = run_rep(args.workload, args.seed, "traced")
            check(t_summary, t_reports)
            if t_reports != reports:
                failed += 1
                problems.append("traced reports differ from untraced ones")
            traced.append(t_summary)
        reps += 1
        elapsed = time.monotonic() - start
        min_reps = 1 if args.trace else MIN_REPS
        if reps >= min_reps and \
                elapsed + (time.monotonic() - t0) > args.seconds:
            break

    prov.update(repetitions=reps, loadavg_end=list(os.getloadavg()),
                calibration_end_s=calibration_s())
    if args.trace:
        untraced_wall = statistics.median(s["wall_s"] for s in untraced)
        rows = [per_layer_metrics(t, untraced_wall) for t in traced]
        values = median_metrics(rows)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for t in traced:
            unattributed = t["wall_s"] - sum(l["self_s"]
                                             for l in t["layers"].values())
            if unattributed < -1e-3:
                failed += 1
                problems.append("layer self times exceed the traced wall")
    else:
        values, samples = end_to_end_metrics(untraced, setups)
        prov["cycle_samples"] = samples
        units = {name: unit for name, unit, _, _ in END_TO_END}
    prov["failed_share"] = ratio(failed, attempted)
    return values, units, attempted, failed, problems, prov


def emit(values, units, attempted, failed, problems, prov):
    for problem in problems[:20]:
        print("FAIL " + problem)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name in values:
        print("%-30s %16.6f %s" % (name, values[name], units[name]))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in values}
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    row = dict(prov, **result)
    results = os.path.join(build_dir(), "results.jsonl")
    with open(results, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# Reference, self-test and spec


def make_reference():
    """Records each world's per-cycle reports from the untraced Runner path
    (study-par covers study and resume, whose reports must equal it)."""
    build()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for index, world in enumerate(WORLD_SEEDS):
        entry = {"world_seed": world}
        for kind in ("study", "churn"):
            workload = "study-par" if kind == "study" else kind
            summary, reports = run_rep(workload, index, "untraced")
            entry[kind] = [reference_entry(reports[(0, c)])
                           for c in sorted(c for p, c in reports if p == 0)]
            log("reference world %d %s: %d cycles" %
                (world, kind, len(entry[kind])))
        write_reference(os.path.join(REFERENCE_DIR, "world-%d.json" % world),
                        entry)


def write_reference(path, entry):
    """One cycle per line, so a science change reads as a small diff."""
    def line(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    parts = ['{"world_seed":%d' % entry["world_seed"]]
    for kind in ("study", "churn"):
        parts.append(',\n"%s":[\n%s\n]' %
                     (kind, ",\n".join(line(c) for c in entry[kind])))
    with open(path, "w") as f:
        f.write("".join(parts) + "}\n")


def self_test():
    """A clean short run must pass the reference check, and a run with a
    perturbed pipeline (Persistence j = 1) must fail it."""
    build()
    seed = 0
    reference = load_reference(seed, "study")
    ok = True
    for label, mode, persistence_j, expect_pass in (
            ("clean untraced", "untraced", -1, True),
            ("clean traced", "traced", -1, True),
            ("persistence j=1", "untraced", 1, False)):
        summary, reports = run_rep("study", seed, mode, cycles=4,
                                   persistence_j=persistence_j)
        _, failed, problems = check_reports("study", summary, reports,
                                            reference, cycles=4)
        passed = failed == 0
        ok = ok and passed == expect_pass
        log("self-test %-16s check %s (%d failed cycles) -> %s" %
            (label, "passed" if passed else "failed", failed,
             "ok" if passed == expect_pass else "WRONG"))
        for problem in problems[:2]:
            log("  " + problem)
    return ok


def write_spec():
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    try:
        if args.write_spec:
            write_spec()
            return 0
        if args.make_reference:
            make_reference()
            return 0
        if args.self_test:
            return 0 if self_test() else 1
        if args.workload is None:
            parser.error("--workload is required")
        emit(*run_workload(args))
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
