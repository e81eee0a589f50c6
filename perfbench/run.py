#!/usr/bin/env python3
"""Cold time-to-verdict benchmark for varsmooth.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rnc-descent --seed 0 --seconds 25 --trace 0

Each run is one fresh process.  It builds the workload's instances from the
seed, then repeats cold passes over them for the given number of seconds:
the Groebner caches are cleared before every instance, and every verdict is
checked against the instance's known answer.  Solve times are converted to
reference seconds by calibrating the machine's speed around and inside each
solve (see calibrate), and reported as medians over the passes.  Set-up
time (importing varsmooth and building the instances) is measured in
separate fresh interpreters, several times, after the passes.

With ``--trace 1`` the run alternates untraced and traced passes; the traced
ones wrap the package's public functions (see spans.py) and give the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The full record (the
environment, every instance's deterministic report, per-pass times and the
spans of the first traced pass) is written under ``.perfbench/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LIMIT_S = 60.0       # per-instance Limits.time_s
SETUP_PROBES = 7
CAL_REF_S = 0.0008   # calibrate() on the reference machine (README.md)
SAMPLE_EVERY_S = 0.5  # speed samples inside a solve, at most this often
SAMPLE_S = 0.01      # length of one speed sample inside a solve

# workload -> (instances builder key, modes, jobs, jobs of the reference pass)
RNC_MODES = (("hironaka", {}), ("hybrid", {"to_codim": 2}))
WORKLOADS = {
    "rnc-descent": ("rnc67", RNC_MODES, 1, None),
    "rnc-jobs2": ("rnc67", RNC_MODES, 2, 1),
    "jacobian-baseline": ("rnc56", (("jacobian", {}),), 1, None),
    "cyclic-singular": ("cyclic", (("hironaka", {}),), 1, None),
}
CYCLIC = ((6, 3), (7, 3), (7, 4), (8, 4), (8, 5))   # (n, d) of I4-n-d


def build_items(workload, seed):
    """[(label, instance, mode, mode options)] for the workload."""
    from varsmooth import bench
    key, modes, _, _ = WORKLOADS[workload]
    if key == "rnc67":
        insts = [bench.rational_normal_curve(d) for d in (6, 7)]
    elif key == "rnc56":
        insts = [bench.rational_normal_curve(d) for d in (5, 6)]
    else:
        insts = [bench.random_coordinate_change(
            bench.cyclic_polytope_sr(d, n), seed, 4) for n, d in CYCLIC]
    return [(f"{inst.name}/{mode}", inst, mode, opts)
            for inst in insts for mode, opts in modes]


# -- one cold instance ---------------------------------------------------------


class Probe:
    """Observer of one solve.  Counts tasks and engine runs, and samples
    the machine's speed at task starts, at most every SAMPLE_EVERY_S, so
    that a long solve is normalized by the speed it actually ran at.  The
    time spent sampling is kept in cal_s and taken out of the solve time.
    Traced solves do not sample, so the driver's own timings stay clean."""

    def __init__(self, sample=True):
        from varsmooth.driver import Observer
        self.base = Observer()
        self.lock = threading.Lock()
        self.tasks = 0
        self.engine_runs = 0
        self.samples = []
        self.cal_s = 0.0
        self.due = (time.perf_counter() + SAMPLE_EVERY_S if sample
                    else float("inf"))

    def on_gb_start(self, task_path):
        with self.lock:
            self.engine_runs += 1

    def on_task_start(self, path, kind):
        with self.lock:
            self.tasks += 1
            t0 = time.perf_counter()
            if t0 >= self.due:
                self.samples.append(calibrate(SAMPLE_S))
                t1 = time.perf_counter()
                self.cal_s += t1 - t0
                self.due = t1 + SAMPLE_EVERY_S

    def __getattr__(self, name):
        return getattr(self.base, name)


def run_item(item, seed, jobs, tracer=None):
    """Solve one instance cold; returns its result record."""
    from varsmooth import groebner
    from varsmooth.driver import Config, projective_smoothness
    from varsmooth.limits import Limits
    label, inst, mode, opts = item
    cfg = Config(mode=mode, jobs=jobs, seed=seed,
                 limits=Limits(time_s=LIMIT_S), **opts)
    probe = Probe(sample=tracer is None)
    groebner.clear_caches()
    rec = {"label": label, "expected": inst.expected}
    before = calibrate()
    t0 = time.perf_counter()
    span = tracer.instance_span(label) if tracer else nullcontext()
    try:
        with span:
            verdict = projective_smoothness(inst.ideal, cfg, probe)
    except Exception as exc:  # a crash is a failed instance, not a stop
        rec.update(wall_s=time.perf_counter() - t0, status="error",
                   reason=f"{type(exc).__name__}: {exc}", report=None)
    else:
        rec.update(wall_s=time.perf_counter() - t0, status=verdict.status,
                   reason=verdict.reason, report=verdict.as_report(),
                   timing=dict(verdict.timing), tasks=probe.tasks,
                   engine_runs=probe.engine_runs)
    unit_s = statistics.mean([before, *probe.samples, calibrate()])
    rec["time_s"] = rec["wall_s"] - probe.cal_s
    rec["ref_s"] = rec["time_s"] * CAL_REF_S / unit_s
    if tracer is not None:
        rec["coeff_bits"] = spans.coeff_bits(tracer.bases())
        tracer.forget_bases()
    # indeterminate is a failure but not a wrong answer; a crash is both
    rec["wrong"] = rec["status"] not in (inst.expected, "indeterminate")
    rec["failed"] = rec["status"] != inst.expected or rec["wall_s"] > LIMIT_S
    return rec


def run_pass(items, seed, jobs, tracer=None):
    return [run_item(item, seed, jobs, tracer) for item in items]


def check_passes(passes, reference=None):
    """(correct, attempted, failed, problems) over all passes: wrong
    verdicts and reports that differ between passes (or from the reference
    pass) make the run incorrect; failures are counted per instance run."""
    problems = []
    first = reference if reference is not None else passes[0]
    for p in passes:
        for rec, ref in zip(p, first):
            if rec["wrong"]:
                problems.append(f"{rec['label']}: {rec['status']}, expected "
                                f"{rec['expected']} ({rec['reason']})")
            elif rec["report"] != ref["report"]:
                problems.append(f"{rec['label']}: report differs between "
                                f"passes")
    attempted = sum(len(p) for p in passes)
    failed = sum(rec["failed"] for p in passes for rec in p)
    return not problems, attempted, failed, problems


# -- measurements ----------------------------------------------------------------


_cal_rng = random.Random(1602)
_CAL_A = [(_cal_rng.randrange(1 << 30), _cal_rng.randrange(1 << 120))
          for _ in range(40)]
_CAL_B = [(_cal_rng.randrange(1 << 30), _cal_rng.randrange(1 << 120))
          for _ in range(40)]


def _cal_unit():
    acc = {}
    for ka, ca in _CAL_A:
        for kb, cb in _CAL_B:
            k = ka + kb
            v = acc.get(k)
            acc[k] = ca * cb if v is None else v + ca * cb
    sorted(acc.items())


def calibrate(seconds=0.025):
    """Median seconds a fixed piece of pure-Python work takes right now,
    over repeats run for the given seconds (at least five).

    The work (dict accumulation of products of 120-bit integers, then a
    sort) resembles the solver's inner loops but calls nothing in
    varsmooth, so no change to the package moves it; only the speed of the
    machine does.  Times divided by it and multiplied by CAL_REF_S are
    reference seconds: seconds on a machine where it takes CAL_REF_S.
    """
    samples = []
    t_end = time.perf_counter() + seconds
    while len(samples) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        _cal_unit()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def setup_probe(workload, seed):
    """Child-process body: time importing varsmooth and building items,
    in seconds and in reference seconds."""
    t0 = time.perf_counter()
    import varsmooth  # noqa: F401
    build_items(workload, seed)
    wall = time.perf_counter() - t0
    cal = calibrate(0.05)
    print(json.dumps({"wall_s": wall, "ref_s": wall * CAL_REF_S / cal}))


def measure_setup(workload, seed):
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            check=True, capture_output=True, text=True, timeout=120)
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return statistics.median(p["ref_s"] for p in probes), probes


def peak_rss_mb():
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0   # Linux reports KiB


def pass_times(p, key="ref_s"):
    return sum(rec[key] for rec in p)


def repeat(fn, seconds, min_runs):
    """Call fn at least min_runs times, and again while one more typical
    call still ends within the given seconds; returns the results."""
    results, durations = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if (len(results) >= min_runs
                and elapsed + statistics.median(durations) > seconds):
            return results


def end_to_end(workload, seed, seconds):
    items = build_items(workload, seed)
    _, _, jobs, ref_jobs = WORKLOADS[workload]
    reference = run_pass(items, seed, ref_jobs) if ref_jobs else None
    passes = repeat(lambda: run_pass(items, seed, jobs), seconds, 2)
    rss = peak_rss_mb()
    setup_s, setup_all = measure_setup(workload, seed)
    per_item = [statistics.median(p[i]["ref_s"] for p in passes)
                for i in range(len(items))]
    metrics = {
        "verdict_s": (statistics.median(pass_times(p) for p in passes), "s"),
        "verdict_s_max": (max(per_item), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {"setup_probes": setup_all,
             "wall_verdict_s": statistics.median(
                 pass_times(p, "wall_s") for p in passes)}
    return passes, reference, metrics, extra


def layer_metrics(tracer, recs, jobs):
    """Per-layer metrics of one traced pass."""
    calls, self_s, counters = tracer.totals()
    out = {}
    for name, _, _, with_self in spans.LAYERS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        if with_self:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    ok = [r for r in recs if r["report"] is not None]
    tasks = sum(r["tasks"] for r in ok)
    engine_runs = sum(r["engine_runs"] for r in ok)
    queries = sum(r["report"]["stats"]["gb_queries"] for r in ok)
    task_s = sum(r["timing"]["sequential_s"] for r in ok)
    wall = sum(r["timing"]["wall_s"] for r in ok)
    adj = counters.get("adjugate_in_enumerate", 0)
    out.update({
        "driver.tasks": (tasks, "count"),
        "driver.engine_runs": (engine_runs, "count"),
        "driver.task_s": (task_s, "s"),
        "driver.critical_path_s": (
            sum(r["timing"]["sim_parallel_s"] for r in ok), "s"),
        "driver.sched_overhead_s": (wall - task_s, "s"),
        "driver.idle_frac": (1.0 - task_s / (jobs * wall) if wall else 0.0,
                             "ratio"),
        "charts.frames_kept": (counters.get("frames_kept", 0), "count"),
        "charts.frame_yield": (
            counters.get("frames_kept", 0) / adj if adj else 0.0, "ratio"),
        "matrix.minors.out": (counters.get("minors_out", 0), "count"),
        "groebner.cache_hit_ratio": (
            1.0 - engine_runs / queries if queries else 0.0, "ratio"),
        "groebner.max_basis": (counters.get("max_basis", 0), "count"),
    })
    return out


def traced_pass(items, seed, jobs):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        recs = run_pass(items, seed, jobs, tracer)
    metrics = layer_metrics(tracer, recs, jobs)
    metrics["groebner.max_coeff_bits"] = (
        max(r["coeff_bits"] for r in recs), "count")
    return recs, metrics, tracer


def traced(workload, seed, seconds):
    items = build_items(workload, seed)
    _, _, jobs, ref_jobs = WORKLOADS[workload]
    reference = run_pass(items, seed, ref_jobs) if ref_jobs else None
    pairs = repeat(lambda: (run_pass(items, seed, jobs),
                            traced_pass(items, seed, jobs)), seconds, 1)
    plain = [p for p, _ in pairs]
    runs = [r for _, r in pairs]
    first = runs[0][1]
    metrics = {}
    for key, (value, unit) in first.items():
        if unit == "s" or key == "driver.idle_frac":   # timings: medians
            value = statistics.median(r[1][key][0] for r in runs)
        metrics[key] = (value, unit)
    plain_s = statistics.median(pass_times(p) for p in plain)
    trace_s = statistics.median(pass_times(r[0]) for r in runs)
    metrics["trace.verdict_s"] = (trace_s, "s")
    metrics["trace.overhead_frac"] = (trace_s / plain_s - 1.0, "ratio")
    counts_repeat = all(
        {k: v for k, v in r[1].items() if v[1] == "count"}
        == {k: v for k, v in first.items() if v[1] == "count"}
        for r in runs)
    extra = {"untraced_verdict_s": plain_s, "counts_repeat": counts_repeat,
             "spans": runs[0][2].spans()}
    return plain + [r[0] for r in runs], reference, metrics, extra


# -- environment and output ----------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import varsmooth
    from varsmooth import fields
    try:
        from varsmooth import kernel
        backend = kernel.backend_name()
    except (ImportError, AttributeError):
        backend = "python"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "varsmooth": getattr(varsmooth, "__version__", None),
        "kernel_backend": backend,
        "rational_type": f"{fields.mpq.__module__}.{fields.mpq.__name__}",
        "nproc": nproc,
        "seed": seed,
        "git_commit": git_commit(),
    }


def write_record(args, record, span_list):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if span_list is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in span_list:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "instance", "thread", "t0",
                     "t1"), s))) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "varsmooth" / "__init__.py").is_file():
        print(f"perfbench: no varsmooth package under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    measure = traced if args.trace else end_to_end
    passes, reference, metrics, extra = measure(
        args.workload, args.seed, args.seconds)
    correct, attempted, failed, problems = check_passes(passes, reference)
    env = environment(args.seed)
    span_list = extra.pop("spans", None)
    record = {
        "workload": args.workload, "trace": args.trace,
        "environment": env, "correct": correct, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "reports": {rec["label"]: rec["report"] for rec in passes[0]},
        "reference_reports": reference and {
            rec["label"]: rec["report"] for rec in reference},
        "failures": [(rec["label"], rec["status"], rec["reason"],
                      rec["time_s"])
                     for p in passes for rec in p if rec["failed"]],
        "pass_times_s": [{rec["label"]: {"wall": rec["wall_s"],
                                         "solve": rec["time_s"],
                                         "ref": rec["ref_s"]} for rec in p}
                         for p in passes],
        **extra,
    }
    write_record(args, record, span_list)
    print("environment " + json.dumps(env, sort_keys=True))
    for p in problems:
        print("problem: " + p)
    print(f"passes {len(passes)}  failed_frac {failed / attempted:.4f}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
