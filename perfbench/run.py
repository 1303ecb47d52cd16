"""colouralg benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` is how long a run with ``--trace 0`` measures; it defaults to
``run_seconds`` in ``BENCHMARK.json``, the value the benchmark is run with.

The default seed is the acceptance seed 20240817; use the held-out seed 977
to confirm a gain on inputs a change was not tuned on.

Run from the root of a source checkout (the program is imported from
``src/``).  Each workload runs in fresh child processes with the BLAS and
OpenMP thread variables pinned to 1:

* ``SETUP_PROBES`` set-up probes (after one warm-up) each import colouralg
  and build every handle of the workload; ``setup_s`` is their median;
* one worker runs rounds of the workload's jobs for about ``--seconds``
  (a traced run instead runs its three rounds, however long they take).

Every job's output (verdict, lowest failing index, exit code and SHA-256 of
the canonical report lines or stdout) is checked against ``expected.json``.
With ``--trace 1`` the worker runs one untraced round and the same round
twice under the layer tracer; the per-layer metrics come from the first
traced round, the two traced rounds must give identical counts and every
traced output must equal the untraced one.

Human-readable tables go to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

from speed import Speedometer  # noqa: E402

WORKLOADS = ("seeded_finite", "seeded_exact", "exhaustive_f3", "cli_cold")
ACCEPTANCE_SEED = 20240817
SETUP_PROBES = 5

# job-latency tail: the percentile reported and the job count that leaves at
# least ten jobs beyond it (exhaustive_f3 has six jobs: its tail is the max)
TAIL = {"seeded_finite": (90, 100), "seeded_exact": (75, 40), "exhaustive_f3": (100, 6), "cli_cold": (75, 40)}

END_TO_END = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("evals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
]

# (name, unit) of the per-layer metrics in the JSON line of a traced run
PER_LAYER = [
    ("proc.start_s", "s"),
    ("proc.import_s", "s"),
    ("trace.overhead", "x"),
    ("rings.calls", "count"),
    ("rings.self_s", "s"),
    ("rings.samples", "count"),
    ("rings.mul_calls", "count"),
    ("rings.addsub_calls", "count"),
    ("rings.inv_calls", "count"),
    ("rings.Q.calls", "count"),
    ("rings.Zn.calls", "count"),
    ("rings.poly.calls", "count"),
    ("rings.poly.terms_per_mul", "terms"),
    ("etale.calls", "count"),
    ("etale.mul_calls", "count"),
    ("etale.conj_calls", "count"),
    ("trivec.calls", "count"),
    ("trivec.cross_calls", "count"),
    ("trivec.h_calls", "count"),
    ("algebras.calls", "count"),
    ("algebras.self_s", "s"),
    ("algebras.samples", "count"),
    ("algebras.mul_calls", "count"),
    ("algebras.mul_us", "us"),
    ("algebras.mul_per_eval", "ratio"),
    ("algebras.mul_calls.col_split", "count"),
    ("algebras.mul_calls.zorn", "count"),
    ("algebras.mul_calls.w_split", "count"),
    ("algebras.mul_calls.cay_hermitian", "count"),
    ("algebras.mul_calls.col_hermitian", "count"),
    ("algebras.mul_calls.w_hermitian", "count"),
    ("graded.calls", "count"),
    ("maps.calls", "count"),
    ("checks.evals", "count"),
    ("checks.self_s", "s"),
    ("checks.samples", "count"),
    ("checks.sample_calls", "count"),
    ("checks.path.scalar", "count"),
    ("checks.path.kernel", "count"),
    ("kernel.calls", "count"),
    ("kernel.rows_per_call", "rows"),
    ("kernel.bytes_computed", "B"),
    ("cli.calls", "count"),
]

# count-type figures that two traced rounds of the same inputs must repeat
_COUNT_KEYS = ("calls", "poly_terms", "kernel_rows", "kernel_bytes")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # measure with bytecode caches, as an installed package runs, whatever
    # the calling shell says (the warm-up probe writes them)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn_json(args, env, timeout):
    """Run a worker to completion and parse the JSON on its last stdout line."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {args[:2]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return t_spawn, json.loads(out.decode().strip().splitlines()[-1])


def setup_probes(workload, work_dir, env):
    """Set-up figures of fresh processes (after one warm-up), in
    nominal-speed seconds."""
    stamps = []
    with Speedometer() as speed:
        for i in range(SETUP_PROBES + 1):
            t_spawn, st = spawn_json(["setup", workload, work_dir], env, timeout=60)
            if i:
                stamps.append((t_spawn, st))
    return [
        {
            "setup_s": speed.seconds(t, st["t_ready"]),
            "start_s": speed.seconds(t, st["t_main"]),
            "import_s": speed.seconds(st["t_main"], st["t_imported"]),
        }
        for t, st in stamps
    ]


# ----------------------------------------------------------- correctness


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fields(outcome):
    return {k: outcome[k] for k in ("verdict", "index", "exit", "digest")}


def check_outcome(expected_wl, variant, outcome):
    """Return (ok, known) for one job: ``ok`` when the output equals the
    expected output; ``known`` when a mismatch is a recorded defect."""
    exp_job = expected_wl.get(outcome["name"])
    if exp_job is None:
        return False, False
    exp = exp_job.get(str(variant), exp_job.get("*"))
    if exp is None:
        return False, False
    got = _fields(outcome)
    if got == _fields(exp):
        return True, True
    return False, got == exp.get("defect")


def check_rounds(expected_wl, rounds):
    attempted = failed = unexpected = 0
    bad = []
    for rd in rounds:
        for job in rd["jobs"]:
            ok, known = check_outcome(expected_wl, rd["variant"], job)
            attempted += 1
            if not ok:
                failed += 1
                if not known:
                    unexpected += 1
                    raised = job.get("error", "").strip().splitlines()[-1:]
                    bad.append(f"{job['name']} (variant {rd['variant']})" + (f": raised {raised[0]}" if raised else ""))
    return attempted, failed, unexpected, bad


# -------------------------------------------------------------- metrics


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(workload, probes, result):
    rounds = result["rounds"]
    latencies = [j["latency_s"] for rd in rounds for j in rd["jobs"]]
    pct, _ = TAIL[workload]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "verdict_s": statistics.median(rd["time_s"] for rd in rounds),
        "evals_per_s": statistics.median(sum(j["evals"] for j in rd["jobs"]) / rd["time_s"] for rd in rounds),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_tail_ms": 1000 * percentile(latencies, pct),
    }


def per_layer(probes, result):
    from tracer import layer_metrics

    rounds = result["rounds"]
    snap = result["trace"][0]
    m = layer_metrics(snap)
    evals = sum(j["evals"] for j in rounds[1]["jobs"])
    m["proc.start_s"] = statistics.median(p["start_s"] for p in probes)
    m["proc.import_s"] = statistics.median(p["import_s"] for p in probes)
    m["trace.overhead"] = rounds[1]["time_s"] / rounds[0]["time_s"]
    m["checks.evals"] = evals
    kernel_path = snap["calls"].get("checks:_colsplit_exhaustive_pairs", 0)
    m["checks.path.kernel"] = kernel_path
    m["checks.path.scalar"] = snap["calls"].get("checks:run_identity", 0) - kernel_path
    muls = m["algebras.mul_calls"] + snap["calls"].get("graded:mul", 0)
    m["algebras.mul_per_eval"] = muls / evals if evals else 0.0
    return m


def thin_samples(metrics):
    """The sampled self times in the JSON line that rest on fewer than
    ``MIN_SAMPLES`` samples."""
    from tracer import MIN_SAMPLES

    return [
        f"{name} rests on {metrics[name[:-len('self_s')] + 'samples']} samples (< {MIN_SAMPLES})"
        for name, _ in PER_LAYER
        if name.endswith(".self_s") and metrics[name[:-len("self_s")] + "samples"] < MIN_SAMPLES
    ]


def trace_self_check(result):
    """Traced outputs equal untraced ones; traced counts repeat exactly."""
    problems = []
    base = [_fields(j) for j in result["rounds"][0]["jobs"]]
    for rd in result["rounds"][1:]:
        if [_fields(j) for j in rd["jobs"]] != base:
            problems.append("traced outputs differ from the untraced round")
    a, b = result["trace"]
    if any(a[k] != b[k] for k in _COUNT_KEYS):
        problems.append("counts differ between the two traced rounds")
    return problems


# ------------------------------------------------------------------ run


def run_workload(workload, seed, seconds, trace):
    env = child_env()
    work_dir = os.path.join(OUT, "work", workload)
    os.makedirs(work_dir, exist_ok=True)
    expected = load_expected()[workload]
    probes = setup_probes(workload, work_dir, env)
    _, min_jobs = TAIL[workload]
    args = ["run", workload, work_dir, str(seed), str(seconds), str(min_jobs), "1" if trace else "0"]
    _, result = spawn_json(args, env, timeout=170)
    attempted, failed, unexpected, bad = check_rounds(expected, result["rounds"])
    problems = [f"unexpected output: {b}" for b in bad]
    if trace:
        problems += trace_self_check(result)
        metrics = per_layer(probes, result)
        units = PER_LAYER
        _write_trace(workload, seed, result)
    else:
        metrics = end_to_end(workload, probes, result)
        units = END_TO_END
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    notes = thin_samples(metrics) if trace else []
    _print_table(workload, seed, trace, result, metrics, report, problems, notes)
    return report


def _write_trace(workload, seed, result):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "snapshots": result["trace"]}, fh)


def _print_table(workload, seed, trace, result, metrics, report, problems, notes):
    err = sys.stderr
    rounds = result["rounds"]
    n_jobs = sum(len(rd["jobs"]) for rd in rounds)
    err.write(f"== {workload} seed={seed} trace={int(trace)} rounds={len(rounds)} jobs={n_jobs}\n")
    if trace:
        spans = sum(len(snap["spans"]) for snap in result["trace"])
        err.write(f"   spans recorded: {spans} (written to perfbench/out/trace-{workload}-{seed}.json)\n")
        for name, value in sorted(metrics.items()):
            err.write(f"   {name:36} {value:.6g}\n")
    else:
        pct, _ = TAIL[workload]
        alias = {"job_p50_ms": "cli_p50_ms", "job_tail_ms": "cli_tail_ms"} if workload == "cli_cold" else {}
        for name, unit in END_TO_END:
            note = ""
            if name in ("job_p50_ms", "job_tail_ms"):
                note = f"  (p{50 if name == 'job_p50_ms' else pct} of {n_jobs} jobs)"
                note += f" = {alias[name]}" if name in alias else ""
            err.write(f"   {name:14} {metrics[name]:12.6g} {unit}{note}\n")
        by_job = {}
        for rd in rounds:
            for j in rd["jobs"]:
                by_job.setdefault(j["name"], []).append((j["latency_s"], j["raw_s"]))
        err.write("     job medians: nominal-speed ms (raw wall ms)\n")
        for name, lat in by_job.items():
            nominal = 1000 * statistics.median(x for x, _ in lat)
            raw = 1000 * statistics.median(r for _, r in lat)
            err.write(f"     {name:44} {nominal:10.2f} ({raw:.2f})\n")
    frac = report["failed"] / report["attempted"]
    err.write(f"   failed_frac    {report['failed']}/{report['attempted']} = {frac:.4f}\n")
    for p in problems:
        err.write(f"   PROBLEM: {p}\n")
    for n in notes:
        err.write(f"   NOTE: {n}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, help="length of a --trace 0 run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if not os.path.isfile(os.path.join(ROOT, "src", "colouralg", "__init__.py")):
        sys.stderr.write("perfbench: no colouralg sources under src/; run from a source checkout\n")
        return 2
    if not os.path.isfile(os.path.join(HERE, "expected.json")):
        sys.stderr.write("perfbench: expected.json is missing; run perfbench/record.py\n")
        return 2
    # one CPU for the benchmark and all its children, so the speed reference
    # runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"perfbench: {name}: {exc}\n")
            return 1
        if len(names) > 1:
            print(json.dumps({"workload": name, **reports[-1]}))
    if len(names) == 1:
        print(json.dumps(reports[0]))
    else:
        metrics = {f"{n}.{k}": v for n, r in zip(names, reports) for k, v in r["metrics"].items()}
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in reports),
                    "attempted": sum(r["attempted"] for r in reports),
                    "failed": sum(r["failed"] for r in reports),
                    "metrics": metrics,
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
