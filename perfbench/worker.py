"""One fresh benchmark process.

    worker.py setup WORKLOAD WORKDIR
        import colouralg, build every handle of the workload, print the
        perf_counter (CLOCK_MONOTONIC) stamps of interpreter start, import done and ready.

    worker.py run WORKLOAD WORKDIR SEED SECONDS MIN_JOBS TRACE
        set up, then run rounds of the workload's jobs while the next round
        is expected to end within SECONDS, and until at least MIN_JOBS jobs
        have finished.  With TRACE=1 it runs one untraced round and then the
        same round twice traced.  Prints one JSON object with every job's
        outcome.

    worker.py record WORKLOAD WORKDIR
        run one round of every variant and print the outcomes (used by
        ``record.py`` to write ``expected.json``).

The in-process workloads run their jobs here; ``cli_cold`` runs each job as
a fresh ``python -m colouralg`` child.  Outcomes carry the SHA-256 of the
canonical report lines (or of the CLI's stdout), the verdict, the lowest
failing index and the exit code; ``run.py`` checks them against
``expected.json``.
"""

import time

T_MAIN = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import colouralg  # noqa: E402,F401

T_IMPORTED = time.perf_counter()

from colouralg import checks  # noqa: E402

import jobs as jobdefs  # noqa: E402
from speed import Speedometer  # noqa: E402


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_outcome(reports) -> dict:
    lines = "\n".join(checks.report_json_line(r) for r in reports)
    failing = [r for r in reports if not r.passed]
    index = None
    if failing and failing[0].counterexample is not None:
        index = failing[0].counterexample.get("index")
    return {
        "verdict": not failing,
        "index": index,
        "exit": None,
        "digest": digest(lines.encode()),
        "evals": sum(r.samples for r in reports),
    }


def cli_outcome(proc, out: bytes) -> dict:
    evals, index = 0, None
    for line in out.decode(errors="replace").splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and isinstance(rec.get("samples"), int):
            evals += max(rec["samples"], 0)
            cex = rec.get("counterexample")
            if index is None and isinstance(cex, dict):
                index = cex.get("index")
    return {
        "verdict": proc.returncode == 0,
        "index": index,
        "exit": proc.returncode,
        "digest": digest(out),
        "evals": evals,
    }


class CliRunner:
    """Runs CLI jobs in fresh processes, optionally traced.  The children
    inherit this process's environment (``run.py`` sets PYTHONPATH and the
    thread variables)."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.stats = []

    def run(self, args, traced):
        if traced:
            stats_path = os.path.join(self.work_dir, "cli-stats.json")
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), stats_path, *args]
        else:
            cmd = [sys.executable, "-m", "colouralg", *args]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, _ = proc.communicate()
        if traced:
            with open(stats_path, encoding="utf-8") as fh:
                self.stats.append(json.load(fh))
        return cli_outcome(proc, out)


def run_round(handle, variant, cli, tr=None, traced=False):
    """Run every job of one round; return the round record.  Each job keeps
    its perf_counter start and end; ``normalise`` turns them into seconds."""
    t0 = time.perf_counter()
    outcomes = []
    for name, job in handle.jobs(variant):
        t = time.perf_counter()
        try:
            if cli is not None:
                outcome = cli.run(job, traced)
            elif tr is not None:
                tr.job = name
                with tr.span(f"job:{name}"):
                    outcome = report_outcome(job())
            else:
                outcome = report_outcome(job())
        except Exception:  # a job that raises is reported as failed, the round goes on
            outcome = {"verdict": False, "index": None, "exit": None, "digest": "raised", "evals": 0,
                       "error": traceback.format_exc(limit=5)}
        outcome["span"] = (t, time.perf_counter())
        outcome["name"] = name
        outcomes.append(outcome)
    return {"variant": variant, "wall_s": time.perf_counter() - t0, "jobs": outcomes}


def normalise(rounds, speed):
    """Add each job's raw and nominal-speed latency and each round's
    nominal-speed time (the sum over its jobs)."""
    for rd in rounds:
        for job in rd["jobs"]:
            a, b = job.pop("span")
            job["raw_s"] = b - a
            job["latency_s"] = speed.seconds(a, b)
        rd["time_s"] = sum(job["latency_s"] for job in rd["jobs"])


def traced_rounds(handle, variant, cli, rounds):
    """One untraced round, then the same round twice traced; return the
    two tracer snapshots."""
    from tracer import Tracer, merge

    rounds.append(run_round(handle, variant, cli))
    snaps = []
    for _ in range(2):
        if cli is not None:
            cli.stats = []
            rounds.append(run_round(handle, variant, cli, traced=True))
            snaps.append(merge(cli.stats))
            continue
        tr = Tracer()
        tr.install()
        try:
            rounds.append(run_round(handle, variant, cli, tr, traced=True))
            snaps.append(tr.snapshot())
        finally:
            tr.uninstall()
    return snaps


def main(argv):
    mode, workload, work_dir = argv[0], argv[1], argv[2]
    os.makedirs(work_dir, exist_ok=True)
    handle = jobdefs.build(workload, work_dir)
    t_ready = time.perf_counter()
    stamps = {"t_main": T_MAIN, "t_imported": T_IMPORTED, "t_ready": t_ready}
    if mode == "setup":
        print(json.dumps(stamps))
        return 0
    if mode == "record":
        cli = CliRunner(work_dir) if workload == "cli_cold" else None
        rounds = [run_round(handle, v, cli) for v in range(jobdefs.VARIANTS[workload])]
        print(json.dumps({"rounds": rounds}))
        return 0
    seed, seconds, min_jobs, trace = int(argv[3]), float(argv[4]), int(argv[5]), argv[6] == "1"
    cli = CliRunner(work_dir) if workload == "cli_cold" else None
    variants = jobdefs.variant_stream(workload, seed)
    rounds = []
    result = {"setup": stamps, "rounds": rounds}
    with Speedometer() as speed:
        if trace:
            result["trace"] = traced_rounds(handle, next(variants), cli, rounds)
        else:
            start = time.perf_counter()
            done = 0
            while not rounds or done < min_jobs or time.perf_counter() - start + rounds[-1]["wall_s"] <= seconds:
                rounds.append(run_round(handle, next(variants), cli))
                done += len(rounds[-1]["jobs"])
    normalise(rounds, speed)
    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
