"""Write ``expected.json``: the output of every job for every variant.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one round per variant of each workload (all four by default) on the
current sources and stores, per job, the verdict, lowest failing index, exit
code and SHA-256 of the canonical report lines or stdout.  A job whose
output is the same for every variant is stored once under ``"*"``.

The ``error:*`` CLI jobs are stored with the documented contract instead
(exit 2, nothing on stdout); when the program does not meet it, the
observed output is kept under ``"defect"`` so the benchmark counts the job
as failed without calling the run incorrect.  Re-record only when a change
is meant to alter outputs, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from worker import digest  # noqa: E402

CONTRACT_ERROR = {"verdict": False, "index": None, "exit": 2, "digest": digest(b"")}


def record(workload):
    work_dir = os.path.join(run.OUT, "work", workload)
    os.makedirs(work_dir, exist_ok=True)
    _, result = run.spawn_json(["record", workload, work_dir], run.child_env(), timeout=1800)
    per_job = {}
    for rd in result["rounds"]:
        for job in rd["jobs"]:
            got = run._fields(job)
            if job["name"].startswith("error:"):
                exp = dict(CONTRACT_ERROR)
                if got != exp:
                    exp["defect"] = got
                got = exp
            per_job.setdefault(job["name"], {})[str(rd["variant"])] = got
    out = {}
    for name, by_variant in per_job.items():
        values = list(by_variant.values())
        out[name] = {"*": values[0]} if all(v == values[0] for v in values) else by_variant
    return out


def main(argv):
    path = os.path.join(HERE, "expected.json")
    expected = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
    for workload in argv or run.WORKLOADS:
        expected[workload] = record(workload)
        sys.stderr.write(f"recorded {workload}: {len(expected[workload])} jobs\n")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
