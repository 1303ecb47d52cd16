"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

* A planted wrong product (one family's ``mul`` wrapped from here, not in
  ``src/``) must make exactly the jobs that use that family fail the
  digest check, and be counted in ``failed``.
* A traced run must give the untraced outputs and repeat its counts.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark must exit non-zero without printing a result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path and imports colouralg)
from colouralg import algebras  # noqa: E402

import jobs  # noqa: E402

# the jobs that see a wrong zorn scalar slot; the cross-construction check
# projects the zorn product onto its vector slots, where the plant is invisible
ZORN_JOBS = {"suite:zorn/F7", "cay-zorn"}


def _round(handle, variant=0):
    return worker.run_round(handle, variant, None)


def test_planted_wrong_product_is_caught():
    expected = run.load_expected()["seeded_finite"]
    handle = jobs.build("seeded_finite", os.path.join(run.OUT, "work", "selftest"))
    clean = _round(handle)
    attempted, failed, unexpected, _ = run.check_rounds(expected, [clean])
    assert (failed, unexpected) == (0, 0), "the unplanted round must match expected.json"

    original = algebras.ZornAlgebra.mul

    def wrong_mul(self, x, y):
        p = original(self, x, y)
        return dataclasses.replace(p, a=self.ring.add(p.a, self.ring.one))

    algebras.ZornAlgebra.mul = wrong_mul
    try:
        planted = _round(handle)
    finally:
        algebras.ZornAlgebra.mul = original
    attempted, failed, unexpected, bad = run.check_rounds(expected, [planted])
    hit = {name.split(" (")[0] for name in bad}
    assert hit == ZORN_JOBS, f"planted zorn product caught by {sorted(hit)}"
    assert failed == unexpected == len(ZORN_JOBS) and attempted == len(planted["jobs"])
    for job in planted["jobs"]:
        if job["name"] in ZORN_JOBS:
            assert job["digest"] != expected[job["name"]]["*"]["digest"]


def test_traced_run_matches_untraced_and_repeats_counts():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "seeded_finite", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["correct"], out.stderr
    assert set(report["metrics"]) == {name for name, _ in run.PER_LAYER}


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "seeded_finite", "--seed", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"PASS {name}")
