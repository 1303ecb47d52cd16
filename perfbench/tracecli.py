"""Traced stand-in for ``python -m colouralg``.

    tracecli.py STATS_FILE ARGS...

Imports colouralg, installs the layer tracer, runs ``cli.main(ARGS)`` and
writes the tracer snapshot to STATS_FILE.  Stdout and the exit code are
the CLI's own, so traced outputs can be checked against untraced ones.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from colouralg import cli  # noqa: E402

from tracer import Tracer  # noqa: E402

# a CLI call spends a few milliseconds in colouralg code, so its layers are
# sampled ten times as often as in the long in-process rounds
SAMPLE_S = 0.00005


def main():
    stats_path, args = sys.argv[1], sys.argv[2:]
    tr = Tracer(SAMPLE_S)
    tr.install()
    try:
        tr.reset()
        code = cli.main(args)
    finally:
        tr.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tr.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
