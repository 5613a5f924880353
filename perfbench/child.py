"""Run one primepoly command line in this fresh interpreter and report on it.

Usage: child.py SPAWN_TIME TRACE ARGV_JSON

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so setup_s covers
interpreter start-up plus the import of primepoly.cli.  The report the
CLI prints is captured, and one JSON object is written to stdout.

cal_s times a fixed big-integer and Fraction kernel, independent of
primepoly, just before and just after the command in this same process.
The machine's speed drifts by up to 50% for minutes at a time, and the
kernel slows with it, so run.py divides by cal_s to compare like with like.
"""

import sys
import time
from fractions import Fraction


def calibrate() -> float:
    start = time.perf_counter()
    coeffs = [(-1) ** k * 3 ** (k + 40) for k in range(41)]
    acc = 0
    for num in range(-6000, 6000):
        value = 0
        for c in coeffs:
            value = value * num + c
        acc ^= value & 0xFFFF
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i)
    return time.perf_counter() - start


spawned, trace, argv = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]

import os  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from primepoly import cli  # noqa: E402

setup_s = time.monotonic() - spawned

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

tracer = None
if trace:
    import spans

    tracer = spans.install()

captured = io.StringIO()
failure = None
cal_before = calibrate()
start = time.perf_counter()
try:
    with contextlib.redirect_stdout(captured):
        code = cli.run(json.loads(argv))
except Exception:
    code, failure = 1, traceback.format_exc()
wall_s = time.perf_counter() - start
cal_s = (cal_before + calibrate()) / 2

json.dump(
    {
        "exit": code,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "cal_s": cal_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": captured.getvalue(),
        "traceback": failure,
        "trace": tracer.stats if tracer else None,
    },
    sys.stdout,
)
