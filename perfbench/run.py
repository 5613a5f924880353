"""The primepoly benchmark: seeded CLI workloads timed from outside, checked independently.

Usage (from the repository root):

    python3 perfbench/run.py --workload census_large --seed 3 --seconds 25 --trace 0

Each command line of the workload runs in a fresh interpreter (child.py),
because a CLI user always starts with a cold `_classify` memo.  The load is
closed-loop from this single process: one child at a time, no threads.  A
pass runs every command line once; passes repeat until the next one would
overrun --seconds.  Afterwards, outside the timed region, every distinct
report is checked by check.py (sympy and mpmath, no primepoly code), every
repeat must reproduce its bytes, and command lines that have a reference in
reference.json must match its exit code and sha256.

Every time is scaled to the reference machine speed: it is multiplied by
CAL_REF_S / cal_s, where cal_s is a fixed kernel timed in the same process
(child.py).  The machine's speed drifts by up to 50% for minutes at a time;
the scaled times do not.

With --trace 0 the last stdout line holds the end-to-end metrics:
  wall_s       sum over the command lines of the median time inside cli.run
  setup_s      median over all processes of start-up until primepoly.cli imported
  peak_rss_mb  largest peak resident set of any command process
With --trace 1 untraced and traced passes alternate, and the last line
holds the per-layer metrics of the traced passes (spans.py).  The line
before it is a JSON record of the seed, command lines, per-command times
(scaled and raw), failures and run context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
MEASURE_LIMIT_S = 150  # stop measuring here so the run ends well within 180 s
CAL_REF_S = 0.07  # the calibration kernel's time on the reference machine

MODULES = ("poly", "primes", "roots", "census", "constructions", "exceptional", "badpoints", "bounds", "cli")
FUNCTION_METRICS = (
    ("roots.isolate_roots", ("calls", "self_s", "roots_out")),
    ("roots.integer_solutions", ("calls", "self_s", "incl_s", "degree_max")),
    ("roots.count_real_roots", ("calls", "self_s")),
    ("roots.sign_at", ("calls", "self_s")),
    ("roots.sturm_count", ("calls", "self_s")),
    ("roots.sublevel_measure", ("self_s",)),
    ("exceptional.search_exceptional", ("self_s", "scanned")),
    ("badpoints.bad_points", ("calls", "self_s", "points_out")),
    ("badpoints.block_report", ("self_s",)),
    ("bounds.solve_constant", ("self_s",)),
    ("bounds.polya_measure_check", ("self_s",)),
    ("primes.is_prime", ("calls", "self_s", "bits_max", "calls.trial_division",
                         "calls.miller_rabin_det", "calls.bpsw", "calls.unit_or_zero")),
    ("primes.find_multiplier", ("calls", "self_s", "t_abs")),
    ("constructions.search_n_plus_2", ("self_s", "t_abs")),
    ("constructions.build_n_plus_1", ("incl_s",)),
    ("constructions.build_p_plus", ("incl_s",)),
    ("census.prime_census", ("calls", "self_s", "candidates")),
    ("census.unit_fibers", ("incl_s",)),
    ("cli.run", ("self_s",)),
)
# ratio name -> (function, numerator key, denominator function, denominator key)
RATIOS = {
    "primes.is_prime.prime_ratio": ("primes.is_prime", "primes", "primes.is_prime", "calls"),
    "exceptional.search_exceptional.screen_pass_ratio": (
        "roots.integer_solutions", "under_search", "exceptional.search_exceptional", "scanned"),
    "census.prime_census.witness_ratio": (
        "census.prime_census", "witnesses", "census.prime_census", "candidates"),
}


def unit(metric: str) -> str:
    key = metric.rsplit(".", 1)[-1]
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith(("_ratio", "_share")):
        return "ratio"
    return {"bits_max": "bits", "degree_max": "degree"}.get(key, "count")


def per_layer_names() -> list[str]:
    names = [f"{fn}.{key}" for fn, keys in FUNCTION_METRICS for key in keys]
    names += list(RATIOS)
    names += [f"layer.{m}.{k}" for m in MODULES for k in ("self_s", "self_share")]
    return names + ["trace.overhead_s"]


# ---------------------------------------------------------------------------
# Running command lines
# ---------------------------------------------------------------------------


def execute(argv: list[str], traced: bool, timeout: float) -> dict:
    """Run one command line (with --json) in a fresh interpreter."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(spawned), str(int(traced)), json.dumps(argv + ["--json"])],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"argv": argv, "traced": traced, "error": f"timeout after {timeout:.0f} s"}
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"argv": argv, "traced": traced, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return {"argv": argv, "traced": traced, "error": None, **record}


def measure(lines: list[list[str]], seconds: float, trace: bool) -> tuple[list[dict], bool]:
    """Repeat passes until the next would overrun `seconds`; True if cut by the limit."""
    start = time.monotonic()
    records: list[dict] = []
    rounds = 0
    while True:
        for traced in (False, True) if trace else (False,):
            for argv in lines:
                left = MEASURE_LIMIT_S - (time.monotonic() - start)
                if left <= 0:
                    return records, True
                records.append({"pass": rounds, **execute(argv, traced, left)})
                if (records[-1]["error"] or "").startswith("timeout"):
                    return records, True
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return records, False


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def judge(records: list[dict], reference: dict) -> list[str]:
    """Mark each record failed or not; return the failure descriptions."""
    import check  # sympy loads only after measuring, so it never shares the machine with a command

    first: dict[str, dict] = {}
    verdicts: dict[str, list[str]] = {}
    failures = []
    for rec in records:
        key = " ".join(rec["argv"])
        why = []
        if rec["error"]:
            why.append(rec["error"])
        else:
            if rec["traceback"]:
                why.append("traceback: " + rec["traceback"].strip().splitlines()[-1])
            if rec["exit"] != 0:
                why.append(f"exit code {rec['exit']}")
            if key not in first:
                first[key] = rec
                verdicts[key] = check.problems(rec["argv"], rec["report"])
                ref = reference.get(key)
                if ref and (ref["exit"], ref["sha256"]) != (rec["exit"], sha256(rec["report"])):
                    verdicts[key].append("report bytes or exit code differ from the reference")
            elif rec["report"] != first[key]["report"]:
                why.append("report bytes differ between repeats")
            why += verdicts[key]
        rec["failed"] = bool(why)
        if why:
            failures.append(f"{key}: " + "; ".join(why))
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _scale(rec: dict) -> float:
    return CAL_REF_S / rec["cal_s"]


def _per_command_wall(records: list[dict], lines: list[list[str]], scaled: bool = True) -> list[float | None]:
    out = []
    for argv in lines:
        times = [r["wall_s"] * (_scale(r) if scaled else 1) for r in records if r["argv"] == argv and not r["error"]]
        out.append(statistics.median(times) if times else None)
    return out


def end_to_end(records: list[dict], lines: list[list[str]]) -> dict:
    ok = [r for r in records if not r["error"]]
    return {
        "wall_s": sum(_per_command_wall(records, lines)),
        "setup_s": statistics.median(r["setup_s"] * _scale(r) for r in ok),
        "peak_rss_mb": max(r["rss_kb"] for r in ok) / 1024,
    }


def _merge(records: list[dict]) -> dict:
    """Sum the span statistics of the processes, times scaled per process."""
    merged: dict[str, dict] = {}
    for rec in records:
        for fn, values in rec["trace"].items():
            into = merged.setdefault(fn, {})
            for key, value in values.items():
                if key.endswith("_max"):
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + (value * _scale(rec) if key.endswith("_s") else value)
    return merged


def _layer_values(merged: dict) -> dict:
    values = {f"{fn}.{key}": merged.get(fn, {}).get(key, 0) for fn, keys in FUNCTION_METRICS for key in keys}
    for name, (fn, num, den_fn, den) in RATIOS.items():
        d = merged.get(den_fn, {}).get(den, 0)
        values[name] = merged.get(fn, {}).get(num, 0) / d if d else 0.0
    total = sum(v["self_s"] for v in merged.values())
    for module in MODULES:
        self_s = sum(v["self_s"] for fn, v in merged.items() if fn.split(".")[0] == module)
        values[f"layer.{module}.self_s"] = self_s
        values[f"layer.{module}.self_share"] = self_s / total if total else 0.0
    return values


def per_layer(records: list[dict], lines: list[list[str]]) -> dict:
    traced = [r for r in records if r["traced"] and not r["error"]]
    plain = [r for r in records if not r["traced"]]
    passes = [[r for r in traced if r["pass"] == i] for i in sorted({r["pass"] for r in traced})]
    samples = [_layer_values(_merge(p)) for p in passes if len(p) == len(lines)]
    if not samples:
        return {}
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead_s"] = sum(_per_command_wall(traced, lines)) - sum(_per_command_wall(plain, lines))
    return values


# ---------------------------------------------------------------------------
# Context and entry point
# ---------------------------------------------------------------------------


def _multiplier_t(records: list[dict], argv: list[str]):
    """The multiplier t of a construct report, which fixes the length of its scan."""
    for r in records:
        if r["argv"] == argv and argv[0] == "construct":
            try:
                return json.loads(r["report"]).get("multiplier_t")
            except json.JSONDecodeError:
                return None
    return None


def context() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = ROOT / "src"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()} {platform.processor()} {platform.system()} {platform.release()}".strip(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "primepoly" / "cli.py").is_file():
        print(f"error: no primepoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    lines = workloads.generate(args.workload, args.seed)
    records, cut = measure(lines, args.seconds, bool(args.trace))
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    failures = judge(records, reference)
    if cut:
        failures.append("measurement stopped at the time limit")
    failed = sum(r["failed"] for r in records)
    complete = [r for r in records if not r["error"]]
    if not all(any(r["argv"] == argv for r in complete) for argv in lines):
        metrics = {}  # some command line never completed, so no metric is meaningful
    elif args.trace:
        metrics = per_layer(records, lines)
    else:
        metrics = end_to_end(records, lines)

    plain = [r for r in records if not r["traced"]]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command_lines": lines,
        "passes": len(plain) // len(lines),
        "per_command_wall_s": _per_command_wall(plain, lines),
        "per_command_raw_wall_s": _per_command_wall(plain, lines, scaled=False),
        "cal_s": statistics.median(r["cal_s"] for r in complete) if complete else None,
        "multiplier_t": [_multiplier_t(complete, a) for a in lines],
        "ops_failed_ratio": failed / len(records),
        "failures": failures,
        "context": context(),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
