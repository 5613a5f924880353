"""Self-test of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

1. A tiny smoke pass of each workload's command kinds, untraced and
   traced, must pass the independent checks and yield every metric that
   BENCHMARK.json names.
2. Corrupted reports (a witness value off by 2, a fiber point removed, ...)
   must each be counted as failed, while the same report re-serialised
   unchanged passes.
3. run.py must print a well-formed result for a short real run, and must
   exit non-zero without a result where the primepoly sources are absent.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

SMOKE = {
    "census_large": [
        ["construct", "nplus1", "--n", "9"],
        ["construct", "pplus", "--n", "9"],
        ["analyze", "--factors=0,1;1,-3,1"],
    ],
    "prime_scan": [["construct", "nplus2", "--n", "6"]],
    "unit_search": [
        ["exceptional", "--degree", "2", "--bound", "2"],
        ["levels", "--poly=1,-3,0,1", "--set=-1,1,3,5,19"],
    ],
    "theorem_checks": [
        ["constant", "--digits", "20"],
        ["statement41", "--random", "--trials", "20", "--seed", "1"],
        ["polya", "--poly=1,0,-3,0,0,0,1", "--K", "5"],
    ],
}


def _corrupt_witness(rep):
    w = rep.get("census", rep)["witnesses"][0]
    w["value"] = str(int(w["value"]) + 2)


def _drop_fiber_point(rep):
    fiber = next(f for f in rep.get("census", rep)["fibers"] if f["eplus"])
    fiber["eplus"].pop()


def _drop_level_witness(rep):
    rep["witnesses"].pop()


def _bump_E(rep):
    rep["hits"][0]["E"] += 1


def _change_digit(rep):
    rep["c"] = rep["c"][:-1] + str((int(rep["c"][-1]) + 1) % 10)


def _skip_trial(rep):
    rep["checked"] -= 1


def _shrink_bracket(rep):
    rep["measure_upper"] = rep["measure_lower"]
    rep["measure_lower"] = "0"


CORRUPTIONS = {
    "construct nplus1 --n 9": (_corrupt_witness, _drop_fiber_point),
    "analyze --factors=0,1;1,-3,1": (_corrupt_witness, _drop_fiber_point),
    "levels --poly=1,-3,0,1 --set=-1,1,3,5,19": (_drop_level_witness,),
    "exceptional --degree 2 --bound 2": (_bump_E,),
    "constant --digits 20": (_change_digit,),
    "statement41 --random --trials 20 --seed 1": (_skip_trial,),
    "polya --poly=1,0,-3,0,0,0,1 --K 5": (_shrink_bracket,),
}


def _with_report(rec: dict, rep: dict) -> dict:
    return {**rec, "report": json.dumps(rep, indent=2) + "\n"}


def expect(ok: bool, what: str, errors: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        errors.append(what)


def smoke(errors: list[str]) -> dict[str, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    expect(layer_names == run.per_layer_names(), "BENCHMARK.json per_layer matches run.py", errors)
    by_key = {}
    for workload, lines in SMOKE.items():
        records = [{"pass": 0, **run.execute(a, traced, 120)} for traced in (False, True) for a in lines]
        failures = run.judge(records, {})
        expect(not failures, f"smoke {workload}: {failures or 'all reports check'}", errors)
        if failures:
            continue
        e2e = run.end_to_end(records, lines)
        expect(sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"]) and all(v > 0 for v in e2e.values()),
               f"smoke {workload}: end-to-end metrics {sorted(e2e)} present and non-zero", errors)
        expect(sorted(run.per_layer(records, lines)) == sorted(layer_names),
               f"smoke {workload}: every per-layer metric present", errors)
        by_key.update((" ".join(r["argv"]), r) for r in records if not r["traced"])
        lines_a = workloads.generate(workload, 7)
        expect(lines_a == workloads.generate(workload, 7) and lines_a != workloads.generate(workload, 8),
               f"generator {workload}: same seed same lines, other seed other lines", errors)
    return by_key


def corruptions(by_key: dict[str, dict], errors: list[str]) -> None:
    for key, mutations in CORRUPTIONS.items():
        if key not in by_key:
            continue
        rec = by_key[key]
        clean = _with_report(rec, json.loads(rec["report"]))
        run.judge([clean], {})
        expect(not clean["failed"], f"{key}: re-serialised report passes", errors)
        for mutate in mutations:
            rep = json.loads(rec["report"])
            mutate(rep)
            bad = _with_report(rec, rep)
            run.judge([bad], {})
            expect(bad["failed"], f"{key}: {mutate.__name__} counted as failed", errors)
    rec = copy.deepcopy(by_key["constant --digits 20"])
    run.judge([rec], {"constant --digits 20": {"exit": 0, "sha256": "0" * 64}})
    expect(rec["failed"], "reference sha256 mismatch counted as failed", errors)
    first, second = copy.deepcopy(rec), {**rec, "report": rec["report"] + " "}
    run.judge([first, second], {})
    expect(second["failed"], "repeat with different bytes counted as failed", errors)


def end_to_end_run(errors: list[str]) -> None:
    argv = [sys.executable, "perfbench/run.py", "--workload", "theorem_checks", "--seed", "3", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and sorted(result) == ["attempted", "correct", "failed", "metrics"]
           and result["correct"] and result["attempted"] >= 1,
           f"run.py result line is well formed: {json.dumps(result)[:200]}", errors)
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-selftest-") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py refuses a directory without sources", errors)


def main() -> int:
    errors: list[str] = []
    corruptions(smoke(errors), errors)
    end_to_end_run(errors)
    print(f"{len(errors)} failed expectations" if errors else "all expectations hold")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
