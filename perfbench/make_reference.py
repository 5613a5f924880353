"""Record the exit code and report sha256 of every default-seed command line.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only at a commit whose reports are known to be right: each report
must pass the independent check before it is recorded.  run.py then
fails any command line whose report bytes or exit code drift from it.
"""

import json
import sys

import check
import run
import workloads


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.generate(workload, workloads.DEFAULT_SEED):
            rec = run.execute(argv, traced=False, timeout=120)
            problems = [rec["error"]] if rec["error"] else check.problems(argv, rec["report"])
            if problems or rec["traceback"] or rec["exit"] != 0:
                print(f"{' '.join(argv)}: {problems or rec['traceback'] or rec['exit']}", file=sys.stderr)
                return 1
            reference[" ".join(argv)] = {"exit": rec["exit"], "sha256": run.sha256(rec["report"])}
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {len(reference)} references to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
