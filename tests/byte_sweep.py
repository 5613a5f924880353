"""Hash the CLI's bytes over a fixed sweep of command lines.

    python tests/byte_sweep.py SRC_ROOT [--exclude NAME ...]

imports `primepoly` from SRC_ROOT/src and runs, in one process through
`cli.run`, every `CASES` line of tests/test_cli.py and seeds 0-5 of each
workload of perfbench/workloads.py, each as text and with `--json`.  The
command lines come from the checkout holding this script, so one copy of
it sweeps two source trees with the same inputs.  It prints the number of
runs and one sha256 over each run's argv, exit code, stdout and stderr:
a change that keeps every report byte prints the digest of its parent.
`--exclude` drops the named `CASES` lines, for goldens that pin behaviour
new in the change.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(6)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_root", type=Path)
    parser.add_argument("--exclude", action="append", default=[], metavar="NAME")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src_root.resolve() / "src"))
    test_cli = _load("test_cli", ROOT / "tests" / "test_cli.py")
    workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")
    unknown = set(args.exclude) - {name for name, _, _ in test_cli.CASES}
    if unknown:
        sys.exit(f"no CASES line named {', '.join(sorted(unknown))}")
    os.environ["COLUMNS"] = test_cli.COLUMNS
    lines = [argv for name, argv, _ in test_cli.CASES if name not in args.exclude]
    lines += [argv for w in workloads.WORKLOADS for seed in SEEDS for argv in workloads.generate(w, seed)]
    digest, runs = hashlib.sha256(), 0
    for argv in lines:
        for full in (argv, argv + ["--json"]):
            code, out, err = test_cli._capture(full)
            digest.update(repr((full, code, out, err)).encode())
            runs += 1
    print(f"{runs} runs, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
