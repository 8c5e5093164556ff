"""Capture the exact-report digests that the exact_audit workload checks.

Run on the commit whose exact output is the reference, the parent of the
change under test:

    python3 perfbench/capture_golden.py

It runs the exact_audit commands for every pinned slot at every scale,
requires each to pass every other check, and rewrites perfbench/golden.json.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def capture(scale, slot, workdir, mods):
    cmds = workloads.exact_set(slot, scale, workdir, mods["harness"], mods["core"])
    digests = {}
    for cmd in cmds:
        _, problems, _ = run.execute(mods["cli"].main, cmd, None)
        if problems:
            raise SystemExit(f"{cmd.golden_key} fails its checks: {problems}")
        with open(cmd.report, "rb") as fh:
            digests[cmd.golden_key] = checks.digest(fh.read())
    return digests


def main():
    os.environ["ROMBIT_WORKERS"] = "1"
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.OUT, "work", "capture")
    os.makedirs(workdir, exist_ok=True)
    mods = run.import_rombit()
    golden = {}
    for scale in workloads.SCALES:
        for slot in range(workloads.GOLDEN_SLOTS):
            golden.update(capture(scale, slot, workdir, mods))
            print(f"captured {scale} slot {slot}", flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
