#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

For every workload, one short run must report correct=true, and one run
with --plant-wrong (one recorded answer corrupted before the checks) must
report correct=false. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_mix", "point_served", "ingest_wal")


def run(workload, plant_wrong):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
    if plant_wrong:
        cmd.append("--plant-wrong")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    failures = 0
    for workload in WORKLOADS:
        for plant_wrong, want in ((False, True), (True, False)):
            got = run(workload, plant_wrong)["correct"]
            verdict = "ok" if got == want else "FAIL"
            failures += got != want
            print(f"{verdict}: {workload} plant_wrong={plant_wrong} "
                  f"correct={got} (want {want})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
