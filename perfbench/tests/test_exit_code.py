"""A golden mismatch must fail a benchmark run end to end.

    python3 test_exit_code.py BINARY REPO_ROOT WORK_DIR

Copies the files the campaign_fault workload reads into a scratch root,
changes one cell of its 64-seed golden, runs the workload once and
expects exit code 1 with a result line that reports the failure.
"""

import json
import os
import shutil
import subprocess
import sys

GOLDEN = "results/golden/campaign/campaign_fault_mesh2d_8x8_s64.csv"
SPEC = "results/campaigns/campaign_fault_mesh2d_8x8_s64.json"


def main():
    binary, root, work = sys.argv[1:4]
    fake_root = os.path.join(work, "root")
    shutil.rmtree(work, ignore_errors=True)
    for rel in (GOLDEN, SPEC):
        os.makedirs(os.path.dirname(os.path.join(fake_root, rel)), exist_ok=True)
        shutil.copy(os.path.join(root, rel), os.path.join(fake_root, rel))
    golden = os.path.join(fake_root, GOLDEN)
    with open(golden) as f:
        lines = f.read().splitlines()
    cells = lines[4].split(",")  # row 0 latency_cycles
    cells[4] = str(float(cells[4]) + 1.0)
    lines[4] = ",".join(cells)
    with open(golden, "w") as f:
        f.write("\n".join(lines) + "\n")

    done = subprocess.run([binary, "--workload", "campaign_fault", "--seed", "1",
                           "--seconds", "0", "--root", fake_root,
                           "--work-dir", os.path.join(work, "stores")],
                          stdout=subprocess.PIPE, text=True, check=False)
    shutil.rmtree(work, ignore_errors=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    failed_frac = result["failed"] / result["attempted"]
    print(f"exit code {done.returncode}, failed_frac {failed_frac}")
    if done.returncode != 1 or result["correct"] or failed_frac <= 0.0:
        print(done.stdout)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
