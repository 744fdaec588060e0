"""Compares perfbench's exact counts with their recorded values.

Usage: check_perfbench_exact.py EXPECTED.json WORKLOAD=OUTPUT.txt ...

Each OUTPUT.txt is the standard output of one `--seed 1 --trace 1` run;
its last line is perfbench's JSON result. The counts the perfbench README
marks exact are simulated, not timed, so they must equal EXPECTED.json's
values for the workload exactly. Exits 1 on any difference.
"""

import json
import sys


def main(expected_path, runs):
    with open(expected_path) as f:
        expected = json.load(f)
    failed = False
    for run in runs:
        workload, path = run.split("=", 1)
        with open(path) as f:
            last = f.read().strip().splitlines()[-1]
        metrics = json.loads(last)["metrics"]
        for name, value in expected[workload].items():
            got = metrics[name]["value"]
            mark = "ok" if got == value else "DIFFERS"
            failed |= got != value
            print(f"{workload} {name}: expected {value}, got {got} {mark}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
