"""Check that the traced run's counts repeat exactly for a seed.

    python3 perfbench/check_counts.py --workload equiv-pairs --seed 1 [--size tiny]

Runs ``run.py --trace 1`` twice, in fresh processes with different hash seeds,
and compares every count, bit size and ratio.  A value that differs between the
two runs is listed as unstable: no claim or gate may rest on it.  Exit status 1
means at least one count was unstable.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bits", "ratio")


def traced_metrics(workload: str, seed: int, size: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--size", size],
        capture_output=True, text=True, env=env, timeout=900, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: traced run failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def unstable_counts(first: dict, second: dict) -> dict:
    """{name: (first value, second value)} for every count that differs."""
    return {
        name: (metric["value"], second[name]["value"])
        for name, metric in first.items()
        if metric["unit"] in COUNT_UNITS and metric["value"] != second[name]["value"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    runs = [traced_metrics(args.workload, args.seed, args.size, h) for h in ("1", "2")]
    unstable = unstable_counts(*runs)
    compared = sum(1 for m in runs[0].values() if m["unit"] in COUNT_UNITS)
    for name, (a, b) in sorted(unstable.items()):
        print(f"unstable {name}: {a} != {b}")
    print(f"{compared - len(unstable)} of {compared} counts repeat exactly")
    return 1 if unstable else 0


if __name__ == "__main__":
    sys.exit(main())
