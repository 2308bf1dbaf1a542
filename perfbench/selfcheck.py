"""Toy-size self-check of the benchmark's correctness checks.

    python3 perfbench/selfcheck.py [--seed N]

Runs every workload at toy size (6-bit chains, a 500-case log) through
perfbench/run.py, with --trace 0 and 1, and expects every report to pass.
Then runs each again against a perturbed reference (one flip probability
p_i changed, or one logged human decision flipped for the case log) and
expects every invocation to fail: failed / attempted must be 1. Exits 0
when both hold for every workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, trace: int, perturb: bool) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    if perturb:
        cmd.append("--perturb")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run(name, args.seed, trace, perturb=False)
            good = res["correct"] and res["failed"] == 0
            ok &= good
            print(f"{name:28s} trace={trace} reference   attempted={res['attempted']} "
                  f"failed_frac={res['failed'] / res['attempted']:.2f} "
                  f"{'ok' if good else 'UNEXPECTED'}")
        res = run(name, args.seed, 0, perturb=True)
        good = not res["correct"] and res["failed"] == res["attempted"]
        ok &= good
        print(f"{name:28s} trace=0 perturbed   attempted={res['attempted']} "
              f"failed_frac={res['failed'] / res['attempted']:.2f} "
              f"{'ok' if good else 'UNEXPECTED'}")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
