"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]
                                [--write FILE]

Runs ``run.py`` once per workload, each in a fresh process, from the root of
the checkout. ``--write`` stores the records (metrics, provenance and sample
counts) as one JSON file, as in ``perfbench/baseline/``. Exits 1 if any
workload fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", type=Path)
    args = p.parse_args(argv)

    records, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if len(lines) < 2:
            print(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        record = {**json.loads(lines[-2]), **json.loads(lines[-1])}
        records[workload] = record
        status |= proc.returncode != 0
        print(f"{workload}: correct={record['correct']} attempted={record['attempted']} "
              f"failed={record['failed']}")
        for name, m in record["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if args.write:
        args.write.write_text(json.dumps(records, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
