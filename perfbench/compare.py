"""Compare the end-to-end metrics of two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a ``runs.jsonl`` written by ``run.py``. Runs made under
different environments (Python, numpy, scipy, BLAS build and thread count,
nproc, CPU model) are not compared: the script exits with code 2. Otherwise it
prints, per workload and metric, each side's median and quartiles and the
ratio of the medians.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    runs = defaultdict(list)
    envs = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            envs.add(rec["env_fingerprint"])
            runs[rec["workload"]].append(rec)
    return runs, envs


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(base_path, new_path):
    base, base_env = load(base_path)
    new, new_env = load(new_path)
    if len(base_env | new_env) != 1:
        print(f"refusing to compare runs from different environments: "
              f"{sorted(base_env)} vs {sorted(new_env)}", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        names = sorted(base[workload][0]["metrics"])
        for name in names:
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            bq, nq = spread(b), spread(n)
            unit = base[workload][0]["metrics"][name]["unit"]
            print(f"{workload:10s} {name:12s} base {bq[1]:.4g} [{bq[0]:.4g}, "
                  f"{bq[2]:.4g}] new {nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}] "
                  f"{unit}  new/base {nq[1] / bq[1]:.3f}  "
                  f"(runs {len(b)}/{len(n)}, failed "
                  f"{sum(r['failed'] for r in base[workload])}/"
                  f"{sum(r['failed'] for r in new[workload])})")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(64)
    sys.exit(main(sys.argv[1], sys.argv[2]))
