"""List the requests whose Spark job count differs between two runs.

    python3 perfbench/compare_jobs.py A.json B.json

A and B are full run records (``.bench_build/perfbench/results/``) of the
same workload and seed. Prints one line per differing request and exits
with 1 if there is any.
"""
import json
import sys


def main(a: str, b: str) -> int:
    runs = []
    for path in (a, b):
        with open(path) as f:
            rec = json.load(f)
        runs.append(rec["warmup"] + rec["samples"])
    diffs = [(x["label"], x["jobs"], y["jobs"]) for x, y in zip(*runs)
             if x["label"] == y["label"] and x["jobs"] != y["jobs"]]
    for label, ja, jb in diffs:
        print(f"{label}: {ja} jobs, then {jb}")
    print(f"{len(diffs)} of {min(map(len, runs))} requests differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
