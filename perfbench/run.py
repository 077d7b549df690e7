"""Benchmark entry point.

    python3 perfbench/run.py --workload scs-dt --seed 1 --seconds 5 --trace 0

Run from the repository root. Prints the run record and every metric with
its unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The full record —
per-request samples and, when traced, every span — is written to
``.bench_build/perfbench/results/``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("scs-dt", "build-gh")


def source_key() -> str:
    """Hash of the library sources and of the code that prepares inputs
    (keys the prepared-input cache)."""
    paths = [os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, files in os.walk(os.path.join(SRC, "repro")):
        paths += [os.path.join(dirpath, f) for f in files if f.endswith(".py")]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", action="store_true",
                    help="only build the cached inputs of every workload")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp  # py4j and pyspark temp files stay in the checkout
    sys.path.insert(0, SRC)

    import harness
    import layers

    key = source_key()
    if args.prepare:
        harness.prepare(BUILD, key)
        return 0
    if not harness.prepared(BUILD, key, args.workload):
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--prepare",
             "--workload", args.workload, "--seed", "0", "--seconds", "0"],
            check=True, stdout=sys.stderr)
        print(f"info prepare_s = {time.perf_counter() - t:.3f} s")
    res = harness.run(ROOT, BUILD, key, args.workload, args.seed,
                      args.seconds, bool(args.trace))

    for k, v in res["record"].items():
        print(f"record {k} = {v}")
    x = res["extra"]
    for k in ("session_s", "plan_s", "warmup_s", "measured_s"):
        print(f"info {k} = {x[k]:.3f} s")
    print(f"info setup_runs_s = {[round(t, 3) for t in x['setup_runs_s']]}")
    print(f"info live_heap_mb = {[round(m, 1) for m in x['live_heap_mb']]}")
    print(f"info failed_frac = {x['failed_frac']:.4f} "
          f"({res['failed']} of {res['attempted']})")
    for s in res["samples"]:
        print(f"sample {s['label']} {s['s']:.3f} s {s['jobs']} jobs "
              f"{'ok' if s['ok'] else 'FAILED'}")
    for name, (value, unit) in res["end_to_end"].items():
        print(f"metric {name} = {value:.6g} {unit}")

    if args.trace:
        metrics = {}
        for name, value in res["per_layer"].items():
            metrics[name] = {"value": value, "unit": layers.unit(name)}
            print(f"layer {name} = {value:.6g} {layers.unit(name)}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["end_to_end"].items()}

    out = os.path.join(BUILD, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(
        out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(res, f, indent=1, default=str)
    print(f"info full record: {os.path.relpath(path, ROOT)}")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
