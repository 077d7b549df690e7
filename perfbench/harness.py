"""One benchmark run: Spark session, set-up, plan, warm-up, timed closed
loop, metrics, run record; and the one-off build of the workloads' inputs.

Load shape: one Python process (with its Spark JVM), one client thread, closed loop with no
think time. The workload's request cycle repeats, whole, until ``seconds``
have passed.
"""
from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

from repro.core import index_bs

import layers
from spans import Tracer
from workloads import WORKLOADS, Ctx

# Two task threads: with four on four CPUs, the tasks, the Python process and
# the JVM's own threads oversubscribe them; the I_δ build of build-gh took
# 22-27 s at local[4] and 18.6-19.3 s at local[2] on a 4-vCPU machine.
MASTER = f"local[{min(2, os.cpu_count() or 1)}]"
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = "8"  # benchmarks/conftest.py
SETUP_REPEATS = 3


def session(tmp: str):
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("perfbench")
        .master(MASTER)
        .config("spark.driver.memory", DRIVER_MEMORY)
        # A pre-touched heap keeps the JVM's RSS independent of GC timing.
        .config("spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={tmp} -Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch")
        .config("spark.local.dir", tmp)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # Job ids must outlive the longest request (~1,000 jobs).
        .config("spark.ui.retainedJobs", "1000000")
        .config("spark.ui.retainedStages", "1000000")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def _peak_rss_mb(jvm_pid: int) -> float:
    """Peak RSS of this Python process plus the Spark JVM."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(f"/proc/{jvm_pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                kb += int(line.split()[1])
    return kb / 1024.0


def _live_heap_mb(jvm) -> float:
    """JVM heap in use after a full collection: the data the program still
    holds (Spark's blocks, plans and job records), without the garbage."""
    jvm.java.lang.System.gc()
    heap = jvm.java.lang.management.ManagementFactory.getMemoryMXBean()
    return heap.getHeapMemoryUsage().getUsed() / 2**20


def _mem_total() -> str:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (no git)"


def run_record(spark, root: str, src_key: str, workload: str, seed: int) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": src_key,
        "nproc": os.cpu_count(),
        "mem_total": _mem_total(),
        "python": platform.python_version(),
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "aqe": spark.conf.get("spark.sql.adaptive.enabled"),
    }


def _execute(tracer: Tracer, op, request: str) -> dict:
    """Run one op under its own span; check its answer outside the span."""
    tracer.request = request
    err = None
    with tracer.span("request") as sp:
        try:
            got = op.run()
        except Exception:  # a failed request stays in the stream
            err = traceback.format_exc()
    tracer.request = None
    ok = False
    if err is None:
        try:
            ok = op.answer(got) == op.expect
        except Exception:
            err = traceback.format_exc()
    sample = {"kind": op.kind, "label": op.label, "s": sp.wall_s,
              "jobs": sp.jobs, "ok": ok}
    if err:
        sample["error"] = err.strip().splitlines()[-1]
        print(f"[perfbench] {op.label} raised:\n{err}", file=sys.stderr)
    elif not ok:
        print(f"[perfbench] {op.label}: answer differs from reference",
              file=sys.stderr)
    return sample


@contextmanager
def spark_session(build_dir: str):
    """A Spark session whose scratch files stay under ``build_dir``; on exit
    the session stops, its JVM exits and the scratch files go."""
    tmp = os.path.join(build_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    spark = session(tmp)
    try:
        yield spark, tmp
    finally:
        sc = spark.sparkContext
        spark.stop()
        _stop_jvm(sc)
        shutil.rmtree(tmp, ignore_errors=True)


def _cache(build_dir: str, src_key: str, workload: str) -> str:
    return os.path.join(build_dir, f"cache-{src_key[:16]}", workload)


def prepared(build_dir: str, src_key: str, workload: str) -> bool:
    return os.path.exists(
        os.path.join(_cache(build_dir, src_key, workload), "meta.json"))


def prepare(build_dir: str, src_key: str) -> None:
    """Build every workload's cached inputs that are missing, in a process
    of its own so that no measured run shares a JVM with the build."""
    with spark_session(build_dir) as (spark, tmp):
        for name, wl in WORKLOADS.items():
            wl.prepare(Ctx(spark, _cache(build_dir, src_key, name), tmp))


def run(root: str, build_dir: str, src_key: str, workload: str, seed: int,
        seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    t0 = time.perf_counter()
    with spark_session(build_dir) as (spark, tmp):
        session_s = time.perf_counter() - t0
        sc = spark.sparkContext
        jvm_pid = sc._jvm.java.lang.ProcessHandle.current().pid()
        tracer = Tracer(sc)
        if trace:
            layers.install(tracer)
        ctx = Ctx(spark, _cache(build_dir, src_key, workload), tmp)
        tracer.recording = False
        meta = wl.prepare(ctx)

        setup_times = []
        for i in range(SETUP_REPEATS):
            tracer.recording = trace and i == 0
            t = tracer.clock()
            state = wl.setup(ctx, meta)
            setup_times.append(tracer.clock() - t)

        tracer.recording = False
        t = time.perf_counter()
        warmup, ops = wl.plan(ctx, meta, state)
        plan_s = time.perf_counter() - t
        t = time.perf_counter()
        warm = [_execute(tracer, op, f"warmup-{i}") for i, op in enumerate(warmup)]
        warmup_s = time.perf_counter() - t

        heap = [_live_heap_mb(sc._jvm)]
        tracer.recording = True
        samples = []
        start = tracer.clock()
        while not samples or tracer.clock() - start < seconds:
            for op in ops:  # whole cycles, so every run times the same mix
                samples.append(_execute(tracer, op, f"r{len(samples)}"))
                heap.append(_live_heap_mb(sc._jvm))
        measured_s = tracer.clock() - start
        if trace:  # layers that only prepare runs: once, after the timing
            tracer.request = "inputs"
            wl.inputs(ctx, meta)
            tracer.request = None
        tracer.recording = False
        rss = _peak_rss_mb(jvm_pid)

        index_paths = wl.index_paths(ctx)
        index_rows = sum(index_bs.load_index(spark, p).count() for p in index_paths)
        index_bytes = sum(index_bs.index_disk_bytes(p) for p in index_paths)
        record = run_record(spark, root, src_key, workload, seed)
        record["ops"] = {f"op{i}": k for i, k in enumerate(wl.kinds, 1)}

    failed = sum(not s["ok"] for s in samples)
    end_to_end = {"setup_s": (session_s + statistics.median(setup_times), "s")}
    for i, kind in enumerate(wl.kinds, 1):
        mine = [s for s in samples if s["kind"] == kind]
        end_to_end[f"op{i}_p50_s"] = (statistics.median(s["s"] for s in mine), "s")
        end_to_end[f"op{i}_jobs_p50"] = (
            statistics.median(s["jobs"] for s in mine), "count")
    end_to_end.update({
        "peak_rss_mb": (rss, "MB"),
        "jvm_live_heap_mb": (max(heap), "MB"),
        "index_rows": (index_rows, "count"),
        "index_bytes": (index_bytes, "B"),
    })
    extra = {
        "failed_frac": failed / len(samples), "plan_s": plan_s,
        "session_s": session_s, "warmup_s": warmup_s,
        "setup_runs_s": setup_times, "measured_s": measured_s,
        "live_heap_mb": heap,
    }
    per_layer = {}
    if trace:  # the traced run's own end-to-end times give the overhead
        per_layer = layers.aggregate(tracer.spans)
        per_layer.update({f"traced.{name}": value for name, (value, unit)
                          in end_to_end.items() if unit == "s"})
    return {
        "record": record, "end_to_end": end_to_end, "extra": extra,
        "per_layer": per_layer, "samples": samples, "warmup": warm,
        "attempted": len(samples), "failed": failed,
        "spans": [sp.record() for sp in tracer.spans] if trace else [],
    }


def _stop_jvm(sc) -> None:
    """Stop the py4j gateway's JVM and wait until it has exited."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None) if gw is not None else None
    if gw is not None:
        gw.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None
