"""CHL benchmark runner.

    python3 perfbench/run.py --workload dist-road --seed 101 --seconds 30 --trace 0

Starts Spark ``local[4]``, sets up the workload (see ``workloads.py``),
measures rounds of checked operations for ``--seconds`` and prints a
report, then, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the layer entry points
are wrapped and the metrics are the per-layer ones, and the spans are
written to ``.perfbench/`` at the root of the checkout.

Run it from a repository checkout: it imports ``repro`` from ``src/`` and
exits with code 2 when that is missing. Everything it writes (Spark's
scratch space, temporary files, spans, the full result) stays under
``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MASTER = "local[4]"
DRIVER_MEMORY = "2g"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _configure_env(tmp: Path) -> None:
    """Point Spark, its Python workers and the JVM at the checkout only."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable  # workers need this interpreter's numpy
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that spark-submit starts first
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            "pyspark-shell",
        ]
    )
    import tempfile

    tempfile.tempdir = str(tmp)


def _stop(spark) -> None:
    """Stop Spark and wait for the JVM (and with it the Python workers) to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    _configure_env(tmp)

    import numpy as np
    import pyspark
    from pyspark.sql import SparkSession

    import workloads as W
    from spans import NullTracer, Tracer

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    run_id = f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()

    t0 = time.perf_counter()
    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    try:
        spark.sparkContext.setLogLevel("ERROR")
        spark_start_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        with tracer.span("setup.warm_up"):
            W.warm_up(spark)
        warm_up_s = time.perf_counter() - t1
        ctx = W.set_up(spark, wl, args.seed, tracer)
        setup_s = spark_start_s + warm_up_s + sum(ctx.setup.values())
        sc = spark.sparkContext
        env = {
            "nproc": len(os.sched_getaffinity(0)),
            "spark_master": sc.master,
            "default_parallelism": sc.defaultParallelism,
            "driver_memory": sc.getConf().get("spark.driver.memory", DRIVER_MEMORY),
            "python": platform.python_version(),
            "pyspark": pyspark.__version__,
            "numpy": np.__version__,
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "graph": f"{wl.kind} n={ctx.g.n} m={ctx.g.m} deg={wl.deg}",
            "chl_labels": ctx.reference.num_labels(),
            "als": round(ctx.reference.als(), 2),
            "q": W.Q,
            "builds": ",".join(wl.builds),
            "n_batch": W.N_BATCH,
            "n_point": W.N_POINT,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        for k, v in env.items():
            print(f"# {k}: {v}")
        sys.stdout.flush()

        t_measure = time.perf_counter()
        if args.trace:
            with tracer.install():
                W.measure(ctx, args.seconds)
        else:
            W.measure(ctx, args.seconds)
        measure_s = time.perf_counter() - t_measure
    finally:
        _stop(spark)

    setup_parts = {"spark_start_s": spark_start_s, "warm_up_s": warm_up_s, **ctx.setup}
    if args.trace:
        metrics = W.per_layer(ctx, tracer, tracer.span_cost_s(), measure_s)
        tracer.write(OUT / f"spans-{run_id}.jsonl")
    else:
        metrics = W.end_to_end(ctx, setup_s)
    chk = ctx.checker
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{run_id}.json", "w") as fh:
        json.dump(
            {
                "env": env,
                "setup": setup_parts,
                "rounds": ctx.rounds,
                "measure_s": measure_s,
                "build_medians_s": W.per_build_medians(ctx),
                "serving": W.serving_report(ctx),
                "samples": {k: v for k, v in ctx.samples.items() if k != "point_ns"},
                "failures": chk.failures,
                **result,
            },
            fh,
            indent=1,
        )
    print(f"# rounds: {ctx.rounds} in {measure_s:.1f} s")
    for k, v in setup_parts.items():
        print(f"# setup.{k}: {v:.4f}")
    for op, v in W.per_build_medians(ctx).items():
        print(f"# build.{op}_s: {v:.4f}")
    for k, v in W.serving_report(ctx).items():
        print(f"# serve.{k}: {v:.4f}")
    for msg in chk.failures:
        print(f"# FAILED {msg}")
    for k, (v, u) in metrics.items():
        tag = f"  -> {W.moves(k)}" if args.trace and W.moves(k) else ""
        print(f"{k:32s} {v:16.4f} {u}{tag}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
