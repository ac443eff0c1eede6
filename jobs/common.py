"""Shared plumbing for the table-reproduction jobs.

Each job module exposes ``run(spark, ...) -> pyspark DataFrame`` (the
table being reproduced) and a ``__main__`` block for ``spark-submit``.
Results are also dumped as JSON under ``results/`` so EXPERIMENTS.md can
be regenerated without re-running everything.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def make_spark(app: str):
    """Session for standalone spark-submit runs (tests use conftest's).
    Python workers use Unix-domain sockets, as in conftest's session."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.python.unix.domain.socket.enabled", "true")
        .getOrCreate()
    )


def chl_cached(name: str, scale: float = 1.0):
    """Build (or load from results/cache) the CHL of a dataset via seqPLL."""
    from repro.core.labels import LabelStore
    from repro.core.pll import seq_pll
    from repro.graphs.generators import DATASETS, build_dataset
    from repro.graphs.ranking import rank_for

    cache = RESULTS_DIR / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    f = cache / f"chl_{name}_{scale}.npz"
    g = build_dataset(name, scale)
    rank = rank_for(g, DATASETS[name].kind)
    if f.exists():
        t = np.load(f)["triplets"]
        # tolist(): labels hold Python ints, as every construction's do
        return g, rank, LabelStore.from_triplets(g.n, t.tolist())
    store, _ = seq_pll(g, rank)
    np.savez_compressed(f, triplets=np.array(store.triplets(), dtype=np.int64))
    return g, rank, store


def dump_results(tag: str, rows: list[dict]) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{tag}.json", "w") as fh:
        json.dump(rows, fh, indent=1, default=str)


def print_table(title: str, rows: list[dict], cols: list[str]) -> None:
    print(f"\n=== {title} ===", flush=True)
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    print(" | ".join(c.ljust(widths[c]) for c in cols))
    print("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        print(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols), flush=True)
