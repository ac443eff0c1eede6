"""Reproduce paper Table 4: query throughput / latency / memory for the
QLSN, QFDL and QDOL modes on a simulated 16-node cluster.

The CHL for each dataset is built once (seqPLL, cached under results/).
Memory is the measured 8-bytes-per-label footprint; the per-node budget
NODE_BUDGET_BYTES is the scaled stand-in for the paper's 64 GB nodes and
produces the same "-" pattern (QLSN infeasible on CTR/USA/POK/LIJ).
Latency = per-query compute measured on the nodes each query is sent to +
the documented network constants of repro.dist.query_modes; throughput is
measured over a Spark-parallel batch.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import chl_cached, dump_results, make_spark, print_table

from repro.dist.query_modes import evaluate_query_modes
from repro.graphs.generators import DATASETS
from repro.synth_data import query_pairs

Q_NODES = 16
#: Scaled 64 GB node: chosen so the total-label-size threshold separates
#: datasets exactly like the paper's memory wall does (see EXPERIMENTS.md).
NODE_BUDGET_BYTES = 1_500_000
N_QUERIES = 50_000  # paper: 100M batch; scaled with the data


def run(spark, scale: float = 1.0, names=None, n_queries: int = N_QUERIES):
    """Returns the Table-4 DataFrame (one row per dataset × mode)."""
    rows = []
    for name in names or DATASETS:
        g, rank, store = chl_cached(name, scale)
        pairs = query_pairs(n=g.n, n_queries=n_queries).values
        res = evaluate_query_modes(
            spark,
            store,
            rank,
            Q_NODES,
            pairs,
            node_budget_bytes=NODE_BUDGET_BYTES,
        )
        row = {"dataset": name, "als": round(store.als(), 1)}
        for mode in ("QLSN", "QFDL", "QDOL"):
            r = res[mode]
            if r["supported"]:
                row[f"{mode}_kqps"] = round(r["throughput_qps"] / 1e3, 1)
                row[f"{mode}_lat_us"] = round(r["latency_s"] * 1e6, 1)
            else:
                row[f"{mode}_kqps"] = "-"
                row[f"{mode}_lat_us"] = "-"
            row[f"{mode}_mem_MB"] = round(r["mem_total_bytes"] / 1e6, 2)
        rows.append(row)
        print(f"[table4] {name} done", file=sys.stderr, flush=True)
    print_table(
        f"Table 4: query modes on {Q_NODES} simulated nodes "
        f"(throughput kq/s, latency µs, total label memory MB)",
        rows,
        ["dataset", "als"]
        + [f"{m}_{s}" for m in ("QLSN", "QFDL", "QDOL") for s in ("kqps", "lat_us", "mem_MB")],
    )
    dump_results("table4", rows)
    return spark.createDataFrame([{k: str(v) for k, v in r.items()} for r in rows])


if __name__ == "__main__":
    spark = make_spark("table4")
    run(spark)
    spark.stop()
