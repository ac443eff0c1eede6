"""Smoke tests for the table-reproduction job harnesses (tiny scale)."""
import json
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
sys.path.insert(0, str(JOBS))

import bench_json  # noqa: E402
import common  # noqa: E402  (jobs/common.py)
import fig8_scaling  # noqa: E402
import table2_datasets  # noqa: E402
import table3_shared_memory  # noqa: E402
import table4_query_modes  # noqa: E402


@pytest.fixture(autouse=True)
def _sandbox_results(tmp_path, monkeypatch):
    """Jobs must not clobber the real results/ when exercised by tests."""
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    yield


def test_table2_job(spark):
    df = table2_datasets.run(spark, scale=0.05)
    assert df.count() == 12
    assert set(df.columns) >= {"dataset", "paper_n", "ours_n", "ranking"}


def test_table3_job_subset(spark):
    df = table3_shared_memory.run(
        spark, scale=0.06, deadline_s=60, names=["SKIT", "CAL"]
    )
    rows = {r["dataset"]: r for r in df.collect()}
    assert set(rows) == {"SKIT", "CAL"}
    for r in rows.values():
        # SparaPLL never produces fewer labels than the CHL
        assert float(r["spara_als"]) >= float(r["chl_als"])


def test_table4_job_subset(spark):
    df = table4_query_modes.run(spark, scale=0.06, names=["SKIT"], n_queries=500)
    row = df.collect()[0]
    assert row["dataset"] == "SKIT"
    assert float(row["QFDL_mem_MB"]) < float(row["QLSN_mem_MB"])


def test_fig8_job_subset(spark):
    df = fig8_scaling.run(spark, names=("SKIT",), q_sweep=(1, 2), scale=0.06)
    rows = df.collect()
    assert len(rows) == 2 * 4  # q values × algorithms
    plant = [r for r in rows if r["algo"] == "PLaNT"]
    assert all(float(r["comm_MB"]) == 0.0 for r in plant)


def _result(tmp, side, workload, seed, trace, build_s, explored):
    d = tmp / side
    d.mkdir(exist_ok=True)
    run = {
        "env": {"workload": workload, "seed": seed, "trace": trace, "nproc": 4,
                "spark_master": "local[4]", "graph": "g", "builds": "seqpll,plant"},
        "rounds": 2,
        "build_medians_s": {"seqpll": build_s / 2, "plant": build_s / 2},
        "metrics": {"build_s": {"value": build_s, "unit": "s"},
                    "engine.node_work_makespan_s": {"value": build_s / 10, "unit": "s"},
                    "plant.explored": {"value": explored, "unit": "count"}},
    }
    (d / f"result-{workload}-s{seed}-t{trace}.json").write_text(json.dumps(run))


def test_bench_json_pairs_sides_by_seed(tmp_path):
    for seed, b, a in ((1, 10.0, 8.0), (2, 12.0, 9.0), (3, 11.0, 7.0)):
        _result(tmp_path, "before", "w", seed, 0, b, 0)
        _result(tmp_path, "after", "w", seed, 0, a, 0)
    _result(tmp_path, "before", "w", 1, 1, 10.0, 5)
    _result(tmp_path, "after", "w", 1, 1, 8.0, 5)
    for side, reads in (("before", 4), ("after", 2)):
        spans = ["cluster.superstep"] * 6 + ["cluster.map_states"] * reads + ["bench.plant"]
        (tmp_path / side / "spans-w-s1-t1.jsonl").write_text(
            "".join(json.dumps({"name": n}) + "\n" for n in spans))
    out = tmp_path / "BENCH.json"
    bench_json.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                     "--out", str(out)])
    w = json.loads(out.read_text())["workloads"]["w"]
    assert w["nproc"] == 4 and w["seeds"] == [1, 2, 3]
    build = w["end_to_end"]["build_s"]
    assert build["before"]["runs"] == [10.0, 12.0, 11.0]  # seed order, untraced only
    assert build["before"]["median"] == 11.0 and build["after"]["median"] == 8.0
    assert build["before"]["iqr"] == 1.0
    assert w["builds_s"]["plant"]["after"]["runs"] == [4.0, 4.5, 3.5]
    traced = w["traced"]
    assert "engine.node_work_makespan_s" in traced["node_work_s"]
    assert "engine.node_work_makespan_s" not in traced["per_layer_s"]
    assert traced["counts"]["plant.explored"] == {"before": [5], "after": [5]}
    assert traced["span_calls_per_round"] == {  # per round of 2
        "cluster.map_states": {"before": [2.0], "after": [1.0]},
        "cluster.superstep": {"before": [3.0], "after": [3.0]},
    }
