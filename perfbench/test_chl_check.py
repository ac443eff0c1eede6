"""Fault injection into the benchmark's checks, at a tiny scale without Spark.

Run with ``python3 -m pytest perfbench/test_chl_check.py``. A bare
``pytest`` does not collect it (``testpaths`` names only ``tests`` and
``benchmarks``).
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import workloads as W  # noqa: E402
from repro.dist.engine import OOMError  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

TINY = W.Workload("tiny", "road", 25, 2.46, W.BUILD_NAMES, "fault injection")
N_BATCH, N_POINT = 300, 100


@pytest.fixture
def ctx(monkeypatch):
    monkeypatch.setattr(W, "N_BATCH", N_BATCH)
    monkeypatch.setattr(W, "N_POINT", N_POINT)
    monkeypatch.setattr(W, "N_SAMPLE", 64)
    return W.set_up(None, TINY, 3, NullTracer())


def _faulty(monkeypatch, name, corrupt):
    """Replace workload build ``name`` by one whose labels ``corrupt`` edits."""
    orig = getattr(W, name)

    def build(*args, **kwargs):
        out = orig(*args, **kwargs)
        corrupt(out[0] if isinstance(out, tuple) else out.store)
        return out

    monkeypatch.setattr(W, name, build)


def _drop_label(store):
    v = next(v for v in range(store.n) if len(store.hubs[v]) > 1)
    store.hubs[v].pop()
    store.dists[v].pop()


def _perturb_distance(store):
    v = next(v for v in range(store.n) if len(store.hubs[v]) > 1)
    store.dists[v][-1] += 1


def test_untouched_round_has_no_failures(ctx):
    W.run_round(ctx)
    assert ctx.checker.failures == []
    assert ctx.checker.failed == 0
    assert ctx.checker.attempted == len(W.BUILD_NAMES) + 3 * N_BATCH + N_POINT
    assert all(len(ctx.samples[op]) == 1 for op in W.BUILD_NAMES)


@pytest.mark.parametrize("build", ["plant_dist", "seq_pll", "dgll"])
@pytest.mark.parametrize("corrupt", [_drop_label, _perturb_distance])
def test_corrupted_build_is_one_failed_operation(ctx, monkeypatch, build, corrupt):
    _faulty(monkeypatch, build, corrupt)
    W.run_round(ctx)
    assert ctx.checker.failed == 1
    assert "CHL mismatch" in ctx.checker.failures[0]


def test_dparapll_is_checked_on_answers(ctx, monkeypatch):
    def corrupt(store):
        for v in range(store.n):
            store.dists[v] = [d + 1 for d in store.dists[v]]

    _faulty(monkeypatch, "dpara_pll", corrupt)
    W.run_round(ctx)
    assert ctx.checker.failed == 1
    assert ctx.checker.failures[0].startswith("dparapll: ")
    assert "sampled answers" in ctx.checker.failures[0]


def test_wrong_answer_is_one_failed_query(ctx, monkeypatch):
    orig = W.answer_qfdl
    calls = []

    def answer(*args):
        out = orig(*args)
        if not calls:  # the first share of the batch only
            out[7] += 1
        calls.append(1)
        return out

    monkeypatch.setattr(W, "answer_qfdl", answer)
    W.run_round(ctx)
    assert ctx.checker.failed == 1
    assert ctx.checker.failures[0].startswith("qfdl: 1/")


def test_oom_and_timeout_fail_and_report_no_time(ctx, monkeypatch):
    def oom(*args, **kwargs):
        raise OOMError("node(s) [0] exceeded 1 bytes")

    def slow(g, rank, deadline_s=None):
        store, stats = orig_seq(g, rank)
        return store, {**stats, "timed_out": True}

    orig_seq = W.seq_pll
    monkeypatch.setattr(W, "dgll", oom)
    monkeypatch.setattr(W, "seq_pll", slow)
    W.run_round(ctx)
    assert ctx.checker.failed == 2
    assert ctx.samples["dgll"] == [] and ctx.samples["seqpll"] == []
    metrics = W.end_to_end(ctx, setup_s=1.0)
    assert metrics["build_s"][0] >= 2 * W.BUILD_DEADLINE_S


def test_traced_round_reports_every_layer(ctx):
    tracer = Tracer("test")
    ctx.tracer = tracer
    with tracer.install():
        W.run_round(ctx)
    assert ctx.checker.failed == 0
    metrics = W.per_layer(ctx, tracer, tracer.span_cost_s(100), measure_s=1.0)
    assert list(metrics) == list(W.PER_LAYER_UNITS)
    assert metrics["dijkstra.trees"][0] == TINY.n
    assert metrics["cluster.supersteps"][0] > 0
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    # The wrappers are gone once the traced run ends.
    from repro.core.labels import LabelStore

    assert not hasattr(LabelStore.commit, "__wrapped__")
