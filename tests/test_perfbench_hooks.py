"""The traced benchmark run wraps named driver entry points; keep them.

``perfbench/spans.py``'s ``Tracer.install()`` patches ``collect_store``
on ``repro.dist.{dgll,plant_dist,hybrid}`` and several methods, so a
refactor that drops one of those names would crash the traced run.
"""
import importlib.util
from pathlib import Path

import numpy as np

import repro.dist.dgll as dgll_mod
from repro.core.query import QueryIndex
from repro.dist.dgll import dgll
from repro.dist.hybrid import hybrid
from repro.dist.plant_dist import plant_dist
from repro.dist.query_modes import qdol_indices, shard_by_hub_owner
from tests.helpers import chl, graph, rank_of

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer("t")


def test_tracer_installs_and_restores():
    before = dgll_mod.collect_store
    with _tracer().install():
        assert dgll_mod.collect_store is not before
    assert dgll_mod.collect_store is before


def test_windowed_drivers_register_collect_store():
    """Each driver assembles its store through ``repro.dist.dgll``'s
    ``collect_store``, which is where the tracer times it."""
    g, rank = graph("SKIT"), rank_of("SKIT")
    tracer = _tracer()
    with tracer.install():
        dgll(None, g, rank, q=2)
        plant_dist(None, g, rank, q=2)
        hybrid(None, g, rank, q=2, psi_th=2.0)
    assert len(tracer.durations("engine.collect_store")) == 3


def test_query_batch_spans_on_every_index():
    """The full index, a QFDL shard and a QDOL node are all ``QueryIndex``
    objects, so the tracer's ``query.batch`` wrapper times each of them."""
    store, rank = chl("SKIT"), rank_of("SKIT")
    pairs = np.array([[0, 1], [2, 3]], dtype=np.int64)
    tracer = _tracer()
    with tracer.install():
        QueryIndex.from_store(store).query_batch(pairs)
        shard_by_hub_owner(store, rank, 4)[0].query_batch(pairs)
        next(iter(qdol_indices(store, 4)[1].values())).query_batch(pairs)
    assert len(tracer.durations("query.batch")) == 3
