"""The traced benchmark run wraps named driver entry points; keep them.

``perfbench/spans.py``'s ``Tracer.install()`` patches ``collect_store``
on ``repro.dist.{dgll,plant_dist,hybrid}`` and several methods, so a
refactor that drops one of those names would crash the traced run.
"""
import importlib.util
from pathlib import Path

import repro.dist.dgll as dgll_mod
from repro.dist.dgll import dgll
from repro.dist.hybrid import hybrid
from repro.dist.plant_dist import plant_dist
from tests.helpers import graph, rank_of

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
