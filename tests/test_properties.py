"""Hypothesis property tests: every engine equals brute-force CHL on
arbitrary small connected weighted graphs with arbitrary rankings."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.gll import gll
from repro.core.labels import LabelStore
from repro.core.pll import seq_pll
from repro.core.plant import plant_dijkstra
from repro.core.reference import brute_chl
from repro.dist.dgll import dgll
from repro.dist.hybrid import hybrid
from repro.graphs.csr import from_edges
from repro.graphs.ranking import roots_by_rank

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_rank(draw):
    n = draw(st.integers(min_value=3, max_value=18))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    perm = rng.permutation(n)
    src = np.concatenate([perm, rng.integers(0, n, extra)])
    dst = np.concatenate([np.roll(perm, 1), rng.integers(0, n, extra)])
    w = rng.integers(1, draw(st.integers(min_value=2, max_value=9)), len(src))
    g = from_edges(n, src, dst, w)
    rank = rng.permutation(n).astype(np.int64)
    return g, rank


@given(graph_and_rank())
@settings(**SETTINGS)
def test_seqpll_is_canonical(gr):
    g, rank = gr
    store, _ = seq_pll(g, rank)
    assert store.canonical_set() == brute_chl(g, rank).canonical_set()


@given(graph_and_rank())
@settings(**SETTINGS)
def test_plant_is_canonical(gr):
    g, rank = gr
    store = LabelStore(g.n)
    for r in roots_by_rank(rank):
        labels, _ = plant_dijkstra(g, rank, int(r))
        store.commit([(v, int(r), d) for v, d in labels])
    assert store.canonical_set() == brute_chl(g, rank).canonical_set()


@given(graph_and_rank(), st.integers(min_value=2, max_value=6))
@settings(**SETTINGS)
def test_gll_is_canonical(gr, p):
    g, rank = gr
    store, _ = gll(None, g, rank, p=p)
    assert store.canonical_set() == brute_chl(g, rank).canonical_set()


@given(graph_and_rank(), st.integers(min_value=1, max_value=4), st.data())
@settings(**SETTINGS)
def test_dgll_is_canonical(gr, q, data):
    """With η > 0 the Common Label Table takes a DGLL window's rows
    unfiltered, before that window is cleaned."""
    g, rank = gr
    eta = data.draw(st.integers(min_value=0, max_value=min(4, g.n)))
    r = dgll(None, g, rank, q=q, x1=4, eta=eta)
    assert r.store.canonical_set() == brute_chl(g, rank).canonical_set()


@given(
    graph_and_rank(),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.5, max_value=50.0),
)
@settings(**SETTINGS)
def test_hybrid_is_canonical(gr, q, psi_th):
    g, rank = gr
    r = hybrid(None, g, rank, q=q, psi_th=psi_th, eta=min(4, g.n))
    assert r.store.canonical_set() == brute_chl(g, rank).canonical_set()
