"""Hypothesis property tests: every engine equals brute-force CHL on
arbitrary small weighted graphs with arbitrary rankings. The graphs may
be disconnected, hold isolated vertices or a single vertex, and have
all-equal weights (heavy distance ties). The two paraPLL baselines keep
redundant labels, so they are held to exact answers instead."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.gll import gll
from repro.core.labels import LabelStore
from repro.core.lcc import lcc
from repro.core.parapll import spara_pll
from repro.core.pll import seq_pll
from repro.core.plant import plant_dijkstra
from repro.core.query import QueryIndex
from repro.core.reference import all_pairs_dist, brute_chl
from repro.dist.dgll import dgll
from repro.dist.hybrid import hybrid
from repro.dist.parapll_dist import dpara_pll
from repro.graphs.csr import from_edges
from repro.graphs.ranking import roots_by_rank

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_rank(draw):
    """A graph of 1–18 vertices in 1–4 components, each a ring over a
    random vertex subset plus random chords inside it; a one-vertex
    component is an isolated vertex. Weights lie in [1, bound), so a
    bound of 2 makes them all 1."""
    n = draw(st.integers(min_value=1, max_value=18))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    perm = rng.permutation(n)
    comps = np.split(perm, np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)))
    comp_of = np.empty(n, dtype=np.int64)
    for c, vs in enumerate(comps):
        comp_of[vs] = c
    a, b = rng.integers(0, n, extra), rng.integers(0, n, extra)
    inside = comp_of[a] == comp_of[b]  # chords keep the components apart
    src = np.concatenate([perm, a[inside]])
    dst = np.concatenate([np.concatenate([np.roll(vs, 1) for vs in comps]), b[inside]])
    w = rng.integers(1, draw(st.integers(min_value=2, max_value=9)), len(src))
    g = from_edges(n, src, dst, w)
    rank = rng.permutation(n).astype(np.int64)
    return g, rank


def assert_exact_answers(store: LabelStore, g) -> None:
    """Every pair's query equals its true distance, INF included."""
    idx, dist = QueryIndex.from_store(store), all_pairs_dist(g)
    got = [[idx.query(u, v) for v in range(g.n)] for u in range(g.n)]
    assert got == dist.tolist()


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


@given(graph_and_rank(), st.integers(min_value=2, max_value=6))
@settings(**SETTINGS)
def test_lcc_is_canonical(gr, p):
    g, rank = gr
    store, _ = lcc(None, g, rank, p=p)
    assert store.canonical_set() == brute_chl(g, rank).canonical_set()


@given(graph_and_rank(), st.integers(min_value=2, max_value=6))
@settings(**SETTINGS)
def test_sparapll_answers_exactly(gr, p):
    g, rank = gr
    store, _ = spara_pll(None, g, rank, p=p)
    assert_exact_answers(store, g)


@given(graph_and_rank(), st.integers(min_value=1, max_value=4))
@settings(**SETTINGS)
def test_dparapll_answers_exactly(gr, q):
    g, rank = gr
    assert_exact_answers(dpara_pll(None, g, rank, q=q).store, g)


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
