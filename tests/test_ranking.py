"""Tests for the network-hierarchy (ranking) module."""
import numpy as np
import pytest

from repro.graphs.generators import DATASETS, build_dataset
from repro.graphs.ranking import (
    betweenness_rank,
    degree_rank,
    rank_for,
    roots_by_rank,
)
from tests.helpers import TEST_SCALE, graph


@pytest.mark.parametrize("name", ["CAL", "SKIT", "POK"])
def test_rank_is_permutation(name):
    g = graph(name)
    r = rank_for(g, DATASETS[name].kind)
    assert sorted(r.tolist()) == list(range(g.n))


def test_degree_rank_orders_by_degree():
    g = graph("SKIT")
    r = degree_rank(g)
    deg = g.degrees()
    top = int(np.argmax(r))  # the rank-(n-1) vertex
    assert deg[top] == deg.max()
    # higher rank never has strictly smaller degree than a lower rank
    order = np.argsort(-r)
    d = deg[order]
    assert (np.diff(d) <= 0).all()


def test_degree_rank_tie_break_by_id():
    # a 4-cycle: all degrees equal; lower id must rank higher
    from repro.graphs.csr import from_edges

    g = from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [1, 1, 1, 1])
    r = degree_rank(g)
    assert r[0] > r[1] > r[2] > r[3]


def test_betweenness_rank_center_of_star():
    from repro.graphs.csr import from_edges

    # star: center 0 lies on every shortest path
    g = from_edges(6, [0] * 5, [1, 2, 3, 4, 5], [1] * 5)
    r = betweenness_rank(g, samples=6)
    assert r[0] == 5  # highest rank


def test_betweenness_deterministic():
    g = graph("CAL")
    assert np.array_equal(betweenness_rank(g), betweenness_rank(g))


def test_roots_by_rank_is_inverse():
    rng = np.random.default_rng(0)
    r = rng.permutation(50)
    order = roots_by_rank(r)
    # first root is the top-ranked vertex, ranks strictly decreasing
    assert r[order[0]] == 49
    assert (np.diff(r[order]) < 0).all()


@pytest.mark.parametrize("rank", [[0, 0, 1], [3, 1, 2], [2, 2, 0], [-1, 0, 1]])
def test_roots_by_rank_rejects_non_permutation(rank):
    with pytest.raises(ValueError):
        roots_by_rank(np.array(rank))


def test_seq_pll_rejects_non_permutation_rank():
    """A repeated rank would make the labeling non-canonical (a 3-path
    with rank [2, 2, 0] got the self-label (1, 1, 0) twice)."""
    from repro.core.pll import seq_pll
    from repro.graphs.csr import from_edges

    g = from_edges(3, [0, 1], [1, 2], [1, 1])
    with pytest.raises(ValueError):
        seq_pll(g, np.array([2, 2, 0]))


@pytest.mark.parametrize("kind,fn", [("road", "betweenness"), ("scalefree", "degree")])
def test_rank_for_dispatch(kind, fn):
    g = graph("CAL") if kind == "road" else graph("SKIT")
    r = rank_for(g, kind)
    expect = betweenness_rank(g) if fn == "betweenness" else degree_rank(g)
    assert np.array_equal(r, expect)


def test_betweenness_rank_unchanged_on_test_datasets():
    """Element-for-element equal to the ranks recorded from the numpy-array
    Brandes loop before it moved onto the graph's cached adjacency."""
    import json
    from pathlib import Path

    recorded = json.loads((Path(__file__).parent / "data" / "betweenness_rank.json").read_text())
    assert sorted(recorded) == sorted(DATASETS)
    for name, want in recorded.items():
        assert betweenness_rank(build_dataset(name, TEST_SCALE)).tolist() == want, name
