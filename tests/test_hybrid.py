"""Hybrid PLaNT→DGLL: canonical output, Ψ-switching, traffic savings."""
import pytest

from repro.core.reference import brute_chl
from repro.dist.dgll import dgll
from repro.dist.engine import OOMError
from repro.dist.hybrid import hybrid
from tests.helpers import (
    CORE_DATASETS,
    chl_set,
    graph,
    random_connected_graph,
    random_rank,
    rank_of,
)


@pytest.mark.parametrize("name", CORE_DATASETS)
@pytest.mark.parametrize("q", [1, 4])
def test_hybrid_equals_chl_default_threshold(name, q):
    r = hybrid(None, graph(name), rank_of(name), q=q, psi_th=100.0)
    assert r.store.canonical_set() == chl_set(name)


@pytest.mark.parametrize("name", ["CAL", "SKIT", "POK"])
@pytest.mark.parametrize("psi_th", [0.5, 2.0, 1e9])
def test_hybrid_equals_chl_any_switch_point(name, psi_th):
    """CHL must come out whether the switch fires early, late, or never."""
    r = hybrid(None, graph(name), rank_of(name), q=4, psi_th=psi_th)
    assert r.store.canonical_set() == chl_set(name)


def test_switch_position_monotone_in_threshold():
    name = "SKIT"
    g, rank = graph(name), rank_of(name)
    lo = hybrid(None, g, rank, q=4, psi_th=0.5).stats["switch_pos"]
    hi = hybrid(None, g, rank, q=4, psi_th=1e9).stats["switch_pos"]
    assert lo <= hi == g.n


def test_hybrid_communicates_less_than_dgll():
    """The headline §5.2.1 effect: PLaNTing the label-heavy head avoids
    broadcasting the bulk of the label set."""
    name = "POK"
    g, rank = graph(name), rank_of(name)
    h = hybrid(None, g, rank, q=4, psi_th=100.0)
    d = dgll(None, g, rank, q=4)
    assert h.stats["comm"]["total_bytes"] < d.stats["comm"]["total_bytes"]


@pytest.mark.parametrize("seed", range(3))
def test_hybrid_random(seed):
    g = random_connected_graph(40, 35, 6, seed=seed)
    rank = random_rank(40, seed + 31)
    r = hybrid(None, g, rank, q=3, psi_th=2.0)
    assert r.store.canonical_set() == brute_chl(g, rank).canonical_set()


def test_als_matches_chl_als():
    name = "ACT"
    r = hybrid(None, graph(name), rank_of(name), q=4, psi_th=3.0)
    from tests.helpers import chl

    assert r.stats["als"] == pytest.approx(chl(name).als())


def test_eta_zero_hybrid_still_correct():
    r = hybrid(None, graph("CAL"), rank_of("CAL"), q=2, psi_th=1.0, eta=0)
    assert r.store.canonical_set() == chl_set("CAL")


@pytest.mark.parametrize("eta", [16, 0])
def test_oom_budget_in_plant_windows(eta):
    """A Hybrid that never switches still enforces the node memory budget,
    with or without common-table updates to apply."""
    with pytest.raises(OOMError):
        hybrid(None, graph("POK"), rank_of("POK"), q=2, psi_th=1e9, eta=eta, budget_bytes=64)
