"""A superstep's updates ride in the next superstep, or in the final read.

DGLL's doomed labels, the Common Label Table rows and DparaPLL's replica
merge are applied by the nodes at the start of the following superstep.
The run's last updates are applied by ``read_nodes``, so a run that ends
(or hits its deadline) after a window still applies that window's
updates, and the node memory after them is still checked against the
budget.
"""
import pytest

from repro.core.parallel import find_redundant
from repro.dist import dgll as dgll_mod
from repro.dist import parapll_dist as parapll_mod
from repro.dist.dgll import dgll
from repro.dist.engine import OOMError
from repro.dist.hybrid import hybrid
from repro.dist.parapll_dist import dpara_pll
from repro.graphs.ranking import roots_by_rank
from tests.helpers import graph, rank_of

BUDGETED = {
    "dgll": lambda g, r, b: dgll(None, g, r, q=4, budget_bytes=b),
    "hybrid": lambda g, r, b: hybrid(None, g, r, q=4, eta=16, budget_bytes=b),
    "dpara": lambda g, r, b: dpara_pll(None, g, r, q=4, budget_bytes=b),
}


@pytest.mark.parametrize("run", sorted(BUDGETED))
def test_budget_is_checked_after_the_last_window(run):
    """A node's memory after the last updates is the run's largest, so a
    budget of exactly that passes and one byte less raises."""
    g, rank = graph("POK"), rank_of("POK")
    m = BUDGETED[run](g, rank, None).stats["mem_max_node"]
    assert BUDGETED[run](g, rank, m).stats["mem_max_node"] == m
    with pytest.raises(OOMError):
        BUDGETED[run](g, rank, m - 1)


def _deadline_after_first_window(monkeypatch, module):
    calls = []

    def out_of_time(t0, deadline_s):
        calls.append(1)
        return len(calls) > 1

    monkeypatch.setattr(module, "out_of_time", out_of_time)


def test_dgll_deadline_applies_the_last_cleaning(monkeypatch):
    _deadline_after_first_window(monkeypatch, dgll_mod)
    g, rank = graph("SKIT"), rank_of("SKIT")
    r = dgll(None, g, rank, q=4)
    assert r.stats["timed_out"] and r.stats["supersteps"] == 1
    assert find_redundant(None, r.store, r.store.triplets(), rank) == set()


def test_dpara_deadline_applies_the_last_merge(monkeypatch):
    _deadline_after_first_window(monkeypatch, parapll_mod)
    g, rank, q = graph("SKIT"), rank_of("SKIT"), 4
    r = dpara_pll(None, g, rank, q=q)
    assert r.stats["timed_out"] and r.stats["supersteps"] == 1
    # node 0's replica holds the first-sync trees of every node
    position = {int(v): j for j, v in enumerate(roots_by_rank(rank))}
    hubs = {h for _, h, _ in r.store.triplets()}
    assert {position[h] % q for h in hubs} == set(range(q))


@pytest.mark.parametrize("name", ["CAL", "SKIT"])
@pytest.mark.parametrize("run", sorted(BUDGETED))
def test_budget_adds_no_traffic(run, name):
    """A budget far above need meters the same bytes and syncs as none:
    a window with no updates sends nothing, with or without a budget."""
    g, rank = graph(name), rank_of(name)
    assert BUDGETED[run](g, rank, 10**12).stats["comm"] == BUDGETED[run](g, rank, None).stats["comm"]
