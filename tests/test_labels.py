"""Tests for LabelStore and CommonLabelTable."""
import numpy as np
import pytest

from repro.core.labels import (
    INF,
    LABEL_BYTES,
    CommonLabelTable,
    LabelStore,
    payload_bytes,
)


def test_commit_and_counts():
    s = LabelStore(3)
    s.commit([(0, 2, 5), (1, 2, 1), (0, 1, 2)])
    assert s.num_labels() == 3
    assert s.als() == 1.0
    assert s.bytes() == 3 * LABEL_BYTES


def test_commit_appends_in_call_order():
    s = LabelStore(2)
    s.commit([(0, 1, 7)])
    s.commit([(0, 3, 2), (1, 0, 4), (0, 2, 5)])  # any hub order is kept as given
    assert s.hubs[0] == [1, 3, 2]
    assert s.dists[0] == [7, 2, 5]
    assert s.hubs[1] == [0] and s.dists[1] == [4]


def test_hash_and_labels_of():
    s = LabelStore(2)
    s.commit([(1, 0, 4), (1, 1, 0)])
    assert dict(s.labels_of(1)) == {0: 4, 1: 0}


def test_delete():
    s = LabelStore(2)
    s.commit([(0, 1, 1), (0, 0, 0), (1, 1, 0)])
    removed = s.delete({(0, 1), (1, 0)})  # second pair doesn't exist
    assert removed == 1
    assert s.canonical_set() == frozenset({(0, 0, 0), (1, 1, 0)})


def test_triplets_roundtrip():
    t = [(0, 4, 3), (2, 3, 1), (4, 4, 0)]
    s = LabelStore.from_triplets(5, t)
    assert s.canonical_set() == frozenset(t)
    pdf = s.to_pandas()
    assert set(pdf.columns) == {"v", "hub", "dist"} and len(pdf) == 3


def test_payload_bytes_monotone():
    assert payload_bytes([1, 2, 3]) < payload_bytes(list(range(1000)))


def test_common_table_covered():
    ct = CommonLabelTable(5, np.array([4, 3]))
    ct.add_hub_labels(4, [(0, 2), (1, 3), (4, 0)])
    ct.add_hub_labels(3, [(0, 7), (3, 0)])
    cover = ct.cover_vector(0)
    # hub 4 covers (0,1) within 5 (2+3)
    assert cover[1] <= 5
    assert not cover[1] <= 4
    # no hub knows vertex 2
    assert not cover[2] <= 10**9


def test_common_table_excludes_root_itself():
    ct = CommonLabelTable(3, np.array([2]))
    ct.add_hub_labels(2, [(0, 1), (1, 1), (2, 0)])
    # query rooted AT the top hub must ignore its own row
    assert not ct.cover_vector(2)[0] <= 10**9
    # but other roots may be covered by hub 2
    assert ct.cover_vector(0)[1] <= 2


def test_common_table_bytes():
    ct = CommonLabelTable(4, np.array([0]))
    assert ct.bytes() == 0
    ct.add_hub_labels(0, [(1, 5), (2, 6)])
    assert ct.bytes() == 2 * LABEL_BYTES


def test_inf_headroom():
    # INF must be large but safely summable in int64
    assert INF + INF < np.iinfo(np.int64).max
    assert INF > 2**30
