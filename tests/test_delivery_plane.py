"""The delivery plane's edge-rank contract (``DeliveryPlane.ranks``,
``DeliveryPlane.endpoints`` and the two rank tables ``slot_ranks`` and
``reverse`` in ``repro.congest.runtime.compile``).

A directed edge's rank — its position in the plane's sorted
``sender * n + receiver`` key table — is the one edge identity of a run:
unicast validation, the fault pass's fate tables and the reliability
wrapper's flags are all indexed by it, and no other code encodes or
decodes a key.  Ranks a sender already holds may ride along as a hint,
which is confirmed, never trusted.  These tests pin the contract once, on every topology
type the plane is built for."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.congest.algorithms import ColumnarFloodValue
from repro.congest.columnar import execute_columnar
from repro.congest.metrics import NetworkMetrics
from repro.congest.runtime.compile import (
    GridTopology,
    compile_edge_stream,
    compile_topology,
)

TOPOLOGIES = {
    # Int labels 0..11: the repr order ("10" < "2") differs from the
    # index order, so compiled rows are not sorted by index.
    "networkx": lambda: compile_topology(
        nx.random_regular_graph(3, 12, seed=5)
    ),
    "stream-int32": lambda: compile_edge_stream(
        [np.array(nx.gnm_random_graph(60, 200, seed=8).edges)], 60
    ),
    "grid-uneven": lambda: GridTopology([
        compile_topology(nx.random_regular_graph(4, 30, seed=1)),
        compile_topology(nx.path_graph(7)),
        compile_topology(nx.cycle_graph(12)),
    ]),
    "edgeless": lambda: compile_topology(nx.empty_graph(5)),
}


def csr_pairs(topology):
    """Each CSR slot's ``(sender, receiver)`` rows, in the topology's
    index dtype."""
    indptr, indices = topology.indptr, topology.indices
    senders = np.repeat(
        np.arange(topology.n, dtype=indices.dtype), np.diff(indptr)
    )
    return senders, indices


@pytest.fixture(params=list(TOPOLOGIES), ids=list(TOPOLOGIES))
def topology(request):
    return TOPOLOGIES[request.param]()


def test_csr_slots_rank_to_their_key_position(topology):
    plane = topology.columnar_plane()
    senders, receivers = csr_pairs(topology)
    keys = senders.astype(np.int64) * topology.n + receivers
    expected = np.empty(len(keys), dtype=np.int64)
    expected[np.argsort(keys)] = np.arange(len(keys))
    assert np.array_equal(plane.edge_keys, np.sort(keys))
    ranks, adjacent = plane.ranks(senders, receivers)
    assert adjacent.all()
    assert np.array_equal(ranks, expected)


def test_every_pair_ranks_without_raising(topology):
    # All n² row pairs: non-edges below the first key (0 → 0), between
    # keys, and past the last key (n-1 → n-1) read adjacent=False and
    # still get a rank that indexes a per-edge table.
    plane = topology.columnar_plane()
    n = topology.n
    senders, receivers = np.divmod(np.arange(n * n), n)
    edges = np.zeros((n, n), dtype=bool)
    edges[csr_pairs(topology)] = True
    ranks, adjacent = plane.ranks(senders, receivers)
    assert np.array_equal(adjacent, edges.ravel())
    assert ranks.min() >= 0
    assert ranks.max() < max(len(plane.edge_keys), 1)
    if len(plane.edge_keys):
        assert plane.edge_keys[0] > 0
        assert plane.edge_keys[-1] < n * n - 1


def test_endpoints_invert_ranks(topology):
    plane = topology.columnar_plane()
    every = np.arange(len(plane.edge_keys))
    senders, receivers = plane.endpoints(every)
    assert senders.dtype == receivers.dtype == np.int64
    ranks, adjacent = plane.ranks(senders, receivers)
    assert adjacent.all()
    assert np.array_equal(ranks, every)
    slot_senders, slot_receivers = csr_pairs(topology)
    slot_ranks, _adjacent = plane.ranks(slot_senders, slot_receivers)
    decoded = plane.endpoints(slot_ranks)
    assert np.array_equal(decoded[0], slot_senders)
    assert np.array_equal(decoded[1], slot_receivers)


def test_edge_table_is_closed_under_reversal(topology):
    # ColumnarReliable._absorb reads every message's reverse
    # (receiver → sender) rank off the plane's reverse table and keys
    # both acks and accepted data by it: exact only if every edge's
    # reverse is an edge, and a bijection on edges only if reversing
    # twice is the identity.
    plane = topology.columnar_plane()
    every = np.arange(len(plane.edge_keys))
    senders, receivers = plane.endpoints(every)
    searched, adjacent = plane.ranks(receivers, senders)
    assert adjacent.all()
    reverse = plane.reverse
    assert np.array_equal(reverse, searched)
    assert np.array_equal(reverse[reverse], every)
    back_senders, back_receivers = plane.endpoints(reverse)
    assert np.array_equal(back_senders, receivers)
    assert np.array_equal(back_receivers, senders)


def test_slot_table_is_the_search_of_every_csr_slot(topology):
    # A broadcast copy is a CSR slot: the fan-out ranks it by a gather
    # from this table.
    plane = topology.columnar_plane()
    senders, receivers = csr_pairs(topology)
    searched, adjacent = plane.ranks(senders, receivers)
    assert adjacent.all()
    assert np.array_equal(plane.slot_ranks, searched)
    decoded = plane.endpoints(plane.slot_ranks)
    assert np.array_equal(decoded[0], senders)
    assert np.array_equal(decoded[1], receivers)


def test_fault_free_broadcast_run_builds_no_rank_table(topology):
    # On a 10^6-node CSR (E ≈ 8·10^6) the two tables would cost ~128 MB,
    # which broadcast-only fault-free runs must never pay.  The flood's
    # first rounds are sparse, so they go through the receiver sort.
    metrics = NetworkMetrics()
    execute_columnar(
        topology, ColumnarFloodValue(0, 9, 6), model="congest",
        bandwidth_bits=64, metrics=metrics,
    )
    assert metrics.rounds == 6
    plane = topology.columnar_plane()
    assert plane._slot_ranks is None
    assert plane._reverse is None


# ---------------------------------------------------------------------------
# Rank hints: ranks a sender already holds are confirmed, never trusted
# ---------------------------------------------------------------------------
def shuffled_edges(topology, seed=0):
    """Every CSR slot's ``(sender, receiver)`` pair, shuffled, and the
    pairs' searched ranks."""
    senders, receivers = csr_pairs(topology)
    order = np.random.default_rng(seed).permutation(len(senders))
    senders, receivers = senders[order], receivers[order]
    return senders, receivers, topology.columnar_plane().ranks(
        senders, receivers
    )[0]


def assert_same_result(got, want):
    for have, expected in zip(got, want):
        assert have.dtype == expected.dtype
        assert np.array_equal(have, expected)


def test_matching_hint_comes_back_as_the_ranks(topology):
    plane = topology.columnar_plane()
    senders, receivers, searched = shuffled_edges(topology)
    ranks, adjacent = plane.ranks(senders, receivers, searched.copy())
    assert np.array_equal(ranks, searched)
    assert adjacent.all()


@pytest.mark.parametrize("wrong", ["in-range", "-1", "E", "E+5"])
def test_wrong_hint_is_searched_as_without_one(topology, wrong):
    # One bad rank among good ones sends the whole group to the search.
    # The edgeless plane hints a non-edge instead, with 0, -1, 0 and 5:
    # reading any of them off its empty key table would raise.
    plane = topology.columnar_plane()
    senders, receivers, searched = shuffled_edges(topology)
    if not len(senders):
        senders, receivers = np.array([0]), np.array([1])
        searched = plane.ranks(senders, receivers)[0]
    edges = len(plane.edge_keys)
    hint = searched.copy()
    # The last edge's pair: a -1 read without a bounds check would wrap
    # round to its own key and pass.
    k = int(np.argmax(searched))
    hint[k] = {"in-range": (hint[k] + 1) % max(edges, 1), "-1": -1,
               "E": edges, "E+5": edges + 5}[wrong]
    assert_same_result(plane.ranks(senders, receivers, hint),
                       plane.ranks(senders, receivers))


def test_hint_for_a_non_edge_is_searched_as_without_one(topology):
    # Every row pair, hinted with its own (clamped) search result: the
    # non-edges' insertion points are in range but not their keys.
    plane = topology.columnar_plane()
    n = topology.n
    senders, receivers = np.divmod(np.arange(n * n), n)
    unhinted = plane.ranks(senders, receivers)
    assert not unhinted[1].all()
    assert_same_result(plane.ranks(senders, receivers, unhinted[0].copy()),
                       unhinted)
