"""The result-view contract of the columnar executors.

``execute_columnar`` (fast and ``columnar-reference``) and every trial
of ``execute_grid`` return a read-only :class:`VertexView` over the
program's state arrays instead of a dict.  These tests pin what the
view promises on three topologies — a networkx graph whose string
labels sort by ``repr`` differently from their insertion order, an
int32 streamed CSR, and a three-trial grid of uneven blocks:

* it equals the object family's reference dict in both directions, in
  the same key order and length;
* per-key and bulk reads give the same Python values (never numpy
  scalars), BFS pairs naming the parent by its label;
* non-vertices raise ``KeyError``, item assignment ``TypeError``;
* it pickles to an equal mapping, a grid trial without the other
  trials' rows;
* nothing is decoded inside the run; each bulk read decodes every row
  once and a per-key read decodes its own row, and each guarantee
  checker of :mod:`repro.congest.validators` decodes every row once;
* the view keeps nothing it decodes: a second bulk read decodes
  again, and a read leaves no decoded rows alive behind it.
"""

from __future__ import annotations

import gc
import pickle
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.congest import Network, run_many
from repro.congest.algorithms import (
    BFSTreeAlgorithm,
    BroadcastAlgorithm,
    ColumnarBFSTree,
    ColumnarConvergecastSum,
    ColumnarFloodValue,
    ColumnarVarFlood,
    ConvergecastSumAlgorithm,
)
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarTrialColoring,
    LubyMISAlgorithm,
    TrialColoringAlgorithm,
)
from repro.congest.columnar import (
    ListedValues,
    OptionalValues,
    PlainValues,
    TreePairs,
    VertexView,
)
from repro.congest.runtime.compile import compile_edge_stream
from repro.congest.validators import check_bfs_tree, check_coloring, check_mis
from repro.graphs.streaming import stream_powerlaw_edges

HORIZON = 6


def labelled_graph(n: int = 14, seed: int = 2) -> nx.Graph:
    """String labels inserted as v0, v3, v6, v9, v12, ...: ``repr``
    order ('v0' < 'v1' < 'v10' < ...) is not insertion order.  Two components,
    so the flood and the BFS leave vertices unreached."""
    base = nx.disjoint_union(
        nx.random_regular_graph(3, n - 4, seed=seed), nx.path_graph(4)
    )
    graph = nx.relabel_nodes(base, {i: f"v{(3 * i) % n}" for i in base})
    labels = list(graph.nodes)
    assert len(labels) == n and labels != sorted(labels, key=repr)
    return graph


def streamed_topology(n: int = 30):
    graph = nx.gnm_random_graph(n, 50, seed=6)
    topology = compile_edge_stream([np.array(graph.edges)], n)
    assert topology.indices.dtype == np.int32
    return topology


def vertices(graph) -> list:
    """Labels of a networkx graph or of a streamed topology."""
    if isinstance(graph, nx.Graph):
        return list(graph.nodes)
    return list(graph.vertices)


def seeds(graph) -> dict:
    rng = random.Random(9)
    return {v: rng.randrange(1 << 30) for v in vertices(graph)}


def root_of(graph):
    return vertices(graph)[0]


# (name, object-family factory, columnar factory, needs seed inputs)
ALGORITHMS = [
    ("mis", lambda root: LubyMISAlgorithm(400),
     lambda root: ColumnarLubyMIS(400), True),
    ("coloring", lambda root: TrialColoringAlgorithm(8, 400),
     lambda root: ColumnarTrialColoring(8, 400), True),
    ("flood", lambda root: BroadcastAlgorithm(root, 77, HORIZON),
     lambda root: ColumnarFloodValue(root, 77, HORIZON), False),
    ("bfs", lambda root: BFSTreeAlgorithm(root, HORIZON),
     lambda root: ColumnarBFSTree(root, HORIZON), False),
    ("var-flood", lambda root: BroadcastAlgorithm(root, (4, 5), HORIZON),
     lambda root: ColumnarVarFlood(root, (4, 5), HORIZON), False),
]


def reference_run(graph, make, root, inputs):
    """The object family's reference executor: a plain dict."""
    outputs = Network(graph)._run_reference(
        make(root), max_rounds=500, inputs=inputs
    )
    assert type(outputs) is dict
    return outputs


def python_parts(value):
    return value if isinstance(value, tuple) else (value,)


def assert_view_contract(view, ref, tree=False):
    """Everything a view promises against the reference dict ``ref``."""
    assert isinstance(view, VertexView)
    # Per-key reads decode one row each; the bulk reads below decode all.
    for vertex, expected in ref.items():
        value = view[vertex]
        assert value == expected
        assert type(value) is type(expected)
        for part in python_parts(value):
            assert not isinstance(part, np.generic)
        if tree and value is not None:
            assert value[0] in ref  # the parent's label, not its row
    assert view == ref
    assert ref == view
    assert not view != ref
    assert list(view) == list(ref)
    assert list(view.keys()) == list(ref.keys())
    assert len(view) == len(ref)
    bulk = list(view.values())
    assert bulk == list(ref.values())
    assert [type(v) for v in bulk] == [type(v) for v in ref.values()]
    for value in bulk:
        for part in python_parts(value):
            assert not isinstance(part, np.generic)
    assert list(view.items()) == list(ref.items())
    for vertex in ref:
        assert vertex in view
    # Read-only.
    some = next(iter(ref))
    with pytest.raises(TypeError):
        view[some] = None
    with pytest.raises(TypeError):
        del view[some]
    # Pickles to an equal mapping, same order.
    restored = pickle.loads(pickle.dumps(view))
    assert restored == ref and ref == restored
    assert list(restored.items()) == list(ref.items())


@pytest.mark.parametrize("plane", ["columnar", "columnar-reference"])
@pytest.mark.parametrize(
    "name,make_object,make_columnar,seeded", ALGORITHMS,
    ids=[a[0] for a in ALGORITHMS],
)
class TestSingleRunView:
    def run_both(self, graph, make_object, make_columnar, seeded, plane):
        root = root_of(graph)
        inputs = seeds(graph) if seeded else None
        ref = reference_run(graph, make_object, root, inputs)
        view = Network(graph).run(
            make_columnar(root), max_rounds=500, inputs=inputs, plane=plane
        )
        return view, ref

    def test_labelled_networkx_graph(self, name, make_object, make_columnar,
                                     seeded, plane):
        graph = labelled_graph()
        view, ref = self.run_both(
            graph, make_object, make_columnar, seeded, plane
        )
        assert_view_contract(view, ref, tree=name == "bfs")
        if name in ("flood", "bfs"):
            assert None in ref.values()  # the unreached component decodes
        with pytest.raises(KeyError):
            view["nope"]
        with pytest.raises(KeyError):
            view[0]
        assert "nope" not in view and view.get("nope", 5) == 5

    def test_int32_streamed_topology(self, name, make_object, make_columnar,
                                     seeded, plane):
        topology = streamed_topology()
        view, ref = self.run_both(
            topology, make_object, make_columnar, seeded, plane
        )
        assert_view_contract(view, ref, tree=name == "bfs")
        n = topology.n
        for missing in (n, -1, "0"):  # row n is one past the identity index
            with pytest.raises(KeyError):
                view[missing]
            assert missing not in view


def test_convergecast_total_of_minus_one_is_not_none():
    """The masked optional rule: a finished total may be any integer, -1
    included, and unfinished vertices decode to ``None``."""
    graph = labelled_graph()
    root = root_of(graph)
    tree = {
        v: out for v, out in reference_run(
            graph, lambda r: BFSTreeAlgorithm(r, 20), root, None
        ).items() if out is not None
    }
    children = {v: [] for v in tree}
    for v, (parent, _depth) in tree.items():
        if v != root:
            children[parent].append(v)
    inputs = {
        v: (None if v == root else tree[v][0], tuple(children[v]),
            -1 if v == root else 0)
        for v in tree
    }
    for v in graph.nodes:
        inputs.setdefault(v, (None, (), -1))
    horizon = graph.number_of_nodes() + 2
    ref = Network(graph)._run_reference(
        ConvergecastSumAlgorithm(horizon), max_rounds=horizon + 2,
        inputs=inputs,
    )
    view = Network(graph).run(
        ColumnarConvergecastSum(horizon), max_rounds=horizon + 2,
        inputs=inputs,
    )
    assert ref[root] == -1 and None in ref.values()
    assert_view_contract(view, ref)


# ---------------------------------------------------------------------------
# Grid trials
# ---------------------------------------------------------------------------
def uneven_graphs():
    """Three blocks of 14, 40 and 10 vertices; every one holds the root
    label 'v0' (the grid fans vertex-keyed roots out per block)."""
    return [labelled_graph(14, 2), labelled_graph(40, 3), labelled_graph(10, 4)]


@pytest.mark.parametrize(
    "name,make_object,make_columnar,seeded", ALGORITHMS,
    ids=[a[0] for a in ALGORITHMS],
)
def test_uneven_grid_trial_views(name, make_object, make_columnar, seeded):
    graphs = uneven_graphs()
    root = "v0"
    trials = [(graph, seeds(graph) if seeded else None) for graph in graphs]
    results = run_many(
        make_columnar(root), trials, processes=1, plane="grid",
        max_rounds=500,
    )
    assert len(results) == 3
    for (graph, inputs), (view, _metrics) in zip(trials, results):
        ref = reference_run(graph, make_object, root, inputs)
        assert_view_contract(view, ref, tree=name == "bfs")
        with pytest.raises(KeyError):
            view["v99"]


def test_grid_trial_pickles_without_the_other_trials():
    small, big = labelled_graph(10, 4), labelled_graph(400, 5)
    results = run_many(
        ColumnarBFSTree("v0", HORIZON), [small, big, small],
        processes=1, plane="grid", max_rounds=50,
    )
    sizes = [len(pickle.dumps(view)) for view, _metrics in results]
    # The small trials' views carry their 10 rows and labels each, not
    # the 410 others.
    assert max(sizes[0], sizes[2]) * 10 < sizes[1]
    restored = pickle.loads(pickle.dumps(results[0][0]))
    assert restored == results[0][0] and len(restored) == 10


def test_parallel_sweep_returns_equal_views():
    graph = labelled_graph()
    trials = [(graph, seeds(graph)), (graph, {v: 1 for v in graph})]
    serial = run_many(ColumnarLubyMIS(400), trials, processes=1,
                      plane="columnar", max_rounds=500)
    parallel = run_many(ColumnarLubyMIS(400), trials, processes=2,
                        plane="columnar", max_rounds=500)
    for (a, _), (b, _) in zip(serial, parallel):
        assert a == b and list(a.items()) == list(b.items())


# ---------------------------------------------------------------------------
# Decode-count guard: the run decodes nothing, a bulk read decodes once
# ---------------------------------------------------------------------------
RULES = (PlainValues, OptionalValues, TreePairs, ListedValues)


@pytest.fixture
def decodes(monkeypatch):
    """Every ``rows`` call of every decode rule, as ``(rule, start, stop)``."""
    calls: list = []
    for cls in RULES:
        def counted(self, start, stop, _rows=cls.rows):
            calls.append((self, start, stop))
            return _rows(self, start, stop)

        monkeypatch.setattr(cls, "rows", counted)
    return calls


def test_runs_decode_nothing(decodes):
    graph = labelled_graph()
    root = root_of(graph)
    for _name, _obj, make_columnar, seeded in ALGORITHMS:
        inputs = seeds(graph) if seeded else None
        for plane in ("columnar", "columnar-reference"):
            Network(graph).run(
                make_columnar(root), max_rounds=500, inputs=inputs,
                plane=plane,
            )
        run_many(make_columnar("v0"), uneven_graphs(), processes=1,
                 plane="grid", max_rounds=500)
    assert decodes == []


def test_bulk_reads_decode_once(decodes):
    """Each bulk read is one decode of every row; the view keeps none
    of them, so a later per-key read decodes its own row again."""
    graph = labelled_graph()
    view = Network(graph).run(ColumnarBFSTree(root_of(graph), HORIZON),
                              max_rounds=50)
    n = len(view)
    first = list(view.values())
    assert [call[1:] for call in decodes] == [(0, n)]
    assert list(view.values()) == first
    assert view == dict(view.items())
    assert [call[1:] for call in decodes] == [(0, n)] * 4
    decodes.clear()
    view[list(graph.nodes)[5]]
    assert [call[1:] for call in decodes] == [(5, 6)]


def test_per_key_read_decodes_one_row(decodes):
    graph = labelled_graph()
    view = Network(graph).run(ColumnarFloodValue(root_of(graph), 3, HORIZON),
                              max_rounds=50)
    vertex = list(graph.nodes)[5]
    view[vertex]
    assert [call[1:] for call in decodes] == [(5, 6)]


def test_grid_trial_read_decodes_only_that_trial(decodes):
    graphs = uneven_graphs()
    results = run_many(ColumnarLubyMIS(400), graphs, processes=1,
                       plane="grid", max_rounds=500)
    views = [view for view, _metrics in results]
    assert decodes == []
    list(views[0].values())
    views[0] == views[0]
    assert decodes
    assert all(call[1:] == (0, graphs[0].number_of_nodes())
               for call in decodes)


@pytest.mark.parametrize("make,total", [
    (lambda: ColumnarBFSTree(0, 32),
     lambda values: sum(v[1] for v in values if v is not None)),
    (lambda: ColumnarFloodValue(0, 9001, 32),
     lambda values: sum(v for v in values if v is not None)),
], ids=["bfs", "flood"])
def test_bulk_read_leaves_nothing_behind(make, total):
    """A bulk read's decoded rows die with the read: on a 10^5-vertex
    streamed power-law topology, where they take megabytes, the live
    view keeps under 64 KiB more than before the read."""
    n = 100_000
    topology = compile_edge_stream(stream_powerlaw_edges(n, 4 * n, seed=1), n)
    view = Network(topology).run(make(), max_rounds=34, plane="columnar")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert total(view.values()) > 0
        # A full collection also empties the interpreter's free lists
        # (freed tuples), which tracemalloc counts as allocated.
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(view) == n
    assert kept < 64 * 1024


def test_checkers_decode_each_row_once(decodes):
    graph = labelled_graph()
    root = root_of(graph)
    crashed = (vertices(graph)[3],)
    checks = {
        "mis": lambda outputs: check_mis(graph, outputs, crashed),
        "coloring": lambda outputs: check_coloring(
            graph, outputs, crashed, palette=8
        ),
        "bfs": lambda outputs: check_bfs_tree(graph, outputs, root, crashed),
    }
    for name, _obj, make_columnar, seeded in ALGORITHMS:
        if name not in checks:
            continue
        view = Network(graph).run(
            make_columnar(root), max_rounds=500,
            inputs=seeds(graph) if seeded else None,
        )
        report = checks[name](view)
        assert [call[1:] for call in decodes] == [(0, len(view))]
        assert report == checks[name](dict(view.items()))
        decodes.clear()


def test_view_refuses_a_non_rule():
    with pytest.raises(TypeError, match="DecodeRule"):
        VertexView(["a"], {"a": 0}, [True])
