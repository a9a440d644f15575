"""The memory-bounded streaming compile path (`runtime/compile.py`):
CSR equivalence against ``CompiledTopology``, int32 narrowing and its
overflow guards (exercised via the lowered ``int32_limit`` hook — no
2^31-edge graphs needed), the int64 opt-out's byte-identity, dtype
propagation through the grid composition, and ``CompileStats``
accounting."""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import Trial, run_many
from repro.congest.network import Network
from repro.congest.algorithms import ColumnarFloodValue
from repro.congest.runtime.compile import (
    GridTopology,
    INT32_LIMIT,
    StreamTopology,
    _decimal_repr_tables,
    compile_edge_stream,
    compile_topology,
)
import repro.graphs.streaming as streaming
from repro.graphs.streaming import (
    QUANTUM,
    _POWERLAW_TAG,
    _guide_lookup,
    _guide_table,
    _quantum_generator,
    _quantum_sizes,
    _stream_key,
    materialize_edges,
    stream_powerlaw_edges,
    stream_random_regular_edges,
    stream_rmat_edges,
)


def nx_equivalent(edges: np.ndarray, n: int) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(
        (int(u), int(v)) for u, v in edges if u != v
    )
    return graph


def stream_blocks(n=120, m=600, seed=9, block_edges=97):
    return list(
        stream_powerlaw_edges(n, m, seed=seed, block_edges=block_edges)
    )


def powerlaw_cdf(n: int, gamma: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (gamma - 1.0))
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


# ---------------------------------------------------------------------------
# The power-law stream is its definition: inverse CDF of Philox uniforms
# ---------------------------------------------------------------------------
LOOKUP_SIZES = [1, 2, 1023, 1024, 1025]
LOOKUP_GAMMAS = [1.05, 1.5, 2.5, 6.0]


@pytest.mark.parametrize("gamma", LOOKUP_GAMMAS)
@pytest.mark.parametrize("n", LOOKUP_SIZES)
def test_powerlaw_stream_is_searchsorted_of_its_uniforms(n, gamma):
    m, seed = QUANTUM + 77, 13  # one full quantum and a partial one
    edges = materialize_edges(
        stream_powerlaw_edges(n, m, gamma=gamma, seed=seed)
    )
    cdf = powerlaw_cdf(n, gamma)
    key = _stream_key(seed, [_POWERLAW_TAG, n, m, hash(float(gamma))])
    start = 0
    for quantum, count in _quantum_sizes(m):
        uniforms = _quantum_generator(key, quantum).random(2 * count)
        expected = np.searchsorted(cdf, uniforms, side="right")
        block = edges[start:start + count]
        assert np.array_equal(block[:, 0], expected[:count])
        assert np.array_equal(block[:, 1], expected[count:])
        start += count
    assert start == len(edges)


@pytest.mark.parametrize("gamma", LOOKUP_GAMMAS)
@pytest.mark.parametrize("n", LOOKUP_SIZES)
def test_guide_lookup_on_grid_points_and_ties(n, gamma):
    cdf = powerlaw_cdf(n, gamma)
    table = _guide_table(cdf)
    cells = len(table.guide) - 1
    assert cells >= n and cells & (cells - 1) == 0 and cells < 2 * n
    grid = np.arange(cells) / cells
    assert np.array_equal(
        table.guide,
        np.searchsorted(cdf, np.arange(cells + 1) / cells, side="right"),
    )
    uniforms = np.concatenate([
        grid,                                   # exactly on k / K
        np.nextafter(grid[1:], 0.0),            # just below k / K
        [np.nextafter(1.0, 0.0)],               # largest uniform
        cdf[cdf < 1.0],                         # exactly on CDF entries
    ])
    assert np.array_equal(
        _guide_lookup(cdf, table, uniforms),
        np.searchsorted(cdf, uniforms, side="right"),
    )


def test_wide_cell_fixup_runs_and_stays_exact(monkeypatch):
    # At n = 1025, gamma = 1.5 the light tail crowds up to 464 CDF
    # entries into one cell, more than a cell row stores.
    n, gamma, m, seed = 1025, 1.5, QUANTUM + 77, 13
    cdf = powerlaw_cdf(n, gamma)
    table = _guide_table(cdf)
    assert table.wide
    assert int(np.diff(table.guide).max()) == 464
    settled = []
    bisect = streaming._bisect

    def recording_bisect(cdf, lo, hi, uniforms):
        found = bisect(cdf, lo, hi, uniforms)
        settled.append(found - lo)
        return found

    monkeypatch.setattr(streaming, "_bisect", recording_bisect)
    edges = materialize_edges(
        stream_powerlaw_edges(n, m, gamma=gamma, seed=seed)
    )
    steps = np.concatenate(settled)
    # The fix-up saw uniforms past the stored entries, and some of them
    # settled beyond the row's three entries.
    assert len(steps) and int(steps.max()) > 0
    key = _stream_key(seed, [_POWERLAW_TAG, n, m, hash(float(gamma))])
    start = 0
    for quantum, count in _quantum_sizes(m):
        uniforms = _quantum_generator(key, quantum).random(2 * count)
        expected = np.searchsorted(cdf, uniforms, side="right")
        assert np.array_equal(edges[start:start + count].T.ravel(), expected)
        start += count


def test_narrow_tables_skip_the_fixup():
    # gamma = 2.5 at n = 10^6 holds at most three entries per cell.
    table = _guide_table(powerlaw_cdf(10**6, 2.5))
    assert not table.wide
    assert int(np.diff(table.guide).max()) == 3


# ---------------------------------------------------------------------------
# CSR equivalence with the object-path compiler
# ---------------------------------------------------------------------------
def test_stream_csr_matches_compiled_topology():
    blocks = stream_blocks()
    edges = materialize_edges(iter(blocks))
    topology = compile_edge_stream(iter(blocks), 120)
    reference = compile_topology(nx_equivalent(edges, 120))
    assert isinstance(topology, StreamTopology)
    assert topology.n == reference.n
    assert topology.m == reference.m
    assert np.array_equal(
        topology.indptr.astype(np.int64), reference.indptr
    )
    assert np.array_equal(
        topology.indices.astype(np.int64), reference.indices
    )
    # Object-plane tables coincide too (repr-rank row order).
    assert topology.neighbor_tuples == reference.neighbor_tuples
    assert topology.neighbor_sets == reference.neighbor_sets
    assert (
        topology.neighbor_index_tuples == reference.neighbor_index_tuples
    )


def test_stream_compile_block_size_invariant():
    coarse = compile_edge_stream(
        stream_powerlaw_edges(200, 1500, seed=4, block_edges=1 << 12), 200
    )
    fine = compile_edge_stream(
        stream_powerlaw_edges(200, 1500, seed=4, block_edges=37), 200
    )
    assert np.array_equal(coarse.indptr, fine.indptr)
    assert np.array_equal(coarse.indices, fine.indices)
    # blocks/peak_bytes legitimately vary with block size; the graph
    # -describing fields must not.
    for field in ("n", "m", "candidate_edges", "self_loops",
                  "duplicates", "index_dtype", "indptr_dtype"):
        assert getattr(coarse.stats, field) == getattr(fine.stats, field)


def test_stream_compile_chunking_invariant():
    # The row-chunk size is a memory knob, not semantics.
    blocks = stream_blocks()
    base = compile_edge_stream(iter(blocks), 120)
    for row_chunk in [7, 1, 10**9]:
        other = compile_edge_stream(iter(blocks), 120, row_chunk=row_chunk)
        assert np.array_equal(base.indices, other.indices)
        assert np.array_equal(base.indptr, other.indptr)
        assert base.stats.m == other.stats.m


def test_compile_stats_accounting():
    blocks = [
        np.array([[0, 1], [1, 2], [2, 2], [1, 0], [3, 3]]),
        np.array([[2, 1], [3, 0]]),
    ]
    topology = compile_edge_stream(iter(blocks), 4)
    stats = topology.stats
    assert stats.n == 4
    assert stats.candidate_edges == 7
    assert stats.self_loops == 2     # (2,2), (3,3)
    assert stats.m == 3              # {0,1}, {1,2}, {0,3}
    assert stats.duplicates == 2     # (1,0) and (2,1)
    assert stats.blocks == 2
    assert stats.index_dtype == "int32"
    assert stats.indptr_dtype == "int32"
    assert stats.peak_bytes > 0


def test_stream_compile_rejects_bad_blocks():
    with pytest.raises(ValueError, match="out of range"):
        compile_edge_stream([np.array([[0, 5]])], 3)
    with pytest.raises(ValueError, match="out of range"):
        compile_edge_stream([np.array([[-1, 0]])], 3)
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        compile_edge_stream([np.arange(6)], 3)
    with pytest.raises(ValueError, match="index_dtype"):
        compile_edge_stream([np.array([[0, 1]])], 2, index_dtype="int16")


def test_packed_keys_must_fit_64_bits():
    # 2^40 vertices need 40 rank bits; 2^30-row chunks 30 more.  The
    # guard fires before any n-sized table is allocated.
    with pytest.raises(ValueError, match="64 bits"):
        compile_edge_stream(iter([]), 2**40, row_chunk=2**30)


def test_empty_and_loop_only_streams():
    empty = compile_edge_stream(iter([]), 5)
    assert empty.m == 0 and len(empty.indices) == 0
    assert empty.indptr.tolist() == [0] * 6
    loops = compile_edge_stream([np.array([[2, 2], [4, 4]])], 5)
    assert loops.m == 0 and loops.stats.self_loops == 2


@st.composite
def edge_streams(draw):
    """``(n, blocks)``: hand-drawn blocks (empty blocks, self-loops and
    duplicates inside and across blocks) or a small R-MAT, random-regular
    or power-law stream cut into drawn block sizes."""
    family = draw(st.sampled_from(["blocks", "rmat", "regular", "powerlaw"]))
    seed = draw(st.integers(0, 2**16))
    block_edges = draw(st.integers(1, 64))
    if family == "blocks":
        n = draw(st.integers(1, 12))
        vertex = st.integers(0, n - 1)
        pair = st.tuples(vertex, vertex)
        blocks = [
            np.array(rows, dtype=np.int64).reshape(-1, 2)
            for rows in draw(st.lists(st.lists(pair, max_size=8),
                                      max_size=5))
        ]
        if blocks and len(blocks[0]) and draw(st.booleans()):
            blocks.append(blocks[0][::-1, ::-1].copy())  # cross-block repeats
        return n, blocks
    if family == "rmat":
        scale = draw(st.integers(0, 5))
        m = draw(st.integers(0, 120))
        return 1 << scale, list(stream_rmat_edges(
            scale, m, seed=seed, block_edges=block_edges))
    if family == "regular":
        n = draw(st.integers(2, 40))
        degree = draw(st.integers(0, n - 1).filter(lambda d: n * d % 2 == 0))
        return n, list(stream_random_regular_edges(
            n, degree, seed=seed, block_edges=block_edges))
    n = draw(st.integers(1, 60))
    m = draw(st.integers(0, 200))
    gamma = draw(st.sampled_from(LOOKUP_GAMMAS))
    return n, list(stream_powerlaw_edges(
        n, m, gamma=gamma, seed=seed, block_edges=block_edges))


@settings(max_examples=80, deadline=None)
@given(stream=edge_streams(), data=st.data())
def test_stream_compile_matches_networkx_compile(stream, data):
    n, blocks = stream
    row_chunk = data.draw(st.sampled_from([1, 7, n, 10**9]), label="row_chunk")
    index_dtype = data.draw(st.sampled_from(["auto", "int64"]),
                            label="index_dtype")
    topology = compile_edge_stream(
        iter(blocks), n, row_chunk=row_chunk, index_dtype=index_dtype
    )
    edges = materialize_edges(iter(blocks))
    reference = compile_topology(nx_equivalent(edges, n))
    dtype = np.int64 if index_dtype == "int64" else np.int32
    assert topology.indptr.dtype == dtype and topology.indices.dtype == dtype
    assert topology.indptr.tobytes() == (
        reference.indptr.astype(dtype).tobytes()
    )
    assert topology.indices.tobytes() == (
        reference.indices.astype(dtype).tobytes()
    )
    loops = int(np.count_nonzero(edges[:, 0] == edges[:, 1]))
    stats = topology.stats
    assert (stats.n, stats.m, stats.candidate_edges, stats.self_loops,
            stats.duplicates, stats.blocks) == (
        n, reference.m, len(edges), loops,
        len(edges) - loops - reference.m, len(blocks),
    )
    assert stats.index_dtype == stats.indptr_dtype == np.dtype(dtype).name
    assert stats.peak_bytes > 0


def test_golden_powerlaw_compile():
    # Recorded on the residue-bucket compiler this one replaced.
    topology = compile_edge_stream(
        stream_powerlaw_edges(50_000, 200_000, seed=21), 50_000
    )
    assert hashlib.sha256(topology.indptr.tobytes()).hexdigest() == (
        "93a09e5d6b02a86372249131c54ae10710ba66eb56ba074102d3bfc352d3a1d5"
    )
    assert hashlib.sha256(topology.indices.tobytes()).hexdigest() == (
        "186be453fcb8250f7a249d64c47bea8822d349f89778453f1d11282b1dcd1b1b"
    )
    stats = topology.stats
    assert (stats.n, stats.m, stats.candidate_edges, stats.self_loops,
            stats.duplicates, stats.blocks, stats.index_dtype,
            stats.indptr_dtype) == (
        50_000, 198_190, 200_000, 59, 1_751, 2, "int32", "int32",
    )


# ---------------------------------------------------------------------------
# Dtype boundary: the lowered-threshold hook simulates ~2^31 overflow
# ---------------------------------------------------------------------------
def test_auto_narrowing_respects_limit_hook():
    blocks = stream_blocks()
    narrow = compile_edge_stream(iter(blocks), 120)
    assert narrow.index_dtype == np.int32
    assert narrow.indptr.dtype == np.int32
    directed = 2 * narrow.m
    # Exactly at the boundary (limit == directed edge count): still fits.
    at_edge = compile_edge_stream(iter(blocks), 120, int32_limit=directed)
    assert at_edge.index_dtype == np.int32
    # One below: indptr[-1] would overflow the simulated int32 — widen.
    over = compile_edge_stream(
        iter(blocks), 120, int32_limit=directed - 1
    )
    assert over.index_dtype == np.int64
    assert over.indptr.dtype == np.int64
    assert np.array_equal(
        narrow.indices.astype(np.int64), over.indices
    )


def test_explicit_int32_overflow_raises_cleanly():
    blocks = stream_blocks()
    with pytest.raises(OverflowError, match="int32 CSR cannot hold"):
        compile_edge_stream(
            iter(blocks), 120, index_dtype="int32", int32_limit=10
        )
    # n alone exceeding the limit trips the same guard.
    with pytest.raises(OverflowError, match="index_dtype='int64'"):
        compile_edge_stream(
            [np.empty((0, 2), dtype=np.int64)], 120,
            index_dtype="int32", int32_limit=100,
        )


def test_int64_opt_out_is_byte_identical():
    blocks = stream_blocks()
    narrow = compile_edge_stream(iter(blocks), 120)
    wide = compile_edge_stream(iter(blocks), 120, index_dtype="int64")
    assert wide.index_dtype == np.int64
    assert wide.indices.tobytes() == (
        wide.indices.astype(np.int64).tobytes()
    )
    assert np.array_equal(narrow.indices.astype(np.int64), wide.indices)
    assert np.array_equal(narrow.indptr.astype(np.int64), wide.indptr)
    # And the opt-out matches the object-path compiler byte for byte.
    reference = compile_topology(
        nx_equivalent(materialize_edges(iter(blocks)), 120)
    )
    assert wide.indices.tobytes() == reference.indices.tobytes()
    assert wide.indptr.tobytes() == reference.indptr.tobytes()


def test_int32_limit_respects_default():
    topology = compile_edge_stream([np.array([[0, 1]])], 2)
    assert topology.index_dtype == np.int32
    assert INT32_LIMIT == 2**31 - 1


# ---------------------------------------------------------------------------
# Numeric repr rank
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101, 2047])
def test_decimal_repr_rank_matches_string_sort(n):
    rank, by_rank = _decimal_repr_tables(n)
    assert by_rank.tolist() == sorted(range(n), key=repr)
    assert np.array_equal(rank[by_rank], np.arange(n))


# ---------------------------------------------------------------------------
# Runtime integration: Network / run_many / grid accept StreamTopology
# ---------------------------------------------------------------------------
def test_compile_topology_passthrough():
    topology = compile_edge_stream(stream_blocks(), 120)
    assert compile_topology(topology) is topology
    grid_block = compile_topology(nx.path_graph(3))
    assert compile_topology(grid_block) is grid_block


def test_network_runs_streamed_topology():
    blocks = stream_blocks(n=60, m=300, seed=2)
    edges = materialize_edges(iter(blocks))
    topology = compile_edge_stream(iter(blocks), 60)
    graph = nx_equivalent(edges, 60)
    net = Network(topology)
    outputs = net.run(ColumnarFloodValue(0, 41, 80), max_rounds=90)
    reference_net = Network(graph)
    expected = reference_net._run_reference(
        ColumnarFloodValue(0, 41, 80), max_rounds=90
    )
    assert outputs == expected
    assert net.metrics.messages == reference_net.metrics.messages


def test_grid_of_narrowed_blocks_stays_narrow():
    blocks = [
        compile_edge_stream(stream_blocks(n=40, m=160, seed=s), 40)
        for s in (1, 2)
    ]
    grid = GridTopology(blocks)
    assert grid.index_dtype == np.int32
    assert grid.indices.dtype == np.int32
    assert grid.indptr.dtype == np.int32
    assert int(grid.indptr[-1]) == sum(2 * b.m for b in blocks)
    # Mixing in one int64 block widens the whole grid.
    widened = GridTopology([blocks[0], compile_topology(nx.path_graph(4))])
    assert widened.index_dtype == np.int64
    assert widened.indices.dtype == np.int64


def test_run_many_grid_on_streamed_trials():
    blocks = stream_blocks(n=50, m=260, seed=6)
    edges = materialize_edges(iter(blocks))
    topology = compile_edge_stream(iter(blocks), 50)
    graph = nx_equivalent(edges, 50)
    trials = [Trial(topology, max_rounds=60) for _ in range(3)]
    batched = run_many(
        ColumnarFloodValue(0, 23, 55), trials, processes=1, plane="grid"
    )
    reference_net = Network(graph)
    expected = reference_net._run_reference(
        ColumnarFloodValue(0, 23, 55), max_rounds=60
    )
    for outputs, metrics in batched:
        assert outputs == expected
        assert metrics.messages == reference_net.metrics.messages
        assert metrics.total_bits == reference_net.metrics.total_bits


def test_near_regular_stream_degree_bound():
    topology = compile_edge_stream(
        stream_random_regular_edges(400, 4, seed=8), 400
    )
    degrees = topology.degrees
    # Pairing model: degree 4 minus dropped loops/duplicates.
    assert int(degrees.max()) <= 4
    assert int(degrees.sum()) == 2 * topology.m
