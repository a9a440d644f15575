"""The columnar message plane: schema, reductions, executors, and ports.

Three layers of coverage:

* unit — ``ColumnarSpec`` typing/overflow rejection, the vectorized
  bit-sizing vs the scalar ``bits_for_payload`` oracle, segmented
  reductions (empty segments, ``where`` masks, argmin ties), per-vertex
  inbox views;
* differential — the fast array executor vs the per-message reference
  executor (``Network._run_reference`` on a ``ColumnarAlgorithm``), and
  the ported classics vs their object-plane originals: identical outputs
  (values *and* vertex order) and identical ``NetworkMetrics``;
* contract — validation errors (non-neighbour sends, bandwidth
  violations) match the object plane's types and texts, including the
  partially-counted round an exception leaves behind.
"""

from __future__ import annotations

import dataclasses
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import (
    BandwidthExceededError,
    ColumnarAlgorithm,
    ColumnarSpec,
    Network,
    Trial,
    VarColumn,
    bits_for_payload,
    run_many,
)
from repro.congest.algorithms import (
    BFSTreeAlgorithm,
    BroadcastAlgorithm,
    ColumnarBFSTree,
    ColumnarConvergecastSum,
    ColumnarFloodValue,
    ConvergecastSumAlgorithm,
    bfs_tree,
)
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarTrialColoring,
    LubyMISAlgorithm,
    TrialColoringAlgorithm,
    delta_plus_one_coloring,
    luby_mis,
)
from repro.congest.cluster_sim import (
    _cluster_bfs_inputs,
    distributed_boundary_tables,
)
from repro.congest import columnar
from repro.congest.columnar import ColumnarInbox
from repro.congest.message import bit_length_array, bits_for_int_array
from repro.congest.metrics import NetworkMetrics, ScalarAccountant
from repro.congest.runtime.batch import GridAccountant
from repro.congest.runtime.compile import (
    GridTopology,
    _assemble_sorted,
    _receiver_order,
    compile_edge_stream,
    compile_topology,
)
from repro.congest.runtime.faults import FaultPlan, FaultState
from repro.graphs import triangulated_grid


# ---------------------------------------------------------------------------
# Spec + bit sizing
# ---------------------------------------------------------------------------
class TestColumnarSpec:
    def test_rejects_non_integer_dtypes(self):
        with pytest.raises(TypeError, match="fixed-width integer"):
            ColumnarSpec(("x", np.float64))
        with pytest.raises(TypeError, match="fixed-width integer"):
            ColumnarSpec(("x", object))

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            ColumnarSpec(("x", np.uint8), ("x", np.uint16))
        with pytest.raises(ValueError, match="at least one"):
            ColumnarSpec()

    def test_overflow_rejection_names_field_and_value(self):
        spec = ColumnarSpec(("level", np.uint16))
        with pytest.raises(ValueError, match="'level'.*70000.*uint16"):
            spec.check_range("level", np.array([1, 70000]))
        with pytest.raises(ValueError, match="-1"):
            spec.check_range("level", np.array([-1, 5]))
        spec.check_range("level", np.array([0, 65535]))  # in range: fine

    # 2**k − 1, 2**k and 2**k + 1 for every k ≤ 63 that fits int64
    # (int64 max included): the float64 conversion is inexact from
    # 2**53 up, so this is where a rounding slip in the bit sizing
    # would show.
    POWER_EDGES = sorted({
        v for k in range(64) for v in (2**k - 1, 2**k, 2**k + 1) if v < 2**63
    })

    def test_bit_length_matches_python(self):
        values = list(range(70)) + self.POWER_EDGES
        got = bit_length_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in values]

    def test_bits_for_int_array_matches_oracle(self):
        values = [7, -7, 255, -256] + [
            sign * v for v in self.POWER_EDGES for sign in (1, -1)
        ] + [-(2**63)]  # int64 min
        got = bits_for_int_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_for_payload(v) for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=40))
    def test_bit_length_array_matches_int_bit_length(self, values):
        got = bit_length_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
    def test_bits_for_int_array_matches_payload_sizes(self, values):
        got = bits_for_int_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_for_payload(v) for v in values]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bit_sizing_of_narrow_dtypes(self, data):
        dtype = data.draw(st.sampled_from(
            [np.uint8, np.uint32, np.int32, np.int64, np.bool_]), label="dtype")
        if dtype is np.bool_:
            element = st.booleans()
        else:
            info = np.iinfo(dtype)
            element = st.integers(int(info.min), int(info.max))
        values = np.array(data.draw(st.lists(element, max_size=20),
                                    label="values"), dtype=dtype)
        ints = [int(v) for v in values]
        got = bits_for_int_array(values)
        assert got.dtype == np.int64
        assert got.tolist() == [bits_for_payload(v) for v in ints]
        if dtype is np.bool_ or np.iinfo(dtype).min == 0:
            assert bit_length_array(values).tolist() == [
                v.bit_length() for v in ints
            ]

    def test_bit_length_array_rejects_negatives(self):
        with pytest.raises(ValueError, match="non-negative"):
            bit_length_array(np.array([3, -1]))

    def test_bits_of_matches_payload_oracle(self):
        rng = random.Random(7)
        single = ColumnarSpec(("v", np.int64))
        pair = ColumnarSpec(("kind", np.uint8), ("value", np.int32))
        vs = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(200)]
        got = single.bits_of({"v": np.array(vs, dtype=np.int64)})
        assert got.tolist() == [bits_for_payload(v) for v in vs]
        kinds = [rng.randrange(4) for _ in range(200)]
        colors = [rng.randrange(-50, 50) for _ in range(200)]
        got = pair.bits_of({
            "kind": np.array(kinds, dtype=np.int64),
            "value": np.array(colors, dtype=np.int64),
        })
        assert got.tolist() == [
            bits_for_payload((k, c)) for k, c in zip(kinds, colors)
        ]


class TestVarColumnSpec:
    def test_layout_interleaves_fixed_and_var(self):
        spec = ColumnarSpec(("a", np.uint8), VarColumn("t"),
                            ("b", np.int32))
        assert spec.names == ("a", "b")
        assert spec.var_names == ("t",)
        assert spec.layout == (
            ("fixed", "a"), ("var", "t"), ("fixed", "b"),
        )
        assert "t:var" in repr(spec)

    def test_duplicate_var_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ColumnarSpec(("x", np.uint8), VarColumn("x"))
        with pytest.raises(ValueError, match="duplicate"):
            ColumnarSpec(VarColumn("x"), VarColumn("x"))

    def test_payload_of_nests_var_tuples(self):
        spec = ColumnarSpec(("kind", np.uint8), VarColumn("ids"))
        assert spec.payload_of((3,), {"ids": (1, 2)}) == (3, (1, 2))
        solo = ColumnarSpec(VarColumn("ids"))
        assert solo.payload_of((), {"ids": (4, 5, 6)}) == (4, 5, 6)
        assert solo.payload_of((), {"ids": ()}) == ()

    def test_var_bits_match_payload_oracle(self):
        rng = random.Random(3)
        solo = ColumnarSpec(VarColumn("ids"))
        mixed = ColumnarSpec(("kind", np.uint8), VarColumn("ids"))
        sequences = [
            tuple(rng.randrange(-(1 << 30), 1 << 30)
                  for _ in range(rng.randrange(6)))
            for _ in range(60)
        ]
        lengths = np.array([len(s) for s in sequences], dtype=np.int64)
        pool = np.array(
            [v for s in sequences for v in s], dtype=np.int64
        )
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        got = solo.bits_of({}, {"ids": (pool, indptr)})
        # A lone empty sequence is the 1-bit Message minimum.
        assert got.tolist() == [
            bits_for_payload(s) or 1 for s in sequences
        ]
        kinds = np.array([rng.randrange(4) for _ in sequences],
                         dtype=np.int64)
        got = mixed.bits_of({"kind": kinds}, {"ids": (pool, indptr)})
        assert got.tolist() == [
            bits_for_payload((int(k), s))
            for k, s in zip(kinds, sequences)
        ]

    def test_bits_of_requires_var_data(self):
        spec = ColumnarSpec(VarColumn("ids"))
        with pytest.raises(ValueError, match="var_data"):
            spec.bits_of({})


class VarRelay(ColumnarAlgorithm):
    """Round 1: vertex 0 broadcasts a ragged payload per the test's
    wishes; round 2: everyone reads it back and halts."""

    spec = ColumnarSpec(("tag", np.uint8), VarColumn("vals"))

    def __init__(self, emit):
        self.emit = emit

    def spawn(self):
        return type(self)(self.emit)

    def setup(self, ctx):
        self.seen = [None] * ctx.n

    def on_round(self, ctx):
        stepped = ~ctx.halted
        if ctx.round_number == 1:
            self.emit(ctx)
            return
        pool, vertex_indptr = ctx.gather_var("vals")
        for i in range(ctx.n):
            start, stop = int(vertex_indptr[i]), int(vertex_indptr[i + 1])
            self.seen[i] = (
                ctx.inbox.column("tag")[
                    ctx.inbox.indptr[i]:ctx.inbox.indptr[i + 1]
                ].tolist(),
                pool[start:stop].tolist(),
            )
        ctx.halt(stepped)

    def outputs(self, ctx):
        return columnar.ListedValues(self.seen)


class TestVarEmission:
    def graph(self):
        return nx.path_graph(4)

    @pytest.mark.parametrize("reference", [False, True])
    def test_broadcast_fans_ragged_segments(self, reference):
        def emit(ctx):
            ctx.emit_var(
                np.array([0, 2]), tag=np.array([2, 1]),
                vals=(np.array([5, -3, 0], dtype=np.int64),
                      np.array([3, 0], dtype=np.int64)),
            )

        net = Network(self.graph())
        runner = net._run_reference if reference else net.run
        outputs = runner(VarRelay(emit))
        assert outputs[1] == ([2, 1], [5, -3, 0])
        assert outputs[3] == ([1], [])
        # bits: (2, (5,-3,0)) once to vertex 1; (1, ()) to vertices 1, 3
        expected_bits = (
            bits_for_payload((2, (5, -3, 0)))
            + 2 * bits_for_payload((1, ()))
        )
        assert net.metrics.messages == 3
        assert net.metrics.total_bits == expected_bits

    @pytest.mark.parametrize("reference", [False, True])
    def test_unicast_list_of_sequences_form(self, reference):
        def emit(ctx):
            ctx.emit_var(
                np.array([1, 1]), np.array([0, 2]),
                tag=np.array([7, 7]), vals=[[9, 9, 9], []],
            )

        net = Network(self.graph())
        runner = net._run_reference if reference else net.run
        outputs = runner(VarRelay(emit))
        assert outputs[0] == ([7], [9, 9, 9])
        assert outputs[2] == ([7], [])

    def test_tuple_of_sequences_is_per_row_not_pool(self):
        # A 2-tuple of plain sequences is two per-row sequences — even
        # when the lengths would coincidentally balance as a
        # (pool, lengths) pair; only a pair of numpy arrays selects the
        # pool fast path.
        def emit(ctx):
            ctx.emit_var(np.array([1, 1]), np.array([0, 2]),
                         tag=np.array([7, 7]), vals=([0, 5], [2, 0]))

        net = Network(self.graph())
        outputs = net.run(VarRelay(emit))
        assert outputs[0] == ([7], [0, 5])
        assert outputs[2] == ([7], [2, 0])

    def test_emit_columns_refuses_var_specs(self):
        def emit(ctx):
            ctx.emit_columns(np.array([0]), tag=1, vals=[[1]])

        with pytest.raises(ValueError, match="emit_var"):
            Network(self.graph()).run(VarRelay(emit))

    def test_length_pool_mismatch_rejected(self):
        def emit(ctx):
            ctx.emit_var(
                np.array([0]), tag=1,
                vals=(np.array([1, 2], dtype=np.int64),
                      np.array([3], dtype=np.int64)),
            )

        with pytest.raises(ValueError, match="lengths sum"):
            Network(self.graph()).run(VarRelay(emit))

    def test_float_pool_rejected(self):
        def emit(ctx):
            ctx.emit_var(
                np.array([0]), tag=1,
                vals=(np.array([1.5]), np.array([1], dtype=np.int64)),
            )

        with pytest.raises(TypeError, match="integers or bools"):
            Network(self.graph()).run(VarRelay(emit))

    def test_gather_var_where_mask(self):
        collected = {}

        class Masked(VarRelay):
            def on_round(self, ctx):
                stepped = ~ctx.halted
                if ctx.round_number == 1:
                    ctx.emit_var(
                        np.array([0, 2]), tag=np.array([0, 1]),
                        vals=[[4, 4], [6]],
                    )
                    return
                mask = ctx.inbox.column("tag") == 1
                pool, vindptr = ctx.gather_var("vals", where=mask)
                collected["pool"] = pool.tolist()
                collected["indptr"] = vindptr.tolist()
                ctx.halt(stepped)

        Network(self.graph()).run(Masked(lambda ctx: None))
        # Vertex 1 hears both broadcasts but only sender 2's tagged one
        # survives the mask; vertex 3 hears sender 2 only.
        assert collected["pool"] == [6, 6]
        assert collected["indptr"] == [0, 0, 1, 1, 2]
def make_inbox():
    """4 vertices; vertex 0: values (5, 3), vertex 1: empty,
    vertex 2: (3, 3, 9), vertex 3: (7,)."""
    spec = ColumnarSpec(("value", np.int32))
    return ColumnarInbox(
        4,
        np.array([10, 11, 12, 13, 14, 15], dtype=np.int64),
        np.array([0, 2, 2, 5, 6], dtype=np.int64),
        {"value": np.array([5, 3, 3, 3, 9, 7], dtype=np.int32)},
    )


REDUCTION_OPS = ("min", "max", "sum", "argmin", "argmax", "any", "count")
REDUCTION_DTYPES = (np.uint8, np.uint32, np.int64, np.bool_)
_INT64 = np.iinfo(np.int64)


def _loop_reduce(op, values, segment, where, empty):
    """One vertex's reduction over the message indices ``segment``, in
    plain Python — the specification :meth:`ColumnarInbox.reduce`
    vectorizes."""
    picked = [k for k in segment if where is None or where[k]]
    if op == "count":
        return len(picked)
    if op == "any":
        if not picked:
            return False if empty is None else bool(empty)
        return any(bool(values[k]) for k in picked)
    if not picked:
        defaults = {"sum": 0, "min": np.iinfo(np.int64).max,
                    "max": np.iinfo(np.int64).min, "argmin": -1,
                    "argmax": -1}
        return defaults[op] if empty is None else empty
    numbers = [int(values[k]) for k in picked]
    if op == "sum":
        return sum(numbers)
    extreme = min(numbers) if op in ("min", "argmin") else max(numbers)
    if op in ("min", "max"):
        return extreme
    return picked[numbers.index(extreme)]  # ties: the earliest message


class TestReductions:
    def test_min_max_sum_count_with_empty_segments(self):
        inbox = make_inbox()
        assert inbox.reduce("sum", "value").tolist() == [8, 0, 15, 7]
        assert inbox.reduce("count").tolist() == [2, 0, 3, 1]
        assert inbox.reduce("min", "value", empty=-1).tolist() == [3, -1, 3, 7]
        assert inbox.reduce("max", "value", empty=-1).tolist() == [5, -1, 9, 7]

    def test_sum_overflow_fails_closed(self):
        def sum_of(values):
            inbox = ColumnarInbox(
                1, np.arange(len(values), dtype=np.int64),
                np.array([0, len(values)], dtype=np.int64),
                {"value": np.array(values, dtype=np.int64)},
            )
            return inbox.reduce("sum", "value").tolist()

        with pytest.raises(OverflowError):
            sum_of([0, 1, 2**63 - 1])
        with pytest.raises(OverflowError):
            sum_of([-2**63, -1])
        # Only the exact sum counts: wrapping partial sums are fine.
        assert sum_of([2**63 - 1, 1, -1]) == [2**63 - 1]
        assert sum_of([2**62, 2**62, -1]) == [2**63 - 1]

    @pytest.mark.parametrize("values", [[1, 2**63], [2**63, 1]])
    def test_uint64_above_int64_max(self, values):
        # One segment of a uint64 column: the arg-reductions compare the
        # values unpromoted, and the int64 reductions fail closed.
        inbox = ColumnarInbox(
            1, np.arange(2, dtype=np.int64), np.array([0, 2], dtype=np.int64),
            {"value": np.array(values, dtype=np.uint64)},
        )
        small, big = values.index(1), values.index(2**63)
        assert inbox.reduce("argmin", "value").tolist() == [small]
        assert inbox.reduce("argmax", "value").tolist() == [big]
        for op in ("sum", "min", "max"):
            with pytest.raises(OverflowError):
                inbox.reduce(op, "value")
        assert inbox.reduce("any", "value").tolist() == [True]
        assert inbox.reduce("count").tolist() == [2]
        # A masked-out value is not read; the selected one fits int64.
        keep = np.array(values) == 1
        for op in ("sum", "min", "max"):
            assert inbox.reduce(op, "value", where=keep).tolist() == [1]
        assert inbox.reduce("argmax", "value", where=keep).tolist() == [small]

    def test_any(self):
        inbox = make_inbox()
        got = inbox.reduce("any", inbox.column("value") == 3)
        assert got.tolist() == [True, False, True, False]

    def test_argmin_breaks_ties_toward_first_message(self):
        inbox = make_inbox()
        arg = inbox.reduce("argmin", "value")
        assert arg.tolist() == [1, -1, 2, 5]  # vertex 2: first of the two 3s
        senders = inbox.senders
        assert senders[arg[0]] == 11 and senders[arg[2]] == 12

    def test_where_mask_filters_and_maps_back(self):
        inbox = make_inbox()
        mask = inbox.column("value") != 3
        assert inbox.reduce("sum", "value", where=mask).tolist() == [5, 0, 9, 7]
        assert inbox.reduce("count", where=mask).tolist() == [1, 0, 1, 1]
        arg = inbox.reduce("argmin", "value", where=mask)
        # Indices refer to the *unfiltered* inbox.
        assert arg.tolist() == [0, -1, 4, 5]

    @pytest.mark.parametrize("op", REDUCTION_OPS)
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_where_of_the_wrong_length_raises(self, op, length):
        # Three messages; masks of length 1, M - 1 and M + 1, all True,
        # so the all-True shortcut cannot take them for "no mask".
        inbox = ColumnarInbox(
            2, np.array([10, 11, 12], dtype=np.int64),
            np.array([0, 2, 3], dtype=np.int64),
            {"value": np.array([5, 3, 9], dtype=np.int32)},
        )
        where = np.ones(length, dtype=bool)
        with pytest.raises(ValueError, match="one flag per message"):
            inbox.reduce(op, "value", where=where)

    def test_empty_inbox_defaults(self):
        spec = ColumnarSpec(("value", np.int32))
        inbox = ColumnarInbox.empty(3, spec)
        assert inbox.reduce("sum", "value").tolist() == [0, 0, 0]
        assert inbox.reduce("argmax", "value").tolist() == [-1, -1, -1]
        assert inbox.reduce("any", inbox.column("value") > 0).tolist() == [
            False, False, False,
        ]

    def test_for_vertex_views(self):
        inbox = make_inbox()
        view = inbox.for_vertex(2)
        assert view["senders"].tolist() == [12, 13, 14]
        assert view["value"].tolist() == [3, 3, 9]
        assert inbox.for_vertex(1)["senders"].size == 0
        # Zero-copy: the view aliases the global columns.
        assert view["value"].base is inbox.column("value")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_op_matches_a_per_vertex_loop(self, data):
        """Every reduction, with and without a mask and with the default
        or a custom ``empty``, equals a per-vertex Python loop — over
        empty and all-masked segments, ties, and each value dtype the
        plane's columns use.  No reduction expands ``receivers()``."""
        op = data.draw(st.sampled_from(REDUCTION_OPS), label="op")
        dtype = data.draw(st.sampled_from(REDUCTION_DTYPES), label="dtype")
        counts = data.draw(
            st.lists(st.integers(0, 4), min_size=1, max_size=7),
            label="counts",
        )
        size = sum(counts)
        # A narrow value range forces ties inside segments.
        if dtype == np.bool_:
            elements = st.booleans()
        else:
            info = np.iinfo(dtype)
            elements = st.one_of(
                st.integers(0, 2), st.integers(int(info.min), int(info.max))
            )
        values = np.array(
            data.draw(st.lists(elements, min_size=size, max_size=size),
                      label="values"),
            dtype=dtype,
        )
        where = data.draw(
            st.none() | st.lists(st.booleans(), min_size=size,
                                 max_size=size).map(
                lambda mask: np.array(mask, dtype=bool)
            ),
            label="where",
        )
        empty = data.draw(
            st.none() | (st.booleans() if op == "any"
                         else st.integers(-2, 2)),
            label="empty",
        )
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        inbox = ColumnarInbox(
            len(counts), np.arange(size, dtype=np.int64), indptr,
            {"value": values},
        )
        expected = [
            _loop_reduce(op, values, range(indptr[i], indptr[i + 1]),
                         where, empty)
            for i in range(len(counts))
        ]
        field = None if op == "count" else "value"
        if op == "sum" and not all(
            _INT64.min <= total <= _INT64.max for total in expected
        ):
            # An exact sum outside int64 fails closed, never wraps.
            with pytest.raises(OverflowError):
                inbox.reduce(op, field, where=where, empty=empty)
            return
        got = inbox.reduce(op, field, where=where, empty=empty)
        assert got.tolist() == expected
        assert got.dtype == (np.bool_ if op == "any" else np.int64)
        assert inbox._receivers is None

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_masked_gather_var_matches_a_per_vertex_loop(self, data):
        """A masked ``gather_var`` concatenates each vertex's selected
        sequences in message order, without expanding ``receivers()``."""
        counts = data.draw(
            st.lists(st.integers(0, 3), min_size=1, max_size=6),
            label="counts",
        )
        size = sum(counts)
        lengths = data.draw(
            st.lists(st.integers(0, 3), min_size=size, max_size=size),
            label="lengths",
        )
        where = np.array(data.draw(
            st.lists(st.booleans(), min_size=size, max_size=size),
            label="where",
        ), dtype=bool)
        var_indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        pool = np.arange(int(var_indptr[-1]), dtype=np.int64) * 3
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        inbox = ColumnarInbox(
            len(counts), np.arange(size, dtype=np.int64), indptr, {},
            {"ids": pool}, {"ids": var_indptr},
        )
        got_pool, got_indptr = inbox.gather_var("ids", where=where)
        expected_pool, expected_indptr = [], [0]
        for i in range(len(counts)):
            for k in range(indptr[i], indptr[i + 1]):
                if where[k]:
                    start, stop = var_indptr[k], var_indptr[k + 1]
                    expected_pool += pool[start:stop].tolist()
            expected_indptr.append(len(expected_pool))
        assert got_pool.tolist() == expected_pool
        assert got_indptr.tolist() == expected_indptr
        assert inbox._receivers is None


# ---------------------------------------------------------------------------
# Executor contract: validation errors + partial-round accounting
# ---------------------------------------------------------------------------
class BadSendAlgorithm(ColumnarAlgorithm):
    """Round 1: a legal unicast, then an illegal one (non-neighbour)."""

    spec = ColumnarSpec(("value", np.uint16))

    def on_round(self, ctx):
        ctx.emit_columns(
            np.array([0, 0]), np.array([1, 3]), value=np.array([9, 9])
        )
        ctx.halt(~ctx.halted)


class BigMessageAlgorithm(ColumnarAlgorithm):
    """Broadcasts a 126-bit payload — over the 64-bit CONGEST budget of a
    4-vertex network, legal in LOCAL."""

    spec = ColumnarSpec(("high", np.int64), ("low", np.int64))

    def on_round(self, ctx):
        ctx.emit_columns(np.array([0]), high=1 << 60, low=1 << 60)
        ctx.halt(~ctx.halted)


class TestExecutorContract:
    def graph(self):
        return nx.path_graph(4)  # 0-1-2-3: 0 and 3 are not adjacent

    @pytest.mark.parametrize("reference", [False, True])
    def test_non_neighbor_send_matches_object_plane_error(self, reference):
        net = Network(self.graph())
        runner = net._run_reference if reference else net.run
        with pytest.raises(ValueError, match=r"node 0 sent to non-neighbor 3"):
            runner(BadSendAlgorithm())
        # The legal message validated before the offending one is counted,
        # exactly like the object plane's partial round.
        assert net.metrics.messages == 1
        assert net.metrics.total_bits == 4  # bits_for_payload(9)

    @pytest.mark.parametrize("reference", [False, True])
    def test_bandwidth_violation_matches_object_plane_error(self, reference):
        net = Network(self.graph(), model="congest")
        runner = net._run_reference if reference else net.run
        with pytest.raises(BandwidthExceededError, match="exceeds CONGEST"):
            runner(BigMessageAlgorithm())
        assert net.metrics.messages == 0
        net = Network(self.graph(), model="local")
        runner = net._run_reference if reference else net.run
        runner(BigMessageAlgorithm())  # LOCAL: unbounded, no raise
        assert net.metrics.messages == 1

    def test_overflow_rejected_at_emit_time(self):
        class Overflower(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                ctx.emit_columns(np.array([0]), value=300)

        with pytest.raises(ValueError, match="'value'.*300.*uint8"):
            Network(self.graph()).run(Overflower())

    def test_emission_field_mismatch_rejected(self):
        class WrongFields(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                ctx.emit_columns(np.array([0]), other=1)

        with pytest.raises(ValueError, match="do not match spec"):
            Network(self.graph()).run(WrongFields())

    def test_float_field_values_rejected(self):
        class Floaty(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                ctx.emit_columns(np.array([0]), value=np.array([1.5]))

        with pytest.raises(TypeError, match="integers or bools"):
            Network(self.graph()).run(Floaty())

    def test_max_rounds_exhaustion(self):
        class NeverHalts(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                pass

        with pytest.raises(RuntimeError, match="did not halt within 5"):
            Network(self.graph()).run(NeverHalts(), max_rounds=5)

    def test_spec_required(self):
        class SpecLess(ColumnarAlgorithm):
            def on_round(self, ctx):
                ctx.halt(~ctx.halted)

        with pytest.raises(TypeError, match="ColumnarSpec"):
            Network(self.graph()).run(SpecLess())


# ---------------------------------------------------------------------------
# Inbox assembly: the pulled path against the receiver sort
# ---------------------------------------------------------------------------
def _networkx_topology():
    # 40 integer labels: CSR rows are in repr order ("10" < "2"), not
    # index order, so the pull path must read its index-sorted table.
    return compile_topology(nx.random_regular_graph(5, 40, seed=4))


def _stream_topology():
    graph = nx.gnm_random_graph(60, 200, seed=8)
    topology = compile_edge_stream([np.array(graph.edges)], 60)
    assert topology.indices.dtype == np.int32
    return topology


def _grid_topology():
    return GridTopology([
        compile_topology(nx.random_regular_graph(4, 30, seed=1)),
        compile_topology(triangulated_grid(4, 6)),
    ])


def _isolated_topology():
    # The last vertex has no neighbours and, with the fields the test
    # derives from sender ids (depth = 37·v mod 1024), the widest
    # message of the "zero-degree-widest" case: counting any copy of it
    # would move the peak.
    graph = nx.random_regular_graph(4, 27, seed=2)
    graph.add_node(27)
    return compile_topology(graph)


def _wide_topology():
    # More than 2·1024 vertices: the senders 0, 1024 and 2048 share their
    # depth (37·v mod 1024) and flag (v mod 2) fields.
    return compile_topology(nx.random_regular_graph(3, 2100, seed=6))


ASSEMBLY_TOPOLOGIES = {
    "networkx": _networkx_topology,
    "stream-int32": _stream_topology,
    "grid": _grid_topology,
    "isolated": _isolated_topology,
    "wide": _wide_topology,
}

ASSEMBLY_SPEC = ColumnarSpec(("depth", np.uint32), ("flag", np.uint8))


def _ascending(n, share, seed):
    rng = np.random.default_rng(seed)
    return np.flatnonzero(rng.random(n) < share)


def _narrow_and_last(n):
    """The vertices whose depth field (37·v mod 1024) is below 512, plus
    the last vertex — isolated and widest on the "isolated" topology."""
    vertices = np.arange(n)
    return np.flatnonzero((vertices * 37 % 1024 < 512) | (vertices == n - 1))


# case -> (per-group sender arrays from n, pull threshold, fault plan,
# bandwidth limit, whether the pulled path must assemble the round).
# ``None`` as the threshold keeps the module constant.
ASSEMBLY_CASES = {
    "all-senders": (lambda n: [np.arange(n)], None, None, 64, True),
    "dense-subset": (lambda n: [_ascending(n, 0.6, 1)], None, None, 64, True),
    "sparse-subset": (lambda n: [np.array([3, 7])], None, None, 64, False),
    "sparse-forced": (lambda n: [np.array([3, 7])], 0.0, None, 64, True),
    "unsorted": (lambda n: [np.arange(n)[::-1]], 0.0, None, 64, False),
    "repeated": (lambda n: [np.repeat(np.arange(n), 2)], 0.0, None, 64,
                 False),
    "two-groups": (lambda n: [np.arange(n // 2), np.arange(n // 2, n)],
                   0.0, None, 64, False),
    "fault-plan": (lambda n: [np.arange(n)], 0.0,
                   FaultPlan(drop=0.3, seed=5), 64, False),
    "bandwidth": (lambda n: [np.arange(n)], 0.0, None, 14, False),
    "zero-degree-widest": (lambda n: [_narrow_and_last(n)], None, None, 64,
                           True),
    # Every sender ≡ 0 mod 1024: both fields constant, so both are filled.
    "constant-fields": (lambda n: [np.arange(0, n, 1024)], 0.0, None, 64,
                        True),
    # Even senders: the flag is constant (filled), the depth is not.
    "one-constant-field": (lambda n: [np.arange(0, n, 2)], None, None, 64,
                           True),
}


def _broadcast_groups(topology, make_senders):
    """One broadcast emission group per sender array: a ``(message,
    ranks)`` pair that, being a broadcast, carries no ranks."""
    return [
        ((senders.astype(topology.indices.dtype), None,
          {"depth": senders * 37 % (1 << 10), "flag": senders % 2}, {}),
         None)
        for senders in make_senders(topology.n)
    ]


def _assemble(topology, groups, threshold, plan, limit, monkeypatch):
    """One delivery of ``groups``; returns (inbox or error text, totals,
    pulled-path hits)."""
    hits = []
    pulled = columnar._deliver_pulled

    def counted(*args):
        inbox = pulled(*args)
        hits.append(inbox is not None)
        return inbox

    monkeypatch.setattr(columnar, "_deliver_pulled", counted)
    if threshold is not None:
        monkeypatch.setattr(columnar, "PULL_MIN_FANOUT", threshold)
    grid = isinstance(topology, GridTopology)
    acc = GridAccountant(topology) if grid else ScalarAccountant()
    if grid:
        limit = np.full(topology.n, limit, dtype=np.int64)
    faults = None
    if plan is not None:
        faults = FaultState(
            [plan] * (topology.trials if grid else 1), topology
        )
    try:
        result = columnar._deliver_fast(
            topology, topology.columnar_plane(), ASSEMBLY_SPEC, groups,
            limit, limit, acc, faults, 1,
        )
    except BandwidthExceededError as error:
        result = str(error)
    totals = [np.asarray(getattr(acc, name)).tolist()
              for name in ("messages", "total_bits", "peak_bits")]
    return result, totals, sum(hits)


@pytest.mark.parametrize("case", list(ASSEMBLY_CASES))
@pytest.mark.parametrize("topology_name", list(ASSEMBLY_TOPOLOGIES))
def test_pulled_and_sorted_assembly_agree(topology_name, case, monkeypatch):
    topology = ASSEMBLY_TOPOLOGIES[topology_name]()
    make_senders, threshold, plan, limit, pulls = ASSEMBLY_CASES[case]
    # Sizes vary per sender; vertex 0's message fits every limit, so the
    # bandwidth case has a validated prefix to count.
    groups = _broadcast_groups(topology, make_senders)
    with monkeypatch.context() as patch:
        expected, expected_totals, sort_hits = _assemble(
            topology, groups, float("inf"), plan, limit, patch
        )
    got, totals, hits = _assemble(
        topology, groups, threshold, plan, limit, monkeypatch
    )
    assert sort_hits == 0
    assert hits == int(pulls)
    assert totals == expected_totals
    if case == "bandwidth":
        assert isinstance(got, str) and got == expected
        assert np.sum(totals[0]) > 0  # the validated prefix was counted
        return
    for name in ("senders", "indptr"):
        want, have = getattr(expected, name), getattr(got, name)
        assert have.dtype == want.dtype
        assert have.tolist() == want.tolist()
    assert list(got.columns) == list(expected.columns)
    for name, column in expected.columns.items():
        assert got.columns[name].dtype == column.dtype
        assert got.columns[name].tolist() == column.tolist()


# ---------------------------------------------------------------------------
# Accountants: per-sender copy counts against the repeated per-copy form
# ---------------------------------------------------------------------------
def _uneven_grid():
    return GridTopology([
        compile_topology(nx.path_graph(4)),
        compile_topology(nx.cycle_graph(5)),
        compile_topology(nx.path_graph(3)),
    ])


def _accountant_totals(acc):
    return [np.asarray(getattr(acc, name)).tolist()
            for name in ("messages", "total_bits", "peak_bits")]


ACCOUNTANTS = {
    "scalar": lambda: ScalarAccountant(),
    "grid": lambda: GridAccountant(_uneven_grid()),
}


@pytest.mark.parametrize("kind", list(ACCOUNTANTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_accountant_copies_equal_repeated_copies(kind, data):
    """``add(senders, bits, copies)`` counts exactly what adding every
    sender's entry ``copies`` times does, over several batches."""
    with_copies, repeated = ACCOUNTANTS[kind](), ACCOUNTANTS[kind]()
    for _batch in range(data.draw(st.integers(1, 3), label="batches")):
        size = data.draw(st.integers(1, 8), label="size")
        senders = np.array(data.draw(
            st.lists(st.integers(0, 11), min_size=size, max_size=size),
            label="senders"))
        bits = np.array(data.draw(
            st.lists(st.integers(1, 40), min_size=size, max_size=size),
            label="bits"))
        copies = np.array(data.draw(
            st.lists(st.integers(0, 3), min_size=size, max_size=size),
            label="copies"))
        with_copies.add(senders, bits, copies)
        if copies.any():
            repeated.add(np.repeat(senders, copies), np.repeat(bits, copies))
    assert _accountant_totals(with_copies) == _accountant_totals(repeated)


@pytest.mark.parametrize("kind", list(ACCOUNTANTS))
def test_accountant_ignores_zero_copy_senders(kind):
    acc = ACCOUNTANTS[kind]()
    acc.add(np.array([0, 5]), np.array([3, 4]))
    before = _accountant_totals(acc)
    # All-zero copies are a no-op, even for the widest message so far.
    acc.add(np.array([1, 6, 9]), np.array([50, 60, 70]), np.zeros(3, int))
    assert _accountant_totals(acc) == before
    # The widest sender has no copies: the peak must not see it.
    acc.add(np.array([1, 2, 6]), np.array([99, 7, 8]), np.array([0, 2, 1]))
    expected = ACCOUNTANTS[kind]()
    expected.add(np.array([0, 5]), np.array([3, 4]))
    expected.add(np.array([2, 2, 6]), np.array([7, 7, 8]))
    assert _accountant_totals(acc) == _accountant_totals(expected)
    assert 99 not in np.ravel(_accountant_totals(acc)[2])


def _reference_totals(topology, make_senders, threshold, limit,
                      monkeypatch):
    """One round through ``_deliver_fast`` and through the per-message
    reference: each side's (error text or None, totals)."""
    groups = _broadcast_groups(topology, make_senders)
    got, totals, _hits = _assemble(
        topology, groups, threshold, None, limit, monkeypatch
    )
    metrics = NetworkMetrics()
    error = None
    try:
        columnar._deliver_reference(
            topology, ASSEMBLY_SPEC, groups, limit, limit, metrics,
        )
    except BandwidthExceededError as raised:
        error = str(raised)
    expected = [metrics.messages, metrics.total_bits,
                metrics.max_edge_bits_in_round]
    return ((got if isinstance(got, str) else None, totals),
            (error, expected))


@pytest.mark.parametrize(
    "case", [case for case, spec in ASSEMBLY_CASES.items() if spec[2] is None]
)
@pytest.mark.parametrize("topology_name", ["networkx", "isolated"])
def test_assembly_totals_match_reference(topology_name, case, monkeypatch):
    """Whichever path assembles the round, its deferred totals (and any
    bandwidth error) are what the per-message reference records."""
    make_senders, threshold, _plan, limit, _pulls = ASSEMBLY_CASES[case]
    fast, reference = _reference_totals(
        ASSEMBLY_TOPOLOGIES[topology_name](), make_senders, threshold,
        limit, monkeypatch,
    )
    assert fast == reference


def test_zero_degree_sender_over_budget_sends_nothing(monkeypatch):
    """A sender with no neighbours sends no copy, so its size never
    meets the bandwidth check: on the isolated topology at a 14-bit
    budget only the isolated vertex's message is too wide."""
    fast, reference = _reference_totals(
        _isolated_topology(), lambda n: [_narrow_and_last(n)], 0.0, 14,
        monkeypatch,
    )
    assert fast == reference
    assert fast[0] is None and fast[1][0] > 0


def test_packed_key_receiver_sort_past_16_bits():
    """Past 2**16 rows the receiver order is one sort of packed
    ``receiver << b | index`` keys; it must equal one stable sort of the
    full receiver ids."""
    n = 70_000
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    topology = compile_edge_stream([path], n)
    assert topology.n > 0xFFFF
    # Receivers span both 16-bit halves, repeat (stability), and share
    # low halves across different high halves (3 / 65539, 0 / 65536).
    receivers = np.array(
        [65539, 3, 69999, 0, 3, 65536, 65535, 65539, 0, 69999],
        dtype=topology.indices.dtype,
    )
    senders = np.arange(len(receivers), dtype=topology.indices.dtype) + 7
    flags = np.arange(len(receivers), dtype=np.int64) % 3
    lengths = np.array([2, 0, 1, 3, 1, 2, 0, 1, 2, 1], dtype=np.int64)
    pool = np.arange(int(lengths.sum()), dtype=np.int64) * 11
    sequences = np.split(pool, np.cumsum(lengths)[:-1])
    fields = (("flag", np.uint8),)
    ranks = np.arange(len(receivers))[::-1] * 3
    got_senders, indptr, columns, pools, offsets, got_ranks = (
        _assemble_sorted(
            topology.n,
            (senders, receivers, {"flag": flags},
             {"tokens": (pool, lengths)}),
            fields, ranks,
        )
    )
    order = np.argsort(receivers, kind="stable")
    assert got_senders.tolist() == senders[order].tolist()
    assert got_ranks.tolist() == ranks[order].tolist()
    assert indptr.tolist() == np.concatenate(
        [[0], np.cumsum(np.bincount(receivers, minlength=n))]
    ).tolist()
    assert columns["flag"].dtype == np.uint8
    assert columns["flag"].tolist() == flags[order].tolist()
    assert pools["tokens"].tolist() == np.concatenate(
        [sequences[k] for k in order]
    ).tolist()
    assert offsets["tokens"].tolist() == np.concatenate(
        [[0], np.cumsum(lengths[order])]
    ).tolist()


def _stable_assembly_matches(n, receivers):
    """``_assemble_sorted`` over ``n`` rows orders ``receivers`` as one
    stable sort does, carrying senders and a column along."""
    count = len(receivers)
    senders = np.arange(count, dtype=np.int64)
    flags = senders % 5
    got_senders, indptr, columns, _pools, _offsets, ranks = _assemble_sorted(
        n, (senders, receivers, {"flag": flags}, {}), (("flag", np.uint8),)
    )
    order = np.argsort(receivers, kind="stable")
    assert got_senders.tolist() == senders[order].tolist()
    assert ranks is None
    assert columns["flag"].tolist() == flags[order].tolist()
    assert indptr.tolist() == np.concatenate(
        [[0], np.cumsum(np.bincount(receivers, minlength=n))]
    ).tolist()


@pytest.mark.parametrize("count", [
    2**k + d for k in (1, 8, 17) for d in (-1, 0, 1)
])
def test_receiver_sort_at_key_width_boundaries(count):
    """The index takes ``count.bit_length()`` key bits, which grows by
    one at each power of two; the largest index must not spill into
    the receiver bits."""
    n = 70_000
    rng = np.random.default_rng(count)
    receivers = rng.integers(0, 40, count).astype(np.int32)
    receivers[-1] = n - 1  # the widest receiver, at the largest index
    receivers[0] = n - 1
    _stable_assembly_matches(n, receivers)


@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
def test_receiver_sort_at_sixteen_bit_rows(n):
    """Either side of the 16-bit radix limit the order is the same."""
    rng = np.random.default_rng(n)
    receivers = rng.integers(n - 3, n, 50)
    receivers[::7] = 0
    _stable_assembly_matches(n, receivers)


@pytest.mark.parametrize("n", [2**57, 2**58 - 1, 2**58, 2**62])
def test_receiver_sort_past_63_key_bits(n, monkeypatch):
    """20 messages take 5 index bits: while ``n`` has at most 58 bits
    the keys fit in 63 and are packed; a wider ``n`` falls back to a
    stable ``argsort``.  Either way the order is the stable one."""
    receivers = np.array([n - 1, 3, n - 1, 0, 3] * 4, dtype=np.int64)
    expected = np.argsort(receivers, kind="stable").tolist()
    argsorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        argsorts.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    assert _receiver_order(n, receivers).tolist() == expected
    assert argsorts == (["stable"] if n.bit_length() > 58 else [])


# ---------------------------------------------------------------------------
# Ported classics: byte-identical to the object plane
# ---------------------------------------------------------------------------
GRAPHS = [
    ("path", nx.path_graph(11)),
    ("star", nx.star_graph(7)),
    ("grid", triangulated_grid(5, 5)),
    ("expander", nx.random_regular_graph(4, 26, seed=3)),
    ("disconnected", nx.disjoint_union(nx.path_graph(5), nx.cycle_graph(6))),
    ("isolated", nx.empty_graph(4)),
]


def assert_all_planes_agree(graph, make_object, make_columnar, inputs,
                            max_rounds):
    """object engine == object reference == columnar fast == columnar
    reference, on outputs, output order, and metrics."""
    runs = []
    for make, runner_name in (
        (make_object, "run"),
        (make_object, "_run_reference"),
        (make_columnar, "run"),
        (make_columnar, "_run_reference"),
    ):
        net = Network(graph)
        outputs = getattr(net, runner_name)(
            make(), max_rounds=max_rounds, inputs=inputs
        )
        runs.append((outputs, dataclasses.astuple(net.metrics)))
    baseline_outputs, baseline_metrics = runs[0]
    for outputs, metrics in runs[1:]:
        # Per-key reads first: on a columnar result view each decodes
        # its one row, before a bulk read below fills the view's cache.
        for v, expected in baseline_outputs.items():
            value = outputs[v]
            assert value == expected
            assert not any(
                isinstance(item, np.generic)
                for item in (value if isinstance(value, tuple) else (value,))
            )
        assert outputs == baseline_outputs
        assert list(outputs) == list(baseline_outputs)
        assert metrics == baseline_metrics
        # Equal is not enough: numpy scalars compare equal to the Python
        # values the object plane returns.
        assert not any(
            isinstance(item, np.generic)
            for value in outputs.values()
            for item in (value if isinstance(value, tuple) else (value,))
        )


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_columnar_mis_identical(name, graph):
    n = graph.number_of_nodes()
    horizon = 20 * max(4, n.bit_length() ** 2)
    rng = random.Random(5)
    inputs = {v: rng.randrange(1 << 30) for v in graph.nodes}
    assert_all_planes_agree(
        graph,
        lambda: LubyMISAlgorithm(horizon),
        lambda: ColumnarLubyMIS(horizon),
        inputs,
        horizon + 2,
    )


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_columnar_coloring_identical(name, graph):
    n = graph.number_of_nodes()
    delta = max((d for _, d in graph.degree), default=0)
    horizon = 40 * max(4, n.bit_length() ** 2)
    rng = random.Random(11)
    inputs = {v: rng.randrange(1 << 30) for v in graph.nodes}
    assert_all_planes_agree(
        graph,
        lambda: TrialColoringAlgorithm(delta + 1, horizon),
        lambda: ColumnarTrialColoring(delta + 1, horizon),
        inputs,
        horizon + 2,
    )


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_columnar_bfs_and_flood_identical(name, graph):
    n = graph.number_of_nodes()
    root = min(graph.nodes, key=repr)
    assert_all_planes_agree(
        graph,
        lambda: BFSTreeAlgorithm(root, n + 2),
        lambda: ColumnarBFSTree(root, n + 2),
        None,
        n + 4,
    )
    assert_all_planes_agree(
        graph,
        lambda: BroadcastAlgorithm(root, 54321, n + 2),
        lambda: ColumnarFloodValue(root, 54321, n + 2),
        None,
        n + 4,
    )


def test_columnar_convergecast_identical():
    graph = nx.random_regular_graph(4, 24, seed=9)
    root = min(graph.nodes)
    tree, _ = bfs_tree(graph, root)
    children: dict = {v: [] for v in tree}
    for v, (parent, _depth) in tree.items():
        if v != root:
            children[parent].append(v)
    inputs = {
        v: (
            None if v == root else tree[v][0],
            tuple(children.get(v, ())),
            3 * v + 1,
        )
        for v in tree
    }
    horizon = graph.number_of_nodes() + 2
    assert_all_planes_agree(
        graph,
        lambda: ConvergecastSumAlgorithm(horizon),
        lambda: ColumnarConvergecastSum(horizon),
        inputs,
        horizon + 2,
    )


def test_wrappers_accept_plane_argument():
    graph = triangulated_grid(5, 5)
    mis_dict, metrics_dict = luby_mis(graph, seed=2)
    mis_col, metrics_col = luby_mis(graph, seed=2, plane="columnar")
    assert mis_dict == mis_col
    assert metrics_dict == metrics_col
    colors_dict, cm_dict = delta_plus_one_coloring(graph, seed=2)
    colors_col, cm_col = delta_plus_one_coloring(
        graph, seed=2, plane="columnar"
    )
    assert colors_dict == colors_col
    assert cm_dict == cm_col
    tree_dict, tm_dict = bfs_tree(graph, next(iter(graph.nodes)))
    tree_col, tm_col = bfs_tree(
        graph, next(iter(graph.nodes)), plane="columnar"
    )
    assert tree_dict == tree_col
    assert tm_dict == tm_col


# ---------------------------------------------------------------------------
# Cluster announcements (cluster_sim's columnar component)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("buckets", [2, 5])
def test_distributed_boundary_tables_match_central(buckets):
    graph = triangulated_grid(6, 6)
    assignment = {v: i % buckets for i, v in enumerate(graph.nodes)}
    tables, metrics = distributed_boundary_tables(graph, assignment)
    central = _cluster_bfs_inputs(graph, assignment)
    for v in graph.nodes:
        assert tables[v] == dict(central[v][3])
    assert metrics.rounds == 2
    assert metrics.messages == 2 * graph.number_of_edges()
    assert metrics.max_edge_bits_in_round <= Network(graph).bandwidth_bits


# ---------------------------------------------------------------------------
# run_many integration + buffer release
# ---------------------------------------------------------------------------
def test_run_many_accepts_columnar_algorithms():
    graph = triangulated_grid(4, 4)
    n = graph.number_of_nodes()
    horizon = 20 * max(4, n.bit_length() ** 2)
    rng = random.Random(3)
    trials = [
        Trial(
            graph,
            inputs={v: rng.randrange(1 << 30) for v in graph.nodes},
            max_rounds=horizon + 2,
        )
        for _ in range(4)
    ]
    columnar = run_many(ColumnarLubyMIS(horizon), trials, processes=1)
    replayed = run_many(LubyMISAlgorithm(horizon), trials, processes=1)
    for (out_c, metrics_c), (out_d, metrics_d) in zip(columnar, replayed):
        assert out_c == out_d
        assert metrics_c == metrics_d
