"""Tests for metrics counters and the composite-cost ledger."""

import pytest

from repro.congest import NetworkMetrics, RoundLedger


class TestNetworkMetrics:
    def test_record_round(self):
        metrics = NetworkMetrics()
        metrics.record_round()
        metrics.record_round()
        assert metrics.rounds == 2

    def test_record_message_accumulates_bits(self):
        metrics = NetworkMetrics()
        metrics.record_message(10)
        metrics.record_message(5)
        assert metrics.messages == 2
        assert metrics.total_bits == 15

    def test_edge_load_keeps_max(self):
        metrics = NetworkMetrics()
        metrics.record_edge_load(3)
        metrics.record_edge_load(9)
        metrics.record_edge_load(4)
        assert metrics.max_edge_bits_in_round == 9

    def test_merge_adds_rounds_keeps_peak(self):
        a = NetworkMetrics(rounds=2, messages=3, total_bits=30,
                           max_edge_bits_in_round=7)
        b = NetworkMetrics(rounds=5, messages=1, total_bits=8,
                           max_edge_bits_in_round=4)
        a.merge(b)
        assert a.rounds == 7
        assert a.messages == 4
        assert a.total_bits == 38
        assert a.max_edge_bits_in_round == 7

    def test_merge_adds_fault_counters_and_concatenates_crash_log(self):
        a = NetworkMetrics(dropped=3, duplicated=1, delayed=2, crashed=1,
                           crashed_vertices=("a",))
        b = NetworkMetrics(dropped=4, duplicated=0, delayed=5, crashed=2,
                           crashed_vertices=("b", "c"))
        a.merge(b)
        assert (a.dropped, a.duplicated, a.delayed, a.crashed) == (7, 1, 7, 3)
        assert a.crashed_vertices == ("a", "b", "c")
        # Merging a fault-free execution is the identity on fault state.
        a.merge(NetworkMetrics(rounds=1))
        assert (a.dropped, a.crashed) == (7, 3)
        assert a.crashed_vertices == ("a", "b", "c")

    def test_fault_counters_default_zero(self):
        # The zero-fault identity contract: a fresh metrics object (what a
        # fault-free run produces) reports nothing dropped or crashed.
        metrics = NetworkMetrics()
        assert (metrics.dropped, metrics.duplicated, metrics.delayed,
                metrics.crashed) == (0, 0, 0, 0)
        assert metrics.crashed_vertices == ()

    def test_record_batch_folds_message_counters(self):
        metrics = NetworkMetrics()
        metrics.record_batch(5, 50, 12)
        metrics.record_batch(1, 4, 4)
        assert metrics.messages == 6
        assert metrics.total_bits == 54
        assert metrics.max_edge_bits_in_round == 12

    def test_record_faults_accumulates(self):
        metrics = NetworkMetrics()
        metrics.record_faults(dropped=1, crashed=1, crashed_vertices=(7,))
        metrics.record_faults(dropped=2, delayed=4, duplicated=5,
                              crashed_vertices=(9, 3))
        assert (metrics.dropped, metrics.duplicated, metrics.delayed,
                metrics.crashed) == (3, 5, 4, 1)
        assert metrics.crashed_vertices == (7, 9, 3)


class TestRoundLedger:
    def test_charges_accumulate_by_label(self):
        ledger = RoundLedger()
        ledger.charge("bfs", 5)
        ledger.charge("bfs", 3)
        ledger.charge("routing", 10)
        assert ledger.breakdown == {"bfs": 8, "routing": 10}
        assert ledger.total_rounds == 18

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("oops", -1)

    def test_parallel_charge_takes_max(self):
        ledger = RoundLedger()
        ledger.charge_parallel("gather", [3, 9, 1])
        assert ledger.total_rounds == 9

    def test_parallel_charge_empty_is_zero(self):
        ledger = RoundLedger()
        ledger.charge_parallel("gather", [])
        assert ledger.total_rounds == 0

    def test_merge_with_prefix(self):
        inner = RoundLedger()
        inner.charge("phase", 4)
        outer = RoundLedger()
        outer.merge(inner, prefix="cluster3.")
        assert outer.breakdown == {"cluster3.phase": 4}

    def test_merge_prefix_accumulates_into_existing_labels(self):
        outer = RoundLedger()
        outer.charge("cluster3.phase", 2)
        inner = RoundLedger()
        inner.charge("phase", 4)
        inner.charge("route", 1)
        outer.merge(inner, prefix="cluster3.")
        assert outer.breakdown == {"cluster3.phase": 6, "cluster3.route": 1}
        assert outer.total_rounds == 7

    def test_merge_empty_ledger_is_identity(self):
        outer = RoundLedger()
        outer.charge("phase", 4)
        outer.merge(RoundLedger())
        outer.merge(RoundLedger(), prefix="sub.")
        assert outer.breakdown == {"phase": 4}
        # And merging *into* an empty ledger copies the source.
        empty = RoundLedger()
        empty.merge(outer)
        assert empty.breakdown == {"phase": 4}
