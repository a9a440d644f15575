"""Tests for the command-line interface."""

import pytest

from repro.cli import build_instance, main


class TestBuildInstance:
    def test_planar(self):
        graph = build_instance("planar:50:3")
        assert graph.number_of_nodes() == 50

    def test_default_seed(self):
        assert build_instance("tree:30").number_of_nodes() == 30

    def test_grid_rounds_to_square(self):
        graph = build_instance("grid:100")
        assert graph.number_of_nodes() == 100

    def test_expander_evens_size(self):
        graph = build_instance("expander:31:1")
        assert graph.number_of_nodes() % 2 == 0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_instance("hypercube:8")

    def test_missing_size(self):
        with pytest.raises(ValueError):
            build_instance("planar")


class TestCommands:
    def test_decompose(self, capsys):
        assert main(["decompose", "grid:49", "--epsilon", "0.35"]) == 0
        out = capsys.readouterr().out
        assert "cut fraction" in out
        assert "clusters" in out

    def test_decompose_with_routing(self, capsys):
        assert main([
            "decompose", "tree:40", "--epsilon", "0.3", "--measure-routing",
        ]) == 0
        assert "measured routing T" in capsys.readouterr().out

    def test_approximate_fast(self, capsys):
        assert main([
            "approximate", "independent-set", "planar:40:2",
            "--epsilon", "0.3", "--fast",
        ]) == 0
        assert "objective value" in capsys.readouterr().out

    def test_approximate_matching(self, capsys):
        assert main([
            "approximate", "matching", "planar:40:2", "--epsilon", "0.3",
            "--fast",
        ]) == 0
        assert "objective value" in capsys.readouterr().out

    def test_property_accept(self, capsys):
        assert main(["test-property", "planar", "planar:80:1"]) == 0
        assert "ACCEPT" in capsys.readouterr().out

    def test_property_reject_exit_code(self, capsys):
        assert main(["test-property", "forest", "tri-grid:64"]) == 1
        assert "REJECT" in capsys.readouterr().out

    def test_gather(self, capsys):
        assert main(["gather", "expander:24:1", "--backend", "load-balancing"])\
            == 0
        assert "load balancing" in capsys.readouterr().out

    def test_simulate_mis_sweep(self, capsys):
        assert main([
            "simulate", "mis", "planar:30:2", "--trials", "3", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "trials: 3" in out
        assert out.count("|IS| =") == 3
        assert "sweep total" in out

    def test_simulate_bfs_multiprocess(self, capsys):
        assert main([
            "simulate", "bfs", "grid:25", "--trials", "2", "--processes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "processes: 2" in out
        assert "reached = 25/25" in out

    def test_simulate_coloring_local(self, capsys):
        assert main([
            "simulate", "coloring", "cycle:12", "--model", "local",
        ]) == 0
        assert "colors =" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "mis", "path:6", "--workers", "127.0.0.1:1"],
    ["simulate", "mis", "path:6", "--checkpoint", "x"],
    ["simulate", "mis", "path:6", "--resume"],
    ["simulate", "mis", "path:6", "--no-local-fallback"],
    ["fabric-worker"],
], ids=["workers", "checkpoint", "resume", "no-local-fallback",
        "fabric-worker"])
def test_removed_sweep_options_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err
