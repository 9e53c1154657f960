"""Tests for the measurement harness, the experiment drivers and the CLI."""

import pytest

from repro.analysis.experiments import (
    run_fig1_heavy_paths,
    run_fig2_hm_trees,
    run_fig4_universal_tree,
    run_fig5_regular_trees,
    run_table1_approx,
    run_table1_exact,
    run_table1_kdistance,
)
from repro.analysis.label_stats import (
    measure_approximate_scheme,
    measure_bounded_scheme,
    measure_scheme,
)
from repro.analysis.reporting import format_comparison, format_table
from repro.cli import build_parser, main
from repro.core.alstrup import AlstrupScheme
from repro.core.approximate import ApproximateScheme
from repro.core.kdistance import KDistanceScheme
from repro.generators.workloads import make_tree, random_pairs


class TestMeasurement:
    def test_measure_exact_scheme(self):
        tree = make_tree("random", 60, seed=0)
        measurement = measure_scheme(AlstrupScheme(), tree, random_pairs(tree, 40, 0), "random")
        assert measurement.mismatches == 0
        assert measurement.max_bits >= measurement.average_bits > 0
        assert measurement.queries_checked == 40
        row = measurement.as_row()
        assert row["scheme"] == "alstrup"
        assert row["n"] == 60

    def test_measure_bounded_scheme(self):
        tree = make_tree("random", 60, seed=1)
        measurement = measure_bounded_scheme(
            KDistanceScheme(3), tree, random_pairs(tree, 40, 0), "random"
        )
        assert measurement.mismatches == 0
        assert measurement.extra["k"] == 3

    def test_measure_approximate_scheme(self):
        tree = make_tree("random", 60, seed=2)
        measurement = measure_approximate_scheme(
            ApproximateScheme(0.5), tree, random_pairs(tree, 40, 0), "random"
        )
        assert measurement.mismatches == 0
        assert 1.0 <= measurement.extra["worst_ratio"] <= 1.5 + 1e-9


class TestExperimentDrivers:
    def test_table1_exact_rows(self):
        rows = run_table1_exact(sizes=[64], families=["random"], queries=20)
        assert len(rows) == 4  # four schemes
        assert all(row["mismatches"] == 0 for row in rows)
        assert all("paper_upper_quarter" in row for row in rows)

    def test_table1_kdistance_rows(self):
        rows = run_table1_kdistance(sizes=[64], ks=[2, 8], queries=20)
        assert len(rows) == 2
        assert {row["regime"] for row in rows} == {"k<log n", "k>=log n"}
        assert all(row["mismatches"] == 0 for row in rows)

    def test_table1_approx_rows(self):
        rows = run_table1_approx(sizes=[64], epsilons=[1.0, 0.25], queries=20)
        assert len(rows) == 2
        assert all(row["mismatches"] == 0 for row in rows)

    def test_fig1_rows(self):
        rows = run_fig1_heavy_paths(sizes=[64], families=["random", "path"])
        assert len(rows) == 2
        for row in rows:
            assert row["max_light_depth"] <= row["log2_n"]
            assert row["collapsed_height"] <= row["log2_n"]

    def test_fig2_rows(self):
        rows = run_fig2_hm_trees(hs=[2], ms=[4])
        assert rows[0]["mismatches"] == 0
        assert rows[0]["leaf_label_max_bits"] >= rows[0]["lemma_2_3_lower_bits"]

    def test_fig4_rows(self):
        rows = run_fig4_universal_tree(max_n=4)
        assert [row["n"] for row in rows] == [2, 3, 4]
        for row in rows:
            assert row["universal_tree_size"] <= row["lemma_3_6_bound"]

    def test_fig5_rows(self):
        rows = run_fig5_regular_trees(ks=[1])
        assert rows[0]["exact_pairwise_sum"] <= rows[0]["lemma_4_1_bound"] + 1e-9


class TestReporting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": None}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "-" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_comparison(self):
        text = format_comparison(10.0, 5.0, "demo")
        assert "ratio=2.00" in text


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["table1-exact", "--sizes", "64"])
        assert args.command == "table1-exact"
        assert args.sizes == [64]

    def test_demo_command(self, capsys):
        assert main(["demo", "--n", "40", "--family", "path"]) == 0
        output = capsys.readouterr().out
        assert "freedman" in output and "alstrup" in output

    def test_fig1_command(self, capsys):
        assert main(["fig1"]) == 0
        assert "collapsed_height" in capsys.readouterr().out

    def test_table1_exact_command(self, capsys):
        assert main(["table1-exact", "--sizes", "64", "--families", "random", "--queries", "10"]) == 0
        output = capsys.readouterr().out
        assert "freedman" in output

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1-kdistance", "--sizes", "64", "--ks", "3", "--queries", "10"],
            ["table1-approx", "--sizes", "64", "--epsilons", "0.5", "--queries", "10"],
            ["fig5"],
        ],
    )
    def test_other_commands_run(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("spec, bound", [("freedman", None), ("k-distance:k=6", 6)])
    def test_build_command_writes_the_index_bytes(self, capsys, tmp_path, spec, bound):
        from repro.api import DistanceIndex
        from repro.oracles.exact_oracle import TreeDistanceOracle

        path = tmp_path / "labels.bin"
        argv = ["build", "--scheme", spec, "--n", "250", "--seed", "4", "--out", str(path)]
        assert main(argv) == 0
        assert f"wrote {path}:" in capsys.readouterr().out
        tree = make_tree("random", 250, seed=4)
        assert path.read_bytes() == DistanceIndex.build(tree, spec).to_bytes()
        oracle = TreeDistanceOracle(tree)
        pairs = random_pairs(tree, 300, seed=9)
        expected = [oracle.distance(u, v) for u, v in pairs]
        if bound is not None:
            expected = [d if d <= bound else None for d in expected]
        assert DistanceIndex.open(path).batch(pairs, raw=True) == expected

    def test_build_list_names_every_scheme(self, capsys):
        from repro.core.registry import ALL_SCHEME_NAMES

        assert main(["build", "--list"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("registered schemes:")
        assert output.split(":", 1)[1].split() == list(ALL_SCHEME_NAMES)
