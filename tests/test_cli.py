import json
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treelike
from treelike import bad_set_measure, generate_fixture, profile_integral, \
    treebuild, validate_space
from treelike.cli import main
from treelike.io import (
    dump_json,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    read_json,
    space_from_dict,
    space_to_dict,
    tree_from_dict,
    tree_to_dict,
    write_json,
)
from treelike.core import SimilaritySpace, threshold_graph, tree_from_levels
from treelike.fixtures import noisy_tree_fixture, tree_scaled_fixture


@pytest.fixture
def three_point_file(tmp_path):
    space = SimilaritySpace(
        points=("a", "b", "c"),
        weights=np.full(3, 1.0 / 3.0),
        sim=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        bound=1.0,
    )
    path = tmp_path / "space.json"
    write_json(path, space_to_dict(space))
    return path


class TestJsonFormat:
    def test_floats_round_trip(self):
        values = [0.1, 1 / 3, 2 / 27, 1e-300, 123456.789]
        text = dump_json({"v": values})
        back = json.loads(text)["v"]
        assert back == values

    def test_nan_serializes_as_null(self):
        assert dump_json(float("nan")) == "null"

    def test_byte_identical(self):
        payload = {"a": [0.1, 0.2], "b": {"c": 1, "d": None}}
        assert dump_json(payload) == dump_json(payload)

    def test_space_round_trip(self, tmp_path, three_point_file):
        data = read_json(three_point_file)
        space = space_from_dict(data)
        again = tmp_path / "again.json"
        write_json(again, space_to_dict(space))
        assert again.read_text() == three_point_file.read_text()

    def test_tree_round_trip(self, tmp_path):
        fx = tree_scaled_fixture(10, depth=2, alpha=0.3, seed=1)
        path = tmp_path / "tree.json"
        write_json(path, tree_to_dict(fx.tree))
        back = tree_from_dict(read_json(path))
        assert back == fx.tree


class TestCommands:
    def test_hyp_prints_expected(self, three_point_file, capsys):
        code = main(["hyp", "--space", str(three_point_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.074074" in out

    def test_hyp_json_format(self, three_point_file, capsys):
        code = main(["hyp", "--space", str(three_point_file),
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["hyp"] == pytest.approx(2.0 / 27.0, abs=1e-15)

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["hyp", "--space", str(tmp_path / "absent.json")])
        assert code == 8
        assert "absent.json" in capsys.readouterr().err

    def test_delta(self, three_point_file, capsys):
        assert main(["delta", "--space", str(three_point_file)]) == 0
        assert "1.000000" in capsys.readouterr().out

    def test_fixture_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["fixture", "--kind", "ultrametric", "--size", "16",
                         "--seed", "3", "--out", str(path)]) == 0
        assert a.read_text() == b.read_text()

    def test_tree_eval_round_trip(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        kappa = 1e-12 ** (1 / 24)
        params = json.dumps({"levels": [kappa, 2 * kappa, 3 * kappa]})
        assert main(["fixture", "--kind", "ultrametric", "--size", "20",
                     "--seed", "5", "--params", params,
                     "--out", str(space_path)]) == 0
        tree_path = tmp_path / "tree.json"
        report_path = tmp_path / "report.json"
        newick_path = tmp_path / "tree.nwk"
        assert main(["tree", "--space", str(space_path),
                     "--epsilon", "1e-12", "--m", "16",
                     "--out", str(tree_path), "--newick", str(newick_path),
                     "--report", str(report_path)]) == 0
        report = read_json(report_path)
        capsys.readouterr()
        assert main(["eval", "--space", str(space_path),
                     "--tree", str(tree_path),
                     "--alpha", repr(report["kappa"])]) == 0
        cost = json.loads(capsys.readouterr().out)["cost"]
        assert cost == report["cost_at_kappa"]
        newick = newick_path.read_text()
        assert newick.strip().endswith(";")
        assert ":1" in newick

    def test_alpha_command(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        assert main(["fixture", "--kind", "tree-scaled", "--size", "12",
                     "--seed", "2", "--out", str(space_path),
                     "--tree-out", str(tmp_path / "planted.json")]) == 0
        capsys.readouterr()
        assert main(["alpha", "--space", str(space_path),
                     "--tree", str(tmp_path / "planted.json")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha"] == pytest.approx(0.25, abs=1e-12)
        assert data["cost"] <= 1e-12

    def test_ladder_profile_csv(self, tmp_path, three_point_file, capsys):
        csv_path = tmp_path / "profile.csv"
        code = main(["ladder", "--space", str(three_point_file),
                     "--epsilon", "1e-10", "--m", "9",
                     "--delta0", "0.05", "--profile-csv", str(csv_path)])
        # every threshold window on this space carries defect mass
        assert code == 3
        code = main(["ladder", "--space", str(three_point_file),
                     "--epsilon", "1e-10", "--m", "9",
                     "--delta0", "0.15", "--profile-csv", str(csv_path)])
        assert code == 3
        assert not csv_path.exists()

    def test_empty_bad_sets_are_written_as_zero(self, tmp_path, capsys):
        # the rescaled noisy tree of the golden cases: R_t is empty on 19 of
        # its 195 intervals, and each of those masses is written as 0, not
        # as a rounding residue
        raw, space = tmp_path / "raw.json", tmp_path / "space.json"
        csv_path = tmp_path / "profile.csv"
        kappa = 1e-12 ** (1 / 24)
        assert main(["fixture", "--kind", "noisy-tree", "--size", "24",
                     "--seed", "2", "--params", json.dumps({
                         "weights": "random", "alpha": kappa,
                         "noise": 1e-4}), "--out", str(raw)]) == 0
        assert main(["convert", "--space", str(raw), "--rescale-out",
                     str(space)]) == 0
        assert main(["ladder", "--space", str(space), "--epsilon", "1e-12",
                     "--m", "16", "--delta0", "0.05", "--profile-csv",
                     str(csv_path)]) == 0
        sp = space_from_dict(read_json(space))
        rows = [line.split(",") for line in
                csv_path.read_text().splitlines()[1:]]
        assert len(rows) == 195
        empty = [t == "0" or bad_set_measure(sp, float(t)) == 0.0
                 for t, _ in rows]
        assert sum(empty) == 19
        assert [m == "0" for _, m in rows] == empty

    def test_split_command(self, tmp_path, three_point_file, capsys):
        out = tmp_path / "split.json"
        mapping = tmp_path / "map.json"
        assert main(["split", "--space", str(three_point_file),
                     "--delta", "0.25", "--out", str(out),
                     "--map", str(mapping)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["points_after"] == 6
        assert data["max_atom"] < 0.25
        assert len(read_json(mapping)) == 6

    def test_partition_command(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        n = 20
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        edges = [[f"v{i}", f"v{j}"] for i, j in zip(*np.nonzero(adj))]
        graph_path = tmp_path / "graph.json"
        write_json(graph_path, {
            "vertices": [f"v{i}" for i in range(n)],
            "measure": [1.0 / n] * n,
            "edges": edges,
        })
        out = tmp_path / "partition.json"
        assert main(["partition", "--graph", str(graph_path),
                     "--epsilon", "0.2", "--m", "2",
                     "--out", str(out), "--dot", str(tmp_path / "g.dot")]) == 0
        data = read_json(out)
        assert data["parts"][0] == []
        assert (tmp_path / "g.dot").read_text().startswith("graph")

    def test_partition_at_an_epsilon_whose_square_underflows(self, tmp_path,
                                                             capsys):
        # 1e-200 ** 2 is 0.0; the zero-mass vertex d keeps the partition
        # off the forced path, so the cells are bucketed
        graph_path = tmp_path / "graph.json"
        write_json(graph_path, ZERO_MASS_PATH)
        assert main(["partition", "--graph", str(graph_path), "--epsilon",
                     "1e-200", "--m", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["parts"] == [["d"], ["a"], ["b"], ["c"]]
        assert not data["params"]["forced"]

    def test_cliques_command(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        assert main(["fixture", "--kind", "planted-blocks", "--size", "24",
                     "--seed", "4", "--params", json.dumps({"blocks": 2}),
                     "--out", str(space_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "cliques.json"
        assert main(["cliques", "--space", str(space_path), "--t", "0.5",
                     "--epsilon", "1e-4", "--m", "2",
                     "--out", str(out)]) == 0
        data = read_json(out)
        assert len(data["cliques"]) >= 2
        assert set(data["stages"]) == {
            "delete_exceptional_incident", "complete_within_part",
            "complete_within_group", "delete_cross_group",
            "delete_leftover_incident",
        }

    def test_spinglass_command(self, tmp_path, capsys):
        # low temperature concentrates the measure on a few high-overlap
        # states, which is the regime where the window override succeeds
        report = tmp_path / "report.json"
        code = main(["spinglass", "--n", "12", "--beta", "2.0", "--seed", "3",
                     "--mcmc", "30000", "--burn-in", "5000", "--thin", "100",
                     "--f", "abs", "--epsilon", "5.96e-8", "--m", "4",
                     "--delta0", "0.2", "--report", str(report)])
        assert code == 0
        data = read_json(report)
        assert "hyp" in data and "level_values" in data

    def test_spinglass_untreelike_sample_exits_cleanly(self, capsys):
        code = main(["spinglass", "--n", "8", "--beta", "0.5", "--seed", "3",
                     "--mcmc", "30000", "--burn-in", "5000", "--thin", "100",
                     "--f", "abs", "--epsilon", "5.96e-8", "--m", "4",
                     "--delta0", "0.2"])
        assert code == 3
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", [["--beta", "-1e-1"], ["--beta=-1e-1"],
                                      ["--beta", "-0.1"], ["--beta", "-1E-1"]])
    def test_spinglass_negative_beta_in_any_form(self, beta, capsys):
        # argparse takes "-0.1" for a value but "-1e-1" for an option
        args = ["spinglass", "--n", "6", *beta, "--epsilon", "1e-5", "--m",
                "4", "--delta0", "0.2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert main(["spinglass", "--n", "6", "--beta=-0.1", "--epsilon",
                     "1e-5", "--m", "4", "--delta0", "0.2"]) == 0
        assert capsys.readouterr().out == out

    def test_a_flag_without_a_value_rejects_a_negative_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--space", "s.json", "--tree", "t.json", "--alpha",
                  "0.3", "--converse", "-1e-1"])
        assert exc.value.code == 2
        assert "--converse" in capsys.readouterr().err

    def test_convert_newick(self, tmp_path):
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=6)
        tree_path = tmp_path / "tree.json"
        write_json(tree_path, tree_to_dict(fx.tree))
        nwk = tmp_path / "out.nwk"
        assert main(["convert", "--tree", str(tree_path),
                     "--newick", str(nwk)]) == 0
        assert nwk.read_text().strip().endswith(";")

    def test_product_command(self, tmp_path, capsys):
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=6)
        tree_path = tmp_path / "tree.json"
        write_json(tree_path, tree_to_dict(fx.tree))
        x, y = fx.space.points[0], fx.space.points[1]
        assert main(["product", "--tree", str(tree_path),
                     "--x", x, "--y", y]) == 0
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data["product"], int)

    def test_bad_params_exit_code(self, three_point_file, capsys):
        code = main(["tree", "--space", str(three_point_file),
                     "--epsilon", "0.5", "--m", "16"])
        assert code == 2

    def test_convert_metric_rejects_invalid_space(self, tmp_path, capsys):
        metric = tmp_path / "metric.json"
        write_json(metric, {"dist": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                                     [1.0, 1.0, 0.0]],
                            "weights": [1.0, 1.0, 1.0]})
        out = tmp_path / "space.json"
        assert main(["convert", "--metric", str(metric),
                     "--space-out", str(out)]) == 2
        assert "weights sum" in capsys.readouterr().err
        assert not out.exists()


class TestEvalConverse:
    @pytest.fixture
    def files(self, tmp_path):
        fx = noisy_tree_fixture(12, depth=2, alpha=0.3, noise=0.01, seed=6)
        space_path = tmp_path / "space.json"
        tree_path = tmp_path / "tree.json"
        write_json(space_path, space_to_dict(fx.space))
        write_json(tree_path, tree_to_dict(fx.tree))
        return fx, space_path, tree_path

    def test_products_built_once(self, files, monkeypatch, capsys):
        fx, space_path, tree_path = files
        calls = []

        def counting(tree, nodes):
            calls.append(tree)
            return treelike.core._products(tree, nodes)

        monkeypatch.setattr(treebuild, "_products", counting)
        assert main(["eval", "--space", str(space_path), "--tree",
                     str(tree_path), "--alpha", "0.3", "--converse"]) == 0
        assert len(calls) == 1
        data = json.loads(capsys.readouterr().out)
        assert list(data) == ["config", "cost", "hyp", "bound", "margin",
                              "passed"]
        assert data["cost"] == treebuild.tree_cost(fx.space, fx.tree, 0.3)

    def test_passed_prints_as_json_bool(self, files, capsys):
        _, space_path, tree_path = files
        assert main(["eval", "--space", str(space_path), "--tree",
                     str(tree_path), "--alpha", "0.3", "--converse"]) == 0
        assert '"passed": true' in capsys.readouterr().out

    def test_missing_leaf_and_bound_check(self, files, tmp_path, capsys):
        # a tree that misses a point of a space of bound 2: pricing it
        # fails on the leaf, but the converse check refuses the bound first
        fx, _, tree_path = files
        sp = fx.space
        keep = list(range(1, sp.n))
        w = sp.weights[keep]
        other = SimilaritySpace(sp.points[1:], w / w.sum(),
                                2.0 * sp.sim[np.ix_(keep, keep)], 2.0)
        other_path = tmp_path / "other.json"
        write_json(other_path, space_to_dict(other))
        for flags, code in (([], 6), (["--converse"], 2)):
            capsys.readouterr()
            assert main(["eval", "--space", str(other_path), "--tree",
                         str(tree_path), "--alpha", "0.3", *flags]) == code
        assert "bound 1" in capsys.readouterr().err


K = 1e-12 ** (1 / 24)


def edge_space(edit=None):
    """Blocks {a, b} and {c, d} with similarity 2 kappa inside, 0 across;
    a and b (and c and d) have identical rows."""
    s = 2 * K
    data = {"points": ["a", "b", "c", "d"], "weights": [0.25] * 4, "b": 1.0,
            "sim": [[s, s, 0.0, 0.0], [s, s, 0.0, 0.0],
                    [0.0, 0.0, s, s], [0.0, 0.0, s, s]]}
    if edit:
        edit(data)
    return data


def set_sim(i, j, value, both=True):
    def edit(data):
        data["sim"][i][j] = value
        if both:
            data["sim"][j][i] = value
    return edit


def set_key(key, value):
    def edit(data):
        data[key] = value
    return edit


NAN = float("nan")
INF = float("inf")
EDGE_SPACES = {
    "negative-zero": (edge_space(lambda d: (set_sim(0, 2, -0.0)(d),
                                            set_sim(1, 3, -0.0)(d))), 0),
    "duplicate-rows": (edge_space(), 0),
    "zero-weight": (edge_space(set_key("weights", [0.0] + [1 / 3] * 3)), 0),
    "one-point": ({"points": ["a"], "weights": [1.0], "b": 1.0,
                   "sim": [[0.5]]}, 0),
    "two-points": ({"points": ["a", "b"], "weights": [0.5, 0.5], "b": 1.0,
                    "sim": [[2 * K, K], [K, 2 * K]]}, 0),
    "bound-zero": (edge_space(set_key("b", 0.0)), 2),
    "bound-inf": (edge_space(set_key("b", float("inf"))), 2),
    "nan-off-diagonal": (edge_space(set_sim(0, 1, NAN)), 2),
    "nan-diagonal": (edge_space(set_sim(2, 2, NAN)), 2),
    "nan-weight": (edge_space(set_key("weights", [0.25, NAN, 0.25, 0.25])), 2),
    "duplicate-point": (edge_space(set_key("points", ["a", "b", "a", "d"])), 2),
    "weight-sum-off": (edge_space(set_key("weights", [0.35] + [0.25] * 3)), 2),
    "asymmetric": (edge_space(set_sim(0, 2, 0.5, both=False)), 2),
    "above-bound": (edge_space(set_sim(1, 2, 1.5)), 2),
    "sim-shape": (edge_space(set_key("sim", [[0.5] * 3] * 4)), 2),
    "weights-shape": (edge_space(set_key("weights", [1 / 3] * 3)), 2),
    # faults of the file's structure exit 8 and name the file
    "missing-sim": (edge_space(lambda d: d.pop("sim")), 8),
    "ragged-sim": (edge_space(lambda d: d["sim"][1].pop()), 8),
    "sim-of-strings": (edge_space(set_sim(0, 1, "x")), 8),
    "array-not-object": ([edge_space()], 8),
}
EDGE_COMMANDS = {
    "hyp": lambda space, out: ["hyp", "--space", space],
    "tree": lambda space, out: ["tree", "--space", space,
                                "--epsilon", "1e-12", "--m", "16"],
    "ladder": lambda space, out: ["ladder", "--space", space,
                                  "--epsilon", "1e-12", "--m", "16"],
    "rescale": lambda space, out: ["convert", "--space", space,
                                   "--rescale-out", out],
}


@pytest.mark.parametrize("command", sorted(EDGE_COMMANDS))
@pytest.mark.parametrize("case", list(EDGE_SPACES))
def test_edge_input_exit_codes(case, command, tmp_path, capsys):
    data, code = EDGE_SPACES[case]
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(EDGE_COMMANDS[command](str(space_path), str(out))) == code
    if command == "rescale":
        assert out.exists() == (code == 0)
    if code == 8:
        assert str(space_path) in capsys.readouterr().err


SPINGLASS_ARGS = ["spinglass", "--n", "8", "--beta", "0.5", "--seed", "3",
                  "--f", "abs", "--epsilon", "5.96e-8", "--m", "4",
                  "--delta0", "0.2"]
SCHEDULE_EDGES = {
    "negative-burn-in": (["--mcmc", "300", "--burn-in", "-50"], 7),
    "burn-in-equals-steps": (["--mcmc", "300", "--burn-in", "300"], 7),
    "zero-thin": (["--mcmc", "300", "--burn-in", "50", "--thin", "0"], 7),
    "negative-thin": (["--mcmc", "300", "--burn-in", "50", "--thin", "-1"],
                      7),
    # exact enumeration reads no schedule, so one given to it exits 2
    "burn-in-and-thin-without-mcmc": (["--mcmc", "0", "--burn-in", "9",
                                       "--thin", "3"], 2),
    "thin-without-mcmc": (["--burn-in", "1000", "--thin", "3"], 2),
}
SCHEDULE_ERRORS = {7: "need steps > burn_in >= 0 and thin >= 1",
                   2: "--burn-in and --thin are read only with --mcmc"}


@pytest.mark.parametrize("case", list(SCHEDULE_EDGES))
def test_spinglass_schedule_exit_codes(case, capsys):
    flags, code = SCHEDULE_EDGES[case]
    assert main(SPINGLASS_ARGS + flags) == code
    assert SCHEDULE_ERRORS[code] in capsys.readouterr().err


UNIT = ["--epsilon", "1e-12", "--m", "16"]
# a path a-b-c and a vertex d of mass 0, which keeps a partition spectral
ZERO_MASS_PATH = {"vertices": ["a", "b", "c", "d"],
                  "measure": [0.5, 0.25, 0.25, 0.0],
                  "edges": [["a", "b"], ["b", "c"]]}
MASS_GRAPHS = {"nan": [NAN, 0.5, 0.5], "inf": [float("inf"), 0.5, 0.5],
               "negative": [-0.1, 0.6, 0.5]}
TREE_OUTS = ["--out", "{out}/tree.json", "--report", "{out}/report.json",
             "--newick", "{out}/tree.nwk"]
EVAL = ["eval", "--space", "{tree_space}", "--tree", "{tree}"]
REGULARITY = ["--epsilon", "0.2", "--m", "4"]
# fixture parameters that do not parse, do not convert or are out of range:
# each exits 2 and writes no space
FIXTURE_PARAMS = {
    "not-json": ("random", '{bad'),
    "not-an-object": ("random", '[1]'),
    "depth-not-a-number": ("tree-scaled", '{"depth": "x"}'),
    "bound-negative": ("random", '{"bound": -1}'),
    "bound-null": ("random", '{"bound": null}'),
    "bound-inf": ("random", '{"bound": "inf"}'),
    "bound-zero": ("random", '{"bound": 0}'),
    "noise-negative": ("noisy-tree", '{"noise": -0.1}'),
    "levels-not-a-list": ("ultrametric", '{"levels": "abc"}'),
    # JSON reads 1e400 as infinity, which only the check of the space sees
    "levels-infinite": ("ultrametric", '{"levels": [0.5, 1e400]}'),
    "alpha-negative": ("tree-scaled", '{"alpha": -0.5}'),
    "levels-empty": ("ultrametric", '{"levels": []}'),
    # a depth below 1 would plant no level and give a star
    "tree-scaled-depth-zero": ("tree-scaled", '{"depth": 0}'),
    "tree-scaled-depth-negative": ("tree-scaled", '{"depth": -1}'),
    "noisy-tree-depth-zero": ("noisy-tree", '{"depth": 0}'),
    "noisy-tree-depth-negative": ("noisy-tree", '{"depth": -1}'),
}
THRESHOLDS = {"nan": "nan", "zero": "0", "negative": "-1",
              "above-bound": "2", "inf": "inf"}
PARAM_EDGES = {
    # braces are doubled for the str.format that fills in the paths
    **{f"fixture-{case}": (["fixture", "--kind", kind, "--size", "6",
                            "--params",
                            params.replace("{", "{{").replace("}", "}}"),
                            "--out", "{out}/space.json"], 2)
       for case, (kind, params) in FIXTURE_PARAMS.items()},
    "ladder-delta0-negative": (["ladder", "--space", "{space}", *UNIT,
                                "--delta0", "-0.1", "--out",
                                "{out}/ladder.json"], 2),
    "ladder-delta0-zero": (["ladder", "--space", "{space}", *UNIT,
                            "--delta0", "0", "--out", "{out}/ladder.json"], 2),
    "ladder-delta0-nan": (["ladder", "--space", "{space}", *UNIT,
                           "--delta0", "nan", "--out", "{out}/ladder.json"],
                          2),
    "tree-delta0-negative": (["tree", "--space", "{space}", *UNIT,
                              "--delta0", "-0.1", *TREE_OUTS], 2),
    "tree-delta0-zero": (["tree", "--space", "{space}", *UNIT,
                          "--delta0", "0", *TREE_OUTS], 2),
    "tree-delta0-nan": (["tree", "--space", "{space}", *UNIT,
                         "--delta0", "nan", *TREE_OUTS], 2),
    "spinglass-delta0-zero": (SPINGLASS_ARGS + [
        "--delta0", "0", "--out", "{out}/tree.json",
        "--report", "{out}/report.json"], 2),
    "spinglass-exact-ignores-burn-in": (SPINGLASS_ARGS + [
        "--burn-in", "9", "--out", "{out}/tree.json",
        "--report", "{out}/report.json"], 2),
    # a NaN beta makes no model; exact enumeration also needs a finite one
    "spinglass-mcmc-beta-nan": (["spinglass", "--n", "6", "--mcmc", "3000",
                                 "--burn-in", "100", "--thin", "10",
                                 "--beta", "nan", "--epsilon", "1e-5",
                                 "--m", "4", "--out", "{out}/tree.json"], 2),
    **{f"spinglass-exact-beta-{name}": (["spinglass", "--n", "6",
                                         f"--beta={beta}", "--epsilon",
                                         "1e-5", "--m", "4", "--out",
                                         "{out}/tree.json"], 2)
       for name, beta in [("nan", "nan"), ("inf", "inf"),
                          ("minus-inf", "-inf")]},
    # the same value given as a separate argument
    "spinglass-exact-beta-minus-inf-spaced": (["spinglass", "--n", "6",
                                               "--beta", "-inf", "--epsilon",
                                               "1e-5", "--m", "4", "--out",
                                               "{out}/tree.json"], 2),
    "hyp-ignores-seed": (["hyp", "--space", "{space}", "--seed", "7",
                          "--out", "{out}/hyp.json"], 2),
    "hyp-mc-zero-ignores-seed": (["hyp", "--space", "{space}", "--mc", "0",
                                  "--seed", "7", "--out", "{out}/hyp.json"],
                                 2),
    # Gibbs weights leave a two-state clique below the group-mass floor
    "spinglass-light-clique": (["spinglass", "--n", "6", "--beta", "1.0",
                                "--seed", "2", "--epsilon", "5.96e-8",
                                "--m", "4", "--delta0", "0.2",
                                "--out", "{out}/tree.json",
                                "--report", "{out}/report.json"], 10),
    # the same at another temperature; under the abs overlap the two states
    # are a state and its sign flip, one quotient point that counts as two
    "spinglass-light-clique-of-twins": (["spinglass", "--n", "6", "--beta",
                                         "2.0", "--seed", "3", "--epsilon",
                                         "5.96e-8", "--m", "4", "--delta0",
                                         "0.2", "--out", "{out}/tree.json",
                                         "--report", "{out}/report.json"],
                                        10),
    # the ladder and the converse check need a space of bound 1
    "ladder-bound-2": (["ladder", "--space", "{bound_2}", *UNIT, "--out",
                        "{out}/ladder.json"], 2),
    "eval-converse-bound-2": (["eval", "--space", "{bound_2}", "--tree",
                               "{bound_2_tree}", "--alpha", "0.3",
                               "--converse"], 2),
    "eval-alpha-nan": (EVAL + ["--alpha", "nan"], 2),
    "eval-alpha-nan-converse": (EVAL + ["--alpha", "nan", "--converse"], 2),
    "eval-alpha-inf": (EVAL + ["--alpha", "inf"], 2),
    "eval-alpha-inf-converse": (EVAL + ["--alpha", "inf", "--converse"], 2),
    "split-delta-nan": (["split", "--space", "{space}", "--delta", "nan",
                         "--out", "{out}/split.json", "--map",
                         "{out}/map.json"], 2),
    "convert-no-output": (["convert", "--space", "{space}"], 2),
    "convert-dot-without-t": (["convert", "--space", "{space}",
                               "--rescale-out", "{out}/unit.json",
                               "--dot", "{out}/graph.dot"], 2),
    "convert-graph-out-without-t": (["convert", "--space", "{space}",
                                     "--rescale-out", "{out}/unit.json",
                                     "--graph-out", "{out}/graph.json"], 2),
    "convert-dot-without-space": (["convert", "--tree", "{tree}",
                                   "--newick", "{out}/tree.nwk", "--t", "0.5",
                                   "--dot", "{out}/graph.dot"], 2),
    "convert-newick-without-tree": (["convert", "--space", "{space}",
                                     "--rescale-out", "{out}/unit.json",
                                     "--newick", "{out}/tree.nwk"], 2),
    "convert-space-out-without-metric": (["convert", "--space", "{space}",
                                          "--rescale-out", "{out}/unit.json",
                                          "--space-out", "{out}/space.json"],
                                         2),
    "convert-rescale-out-without-space": (["convert", "--tree", "{tree}",
                                           "--newick", "{out}/tree.nwk",
                                           "--rescale-out",
                                           "{out}/unit.json"], 2),
    "convert-newick-ignores-space-t-base": (["convert", "--space", "{space}",
                                             "--t", "0.5", "--base", "3",
                                             "--tree", "{tree}", "--newick",
                                             "{out}/tree.nwk"], 2),
    "convert-newick-ignores-space": (["convert", "--space", "{space}",
                                      "--tree", "{tree}", "--newick",
                                      "{out}/tree.nwk"], 2),
    "convert-newick-ignores-t": (["convert", "--tree", "{tree}", "--t", "0.5",
                                  "--newick", "{out}/tree.nwk"], 2),
    "convert-rescale-ignores-base": (["convert", "--space", "{space}",
                                      "--base", "0", "--rescale-out",
                                      "{out}/unit.json"], 2),
    "convert-rescale-ignores-tree": (["convert", "--space", "{space}",
                                      "--tree", "{tree}", "--rescale-out",
                                      "{out}/unit.json"], 2),
    "convert-rescale-ignores-metric": (["convert", "--space", "{space}",
                                        "--metric", "{metric}",
                                        "--rescale-out", "{out}/unit.json"],
                                       2),
    "convert-space-out-ignores-t": (["convert", "--metric", "{metric}",
                                     "--t", "0.5", "--space-out",
                                     "{out}/space.json"], 2),
    "convert-space-out-base-out-of-range": (["convert", "--metric",
                                             "{metric}", "--base", "7",
                                             "--space-out",
                                             "{out}/space.json"], 2),
    "delta-no-input": (["delta"], 2),
    "delta-space-and-metric": (["delta", "--space", "{space}", "--metric",
                                "{metric}"], 2),
    "delta-space-four-point": (["delta", "--space", "{space}",
                                "--four-point"], 2),
    "delta-space-ignores-base": (["delta", "--space", "{space}", "--base",
                                  "0"], 2),
    "delta-four-point-ignores-base": (["delta", "--metric", "{metric}",
                                       "--four-point", "--base", "1"], 2),
    "delta-base-out-of-range": (["delta", "--metric", "{metric}", "--base",
                                 "9"], 2),
    # a repeated vertex id would otherwise give two parts of one name
    "partition-duplicate-vertex": (["partition", "--graph", "{dup_graph}",
                                    *REGULARITY, "--out", "{out}/parts.json"],
                                   2),
    # the first negative, NaN or infinite vertex mass is out of range
    **{f"partition-{kind}-mass": (["partition", "--graph",
                                   f"{{{kind}_mass_graph}}", "--epsilon",
                                   "0.1", "--m", "2", "--out",
                                   "{out}/parts.json"], 2)
       for kind in MASS_GRAPHS},
    # the bucket width epsilon^1.5 / (16 sqrt(2 J^3 N)) underflows to 0.0
    "partition-epsilon-without-a-bucket-width": (["partition", "--graph",
                                                  "{zero_mass_path}",
                                                  "--epsilon", "1e-230",
                                                  "--m", "2", "--out",
                                                  "{out}/parts.json"], 2),
    "partition-mode": (["partition", "--graph", "{graph}", *REGULARITY,
                        "--mode", "practical", "--out", "{out}/parts.json",
                        "--dot", "{out}/parts.dot"], 2),
    "cliques-mode": (["cliques", "--space", "{space}", "--t", repr(K),
                      *REGULARITY, "--mode", "practical",
                      "--out", "{out}/cliques.json"], 2),
    "tree-mode": (["tree", "--space", "{space}", *UNIT,
                   "--mode", "practical", *TREE_OUTS], 2),
    # a threshold outside (0, b] would give an edgeless or a complete graph
    **{f"cliques-t-{name}": (["cliques", "--space", "{space}", "--t", t,
                              *REGULARITY, "--out", "{out}/cliques.json"], 3)
       for name, t in THRESHOLDS.items()},
    **{f"convert-graph-out-t-{name}": (["convert", "--space", "{space}",
                                        "--t", t, "--graph-out",
                                        "{out}/graph.json"], 3)
       for name, t in THRESHOLDS.items()},
    # kinds that plant no tree have none to write
    **{f"fixture-{kind}-tree-out": (["fixture", "--kind", kind, "--size", "6",
                                     "--out", "{out}/space.json",
                                     "--tree-out", "{out}/tree.json"], 2)
       for kind in ("random", "planted-blocks")},
}


# files that cannot be read or written exit 8, as a missing input does
IO_EDGES = {
    "hyp-space-is-a-directory": (["hyp", "--space", "{out}"], "{out}"),
    "hyp-space-not-utf8": (["hyp", "--space", "{latin1}"], "{latin1}"),
    "fixture-out-missing-dir": (["fixture", "--kind", "ultrametric",
                                 "--size", "4", "--out",
                                 "{out}/missing/x.json"], "missing"),
    "hyp-out-missing-dir": (["hyp", "--space", "{space}", "--out",
                             "{out}/missing/h.json"], "missing"),
    # a later output that cannot be written leaves no earlier one behind
    "fixture-tree-out-missing-dir": (["fixture", "--kind", "ultrametric",
                                      "--size", "4", "--out", "{out}/ok.json",
                                      "--tree-out", "{out}/missing/t.json"],
                                     "missing"),
    "tree-newick-missing-dir": (["tree", "--space", "{space}", *UNIT,
                                 "--report", "{out}/report.json",
                                 "--out", "{out}/tree.json",
                                 "--newick", "{out}/missing/t.nwk"],
                                "missing"),
    "split-map-missing-dir": (["split", "--space", "{space}", "--delta",
                               "0.1", "--out", "{out}/split.json",
                               "--map", "{out}/missing/map.json"], "missing"),
    "spinglass-out-missing-dir": (["spinglass", "--n", "4", "--epsilon",
                                   "5.96e-8", "--m", "4", "--delta0", "0.2",
                                   "--report", "{out}/report.json",
                                   "--out", "{out}/missing/tree.json"],
                                  "missing"),
    "convert-newick-missing-dir": (["convert", "--space", "{space}",
                                    "--t", "0.5",
                                    "--graph-out", "{out}/graph.json",
                                    "--dot", "{out}/graph.dot",
                                    "--tree", "{tree}",
                                    "--newick", "{out}/missing/t.nwk"],
                                   "missing"),
    "ladder-profile-csv-missing-dir": (["ladder", "--space", "{space}",
                                        *UNIT, "--out", "{out}/ladder.json",
                                        "--profile-csv",
                                        "{out}/missing/p.csv"], "missing"),
    "partition-dot-missing-dir": (["partition", "--graph", "{graph}",
                                   *REGULARITY, "--out", "{out}/parts.json",
                                   "--dot", "{out}/missing/parts.dot"],
                                  "missing"),
    "cliques-dot-after-missing-dir": (["cliques", "--space", "{space}",
                                       "--t", repr(K), *REGULARITY,
                                       "--out", "{out}/cliques.json",
                                       "--dot-before", "{out}/before.dot",
                                       "--dot-after",
                                       "{out}/missing/after.dot"],
                                      "missing"),
    "tree-out-is-a-directory": (["tree", "--space", "{space}", *UNIT,
                                 "--report", "{out}/report.json",
                                 "--out", "{out}"], "is a directory"),
}


@pytest.mark.parametrize("case", list(IO_EDGES))
def test_io_edge_exit_codes(case, param_files, capsys):
    flags, named = IO_EDGES[case]
    argv = [flag.format(**param_files) for flag in flags]
    assert main(argv) == 8
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and named.format(**param_files) in err
    assert list(Path(param_files["out"]).iterdir()) == []


# tree, graph and metric files that are JSON but lack the structure of
# their format exit 8 and name the file, as does a level that is not an
# integer; a parent that is not a node, or a repeated node id, is a tree
# error, exit 6
ROOT_NODE = {"id": "r", "parent": None, "level": 0}
BAD_FILES = {
    "three_end_graph": {"vertices": ["a", "b", "c"],
                        "measure": [0.3, 0.3, 0.4],
                        "edges": [["a", "b", "c"]]},
    "idless_tree": {"root": "r", "leaves": {"a": "a"},
                    "nodes": [ROOT_NODE, {"parent": "r", "level": 1}]},
    "orphan_tree": {"root": "r", "leaves": {"a": "a"},
                    "nodes": [ROOT_NODE,
                              {"id": "a", "parent": "zz", "level": 1}]},
    "ragged_metric": {"dist": [[0.0, 1.0], [1.0]]},
    "rooted_root_tree": {"root": "r", "leaves": {"a": "a"},
                         "nodes": [{"id": "r", "parent": "a", "level": 0},
                                   {"id": "a", "parent": "r", "level": 1}]},
    "unknown_vertex_graph": {"vertices": ["a", "b"], "measure": [0.5, 0.5],
                             "edges": [["a", "zz"]]},
    "stray_leaf_tree": {"root": "r", "leaves": {"a": "a", "b": "b", "zz": "c"},
                        "nodes": [ROOT_NODE,
                                  {"id": "a", "parent": "r", "level": 1},
                                  {"id": "b", "parent": "r", "level": 1}]},
    # the later record of "a" once won, and loaded "a" as a child of "u"
    "twice_named_tree": {"root": "r", "leaves": {"a": "a"},
                         "nodes": [ROOT_NODE,
                                   {"id": "a", "parent": "r", "level": 1},
                                   {"id": "u", "parent": "r", "level": 1},
                                   {"id": "a", "parent": "u", "level": 2}]},
    # levels of 1.9 and true once loaded as level 1
    "fractional_level_tree": {"root": "r", "leaves": {"a": "a"},
                              "nodes": [ROOT_NODE, {"id": "a", "parent": "r",
                                                    "level": 1.9}]},
    "bool_level_tree": {"root": "r", "leaves": {"a": "a"},
                        "nodes": [ROOT_NODE, {"id": "a", "parent": "r",
                                              "level": True}]},
}
ALPHA = ["--alpha", "0.3"]
FILE_EDGES = {
    "partition-edge-of-three-ends": (["partition", "--graph",
                                      "{three_end_graph}", *REGULARITY,
                                      "--out", "{out}/parts.json"], 8),
    "product-node-without-id": (["product", "--tree", "{idless_tree}",
                                 "--x", "a", "--y", "a"], 8),
    "eval-node-without-id": (["eval", "--space", "{tree_space}", "--tree",
                              "{idless_tree}", *ALPHA], 8),
    "convert-newick-node-without-id": (["convert", "--tree", "{idless_tree}",
                                        "--newick", "{out}/tree.nwk"], 8),
    "partition-edge-to-unknown-vertex": (["partition", "--graph",
                                          "{unknown_vertex_graph}",
                                          *REGULARITY, "--out",
                                          "{out}/parts.json"], 8),
    "product-root-with-a-parent": (["product", "--tree", "{rooted_root_tree}",
                                    "--x", "a", "--y", "a"], 6),
    "product-unknown-parent": (["product", "--tree", "{orphan_tree}",
                                "--x", "a", "--y", "a"], 6),
    "alpha-unknown-parent": (["alpha", "--space", "{tree_space}", "--tree",
                              "{orphan_tree}"], 6),
    # a leaf key that is no node would otherwise end in a KeyError
    "product-leaf-not-a-node": (["product", "--tree", "{stray_leaf_tree}",
                                 "--x", "c", "--y", "a"], 6),
    "product-repeated-node-id": (["product", "--tree", "{twice_named_tree}",
                                  "--x", "a", "--y", "a"], 6),
    "convert-newick-repeated-node-id": (["convert", "--tree",
                                         "{twice_named_tree}", "--newick",
                                         "{out}/tree.nwk"], 6),
    "product-fractional-level": (["product", "--tree",
                                  "{fractional_level_tree}", "--x", "a",
                                  "--y", "a"], 8),
    "eval-bool-level": (["eval", "--space", "{tree_space}", "--tree",
                         "{bool_level_tree}", *ALPHA], 8),
    "delta-ragged-metric": (["delta", "--metric", "{ragged_metric}"], 8),
    "delta-four-point-ragged-metric": (["delta", "--metric",
                                        "{ragged_metric}", "--four-point"],
                                       8),
    "convert-space-out-ragged-metric": (["convert", "--metric",
                                         "{ragged_metric}", "--space-out",
                                         "{out}/space.json"], 8),
}


@pytest.mark.parametrize("case", list(FILE_EDGES))
def test_malformed_file_exit_codes(case, param_files, capsys):
    flags, code = FILE_EDGES[case]
    argv = [flag.format(**param_files) for flag in flags]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert any(param_files[name] in err for name in BAD_FILES) == (code == 8)
    assert list(Path(param_files["out"]).iterdir()) == []


@pytest.mark.parametrize("tree, message", [
    ("twice_named_tree", "node id 'a' is repeated"),
    ("fractional_level_tree", "level 1.9 is not an integer"),
    ("bool_level_tree", "level True is not an integer"),
])
def test_tree_file_faults_are_named(tree, message, param_files, capsys):
    assert main(["product", "--tree", param_files[tree], "--x", "a",
                 "--y", "a"]) != 0
    assert message in capsys.readouterr().err


FIXTURE_ARGS = ["fixture", "--kind", "ultrametric", "--size", "4"]


class TestOutputTargets:
    """Targets that are not plain new files in a writable folder, for fixture
    and for hyp, whose --out goes through the same writer."""

    @pytest.fixture(params=["fixture", "hyp"])
    def command(self, request, tmp_path_factory):
        """The argv of a command without --out, and a key of its output."""
        if request.param == "fixture":
            return FIXTURE_ARGS, "points"
        space = tmp_path_factory.mktemp("input") / "space.json"
        write_json(space, edge_space())
        return ["hyp", "--space", str(space)], "hyp"

    def test_symlinked_target_is_written_through(self, command, tmp_path,
                                                 capsys):
        argv, key = command
        real = tmp_path / "real"
        real.mkdir()
        (real / "out.json").write_text("old\n")
        link = tmp_path / "out.json"
        link.symlink_to(real / "out.json")
        assert main(argv + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert key in read_json(real / "out.json")
        assert [p.name for p in real.iterdir()] == ["out.json"]

    def test_existing_target_keeps_its_mode(self, command, tmp_path, capsys):
        argv, key = command
        out = tmp_path / "out.json"
        out.write_text("old\n")
        out.chmod(0o640)
        assert main(argv + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert key in read_json(out)

    @staticmethod
    def write_to_pipe(tmp_path, argv):
        """Run argv with --out a pipe; return the exit code and the bytes
        the pipe received."""
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        # a reader that does not block lets the command open the pipe
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code = main(argv + ["--out", str(pipe)])
            try:
                data = os.read(reader, 1 << 16)
            except BlockingIOError:
                data = b""
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        return code, data

    def test_pipe_target_is_written_in_place(self, command, tmp_path, capsys):
        argv, key = command
        code, data = self.write_to_pipe(tmp_path, argv)
        assert code == 0
        assert key in json.loads(data)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_pipe_target_is_written_beside_a_file(self, tmp_path, capsys):
        code, data = self.write_to_pipe(tmp_path, FIXTURE_ARGS + [
            "--tree-out", str(tmp_path / "tree.json")])
        assert code == 0
        assert json.loads(data)["points"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe",
                                                              "tree.json"]

    def test_pipe_target_is_written_after_the_files(self, tmp_path, capsys):
        code, data = self.write_to_pipe(tmp_path, FIXTURE_ARGS + [
            "--tree-out", str(tmp_path / "missing" / "tree.json")])
        assert code == 8
        assert data == b""
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.fixture
def param_files(tmp_path):
    space = space_from_dict(edge_space())
    fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=6)
    files = {name: tmp_path / f"{name}.json"
             for name in ("space", "graph", "dup_graph", "tree", "tree_space",
                          "metric")}
    write_json(files["space"], space_to_dict(space))
    write_json(files["metric"], {"dist": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                                          [1.0, 1.0, 0.0]]})
    write_json(files["graph"], graph_to_dict(threshold_graph(space, K)))
    files["zero_mass_path"] = tmp_path / "zero_mass_path.json"
    write_json(files["zero_mass_path"], ZERO_MASS_PATH)
    write_json(files["dup_graph"], {"vertices": ["a", "b", "a"],
                                    "measure": [0.3, 0.3, 0.4],
                                    "edges": [["a", "b"]]})
    for kind, measure in MASS_GRAPHS.items():
        path = files[f"{kind}_mass_graph"] = tmp_path / f"{kind}_mass.json"
        # json.dumps writes NaN and Infinity as literals, which the reader takes
        path.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                    "measure": measure,
                                    "edges": [["a", "b"]]}))
    write_json(files["tree"], tree_to_dict(fx.tree))
    write_json(files["tree_space"], space_to_dict(fx.space))
    files["bound_2"] = tmp_path / "bound_2.json"
    write_json(files["bound_2"], edge_space(lambda d: (
        d.update(b=2.0, sim=[[2 * v for v in row] for row in d["sim"]]))))
    files["bound_2_tree"] = tmp_path / "bound_2_tree.json"
    write_json(files["bound_2_tree"], tree_to_dict(tree_from_levels(
        ("a", "b", "c", "d"), [[[0, 1], [2, 3]], [[0], [1], [2], [3]]])))
    for name, data in BAD_FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    files["latin1"] = tmp_path / "latin1.json"
    files["latin1"].write_bytes('{"points": ["\xe9"]}'.encode("latin-1"))
    files["out"] = tmp_path / "out"
    files["out"].mkdir()
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("case", list(PARAM_EDGES))
def test_param_edge_exit_codes(case, param_files, tmp_path, capsys):
    flags, code = PARAM_EDGES[case]
    argv = [flag.format(**param_files) for flag in flags]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag
        got = exc.code
    assert got == code
    assert capsys.readouterr().out == ""
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("case, message", [
    ("fixture-random-tree-out", "fixture: --tree-out is read only for kinds "
     "that plant a tree, not 'random'"),
    ("cliques-t-nan", "threshold nan outside (0, 1.0]"),
    ("convert-graph-out-t-zero", "threshold 0.0 outside (0, 1.0]"),
    ("partition-epsilon-without-a-bucket-width",
     "epsilon 1e-230 is too small: width 0.0"),
    ("ladder-bound-2", "threshold ladder requires a space rescaled to bound "
     "1"),
    ("eval-converse-bound-2", "converse check requires a space with bound 1"),
    ("spinglass-mcmc-beta-nan", "beta must be a number, got nan"),
    ("spinglass-exact-beta-nan", "beta must be a number, got nan"),
    ("spinglass-exact-beta-inf", "exact enumeration needs a finite beta, "
     "got inf"),
    ("spinglass-exact-beta-minus-inf", "exact enumeration needs a finite "
     "beta, got -inf"),
    ("spinglass-exact-beta-minus-inf-spaced", "exact enumeration needs a "
     "finite beta, got -inf"),
])
def test_rejection_names_its_cause(case, message, param_files, capsys):
    flags, code = PARAM_EDGES[case]
    assert main([flag.format(**param_files) for flag in flags]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def check_hyp_mc(stdout, out, files):
    value, mc = stdout.splitlines()
    data = read_json(out / "hyp.json")
    assert value == f"{data['hyp']:.6f}"
    assert mc == (f"mc {data['mc_estimate']:.6f} "
                  f"stderr {data['mc_stderr']:.2e}")


def check_delta(expected):
    def check(stdout, out, files):
        assert stdout == expected + "\n"
    return check


def check_delta_json(expected):
    def check(stdout, out, files):
        assert json.loads(stdout)["delta"] == expected
    return check


def check_ladder(stdout, out, files):
    space = space_from_dict(read_json(files["ultrametric"]))
    data = read_json(out / "ladder.json")
    assert stdout.startswith(f"kappa {data['kappa']:.6f} ")
    header, *rows = (out / "profile.csv").read_text().splitlines()
    assert header == "t,mass"
    ts, masses = np.array([[float(v) for v in row.split(",")]
                           for row in rows]).T
    assert np.array_equal(ts, np.unique(space.sim))
    assert profile_integral(ts, masses) == pytest.approx(data["hyp"],
                                                         abs=1e-15)


def check_same_as_out_file(command):
    def check(stdout, out, files):
        argv = [flag.format(**files) for flag in OUTPUT_RUNS[command][0]]
        assert main(argv + ["--out", str(out / "again.json")]) == 0
        printed = json.loads(stdout)
        written = read_json(out / "again.json")
        for data in (printed, written):
            data.pop("config")
        assert printed == written
    return check


def check_cliques_dots(stdout, out, files):
    check_same_as_out_file("cliques-stdout-dots")(stdout, out, files)
    graph = threshold_graph(space_from_dict(read_json(files["space"])), K)
    assert (out / "before.dot").read_text() == graph_to_dot(graph)
    assert (out / "after.dot").read_text().startswith("graph")


def check_spinglass_tree(stdout, out, files):
    tree = tree_from_dict(read_json(out / "tree.json"))
    assert len(tree.points) == json.loads(stdout)["n_states"]


def check_space_out(stdout, out, files):
    assert space_from_dict(read_json(out / "space.json")).n == 4


def check_split_copy_names(stdout, out, files):
    split = space_from_dict(read_json(out / "split.json"))
    assert split.points == ("a##0", "a##1", "a#0", "a###0", "a###1")
    assert read_json(out / "map.json") == {
        "a##0": "a", "a##1": "a", "a#0": "a#0", "a###0": "a#", "a###1": "a#"}
    assert main(["hyp", "--space", str(out / "split.json")]) == 0


def check_graph_outs(stdout, out, files):
    graph = threshold_graph(space_from_dict(read_json(files["space"])), K)
    assert (out / "graph.dot").read_text() == graph_to_dot(graph)
    back = graph_from_dict(read_json(out / "graph.json"))
    assert back.vertices == graph.vertices
    assert np.array_equal(back.mass, graph.mass)
    assert np.array_equal(back.adj, graph.adj)


# the four-cycle with unit sides: opposite pairs sum to 2, 2 and 4, and at
# base 0 the products (1|2) = (2|3) = 1 but (1|3) = 0, so both deltas are 1
SQUARE = [[0.0, 1.0, 2.0, 1.0], [1.0, 0.0, 1.0, 2.0],
          [2.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0]]
OUTPUT_RUNS = {
    # case: (flags, files written, check of stdout and files)
    "hyp-mc-plain-out": (["hyp", "--space", "{three}", "--mc", "200",
                          "--out", "{out}/hyp.json"], {"hyp.json"},
                         check_hyp_mc),
    "delta-metric": (["delta", "--metric", "{square}"], set(),
                     check_delta("1.000000")),
    "delta-metric-four-point": (["delta", "--metric", "{square}",
                                 "--four-point"], set(),
                                check_delta("1.000000")),
    "delta-space-json": (["delta", "--space", "{three}", "--format", "json"],
                         set(), check_delta_json(1.0)),
    "ladder-out-profile-csv": (["ladder", "--space", "{ultrametric}", *UNIT,
                                "--out", "{out}/ladder.json",
                                "--profile-csv", "{out}/profile.csv"],
                               {"ladder.json", "profile.csv"}, check_ladder),
    "partition-stdout": (["partition", "--graph", "{graph}", *REGULARITY],
                         set(), check_same_as_out_file("partition-stdout")),
    "cliques-stdout-dots": (["cliques", "--space", "{space}", "--t", repr(K),
                             *REGULARITY, "--dot-before", "{out}/before.dot",
                             "--dot-after", "{out}/after.dot"],
                            {"before.dot", "after.dot"}, check_cliques_dots),
    "spinglass-out": (["spinglass", "--n", "12", "--beta", "2.0", "--seed",
                       "3", "--mcmc", "30000", "--burn-in", "5000", "--thin",
                       "100", "--f", "abs", "--epsilon", "5.96e-8", "--m",
                       "4", "--delta0", "0.2", "--out", "{out}/tree.json"],
                      {"tree.json"}, check_spinglass_tree),
    # the copies of "a" skip the id "a#0", and those of "a#" skip theirs
    "split-copy-names": (["split", "--space", "{copy_names}", "--delta",
                          "0.3", "--out", "{out}/split.json", "--map",
                          "{out}/map.json"], {"split.json", "map.json"},
                         check_split_copy_names),
    "convert-space-out": (["convert", "--metric", "{square}", "--space-out",
                           "{out}/space.json"], {"space.json"},
                          check_space_out),
    "convert-dot-graph-out": (["convert", "--space", "{space}", "--t", repr(K),
                               "--dot", "{out}/graph.dot", "--graph-out",
                               "{out}/graph.json"],
                              {"graph.dot", "graph.json"}, check_graph_outs),
}


@pytest.fixture
def run_files(tmp_path):
    space = space_from_dict(edge_space())
    three = SimilaritySpace(
        points=("a", "b", "c"),
        weights=np.full(3, 1.0 / 3.0),
        sim=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
    )
    files = {name: tmp_path / f"{name}.json"
             for name in ("space", "three", "ultrametric", "graph", "square",
                          "copy_names")}
    write_json(files["space"], space_to_dict(space))
    write_json(files["three"], space_to_dict(three))
    write_json(files["copy_names"], space_to_dict(SimilaritySpace(
        points=("a", "a#0", "a#"), weights=np.array([0.4, 0.2, 0.4]),
        sim=np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]))))
    write_json(files["ultrametric"], space_to_dict(
        generate_fixture("ultrametric", 16, {}, 3).space))
    write_json(files["graph"], graph_to_dict(threshold_graph(space, K)))
    write_json(files["square"], {"dist": SQUARE})
    files["out"] = tmp_path / "out"
    files["out"].mkdir()
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("case", list(OUTPUT_RUNS))
def test_output_paths(case, run_files, capsys):
    flags, written, check = OUTPUT_RUNS[case]
    assert main([flag.format(**run_files) for flag in flags]) == 0
    out = run_files["out"]
    assert {p.name for p in Path(out).iterdir()} == written
    check(capsys.readouterr().out, Path(out), run_files)


def bad_metric(i, j, value, both=True):
    """The four-cycle with one entry (and its mirror) replaced."""
    dist = [row[:] for row in SQUARE]
    dist[i][j] = value
    if both:
        dist[j][i] = value
    return {"dist": dist}


METRIC_EDGES = {
    "asymmetric": bad_metric(0, 1, 1.5, both=False),
    "triangle-violating": bad_metric(0, 2, 3.0),
    "negative": bad_metric(1, 3, -1.0),
    "nonzero-diagonal": bad_metric(2, 2, 0.5),
    # json.dumps writes Infinity, which the reader takes; an infinite
    # distance is reported before the triangle check, whose slack would be
    # inf - inf, a NaN that fails no comparison
    "infinite": bad_metric(0, 1, INF),
    "infinite-three-point": {"dist": [[0.0, INF, INF], [INF, 0.0, INF],
                                      [INF, INF, 0.0]]},
}


@pytest.mark.parametrize("case", list(METRIC_EDGES))
def test_four_point_checks_the_metric(case, tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(METRIC_EDGES[case]))
    assert main(["delta", "--metric", str(path)]) == 2
    plain = capsys.readouterr()
    assert main(["delta", "--metric", str(path), "--four-point"]) == 2
    assert capsys.readouterr() == plain
    assert main(["convert", "--metric", str(path), "--space-out",
                 str(tmp_path / "space.json")]) == 2
    assert capsys.readouterr() == plain
    assert not (tmp_path / "space.json").exists()
    assert plain.out == "" and plain.err.startswith("error: ")
    if case.startswith("infinite"):
        assert plain.err == "error: distance inf at (0,1) is not finite\n"


# runs and how often they check a space: once for each space read or made.
# A split or a rescale to another bound makes a second space, and so does
# a build on a space with twins (``edge_space`` has two pairs), its quotient
VALIDATIONS = {
    "hyp": (["hyp", "--space", "{space}"], 1),
    "hyp-mc": (["hyp", "--space", "{space}", "--mc", "100"], 1),
    "delta-space": (["delta", "--space", "{space}"], 1),
    "delta-metric": (["delta", "--metric", "{metric}"], 1),
    "ladder": (["ladder", "--space", "{space}", *UNIT], 1),
    "ladder-profile-csv": (["ladder", "--space", "{space}", *UNIT,
                            "--profile-csv", "{out}/profile.csv"], 1),
    "cliques": (["cliques", "--space", "{space}", "--t", repr(K),
                 *REGULARITY], 1),
    "tree": (["tree", "--space", "{space}", *UNIT], 2),
    "eval": (EVAL + ALPHA, 1),
    "eval-converse": (EVAL + ALPHA + ["--converse"], 1),
    "alpha": (["alpha", "--space", "{tree_space}", "--tree", "{tree}"], 1),
    "split": (["split", "--space", "{space}", "--delta", "0.1"], 2),
    "convert-graph-out": (["convert", "--space", "{space}", "--t", repr(K),
                           "--graph-out", "{out}/graph.json"], 1),
    # a space of bound 1 is its own rescale
    "convert-rescale-out": (["convert", "--space", "{space}",
                             "--rescale-out", "{out}/unit.json"], 1),
    "convert-rescale-out-bound-2": (["convert", "--space", "{bound_2}",
                                     "--rescale-out", "{out}/unit.json"], 2),
    "convert-space-out": (["convert", "--metric", "{metric}", "--space-out",
                           "{out}/space.json"], 1),
    "fixture": (["fixture", "--kind", "ultrametric", "--size", "6",
                 "--out", "{out}/space.json"], 1),
}


@pytest.mark.parametrize("case", list(VALIDATIONS))
def test_each_space_is_validated_once(case, param_files, monkeypatch,
                                      capsys):
    flags, expected = VALIDATIONS[case]
    calls, groupings = [], []
    dedupe = treelike.core._dedupe_points

    def counting(space):
        calls.append(space)
        return validate_space(space)

    def grouping(space):
        groupings.append(space)
        return dedupe(space)

    # a space checks itself and groups its rows as it is made, through the
    # names in core
    monkeypatch.setattr(treelike.core, "validate_space", counting)
    monkeypatch.setattr(treelike.core, "_dedupe_points", grouping)
    assert main([flag.format(**param_files) for flag in flags]) == 0
    assert len(calls) == expected
    assert len(groupings) == expected
    assert all(g is c for g, c in zip(groupings, calls))


def test_module_entry_point(three_point_file, tmp_path):
    src = os.path.dirname(os.path.dirname(treelike.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(space):
        return subprocess.run(
            [sys.executable, "-m", "treelike.cli", "hyp", "--space", space],
            capture_output=True, text=True, env=env, cwd=tmp_path)

    good = run(str(three_point_file))
    assert (good.returncode, good.stdout, good.stderr) == (0, "0.074074\n", "")
    missing = str(tmp_path / "absent.json")
    bad = run(missing)
    assert (bad.returncode, bad.stdout) == (8, "")
    assert bad.stderr.startswith("error: ") and missing in bad.stderr


def test_readme_example_runs(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True)
                                  for line in lines) if argv]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "treelike"
        assert main(argv[1:]) == 0, argv


@pytest.mark.parametrize("tree, code", [("idless_tree", 8),
                                        ("orphan_tree", 6)])
def test_tree_file_error_comes_before_space_check(tree, code, param_files,
                                                  tmp_path, capsys):
    # the tree file is read first, and a space is checked as it is read,
    # so the tree's error comes before an invalid or a missing space's
    invalid = tmp_path / "invalid.json"
    write_json(invalid, edge_space(set_key("b", 0.0)))
    for space in (invalid, tmp_path / "missing.json"):
        for command in (["alpha"], ["eval", *ALPHA]):
            assert main([*command, "--space", str(space),
                         "--tree", param_files[tree]]) == code
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(space) not in err
