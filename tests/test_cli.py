import json
from pathlib import Path

import numpy as np
import pytest

from treelike import generate_fixture, profile_integral, treebuild, \
    validate_space
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
from treelike.core import SimilaritySpace, gromov_product_matrix, \
    threshold_graph
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

        def counting(tree, points):
            calls.append(tree)
            return gromov_product_matrix(tree, points)

        monkeypatch.setattr(treebuild, "gromov_product_matrix", counting)
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

    def test_missing_leaf_beats_bound_check(self, files, tmp_path):
        fx, _, tree_path = files
        sp = fx.space
        keep = list(range(1, sp.n))
        w = sp.weights[keep]
        other = SimilaritySpace(sp.points[1:], w / w.sum(),
                                2.0 * sp.sim[np.ix_(keep, keep)], 2.0)
        other_path = tmp_path / "other.json"
        write_json(other_path, space_to_dict(other))
        for flags in ([], ["--converse"]):
            assert main(["eval", "--space", str(other_path), "--tree",
                         str(tree_path), "--alpha", "0.3", *flags]) == 6


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
    "missing-sim": (edge_space(lambda d: d.pop("sim")), 8),
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


SPINGLASS_ARGS = ["spinglass", "--n", "8", "--beta", "0.5", "--seed", "3",
                  "--f", "abs", "--epsilon", "5.96e-8", "--m", "4",
                  "--delta0", "0.2"]
SCHEDULE_EDGES = {
    "negative-burn-in": (["--mcmc", "300", "--burn-in", "-50"], 7),
    "burn-in-equals-steps": (["--mcmc", "300", "--burn-in", "300"], 7),
    "zero-thin": (["--mcmc", "300", "--burn-in", "50", "--thin", "0"], 7),
    "negative-thin": (["--mcmc", "300", "--burn-in", "50", "--thin", "-1"],
                      7),
}


@pytest.mark.parametrize("case", list(SCHEDULE_EDGES))
def test_spinglass_schedule_exit_codes(case, capsys):
    flags, code = SCHEDULE_EDGES[case]
    assert main(SPINGLASS_ARGS + flags) == code
    assert "need steps > burn_in >= 0 and thin >= 1" in capsys.readouterr().err


UNIT = ["--epsilon", "1e-12", "--m", "16"]
MASS_GRAPHS = {"nan": [NAN, 0.5, 0.5], "inf": [float("inf"), 0.5, 0.5],
               "negative": [-0.1, 0.6, 0.5]}
TREE_OUTS = ["--out", "{out}/tree.json", "--report", "{out}/report.json",
             "--newick", "{out}/tree.nwk"]
EVAL = ["eval", "--space", "{tree_space}", "--tree", "{tree}"]
REGULARITY = ["--epsilon", "0.2", "--m", "4"]
PARAM_EDGES = {
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
    # Gibbs weights leave a two-state clique below the group-mass floor
    "spinglass-light-clique": (["spinglass", "--n", "6", "--beta", "1.0",
                                "--seed", "2", "--epsilon", "5.96e-8",
                                "--m", "4", "--delta0", "0.2",
                                "--out", "{out}/tree.json",
                                "--report", "{out}/report.json"], 10),
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
    "partition-mode": (["partition", "--graph", "{graph}", *REGULARITY,
                        "--mode", "practical", "--out", "{out}/parts.json",
                        "--dot", "{out}/parts.dot"], 2),
    "cliques-mode": (["cliques", "--space", "{space}", "--t", repr(K),
                      *REGULARITY, "--mode", "practical",
                      "--out", "{out}/cliques.json"], 2),
    "tree-mode": (["tree", "--space", "{space}", *UNIT,
                   "--mode", "practical", *TREE_OUTS], 2),
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
}


@pytest.mark.parametrize("case", list(IO_EDGES))
def test_io_edge_exit_codes(case, param_files, capsys):
    flags, named = IO_EDGES[case]
    argv = [flag.format(**param_files) for flag in flags]
    assert main(argv) == 8
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(**param_files) in err
    assert list(Path(param_files["out"]).iterdir()) == []


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
    assert len(tree.leaf_points) == json.loads(stdout)["n_states"]


def check_space_out(stdout, out, files):
    space = space_from_dict(read_json(out / "space.json"))
    validate_space(space)
    assert space.n == 4


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
             for name in ("space", "three", "ultrametric", "graph", "square")}
    write_json(files["space"], space_to_dict(space))
    write_json(files["three"], space_to_dict(three))
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
