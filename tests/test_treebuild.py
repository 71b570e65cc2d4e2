import dataclasses
import math
import pickle

import numpy as np
import pytest

from treelike import (
    CompatibleTree,
    SimilaritySpace,
    best_alpha,
    build_tree,
    converse_check,
    gromov_delta_worst_case,
    gromov_product_matrix,
    hyp_exact,
    merge_tree_leaves,
    space_from_tree,
    split_atoms,
    tree_cost,
    validate_tree,
)
from treelike import cliques, core, hyperbolicity, regularity, treebuild
from treelike.core import rescale_to_unit, validate_space
from treelike.cliques import ModificationLog
from treelike.core import WeightedGraph
from treelike.errors import BadParams, Delta0TooLarge, LeafMismatch, \
    MapMismatch, WeightSumMismatch
from treelike.io import dump_json, tree_to_dict
from treelike.regularity import RegularityParams
from treelike.fixtures import (
    noisy_tree_fixture,
    planted_blocks_fixture,
    random_fixture,
    tree_scaled_fixture,
    ultrametric_fixture,
)

EPS, M = 1e-12, 16
KAPPA = max(EPS ** (1 / 24), M ** -0.5)


def direct_cost(space, tree, alpha):
    prod = gromov_product_matrix(tree, space.points)
    total = 0.0
    for i in range(space.n):
        for j in range(space.n):
            total += (space.weights[i] * space.weights[j]
                      * abs(space.sim[i, j] - alpha * prod[i, j]))
    return total


class TestBuildTree:
    def test_zero_similarity_space(self):
        n = 18
        space = SimilaritySpace(tuple(f"p{i}" for i in range(n)),
                                np.full(n, 1.0 / n), np.zeros((n, n)), 1.0)
        report = build_tree(space, EPS, M, seed=0)
        validate_tree(report.tree)
        assert report.tree.depth() <= 2
        assert report.best_alpha == 0.0
        assert report.best_cost == 0.0
        assert report.cost == pytest.approx(
            direct_cost(space, report.tree, report.kappa), abs=1e-15)
        assert not report.sandwich_violations

    def test_planted_hierarchy_recovered(self):
        fx = ultrametric_fixture(27, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=7)
        report = build_tree(fx.space, EPS, M, seed=0)
        validate_tree(report.tree)
        assert report.best_cost <= report.kappa + report.delta0
        assert not report.sandwich_violations
        # the recovered level partitions equal the planted nested blocks
        planted = gromov_product_matrix(fx.tree, fx.space.points)
        built = gromov_product_matrix(report.tree, fx.space.points)
        off = ~np.eye(27, dtype=bool)
        assert np.array_equal(planted[off], built[off])

    def test_products_built_once(self, monkeypatch):
        calls = []

        def counting(tree, points):
            calls.append(tree)
            return gromov_product_matrix(tree, points)

        monkeypatch.setattr(treebuild, "gromov_product_matrix", counting)
        fx = ultrametric_fixture(27, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=7)
        report = build_tree(fx.space, EPS, M, seed=0)
        assert len(calls) == 1
        assert report.cost == tree_cost(fx.space, report.tree, report.kappa)
        assert (report.best_alpha, report.best_cost) \
            == best_alpha(fx.space, report.tree)

    def test_build_never_computes_the_full_profile(self, monkeypatch):
        def refuse(space):
            raise AssertionError("bad_set_profile called on the build path")

        monkeypatch.setattr(hyperbolicity, "bad_set_profile", refuse)
        fx = noisy_tree_fixture(40, 3, KAPPA, 1e-4, seed=1, weights="random")
        report = build_tree(rescale_to_unit(fx.space), EPS, M, seed=0,
                            delta0=0.05)
        assert report.n_repairs > 0

    def test_space_validated_once(self, monkeypatch):
        calls = []

        def counting(space):
            calls.append(space)
            validate_space(space)

        for module in (core, hyperbolicity, treebuild, regularity, cliques):
            if hasattr(module, "validate_space"):
                monkeypatch.setattr(module, "validate_space", counting)
        fx = ultrametric_fixture(27, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=7)
        build_tree(fx.space, EPS, M, seed=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("change, kwargs, error, message", [
        # each case breaks two checks; the first in the old order wins
        ({"weights": np.full(27, 0.5)}, {"delta0": -1.0}, WeightSumMismatch,
         "weights sum to"),
        ({"bound": 2.0}, {"epsilon": -1.0}, BadParams, "rescaled to bound 1"),
        ({}, {"epsilon": 0.5, "delta0": -1.0}, BadParams, "epsilon must be"),
        ({}, {"m": 1, "delta0": -1.0}, BadParams, "m must be"),
        ({}, {"delta0": -1.0}, BadParams, "delta0 must be positive"),
        ({}, {"delta0": 0.2}, Delta0TooLarge, "delta0=0.2"),
    ])
    def test_errors_keep_their_order(self, change, kwargs, error, message):
        fx = ultrametric_fixture(27, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=7)
        space = dataclasses.replace(fx.space, **change)
        args = {"epsilon": EPS, "m": M, "seed": 0, **kwargs}
        with pytest.raises(error, match=message):
            build_tree(space, **args)

    def test_products_within_level_range(self):
        fx = tree_scaled_fixture(30, depth=2, alpha=KAPPA, seed=3)
        report = build_tree(fx.space, EPS, M, seed=0)
        prod = gromov_product_matrix(report.tree, fx.space.points)
        n_levels = report.ladder.n_levels
        assert prod.min() >= 0
        assert prod.max() <= n_levels + 1

    def test_levels_nest(self):
        fx = ultrametric_fixture(40, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=9)
        report = build_tree(fx.space, EPS, M, seed=0)
        for upper, lower in zip(report.levels, report.levels[1:]):
            for cluster in lower:
                members = set(cluster)
                assert any(members <= set(parent) for parent in upper)
        assert all(len(c) == 1 for c in report.levels[-1])

    def test_cost_bound_holds(self):
        for seed in range(3):
            fx = tree_scaled_fixture(24, depth=2, alpha=KAPPA, seed=seed)
            report = build_tree(fx.space, EPS, M, seed=seed)
            assert report.cost_bound_ok
            collision = float((fx.space.weights ** 2).sum())
            bound = (report.kappa + report.delta0
                     + (1.0 + report.kappa)
                     * (report.delta_e_total + collision))
            assert report.cost <= bound + 1e-9

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("weights", ["uniform", "random"])
    def test_build_reads_no_part_order(self, monkeypatch, seed, weights):
        # the forced partition lists single points in index order; the
        # spectral path lists the isolated points of a sparse cluster
        # together, at the first of them, and the report must not differ
        reordered = []
        pipeline = treebuild.regularity_pipeline

        def spectral(graph, params, seed):
            forced = pipeline(graph, params, seed=seed)
            with monkeypatch.context() as mp:
                mp.setattr(regularity, "_forced_refinement", lambda *a: None)
                full = pipeline(graph, params, seed=seed)
            assert forced.params["forced"] and not full.params["forced"]
            reordered.append(full.parts != forced.parts)
            return full

        space = planted_blocks_fixture(40, 3, seed, weights=weights).space
        expected = build_tree(space, EPS, M, seed=1, delta0=0.12)
        monkeypatch.setattr(treebuild, "regularity_pipeline", spectral)
        got = build_tree(space, EPS, M, seed=1, delta0=0.12)
        assert any(reordered)
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_determinism(self):
        fx = ultrametric_fixture(20, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=4)
        a = build_tree(fx.space, EPS, M, seed=3)
        b = build_tree(fx.space, EPS, M, seed=3)
        assert a.tree == b.tree
        assert a.cost == b.cost
        assert a.levels == b.levels


class TestTreeCost:
    def test_exact_tree_space_zero(self):
        fx = tree_scaled_fixture(14, depth=2, alpha=1.0, seed=5)
        space = space_from_tree(fx.tree, alpha=0.25)
        assert tree_cost(space, fx.tree, 0.25) == 0.0

    def test_alpha_zero_gives_mean_similarity(self):
        fx = tree_scaled_fixture(10, depth=2, alpha=0.3, seed=6)
        sp = fx.space
        expected = float(sp.weights @ sp.sim @ sp.weights)
        assert tree_cost(sp, fx.tree, 0.0) == pytest.approx(expected,
                                                            abs=1e-15)

    def test_matches_direct_sum(self):
        fx = random_fixture(9, seed=2, weights="random")
        base = tree_scaled_fixture(9, depth=2, alpha=0.2, seed=2)
        sp = SimilaritySpace(base.space.points, fx.space.weights,
                             fx.space.sim, 1.0)
        for alpha in (0.0, 0.17, 0.5):
            assert tree_cost(sp, base.tree, alpha) == pytest.approx(
                direct_cost(sp, base.tree, alpha), abs=1e-14)

    def test_convex_in_alpha(self):
        fx = random_fixture(10, seed=8)
        base = tree_scaled_fixture(10, depth=3, alpha=0.2, seed=8)
        sp = SimilaritySpace(base.space.points, fx.space.weights,
                             fx.space.sim, 1.0)
        grid = np.linspace(0.0, 1.0, 101)
        vals = [tree_cost(sp, base.tree, a) for a in grid]
        for k in range(1, 100):
            assert vals[k] <= 0.5 * (vals[k - 1] + vals[k + 1]) + 1e-12

    def test_leaf_mismatch(self):
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=1)
        other = random_fixture(9, seed=1)
        with pytest.raises(LeafMismatch):
            tree_cost(other.space, fx.tree, 0.1)


class TestBestAlpha:
    def test_exact_scaled_tree(self):
        fx = tree_scaled_fixture(16, depth=2, alpha=1.0, seed=12)
        space = space_from_tree(fx.tree, alpha=0.37)
        alpha, cost = best_alpha(space, fx.tree)
        assert alpha == pytest.approx(0.37, abs=1e-15)
        assert cost == 0.0

    def test_zero_similarity_gives_zero(self):
        n = 8
        base = tree_scaled_fixture(n, depth=2, alpha=0.3, seed=2)
        space = SimilaritySpace(base.space.points, base.space.weights,
                                np.zeros((n, n)), 1.0)
        alpha, cost = best_alpha(space, base.tree)
        assert alpha == 0.0
        assert cost == 0.0

    def test_beats_grid(self):
        for seed in range(5):
            fx = random_fixture(10, seed=seed, weights="random")
            base = tree_scaled_fixture(10, depth=3, alpha=0.2, seed=seed)
            sp = SimilaritySpace(base.space.points, fx.space.weights,
                                 fx.space.sim, 1.0)
            alpha, cost = best_alpha(sp, base.tree)
            grid = np.linspace(0.0, 2.0, 2001)
            grid_costs = [tree_cost(sp, base.tree, a) for a in grid]
            assert cost <= min(grid_costs) + 1e-12


class TestSplitAtoms:
    def test_arithmetic_example(self):
        space = SimilaritySpace(("a", "b"), np.array([0.9, 0.1]),
                                np.array([[1.0, 0.2], [0.2, 1.0]]), 1.0)
        split, mapping = split_atoms(space, 0.25)
        assert split.n == 5
        counts = {}
        for cp, orig in mapping.items():
            counts[orig] = counts.get(orig, 0) + 1
        assert counts == {"a": 4, "b": 1}
        assert split.weights.max() == pytest.approx(0.225, abs=1e-15)
        assert split.weights.max() < 0.25

    def test_identity_split(self):
        fx = random_fixture(6, seed=1)
        split, mapping = split_atoms(fx.space, 0.5)
        assert split.n == fx.space.n
        assert list(split.points) == list(fx.space.points)

    def test_similarity_inherited_including_diagonal(self):
        fx = random_fixture(5, seed=3)
        split, mapping = split_atoms(fx.space, 0.1)
        orig_index = {p: i for i, p in enumerate(fx.space.points)}
        for i, u in enumerate(split.points):
            for j, v in enumerate(split.points):
                oi, oj = orig_index[mapping[u]], orig_index[mapping[v]]
                assert split.sim[i, j] == fx.space.sim[oi, oj]

    def test_preserves_defects_exactly(self):
        for seed in range(5):
            fx = random_fixture(8, seed=seed, weights="dyadic")
            split, _ = split_atoms(fx.space, 0.07)
            assert hyp_exact(split) == hyp_exact(fx.space)
            assert gromov_delta_worst_case(split) == \
                gromov_delta_worst_case(fx.space)


def merge_loop(tree, copy_map, seed):
    leaves = set(tree.leaf_points.values())
    if leaves != set(copy_map):
        raise MapMismatch("copy map does not match the tree leaves")
    by_origin = {}
    for cp, orig in copy_map.items():
        by_origin.setdefault(orig, []).append(cp)
    rng = np.random.default_rng(seed)
    kept = {}
    for orig, copies in by_origin.items():
        kept[copies[int(rng.integers(len(copies)))]] = orig

    keep_nodes = set()
    for leaf_node, point in tree.leaf_points.items():
        if point in kept:
            node = leaf_node
            while True:
                keep_nodes.add(node)
                if node == tree.root:
                    break
                node = tree.parent[node]

    parent = {}
    level = {}
    leaf_points = {}
    rename = {}
    for leaf_node, point in tree.leaf_points.items():
        if point in kept:
            rename[leaf_node] = kept[point]
    for node in tree.level:
        if node not in keep_nodes:
            continue
        name = rename.get(node, node)
        level[name] = tree.level[node]
        if node != tree.root:
            parent[name] = rename.get(tree.parent[node], tree.parent[node])
    for leaf_node, point in tree.leaf_points.items():
        if point in kept:
            leaf_points[kept[point]] = kept[point]
    return CompatibleTree(
        root=tree.root, parent=parent, level=level, leaf_points=leaf_points
    )


def tree_items(tree):
    """Every field of a tree with dict insertion order, plus its file bytes."""
    return (tree.root, list(tree.parent.items()), list(tree.level.items()),
            list(tree.leaf_points.items()), dump_json(tree_to_dict(tree)))


def relabel_leaves(tree):
    """The same tree with every leaf node renamed away from its point."""
    name = {leaf: f"leaf:{leaf}" for leaf in tree.leaf_points}
    return CompatibleTree(
        root=tree.root,
        parent={name.get(v, v): u for v, u in tree.parent.items()},
        level={name.get(v, v): d for v, d in tree.level.items()},
        leaf_points={name[v]: p for v, p in tree.leaf_points.items()},
    )


class TestMergeLeaves:
    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_matches_loop_on_seeded_splits(self, n):
        for seed in range(3):
            fx = tree_scaled_fixture(n, depth=2, alpha=KAPPA, seed=seed)
            for delta in (0.5, 0.1, 0.03):
                split, mapping = split_atoms(fx.space, delta)
                tree = build_tree(split, EPS, M, seed=seed).tree
                for t in (tree, relabel_leaves(tree)):
                    for merge_seed in range(3):
                        got = merge_tree_leaves(t, mapping, merge_seed)
                        validate_tree(got)
                        assert tree_items(got) == tree_items(
                            merge_loop(t, mapping, merge_seed))

    def test_identity_split_round_trip(self):
        fx = tree_scaled_fixture(10, depth=2, alpha=0.3, seed=4)
        _, mapping = split_atoms(fx.space, 1.0)  # every k(x) = 1
        merged = merge_tree_leaves(fx.tree, mapping, seed=0)
        assert merged == fx.tree

    def test_deterministic(self):
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=4)
        split, mapping = split_atoms(fx.space, 0.05)
        report = build_tree(split, EPS, M, seed=0)
        a = merge_tree_leaves(report.tree, mapping, seed=11)
        b = merge_tree_leaves(report.tree, mapping, seed=11)
        assert a == b
        validate_tree(a)
        assert set(a.leaf_points.values()) == set(fx.space.points)

    def test_distances_to_root_unchanged(self):
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=4)
        split, mapping = split_atoms(fx.space, 0.05)
        report = build_tree(split, EPS, M, seed=0)
        merged = merge_tree_leaves(report.tree, mapping, seed=5)
        for leaf, point in merged.leaf_points.items():
            assert merged.level[leaf] >= 1

    def test_map_mismatch(self):
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=4)
        with pytest.raises(MapMismatch):
            merge_tree_leaves(fx.tree, {"nope": "p0"}, seed=0)

    def test_expected_cost_matches_split_cost(self):
        # Monte Carlo over representative choices against the exact
        # marginalized cost of the split space
        fx = tree_scaled_fixture(6, depth=2, alpha=KAPPA, seed=2)
        split, mapping = split_atoms(fx.space, 0.08)
        report = build_tree(split, EPS, M, seed=0)
        alpha = report.kappa
        prod = gromov_product_matrix(report.tree, split.points)
        sidx = {p: i for i, p in enumerate(split.points)}
        copies = {}
        for cp, orig in mapping.items():
            copies.setdefault(orig, []).append(cp)
        pts = fx.space.points
        oidx = {p: i for i, p in enumerate(pts)}
        exact = 0.0
        for x in pts:
            for y in pts:
                w = fx.space.weights[oidx[x]] * fx.space.weights[oidx[y]]
                if x == y:
                    terms = [
                        abs(fx.space.sim[oidx[x], oidx[x]]
                            - alpha * prod[sidx[c], sidx[c]])
                        for c in copies[x]
                    ]
                else:
                    terms = [
                        abs(fx.space.sim[oidx[x], oidx[y]]
                            - alpha * prod[sidx[cx], sidx[cy]])
                        for cx in copies[x] for cy in copies[y]
                    ]
                exact += w * sum(terms) / len(terms)
        draws = []
        for seed in range(200):
            merged = merge_tree_leaves(report.tree, mapping, seed=seed)
            draws.append(tree_cost(fx.space, merged, alpha))
        draws = np.array(draws)
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - exact) <= 3.0 * stderr + 1e-12


class TestConverse:
    def test_exact_tree_tight_at_zero(self):
        fx = tree_scaled_fixture(12, depth=2, alpha=KAPPA, seed=3)
        space = space_from_tree(fx.tree, alpha=KAPPA)
        rescaled = SimilaritySpace(space.points, space.weights,
                                   space.sim / space.bound, 1.0)
        alpha, _ = best_alpha(rescaled, fx.tree)
        report = converse_check(rescaled, fx.tree, alpha)
        assert report.cost == 0.0
        assert report.hyp == 0.0
        assert report.passed

    def test_noisy_tree_positive_margin(self):
        from treelike.fixtures import noisy_tree_fixture
        fx = noisy_tree_fixture(20, depth=2, alpha=0.3, noise=0.01, seed=6)
        alpha, _ = best_alpha(fx.space, fx.tree)
        report = converse_check(fx.space, fx.tree, alpha)
        assert report.passed
        assert report.margin > 0

    def test_every_build_passes(self):
        for seed in range(3):
            fx = ultrametric_fixture(24, [KAPPA, 2 * KAPPA, 3 * KAPPA],
                                     seed=seed)
            report = build_tree(fx.space, EPS, M, seed=seed)
            out = converse_check(fx.space, report.tree, report.kappa)
            assert out.passed


def with_rogues(n, r, seed):
    """A planted ultrametric space plus r rogue points, relabelled by a seeded
    permutation.  A rogue point has similarity 3 kappa to every point and
    weight 1e-7 before renormalising, so at delta0 = 0.05 the rogue points
    are the exceptional set."""
    fx = ultrametric_fixture(n, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=seed)
    sim = np.full((n + r, n + r), 3 * KAPPA)
    sim[:n, :n] = fx.space.sim
    w = np.concatenate([fx.space.weights, np.full(r, 1e-7)])
    points = fx.space.points + tuple(f"rogue{i}" for i in range(r))
    perm = np.random.default_rng(seed).permutation(n + r)
    return SimilaritySpace(tuple(points[i] for i in perm), w[perm] / w.sum(),
                           sim[np.ix_(perm, perm)], 1.0)


class TestLevelLoop:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_exceptional_points_are_last_level1_leaves(self, r):
        for seed in range(3):
            space = with_rogues(20, r, seed)
            report = build_tree(space, EPS, M, seed=seed, delta0=0.05)
            validate_tree(report.tree)
            rogues = tuple(p for p in space.points if p.startswith("rogue"))
            assert report.excluded_points == rogues
            row = report.levels[1]
            assert row[-r:] == tuple((p,) for p in rogues)
            assert all(not p.startswith("rogue")
                       for cluster in row[:-r] for p in cluster)
            root = report.tree.root
            for p in rogues:
                assert report.tree.parent[p] == root
                assert report.tree.level[p] == 1
            children = [node for node, par in report.tree.parent.items()
                        if par == root]
            assert children[-r:] == list(rogues)

    def test_one_point_build(self):
        for name, root in (("a", "@0.0"), ("@x", "@@0.0")):
            space = SimilaritySpace((name,), np.ones(1),
                                    np.full((1, 1), 0.3), 1.0)
            report = build_tree(space, EPS, M)
            assert report.levels == (((name,),), ((name,),))
            assert report.tree.root == root
            assert report.tree.parent == {name: root}
            assert report.tree.level == {root: 0, name: 1}
            assert report.n_repairs == 0
            assert report.excluded_points == ()

    def test_repair_seeds_and_node_ids_follow_row_order(self, monkeypatch):
        calls = []
        repair = treebuild._repair_cluster

        def recording(space, idxs, t, params, seed):
            calls.append((seed, tuple(space.points[i] for i in idxs)))
            return repair(space, idxs, t, params, seed)

        monkeypatch.setattr(treebuild, "_repair_cluster", recording)
        fx = ultrametric_fixture(40, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=9)
        report = build_tree(fx.space, EPS, M, seed=5)
        assert calls[0] == ((5, 1, 0), fx.space.points)
        assert report.n_repairs == len(calls)
        tree = report.tree
        for depth in range(1, report.ladder.n_levels + 1):
            internal = sorted((node for node in tree.level
                               if tree.level[node] == depth
                               and node not in tree.leaf_points),
                              key=lambda u: int(u.split(".")[1]))
            assert internal == [f"@{depth}.{k}" for k in range(len(internal))]
            rows = [c for c in report.levels[depth] if len(c) > 1]
            assert len(rows) == len(internal)
            repaired = [(seed, pts) for seed, pts in calls
                        if seed[1] == depth + 1]
            if depth < report.ladder.n_levels:
                assert repaired == [((5, depth + 1, k), c)
                                    for k, c in enumerate(rows)]


def clusters_loop(repaired, idxs):
    """Connected components of the repaired graph by depth-first search, in
    global indices, sorted."""
    local = {v: idxs[k] for k, v in enumerate(repaired.vertices)}
    seen = np.zeros(repaired.n, dtype=bool)
    children = []
    for s in range(repaired.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        members = [s]
        while stack:
            u = stack.pop()
            for v in np.nonzero(repaired.adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    members.append(int(v))
                    stack.append(int(v))
        children.append(sorted(local[repaired.vertices[k]] for k in members))
    children.sort()
    return children


class TestClustersAgainstLoop:
    def test_seeded_clique_unions(self, monkeypatch):
        rng = np.random.default_rng(0)
        made = []

        def clique_union(graph, partition, structure, epsilon):
            # random groups, some of one point, plus isolated points
            labels = rng.integers(-1, max(1, graph.n // 3), size=graph.n)
            adj = (labels[:, None] == labels[None, :]) & (labels[:, None] >= 0)
            np.fill_diagonal(adj, False)
            made.append(WeightedGraph(graph.vertices, graph.mass, adj))
            return made[-1], ModificationLog({}, {}, 0.0)

        for stage in ("regularity_pipeline", "part_neighbor_graph",
                      "neighborhood_family", "clique_closure"):
            monkeypatch.setattr(treebuild, stage, lambda *a, **k: None)
        monkeypatch.setattr(treebuild, "clique_repair", clique_union)
        space = random_fixture(60, seed=1).space
        params = RegularityParams(epsilon=EPS, m=M)
        isolated = 0
        for trial in range(200):
            size = int(rng.integers(1, 61))
            idxs = sorted(rng.choice(60, size=size, replace=False).tolist())
            children, edited = treebuild._repair_cluster(
                space, idxs, 0.5, params, (0, 1, trial))
            assert children == clusters_loop(made[-1], idxs)
            assert edited == []
            isolated += sum(len(c) == 1 for c in children)
        assert isolated > 0
