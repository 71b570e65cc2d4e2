import dataclasses
import math
import pickle
import types
from collections import Counter

import numpy as np
import pytest

from treelike import (
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
from treelike.errors import BadParams, BlowupTooLarge, Delta0TooLarge, \
    LeafMismatch, LightClique, MapMismatch, TreelikeError, WeightSumMismatch
from treelike.io import dump_json, tree_from_dict, tree_to_dict, \
    tree_to_newick
from treelike.regularity import RegularityParams
from treelike.spinglass import gibbs_exact, overlap_map, overlap_space, \
    pure_state_tree, sk_couplings
from treelike.fixtures import (
    noisy_tree_fixture,
    planted_blocks_fixture,
    random_fixture,
    tree_scaled_fixture,
    ultrametric_fixture,
)

EPS, M = 1e-12, 16
KAPPA = max(EPS ** (1 / 24), M ** -0.5)


def checked_spaces(monkeypatch):
    """The list of spaces checked from now on, in the order checked."""
    calls = []

    def counting(space):
        calls.append(space)
        validate_space(space)

    monkeypatch.setattr(core, "validate_space", counting)
    return calls


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

        def counting(tree, nodes):
            calls.append(nodes.tolist())
            return core._products(tree, nodes)

        monkeypatch.setattr(treebuild, "_products", counting)
        fx = ultrametric_fixture(27, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=7)
        report = build_tree(fx.space, EPS, M, seed=0)
        # the build, tree_cost and best_alpha each form the products once,
        # on the leaf of the first point of each group of one row and one
        # parent
        assert report.cost == tree_cost(fx.space, report.tree, report.kappa)
        assert (report.best_alpha, report.best_cost) \
            == best_alpha(fx.space, report.tree)
        tree = report.tree
        seen, reps = set(), []
        for row, leaf in zip(fx.space.sim, tree.leaf.tolist()):
            key = (row.tobytes(), int(tree.parent[leaf]))
            if key not in seen:
                seen.add(key)
                reps.append(leaf)
        assert calls == [reps] * 3
        assert len(reps) < fx.space.n

    def test_build_never_computes_the_full_profile(self, monkeypatch):
        def refuse(space):
            raise AssertionError("bad_set_profile called on the build path")

        monkeypatch.setattr(hyperbolicity, "bad_set_profile", refuse)
        fx = noisy_tree_fixture(40, 3, KAPPA, 1e-4, seed=1, weights="random")
        report = build_tree(rescale_to_unit(fx.space), EPS, M, seed=0,
                            delta0=0.05)
        assert report.n_repairs > 0

    @pytest.mark.parametrize("make, delta0", [
        (lambda: ultrametric_fixture(27, [KAPPA, 2 * KAPPA, 3 * KAPPA],
                                     seed=7).space, None),
        (lambda: with_false_twins(30, 1), 0.05),
        (lambda: planted_blocks_fixture(40, 3, 0).space, 0.12),
    ], ids=["twins", "false-twins", "d = n"])
    def test_space_validated_once(self, monkeypatch, make, delta0):
        # the space is checked as it is made, and the build checks only the
        # quotient of twin classes that it makes, where there are fewer
        # classes than points
        calls = checked_spaces(monkeypatch)
        space = make()
        made = len(calls)
        report = build_tree(space, EPS, M, seed=0, delta0=delta0)
        assert report.n_repairs > 0
        d = twin_class_count(space)
        assert [s.n for s in calls[made:]] == ([d] if d < space.n else [])
        assert sum(s is space for s in calls) == 1

    def test_quotient_shares_the_distinct_similarity(self, monkeypatch):
        # every distinct row is a twin row, so the quotient's points are the
        # distinct rows and its similarity is theirs, not a copy
        calls = checked_spaces(monkeypatch)
        fx = ultrametric_fixture(27, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=7)
        made = len(calls)
        build_tree(fx.space, EPS, M, seed=0)
        [quotient] = calls[made:]
        w, s, _ = fx.space.distinct
        assert quotient.n == len(w) < fx.space.n
        assert np.shares_memory(quotient.sim, s)
        assert np.array_equal(quotient.weights, w)

    @pytest.mark.parametrize("change, kwargs, error, message", [
        # each case breaks two checks; the first in the old order wins, and
        # an invalid space fails as it is made, before the build runs
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
        args = {"epsilon": EPS, "m": M, "seed": 0, **kwargs}
        with pytest.raises(error, match=message):
            build_tree(dataclasses.replace(fx.space, **change), **args)

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
        # every repair runs the pipeline, as where the scan guard fails
        monkeypatch.setattr(treebuild, "SCAN_FREE_POINTS", 0)
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


def oracle_repair(space, idxs, t, params, seed, sizes=None):
    """The full chain on one cluster of space points: its threshold graph,
    ``regularity_pipeline`` and the four clique stages, always run.  Returns
    the children (global index lists, sorted) and the edited pairs i < j as
    global (rows, cols)."""
    graph = core.threshold_graph(space, t, subset=idxs)
    partition = regularity.regularity_pipeline(graph, params, seed=seed)
    pg = cliques.part_neighbor_graph(partition, params.epsilon)
    family = cliques.neighborhood_family(pg, params.epsilon)
    structure = cliques.clique_closure(family, pg, params.epsilon)
    repaired, log = cliques.clique_repair(
        graph, partition, structure, params.epsilon,
        None if sizes is None else np.asarray(sizes)[idxs])
    take = np.asarray(idxs, dtype=int)
    rows, cols = map(np.concatenate, zip(*log.edits.values()))
    return clusters_loop(repaired, idxs), (take[rows], take[cols])


def full_build_reference(space, epsilon, m, seed=0, delta0=None):
    """The level loop on all n points, with n x n edits and products: every
    pending cluster of two or more points runs the full chain
    (``oracle_repair``), twins included, and an error it raises is the
    reference's."""
    params = RegularityParams(epsilon=epsilon, m=m)
    ladder = hyperbolicity.threshold_ladder(space, epsilon, m, delta0)
    excluded = list(hyperbolicity.exceptional_sets(space, ladder).a_indices)
    n = space.n
    edited = np.zeros((n, n), dtype=bool)
    edited[excluded, :] = True
    edited[:, excluded] = True
    rows, n_repairs = [], 0
    pending = [np.setdiff1d(np.arange(n), excluded).tolist()]
    for depth in range(1, ladder.n_levels + 2):
        row = []
        for k, idxs in enumerate(pending):
            if depth <= ladder.n_levels and len(idxs) >= 2:
                clusters, pairs = oracle_repair(
                    space, idxs, ladder.thresholds[depth - 1], params,
                    (seed, depth, k))
                n_repairs += 1
                edited[pairs] = edited[pairs[::-1]] = True
            else:
                clusters = [[i] for i in idxs]
            row += clusters
        if depth == 1:
            row += [[a] for a in excluded]
        if row:
            rows.append(row)
        pending = [c for c in row if len(c) >= 2]
    tree = core.tree_from_levels(space.points, rows)
    prod = gromov_product_matrix(tree, space.points)
    s, p = space.sim, space.weights
    kappa, d0 = ladder.kappa, ladder.delta0
    ok = (s >= prod * kappa - d0) & (s <= (prod + 1) * kappa + d0)
    bad = ~np.eye(n, dtype=bool) & ~edited & ~ok
    return {
        "levels": tuple(tuple(tuple(space.points[i] for i in c) for c in row)
                        for row in [[range(n)]] + rows),
        "tree": tree_items(tree),
        "n_repairs": n_repairs,
        "excluded_points": tuple(space.points[i] for i in excluded),
        "thresholds": ladder.thresholds,
        "sandwich_violations": tuple((space.points[i], space.points[j])
                                     for i, j in np.argwhere(bad)),
        "delta_e_total": float(p @ edited @ p),
        "cost": float(p @ np.abs(s - kappa * prod) @ p),
    }


def assert_matches_full_build(space, epsilon=EPS, m=M, **kwargs):
    """The build equals the full reference, or raises its error."""
    try:
        want = full_build_reference(space, epsilon, m, seed=1, **kwargs)
    except TreelikeError as exc:
        with pytest.raises(type(exc)) as info:
            build_tree(space, epsilon, m, seed=1, **kwargs)
        assert str(info.value) == str(exc)
        return None
    report = build_tree(space, epsilon, m, seed=1, **kwargs)
    got = {
        "levels": report.levels,
        "tree": tree_items(report.tree),
        "n_repairs": report.n_repairs,
        "excluded_points": report.excluded_points,
        "thresholds": report.ladder.thresholds,
        "sandwich_violations": report.sandwich_violations,
    }
    assert got == {k: want[k] for k in got}
    for key in ("delta_e_total", "cost"):
        assert getattr(report, key) == pytest.approx(want[key], rel=1e-12,
                                                     abs=1e-15)
    return report


def dust_space(n):
    """n points of similarity 0.2, one of mass 1 - (n - 1) 1e-13 and the
    rest of 1e-13: at epsilon 1e-12 the masses pass the forced partition's
    condition (b), but no denominator up to max_blowup apportions them
    within nu, so the pipeline raises BlowupTooLarge."""
    weights = np.r_[1 - (n - 1) * 1e-13, np.full(n - 1, 1e-13)]
    sim = np.full((n, n), 0.2)
    np.fill_diagonal(sim, 1.0)
    return SimilaritySpace(tuple(f"p{i}" for i in range(n)), weights, sim)


def twin_class_count(space):
    """The classes a build runs on: one per distinct row whose diagonal
    s(x, x) is the row maximum, and one per point of any other row."""
    _, s, row_of = space.distinct
    twin = s.diagonal() == s.max(axis=1)
    return int(twin.sum() + (~twin[row_of]).sum())


def with_false_twins(n, seed):
    """A planted ultrametric space with levels kappa, 2 kappa and 1, plus
    points y0 and y1 whose rows copy the first point's, except that
    s(y0, y0) = s(y0, y1) = s(y1, y1) is 2 kappa, below their 1 to that
    point's block.  The two rows are identical, but at t_3 (near 3 kappa)
    the points are joined to the block and not to each other, so the
    repair must edit them."""
    fx = ultrametric_fixture(n, [KAPPA, 2 * KAPPA, 1.0], seed=seed)
    sim = np.empty((n + 2, n + 2))
    sim[:n, :n] = fx.space.sim
    sim[n:, :n] = fx.space.sim[0]
    sim[:n, n:] = fx.space.sim[:, [0, 0]]
    sim[n:, n:] = 2 * KAPPA
    w = np.concatenate([fx.space.weights, [1e-3, 1e-3]])
    return SimilaritySpace(fx.space.points + ("y0", "y1"), w / w.sum(),
                           sim, 1.0)


class TestQuotientBuild:
    @pytest.mark.parametrize("weights", ["uniform", "random"])
    @pytest.mark.parametrize("n", [20, 27, 64, 200, 512])
    def test_matches_the_full_build(self, n, weights):
        for seed in range(1, 8):
            fx = ultrametric_fixture(n, [KAPPA, 2 * KAPPA, 3 * KAPPA],
                                     seed=seed, weights=weights)
            report = assert_matches_full_build(fx.space)
            assert not report.sandwich_violations
            assert report.cost_bound_ok
            assert twin_class_count(fx.space) < n

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_one_class_clusters_split_at_their_diagonal(self, seed):
        # with two levels, twin classes are pending at depth 3 <= n_levels
        # and split there, as s(x, x) = 2 kappa < t_3
        fx = ultrametric_fixture(64, [KAPPA, 2 * KAPPA], seed=seed,
                                 weights="random")
        assert_matches_full_build(fx.space)

    def test_a_diagonal_at_the_threshold_keeps_its_class_whole(self):
        # the second level sits at the low end of the second window, where
        # the ladder puts t_2, so s(x, x) = t_2 joins every twin pair
        lo = 2 * KAPPA - 0.05
        for seed in range(1, 4):
            fx = ultrametric_fixture(64, [KAPPA, lo], seed=seed)
            report = assert_matches_full_build(fx.space, delta0=0.05)
            assert report.ladder.thresholds[1] == lo

    @pytest.mark.parametrize("r", [2, 3])
    def test_exceptional_twins(self, r):
        for seed in range(3):
            space = with_rogues(20, r, seed)
            report = assert_matches_full_build(space, delta0=0.05)
            assert len(report.excluded_points) == r

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_identical_rows_below_their_maximum_do_not_merge(self, seed):
        space = with_false_twins(30, seed)
        true_twins = twin_class_count(
            ultrametric_fixture(30, [KAPPA, 2 * KAPPA, 1.0], seed=seed).space)
        assert twin_class_count(space) == true_twins + 2
        report = assert_matches_full_build(space, delta0=0.05)
        assert report.delta_e_total > 0.0

    def test_spaces_without_twins(self):
        for seed in range(2):
            space = planted_blocks_fixture(40, 3, seed,
                                           weights="random").space
            assert twin_class_count(space) == space.n
            assert_matches_full_build(space, delta0=0.12)

    @pytest.mark.parametrize("case", ["light-clique", "blowup"])
    def test_errors_match_the_full_build(self, case):
        # the chain raises LightClique on an 8-spin space and
        # BlowupTooLarge on 299 masses of 1e-13; the build raises the same
        # error, with the same message
        if case == "light-clique":
            space = overlap_space(*gibbs_exact(sk_couplings(6, 1.0, seed=0)),
                                  overlap_map("abs"))
            kwargs, error = {"epsilon": 5.96e-8, "m": 4, "delta0": 0.24}, \
                LightClique
        else:
            space, kwargs, error = dust_space(300), {}, BlowupTooLarge
        with pytest.raises(error):
            full_build_reference(space, kwargs.pop("epsilon", EPS),
                                 kwargs.pop("m", M), seed=1, **kwargs)
        if case == "light-clique":
            kwargs.update(epsilon=5.96e-8, m=4)
        assert assert_matches_full_build(space, **kwargs) is None

    def test_rows_end_where_every_point_is_a_leaf(self):
        for seed in range(2):
            space = rescale_to_unit(noisy_tree_fixture(
                24, 3, KAPPA, 1e-4, seed, weights="random").space)
            report = assert_matches_full_build(space, delta0=0.05)
            assert len(report.levels) < report.ladder.n_levels + 2

    def test_violations_expand_in_row_major_order(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(1, 30))
            cls = rng.integers(0, max(1, n // 3), size=n)
            cls = np.unique(cls, return_inverse=True)[1]
            d = int(cls.max()) + 1
            members = [np.flatnonzero(cls == c) for c in range(d)]
            bad = rng.random((d, d)) < 0.3
            bad &= bad.T
            want = np.argwhere(bad[np.ix_(cls, cls)] & ~np.eye(n, dtype=bool))
            xs, ys = treebuild._violations(bad, members)
            assert np.array_equal(np.stack([xs, ys], axis=1).reshape(-1, 2),
                                  want)

    def test_graphs_are_not_checked_again(self, monkeypatch):
        checked = []
        check = core.first_asymmetry

        def space_only(m):
            if m.dtype == bool:
                raise AssertionError("an adjacency was checked for symmetry")
            checked.append(m.shape)
            return check(m)

        fx = ultrametric_fixture(64, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=1)
        d = twin_class_count(fx.space)
        monkeypatch.setattr(core, "first_asymmetry", space_only)
        report = build_tree(fx.space, EPS, M, seed=0)
        assert report.n_repairs > 0
        # the one symmetry check is of the quotient of twins, as it is made
        assert checked == [(d, d)] and d < 64


class TestSettlePass:
    @pytest.mark.parametrize("seed", range(4))
    def test_totals_are_the_graph_sums(self, seed):
        # each cluster's total is its threshold graph's float(mass.sum()),
        # bit for bit, for clusters of 2 to 60 classes; a segment sum
        # (np.add.reduceat) adds in another order and differs
        rng = np.random.default_rng(seed)
        n = 400
        weights = rng.random(n) ** 4 + rng.random(n) * 1e-3
        space = SimilaritySpace(tuple(f"p{i}" for i in range(n)),
                                weights / weights.sum(), np.eye(n))
        params = RegularityParams(epsilon=EPS, m=M)
        for trial in range(20):
            lens = rng.integers(2, 61, size=int(rng.integers(1, 7)))
            picked = rng.permutation(n)[:lens.sum()]
            clusters = [np.sort(c) for c in
                        np.split(picked, np.cumsum(lens)[:-1])]
            _, _, _, total = treebuild._settle(
                point_classes(space), np.concatenate(clusters), lens, 0.5,
                params)
            assert [tot.hex() for tot in total] == [
                core.threshold_graph(space, 0.5, subset=c).total_mass().hex()
                for c in clusters]

    def test_one_pass_decides_a_row(self):
        # five clusters at 0.5: edgeless, one clique, a clique and an
        # isolated point, a path, and a clique of two light points beside a
        # heavy one.  The first three settle with a forced verdict; the
        # path is no union of cliques, and the light clique falls below
        # the mass floor (1/2) epsilon^(1/4) of its cluster's mass
        sim = np.full((13, 13), 0.2)
        for block in ([2, 3], [4, 5], [7, 8], [8, 9], [11, 12]):
            sim[np.ix_(block, block)] = 0.8
        np.fill_diagonal(sim, 1.0)
        weights = np.r_[np.ones(11), 1e-6, 1e-6]
        space = SimilaritySpace(tuple(f"p{i}" for i in range(13)),
                                weights / weights.sum(), sim)
        first, settles, forced, total = treebuild._settle(
            point_classes(space), np.arange(13), np.array([2, 2, 3, 3, 3]),
            0.5, RegularityParams(epsilon=EPS, m=M))
        assert settles.tolist() == [True, True, True, False, False]
        assert forced == [True, True, True, None, None]
        assert first[:7].tolist() == [0, 1, 2, 2, 4, 4, 6]
        assert first[10:].tolist() == [10, 11, 11]
        assert len(total) == 5


def chain_row(classes, pend, lens, t, params, seeds):
    """Oracle of ``_repair_row``: the full chain on each pending cluster of
    two or more classes, in order (its threshold graph,
    ``regularity_pipeline``, ``part_neighbor_graph``,
    ``neighborhood_family``, ``clique_closure`` and ``clique_repair``).
    Returns each class's child, labelled by its first class, and the edited
    pairs; the first error raised propagates."""
    label, rows, cols = pend.copy(), [pend[:0]], [pend[:0]]
    ends = np.cumsum(lens).tolist()
    for k, (a, b) in enumerate(zip([0] + ends, ends)):
        if b - a < 2:
            continue
        take = pend[a:b]
        adj = classes.sim[np.ix_(take, take)] >= t
        np.fill_diagonal(adj, False)
        graph = WeightedGraph(
            tuple(classes.points[i] for i in classes.first[take]),
            classes.weight[take], adj)
        partition = regularity.regularity_pipeline(graph, params,
                                                   seed=seeds[k])
        pg = cliques.part_neighbor_graph(partition, params.epsilon)
        family = cliques.neighborhood_family(pg, params.epsilon)
        structure = cliques.clique_closure(family, pg, params.epsilon)
        repaired, log = cliques.clique_repair(
            graph, partition, structure, params.epsilon, classes.size[take])
        first = (repaired.adj | np.eye(b - a, dtype=bool)).argmax(axis=1)
        label[a:b] = take[first]
        r, c = map(np.concatenate, zip(*log.edits.values()))
        rows.append(take[r])
        cols.append(take[c])
    return label, (np.concatenate(rows), np.concatenate(cols))


def outcome_of(repair, *args):
    """A row repair's labels and edited pairs as lists, or its error."""
    try:
        label, (rows, cols) = repair(*args)
    except TreelikeError as exc:
        return type(exc), str(exc)
    return label.tolist(), rows.tolist(), cols.tolist()


# spaces whose builds run each path of a row repair: settled and forced
# without the pipeline, settled with the pipeline's verdict (epsilon
# 2^-24 > 1 / max_blowup), the clique stages, and errors of the chain
CHAIN_CASES = {
    **{f"{name}@{eps}": (name, eps) for name in (
        "ultrametric-uniform-0", "ultrametric-random-1", "planted-random-0",
        "planted-uniform-1", "noisy-random-0", "noisy-uniform-1",
        "rogues-3", "zero-weights-0", "zero-weights-1", "false-twins")
       for eps in (EPS, 2.0 ** -24)},
    "light-clique": "light-clique",
    "blowup": "blowup",
}


class TestRowAgainstTheChain:
    """Every row a build repairs equals the full chain run cluster by
    cluster: the same children, the same edits and the same first error."""

    @staticmethod
    def build(case):
        if case == "light-clique":
            space = overlap_space(*gibbs_exact(sk_couplings(6, 1.0, seed=0)),
                                  overlap_map("abs"))
            return lambda: build_tree(space, 5.96e-8, 4, seed=1, delta0=0.24)
        if case == "blowup":
            space = dust_space(300)
            return lambda: build_tree(space, EPS, M, seed=1)
        name, eps = case
        space, kwargs = PRICING_CASES[name]()
        return lambda: build_tree(space, eps, M, seed=1, **kwargs)

    @pytest.mark.parametrize("case", list(CHAIN_CASES))
    def test_rows_equal_the_chain(self, monkeypatch, case):
        build = self.build(CHAIN_CASES[case])
        repair_row, rows = treebuild._repair_row, []

        def checked(*args):
            got = outcome_of(repair_row, *args)
            assert got == outcome_of(chain_row, *args)
            rows.append(got)
            return repair_row(*args)

        monkeypatch.setattr(treebuild, "_repair_row", checked)
        try:
            build()
        except TreelikeError:
            assert isinstance(rows[-1][0], type)
        assert rows

    def test_the_cases_take_every_path(self, monkeypatch):
        paths = Counter()
        settle, repair = treebuild._settle, treebuild._repair_cluster

        def counting_settle(*args):
            first, settles, forced, total = settle(*args)
            paths["settled, forced"] += sum(f is True for f in forced)
            return first, settles, forced, total

        def counting_repair(graph, params, seed, sizes, first=None):
            paths["pipeline" if first is not None else "stages"] += 1
            try:
                return repair(graph, params, seed, sizes, first)
            except TreelikeError:
                paths["raised"] += 1
                raise

        monkeypatch.setattr(treebuild, "_settle", counting_settle)
        monkeypatch.setattr(treebuild, "_repair_cluster", counting_repair)
        for case in CHAIN_CASES.values():
            try:
                self.build(case)()
            except TreelikeError:
                pass
        assert all(paths[k] for k in ("settled, forced", "pipeline",
                                      "stages", "raised")), paths


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

    def test_copy_names_avoid_every_name_taken(self):
        # "a" skips "a#0", an original id, and "a#" then skips the names
        # of the copies of "a"
        space = SimilaritySpace(("a", "a#0", "a#"), np.array([0.4, 0.2, 0.4]),
                                np.full((3, 3), 0.5) + 0.5 * np.eye(3), 1.0)
        split, mapping = split_atoms(space, 0.3)
        assert split.points == ("a##0", "a##1", "a#0", "a###0", "a###1")
        assert mapping == {"a##0": "a", "a##1": "a", "a#0": "a#0",
                           "a###0": "a#", "a###1": "a#"}
        assert split.weights.tolist() == [0.2, 0.2, 0.2, 0.2, 0.2]

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


def named_tree(root, parent, level, leaf_points):
    """A tree of named nodes, through the conversion that reads tree files."""
    return tree_from_dict({
        "root": root,
        "nodes": [{"id": v, "parent": parent.get(v), "level": d}
                  for v, d in level.items()],
        "leaves": leaf_points})


def merge_loop(tree, copy_map, seed):
    data = tree_to_dict(tree)
    up = {rec["id"]: rec["parent"] for rec in data["nodes"]}
    depth = {rec["id"]: rec["level"] for rec in data["nodes"]}
    root, leaf_points = data["root"], data["leaves"]
    leaves = set(leaf_points.values())
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
    for leaf_node, point in leaf_points.items():
        if point in kept:
            node = leaf_node
            while True:
                keep_nodes.add(node)
                if node == root:
                    break
                node = up[node]

    parent = {}
    level = {}
    merged = {}
    rename = {}
    for leaf_node, point in leaf_points.items():
        if point in kept:
            rename[leaf_node] = kept[point]
    # the nodes in the order the tree holds them
    for node in tree.names:
        if node not in keep_nodes:
            continue
        name = rename.get(node, node)
        level[name] = depth[node]
        if node != root:
            parent[name] = rename.get(up[node], up[node])
    for leaf_node, point in leaf_points.items():
        if point in kept:
            merged[kept[point]] = kept[point]
    return named_tree(root, parent, level, merged)


def tree_items(tree):
    """The nodes and their parents in the order held, each point's leaf,
    and the file bytes."""
    return (tree.names, tree.parent.tolist(),
            dict(zip(tree.points, map(tree.names.__getitem__,
                                      tree.leaf.tolist()))),
            dump_json(tree_to_dict(tree)))


def relabel_leaves(tree):
    """The same tree with every leaf node renamed away from its point."""
    data = tree_to_dict(tree)
    name = {leaf: f"leaf:{leaf}" for leaf in data["leaves"]}
    return tree_from_dict({
        "root": data["root"],
        "nodes": [dict(rec, id=name.get(rec["id"], rec["id"]))
                  for rec in data["nodes"]],
        "leaves": {name[v]: p for v, p in data["leaves"].items()}})


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
        assert set(a.points) == set(fx.space.points)

    def test_distances_to_root_unchanged(self):
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=4)
        split, mapping = split_atoms(fx.space, 0.05)
        report = build_tree(split, EPS, M, seed=0)
        merged = merge_tree_leaves(report.tree, mapping, seed=5)
        assert (merged.level[merged.leaf] >= 1).all()

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

    def test_space_validated_once(self, monkeypatch):
        from treelike.fixtures import noisy_tree_fixture
        fx = noisy_tree_fixture(20, depth=2, alpha=0.3, noise=0.01, seed=6,
                                weights="random")
        cost, hyp = tree_cost(fx.space, fx.tree, 0.3), hyp_exact(fx.space)
        # the space was checked as it was made; the check makes no space
        calls = checked_spaces(monkeypatch)
        report = converse_check(fx.space, fx.tree, 0.3)
        assert calls == []
        assert report.cost == cost and report.hyp == hyp

    def test_bound_is_checked_before_pricing(self, monkeypatch):
        # a space of bound 2 and a tree that misses one of its points: the
        # precondition is refused first, and nothing is priced
        fx = tree_scaled_fixture(8, depth=2, alpha=0.3, seed=1)
        other = random_fixture(9, seed=1).space
        doubled = SimilaritySpace(other.points, other.weights,
                                  2.0 * other.sim, 2.0)

        def unpriced(*args):
            raise AssertionError("the converse check priced the tree")

        for name in ("tree_cost", "_class_pairs", "hyp_exact"):
            monkeypatch.setattr(treebuild, name, unpriced)
        with pytest.raises(BadParams, match="bound 1"):
            converse_check(doubled, fx.tree, 0.1)

    def test_every_build_passes(self):
        for seed in range(3):
            fx = ultrametric_fixture(24, [KAPPA, 2 * KAPPA, 3 * KAPPA],
                                     seed=seed)
            report = build_tree(fx.space, EPS, M, seed=seed)
            out = converse_check(fx.space, report.tree, report.kappa)
            assert out.passed


def record_repairs(monkeypatch):
    """The list of (seed, class names) of each cluster of two or more
    classes that the build repairs from now on, in order; a class is named
    by its first point."""
    calls = []
    repair = treebuild._repair_row

    def recording(classes, pend, lens, t, params, seeds):
        ends = np.cumsum(lens).tolist()
        for k, (a, b) in enumerate(zip([0] + ends, ends)):
            if b - a > 1:
                calls.append((seeds[k], tuple(
                    classes.points[i] for i in classes.first[pend[a:b]])))
        return repair(classes, pend, lens, t, params, seeds)

    monkeypatch.setattr(treebuild, "_repair_row", recording)
    return calls


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
            tree = report.tree
            for p in rogues:
                assert tree.parent[tree.names.index(p)] == 0
                assert tree.level[tree.names.index(p)] == 1
            children = [node for node, par in
                        zip(tree.names, tree.parent.tolist()) if par == 0]
            assert children[-r:] == list(rogues)

    def test_one_point_build(self):
        for name, root in (("a", "@0.0"), ("@x", "@@0.0")):
            space = SimilaritySpace((name,), np.ones(1),
                                    np.full((1, 1), 0.3), 1.0)
            report = build_tree(space, EPS, M)
            assert report.levels == (((name,),), ((name,),))
            assert report.tree.root == root
            assert report.tree.names == (root, name)
            assert report.tree.parent.tolist() == [-1, 0]
            assert report.tree.level.tolist() == [0, 1]
            assert report.n_repairs == 0
            assert report.excluded_points == ()

    def test_repair_seeds_and_node_ids_follow_row_order(self, monkeypatch):
        self.check_row_order(monkeypatch, [KAPPA, 2 * KAPPA, 3 * KAPPA])

    def test_row_order_with_one_class_clusters(self, monkeypatch):
        # with two levels, each twin class is a pending cluster of its own
        # at depth 3 <= n_levels
        assert self.check_row_order(monkeypatch, [KAPPA, 2 * KAPPA]) > 0

    @staticmethod
    def check_row_order(monkeypatch, levels):
        """Check seeds, node ids and n_repairs against the report's rows;
        return the number of pending clusters of one twin class."""
        calls = record_repairs(monkeypatch)
        fx = ultrametric_fixture(40, levels, seed=9)
        report = build_tree(fx.space, EPS, M, seed=5)
        # repairs run on the twin classes, each named by its first point;
        # every row of an ultrametric space has its diagonal as maximum
        sim, points = fx.space.sim, fx.space.points
        first = {p: points[int(np.flatnonzero((sim == sim[i]).all(axis=1))[0])]
                 for i, p in enumerate(points)}

        def classes(cluster):
            return tuple(p for p in cluster if first[p] == p)

        assert calls[0] == ((5, 1, 0), classes(points))
        one_class = 0
        tree = report.tree
        leaves = {tree.names[v] for v in tree.leaf.tolist()}
        for depth in range(1, report.ladder.n_levels + 1):
            internal = sorted((node for node, d in
                               zip(tree.names, tree.level.tolist())
                               if d == depth and node not in leaves),
                              key=lambda u: int(u.split(".")[1]))
            assert internal == [f"@{depth}.{k}" for k in range(len(internal))]
            rows = [c for c in report.levels[depth] if len(c) > 1]
            assert len(rows) == len(internal)
            repaired = [(seed, pts) for seed, pts in calls
                        if seed[1] == depth + 1]
            if depth < report.ladder.n_levels:
                # a pending cluster of one class is repaired without a call,
                # but it keeps its seed position
                assert repaired == [((5, depth + 1, k), classes(c))
                                    for k, c in enumerate(rows)
                                    if len(classes(c)) > 1]
                one_class += sum(len(classes(c)) == 1 for c in rows)
        assert report.n_repairs == len(calls) + one_class
        return one_class


    def test_seeds_count_one_class_clusters(self, monkeypatch):
        # x0, x1 are twins at 2 kappa; y0..y3 form two twin pairs at
        # 3 kappa inside one 2 kappa block.  At depth 3 the pending
        # clusters are {x0, x1} (one class) and {y0, ..., y3}.
        level = np.array([[2, 2, 1, 1, 1, 1], [2, 2, 1, 1, 1, 1],
                          [1, 1, 3, 3, 2, 2], [1, 1, 3, 3, 2, 2],
                          [1, 1, 2, 2, 3, 3], [1, 1, 2, 2, 3, 3]])
        space = SimilaritySpace(("x0", "x1", "y0", "y1", "y2", "y3"),
                                np.full(6, 1 / 6), KAPPA * level, 1.0)
        calls = record_repairs(monkeypatch)
        report = build_tree(space, EPS, M, seed=5)
        assert [seed for seed, _ in calls] == [(5, 1, 0), (5, 2, 0),
                                               (5, 3, 1)]
        assert report.n_repairs == 4
        assert report.levels[2] == (("x0", "x1"), ("y0", "y1", "y2", "y3"))


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


def clique_union(rng, graph):
    """The graph with random cliques, some of one point, plus isolated
    points in place of its edges."""
    labels = rng.integers(-1, max(1, graph.n // 3), size=graph.n)
    adj = (labels[:, None] == labels[None, :]) & (labels[:, None] >= 0)
    np.fill_diagonal(adj, False)
    return WeightedGraph(graph.vertices, graph.mass, adj)


def point_classes(space, sizes=None):
    """The points of a space as the classes of a row repair, each standing
    for ``sizes`` points (one each by default)."""
    n = space.n
    return treebuild._Classes(
        space.weights, space.sim,
        np.ones(n, dtype=int) if sizes is None else np.asarray(sizes),
        np.arange(n), space.points)


def one_cluster(space, idxs, t, params, seed=(0, 1, 0), sizes=None):
    """The build's repair of one pending cluster of space points: its
    children (global index lists, in order of first member) and edited
    pairs i < j as global (rows, cols)."""
    pend = np.asarray(idxs, dtype=int)
    label, edited = treebuild._repair_row(
        point_classes(space, sizes), pend, np.array([len(pend)]), t, params,
        [seed])
    order = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[order])) + 1
    return [c.tolist() for c in np.split(pend[order], bounds)], edited


def repair_trials(rng, made):
    """Repair 200 random clusters of a 60-point space; each cluster's
    children are the components of the last graph in ``made``."""
    space = random_fixture(60, seed=1).space
    params = RegularityParams(epsilon=EPS, m=M)
    isolated = 0
    for trial in range(200):
        size = int(rng.integers(2, 61))
        idxs = sorted(rng.choice(60, size=size, replace=False).tolist())
        children, edited = one_cluster(space, idxs, 0.5, params,
                                       (0, 1, trial))
        assert children == clusters_loop(made[-1], idxs)
        assert [e.tolist() for e in edited] == [[], []]
        isolated += sum(len(c) == 1 for c in children)
    assert isolated > 0


def unreachable(*args, **kwargs):
    raise AssertionError("a settled cluster ran a clique stage")


CLIQUE_STAGES = ("part_neighbor_graph", "neighborhood_family",
                 "clique_closure", "clique_repair")


class TestClustersAgainstLoop:
    def test_seeded_clique_unions(self, monkeypatch):
        # the full path: the clique stages run, and the last one returns a
        # random union of cliques
        rng = np.random.default_rng(0)
        made = []

        def repair(graph, partition, structure, epsilon, sizes=None):
            made.append(clique_union(rng, graph))
            empty = np.empty(0, dtype=np.intp)
            log = ModificationLog(
                graph.vertices,
                dict.fromkeys(cliques.STAGE_NAMES, (empty, empty)),
                dict.fromkeys(cliques.STAGE_NAMES, 0.0), 0.0)
            return made[-1], log

        spectral = types.SimpleNamespace(params={"forced": False})
        # the scan-free guard never answers, so every cluster runs the
        # pipeline, whose partition is not forced
        monkeypatch.setattr(treebuild, "SCAN_FREE_POINTS", 0)
        monkeypatch.setattr(treebuild, "regularity_pipeline",
                            lambda *a, **k: spectral)
        for stage in CLIQUE_STAGES[:3]:
            monkeypatch.setattr(treebuild, stage, lambda *a, **k: None)
        monkeypatch.setattr(treebuild, "clique_repair", repair)
        repair_trials(rng, made)

    def test_settled_clique_unions(self, monkeypatch):
        # the settled path: the threshold graph is a random union of
        # cliques, some of one point, on a forced partition, and neither
        # the pipeline nor a clique stage runs
        rng = np.random.default_rng(0)
        params = RegularityParams(epsilon=EPS, m=M)
        for stage in CLIQUE_STAGES + ("regularity_pipeline",):
            monkeypatch.setattr(treebuild, stage, unreachable)
        isolated = 0
        for trial in range(200):
            n = int(rng.integers(2, 61))
            labels = rng.integers(-1, max(1, n // 3), size=n)
            space = blocks_space(np.where(labels < 0, n + np.arange(n),
                                          labels), np.ones(n))
            size = int(rng.integers(2, n + 1))
            idxs = sorted(rng.choice(n, size=size, replace=False).tolist())
            children, edited = one_cluster(space, idxs, 0.5, params,
                                           (0, 1, trial))
            assert children == clusters_loop(
                core.threshold_graph(space, 0.5, subset=idxs), idxs)
            assert [e.tolist() for e in edited] == [[], []]
            isolated += sum(len(c) == 1 for c in children)
        assert isolated > 0


def blocks_space(labels, weights):
    """Points in blocks by label, with similarity 0.8 inside a block, 0.2
    across and 1 on the diagonal: at 0.5 the threshold graph is the union
    of the blocks' cliques."""
    sim = np.where(labels[:, None] == labels, 0.8, 0.2)
    np.fill_diagonal(sim, 1.0)
    return SimilaritySpace(points=tuple(f"p{i}" for i in range(len(labels))),
                           weights=weights / weights.sum(), sim=sim)


def uniform_blocks(counts):
    labels = np.repeat(np.arange(len(counts)), counts)
    return blocks_space(labels, np.ones(len(labels)))


def stages_directly(space, params, seed, sizes):
    """The full chain on all points of the space at 0.5, with the four
    clique stages always run."""
    return oracle_repair(space, list(range(space.n)), 0.5, params, seed,
                         sizes)


def outcome(repair, space, params, seed=(0, 1, 0), sizes=None):
    """The children and edited pairs of a repair, or its error."""
    try:
        children, edited = repair(space, params, seed, sizes)
    except TreelikeError as exc:
        return type(exc), str(exc)
    return children, [e.tolist() for e in edited]


def settle_rule(space, params, seed, sizes):
    """The build's repair of all points of the space at 0.5."""
    return one_cluster(space, range(space.n), 0.5, params, seed, sizes)


class TestSettledClusters:
    """A forced cluster whose threshold graph is a union of cliques that
    the clique stages keep skips them, with the result they would give."""

    @pytest.mark.parametrize("epsilon", [1e-12, 2.0 ** -24, 1 / 16])
    def test_matches_the_stages(self, monkeypatch, epsilon):
        rng = np.random.default_rng(3)
        params = RegularityParams(epsilon=epsilon, m=4)
        staged = []
        repair = treebuild.clique_repair
        monkeypatch.setattr(treebuild, "clique_repair", lambda *a, **k: (
            staged.append(1), repair(*a, **k))[1])
        paths = Counter()
        for trial in range(90):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, int(rng.integers(1, 8)), size=n)
            weights = [np.ones(n), rng.random(n) + 0.05,
                       rng.random(n) ** 6][trial % 3]
            sizes = rng.integers(1, 4, size=n)
            space = blocks_space(labels, weights)
            before = len(staged)
            got = outcome(settle_rule, space, params, (0, 1, trial), sizes)
            assert got == outcome(stages_directly, space, params,
                                  (0, 1, trial), sizes)
            paths["staged" if len(staged) > before else
                  "raised" if isinstance(got[0], type) else "settled"] += 1
        assert paths["settled"] > 0 and paths["staged"] > 0, paths

    def test_a_clique_under_the_cutoff_dissolves(self):
        # 16 points at epsilon 1/16: the cutoff is 8 members
        params = RegularityParams(epsilon=1 / 16, m=4)
        space = uniform_blocks([10, 6])
        children, edited = outcome(settle_rule, space, params)
        assert children == [list(range(10))] + [[i] for i in range(10, 16)]
        assert len(edited[0]) == 15
        assert outcome(stages_directly, space, params) == (children, edited)

    def test_cliques_under_the_cutoff_all_dissolve(self):
        params = RegularityParams(epsilon=1 / 16, m=4)
        space = uniform_blocks([6, 5, 5])
        children, edited = outcome(settle_rule, space, params)
        assert children == [[i] for i in range(16)]
        assert len(edited[0]) == 35
        assert outcome(stages_directly, space, params) == (children, edited)

    def test_cliques_at_the_cutoff_settle(self, monkeypatch):
        params = RegularityParams(epsilon=1 / 16, m=4)
        space = uniform_blocks([8, 8])
        expected = outcome(stages_directly, space, params)
        for stage in CLIQUE_STAGES:
            monkeypatch.setattr(treebuild, stage, unreachable)
        assert outcome(settle_rule, space, params) == expected
        assert expected == ([list(range(8)), list(range(8, 16))], [[], []])

    @pytest.mark.parametrize("epsilon", [2.0 ** -24, 1e-12])
    def test_a_light_clique_raises(self, epsilon):
        # the two-point clique carries a mass of about 6.7e-8
        params = RegularityParams(epsilon=epsilon, m=4)
        space = blocks_space(np.repeat([0, 1], [30, 2]),
                             np.r_[np.full(30, 1e6), 1.0, 1.0])
        with pytest.raises(LightClique, match="clique 1 of 2 points"):
            settle_rule(space, params, (0, 1, 0), None)
        assert outcome(settle_rule, space, params) == outcome(
            stages_directly, space, params)

    def test_a_light_point_of_twins_raises(self):
        # the lone point stands for two points, so the floor holds it
        params = RegularityParams(epsilon=1e-12, m=4)
        space = blocks_space(np.repeat([0, 1], [30, 1]),
                             np.r_[np.full(30, 1e6), 1.0])
        sizes = np.r_[np.ones(30, dtype=int), 2]
        with pytest.raises(LightClique, match="clique 1 of 2 points"):
            settle_rule(space, params, (0, 1, 0), sizes)
        assert outcome(settle_rule, space, params, sizes=sizes) == outcome(
            stages_directly, space, params, sizes=sizes)
        children, edited = outcome(settle_rule, space, params)
        assert children == [list(range(30)), [30]]

    def test_a_path_takes_the_stages(self, monkeypatch):
        sim = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.8], [0.2, 0.8, 1.0]])
        space = SimilaritySpace(points=("x", "y", "z"),
                                weights=np.full(3, 1 / 3), sim=sim)
        params = RegularityParams(epsilon=EPS, m=M)
        expected = outcome(stages_directly, space, params)
        staged = []
        repair = treebuild.clique_repair
        monkeypatch.setattr(treebuild, "clique_repair", lambda *a, **k: (
            staged.append(1), repair(*a, **k))[1])
        assert outcome(settle_rule, space, params) == expected
        assert staged == [1]

    def test_a_build_settles_every_repair(self, monkeypatch):
        space = ultrametric_fixture(64, [KAPPA, 2 * KAPPA, 3 * KAPPA],
                                    seed=1).space
        settle = treebuild._settle

        def nothing_settles(*args):
            first, settles, forced, total = settle(*args)
            return first, settles & False, [None] * len(forced), total

        with monkeypatch.context() as patch:
            patch.setattr(treebuild, "_settle", nothing_settles)
            staged = build_tree(space, EPS, M, seed=0)
        for stage in CLIQUE_STAGES:
            monkeypatch.setattr(treebuild, stage, unreachable)
        settled = build_tree(space, EPS, M, seed=0)
        assert settled.n_repairs > 0
        assert pickle.dumps(settled) == pickle.dumps(staged)


def with_zero_weights(n, seed):
    """A planted ultrametric space in which every third point weighs 0."""
    fx = ultrametric_fixture(n, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=seed,
                             weights="random")
    w = fx.space.weights.copy()
    w[::3] = 0.0
    return SimilaritySpace(fx.space.points, w / w.sum(), fx.space.sim, 1.0)


def with_at_names(n, seed):
    """A planted ultrametric space whose point ids start with runs of @,
    so that node names need a longer prefix."""
    fx = ultrametric_fixture(n, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=seed)
    points = tuple("@" * (i % 3) + p for i, p in enumerate(fx.space.points))
    return SimilaritySpace(points, fx.space.weights, fx.space.sim, 1.0)


def ultrametric_space(weights, seed):
    return ultrametric_fixture(48, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=seed,
                               weights=weights).space


# (space, build options) by name: twins, spaces without twins (d = n),
# exceptional points, zero weights and node-name prefixes past "@"
WEIGHTS_SEEDS = [(w, seed) for w in ("uniform", "random") for seed in range(2)]
PRICING_CASES = {
    **{f"ultrametric-{w}-{seed}": (lambda w=w, seed=seed: (
        ultrametric_space(w, seed), {})) for w, seed in WEIGHTS_SEEDS},
    **{f"planted-{w}-{seed}": (lambda w=w, seed=seed: (
        planted_blocks_fixture(40, 3, seed, weights=w).space,
        {"delta0": 0.12})) for w, seed in WEIGHTS_SEEDS},
    **{f"noisy-{w}-{seed}": (lambda w=w, seed=seed: (
        rescale_to_unit(noisy_tree_fixture(32, 3, KAPPA, 1e-4, seed,
                                           weights=w).space),
        {"delta0": 0.05})) for w, seed in WEIGHTS_SEEDS},
    **{f"rogues-{r}": (lambda r=r: (with_rogues(20, r, r), {"delta0": 0.05}))
       for r in (1, 3)},
    **{f"zero-weights-{seed}": (lambda seed=seed: (
        with_zero_weights(30, seed), {})) for seed in range(2)},
    "false-twins": lambda: (with_false_twins(30, 2), {}),
    "at-names": lambda: (with_at_names(30, 1), {}),
}


def label_products(n, rows):
    """The Gromov product matrix of points from their clusters by depth, as
    the build once priced its tree: two points meet at the deepest cluster
    they share, as clusters nest, and a point with itself at its leaf."""
    prod = np.zeros((n, n), dtype=int)
    leaf = np.zeros(n, dtype=int)
    for depth, (flat, sizes) in enumerate(rows, start=1):
        label = -1 - np.arange(n)  # a point not in the row meets no other
        label[flat] = np.repeat(np.arange(len(sizes)), sizes)
        prod += label[:, None] == label
        leaf[flat[(np.cumsum(sizes) - sizes)[sizes == 1]]] = depth
    prod[np.diag_indices(n)] = leaf
    return prod


class TestLabelPricing:
    """The build names its tree from the rows of its level loop and prices
    it as the public path prices it."""

    def test_the_cases_cover_each_kind(self):
        kinds = Counter()
        for case in PRICING_CASES.values():
            space, kwargs = case()
            report = build_tree(space, EPS, M, seed=0, **kwargs)
            kinds["twins"] += twin_class_count(space) < space.n
            kinds["d = n"] += len(space.distinct[0]) == space.n
            kinds["excluded"] += bool(report.excluded_points)
            kinds["zero weights"] += bool((space.weights == 0).any())
            kinds["prefix @@@"] += report.tree.root == "@@@0.0"
        assert all(kinds[k] for k in ("twins", "d = n", "excluded",
                                      "zero weights", "prefix @@@")), kinds

    @pytest.mark.parametrize("name", PRICING_CASES)
    def test_prices_equal_the_public_pricing(self, monkeypatch, name):
        space, kwargs = PRICING_CASES[name]()
        priced = []
        make = treebuild._class_pairs

        def recording(space, tree):
            priced.append(tree)
            return make(space, tree)

        monkeypatch.setattr(treebuild, "_class_pairs", recording)
        report = build_tree(space, EPS, M, seed=0, **kwargs)
        assert priced == [report.tree]
        assert priced[0] is report.tree
        assert report.cost == tree_cost(space, report.tree, report.kappa)
        assert (report.best_alpha, report.best_cost) \
            == best_alpha(space, report.tree)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rows_price_as_their_tree(self, seed):
        # points of a few repeated rows in random nested clusters, so that
        # points of one row become leaves at several depths, under parents
        # that hold the same position in their rows
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        kind = rng.integers(0, 3, size=n)
        base = rng.random((3, 3))
        base = (base + base.T) / 2
        weights = rng.random(n) * (rng.random(n) < 0.8)
        weights = weights + (weights.sum() == 0)
        space = SimilaritySpace(tuple(f"x{i}" for i in range(n)),
                                weights / weights.sum(),
                                base[np.ix_(kind, kind)], 1.0)
        rows, held = [], [np.arange(n)]
        for depth in range(int(rng.integers(1, 5))):
            if not held:
                break
            flat, sizes, below = [], [], []
            for cluster in held:
                label = rng.integers(0, 3, size=len(cluster))
                for lab in dict.fromkeys(label.tolist()):
                    child = cluster[label == lab]
                    flat.append(child)
                    sizes.append(len(child))
                    below += [child] if len(child) >= 2 else []
            rows.append((np.concatenate(flat), np.array(sizes)))
            held = below
        if held:
            last = np.concatenate(held)
            rows.append((last, np.ones(len(last), dtype=int)))
        tree, levels = core._tree_of_rows(space.points, rows)
        want = label_products(n, rows)
        got = gromov_product_matrix(tree, space.points)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        cost = sum(space.weights[i] * space.weights[j]
                   * abs(space.sim[i, j] - KAPPA * want[i, j])
                   for i in range(n) for j in range(n))
        assert tree_cost(space, tree, KAPPA) == pytest.approx(
            cost, rel=1e-12, abs=1e-15)
        want = core.tree_from_levels(space.points, [
            [c.tolist() for c in np.split(flat, np.cumsum(sizes)[:-1])]
            for flat, sizes in rows])
        assert tree_items(tree) == tree_items(want)

    @pytest.mark.parametrize("name", PRICING_CASES)
    def test_tree_equals_tree_from_levels(self, name):
        space, kwargs = PRICING_CASES[name]()
        report = build_tree(space, EPS, M, seed=0, **kwargs)
        index = {p: i for i, p in enumerate(space.points)}
        rows = [[[index[p] for p in cluster] for cluster in row]
                for row in report.levels[1:]]
        want = core.tree_from_levels(space.points, rows)
        got = report.tree
        assert got == want
        assert tree_items(got) == tree_items(want)
        assert got.points == want.points
        assert got.leaf.tolist() == want.leaf.tolist()
        assert tree_to_newick(got) == tree_to_newick(want)
        # each node name is one object, wherever the tree and levels hold it
        ids = {id(node) for node in got.names}
        assert {id(p) for row in report.levels[1:] for c in row if len(c) == 1
                for p in c} <= ids


def test_a_forced_cluster_whose_scan_fails_still_raises():
    # 299 points of relative mass 1e-13 pass the forced partition's mass
    # condition at epsilon 1e-12, but no denominator up to max_blowup
    # apportions them within nu, so the pipeline raises, and the repair
    # must raise with it rather than settle on the forced verdict
    n = 300
    space = dust_space(n)
    params = RegularityParams(epsilon=EPS, m=M)
    graph = core.threshold_graph(space, 0.5)
    assert regularity._forced_refinement(graph.mass, params.max_blowup,
                                         params) is not None
    # edgeless, it settles, and the guard leaves the verdict to the pipeline
    _, settles, forced, _ = treebuild._settle(
        point_classes(space), np.arange(n), np.array([n]), 0.5, params)
    assert settles.tolist() == [True] and forced == [None]
    with pytest.raises(BlowupTooLarge):
        one_cluster(space, range(n), 0.5, params)
    with pytest.raises(BlowupTooLarge):
        build_tree(space, EPS, M)


def test_the_build_names_no_edited_pairs(monkeypatch):
    # an 8-spin exact abs space whose one repair edits thousands of pairs
    mapping = overlap_map("abs")
    space = overlap_space(*gibbs_exact(sk_couplings(8, beta=4.0, seed=0)),
                          mapping)
    edited = []
    repair = treebuild.clique_repair

    def counting(*args, **kwargs):
        graph, log = repair(*args, **kwargs)
        edited.append(sum(len(rows) for rows, _ in log.edits.values()))
        return graph, log

    def run():
        return pickle.dumps((
            build_tree(space, 5.96e-8, 4, seed=0, delta0=0.24),
            pure_state_tree(space, mapping, 5.96e-8, 4, seed=0, delta0=0.24)))

    monkeypatch.setattr(treebuild, "clique_repair", counting)
    plain = run()
    assert sum(edited) > 0

    def no_names(log):
        raise AssertionError("the build read the edited pairs by name")

    monkeypatch.setattr(ModificationLog, "stages", property(no_names))
    assert run() == plain
