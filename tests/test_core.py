import dataclasses
import pickle
import sys
import types

import numpy as np
import pytest

from treelike import (
    SimilaritySpace,
    build_tree,
    gromov_product_matrix,
    gromov_product_similarity,
    hyp_exact,
    rescale_to_unit,
    space_from_tree,
    tree_gromov_product,
    validate_space,
    validate_tree,
)
from treelike import core
from treelike.core import WeightedGraph, first_asymmetry, threshold_graph, \
    tree_from_levels, upper_pairs
from treelike.errors import (
    AsymmetricSimilarity,
    BadParams,
    DuplicatePoint,
    InvalidDiagonal,
    InvalidMetric,
    NegativeDistance,
    OutOfRangeEntry,
    SpaceValidationError,
    TreelikeError,
    ThresholdOutOfRange,
    TreeStructureError,
    TriangleViolation,
    UnknownLeaf,
    WeightSumMismatch,
)
from treelike.fixtures import (
    _random_hierarchy,
    _tree_from_hierarchy,
    generate_fixture,
    noisy_tree_fixture,
    random_fixture,
    tree_scaled_fixture,
    ultrametric_fixture,
)
from treelike.hyperbolicity import bad_set_profile, exceptional_sets, \
    threshold_ladder
from treelike.io import dump_json, tree_from_dict, tree_to_dict
from treelike.spinglass import gibbs_exact, overlap_map, overlap_space, \
    pure_state_tree, sk_couplings
from treelike.treebuild import best_alpha, converse_check, tree_cost


def two_point_space():
    return SimilaritySpace(
        points=("a", "b"),
        weights=np.array([0.5, 0.5]),
        sim=np.array([[1.0, 0.3], [0.3, 1.0]]),
        bound=1.0,
    )


class TestValidateSpace:
    def test_valid_two_point(self):
        validate_space(two_point_space())

    def test_weight_sum_mismatch(self):
        with pytest.raises(WeightSumMismatch):
            SimilaritySpace(("a", "b"), np.array([0.6, 0.6]),
                            np.array([[1.0, 0.3], [0.3, 1.0]]), 1.0)

    def test_asymmetric(self):
        with pytest.raises(AsymmetricSimilarity) as exc:
            SimilaritySpace(("a", "b"), np.array([0.5, 0.5]),
                            np.array([[1.0, 0.3], [0.4, 1.0]]), 1.0)
        assert exc.value.index == (0, 1)

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoint):
            SimilaritySpace(("a", "a"), np.array([0.5, 0.5]),
                            np.array([[1.0, 0.3], [0.3, 1.0]]), 1.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeEntry):
            SimilaritySpace(("a", "b"), np.array([0.5, 0.5]),
                            np.array([[1.0, 1.3], [1.3, 1.0]]), 1.0)

    def test_replace_checks_the_new_space(self):
        sp = two_point_space()
        with pytest.raises(AsymmetricSimilarity) as exc:
            dataclasses.replace(sp, sim=np.array([[1.0, 0.3], [0.4, 1.0]]))
        assert exc.value.index == (0, 1)


class TestRescale:
    def test_divides_by_bound(self):
        sp = SimilaritySpace(("a", "b"), np.array([0.5, 0.5]),
                             np.array([[2.0, 1.0], [1.0, 2.0]]), 2.0)
        out = rescale_to_unit(sp)
        assert out.bound == 1.0
        assert out.sim[0, 1] == 0.5

    def test_identity_when_unit(self):
        sp = two_point_space()
        assert rescale_to_unit(sp) is sp

    def test_hyp_scales_by_bound(self):
        fx = random_fixture(5, seed=4, bound=2.0)
        before = hyp_exact(fx.space)
        after = hyp_exact(rescale_to_unit(fx.space))
        assert after == pytest.approx(before / 2.0, abs=1e-15)

    def test_round_trip_power_of_two_exact(self):
        fx = random_fixture(6, seed=9, bound=4.0)
        back = rescale_to_unit(fx.space).sim * 4.0
        assert np.array_equal(back, fx.space.sim)

    def test_round_trip_general_bound(self):
        fx = random_fixture(6, seed=10, bound=3.0)
        back = rescale_to_unit(fx.space).sim * 3.0
        assert np.max(np.abs(back - fx.space.sim)) < 1e-15


class TestGromovProductSimilarity:
    def test_line_points(self):
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        space = gromov_product_similarity(d, base=0)
        assert space.sim[1, 2] == 1.0  # (1+2-1)/2

    def test_diagonal_is_distance_to_base(self):
        fx = random_fixture(5, seed=2)
        # build a metric from a tree so the triangle inequality holds
        tsp = tree_scaled_fixture(6, depth=2, alpha=1.0, seed=3)
        prod = gromov_product_matrix(tsp.tree, tsp.space.points)
        depth = np.diag(prod)
        d = depth[:, None] + depth[None, :] - 2 * prod
        space = gromov_product_similarity(d.astype(float), base=0)
        for i in range(space.n):
            assert space.sim[i, i] == d[i, 0]

    def test_star_tree_products_vanish(self):
        # 4 leaves at distance 1 from a hub (the hub is the base point)
        n = 5
        d = np.full((n, n), 2.0)
        d[0, :] = 1.0
        d[:, 0] = 1.0
        np.fill_diagonal(d, 0.0)
        space = gromov_product_similarity(d, base=0)
        for i in range(1, n):
            for j in range(1, n):
                if i != j:
                    assert space.sim[i, j] == 0.0

    def test_entries_within_diameter(self):
        tsp = tree_scaled_fixture(8, depth=3, alpha=1.0, seed=5)
        prod = gromov_product_matrix(tsp.tree, tsp.space.points)
        depth = np.diag(prod)
        d = (depth[:, None] + depth[None, :] - 2 * prod).astype(float)
        space = gromov_product_similarity(d, base=2)
        assert (space.sim >= 0).all()
        assert (space.sim <= d.max()).all()

    def test_triangle_violation(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(TriangleViolation):
            gromov_product_similarity(d, base=0)

    def test_negative_distance(self):
        d = np.array([[0, -1], [-1, 0]], dtype=float)
        with pytest.raises(NegativeDistance):
            gromov_product_similarity(d, base=0)


def named_tree(root, parent, level, leaf_points):
    """A tree of named nodes, through the conversion that reads tree files."""
    return tree_from_dict({
        "root": root,
        "nodes": [{"id": v, "parent": parent.get(v), "level": d}
                  for v, d in level.items()],
        "leaves": leaf_points})


def small_tree():
    # root -> u (level1) -> {x, y at level2}; root -> z (level1 leaf)
    return named_tree(
        root="r",
        parent={"u": "r", "x": "u", "y": "u", "z": "r"},
        level={"r": 0, "u": 1, "x": 2, "y": 2, "z": 1},
        leaf_points={"x": "x", "y": "y", "z": "z"},
    )


class TestTreeGromovProduct:
    def test_same_point_returns_depth(self):
        t = small_tree()
        assert tree_gromov_product(t, "x", "x") == 2
        assert tree_gromov_product(t, "z", "z") == 1

    def test_siblings_under_level_one(self):
        t = small_tree()
        assert tree_gromov_product(t, "x", "y") == 1

    def test_cross_subtree_is_zero(self):
        t = small_tree()
        assert tree_gromov_product(t, "x", "z") == 0

    def test_unknown_leaf(self):
        with pytest.raises(UnknownLeaf):
            tree_gromov_product(small_tree(), "x", "w")

    def test_matches_distance_formula_on_random_tree(self):
        fx = tree_scaled_fixture(20, depth=3, alpha=1.0, seed=8)
        tree = fx.tree
        prod = gromov_product_matrix(tree, fx.space.points)
        depth = np.diag(prod)
        for i, x in enumerate(fx.space.points):
            for j, y in enumerate(fx.space.points):
                d_xy = depth[i] + depth[j] - 2 * prod[i, j]
                formula = 0.5 * (depth[i] + depth[j] - d_xy)
                assert tree_gromov_product(tree, x, y) == formula

    def test_trees_are_zero_hyperbolic(self):
        # full enumeration of the min-inequality on a 50-leaf tree
        fx = tree_scaled_fixture(50, depth=3, alpha=1.0, seed=13)
        prod = gromov_product_matrix(fx.tree, fx.space.points)
        n = len(fx.space.points)
        for z in range(n):
            col = prod[:, z]
            defect = np.minimum(col[:, None], col[None, :]) - prod
            assert defect.max() <= 0


class TestTreeValidation:
    def test_small_tree_valid(self):
        validate_tree(small_tree())

    def test_level_gap_rejected(self):
        with pytest.raises(TreeStructureError):
            named_tree(
                root="r",
                parent={"x": "r"},
                level={"r": 0, "x": 2},
                leaf_points={"x": "x"},
            )

    def test_childless_internal_rejected(self):
        with pytest.raises(TreeStructureError):
            named_tree(
                root="r",
                parent={"x": "r", "u": "r"},
                level={"r": 0, "x": 1, "u": 1},
                leaf_points={"x": "x"},
            )

    def test_leaf_key_that_is_no_node(self):
        with pytest.raises(TreeStructureError, match="'zz' is not a node"):
            named_tree(root="r", parent={"a": "r", "b": "r"},
                       level={"r": 0, "a": 1, "b": 1},
                       leaf_points={"a": "a", "b": "b", "zz": "c"})

    def test_cycle_fails_the_level_check(self):
        with pytest.raises(TreeStructureError, match="level of 'x'"):
            named_tree(root="r", parent={"x": "y", "y": "x", "u": "r"},
                       level={"r": 0, "x": 1, "y": 2, "u": 1},
                       leaf_points={"u": "u"})

    @pytest.mark.parametrize("root, parent, level, leaves, message", [
        ("zz", {"a": "r"}, {"r": 0, "a": 1}, {"a": "a"},
         "root is not a node"),
        ("r", {"r": "a", "a": "r"}, {"r": 0, "a": 1}, {"a": "a"},
         "root must not have a parent"),
        ("r", {"a": "r"}, {"r": 1, "a": 2}, {"a": "a"},
         "root level must be 0"),
        ("r", {"a": "r"}, {"r": 0, "a": 1, "b": 1}, {"a": "a", "b": "b"},
         "non-root node 'b' has no parent"),
        ("r", {"a": "r", "b": "a"}, {"r": 0, "a": 1, "b": 2},
         {"a": "a", "b": "b"}, "leaf 'a' has children"),
        ("r", {"a": "r", "b": "r"}, {"r": 0, "a": 1, "b": 1},
         {"a": "x", "b": "x"}, "leaf-to-point map is not injective"),
    ])
    def test_structure_faults_are_named(self, root, parent, level, leaves,
                                        message):
        with pytest.raises(TreeStructureError, match=message):
            named_tree(root=root, parent=parent, level=level,
                       leaf_points=leaves)

    def test_unknown_parent_rejected_at_construction(self):
        with pytest.raises(TreeStructureError,
                           match="parent of 'x' is not a node"):
            named_tree(root="r", parent={"u": "r", "x": "zz"},
                       level={"r": 0, "u": 1, "x": 1},
                       leaf_points={"u": "u", "x": "x"})

    @pytest.mark.parametrize("names, parent, points, leaf, message", [
        ((), [], (), [], "a tree needs a root"),
        (("r", "a"), [-1], ("a",), [1], "a parent per node"),
        (("r", "a", "a"), [-1, 0, 0], ("a",), [1], "node id 'a' is repeated"),
        (("r", "a"), [0, 0], ("a",), [1], "root must not have a parent"),
        (("r", "a", "b"), [-1, 2, 0], ("a", "b"), [1, 2],
         "parent of 'a' does not come before it"),
        (("r", "a"), [-1, 0], ("a",), [2], "a leaf node of its own"),
        (("r", "a", "b"), [-1, 0, 0], ("a", "b"), [1, 1],
         "a leaf node of its own"),
        (("r", "a", "b", "c"), [-1, 0, 1, 1], ("a", "b", "c"), [1, 2, 3],
         "leaf 'a' has children"),
    ])
    def test_array_faults_are_named(self, names, parent, points, leaf,
                                    message):
        with pytest.raises(TreeStructureError, match=message):
            core.CompatibleTree(points=points, names=names, parent=parent,
                                leaf=leaf)


@pytest.mark.parametrize("field, value, what", [
    ("weights", np.full(3, 0.25), "weights shape"),
    ("sim", np.full((4, 3), 0.5), "sim shape"),
    ("sim", np.full(4, 0.5), "sim shape"),
])
def test_shape_mismatch_is_a_validation_error(field, value, what):
    with pytest.raises(SpaceValidationError, match=what):
        dataclasses.replace(random_fixture(4, seed=1).space, **{field: value})


def test_graph_mass_mismatch_is_a_validation_error():
    with pytest.raises(SpaceValidationError, match="mass does not match"):
        WeightedGraph(vertices=("a", "b"), mass=[1.0],
                      adj=np.zeros((2, 2), dtype=bool))


def test_space_from_tree_has_zero_defect():
    fx = tree_scaled_fixture(12, depth=2, alpha=1.0, seed=21)
    space = space_from_tree(fx.tree)
    assert hyp_exact(space) == 0.0


# ---------------------------------------------------------------------------
# loop references: the per-entry validation and the pair-loop tree products,
# compared exactly with the array code


def validate_loop(space):
    seen = {}
    for i, p in enumerate(space.points):
        if p in seen:
            raise DuplicatePoint(i, p)
        seen[p] = i
    if not (space.bound > 0 and np.isfinite(space.bound)):
        raise OutOfRangeEntry("bound", space.bound)
    for i, w in enumerate(space.weights):
        if w < 0 or not np.isfinite(w):
            raise OutOfRangeEntry(("weight", i), float(w))
    total = float(space.weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise WeightSumMismatch(total)
    s = space.sim
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if s[i, j] != s[j, i]:
                raise AsymmetricSimilarity(i, j, float(s[i, j]), float(s[j, i]))
    bad = np.argwhere(~((s >= 0) & (s <= space.bound)))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise OutOfRangeEntry((i, j), float(s[i, j]))


def product_loop(tree, points):
    data = tree_to_dict(tree)
    parent = {rec["id"]: rec["parent"] for rec in data["nodes"]}
    leaf_of = {p: leaf for leaf, p in data["leaves"].items()}
    paths = []
    for p in points:
        node = leaf_of[p]
        chain = [node]
        while parent[node] is not None:
            node = parent[node]
            chain.append(node)
        paths.append(chain[::-1])
    n = len(points)
    out = np.zeros((n, n), dtype=int)
    for i in range(n):
        out[i, i] = len(paths[i]) - 1
        for j in range(i + 1, n):
            k = 0
            while (k < min(len(paths[i]), len(paths[j]))
                   and paths[i][k] == paths[j][k]):
                k += 1
            out[i, j] = out[j, i] = k - 1
    return out


def raised(fn, space):
    try:
        fn(space)
    except TreelikeError as exc:
        return type(exc), str(exc)
    return None


def unchecked(points, weights, sim, bound):
    """The fields of a space, and its n, with no check run on them: a
    stand-in that both validators can be handed."""
    return types.SimpleNamespace(points=tuple(points), weights=weights,
                                 sim=sim, bound=bound, n=len(points))


def construct(fields):
    """The space made from a stand-in's fields."""
    return SimilaritySpace(fields.points, fields.weights, fields.sim,
                           fields.bound)


def corrupted_spaces(seed, count):
    """Unchecked stand-ins of random spaces with a few random faults:
    asymmetric, NaN or out-of-range entries, and negative, NaN or infinite
    weights."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        sp = random_fixture(n, seed=int(rng.integers(1000)),
                            weights="random").space
        sim, w = sp.sim.copy(), sp.weights.copy()
        for _ in range(int(rng.integers(0, 4))):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            sim[i, j] = rng.choice([np.nan, -0.5, 1.5, sim[i, j] + 0.25, -0.0])
        for _ in range(int(rng.integers(0, 3))):
            w[int(rng.integers(n))] = rng.choice([np.nan, -0.1, np.inf, -0.0])
        yield unchecked(sp.points, w, sim, 1.0)


class TestValidateAgainstLoop:
    def test_first_witness_matches_loop(self):
        outcomes = set()
        for sp in corrupted_spaces(seed=0, count=300):
            got = raised(construct, sp)
            assert got == raised(validate_loop, sp)
            outcomes.add(got[0] if got else None)
        assert {None, OutOfRangeEntry, AsymmetricSimilarity,
                WeightSumMismatch} <= outcomes

    def test_first_of_two_asymmetric_pairs(self):
        sp = random_fixture(8, seed=1).space
        sim = sp.sim.copy()
        sim[5, 2] += 0.01  # row-major upper-triangle order finds (1, 6) first
        sim[6, 1] += 0.01
        bad = unchecked(sp.points, sp.weights, sim, 1.0)
        with pytest.raises(AsymmetricSimilarity) as exc:
            construct(bad)
        assert exc.value.index == (1, 6)
        assert raised(construct, bad) == raised(validate_loop, bad)

    def test_nan_weight_is_the_first_witness(self):
        sp = random_fixture(6, seed=2).space
        w = sp.weights.copy()
        w[2], w[4] = np.nan, -0.1
        bad = unchecked(sp.points, w, sp.sim, 1.0)
        with pytest.raises(OutOfRangeEntry) as exc:
            construct(bad)
        assert exc.value.where == ("weight", 2)
        assert np.isnan(exc.value.value)
        assert raised(construct, bad) == raised(validate_loop, bad)

    @pytest.mark.parametrize("value, where", [
        (-0.25, (1, 6)),     # negative, mirrored to stay symmetric
        (1.5, (2, 3)),       # above the bound
        (np.nan, (4, 4)),    # on the diagonal: off it, a NaN is an asymmetry
    ])
    def test_out_of_range_entry_is_located(self, value, where):
        sp = random_fixture(9, seed=3).space
        sim = sp.sim.copy()
        i, j = where
        sim[i, j] = sim[j, i] = value
        sim[7, 8] = sim[8, 7] = -1.0  # a later bad entry is not reported
        bad = unchecked(sp.points, sp.weights, sim, 1.0)
        with pytest.raises(OutOfRangeEntry) as exc:
            construct(bad)
        assert exc.value.where == where
        np.testing.assert_equal(exc.value.value, value)
        assert raised(construct, bad) == raised(validate_loop, bad)

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_bad_bound(self, bound):
        sp = random_fixture(5, seed=4).space
        bad = unchecked(sp.points, sp.weights, sp.sim, bound)
        with pytest.raises(OutOfRangeEntry) as exc:
            construct(bad)
        assert exc.value.where == "bound"
        assert raised(construct, bad) == raised(validate_loop, bad)

    @pytest.mark.parametrize("both", [False, True])
    def test_nan_off_diagonal_is_asymmetric(self, both):
        sp = random_fixture(6, seed=3).space
        sim = sp.sim.copy()
        sim[4, 1] = np.nan
        if both:
            sim[1, 4] = np.nan
        bad = unchecked(sp.points, sp.weights, sim, 1.0)
        with pytest.raises(AsymmetricSimilarity) as exc:
            construct(bad)
        assert exc.value.index == (1, 4)
        assert raised(construct, bad) == raised(validate_loop, bad)


def uneven_tree():
    # leaves at depths 1, 2 and 3 under one root
    return named_tree(
        root="r",
        parent={"a": "r", "u": "r", "b": "u", "v": "u", "c": "v", "d": "v",
                "e": "u"},
        level={"r": 0, "a": 1, "u": 1, "b": 2, "v": 2, "e": 2, "c": 3,
               "d": 3},
        leaf_points={"a": "a", "b": "b", "c": "c", "d": "d", "e": "e"},
    )


class TestProductMatrixAgainstLoop:
    def test_uneven_leaf_depths(self):
        tree = uneven_tree()
        for points in (("a", "b", "c", "d", "e"), ("d", "a", "e", "c"),
                       ("c", "c", "a"), ("b",), ()):
            got = gromov_product_matrix(tree, points)
            want = product_loop(tree, points)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_fixture_and_built_trees(self):
        trees = []
        for seed in range(3):
            fx = tree_scaled_fixture(30, depth=4, alpha=0.2, seed=seed,
                                     weights="random")
            trees.append((fx.tree, fx.space.points))
        fx = tree_scaled_fixture(40, depth=3, alpha=0.31622776601683794,
                                 seed=5, weights="random")
        report = build_tree(rescale_to_unit(fx.space), 1e-12, 16, delta0=0.05)
        assert len(set(report.tree.level[report.tree.leaf].tolist())) > 1
        trees.append((report.tree, fx.space.points))
        rng = np.random.default_rng(0)
        for tree, points in trees:
            for order in (points, tuple(rng.permutation(points).tolist())):
                got = gromov_product_matrix(tree, order)
                want = product_loop(tree, order)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_unknown_leaf_still_raises(self):
        with pytest.raises(UnknownLeaf):
            gromov_product_matrix(uneven_tree(), ("a", "zz"))


# ---------------------------------------------------------------------------
# loop reference: the per-entry metric checks of gromov_product_similarity,
# compared exactly with the array code


def metric_check_loop(dist, base, points=None, weights=None):
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise InvalidMetric(f"distance matrix must be square, got {d.shape}")
    neg = np.argwhere(d < 0)
    if neg.size:
        i, j = (int(v) for v in neg[0])
        raise NegativeDistance(i, j, float(d[i, j]))
    for i in range(n):
        if d[i, i] != 0.0:
            raise InvalidDiagonal(i, float(d[i, i]))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] != d[j, i]:
                raise AsymmetricSimilarity(i, j, float(d[i, j]), float(d[j, i]))
    for i in range(n):
        for j in range(n):
            if d[i, j] == np.inf:
                raise InvalidMetric(f"distance inf at ({i},{j}) is not finite")
    for k in range(n):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        bad = np.argwhere(slack > 0)
        if bad.size:
            i, j = (int(v) for v in bad[0])
            raise TriangleViolation((i, k, j), float(slack[i, j]))
    if not (0 <= base < n):
        raise TreelikeError(f"base index {base} out of range")
    prod = 0.5 * (d[:, base][:, None] + d[:, base][None, :] - d)
    np.fill_diagonal(prod, d[:, base])
    diameter = float(d.max()) if n else 0.0
    bound = diameter if diameter > 0 else 1.0
    if points is None:
        points = [str(i) for i in range(n)]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return SimilaritySpace(points=tuple(points), weights=weights, sim=prod,
                           bound=bound)


def metric_outcome(fn, dist, base):
    try:
        space = fn(dist, base)
    except TreelikeError as exc:
        return "raised", type(exc), str(exc)
    return ("built", space.points, space.weights.tobytes(),
            space.sim.tobytes(), space.bound)


def tree_metric(rng):
    """Leaf-to-leaf path lengths of a random tree, scaled by a power of two
    so the triangle inequality holds exactly."""
    n = int(rng.integers(2, 9))
    fx = tree_scaled_fixture(n, depth=3, alpha=1.0,
                             seed=int(rng.integers(1000)))
    prod = gromov_product_matrix(fx.tree, fx.space.points)
    depth = np.diag(prod)
    return (depth[:, None] + depth[None, :] - 2 * prod) * 0.5 ** int(
        rng.integers(-2, 3))


def corrupted_metrics(seed, count):
    """Tree metrics with a few random faults: negative, NaN or nonzero
    diagonal entries, NaN or shifted off-diagonal entries, and entries large
    enough to break the triangle inequality."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = tree_metric(rng)
        n = len(d)
        for _ in range(int(rng.integers(0, 3))):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            fault = int(rng.integers(6))
            if fault == 0:
                d[i, j] = -float(rng.uniform(0.1, 1.0))
            elif fault == 1:
                d[i, i] = rng.choice([np.nan, 0.5])
            elif fault == 2 and i != j:
                d[i, j] = np.nan
            elif fault == 3 and i != j:
                d[i, j] += 0.25
            elif fault == 4 and i != j:
                d[i, j] = d[j, i] = 3.0 * d.max() + 1.0
        yield d, int(rng.integers(n))


class TestMetricCheckAgainstLoop:
    def test_first_witness_matches_loop(self):
        outcomes = set()
        for d, base in corrupted_metrics(seed=0, count=400):
            got = metric_outcome(gromov_product_similarity, d, base)
            assert got == metric_outcome(metric_check_loop, d, base)
            outcomes.add(got[1] if got[0] == "raised" else None)
        assert outcomes == {None, NegativeDistance, InvalidDiagonal,
                            AsymmetricSimilarity, TriangleViolation}

    def test_first_of_two_asymmetric_pairs(self):
        d = tree_metric(np.random.default_rng(3))
        assert len(d) >= 6
        d[5, 2] += 0.5  # row-major upper-triangle order finds (1, 4) first
        d[4, 1] += 0.5
        with pytest.raises(AsymmetricSimilarity) as exc:
            gromov_product_similarity(d, base=0)
        assert exc.value.index == (1, 4)
        assert metric_outcome(gromov_product_similarity, d, 0) == \
            metric_outcome(metric_check_loop, d, 0)

    @pytest.mark.parametrize("both", [False, True])
    def test_nan_off_diagonal_is_asymmetric(self, both):
        d = tree_metric(np.random.default_rng(3))
        d[3, 1] = np.nan
        if both:
            d[1, 3] = np.nan
        with pytest.raises(AsymmetricSimilarity) as exc:
            gromov_product_similarity(d, base=0)
        assert exc.value.index == (1, 3)
        assert metric_outcome(gromov_product_similarity, d, 0) == \
            metric_outcome(metric_check_loop, d, 0)

    @pytest.mark.parametrize("kind", ["all", "one-pair"])
    def test_first_infinite_distance(self, kind):
        if kind == "all":
            # every slack is inf - inf or -inf here, so the triangle check
            # alone would pass this metric
            d = np.full((3, 3), np.inf)
            np.fill_diagonal(d, 0.0)
            where = r"\(0,1\)"
        else:
            d = tree_metric(np.random.default_rng(3))
            d[4, 2] = d[2, 4] = np.inf
            where = r"\(2,4\)"
        with pytest.raises(InvalidMetric, match=f"inf at {where} is not"):
            gromov_product_similarity(d, base=0)
        assert metric_outcome(gromov_product_similarity, d, 0) == \
            metric_outcome(metric_check_loop, d, 0)

    @pytest.mark.parametrize("value", [np.nan, 0.5])
    def test_first_bad_diagonal(self, value):
        d = tree_metric(np.random.default_rng(3))
        d[2, 2] = value
        d[4, 4] = 1.0
        with pytest.raises(InvalidDiagonal, match="at 2 is nonzero"):
            gromov_product_similarity(d, base=0)
        assert metric_outcome(gromov_product_similarity, d, 0) == \
            metric_outcome(metric_check_loop, d, 0)

    @pytest.mark.parametrize("dist", [[], [0.0, 1.0], [[0.0, 1.0]], 5.0,
                                      np.zeros((2, 2, 2))])
    def test_non_square_is_an_invalid_metric(self, dist):
        with pytest.raises(InvalidMetric, match="must be square"):
            gromov_product_similarity(dist, base=0)

    @pytest.mark.parametrize("base", [-1, 7, 9])
    def test_base_out_of_range_is_bad_params(self, base):
        d = tree_metric(np.random.default_rng(3))
        assert len(d) == 7
        with pytest.raises(BadParams, match=f"base index {base} out of range"):
            gromov_product_similarity(d, base=base)


# ---------------------------------------------------------------------------
# tree_from_levels: direct cases, and the fixtures' per-block node loop kept
# as a reference


def tree_items(tree):
    """The nodes and their parents in the order held, each point's leaf,
    and the file bytes."""
    return (tree.names, tree.parent.tolist(),
            dict(zip(tree.points, map(tree.names.__getitem__,
                                      tree.leaf.tolist()))),
            dump_json(tree_to_dict(tree)))


def hierarchy_tree_loop(points, levels):
    n = len(points)
    parent = {}
    level_of = {"@0.0": 0}
    leaf_points = {}
    prev_nodes = {0: "@0.0"}
    prev_labels = np.zeros(n, dtype=int)
    alive = np.ones(n, dtype=bool)
    for d, labels in enumerate(levels, start=1):
        nodes = {}
        counter = 0
        for block in np.unique(labels[alive]):
            members = np.nonzero((labels == block) & alive)[0]
            pnode = prev_nodes[int(prev_labels[members[0]])]
            if len(members) == 1:
                pid = points[int(members[0])]
                parent[pid] = pnode
                level_of[pid] = d
                leaf_points[pid] = pid
                alive[members[0]] = False
            else:
                node = f"@{d}.{counter}"
                counter += 1
                parent[node] = pnode
                level_of[node] = d
                nodes[int(block)] = node
        prev_nodes = nodes
        prev_labels = labels
    last = len(levels) + 1
    for i in np.nonzero(alive)[0]:
        pid = points[int(i)]
        parent[pid] = prev_nodes[int(prev_labels[i])]
        level_of[pid] = last
        leaf_points[pid] = pid
    return named_tree(root="@0.0", parent=parent, level=level_of,
                      leaf_points=leaf_points)


class TestTreeFromLevels:
    def test_single_point_beside_a_cluster(self):
        tree = tree_from_levels(("a", "b", "c", "d"),
                                [[[0], [1, 2, 3]], [[1], [2, 3]], [[2], [3]]])
        validate_tree(tree)
        assert tree.root == "@0.0"
        assert tree.names == ("@0.0", "a", "@1.0", "b", "@2.0", "c", "d")
        assert tree.parent.tolist() == [-1, 0, 0, 2, 2, 4, 4]
        assert tree.level.tolist() == [0, 1, 1, 2, 2, 3, 3]
        assert tree.points == ("a", "b", "c", "d")
        assert tree.leaf.tolist() == [1, 3, 5, 6]

    def test_parent_holds_the_first_point_one_row_up(self):
        # the second depth-2 cluster starts with point 4, held by @1.1
        tree = tree_from_levels(tuple("abcdef"), [
            [[0, 1], [2, 3, 4, 5]], [[0], [1], [2, 3], [4, 5]],
            [[2], [3], [4], [5]]])
        validate_tree(tree)
        parent = {v: tree.names[u] for v, u in
                  zip(tree.names[1:], tree.parent[1:].tolist())}
        assert parent["@2.0"] == "@1.1"
        assert parent["@2.1"] == "@1.1"
        assert parent["a"] == parent["b"] == "@1.0"

    @pytest.mark.parametrize("points, prefix", [
        (("@x0", "b", "c"), "@@"),
        (("@1.0", "x", "y"), "@@"),
        (("@@i", "@x", "c"), "@@@"),
    ])
    def test_prefix_grows_past_point_ids(self, points, prefix):
        tree = tree_from_levels(points, [[[1, 2], [0]], [[1], [2]]])
        validate_tree(tree)
        assert tree.root == f"{prefix}0.0"
        assert tree.names == (f"{prefix}0.0", f"{prefix}1.0", points[0],
                              points[1], points[2])
        assert tree.points == points
        assert [tree.names[v] for v in tree.leaf.tolist()] == list(points)

    def test_prefix_matches_a_scan_of_every_id(self):
        # ids over "@", NUL and "a": a NUL inside an id puts a run of "@"
        # after a NUL in the joined ids without starting that id
        rng = np.random.default_rng(0)
        for trial in range(300):
            sizes = rng.integers(0, 6, size=rng.integers(1, 6))
            points = tuple("".join(rng.choice(["@", "\0", "a"], size=k))
                           for k in sizes)
            prefix = "@"
            while any(p.startswith(prefix) for p in points):
                prefix += "@"
            assert core._node_prefix(points) == prefix

    def test_last_row_of_single_points(self):
        tree = tree_from_levels(("a", "b", "c"), [[[0, 1, 2]],
                                                 [[0], [1], [2]]])
        validate_tree(tree)
        assert tree.names == ("@0.0", "@1.0", "a", "b", "c")
        assert tree.level.tolist() == [0, 1, 2, 2, 2]
        assert tree.parent.tolist() == [-1, 0, 1, 1, 1]

    @pytest.mark.parametrize("depth", [0, 1, 3, 5])
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 27, 64])
    def test_hierarchy_trees_match_loop(self, n, depth):
        points = tuple(f"p{i}" for i in range(n))
        for seed in range(4):
            levels = _random_hierarchy(n, depth, np.random.default_rng(seed))
            got = _tree_from_hierarchy(points, levels)
            validate_tree(got)
            assert tree_items(got) == tree_items(
                hierarchy_tree_loop(points, levels))

    @pytest.mark.parametrize("kind", ["ultrametric", "tree-scaled",
                                      "noisy-tree"])
    @pytest.mark.parametrize("n", [2, 5, 27, 130])
    def test_fixture_trees_match_loop(self, kind, n):
        depth = 3  # the default depth of every kind that plants a tree
        points = tuple(f"p{i}" for i in range(n))
        for seed in range(4):
            fx = generate_fixture(kind, n, {}, seed)
            levels = _random_hierarchy(n, depth, np.random.default_rng(seed))
            assert tree_items(fx.tree) == tree_items(
                hierarchy_tree_loop(points, levels))


def pair_masks():
    """Seeded square boolean masks of every shape the pair helper meets."""
    rng = np.random.default_rng(13)
    one = np.zeros((6, 6), dtype=bool)
    one[1, 4] = one[4, 1] = True
    lower = np.zeros((5, 5), dtype=bool)
    lower[3, 1] = lower[2, 2] = True  # set entries, none above the diagonal
    dense = rng.random((40, 40)) < 0.6
    return {
        "empty": np.zeros((7, 7), dtype=bool),
        "one-pair": one,
        "dense": dense | dense.T,
        "all-true": np.ones((9, 9), dtype=bool),
        "0x0": np.zeros((0, 0), dtype=bool),
        "1x1": np.ones((1, 1), dtype=bool),
        "non-symmetric": rng.random((30, 30)) < 0.3,
        "below-diagonal-only": lower,
    }


class TestUpperPairs:
    @pytest.mark.parametrize("case", list(pair_masks()))
    def test_matches_triu_nonzero(self, case):
        mask = pair_masks()[case]
        rows, cols = upper_pairs(mask)
        want_rows, want_cols = np.nonzero(np.triu(mask, 1))
        assert rows.dtype == cols.dtype == want_rows.dtype
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)

    def test_edges_follow_the_pairs(self):
        mask = pair_masks()["dense"]
        np.fill_diagonal(mask, False)
        g = WeightedGraph(tuple(f"v{i}" for i in range(40)),
                          np.full(40, 1 / 40), mask)
        want = [(f"v{i}", f"v{j}") for i in range(40) for j in range(i + 1, 40)
                if mask[i, j]]
        assert want and g.edges() == want


def asymmetric_matrices(seed, count):
    """Seeded symmetric matrices of up to four symmetry tiles, with a few
    entries changed on one side, set to NaN on one or both sides, or set to
    NaN on the diagonal; boolean ones get one-sided flips."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([1, 2, 63, 64, 65, 130, 200]))
        m = rng.random((n, n)).round(1)
        m = np.triu(m) + np.triu(m, 1).T
        if rng.random() < 0.3:
            m = m > 0.5
        for _ in range(int(rng.integers(0, 4))):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            if m.dtype == bool:
                m[i, j] = ~m[i, j]
                continue
            kind = rng.integers(3)
            if kind == 0:
                m[i, j] += 0.5
            else:
                m[i, j] = np.nan
                if kind == 2:
                    m[j, i] = np.nan
        yield m


class TestFirstAsymmetry:
    def test_matches_transpose_compare(self):
        seen = set()
        for m in asymmetric_matrices(seed=17, count=300):
            rows, cols = upper_pairs(m != m.T)
            want = (int(rows[0]), int(cols[0])) if rows.size else None
            assert first_asymmetry(m) == want
            if want is not None:
                seen.add((m.dtype == bool, want[0] // 64, want[1] // 64))
        # pairs in the first and in later tiles, within a tile and across
        assert {(False, 0, 0), (False, 0, 1), (False, 1, 1), (False, 1, 2),
                (True, 0, 1)} <= seen

    def test_nan_on_the_diagonal_is_symmetric(self):
        m = np.zeros((70, 70))
        m[3, 3] = m[66, 66] = np.nan
        assert first_asymmetry(m) is None
        m[66, 69] = np.nan
        assert first_asymmetry(m) == (66, 69)

    def test_first_pair_of_a_band_lies_in_a_later_tile(self):
        # rows 64-127 are one band; its tile of columns 192-255 holds an
        # asymmetric pair in an earlier row than its tile of columns 128-191
        n = 260
        m = np.random.default_rng(18).random((n, n))
        m = m + m.T
        m[90, 130] += 1.0
        m[80, 150] = np.nan
        m[70, 200] += 1.0
        m[30, 2] = np.nan  # below the diagonal, mirrored pair (2, 30)

        def brute(m):
            for i in range(len(m)):
                for j in range(i + 1, len(m)):
                    if not m[i, j] == m[j, i]:
                        return i, j
            return None

        assert first_asymmetry(m) == brute(m) == (2, 30)
        m[30, 2] = m[2, 30]
        assert first_asymmetry(m) == brute(m) == (70, 200)
        m[66, 250] = np.nan
        assert first_asymmetry(m) == brute(m) == (66, 250)
        m[64, 255] -= 1.0
        assert first_asymmetry(m) == brute(m) == (64, 255)

    def test_graph_rejects_a_one_sided_edge(self):
        adj = np.zeros((70, 70), dtype=bool)
        adj[65, 2] = True
        with pytest.raises(TreelikeError, match="symmetric"):
            WeightedGraph(tuple(f"v{i}" for i in range(70)),
                          np.full(70, 1 / 70), adj)


class TestDuplicateVertices:
    def test_weighted_graph_rejects_a_repeated_id(self):
        with pytest.raises(DuplicatePoint) as exc:
            WeightedGraph(("a", "b", "a"), np.array([0.3, 0.3, 0.4]),
                          np.zeros((3, 3), dtype=bool))
        assert (exc.value.index, exc.value.point) == (2, "a")

    def test_ids_are_compared_as_strings(self):
        with pytest.raises(DuplicatePoint):
            WeightedGraph((1, "1"), np.array([0.5, 0.5]),
                          np.zeros((2, 2), dtype=bool))

    def test_threshold_subset_with_a_repeat(self):
        sp = random_fixture(4, seed=0).space
        with pytest.raises(DuplicatePoint) as exc:
            threshold_graph(sp, 0.5, subset=[0, 0, 1])
        assert (exc.value.index, exc.value.point) == (1, "p0")


class TestThresholdRange:
    @pytest.mark.parametrize("t", [np.nan, 0.0, -0.0, -1.0, 2.0 + 1e-12,
                                   np.inf])
    def test_outside_zero_to_bound_is_rejected(self, t):
        sp = random_fixture(4, seed=0, bound=2.0).space
        with pytest.raises(ThresholdOutOfRange, match="outside"):
            threshold_graph(sp, t)

    def test_bound_itself_is_a_threshold(self):
        sim = np.array([[2.0, 2.0, 0.5], [2.0, 2.0, 0.5], [0.5, 0.5, 1.0]])
        sp = SimilaritySpace(("a", "b", "c"), np.full(3, 1 / 3), sim, 2.0)
        assert threshold_graph(sp, 2.0).edges() == [("a", "b")]


class TestVertexMasses:
    @pytest.mark.parametrize("mass, index", [
        ([np.nan, 0.5, 0.5], 0),
        ([0.5, np.inf, 0.5], 1),
        ([0.5, 0.6, -0.1], 2),
        ([0.5, -np.inf, np.nan], 1),
    ])
    def test_first_bad_mass_is_reported(self, mass, index):
        with pytest.raises(OutOfRangeEntry) as exc:
            WeightedGraph(("a", "b", "c"), np.array(mass),
                          np.zeros((3, 3), dtype=bool))
        assert exc.value.where == ("mass", index)
        np.testing.assert_equal(exc.value.value, mass[index])


# ---------------------------------------------------------------------------
# the distinct rows a space groups as it is made

KAPPA = 1e-12 ** (1 / 24)


def count_groupings(monkeypatch):
    """Record each space that ``_dedupe_points`` groups, through every
    treelike module that binds it."""
    original, grouped = core._dedupe_points, []

    def counting(space):
        grouped.append(space)
        return original(space)

    for name, module in list(sys.modules.items()):
        if name.startswith("treelike") and \
                getattr(module, "_dedupe_points", None) is original:
            monkeypatch.setattr(module, "_dedupe_points", counting)
    return grouped


def abs_overlap_space():
    return overlap_space(*gibbs_exact(sk_couplings(6, 1.0, 0)),
                         overlap_map("abs"))


# each kernel on a made space with repeated rows, and with its planted tree
KERNELS = {
    "hyp_exact": lambda fx: hyp_exact(fx.space),
    "bad_set_profile": lambda fx: bad_set_profile(fx.space),
    "threshold_ladder": lambda fx: threshold_ladder(fx.space, 1e-12, 16),
    "exceptional_sets": lambda fx: exceptional_sets(
        fx.space, threshold_ladder(fx.space, 1e-12, 16)),
    "tree_cost": lambda fx: tree_cost(fx.space, fx.tree, KAPPA),
    "best_alpha": lambda fx: best_alpha(fx.space, fx.tree),
    "converse_check": lambda fx: converse_check(fx.space, fx.tree, KAPPA),
    "build_tree": lambda fx: build_tree(fx.space, 1e-12, 16),
}


class TestDistinctRows:
    def test_arrays_are_read_only(self):
        repeated = ultrametric_fixture(20, [KAPPA, 2 * KAPPA], seed=4).space
        assert len(repeated.distinct[0]) < repeated.n
        for space in (two_point_space(), repeated):
            assert not any(a.flags.writeable for a in space.distinct)

    def test_all_distinct_rows_hold_the_space_itself(self):
        space = two_point_space()
        w, s, inv = space.distinct
        assert w is space.weights and s is space.sim
        assert inv.tolist() == [0, 1]

    def test_replace_groups_the_new_rows(self):
        space = two_point_space()
        one_row = dataclasses.replace(space, sim=np.full((2, 2), 0.5))
        w, s, inv = one_row.distinct
        assert (w.tolist(), s.tolist(), inv.tolist()) == ([1.0], [[0.5]],
                                                          [0, 0])
        assert len(space.distinct[0]) == 2

    def test_rows_differing_in_the_sign_of_a_zero_are_one_row(self):
        # negating one symmetric pair of zeros split a row in two, so the
        # builds priced the tree on other groups and differed in the last bit
        space = ultrametric_fixture(64, [0.3, 0.6, 0.9], 1).space
        sim = space.sim.copy()
        i, j = np.argwhere(sim == 0.0)[0]
        sim[i, j] = sim[j, i] = -0.0
        signed = SimilaritySpace(space.points, space.weights, sim)
        assert len(signed.distinct[0]) == len(space.distinct[0]) == 14
        assert np.array_equal(signed.distinct[2], space.distinct[2])
        assert hyp_exact(signed).hex() == hyp_exact(space).hex()
        for a, b in zip(bad_set_profile(signed), bad_set_profile(space)):
            assert a.tobytes() == b.tobytes()
        assert pickle.dumps(build_tree(signed, 1e-12, 16)) == \
            pickle.dumps(build_tree(space, 1e-12, 16))

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_kernels_group_no_space_they_are_given(self, kernel,
                                                   monkeypatch):
        fx = ultrametric_fixture(20, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=4)
        assert len(fx.space.distinct[0]) < fx.space.n
        grouped = count_groupings(monkeypatch)
        KERNELS[kernel](fx)
        # a build groups only the twin quotient it makes
        assert all(space is not fx.space for space in grouped)
        assert len(grouped) == (kernel == "build_tree")

    @pytest.mark.parametrize("weights", ["uniform", "random"])
    def test_a_noisy_fixture_makes_one_space(self, weights, monkeypatch):
        grouped = count_groupings(monkeypatch)
        fx = noisy_tree_fixture(16, 2, KAPPA, 1e-3, seed=3, weights=weights)
        assert len(grouped) == 1 and grouped[0] is fx.space
        # the noise is drawn on the tree-scaled space of the same seed
        base = tree_scaled_fixture(16, 2, KAPPA, seed=3, weights=weights)
        assert fx.tree == base.tree and fx.space.bound == base.space.bound
        assert np.array_equal(fx.space.weights, base.space.weights)
        assert 0 < np.abs(fx.space.sim - base.space.sim).max() <= 1e-3

    def test_pure_state_tree_groups_only_its_quotient(self, monkeypatch):
        space = abs_overlap_space()
        grouped = count_groupings(monkeypatch)
        pure_state_tree(space, overlap_map("abs"), epsilon=1e-5, m=4,
                        delta0=0.1)
        assert len(grouped) == 1 and grouped[0] is not space
        assert grouped[0].n == space.n // 2
