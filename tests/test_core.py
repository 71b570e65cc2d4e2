import numpy as np
import pytest

from treelike import (
    CompatibleTree,
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
from treelike.errors import (
    AsymmetricSimilarity,
    DuplicatePoint,
    NegativeDistance,
    OutOfRangeEntry,
    TreelikeError,
    TriangleViolation,
    UnknownLeaf,
    WeightSumMismatch,
)
from treelike.fixtures import random_fixture, tree_scaled_fixture


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
        sp = SimilaritySpace(("a", "b"), np.array([0.6, 0.6]),
                             np.array([[1.0, 0.3], [0.3, 1.0]]), 1.0)
        with pytest.raises(WeightSumMismatch):
            validate_space(sp)

    def test_asymmetric(self):
        sp = SimilaritySpace(("a", "b"), np.array([0.5, 0.5]),
                             np.array([[1.0, 0.3], [0.4, 1.0]]), 1.0)
        with pytest.raises(AsymmetricSimilarity) as exc:
            validate_space(sp)
        assert exc.value.index == (0, 1)

    def test_duplicate_point(self):
        sp = SimilaritySpace(("a", "a"), np.array([0.5, 0.5]),
                             np.array([[1.0, 0.3], [0.3, 1.0]]), 1.0)
        with pytest.raises(DuplicatePoint):
            validate_space(sp)

    def test_out_of_range(self):
        from treelike.errors import OutOfRangeEntry
        sp = SimilaritySpace(("a", "b"), np.array([0.5, 0.5]),
                             np.array([[1.0, 1.3], [1.3, 1.0]]), 1.0)
        with pytest.raises(OutOfRangeEntry):
            validate_space(sp)


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


def small_tree():
    # root -> u (level1) -> {x, y at level2}; root -> z (level1 leaf)
    return CompatibleTree(
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
        t = CompatibleTree(
            root="r",
            parent={"x": "r"},
            level={"r": 0, "x": 2},
            leaf_points={"x": "x"},
        )
        from treelike.errors import TreeStructureError
        with pytest.raises(TreeStructureError):
            validate_tree(t)

    def test_childless_internal_rejected(self):
        t = CompatibleTree(
            root="r",
            parent={"x": "r", "u": "r"},
            level={"r": 0, "x": 1, "u": 1},
            leaf_points={"x": "x"},
        )
        from treelike.errors import TreeStructureError
        with pytest.raises(TreeStructureError):
            validate_tree(t)


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
    paths = []
    for p in points:
        node = tree.leaf_of(p)
        chain = [node]
        while node != tree.root:
            node = tree.parent[node]
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


def corrupted_spaces(seed, count):
    """Random spaces with a few random faults: asymmetric, NaN or out-of-range
    entries, and negative, NaN or infinite weights."""
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
        yield SimilaritySpace(sp.points, w, sim, 1.0)


class TestValidateAgainstLoop:
    def test_first_witness_matches_loop(self):
        outcomes = set()
        for sp in corrupted_spaces(seed=0, count=300):
            got = raised(validate_space, sp)
            assert got == raised(validate_loop, sp)
            outcomes.add(got[0] if got else None)
        assert {None, OutOfRangeEntry, AsymmetricSimilarity,
                WeightSumMismatch} <= outcomes

    def test_first_of_two_asymmetric_pairs(self):
        sp = random_fixture(8, seed=1).space
        sim = sp.sim.copy()
        sim[5, 2] += 0.01  # row-major upper-triangle order finds (1, 6) first
        sim[6, 1] += 0.01
        bad = SimilaritySpace(sp.points, sp.weights, sim, 1.0)
        with pytest.raises(AsymmetricSimilarity) as exc:
            validate_space(bad)
        assert exc.value.index == (1, 6)
        assert raised(validate_space, bad) == raised(validate_loop, bad)

    def test_nan_weight_is_the_first_witness(self):
        sp = random_fixture(6, seed=2).space
        w = sp.weights.copy()
        w[2], w[4] = np.nan, -0.1
        bad = SimilaritySpace(sp.points, w, sp.sim, 1.0)
        with pytest.raises(OutOfRangeEntry) as exc:
            validate_space(bad)
        assert exc.value.where == ("weight", 2)
        assert np.isnan(exc.value.value)
        assert raised(validate_space, bad) == raised(validate_loop, bad)

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_bad_bound(self, bound):
        sp = random_fixture(5, seed=4).space
        bad = SimilaritySpace(sp.points, sp.weights, sp.sim, bound)
        with pytest.raises(OutOfRangeEntry) as exc:
            validate_space(bad)
        assert exc.value.where == "bound"
        assert raised(validate_space, bad) == raised(validate_loop, bad)

    @pytest.mark.parametrize("both", [False, True])
    def test_nan_off_diagonal_is_asymmetric(self, both):
        sp = random_fixture(6, seed=3).space
        sim = sp.sim.copy()
        sim[4, 1] = np.nan
        if both:
            sim[1, 4] = np.nan
        bad = SimilaritySpace(sp.points, sp.weights, sim, 1.0)
        with pytest.raises(AsymmetricSimilarity) as exc:
            validate_space(bad)
        assert exc.value.index == (1, 4)
        assert raised(validate_space, bad) == raised(validate_loop, bad)


def uneven_tree():
    # leaves at depths 1, 2 and 3 under one root
    return CompatibleTree(
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
        assert len({report.tree.level[leaf]
                    for leaf in report.tree.leaf_points}) > 1
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
