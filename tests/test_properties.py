"""Property tests of the profile, its integral, the tree products and the
tree cost.

Hypothesis draws small spaces with tied values, zero weights and -0.0
entries, random trees with leaves at unequal depths, and spaces on those
trees whose points share similarity rows.  The tree kernels are checked
against a walk up the parent names of a tree's file records.  Examples are
derandomized and bounded so that the module stays fast and repeatable.
"""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treelike import (  # noqa: E402
    CompatibleTree,
    SimilaritySpace,
    bad_set_measure,
    bad_set_profile,
    best_alpha,
    gromov_product_matrix,
    hyp_exact,
    profile_integral,
    tree_cost,
    tree_gromov_product,
)
from treelike.io import tree_from_dict, tree_to_dict  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)
VALUES = st.sampled_from([-0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0]) | st.floats(
    0.0, 1.0, allow_nan=False, width=32)


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 7))
    upper = draw(st.lists(VALUES, min_size=n * n, max_size=n * n))
    raw = np.array(upper, dtype=float).reshape(n, n)
    sim = np.triu(raw) + np.triu(raw, 1).T
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(
        0.01, 1.0), min_size=n, max_size=n)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return SimilaritySpace(tuple(f"p{i}" for i in range(n)), w / w.sum(), sim)


@st.composite
def trees(draw):
    size = draw(st.integers(2, 14))
    parent = [-1] + [draw(st.integers(0, k - 1)) for k in range(1, size)]
    leaves = sorted(set(range(1, size)) - set(parent))
    return CompatibleTree(points=tuple(f"xn{v}" for v in leaves),
                          names=tuple(f"n{v}" for v in range(size)),
                          parent=parent, leaf=leaves)


def renamed(tree, rnd):
    """The same tree with its node ids and its file records shuffled, read
    back through the file conversion, so that it holds its nodes in another
    order."""
    data = tree_to_dict(tree)
    ids = [rec["id"] for rec in data["nodes"]]
    new = [f"m{k}" for k in range(len(ids))]
    rnd.shuffle(new)
    name = dict(zip(ids, new))
    nodes = [{"id": name[rec["id"]], "parent": name.get(rec["parent"]),
              "level": rec["level"]} for rec in data["nodes"]]
    rnd.shuffle(nodes)
    return tree_from_dict({
        "root": name[data["root"]], "nodes": nodes,
        "leaves": {name[v]: p for v, p in data["leaves"].items()}})


def walk_products(tree, points):
    """The product of every pair of points, by walking up the parent names
    of the tree's file records from both leaves until they meet."""
    data = tree_to_dict(tree)
    parent = {rec["id"]: rec["parent"] for rec in data["nodes"]}
    level = {rec["id"]: rec["level"] for rec in data["nodes"]}
    leaf_of = {p: leaf for leaf, p in data["leaves"].items()}

    def product(x, y):
        a, b = leaf_of[x], leaf_of[y]
        la, lb = level[a], level[b]
        while la > lb:
            a, la = parent[a], la - 1
        while lb > la:
            b, lb = parent[b], lb - 1
        while a != b:
            a, b, la = parent[a], parent[b], la - 1
        return la

    return np.array([[product(x, y) for y in points] for x in points],
                    dtype=int).reshape(len(points), len(points))


@SETTINGS
@given(spaces())
def test_profile_equals_bad_set_measure_at_every_breakpoint(space):
    ts, masses = bad_set_profile(space)
    assert np.all(np.diff(ts) > 0)
    for t, mass in zip(ts, masses):
        if t > 0:
            assert float(mass) == pytest.approx(
                bad_set_measure(space, float(t)), abs=1e-12)


@SETTINGS
@given(spaces())
def test_profile_integral_equals_hyp(space):
    ts, masses = bad_set_profile(space)
    assert abs(profile_integral(ts, masses) - hyp_exact(space)) <= 1e-10


@st.composite
def twin_spaces(draw):
    """A random tree and a space on its leaves in which points share
    similarity rows: siblings and non-siblings alike, with tied values,
    zero weights and, when ``exact``, dyadic weights that make every kink
    sum exact."""
    tree = draw(trees())
    points = sorted(tree.points)
    n = len(points)
    # few rows, so that sibling leaves often share one
    k = draw(st.integers(1, 3))
    row_of = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                    max_size=n)))
    upper = draw(st.lists(VALUES, min_size=k * k, max_size=k * k))
    raw = np.abs(np.array(upper, dtype=float).reshape(k, k))
    rows = np.triu(raw) + np.triu(raw, 1).T
    exact = draw(st.booleans())
    if exact:
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                   max_size=n)), dtype=float)
        total = 1 << int(max(w.sum(), 1.0) - 1).bit_length()
        w[draw(st.integers(0, n - 1))] += total - w.sum()
    else:
        w = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(
            0.01, 1.0), min_size=n, max_size=n)))
        total = w.sum() or 1.0
        if w.sum() == 0.0:
            w[0] = 1.0
    space = SimilaritySpace(tuple(points), w / total,
                            rows[np.ix_(row_of, row_of)])
    return space, tree, exact


def brute_pairs(space, tree):
    """(weight, similarity, product) of every ordered point pair, x = y
    included, in exact arithmetic, with the products of the name walk."""
    p = [Fraction(float(v)) for v in space.weights]
    prod = walk_products(tree, space.points)
    return [(p[i] * p[j], Fraction(float(space.sim[i, j])), int(prod[i, j]))
            for i in range(space.n) for j in range(space.n)]


def brute_cost(pairs, alpha):
    return sum(w * abs(s - alpha * g) for w, s, g in pairs)


@SETTINGS
@given(twin_spaces())
def test_class_pair_pricing_equals_the_point_pair_sum(drawn):
    space, tree, exact = drawn
    pairs = brute_pairs(space, tree)
    alpha, cost = best_alpha(space, tree)
    # the smallest minimizer over alpha >= 0 is 0 or a kink s / g
    kinks = {s / g for w, s, g in pairs if g > 0 and w > 0}
    best = min(sorted(kinks | {Fraction(0)}),
               key=lambda a: brute_cost(pairs, a))
    if exact:
        assert alpha == float(best)
    assert float(brute_cost(pairs, Fraction(alpha))) == pytest.approx(
        float(brute_cost(pairs, best)), rel=1e-12, abs=1e-15)
    assert cost == tree_cost(space, tree, alpha)
    for a in (0.0, alpha, 0.3):
        assert tree_cost(space, tree, a) == pytest.approx(
            float(brute_cost(pairs, Fraction(a))), rel=1e-12, abs=1e-15)


@SETTINGS
@given(twin_spaces(), st.randoms(use_true_random=False))
def test_the_tree_kernel_agrees_with_the_name_walk(drawn, rnd):
    space, tree, exact = drawn
    priced = best_alpha(space, tree)
    for t in (tree, renamed(tree, rnd)):
        points = list(space.points)
        rnd.shuffle(points)
        want = walk_products(t, points)
        got = gromov_product_matrix(t, tuple(points))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                assert tree_gromov_product(t, x, y) == want[i, j]
        pairs = brute_pairs(space, t)
        alpha, cost = best_alpha(space, t)
        # the smallest minimizer over alpha >= 0 is 0 or a kink s / g
        kinks = {s / g for w, s, g in pairs if g > 0 and w > 0}
        best = min(sorted(kinks | {Fraction(0)}),
                   key=lambda a: brute_cost(pairs, a))
        if exact:
            assert alpha == float(best)
        assert (alpha, cost) == priced
        for a in (0.0, alpha, 0.3):
            assert tree_cost(space, t, a) == pytest.approx(
                float(brute_cost(pairs, Fraction(a))), rel=1e-12, abs=1e-15)
