"""Property tests of the profile, its integral and the tree products.

Hypothesis draws small spaces with tied values, zero weights and -0.0
entries, and random trees with leaves at unequal depths.  Examples are
derandomized and bounded so that the module stays fast and repeatable.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treelike import (  # noqa: E402
    CompatibleTree,
    SimilaritySpace,
    bad_set_measure,
    bad_set_profile,
    gromov_product_matrix,
    hyp_exact,
    profile_integral,
    tree_gromov_product,
)

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
    parents = [draw(st.integers(0, k - 1)) for k in range(1, size)]
    parent = {f"n{k}": f"n{par}" for k, par in enumerate(parents, start=1)}
    level = {"n0": 0}
    for k, par in enumerate(parents, start=1):
        level[f"n{k}"] = level[f"n{par}"] + 1
    has_child = set(parent.values())
    leaves = [node for node in parent if node not in has_child]
    return CompatibleTree(root="n0", parent=parent, level=level,
                          leaf_points={leaf: f"x{leaf}" for leaf in leaves})


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


@SETTINGS
@given(trees(), st.randoms(use_true_random=False))
def test_product_matrix_equals_pairwise_products(tree, rnd):
    points = sorted(tree.leaf_points.values())
    rnd.shuffle(points)
    prod = gromov_product_matrix(tree, tuple(points))
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            assert prod[i, j] == tree_gromov_product(tree, x, y)
