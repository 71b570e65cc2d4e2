"""Recursive construction of a compatible tree from a similarity space.

Level by level, the current clusters are thresholded at the next ladder
value, partitioned, and repaired into cliques; the cliques become the next
level's clusters and the edits are logged.  A cluster whose partition is
forced and whose threshold graph is already a union of cliques that the
clique stages would keep is its own repair, and skips those stages; where
the forced verdict is proven without the partition pipeline, it skips the
pipeline too.  Leaves attach at the level where their cluster first
becomes a singleton.  The report carries the tree, the edit measure, the
evaluated cost, and exhaustive checks of the two-sided bound linking
similarity values to tree levels.

Points with identical similarity rows are one atom of the measure split in
parts, so the clusters are built on classes of such twins and expanded to
points as each level is written, and a tree is priced on pairs of groups of
sibling twins rather than on pairs of points.  The build names its tree and
prices it from the cluster labels of its rows; ``tree_cost`` and
``best_alpha`` price a given tree from its node names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cliques import _settles, clique_closure, clique_repair, \
    neighborhood_family, part_neighbor_graph
from .core import CompatibleTree, SimilaritySpace, _merge_weights, \
    _tree_of_rows, gromov_product_matrix, threshold_graph
from .errors import BadParams, LeafMismatch, MapMismatch
from .hyperbolicity import ThresholdLadder, _exceptional_rows, hyp_exact, \
    threshold_ladder
from .regularity import RegularityParams, _forced_without_scan, \
    regularity_pipeline


@dataclass(frozen=True)
class TreeBuildReport:
    """Everything one run of the tree construction produced.

    levels[i] lists the clusters at depth i as point-id tuples; sandwich
    violations are pairs outside the edit set whose similarity escapes
    [kappa * product - delta0, kappa * (product + 1) + delta0].
    """

    tree: CompatibleTree
    kappa: float
    delta0: float
    cost: float
    best_alpha: float
    best_cost: float
    delta_e_total: float
    levels: tuple[tuple[tuple[str, ...], ...], ...]
    excluded_points: tuple[str, ...]
    sandwich_violations: tuple[tuple[str, str], ...]
    cost_bound: float
    cost_bound_ok: bool
    ladder: ThresholdLadder
    n_repairs: int


@dataclass(frozen=True)
class _ClassPairs:
    """A space and a tree, priced on pairs of point groups.

    A group holds the points with one similarity row and one leaf parent.
    Such sibling leaves have the same similarity and the same product with
    every point outside the group, so the pairs between two groups G != H
    are one term of weight W(G) W(H).  Inside a group, every pair shares the
    similarity s(x, x).  Two distinct points of a group meet at their
    parent, one level above their leaves: ``meet`` holds the products of
    distinct points, and for a group of one point its leaf product, as
    ``gromov_product_matrix`` gives it.  ``shared`` marks the groups of two
    or more points, whose pairs (x, x) have the product ``leaf``, mass
    ``self_weight``, and whose pairs of distinct points have mass
    ``inner``.  A space without repeated rows has no shared group, so it is
    priced exactly as the point-by-point matrix sum would price it.
    """

    group: np.ndarray
    weight: np.ndarray
    self_weight: np.ndarray
    inner: np.ndarray
    shared: np.ndarray
    sim: np.ndarray
    meet: np.ndarray
    leaf: np.ndarray


def _groups(space: SimilaritySpace, within: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the points by (distinct row, ``within``), a nonnegative label,
    numbered in order of their first points: each point's group, the first
    points, the groups' ``math.fsum``-merged weights and their similarity,
    all read from ``space.distinct`` and, when the groups are the rows, not
    copied."""
    w, s, row_of = space.distinct
    _, first, label = np.unique(row_of * (within.max() + 1) + within,
                                return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[first.argsort()] = np.arange(len(first))
    group, reps = rank[label], np.sort(first)
    if len(reps) == len(w):  # one group per row, numbered alike
        return group, reps, w, s
    rows = row_of[reps]
    return group, reps, _merge_weights(space.weights, group), \
        s[np.ix_(rows, rows)]


def _class_pairs(space: SimilaritySpace, tree: CompatibleTree) -> _ClassPairs:
    """Group the points by (similarity row, leaf parent), the rows being the
    space's ``distinct`` ones.  The groups' similarities are read from the
    distinct rows, so a function of them put in their place is priced
    alike.  The products are formed once, on the first point of each group."""
    if set(tree.leaf_points.values()) != set(space.points):
        raise LeafMismatch("tree leaves do not match the space points")
    parents = list(map(tree.parent.get, map(tree.leaf_of, space.points)))
    # a parent is named by the last point below it
    last = dict(zip(parents, range(space.n)))
    return _priced(space, np.fromiter(map(last.__getitem__, parents),
                                      dtype=int, count=space.n),
                   lambda reps: gromov_product_matrix(
                       tree, tuple(space.points[i] for i in reps)))


def _priced(space: SimilaritySpace, parent: np.ndarray, products
            ) -> _ClassPairs:
    """The pricing groups of points with one row and one leaf parent.

    ``parent`` labels each point's leaf parent by a nonnegative number, and
    ``products(reps)`` gives the Gromov product matrix of the groups' first
    points."""
    group, reps, weight, sim = _groups(space, parent)
    p = space.weights
    shared = np.bincount(group) >= 2
    prod = products(reps)
    leaf = prod.diagonal().copy()
    prod[np.diag_indices(len(reps))] -= shared
    return _ClassPairs(
        group=group,
        weight=weight,
        self_weight=np.bincount(group, weights=p * p, minlength=len(reps)),
        # each merged weight is at least its terms, so no term is negative
        inner=np.bincount(group, weights=p * (weight[group] - p),
                          minlength=len(reps)),
        shared=shared,
        sim=sim,
        meet=prod,
        leaf=leaf,
    )


def _price(cp: _ClassPairs, level: np.ndarray) -> float:
    """The expected |s - level[g]| over pairs, of similarity s, product g."""
    gap = level[cp.meet]
    np.subtract(cp.sim, gap, out=gap)
    total = float(cp.weight @ np.abs(gap, out=gap) @ cp.weight)
    # the sum priced the pairs (x, x) of a shared group at the parent
    s, leaf = cp.sim.diagonal()[cp.shared], cp.leaf[cp.shared]
    moved = np.abs(s - level[leaf]) - np.abs(s - level[leaf - 1])
    return total + float(cp.self_weight[cp.shared] @ moved)


def _cost(cp: _ClassPairs, alpha: float) -> float:
    """The tree cost at alpha: level g is alpha * g, as in alpha * products."""
    return _price(cp, alpha * np.arange(cp.leaf.max() + 1))


def _kinks(cp: _ClassPairs) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoint s / g and kink weight w g of every term of the cost
    with product g > 0 and weight w > 0, in row-major order and then the
    pairs (x, x) of the shared groups, which have their leaf's product.

    The pair weights are formed 64 rows at a time, so that no d x d float
    array is held; each entry is the same product as in the whole matrix.
    """
    diagonal = np.where(cp.shared, cp.inner, cp.self_weight)
    ratios, kink = [], []
    for a in range(0, len(cp.weight), 64):
        w = np.outer(cp.weight[a:a + 64], cp.weight)
        ends = np.arange(len(w))
        w[ends, a + ends] = diagonal[a:a + 64]
        g = cp.meet[a:a + 64]
        sel = (g > 0) & (w > 0)
        prod = g[sel].astype(float)
        ratios.append(cp.sim[a:a + 64][sel] / prod)
        kink.append(w[sel] * prod)
    leaf = cp.leaf[cp.shared].astype(float)
    mass = cp.self_weight[cp.shared]
    own = (leaf > 0) & (mass > 0)
    ratios.append(cp.sim.diagonal()[cp.shared][own] / leaf[own])
    kink.append(mass[own] * leaf[own])
    return np.concatenate(ratios), np.concatenate(kink)


def _best_alpha(cp: _ClassPairs) -> tuple[float, float]:
    ratios, kink = _kinks(cp)
    alpha = 0.0
    if ratios.size:
        order = np.argsort(ratios, kind="stable")
        ratios, kink = ratios[order], kink[order]
        total = float(kink.sum())
        idx = int(np.searchsorted(np.cumsum(kink, out=kink), total / 2.0,
                                  side="left"))
        alpha = max(float(ratios[min(idx, len(ratios) - 1)]), 0.0)
    return alpha, _cost(cp, alpha)


def tree_cost(space: SimilaritySpace, tree: CompatibleTree, alpha: float
              ) -> float:
    """Expected absolute error between similarity and alpha times products."""
    if not 0 <= alpha < math.inf:
        raise BadParams(f"alpha must be finite and nonnegative, got {alpha!r}")
    return _cost(_class_pairs(space, tree), alpha)


def best_alpha(space: SimilaritySpace, tree: CompatibleTree
               ) -> tuple[float, float]:
    """Exact minimizer of the cost over alpha >= 0, smallest one on ties.

    The cost is convex piecewise linear with kinks at s(x,y) / (x,y)_r, so
    the smallest minimizer is the first breakpoint where the cumulative kink
    weight reaches half the total (a weighted median).
    """
    return _best_alpha(_class_pairs(space, tree))


def split_atoms(space: SimilaritySpace, delta: float
                ) -> tuple[SimilaritySpace, dict[str, str]]:
    """Divide each point into enough equal-weight copies to cap every atom.

    Point x becomes floor(P(x)/delta) + 1 copies of weight P(x)/k, all with
    its similarity row (the diagonal supplies the similarity between two
    copies of the same point).  Returns the new space and the copy-to-origin
    map.  Points that need no splitting keep their identifier.
    """
    if not delta > 0:
        raise BadParams(f"delta must be positive, got {delta!r}")
    used = set(space.points)  # a copy's names avoid every name taken
    new_points: list[str] = []
    counts: list[int] = []
    for p, w in zip(space.points, space.weights.tolist()):
        k = int(math.floor(w / delta)) + 1
        names = [p]
        if k > 1:
            stem = p
            names = [f"{stem}#{c}" for c in range(k)]
            while not used.isdisjoint(names):
                stem += "#"
                names = [f"{stem}#{c}" for c in range(k)]
            used.update(names)
        new_points += names
        counts.append(k)
    src = np.repeat(np.arange(space.n), counts)
    out = SimilaritySpace(
        points=tuple(new_points),
        weights=np.repeat(space.weights / counts, counts),
        sim=space.sim[np.ix_(src, src)],
        bound=space.bound,
    )
    return out, dict(zip(new_points, [space.points[i] for i in src.tolist()]))


def merge_tree_leaves(tree: CompatibleTree, copy_map: dict[str, str], seed: int
                      ) -> CompatibleTree:
    """Keep one uniformly chosen copy per original point and prune the rest.

    The kept leaf is relabeled by its original point; branches left without
    leaves are removed.  Distances from retained leaves to the root are
    unchanged.
    """
    leaves = set(tree.leaf_points.values())
    if leaves != set(copy_map):
        raise MapMismatch("copy map does not match the tree leaves")
    by_origin: dict[str, list[str]] = {}
    for cp, orig in copy_map.items():
        by_origin.setdefault(orig, []).append(cp)
    rng = np.random.default_rng(seed)
    # kept leaf node -> the original point it is renamed to
    kept = {tree.leaf_of(copies[int(rng.integers(len(copies)))]): orig
            for orig, copies in by_origin.items()}
    keep = {tree.root}
    for node in kept:
        while node not in keep:
            keep.add(node)
            node = tree.parent[node]
    return CompatibleTree(
        root=tree.root,
        parent={kept.get(v, v): tree.parent[v] for v in tree.level
                if v in keep and v != tree.root},
        level={kept.get(v, v): d for v, d in tree.level.items() if v in keep},
        leaf_points={kept[v]: kept[v] for v in tree.level if v in kept},
    )


@dataclass(frozen=True)
class ConverseReport:
    hyp: float
    cost: float
    bound: float
    margin: float
    passed: bool


def converse_check(space: SimilaritySpace, tree: CompatibleTree, alpha: float
                   ) -> ConverseReport:
    """Verify the average defect against five times the root of the cost.

    The check passes when the defect is at most the bound plus a fixed
    1e-12 slack for rounding.
    """
    cost = tree_cost(space, tree, alpha)
    if space.bound != 1.0:
        raise BadParams("converse check requires a space with bound 1")
    hyp = hyp_exact(space)
    bound = 5.0 * math.sqrt(max(cost, 0.0))
    margin = bound - hyp
    return ConverseReport(
        hyp=hyp, cost=cost, bound=bound, margin=margin,
        passed=bool(hyp <= bound + 1e-12),
    )


# ---------------------------------------------------------------------------
# the recursive construction


def _repair_cluster(space: SimilaritySpace, idxs: list[int], t: float,
                    params: RegularityParams, seed: tuple,
                    sizes: np.ndarray | None = None
                    ) -> tuple[list[list[int]], tuple[np.ndarray, ...]]:
    """Partition one cluster at threshold t into cliques and singletons.

    ``sizes`` holds the number of points each space point stands for (one
    each by default); the clique-mass floor counts a clique's points by it.
    Returns the child clusters (as global point-index lists, singletons
    included, in order of their first member) and the log's edited pairs
    i < j, stage by stage, as (rows, cols) arrays of global indices.

    A forced partition of a threshold graph that the clique stages would
    leave as it is (``cliques._settles``) skips them: the graph is then its
    own repair, and no pair is edited.  The settle checks run first, and
    ``regularity._forced_without_scan`` then decides ``forced`` without the
    partition pipeline where its guards prove the pipeline's verdict, and
    raises what the pipeline would raise.  Any other cluster runs the
    pipeline, so its errors and parts are those of the pipeline.
    """
    graph = threshold_graph(space, t, subset=idxs)
    take = np.asarray(idxs)
    sizes = None if sizes is None else sizes[idxs]
    # each vertex's clique, labelled by its first member, if it settles
    first = _settles(graph, params.epsilon, sizes)
    if first is None or not _forced_without_scan(graph, params):
        partition = regularity_pipeline(graph, params, seed=seed)
        if not partition.params["forced"]:
            first = None
    rows = cols = take[:0]
    if first is None:
        pg = part_neighbor_graph(partition, params.epsilon)
        family = neighborhood_family(pg, params.epsilon)
        structure = clique_closure(family, pg, params.epsilon)
        repaired, log = clique_repair(graph, partition, structure,
                                      params.epsilon, sizes)
        rows, cols = map(np.concatenate, zip(*log.edits.values()))
        rows, cols = take[rows], take[cols]
        # the repaired graph is exactly the cliques plus isolated points, so
        # each point's clique is its closed neighbourhood
        first = (repaired.adj | np.eye(len(idxs), dtype=bool)).argmax(axis=1)
    # idxs ascend, so ordering by the first members sorts the clusters
    order = first.argsort(kind="stable")
    flat = take[order].tolist()
    heads = first == np.arange(len(first))  # a vertex that labels its clique
    ends = np.bincount(first, minlength=len(first))[heads].cumsum().tolist()
    children = [flat[a:b] for a, b in zip([0] + ends, ends)]
    return children, (rows, cols)


def _meets(label: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """The Gromov product matrix of points from their clusters by depth,
    one row per depth, and their leaf depths: two points meet at the
    deepest cluster they share, and clusters nest."""
    prod = np.zeros((len(leaf), len(leaf)), dtype=int)
    for row in label:
        prod += row[:, None] == row
    prod[np.diag_indices(len(leaf))] = leaf
    return prod


def _violations(bad: np.ndarray, members: list[np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Point pairs x != y whose classes are a pair where bad holds, in
    row-major order."""
    xs, ys = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for a, b in zip(*np.nonzero(bad)):
        x, y = np.meshgrid(members[a], members[b], indexing="ij")
        keep = x != y
        xs.append(x[keep])
        ys.append(y[keep])
    x, y = np.concatenate(xs), np.concatenate(ys)
    order = np.lexsort((y, x))
    return x[order], y[order]


def build_tree(space: SimilaritySpace, epsilon: float, m: int,
               seed: int = 0, delta0: float | None = None) -> TreeBuildReport:
    """Build a compatible tree by repeated threshold-and-repair.

    Requires a space with bound 1.  The root cluster holds the points
    outside the exceptional set.  At each depth d = 1..n_levels every
    pending cluster of two or more points is repaired at the d-th threshold
    with seed (seed, d, k), k its position among the pending clusters, and
    its cliques become children; any other cluster, and every cluster at
    depth n_levels + 1, splits into single points.  A single point is a leaf
    at the depth it appears.  Exceptional points are leaves at depth 1,
    after the root's other children.  The cost is evaluated at
    alpha = kappa and the optimal alpha is reported alongside.  No atom
    bound is enforced: each partition lowers m until its heaviest point
    fits (see ``atom_bound_theory`` for the paper's worst-case bound).

    Points with one similarity row whose diagonal s(x, x) is the row
    maximum are true twins: at any threshold they are either joined to each
    other with the same neighbours, or joined to nothing.  So the clusters
    are built on the quotient in which each set of true twins is one point,
    named by its first point, and every other point is a class of its own;
    the classes are expanded to points as each row is written.  At
    threshold t, the graph on a class of twins is complete when
    s(x, x) >= t and edgeless otherwise, so a class that is a child of its
    own at depth d <= n_levels stays one cluster if s(x, x) >= t_d and
    splits into single points if not; a pending cluster of one class costs
    a repair that edits nothing.
    Seeds count every pending cluster, one-class ones included, and the
    clique-mass floor counts each class as its points.  The
    threshold graphs, partitions and clique repairs, the edit set and the
    sandwich check are all d x d for d classes; the cost and the best alpha
    are priced on groups of sibling twins (``_ClassPairs``), as
    ``tree_cost`` and ``best_alpha`` price them.

    Each row is kept as arrays: its points, cluster by cluster, and the
    cluster sizes, ordered at once by pending cluster and first point.
    The tree, the levels and the pricing are read off these rows in one
    pass (``_tree_of_rows``): each node name is formed once, and the
    products come from each point's cluster at every depth, so the build
    walks no node names.
    """
    if space.bound != 1.0:
        raise BadParams("build_tree requires a space rescaled to bound 1")
    params = RegularityParams(epsilon=epsilon, m=m)
    ladder = threshold_ladder(space, epsilon, m, delta0)
    _, row_sim, row_of = space.distinct
    # the exceptional set depends on a point only through its row
    excluded = np.flatnonzero(
        _exceptional_rows(space, ladder)[2][row_of]).tolist()
    n = space.n
    kappa = ladder.kappa
    d0 = ladder.delta0
    n_levels = ladder.n_levels

    # the points of a twin row are one class; any other point is its own
    twin = row_sim.diagonal() >= row_sim.max(axis=1)
    cls, reps, weights, sim = _groups(
        space, np.where(twin[row_of], 0, np.arange(n)))
    d = len(reps)
    quotient = space if d == n else SimilaritySpace(
        points=tuple(space.points[i] for i in reps), weights=weights, sim=sim)
    sizes = np.bincount(cls)
    by_class = np.argsort(cls, kind="stable")
    ends = sizes.cumsum().tolist()
    members = [by_class[a:b] for a, b in zip([0] + ends, ends)]
    top = quotient.sim.diagonal()

    out = np.zeros(n, dtype=bool)
    out[excluded] = True
    out_classes = np.zeros(d, dtype=bool)  # the exceptional set is classes
    out_classes[cls[excluded]] = True
    edited = np.zeros((d, d), dtype=bool)
    edited[out_classes, :] = True
    edited[:, out_classes] = True

    # each row as its points, cluster by cluster, and the cluster sizes
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    n_repairs = 0
    # the points of the pending clusters, cluster by cluster, and the
    # position of each one's cluster; at depth 1, the exceptional points
    # follow as a cluster that nothing repairs
    held = np.argsort(out, kind="stable")
    part = out[held].astype(int)
    pending = [np.flatnonzero(~out_classes).tolist()] \
        if n - len(excluded) >= 2 else []
    head = np.empty(d, dtype=int)  # each class's cluster's first point
    for depth in range(1, n_levels + 2):
        # a class that no repair keeps whole splits into single points
        head[:] = -1
        whole = {}  # the classes of each cluster, by first point
        if depth <= n_levels:
            t = ladder.thresholds[depth - 1]
            for k, item in enumerate(pending):
                n_repairs += 1
                if len(item) == 1:
                    children = [item]
                else:
                    children, pairs = _repair_cluster(
                        quotient, item, t, params, (seed, depth, k), sizes)
                    edited[pairs] = True
                for child in children:
                    if len(child) > 1 or top[child[0]] >= t:
                        head[child] = first = int(reps[child[0]])
                        whole[first] = child
        if not whole:  # every point left is a cluster of its own
            if len(held):
                rows.append((held, np.ones(len(held), dtype=int)))
            break
        key = head[cls[held]]
        key = np.where(key < 0, held, key)
        # clusters in the order of their pending clusters, then of their
        # first points; a split class's points fall among the others
        order = np.argsort(part * n + key, kind="stable")
        flat, key = held[order], key[order]
        edge = np.ones(len(key) + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=edge[1:-1])
        bounds = edge.nonzero()[0]
        starts, runs = bounds[:-1], np.diff(bounds)
        rows.append((flat, runs))
        multi = runs >= 2
        held = flat[np.repeat(multi, runs)]
        part = np.repeat(np.arange(np.count_nonzero(multi)), runs[multi])
        pending = [whole[f] for f in key[starts[multi]].tolist()]
    edited |= edited.T  # the repairs marked each pair above the diagonal
    tree, levels, label, leaf, parent = _tree_of_rows(space.points, rows)

    # the points of a class are sibling leaves with one row, so each class
    # lies in one pricing group; two of its points meet at their parent
    prices = _priced(space, parent,
                     lambda firsts: _meets(label[:, firsts], leaf[firsts]))
    group = prices.group[reps]
    prod = prices.meet[np.ix_(group, group)]
    s = quotient.sim
    # bound expressions mirror the ladder window arithmetic so the float
    # comparisons are exact, not merely within tolerance
    lower_ok = s >= prod * kappa - d0
    upper_ok = s <= (prod + 1) * kappa + d0
    bad = ~edited & ~(lower_ok & upper_ok)
    # the pairs of a class with itself are pairs of distinct points only
    bad[np.diag_indices(d)] &= sizes >= 2
    xs, ys = _violations(bad, members)
    violations = tuple((space.points[i], space.points[j])
                       for i, j in zip(xs.tolist(), ys.tolist()))

    w = quotient.weights
    delta_e_total = float(w @ edited @ w)
    cost_kappa = _cost(prices, kappa)
    alpha_star, cost_star = _best_alpha(prices)
    p = space.weights
    collision = float((p ** 2).sum())
    bound = kappa + d0 + (1.0 + kappa) * (delta_e_total + collision)
    return TreeBuildReport(
        tree=tree,
        kappa=kappa,
        delta0=d0,
        cost=cost_kappa,
        best_alpha=alpha_star,
        best_cost=cost_star,
        delta_e_total=delta_e_total,
        levels=levels,
        excluded_points=tuple(space.points[i] for i in excluded),
        sandwich_violations=violations,
        cost_bound=bound,
        cost_bound_ok=cost_kappa <= bound + 1e-9,
        ladder=ladder,
        n_repairs=n_repairs,
    )
