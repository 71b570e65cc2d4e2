"""Recursive construction of a compatible tree from a similarity space.

Level by level, the current clusters are thresholded at the next ladder
value, partitioned, and repaired into cliques; the cliques become the next
level's clusters and the edits are logged.  Each depth is one array pass
over the pending clusters (``_settle``): a cluster whose threshold graph
is already a union of cliques that the clique stages would keep, and whose
forced partition is proven without the partition pipeline, is its own
repair and runs neither.  The others run the pipeline, and then the
clique stages, unless the cluster settles and its partition is forced.
Leaves attach at the level where their cluster first becomes a
singleton.  The report carries the tree, the edit measure, the evaluated
cost, and exhaustive checks of the two-sided bound linking similarity
values to tree levels.

Points with identical similarity rows are one atom of the measure split in
parts, so the clusters are built on classes of such twins, read from the
space's distinct rows, and expanded to points as each level is written,
and a tree is priced on pairs of groups of sibling twins rather than on
pairs of points.  The build, ``tree_cost`` and ``best_alpha`` price a tree
alike, from its parent array (``_class_pairs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cliques import _doubtful, _family_cutoff, _mass_floor, \
    clique_closure, clique_repair, neighborhood_family, part_neighbor_graph
from .core import CompatibleTree, SimilaritySpace, WeightedGraph, \
    _graph_at, _leaves, _merge_weights, _products, _tree_of_rows
from .errors import BadParams, LeafMismatch, MapMismatch
from .hyperbolicity import ThresholdLadder, _exceptional_rows, hyp_exact, \
    threshold_ladder
from .regularity import RegularityParams, _closes_at_one_point, _scale, \
    regularity_pipeline

SCAN_FREE_POINTS = 2 ** 20  # most points a cluster's scan-free guard decides


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
    """Group the points by (distinct row, ``within``, a nonnegative label
    of each point), numbered in order of their first points: each point's
    group, the first points, the groups' ``math.fsum``-merged weights and
    their similarity, all read from ``space.distinct`` and, when the groups
    are the rows, not copied.
    """
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
    if tree.points != space.points and set(tree.points) != set(space.points):
        raise LeafMismatch("tree leaves do not match the space points")
    leaf = _leaves(tree, space.points)
    group, reps, weight, sim = _groups(space, tree.parent[leaf] + 1)
    p = space.weights
    shared = np.bincount(group) >= 2
    prod = _products(tree, leaf[reps])
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
    if set(tree.points) != set(copy_map):
        raise MapMismatch("copy map does not match the tree leaves")
    by_origin: dict[str, list[str]] = {}
    for cp, orig in copy_map.items():
        by_origin.setdefault(orig, []).append(cp)
    rng = np.random.default_rng(seed)
    kept = _leaves(tree, [copies[int(rng.integers(len(copies)))]
                          for copies in by_origin.values()])
    keep = np.zeros(len(tree.names), dtype=bool)
    keep[0] = keep[kept] = True
    for d in range(tree.depth(), 0, -1):  # and their ancestors
        keep[tree.parent[keep & (tree.level == d)]] = True
    names = np.array(tree.names, dtype=object)
    names[kept] = list(by_origin)
    index = np.append(np.cumsum(keep) - 1, -1)  # index -1 reads -1
    return CompatibleTree(
        points=tuple(by_origin),
        names=tuple(names[keep].tolist()),
        parent=index[tree.parent[keep]],
        leaf=index[kept],
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
    1e-12 slack for rounding.  A space whose bound is not 1 is refused
    before the tree is priced.
    """
    if space.bound != 1.0:
        raise BadParams("converse check requires a space with bound 1")
    cost = tree_cost(space, tree, alpha)
    hyp = hyp_exact(space)
    bound = 5.0 * math.sqrt(max(cost, 0.0))
    margin = bound - hyp
    return ConverseReport(
        hyp=hyp, cost=cost, bound=bound, margin=margin,
        passed=bool(hyp <= bound + 1e-12),
    )


# ---------------------------------------------------------------------------
# the recursive construction


class _Classes(NamedTuple):
    """The classes a build repairs: their merged weights, the similarity
    between them, the number of points each stands for, and the first
    point of each, whose id (in ``points``) names it in a graph."""

    weight: np.ndarray
    sim: np.ndarray
    size: np.ndarray
    first: np.ndarray
    points: tuple[str, ...]


def _settle(classes: _Classes, pend: np.ndarray, lens: np.ndarray,
            t: float, params: RegularityParams):
    """Decide at once, for every pending cluster of a depth, whether it is
    its own repair, in one pass over the class arrays.

    ``pend`` lists the classes of clusters of two or more classes, cluster
    by cluster and ascending in each, and ``lens`` the cluster lengths.
    Returns ``first``, the position in ``pend`` of the first member of each
    class's clique (read only where its cluster settles); ``settles`` per
    cluster; ``forced`` per cluster, True or False where the scan-free
    guard decides the pipeline's verdict on a cluster that settles and None
    elsewhere; and each cluster's total mass, summed as ``float(mass.sum())``
    sums the cluster's masses in class order.  Minima, maxima and counts
    are segment reductions; the totals are summed cluster by cluster, as a
    segment sum (``np.add.reduceat``) rounds in another order.

    **Settling.**  A cluster settles when the clique stages, run on a
    forced partition of its threshold graph at t, would return the graph
    unchanged, edit no pair and raise nothing.  On a forced partition every
    part is one point, every pair is regular and each density is its
    adjacency entry, 0 or 1; as epsilon < 1/4, a 1 is dense and a 0 lies
    below the middle band, so the part neighbor graph is the threshold
    graph itself.  The graph is a union of cliques exactly when each vertex
    shares its closed neighborhood with the first member of that
    neighborhood.  If, moreover, every clique of two or more vertices has
    at least the family cutoff epsilon^(1/4) q members (q the cluster's
    vertex count), then ``neighborhood_family`` takes the cliques at or
    above the cutoff, largest first, and leaves only isolated vertices,
    which attach to no group; ``clique_closure`` links no two cliques and
    finds no bad pair; and r groups of at least epsilon^(1/4) q members
    among q give r epsilon^(1/4) q <= q, so the bound of epsilon^(-1/4)
    groups holds without a check.  Every stage mask of ``clique_repair`` is
    then empty and its postcondition holds.  What remains is its mass
    floor: a cluster with a group that the screen of ``_light_groups``
    (``_mass_floor``, ``_doubtful``) does not clear is left to the stages,
    which raise ``LightClique`` or pass it.  The screen sums each group in
    class order, as the stages do, and counts a class as its points.

    **The forced verdict without the scan.**  Where it answers, the guard
    gives ``regularity_pipeline``'s ``forced`` verdict without its
    denominator scan.  Two conditions make the scan's N irrelevant.  First,
    epsilon * max_blowup <= 1 gives condition (a) of
    ``regularity._forced_refinement`` at every N <= max_blowup, which is
    every N the scan returns, since rounding is monotone.  Second, the scan
    returns.  Let N0 = ceil(2 / nu), 2 * 10^9 at nu = 1e-9, the first
    denominator of the doubling phase, which the scan reaches if no smaller
    one passes.  Let every relative mass p be at least 1 / N0, checked as
    fl(max(n, N0) min p) >= 1, and n <= SCAN_FREE_POINTS.  Then every
    x = fl(N0 p) is at least 1, so ``_apportion`` starts from floor(x).
    With u = 2^-53, p = fl(m / fl(sum m)) gives
    |sum x - N0| <= N0 (n + 1) u (1 + 2^-30) < 0.24, so the floors fall
    short of N0 by at most n, and no multiplicity moves by more than 1.
    Then |K / N0 - p| <= 1 / N0 + u p, and the computed check reads at most
    nu / 2 + 4 u < nu: N0 is accepted.  The weights sum to one within
    (2n + 1) u, far inside the scan's n * nu, so it raises no BadParams.
    The verdict is then condition (b) at the pipeline's own total, largest
    and least mass.  No error can come first: the total is positive, and
    the largest relative mass p* is at most (1 - 1/N0)(1 + 2^-32) < 1, so
    ``_effective_m`` finds m_eff >= 1 and raises no ``HeavyAtom``.  The
    guard does not answer on masses of 1e-13, which pass (b) at
    epsilon = 1e-12 but make the scan raise ``BlowupTooLarge``.
    """
    k, size_all = len(lens), len(pend)
    ends = np.cumsum(lens)
    starts = ends - lens
    of = np.repeat(np.arange(k), lens)  # each class's cluster
    q = lens[of]  # the vertex count of each class's cluster
    closed = classes.sim[pend[:, None], pend] >= t
    if k > 1:  # no edge joins two clusters
        closed &= of[:, None] == of
    closed.flat[::size_all + 1] = True
    first = closed.argmax(axis=1)
    size = closed.sum(axis=1)
    grouped = size >= _family_cutoff(params.epsilon, q)
    fine = (closed == closed[first]).all(axis=1) & (grouped | (size == 1))
    mass = classes.weight[pend]
    total = [float(mass[a:b].sum())
             for a, b in zip(starts.tolist(), ends.tolist())]
    # the screen bins each group at its first member, the rest at the end
    head = np.where(grouped, first, size_all)
    screened = np.bincount(head, mass, minlength=size_all + 1)[:-1]
    count = np.bincount(head, classes.size[pend], minlength=size_all + 1)
    fine &= ~(_doubtful(screened, q, _mass_floor(
        params.epsilon, np.array(total))[of]) & (count[:-1] >= 2))
    settles = np.bincount(of, ~fine, minlength=k) == 0
    forced = [None] * k
    if params.epsilon * params.max_blowup <= 1.0:
        least = np.minimum.reduceat(mass, starts).tolist()
        top = np.maximum.reduceat(mass, starts).tolist()
        n0 = math.ceil(2.0 / params.nu)  # the doubling phase's first N
        for c in np.flatnonzero(settles).tolist():
            mu, n = total[c], int(lens[c])
            # the least relative mass, as the scan rounds it
            if mu > 0 and n <= SCAN_FREE_POINTS \
                    and max(n, n0) * (least[c] / mu) >= 1.0:
                forced[c] = _closes_at_one_point(
                    mu, _scale(mu, top[c], params)[1], least[c], params)
    return first, settles, forced, total


def _repair_cluster(graph: WeightedGraph, params: RegularityParams,
                    seed: tuple, sizes: np.ndarray,
                    first: np.ndarray | None = None
                    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The pipeline path of one cluster's repair, for a cluster that the
    pass of ``_settle`` does not settle without it.

    ``first`` holds the pass's cliques of a cluster that settles, labelled
    by their first members; a forced partition keeps them, and no pair is
    edited.  Otherwise (no ``first``, or a partition that is not forced)
    the clique stages run.  ``sizes`` holds the number of points each
    vertex stands for; the clique-mass floor counts a clique's points by
    it.  Returns each vertex's clique, labelled by its first member, and
    the log's edited pairs i < j, stage by stage, as (rows, cols) arrays of
    vertex indices.  The errors are those of the pipeline and the stages.
    """
    partition = regularity_pipeline(graph, params, seed=seed)
    if first is not None and partition.params["forced"]:
        return first, (first[:0], first[:0])
    pg = part_neighbor_graph(partition, params.epsilon)
    family = neighborhood_family(pg, params.epsilon)
    structure = clique_closure(family, pg, params.epsilon)
    repaired, log = clique_repair(graph, partition, structure,
                                  params.epsilon, sizes)
    # the repaired graph is exactly the cliques plus isolated points, so
    # each point's clique is its closed neighbourhood
    first = (repaired.adj | np.eye(graph.n, dtype=bool)).argmax(axis=1)
    return first, tuple(map(np.concatenate, zip(*log.edits.values())))


def _repair_row(classes: _Classes, pend: np.ndarray, lens: np.ndarray,
                t: float, params: RegularityParams, seeds
                ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Repair the pending clusters of one depth at threshold t.

    ``pend`` lists their classes, cluster by cluster and ascending in each,
    ``lens`` the cluster lengths, and ``seeds[k]`` is cluster k's seed.  A
    cluster of one class is its own child.  The others go through one pass
    (``_settle``); a cluster that it settles with a forced verdict is done,
    and each other one runs ``_repair_cluster``, in cluster order, so the
    first error raised is the one a cluster-by-cluster repair raises.
    Returns each class's child, labelled by the child's first class, and
    the edited class pairs (rows, cols), i < j within each cluster.
    """
    label = pend.copy()
    multi = lens >= 2
    rows, cols = [pend[:0]], [pend[:0]]
    if not multi.any():
        return label, (rows[0], cols[0])
    inner = np.repeat(multi, lens)
    pend, lens = pend[inner], lens[multi]
    first, settles, forced, _ = _settle(classes, pend, lens, t, params)
    ends = np.cumsum(lens).tolist()
    for j, (k, a, b) in enumerate(zip(np.flatnonzero(multi).tolist(),
                                      [0] + ends, ends)):
        if forced[j]:
            continue
        take = pend[a:b]
        graph = _graph_at(tuple(map(classes.points.__getitem__,
                                    classes.first[take].tolist())),
                          classes.weight[take], classes.sim, t, take)
        local, (r, c) = _repair_cluster(
            graph, params, seeds[k], classes.size[take],
            first[a:b] - a if settles[j] else None)
        first[a:b] = local + a
        rows.append(take[r])
        cols.append(take[c])
    label[inner] = pend[first]
    return label, (np.concatenate(rows), np.concatenate(cols))


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
    are built on classes: each set of true twins is one class, named by
    its first point, and every other point is a class of its own.  When
    every distinct row is a twin row, the classes are the space's
    ``distinct`` rows, read as they are.  With fewer classes than points,
    the classes form the quotient space, checked as it is made, and the
    repairs read its weights and similarity.  At
    threshold t, the graph on a class of twins is complete when
    s(x, x) >= t and edgeless otherwise, so a class that is a child of its
    own at depth d <= n_levels stays one cluster if s(x, x) >= t_d and
    splits into single points if not; a pending cluster of one class costs
    a repair that edits nothing.  Seeds count every pending cluster,
    one-class ones included, and the clique-mass floor counts each class as
    its points.  The threshold graphs, partitions and clique repairs, the
    edit set and the sandwich check are all d x d for d classes; the cost
    and the best alpha are priced on groups of sibling twins
    (``_ClassPairs``), as ``tree_cost`` and ``best_alpha`` price them, and
    those groups are read off the classes.

    Each depth is one pass (``_repair_row``): ``_settle`` decides at once
    which clusters are their own repair, and only the others run the
    partition pipeline.  The pass labels each pending class by its child's
    first class, and the row is read off those labels: its points, cluster
    by cluster, and the cluster sizes, ordered at once by pending cluster
    and first point.  The next depth's clusters are the classes of the
    row's clusters of two or more points, each listed at its first point.
    The tree and the levels are read off the rows in one pass
    (``_tree_of_rows``), each node name formed once, and the tree is priced
    from its parent array as ``tree_cost`` prices it.
    """
    if space.bound != 1.0:
        raise BadParams("build_tree requires a space rescaled to bound 1")
    params = RegularityParams(epsilon=epsilon, m=m)
    ladder = threshold_ladder(space, epsilon, m, delta0)
    w, s, row_of = space.distinct
    # the exceptional set depends on a point only through its row
    out = _exceptional_rows(space, ladder)[2][row_of]
    excluded = np.flatnonzero(out)
    n = space.n
    kappa = ladder.kappa
    d0 = ladder.delta0
    n_levels = ladder.n_levels

    # the points of a twin row are one class; any other point is its own
    twin = s.diagonal() >= s.max(axis=1)
    if twin.all():
        cls, weights, sim = row_of, w, s
    else:
        cls, _, weights, sim = _groups(
            space, np.where(twin[row_of], 0, np.arange(n)))
    sizes = np.bincount(cls)
    d = len(sizes)
    # the classes are numbered by their first points, so the running
    # maximum of the labels rises exactly at each first point
    top_label = np.maximum.accumulate(cls)
    rises = np.ones(n, dtype=bool)
    np.greater(top_label[1:], top_label[:-1], out=rises[1:])
    reps = np.flatnonzero(rises)
    quotient = space if d == n else SimilaritySpace(
        points=tuple(space.points[i] for i in reps.tolist()),
        weights=weights, sim=sim)
    classes = _Classes(quotient.weights, quotient.sim, sizes, reps,
                       space.points)
    top = quotient.sim.diagonal()

    out_classes = np.zeros(d, dtype=bool)  # the exceptional set is classes
    out_classes[cls[excluded]] = True
    edited = np.zeros((d, d), dtype=bool)
    edited[out_classes, :] = True
    edited[:, out_classes] = True

    # each row as its points, cluster by cluster, and the cluster sizes
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    n_repairs = 0
    # the points of the pending clusters, cluster by cluster, their classes
    # and the position of each one's cluster; at depth 1, the exceptional
    # points follow as a cluster that nothing repairs
    held = np.argsort(out, kind="stable")
    of = cls[held]
    part = out[held].astype(int)
    # the pending clusters' classes, cluster by cluster, and their lengths
    pend = np.flatnonzero(~out_classes)
    lens = np.array([len(pend)] if n - len(excluded) >= 2 else [], dtype=int)
    for depth in range(1, n_levels + 2):
        if depth > n_levels or not len(lens):
            # every point left is a cluster of its own, in the order held
            rows.append((held, np.ones(len(held), dtype=int)))
            break
        t = ladder.thresholds[depth - 1]
        n_repairs += len(lens)
        label, pairs = _repair_row(
            classes, pend, lens, t, params,
            [(seed, depth, k) for k in range(len(lens))])
        edited[pairs] = True
        # a child of one class splits into single points, unless t
        # joins its points
        kept = (np.bincount(label, minlength=d)[label] >= 2) \
            | (top[label] >= t)
        head = np.full(d, -1)
        head[pend[kept]] = reps[label[kept]]
        key = head[of]
        key = np.where(key < 0, held, key)
        # clusters in the order of their pending clusters, then of their
        # first points; a split class's points fall among the others.  The
        # keys stay below (last part + 1) n, and a stable sort runs fastest
        # on the smallest type that holds them
        order = np.argsort((part * n + key).astype(
            np.min_scalar_type((int(part[-1]) + 1) * n)), kind="stable")
        flat, key = held[order], key[order]
        edge = np.ones(len(key) + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=edge[1:-1])
        runs = np.diff(edge.nonzero()[0])
        rows.append((flat, runs))
        multi = runs >= 2
        if not multi.any():
            break
        inner = np.repeat(multi, runs)
        held = flat[inner]
        of = cls[held]
        part = np.repeat(np.arange(np.count_nonzero(multi)), runs[multi])
        # a class lies in one cluster, whose points ascend, so its first
        # point lists it, and the classes ascend in each cluster
        lead = reps[of] == held
        pend, lens = of[lead], np.bincount(part[lead])
    edited |= edited.T  # the repairs marked each pair above the diagonal
    tree, levels = _tree_of_rows(space.points, rows)

    # the points of a class are sibling leaves with one row, so each class
    # lies in one pricing group; two of its points meet at their parent
    prices = _class_pairs(space, tree)
    group = prices.group[reps]
    prod = prices.meet[group[:, None], group]
    # bound expressions mirror the ladder window arithmetic so the float
    # comparisons are exact, not merely within tolerance
    lower_ok = sim >= prod * kappa - d0
    upper_ok = sim <= (prod + 1) * kappa + d0
    bad = ~edited & ~(lower_ok & upper_ok)
    # the pairs of a class with itself are pairs of distinct points only
    bad[np.diag_indices(d)] &= sizes >= 2
    violations = ()
    if bad.any():
        xs, ys = _violations(bad, np.split(np.argsort(cls, kind="stable"),
                                           sizes.cumsum()[:-1]))
        violations = tuple((space.points[i], space.points[j])
                           for i, j in zip(xs.tolist(), ys.tolist()))

    delta_e_total = float(weights @ edited @ weights)
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
        excluded_points=tuple(space.points[i] for i in excluded.tolist()),
        sandwich_violations=violations,
        cost_bound=bound,
        cost_bound_ok=cost_kappa <= bound + 1e-9,
        ladder=ladder,
        n_repairs=n_repairs,
    )
