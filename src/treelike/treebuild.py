"""Recursive construction of a compatible tree from a similarity space.

Level by level, the current clusters are thresholded at the next ladder
value, partitioned, and repaired into cliques; the cliques become the next
level's clusters and the edits are logged.  Leaves attach at the level where
their cluster first becomes a singleton.  The report carries the tree, the
edit measure, the evaluated cost, and exhaustive checks of the two-sided
bound linking similarity values to tree levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cliques import clique_closure, clique_repair, neighborhood_family, \
    part_neighbor_graph
from .core import CompatibleTree, SimilaritySpace, gromov_product_matrix, \
    threshold_graph, validate_space
from .errors import BadParams, LeafMismatch, MapMismatch
from .hyperbolicity import ThresholdLadder, exceptional_sets, hyp_exact, \
    threshold_ladder
from .regularity import RegularityParams, regularity_pipeline


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
    alpha_used: float
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


def _cost(space: SimilaritySpace, prod: np.ndarray, alpha: float) -> float:
    p = space.weights
    return float(p @ np.abs(space.sim - alpha * prod) @ p)


def _best_alpha(space: SimilaritySpace, prod: np.ndarray
                ) -> tuple[float, float]:
    w = np.outer(space.weights, space.weights)
    g = prod.astype(float)
    sel = (g > 0) & (w > 0)
    alpha = 0.0
    if sel.any():
        ratios = space.sim[sel] / g[sel]
        kink = w[sel] * g[sel]
        order = np.argsort(ratios, kind="stable")
        ratios, kink = ratios[order], kink[order]
        total = float(kink.sum())
        idx = int(np.searchsorted(np.cumsum(kink), total / 2.0, side="left"))
        alpha = max(float(ratios[min(idx, len(ratios) - 1)]), 0.0)
    return alpha, _cost(space, prod, alpha)


def tree_cost(space: SimilaritySpace, tree: CompatibleTree, alpha: float
              ) -> float:
    """Expected absolute error between similarity and alpha times products."""
    validate_space(space)
    if not 0 <= alpha < math.inf:
        raise BadParams(f"alpha must be finite and nonnegative, got {alpha!r}")
    if set(tree.leaf_points.values()) != set(space.points):
        raise LeafMismatch("tree leaves do not match the space points")
    return _cost(space, gromov_product_matrix(tree, space.points), alpha)


def best_alpha(space: SimilaritySpace, tree: CompatibleTree
               ) -> tuple[float, float]:
    """Exact minimizer of the cost over alpha >= 0, smallest one on ties.

    The cost is convex piecewise linear with kinks at s(x,y) / (x,y)_r, so
    the smallest minimizer is the first breakpoint where the cumulative kink
    weight reaches half the total (a weighted median).
    """
    validate_space(space)
    if set(tree.leaf_points.values()) != set(space.points):
        raise LeafMismatch("tree leaves do not match the space points")
    return _best_alpha(space, gromov_product_matrix(tree, space.points))


def split_atoms(space: SimilaritySpace, delta: float
                ) -> tuple[SimilaritySpace, dict[str, str]]:
    """Divide each point into enough equal-weight copies to cap every atom.

    Point x becomes floor(P(x)/delta) + 1 copies of weight P(x)/k, all with
    its similarity row (the diagonal supplies the similarity between two
    copies of the same point).  Returns the new space and the copy-to-origin
    map.  Points that need no splitting keep their identifier.
    """
    validate_space(space)
    if not delta > 0:
        raise BadParams(f"delta must be positive, got {delta!r}")
    existing = set(space.points)
    new_points: list[str] = []
    copy_map: dict[str, str] = {}
    src: list[int] = []
    new_weights: list[float] = []
    for i, p in enumerate(space.points):
        k = int(math.floor(space.weights[i] / delta)) + 1
        if k == 1:
            names = [p]
        else:
            stem = p
            names = [f"{stem}#{c}" for c in range(k)]
            while any(nm in existing for nm in names):
                stem += "#"
                names = [f"{stem}#{c}" for c in range(k)]
        for nm in names:
            new_points.append(nm)
            copy_map[nm] = p
            src.append(i)
            new_weights.append(space.weights[i] / k)
    src_idx = np.array(src, dtype=int)
    sim = space.sim[np.ix_(src_idx, src_idx)]
    out = SimilaritySpace(
        points=tuple(new_points),
        weights=np.array(new_weights),
        sim=sim,
        bound=space.bound,
    )
    return out, copy_map


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
    kept: dict[str, str] = {}
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

    parent: dict[str, str] = {}
    level: dict[str, int] = {}
    leaf_points: dict[str, str] = {}
    rename: dict[str, str] = {}
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


@dataclass(frozen=True)
class ConverseReport:
    hyp: float
    cost: float
    bound: float
    margin: float
    passed: bool


def converse_check(space: SimilaritySpace, tree: CompatibleTree, alpha: float,
                   tolerance: float = 1e-12) -> ConverseReport:
    """Verify the average defect against five times the root of the cost."""
    cost = tree_cost(space, tree, alpha)
    if space.bound != 1.0:
        raise BadParams("converse check requires a space with bound 1")
    hyp = hyp_exact(space)
    bound = 5.0 * math.sqrt(max(cost, 0.0))
    margin = bound - hyp
    return ConverseReport(
        hyp=hyp, cost=cost, bound=bound, margin=margin,
        passed=bool(hyp <= bound + tolerance),
    )


# ---------------------------------------------------------------------------
# the recursive construction


def _repair_cluster(space: SimilaritySpace, idxs: list[int], t: float,
                    params: RegularityParams, seed: tuple
                    ) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Partition one cluster at threshold t into cliques and singletons.

    Returns the child clusters (as global point-index lists, singletons
    included, in order of their first member) and the edited pairs in
    global indices.
    """
    graph = threshold_graph(space, t, subset=idxs)
    partition = regularity_pipeline(graph, params, seed=seed)
    pg = part_neighbor_graph(partition, params.epsilon)
    family = neighborhood_family(pg, params.epsilon)
    structure = clique_closure(family, pg, params.epsilon)
    repaired, log = clique_repair(graph, partition, structure, params.epsilon)
    local = {v: idxs[k] for k, v in enumerate(graph.vertices)}
    edited: list[tuple[int, int]] = []
    for pairs in log.stages.values():
        for u, v in pairs:
            edited.append((local[u], local[v]))
    # clique_repair raises unless the graph is exactly the group cliques plus
    # isolated points, so each point's clique is its closed neighbourhood and
    # the first member of that neighbourhood labels the cluster; idxs ascend,
    # so ordering by that label sorts the clusters
    first = np.argmax(repaired.adj | np.eye(repaired.n, dtype=bool), axis=1)
    order = np.argsort(first, kind="stable")
    cuts = np.flatnonzero(np.diff(first[order])) + 1
    children = [c.tolist() for c in np.split(np.asarray(idxs)[order], cuts)]
    return children, edited


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
    """
    validate_space(space)
    if space.bound != 1.0:
        raise BadParams("build_tree requires a space rescaled to bound 1")
    params = RegularityParams(epsilon=epsilon, m=m)
    ladder = threshold_ladder(space, epsilon, m, delta0=delta0)
    exc = exceptional_sets(space, ladder)
    excluded = sorted(exc.a_indices)
    n = space.n
    kappa = ladder.kappa
    d0 = ladder.delta0
    n_levels = ladder.n_levels

    # internal node ids must not collide with point identifiers
    prefix = "@"
    while any(p.startswith(prefix) for p in space.points):
        prefix += "@"

    root = f"{prefix}0.0"
    parent: dict[str, str] = {}
    level_of: dict[str, int] = {root: 0}
    leaf_points: dict[str, str] = {}
    edited = np.zeros((n, n), dtype=bool)
    edited[excluded, :] = True
    edited[:, excluded] = True

    levels: list[list[tuple[str, ...]]] = [[tuple(space.points)]]
    n_repairs = 0
    pending = [(root, np.setdiff1d(np.arange(n), excluded).tolist())]
    for depth in range(1, n_levels + 2):
        children: list[tuple[str, list[int]]] = []
        for k, (pnode, idxs) in enumerate(pending):
            if depth <= n_levels and len(idxs) >= 2:
                clusters, pairs = _repair_cluster(
                    space, idxs, ladder.thresholds[depth - 1], params,
                    (seed, depth, k)
                )
                n_repairs += 1
                for a, b in pairs:
                    edited[a, b] = True
            else:
                clusters = [[i] for i in idxs]
            children += [(pnode, c) for c in clusters]
        if depth == 1:
            children += [(root, [a]) for a in excluded]
        pending = []
        row: list[tuple[str, ...]] = []
        for pnode, idxs in children:
            if len(idxs) == 1:
                node = space.points[idxs[0]]
                leaf_points[node] = node
            else:
                node = f"{prefix}{depth}.{len(pending)}"
                pending.append((node, idxs))
            parent[node] = pnode
            level_of[node] = depth
            row.append(tuple(space.points[i] for i in idxs))
        if row:
            levels.append(row)

    tree = CompatibleTree(root=root, parent=parent, level=level_of,
                          leaf_points=leaf_points)

    prod = gromov_product_matrix(tree, space.points)
    s = space.sim
    # bound expressions mirror the ladder window arithmetic so the float
    # comparisons are exact, not merely within tolerance
    lower_ok = s >= prod * kappa - d0
    upper_ok = s <= (prod + 1) * kappa + d0
    off_diag = ~np.eye(n, dtype=bool)
    check = off_diag & ~edited
    bad = np.argwhere(check & ~(lower_ok & upper_ok))
    violations = tuple(
        (space.points[int(i)], space.points[int(j)]) for i, j in bad
    )

    p = space.weights
    delta_e_total = float(p @ edited @ p)
    # the tree was built on the space's points, so its leaves match them
    cost_kappa = _cost(space, prod, kappa)
    alpha_star, cost_star = _best_alpha(space, prod)
    collision = float((p ** 2).sum())
    bound = kappa + d0 + (1.0 + kappa) * (delta_e_total + collision)
    return TreeBuildReport(
        tree=tree,
        kappa=kappa,
        delta0=d0,
        alpha_used=kappa,
        cost=cost_kappa,
        best_alpha=alpha_star,
        best_cost=cost_star,
        delta_e_total=delta_e_total,
        levels=tuple(tuple(row) for row in levels),
        excluded_points=tuple(space.points[i] for i in excluded),
        sandwich_violations=violations,
        cost_bound=bound,
        cost_bound_ok=cost_kappa <= bound + 1e-9,
        ladder=ladder,
        n_repairs=n_repairs,
    )
