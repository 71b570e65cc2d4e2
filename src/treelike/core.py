"""Domain types shared by all modules, plus metric/similarity/tree conversions.

All values are immutable after construction and all operations are pure, so
everything here is safe to read from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricSimilarity,
    BadParams,
    DuplicatePoint,
    InvalidDiagonal,
    NegativeDistance,
    OutOfRangeEntry,
    TreelikeError,
    TreeStructureError,
    TriangleViolation,
    UnknownLeaf,
    WeightSumMismatch,
)

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SimilaritySpace:
    """Finite point set with probability weights and a bounded symmetric similarity.

    points   -- distinct opaque identifiers, one per row/column of ``sim``
    weights  -- probability per point (sums to 1 within 1e-12)
    sim      -- symmetric matrix with entries in [0, bound]; the diagonal is
                meaningful input (identical draws contribute to expectations)
    bound    -- upper bound b > 0 for the similarity values
    """

    points: tuple[str, ...]
    weights: np.ndarray
    sim: np.ndarray
    bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(str(p) for p in self.points))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "sim", np.asarray(self.sim, dtype=float))
        object.__setattr__(self, "bound", float(self.bound))
        self.weights.setflags(write=False)
        self.sim.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)


def upper_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j where a square mask holds.

    The pairs come in row-major order, as ``np.nonzero(np.triu(mask, 1))``
    gives them.  An all-False mask costs one scan and yields two empty
    index arrays.
    """
    if not mask.any():
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    return np.nonzero(np.triu(mask, 1))


# Rows per tile of the symmetry check: comparing a matrix with its transpose
# in one pass reads the transpose across rows, and at n = 512 the tiles take
# about half the time
SYMMETRY_TILE = 64


def first_asymmetry(m: np.ndarray) -> tuple[int, int] | None:
    """The first pair i < j, in row-major order, with m[i, j] != m[j, i].

    A NaN never equals its mirror, so a NaN off the diagonal is reported as
    an asymmetry.  Returns None for a symmetric square matrix.  Each step
    compares a tile of rows with the same tile of columns, transposed.
    """
    for i in range(0, len(m), SYMMETRY_TILE):
        tile = m[i:i + SYMMETRY_TILE, i:] != m[i:, i:i + SYMMETRY_TILE].T
        # a tile's pairs below the diagonal mirror pairs above it
        if tile.any():
            rows, cols = np.nonzero(np.triu(tile, 1))
            if rows.size:
                return i + int(rows[0]), i + int(cols[0])
    return None


def _check_distinct(ids: tuple[str, ...]) -> None:
    """Raise DuplicatePoint at the first repeated identifier."""
    if len(set(ids)) == len(ids):
        return
    seen: set[str] = set()
    for i, p in enumerate(ids):
        if p in seen:
            raise DuplicatePoint(i, p)
        seen.add(p)


def validate_space(space: SimilaritySpace) -> None:
    """Check every SimilaritySpace invariant; raise on the first violation."""
    _check_distinct(space.points)
    n = space.n
    if space.weights.shape != (n,):
        raise TreelikeError(
            f"weights shape {space.weights.shape} does not match {n} points"
        )
    if space.sim.shape != (n, n):
        raise TreelikeError(
            f"sim shape {space.sim.shape} does not match {n} points"
        )
    if not 0 < space.bound < np.inf:
        raise OutOfRangeEntry("bound", space.bound)
    w = space.weights
    bad = np.flatnonzero((w < 0) | ~np.isfinite(w))
    if bad.size:
        raise OutOfRangeEntry(("weight", int(bad[0])), float(w[bad[0]]))
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumMismatch(total)
    s = space.sim
    pair = first_asymmetry(s)
    if pair is not None:
        i, j = pair
        raise AsymmetricSimilarity(i, j, float(s[i, j]), float(s[j, i]))
    outside = ~((s >= 0) & (s <= space.bound))
    if outside.any():
        i, j = (int(v) for v in np.argwhere(outside)[0])
        raise OutOfRangeEntry((i, j), float(s[i, j]))


def rescale_to_unit(space: SimilaritySpace) -> SimilaritySpace:
    """Divide the similarity by its bound so the result lives in [0, 1]."""
    validate_space(space)
    if space.bound == 1.0:
        return space
    return SimilaritySpace(
        points=space.points,
        weights=space.weights,
        sim=space.sim / space.bound,
        bound=1.0,
    )


def gromov_product_similarity(
    dist: np.ndarray, base: int, points: list[str] | None = None,
    weights: np.ndarray | None = None,
) -> SimilaritySpace:
    """Turn a finite metric into a similarity space of products against a base.

    ``sim[x][y] = (d(x, base) + d(y, base) - d(x, y)) / 2`` with the diagonal
    equal to ``d(x, base)``; the bound is the diameter.  The metric axioms
    (symmetry, zero diagonal, nonnegativity, triangle inequality) are checked.
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise TreelikeError(f"distance matrix must be square, got {d.shape}")
    neg = d < 0
    if neg.any():
        i, j = (int(v) for v in np.argwhere(neg)[0])
        raise NegativeDistance(i, j, float(d[i, j]))
    bad = np.flatnonzero(np.diagonal(d) != 0)
    if bad.size:
        i = int(bad[0])
        raise InvalidDiagonal(i, float(d[i, i]))
    pair = first_asymmetry(d)
    if pair is not None:
        i, j = pair
        raise AsymmetricSimilarity(i, j, float(d[i, j]), float(d[j, i]))
    # d[i,j] <= d[i,k] + d[k,j] for all triples
    for k in range(n):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        bad = slack > 0
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise TriangleViolation((i, k, j), float(slack[i, j]))
    if not (0 <= base < n):
        raise BadParams(f"base index {base} out of range")
    prod = 0.5 * (d[:, base][:, None] + d[:, base][None, :] - d)
    np.fill_diagonal(prod, d[:, base])
    diameter = float(d.max()) if n else 0.0
    bound = diameter if diameter > 0 else 1.0
    if points is None:
        points = [str(i) for i in range(n)]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return SimilaritySpace(points=tuple(points), weights=weights, sim=prod, bound=bound)


# ---------------------------------------------------------------------------
# weighted graphs


@dataclass(frozen=True)
class WeightedGraph:
    """Finite simple graph with a nonnegative vertex measure.

    ``vertices`` are distinct identifiers; ``adj`` is the symmetric boolean
    adjacency matrix with a zero diagonal; the edge relation is the set of
    ordered pairs it encodes.
    """

    vertices: tuple[str, ...]
    mass: np.ndarray
    adj: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        mass = np.asarray(self.mass, dtype=float)
        adj = np.asarray(self.adj, dtype=bool)
        _check_distinct(self.vertices)
        n = len(self.vertices)
        if mass.shape != (n,):
            raise TreelikeError("mass vector does not match vertex count")
        if adj.shape != (n, n):
            raise TreelikeError("adjacency does not match vertex count")
        bad = np.flatnonzero((mass < 0) | ~np.isfinite(mass))
        if bad.size:
            raise OutOfRangeEntry(("mass", int(bad[0])), float(mass[bad[0]]))
        if first_asymmetry(adj) is not None:
            raise TreelikeError("edge relation must be symmetric")
        if adj.diagonal().any():
            raise TreelikeError("self-loops are not allowed")
        mass.setflags(write=False)
        adj.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "adj", adj)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def total_mass(self) -> float:
        return float(self.mass.sum())

    def edges(self) -> list[tuple[str, str]]:
        """Edges as ordered identifier pairs, one orientation (i < j)."""
        v = self.vertices
        rows, cols = upper_pairs(self.adj)
        return [(v[i], v[j]) for i, j in zip(rows.tolist(), cols.tolist())]


def threshold_graph(space: SimilaritySpace, t: float,
                    subset: list[int] | None = None) -> WeightedGraph:
    """Graph on (a subset of) the points with an edge where sim >= t.

    The vertex measure is the restriction of the space weights (not
    renormalized).  The diagonal is always dropped: the graph is simple.
    """
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    sub = space.sim[np.ix_(idx, idx)]
    adj = sub >= t
    np.fill_diagonal(adj, False)
    return WeightedGraph(
        vertices=tuple(space.points[i] for i in idx),
        mass=space.weights[idx],
        adj=adj,
    )


# ---------------------------------------------------------------------------
# compatible trees


@dataclass(frozen=True)
class CompatibleTree:
    """Rooted leveled tree whose leaves are the points of a similarity space.

    ``parent`` maps every non-root node to its parent, ``level`` gives the
    depth (root at 0, each child one below its parent), and ``leaf_points``
    is the bijection from leaf node ids to point ids.
    """

    root: str
    parent: dict[str, str]
    level: dict[str, int]
    leaf_points: dict[str, str]
    _children: dict[str, list[str]] = field(default=None, repr=False, compare=False)
    _point_leaf: dict[str, str] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        children: dict[str, list[str]] = {node: [] for node in self.level}
        for child, par in self.parent.items():
            children[par].append(child)
        object.__setattr__(self, "_children", children)
        object.__setattr__(
            self, "_point_leaf", {p: leaf for leaf, p in self.leaf_points.items()}
        )

    def children(self, node: str) -> list[str]:
        return self._children[node]

    def leaf_of(self, point: str) -> str:
        try:
            return self._point_leaf[point]
        except KeyError:
            raise UnknownLeaf(point) from None

    def depth(self) -> int:
        return max(self.level.values()) if self.level else 0


def tree_from_levels(points: tuple[str, ...], levels: list[list[list[int]]]
                     ) -> CompatibleTree:
    """Leveled tree read off nested clusters of point indices.

    ``levels[d-1]`` lists the clusters at depth d; the root ``{prefix}0.0``
    holds every point.  A cluster of one point is a leaf named by that point,
    at the depth where it first appears, and is not listed again below.  The
    k-th cluster of two or more points in row d is node ``{prefix}{d}.{k}``,
    and a node's parent is the node that held its first point one row up.
    The prefix is the shortest run of ``@`` that starts no point id.
    """
    prefix = "@"
    while any(p.startswith(prefix) for p in points):
        prefix += "@"
    root = f"{prefix}0.0"
    parent: dict[str, str] = {}
    level = {root: 0}
    leaf_points: dict[str, str] = {}
    holder = dict.fromkeys(range(len(points)), root)
    for d, row in enumerate(levels, start=1):
        above, holder, k = holder, {}, 0
        for cluster in row:
            if len(cluster) == 1:
                node = points[cluster[0]]
                leaf_points[node] = node
            else:
                node = f"{prefix}{d}.{k}"
                k += 1
                holder.update(dict.fromkeys(cluster, node))
            parent[node] = above[cluster[0]]
            level[node] = d
    return CompatibleTree(root=root, parent=parent, level=level,
                          leaf_points=leaf_points)


def validate_tree(tree: CompatibleTree) -> None:
    """Check the structural invariants of a compatible tree."""
    if tree.root not in tree.level:
        raise TreeStructureError("root is not a node")
    if tree.root in tree.parent:
        raise TreeStructureError("root must not have a parent")
    if tree.level[tree.root] != 0:
        raise TreeStructureError("root level must be 0")
    for node in tree.level:
        if node == tree.root:
            continue
        if node not in tree.parent:
            raise TreeStructureError(f"non-root node {node!r} has no parent")
        par = tree.parent[node]
        if par not in tree.level:
            raise TreeStructureError(f"parent of {node!r} is not a node")
        if tree.level[node] != tree.level[par] + 1:
            raise TreeStructureError(f"level of {node!r} is not parent level + 1")
    # every non-root path reaches the root (no cycles, single tree)
    for node in tree.level:
        seen = set()
        cur = node
        while cur != tree.root:
            if cur in seen:
                raise TreeStructureError(f"cycle through {cur!r}")
            seen.add(cur)
            cur = tree.parent[cur]
    # leaves are exactly the childless non-root nodes
    for node in tree.level:
        childless = not tree.children(node) and node != tree.root
        if childless and node not in tree.leaf_points:
            raise TreeStructureError(f"childless node {node!r} is not a leaf")
        if node in tree.leaf_points and tree.children(node):
            raise TreeStructureError(f"leaf {node!r} has children")
    points = list(tree.leaf_points.values())
    if len(set(points)) != len(points):
        raise TreeStructureError("leaf-to-point map is not injective")


def tree_gromov_product(tree: CompatibleTree, x: str, y: str) -> int:
    """Level of the lowest common ancestor of two leaf points.

    Equals (d(x,r) + d(y,r) - d(x,y)) / 2 under the graph distance on the
    tree.  For x == y this returns the depth of the leaf itself, which keeps
    expectations over independent identically distributed pairs well defined.
    """
    a = tree.leaf_of(x)
    b = tree.leaf_of(y)
    la, lb = tree.level[a], tree.level[b]
    while la > lb:
        a = tree.parent[a]
        la -= 1
    while lb > la:
        b = tree.parent[b]
        lb -= 1
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
        la -= 1
    return la


def gromov_product_matrix(tree: CompatibleTree, points: tuple[str, ...]) -> np.ndarray:
    """All pairwise leaf Gromov products, as an integer matrix.

    Row/column order follows ``points``.  Two leaves share exactly a prefix
    of their root-first ancestor ids, so each product is the count of equal
    depths minus one: O(n * depth) walking plus O(n^2 * depth) array work.
    """
    ids: dict[str, int] = {}
    paths = []
    for p in points:
        node = tree.leaf_of(p)
        chain = [ids.setdefault(node, len(ids))]
        while node != tree.root:
            node = tree.parent[node]
            chain.append(ids.setdefault(node, len(ids)))
        paths.append(chain[::-1])  # root first
    n = len(points)
    depth = max(map(len, paths), default=0)
    # depths below a leaf get an id of its own row, so they never match
    anc = np.array([c + [-1 - i] * (depth - len(c)) for i, c in enumerate(paths)],
                   dtype=int).reshape(n, depth)
    out = np.full((n, n), -1, dtype=int)
    for col in anc.T:
        out += col[:, None] == col[None, :]
    np.fill_diagonal(out, [len(c) - 1 for c in paths])
    return out


def space_from_tree(tree: CompatibleTree, weights: np.ndarray | None = None,
                    alpha: float = 1.0) -> SimilaritySpace:
    """Similarity space whose sim matrix is alpha times the tree products."""
    points = tuple(sorted(tree.leaf_points.values()))
    prod = gromov_product_matrix(tree, points)
    n = len(points)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    sim = alpha * prod.astype(float)
    bound = float(sim.max()) if n and sim.max() > 0 else 1.0
    return SimilaritySpace(points=points, weights=weights, sim=sim, bound=bound)
