"""Domain types shared by all modules, plus metric/similarity/tree conversions.

All values are immutable after construction and all operations are pure, so
everything here is safe to read from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricSimilarity,
    BadParams,
    DuplicatePoint,
    InvalidDiagonal,
    InvalidMetric,
    NegativeDistance,
    OutOfRangeEntry,
    SpaceValidationError,
    ThresholdOutOfRange,
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
    distinct -- the merged weights, the similarity between the distinct
                rows and each point's row (``_dedupe_points``), read-only

    A space checks itself as it is made (``validate_space``) and then groups
    its points by similarity row once, for every kernel to read.  On a
    shared 2-core host the grouping took 1.6 ms at n = 512 and 0.17 s at
    n = 4096.  With d < n distinct rows, ``distinct`` keeps a d x d copy for
    the space's life (32 MiB at d = 2048); with d = n it holds ``sim``.
    """

    points: tuple[str, ...]
    weights: np.ndarray
    sim: np.ndarray
    bound: float = 1.0
    distinct: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(str(p) for p in self.points))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "sim", np.asarray(self.sim, dtype=float))
        object.__setattr__(self, "bound", float(self.bound))
        self.weights.setflags(write=False)
        self.sim.setflags(write=False)
        validate_space(self)
        object.__setattr__(self, "distinct", _dedupe_points(self))

    @property
    def n(self) -> int:
        return len(self.points)


# Rows per band that ``_row_labels`` adds 0 to, instead of copying all rows
KEY_ROWS = 64


def _row_labels(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the rows of a 2-D array 0, 1, ... in order of first occurrence.

    Returns each row's number and the index of the first row of each
    number.  Rows are keyed by their bytes after adding 0, which keeps the
    array's dtype and turns -0.0 into 0.0, so rows of finite floats are
    one number exactly when they are equal as numbers, and integer rows
    are keyed by their own bytes.
    """
    keys: dict[bytes, int] = {}
    label = np.array([keys.setdefault(row.tobytes(), len(keys))
                      for i in range(0, len(m), KEY_ROWS)
                      for row in m[i:i + KEY_ROWS] + 0], dtype=int)
    return label, np.unique(label, return_index=True)[1]


def _dedupe_points(space: SimilaritySpace
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse points with identical similarity rows, merging their weights.

    Returns the merged weights, the similarity between the distinct rows (in
    order of first occurrence) and each point's row index, so that a
    per-row result r expands to the points as ``r[inv]``, all read-only.
    Triple expectations depend on a point only through its row (including
    the diagonal), so grouping identical rows is an exact reduction.
    ``_row_labels`` decides which rows are equal; it keys them by their
    bytes after adding 0, which turns -0.0 into 0.0, so rows equal as
    numbers are one row.  Weight merging uses ``math.fsum`` so that
    re-splitting a point into equal-mass copies round-trips exactly when
    the weight is a power of two.
    """
    inv, keep = _row_labels(space.sim)
    w, s = space.weights, space.sim
    if len(keep) < space.n:
        w, s = _merge_weights(w, inv), s[np.ix_(keep, keep)]
    for a in (w, s, inv):
        a.setflags(write=False)
    return w, s, inv


def _merge_weights(p: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The ``math.fsum`` of p over each group 0, 1, ..., none of them empty.

    fsum rounds the exact sum once, so a merged weight does not depend on
    the order of its points, and it is at least each of its terms.
    """
    order = np.argsort(group, kind="stable")
    terms = p[order].tolist()
    ends = np.bincount(group).cumsum().tolist()
    return np.array([math.fsum(terms[a:b])
                     for a, b in zip([0] + ends, ends)])


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


# Side of the square tiles of the symmetry check: a tile and its mirror stay
# in cache, where a band against its transposed column band did not
SYMMETRY_TILE = 64
# the pairs i < j of a tile on the diagonal, made once: formed in each call,
# the mask put the check of a 12 x 12 matrix at 29 µs instead of 7 µs
# (2-core host)
_ABOVE = np.triu(np.ones((SYMMETRY_TILE,) * 2, dtype=bool), 1)
_ABOVE.setflags(write=False)


def first_asymmetry(m: np.ndarray) -> tuple[int, int] | None:
    """The first pair i < j, in row-major order, with m[i, j] != m[j, i].

    A NaN never equals its mirror, so a NaN off the diagonal is reported as
    an asymmetry.  Returns None for a symmetric square matrix.  Each band of
    rows is compared in one step, as square tiles against their transposed
    mirror tiles, plus a strip of columns past the last whole tile; its
    first pair can lie in any tile, so the whole band is compared first.
    """
    n = len(m)
    for i in range(0, n, SYMMETRY_TILE):
        h = min(SYMMETRY_TILE, n - i)
        full = i + (n - i) // h * h
        # tile b of the band holds m[i + r, i + b h + c] at [b, r, c]
        diff = m[i:i + h, i:full].reshape(h, -1, h).transpose(1, 0, 2) \
            != m[i:full, i:i + h].reshape(-1, h, h).transpose(0, 2, 1)
        diff[0] &= _ABOVE[:h, :h]  # pairs below the diagonal mirror others
        strip = m[i:i + h, full:] != m[full:, i:i + h].T
        if diff.any() or strip.any():
            rows, cols = np.concatenate(
                [diff.transpose(1, 0, 2).reshape(h, -1), strip], 1).nonzero()
            return i + int(rows[0]), i + int(cols[0])
    return None


def _first_repeat(ids: tuple[str, ...]) -> int:
    """The index of the first id that an earlier one repeats; there is one."""
    seen: set[str] = set()
    for i, p in enumerate(ids):
        if p in seen:
            return i
        seen.add(p)


def _check_distinct(ids: tuple[str, ...]) -> None:
    """Raise DuplicatePoint at the first repeated identifier."""
    if len(set(ids)) < len(ids):
        i = _first_repeat(ids)
        raise DuplicatePoint(i, ids[i])


def validate_space(space: SimilaritySpace) -> None:
    """Check every SimilaritySpace invariant; raise on the first violation."""
    _check_distinct(space.points)
    n = space.n
    if space.weights.shape != (n,):
        raise SpaceValidationError(
            f"weights shape {space.weights.shape} does not match {n} points")
    if space.sim.shape != (n, n):
        raise SpaceValidationError(
            f"sim shape {space.sim.shape} does not match {n} points")
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
    # min and max pass a NaN on and need no n x n temporaries
    if not (s.min() >= 0 and s.max() <= space.bound):
        outside = ~((s >= 0) & (s <= space.bound))
        i, j = (int(v) for v in np.argwhere(outside)[0])
        raise OutOfRangeEntry((i, j), float(s[i, j]))


def rescale_to_unit(space: SimilaritySpace) -> SimilaritySpace:
    """Divide the similarity by its bound so the result lives in [0, 1]."""
    if space.bound == 1.0:
        return space
    return SimilaritySpace(
        points=space.points,
        weights=space.weights,
        sim=space.sim / space.bound,
        bound=1.0,
    )


def validate_metric(dist) -> np.ndarray:
    """dist as a float array, once it is square, nonnegative, with a zero
    diagonal, symmetric (a NaN off the diagonal is an asymmetry), finite
    and meets the triangle inequality (O(n^3)); raise on the first
    violation."""
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidMetric(f"distance matrix must be square, got {d.shape}")
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
    # NaN and -inf failed above; inf - inf would be a NaN slack, never > 0
    inf = np.isinf(d)
    if inf.any():
        i, j = (int(v) for v in np.argwhere(inf)[0])
        raise InvalidMetric(f"distance {float(d[i, j])!r} at ({i},{j}) "
                            "is not finite")
    # d[i,j] <= d[i,k] + d[k,j] for all triples
    for k in range(len(d)):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        bad = slack > 0
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise TriangleViolation((i, k, j), float(slack[i, j]))
    return d


def gromov_products(d: np.ndarray, base: int) -> np.ndarray:
    """Gromov products (x|y) = (d(x, base) + d(y, base) - d(x, y)) / 2 of a
    validated metric, with the diagonal set to d(x, base)."""
    prod = 0.5 * (d[:, base][:, None] + d[:, base][None, :] - d)
    np.fill_diagonal(prod, d[:, base])
    return prod


def gromov_product_similarity(
    dist: np.ndarray, base: int, points: list[str] | None = None,
    weights: np.ndarray | None = None,
) -> SimilaritySpace:
    """The similarity space of a checked metric's ``gromov_products`` at
    base, bounded by its diameter."""
    d = validate_metric(dist)
    n = len(d)
    if not (0 <= base < n):
        raise BadParams(f"base index {base} out of range")
    bound = float(d.max()) if n and d.max() > 0 else 1.0
    if points is None:
        points = [str(i) for i in range(n)]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return SimilaritySpace(points=tuple(points), weights=weights,
                           sim=gromov_products(d, base), bound=bound)


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
            raise SpaceValidationError("mass does not match vertex count")
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

    @classmethod
    def _symmetric_by_construction(cls, vertices: tuple[str, ...],
                                   mass: np.ndarray, adj: np.ndarray
                                   ) -> "WeightedGraph":
        """A graph whose caller guarantees finite nonnegative masses and a
        symmetric boolean adjacency with a zero diagonal.

        Only the ids are checked.  For adjacency derived from a validated
        space, where the other checks would scan the matrix again to find
        nothing.
        """
        _check_distinct(vertices)
        graph = object.__new__(cls)
        mass = np.asarray(mass, dtype=float)
        mass.setflags(write=False)
        adj.setflags(write=False)
        object.__setattr__(graph, "vertices", vertices)
        object.__setattr__(graph, "mass", mass)
        object.__setattr__(graph, "adj", adj)
        return graph

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
    The graph inherits the space's invariants and does not check them again.
    Raises ThresholdOutOfRange unless 0 < t <= bound.
    """
    if not 0.0 < t <= space.bound:
        raise ThresholdOutOfRange(t, space.bound)
    idx = np.arange(space.n) if subset is None else np.asarray(subset, dtype=int)
    # a space has distinct ids, valid weights and a symmetric sim
    return _graph_at(tuple(map(space.points.__getitem__, idx.tolist())),
                     space.weights[idx], space.sim, t, idx)


def _graph_at(vertices: tuple[str, ...], mass: np.ndarray, sim: np.ndarray,
              t: float, idx: np.ndarray) -> WeightedGraph:
    """The graph on the rows ``idx`` of a symmetric ``sim`` with an edge
    where sim >= t, its vertices named and weighed by the caller, who
    guarantees distinct names and finite nonnegative masses."""
    adj = sim[idx[:, None], idx] >= t
    adj.flat[::len(idx) + 1] = False
    return WeightedGraph._symmetric_by_construction(vertices, mass, adj)


# ---------------------------------------------------------------------------
# compatible trees


@dataclass(frozen=True, eq=False)
class CompatibleTree:
    """Rooted leveled tree whose leaves are the points of a similarity space.

    ``names`` holds the node ids, root first and each after its parent,
    ``parent`` each node's parent index (-1 at the root) and ``leaf`` the
    leaf index of each of ``points``.  A tree checks itself as it is made
    (``validate_tree``), then reads each node's depth ``level`` (root at 0)
    off the parent array; all read-only.
    """

    points: tuple[str, ...]
    names: tuple[str, ...]
    parent: np.ndarray
    leaf: np.ndarray
    level: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "parent", np.array(self.parent, dtype=int))
        object.__setattr__(self, "leaf", np.array(self.leaf, dtype=int))
        validate_tree(self)
        # pointer jumping: up[v] is an ancestor of v, level[v] the steps to it
        up = np.maximum(self.parent, 0)
        level = np.minimum(self.parent + 1, 1)
        while up.any():
            level, up = level + level[up], up[up]
        for a in (self.parent, self.leaf, level):
            a.setflags(write=False)
        object.__setattr__(self, "level", level)

    def __eq__(self, other):
        """Equal trees link the same ids alike, in any order held."""
        if not isinstance(other, CompatibleTree):
            return NotImplemented
        return self._links() == other._links()

    def _links(self) -> tuple[dict, dict]:
        up = self.names + (None,)  # index -1 reads None
        return ({v: up[u] for v, u in zip(self.names, self.parent.tolist())},
                {p: up[v] for p, v in zip(self.points, self.leaf.tolist())})

    @property
    def root(self) -> str:
        return self.names[0]

    def depth(self) -> int:
        return int(self.level.max())


def _node_prefix(points: tuple[str, ...]) -> str:
    """The shortest run of ``@`` that starts no point id."""
    prefix = "@"
    # each id follows a NUL in the text, so a run that the text lacks
    # starts no id; a run that it holds is checked id by id
    text = "\0" + "\0".join(points)
    while "\0" + prefix in text and any(p.startswith(prefix) for p in points):
        prefix += "@"
    return prefix


def tree_from_levels(points: tuple[str, ...], levels: list[list[list[int]]]
                     ) -> CompatibleTree:
    """Leveled tree read off nested clusters of point indices.

    ``levels[d-1]`` lists the clusters at depth d; the root ``{prefix}0.0``
    holds every point.  A cluster of one point is a leaf named by that point,
    at the depth where it first appears, and is not listed again below.  The
    k-th cluster of two or more points in row d is node ``{prefix}{d}.{k}``,
    and a node's parent is the node that held its first point one row up.
    The prefix is the shortest run of ``@`` that starts no point id.  The
    nodes are held row by row, cluster by cluster, after the root.
    """
    return _tree_of_rows(points, [
        (np.array([i for cluster in row for i in cluster], dtype=int),
         np.array([len(cluster) for cluster in row], dtype=int))
        for row in levels])[0]


def _tree_of_rows(points: tuple[str, ...],
                  rows: list[tuple[np.ndarray, np.ndarray]]):
    """The tree of ``tree_from_levels`` and its levels as point-id tuples,
    the root's first.

    Row d lists its points cluster by cluster, with the cluster sizes.
    Each node name is formed once and shared by the tree and the level
    that hold it; the parents and leaves are read off the rows as indices.
    """
    ids = np.array(points, dtype=object)
    prefix = _node_prefix(points)
    names = [f"{prefix}0.0"]
    parent = [np.array([-1])]
    leaf = np.full(len(points), -1)
    levels = [(tuple(points),)]
    holder = np.zeros(len(points), dtype=int)  # each point's node a row up
    for d, (flat, sizes) in enumerate(rows, start=1):
        ends = sizes.cumsum()
        starts = ends - sizes
        firsts = flat[starts]
        inner = sizes >= 2
        node = ids[firsts]
        node[inner] = np.array([f"{prefix}{d}.{k}" for k in
                                range(np.count_nonzero(inner))], dtype=object)
        index = np.arange(len(names), len(names) + len(sizes))
        names += node.tolist()
        parent.append(holder[firsts])
        leaf[firsts[~inner]] = index[~inner]
        row = list(zip(node.tolist()))
        if inner.any():
            held = tuple(ids[flat].tolist())
            for i in inner.nonzero()[0].tolist():
                row[i] = held[starts[i]:ends[i]]
        levels.append(tuple(row))
        holder[flat] = np.repeat(index, sizes)
    return CompatibleTree(points, tuple(names), np.concatenate(parent),
                          leaf), tuple(levels)


def validate_tree(tree: CompatibleTree) -> None:
    """Check every CompatibleTree invariant; raise on the first violation."""
    names, parent, leaf = tree.names, tree.parent, tree.leaf
    size = len(names)
    if not size or parent.shape != (size,) \
            or leaf.shape != (len(tree.points),):
        raise TreeStructureError(
            "a tree needs a root, a parent per node and a leaf per point")
    if len(set(names)) < size:
        raise TreeStructureError(
            f"node id {names[_first_repeat(names)]!r} is repeated")
    if parent[0] != -1:
        raise TreeStructureError("root must not have a parent")
    # a parent before each node makes every path end at the root
    up = parent[1:]
    bad = np.flatnonzero((up < 0) | (up >= np.arange(1, size)))
    if bad.size:
        v = names[bad[0] + 1]
        raise TreeStructureError(f"non-root node {v!r} has no parent"
                                 if up[bad[0]] == -1 else
                                 f"parent of {v!r} does not come before it")
    held = np.bincount(leaf[(leaf >= 0) & (leaf < size)], minlength=size)
    if held.sum() < len(leaf) or held.max() > 1:
        raise TreeStructureError("each point needs a leaf node of its own")
    if len(set(tree.points)) < len(tree.points):
        raise TreeStructureError("leaf-to-point map is not injective")
    # leaves are exactly the childless non-root nodes
    kids = np.bincount(up, minlength=size)
    bad = np.flatnonzero((held > 0) & (kids > 0))
    if bad.size:
        raise TreeStructureError(f"leaf {names[bad[0]]!r} has children")
    held[0] = 1  # the root needs no child
    bad = np.flatnonzero(held + kids == 0)
    if bad.size:
        raise TreeStructureError(
            f"childless node {names[bad[0]]!r} is not a leaf")


def _products(tree: CompatibleTree, nodes: np.ndarray) -> np.ndarray:
    """The level of the lowest common ancestor of each pair of the given
    nodes, and each node's own level on the diagonal.

    The ancestors are read off the parent array a level at a time, deepest
    first, and a pair's product counts the levels d >= 1 where theirs are
    one node; a level below a node gets an id of the node's own, so it
    never matches: O(k^2 * depth) comparisons for k nodes.
    """
    level = tree.level[nodes]
    out = np.zeros((len(nodes),) * 2, dtype=int)
    for d in range(int(level.max(initial=0)), 0, -1):
        at = level >= d
        row = np.where(at, nodes, -1 - np.arange(len(nodes)))
        out += row[:, None] == row
        nodes = np.where(at, tree.parent[nodes], nodes)
    out[np.diag_indices(len(out))] = level
    return out


def _leaves(tree: CompatibleTree, points) -> np.ndarray:
    """The leaf node of each point; UnknownLeaf at a point of no leaf."""
    if points == tree.points:
        return tree.leaf
    at = dict(zip(tree.points, tree.leaf.tolist()))
    try:
        return np.array([at[p] for p in points], dtype=int)
    except KeyError as exc:
        raise UnknownLeaf(exc.args[0]) from None


def tree_gromov_product(tree: CompatibleTree, x: str, y: str) -> int:
    """Level of the lowest common ancestor of two leaf points.

    Equals (d(x,r) + d(y,r) - d(x,y)) / 2 under the graph distance on the
    tree.  For x == y this returns the depth of the leaf itself, which keeps
    expectations over independent identically distributed pairs well defined.
    """
    return int(_products(tree, _leaves(tree, (x, y)))[0, 1])


def gromov_product_matrix(tree: CompatibleTree, points: tuple[str, ...]) -> np.ndarray:
    """All pairwise leaf Gromov products, as an integer matrix, in the
    order of ``points`` (``_products``)."""
    return _products(tree, _leaves(tree, tuple(points)))


def space_from_tree(tree: CompatibleTree, weights: np.ndarray | None = None,
                    alpha: float = 1.0) -> SimilaritySpace:
    """Similarity space whose sim matrix is alpha times the tree products."""
    points = tuple(sorted(tree.points))
    n = len(points)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    sim = alpha * _products(tree, _leaves(tree, points)).astype(float)
    bound = float(sim.max()) if n and sim.max() > 0 else 1.0
    return SimilaritySpace(points=points, weights=weights, sim=sim, bound=bound)
