"""Turn a thresholded similarity graph into a disjoint union of cliques.

Parts of a regularity partition are linked when their pair is regular with
edge density near one.  Maximal disjoint neighborhoods of linked parts are
grouped into clusters, nearby leftover parts are attached, and the vertex
graph is then repaired in five staged edit passes whose pairs and measures
are all logged.

Every stage works on boolean part-by-part matrices, in a bounded number of
array operations with no loop over parts or pairs, and skips work whose
result is provably empty.  The parts are single
points, so that the part neighbor relation is the thresholded vertex graph
itself and q is the vertex count, whenever the partition is forced: (a)
epsilon N <= 1 for the rationalized denominator N, and (b) every point's
mass is at least epsilon mu / (2 (1 + m*)) (see ``regularity``).  On such a
partition a build decides, without running the stages, whether they would
leave the graph as it is (see ``treebuild``); it shares the family cutoff
and the mass screen with the stages that apply them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WeightedGraph, upper_pairs
from .errors import LightClique, NotAClique, PostconditionFailure
from .regularity import PartitionResult

STAGE_NAMES = (
    "delete_exceptional_incident",
    "complete_within_part",
    "complete_within_group",
    "delete_cross_group",
    "delete_leftover_incident",
)


@dataclass(frozen=True)
class PartNeighborGraph:
    """Symmetric relations on the non-exceptional parts V_1..V_q.

    ``neighbor[i][j]`` holds when the pair is regular with density at least
    1 - 2 epsilon (inclusive); ``irregular`` marks pairs the tester rejected.
    ``dichotomy_violations`` lists regular pairs whose density landed in the
    middle band [3 epsilon, 1 - 2 epsilon), which the theory excludes when
    the hyperbolicity preconditions hold; they are diagnostics, not errors.
    """

    q: int
    neighbor: np.ndarray
    irregular: np.ndarray
    densities: np.ndarray
    dichotomy_violations: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CliqueStructure:
    """Grouping of parts produced by the neighborhood construction.

    families          -- maximal disjoint neighborhoods (part index tuples)
    part_groups       -- connected unions of families (each verified complete)
    extended_groups   -- part_groups plus attached leftover parts
    leftover_parts    -- parts attached to no group
    bad_pairs         -- neighbor pairs spanning two distinct extended groups
    """

    families: tuple[tuple[int, ...], ...]
    part_groups: tuple[tuple[int, ...], ...]
    extended_groups: tuple[tuple[int, ...], ...]
    leftover_parts: tuple[int, ...]
    bad_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ModificationLog:
    """Staged edge edits of one repair run.

    ``edits`` holds each stage's pairs i < j of ``vertices`` as row-major
    index arrays.  A pair may be added in one stage and deleted by a later
    one (leftover parts are completed and then cleared); stage consistency
    means each stage's edits were valid against the graph state it saw.
    ``total_measure`` weighs the union of all stages once.
    """

    vertices: tuple[str, ...]
    edits: dict[str, tuple[np.ndarray, np.ndarray]]
    stage_measures: dict[str, float]
    total_measure: float

    @property
    def stages(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Each stage's pairs by vertex name, formed on every read, each in
        both orientations: (u, v) then (v, u)."""
        v = self.vertices
        return {name: tuple(pair for i, j in zip(rows.tolist(), cols.tolist())
                            for pair in ((v[i], v[j]), (v[j], v[i])))
                for name, (rows, cols) in self.edits.items()}


def part_neighbor_graph(partition: PartitionResult, epsilon: float
                        ) -> PartNeighborGraph:
    """Classify part pairs as neighbor / regular-non-neighbor / irregular."""
    q = partition.q
    r = np.arange(q + 1)
    upper = r[:, None] < r
    upper[0] = False  # the pairs 1 <= i < j of non-exceptional parts
    d = partition.densities
    regular = upper & partition.regular_flags
    dense = regular & (d >= 1.0 - 2.0 * epsilon)
    middle = regular & ~dense & (d >= 3.0 * epsilon)
    irregular = upper & ~partition.regular_flags
    # middle lies above the diagonal, where upper_pairs keeps every entry
    rows, cols = upper_pairs(middle)
    return PartNeighborGraph(
        q=q,
        neighbor=dense | dense.T,
        irregular=irregular | irregular.T,
        densities=d,
        dichotomy_violations=tuple(zip(rows.tolist(), cols.tolist())),
    )


def _family_cutoff(epsilon: float, q: int) -> float:
    """The fewest members, epsilon^(1/4) q, that a neighborhood among q
    parts needs to join the family."""
    return epsilon ** 0.25 * q


def neighborhood_family(pg: PartNeighborGraph, epsilon: float
                        ) -> tuple[tuple[int, ...], ...]:
    """Greedy maximal collection of disjoint neighborhoods of adequate size.

    Repeatedly takes the part whose closed neighborhood among unused parts
    is largest (ties to the lowest index) and accepts it while it has at
    least epsilon^(1/4) q members; on exit no unused part has an acceptable
    neighborhood left, which is re-verified.  The sizes are counted once
    and then lowered by each accepted neighborhood's members.
    """
    q = pg.q
    cutoff = _family_cutoff(epsilon, q)
    closed = pg.neighbor[1:, 1:].copy()
    closed.flat[::q + 1] = True
    # closed-neighborhood sizes among unused parts; an unused part counts
    # itself, and a used part's size is negative
    size = closed.sum(axis=1)
    family: list[tuple[int, ...]] = []
    while size.size:
        best = size.argmax()  # first maximum: lowest index on ties
        if size[best] < cutoff:
            break
        members = (closed[best] & (size >= 0)).nonzero()[0]
        family.append(tuple((members + 1).tolist()))
        size -= closed[members].sum(axis=0)  # closed is symmetric
        size[members] = -1
    unused = size >= 0
    if unused.any() and np.where(
            unused, (closed & unused).sum(axis=1), -1).max() >= cutoff:
        raise PostconditionFailure("greedy neighborhood family not maximal")
    return tuple(family)


def _groups_of(label: np.ndarray, count: int) -> tuple[tuple[int, ...], ...]:
    """The parts labelled 0, 1, ..., count - 1, each in increasing order;
    label -1 marks a part in no group."""
    parts = (label >= 0).nonzero()[0]
    flat = parts[label[parts].argsort(kind="stable")].tolist()
    ends = np.bincount(label[parts], minlength=count).cumsum().tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))


def clique_closure(family: tuple[tuple[int, ...], ...], pg: PartNeighborGraph,
                   epsilon: float) -> CliqueStructure:
    """Group the neighborhoods into clusters and attach nearby leftovers.

    Neighborhoods are connected when some cross pair of their parts are
    neighbors; the connected components must be complete.  A leftover part
    with at least epsilon^(1/3) q neighbors inside a unique cluster joins
    that cluster; finding two such clusters contradicts the construction and
    raises instead of picking one arbitrarily.

    Components are complete exactly when each family's linked families share
    its lowest one, so only a gap needs the closure.  Attachments are sought
    only for unclustered parts, and bad pairs only once a part attached.
    """
    q = pg.q
    t = len(family)
    parts = np.array([p for f in family for p in f], dtype=int)
    r = np.arange(t)
    owner = r.repeat(list(map(len, family)))
    root = r
    if t > 1:  # a lone family links to nothing
        member = np.zeros((t, q + 1))
        member[owner, parts] = 1.0
        adj = (member @ pg.neighbor @ member.T > 0) & (r[:, None] < r)
        adj |= adj.T
        linked = adj | (r[:, None] == r)
        root = linked.argmax(axis=1)
        if not (linked == (root[:, None] == root)).all():
            # transitive closure; a component's root is its lowest family
            reach, wider = linked, linked.astype(float) @ linked > 0
            while not np.array_equal(wider, reach):
                reach, wider = wider, wider.astype(float) @ wider > 0
            root = reach.argmax(axis=1)
            # the first gap in component order, as a component-by-component
            # scan of member pairs would meet it
            rows, cols = upper_pairs(reach & ~adj)
            gap = np.lexsort((cols, rows, root[rows]))[0]
            a, b = int(rows[gap]), int(cols[gap])
            members = np.nonzero(root == root[a])[0].tolist()
            triple = _shortest_gap_triple(adj, members, a, b)
            raise NotAClique(
                "neighborhood component is not complete: families "
                f"{triple[0]} ~ {triple[1]} ~ {triple[2]} but the "
                "ends are not linked; the hyperbolicity "
                "preconditions do not hold for these parameters",
                witness=triple,
            )
    # components in order of their lowest family, which is their root
    head = root == r
    n_groups = int(head.sum())
    group_id = np.full(q + 1, -1)
    group_id[parts] = (head.cumsum() - 1)[root][owner]
    groups = extended_groups = _groups_of(group_id, n_groups)
    if n_groups > epsilon ** -0.25 + 1e-9:
        raise PostconditionFailure("more clusters than the size bound allows")
    leftover = outside = (group_id[1:] < 0).nonzero()[0] + 1
    bad: tuple[tuple[int, int], ...] = ()
    if outside.size:
        in_group = (group_id[:, None] == np.arange(n_groups)).astype(float)
        attach_cut = epsilon ** (1.0 / 3.0) * q
        hits = pg.neighbor[outside] @ in_group >= attach_cut
        count = hits.sum(axis=1)
        many = (count > 1).nonzero()[0]
        if many.size:
            i, row = int(outside[many[0]]), hits[many[0]]
            raise NotAClique(
                f"part {i} attaches to {int(count[many[0]])} distinct "
                "clusters; cluster uniqueness fails for these parameters",
                witness=(i, tuple(row.nonzero()[0].tolist())),
            )
        one = count == 1
        leftover = outside[~one]
        if one.any():
            group_id[outside[one]] = hits[one].argmax(axis=1)
            extended_groups = _groups_of(group_id, n_groups)
            gid = group_id[1:]
            cross = (gid[:, None] >= 0) & (gid[None, :] >= 0) \
                & (gid[:, None] != gid[None, :])
            rows, cols = upper_pairs(pg.neighbor[1:, 1:] & cross)
            bad = tuple(zip((rows + 1).tolist(), (cols + 1).tolist()))
    if len(bad) > 3.0 * epsilon ** (1.0 / 12.0) * q * q:
        raise PostconditionFailure("bad pair count exceeds its bound")
    if leftover.size:
        degrees = pg.neighbor[leftover, 1:].sum(axis=1)
        over = (degrees > 2.0 * epsilon ** (1.0 / 12.0) * q).nonzero()[0]
        if over.size:
            raise PostconditionFailure(
                f"leftover part {int(leftover[over[0]])} has too many "
                f"neighbors ({int(degrees[over[0]])})"
            )
    return CliqueStructure(
        families=family,
        part_groups=groups,
        extended_groups=extended_groups,
        leftover_parts=tuple(leftover.tolist()),
        bad_pairs=bad,
    )


def _shortest_gap_triple(adj: np.ndarray, members: list[int], a: int, b: int
                         ) -> tuple[int, int, int]:
    """First triple u ~ v ~ w with u, w not linked along a shortest a-b path."""
    prev = {a: None}
    queue = [a]
    while queue:
        nxt = []
        for u in queue:
            for v in members:
                if adj[u, v] and v not in prev:
                    prev[v] = u
                    nxt.append(v)
        if b in prev:
            break
        queue = nxt
    path = [b]  # from b back to a
    while path[-1] != a:
        path.append(prev[path[-1]])
    return (a, path[-2], path[-3])


def _mass_floor(epsilon: float, total):
    """The clique-mass floor (1/2) epsilon^(1/4) mu of a graph of mass mu,
    elementwise on arrays."""
    return 0.5 * epsilon ** 0.25 * total


def _doubtful(screened, n, floor):
    """Whether a group's mass, summed in index order as ``screened``, may
    fall below the floor in a graph of n vertices, elementwise on arrays.

    Any two orders of a sum of k nonnegative terms agree within 2.1 k u of
    it (u = 2^-53), so a group whose screened mass clears the floor by
    8 n u passes, and only the others need their mass summed again.
    """
    return screened * (1.0 - 8.0 * n * 2.0 ** -53) < floor


def _light_groups(graph: WeightedGraph, group_v: np.ndarray, n_groups: int,
                  epsilon: float, sizes: np.ndarray | None
                  ) -> tuple[float, list[tuple[int, int]]]:
    """The clique-mass floor and the groups that may fall below it, each
    with its point count: the groups of two or more points (counted by
    ``sizes``, one per vertex by default) that ``_doubtful`` leaves.

    ``group_v`` labels each vertex with its group 0..n_groups - 1, or -1.
    """
    mass_floor = _mass_floor(epsilon, graph.total_mass())
    screened = np.bincount(group_v + 1, graph.mass,
                           minlength=n_groups + 1)[1:]
    doubtful = _doubtful(screened, graph.n, mass_floor)
    if not doubtful.any():
        return mass_floor, []
    count = np.bincount(group_v + 1, sizes, minlength=n_groups + 1)[1:]
    light = (doubtful & (count >= 2)).nonzero()[0]
    return mass_floor, list(zip(light.tolist(),
                                count[light].astype(int).tolist()))


def clique_repair(graph: WeightedGraph, partition: PartitionResult,
                  structure: CliqueStructure, epsilon: float,
                  sizes: np.ndarray | None = None
                  ) -> tuple[WeightedGraph, ModificationLog]:
    """Apply the five staged edits that leave a disjoint union of cliques.

    Stages: drop edges at the exceptional part, complete every part
    internally, complete each extended group across its parts, cut edges
    between distinct groups, and clear all edges at leftover parts.  The
    result is asserted to be exactly the group cliques plus isolated
    vertices.  A stage's mask is built only when the labels allow it an
    edit: edges at V_0 need an exceptional vertex, a part to complete needs
    two vertices, a group to complete two parts, a cut two groups, and a
    clearing a leftover vertex.  A stage that edits nothing logs no pairs
    and measure 0.0.

    Before any edit, every group of two or more points must carry at least
    (1/2) epsilon^(1/4) of the graph mass, or LightClique is raised.  The
    neighborhood family accepts a neighborhood by its part count,
    epsilon^(1/4) q, which gives that mass only when parts have near-equal
    mass; uneven point masses (such as Gibbs weights) can fall below it.
    ``sizes`` gives the number of points each vertex stands for (one each by
    default), so a vertex that merges twins counts as all of its points.
    """
    n = graph.n
    vertices = graph.vertices
    parts = partition.parts
    groups = structure.extended_groups
    index = dict(zip(vertices, range(n)))
    part_v = np.full(n, -1)
    part_v[[index[v] for part in parts for v in part]] = \
        np.arange(len(parts)).repeat(list(map(len, parts)))
    if (part_v < 0).any():
        missing = vertices[int((part_v < 0).nonzero()[0][0])]
        raise PostconditionFailure(f"vertex {missing!r} missing from partition")
    group_of_part = np.full(len(parts), -1)
    group_of_part[[p for g in groups for p in g]] = \
        np.arange(len(groups)).repeat(list(map(len, groups)))
    leftover_part = np.zeros(len(parts), dtype=bool)
    leftover_part[list(structure.leftover_parts)] = True
    in_exceptional = part_v == 0
    group_v = np.where(in_exceptional, -1, group_of_part[part_v])
    leftover_v = leftover_part[part_v]

    mass = graph.mass
    mass_floor, light = _light_groups(graph, group_v, len(groups), epsilon,
                                      sizes)
    for gi, count in light:
        gmass = float(mass[group_v == gi].sum())
        if gmass < mass_floor:
            raise LightClique(
                f"clique {gi} of {count} points has mass {gmass!r}, below "
                f"the floor {mass_floor!r}; its neighborhoods passed by part "
                "count, but their points are too light"
            )

    adj = graph.adj.copy()
    grouped = group_v >= 0
    same_group = (group_v[:, None] == group_v) & grouped[:, None]
    masks: dict[str, np.ndarray] = {}
    if in_exceptional.any():
        masks[STAGE_NAMES[0]] = m1 = adj & (
            in_exceptional[:, None] | in_exceptional)
        adj &= ~m1
    if max(map(len, parts[1:]), default=0) > 1:
        masks[STAGE_NAMES[1]] = m2 = \
            (part_v[:, None] == part_v) & (part_v[:, None] >= 1) & ~adj
        m2.flat[::n + 1] = False
        adj |= m2
    if max(map(len, groups), default=0) > 1:
        masks[STAGE_NAMES[2]] = m3 = \
            same_group & (part_v[:, None] != part_v) & ~adj
        adj |= m3
    if len(groups) > 1:
        masks[STAGE_NAMES[3]] = m4 = \
            adj & ~same_group & grouped[:, None] & grouped
        adj &= ~m4
    if leftover_v.any():
        masks[STAGE_NAMES[4]] = m5 = adj & (leftover_v[:, None] | leftover_v)
        adj &= ~m5
    same_group.flat[::n + 1] = False
    if (adj != same_group).any():
        raise PostconditionFailure("repair did not produce the group cliques")

    empty = np.empty(0, dtype=np.intp)
    edits = dict.fromkeys(STAGE_NAMES, (empty, empty))
    stage_measures = dict.fromkeys(STAGE_NAMES, 0.0)
    edited: list[np.ndarray] = []
    for name, mk in masks.items():
        edits[name] = upper_pairs(mk)
        if len(edits[name][0]):
            stage_measures[name] = float(mass @ mk @ mass)
            edited.append(mk)
    total = float(mass @ np.logical_or.reduce(edited) @ mass) if edited else 0.0
    log = ModificationLog(vertices=vertices, edits=edits,
                          stage_measures=stage_measures, total_measure=total)
    # adj equals the symmetric, zero-diagonal group mask checked above
    repaired = WeightedGraph._symmetric_by_construction(
        graph.vertices, graph.mass, adj)
    return repaired, log


@dataclass(frozen=True)
class CliqueCheck:
    cliques: tuple[tuple[str, ...], ...]
    witness: tuple[str, str] | None

    @property
    def ok(self) -> bool:
        return self.witness is None


def verify_cliques(graph: WeightedGraph) -> CliqueCheck:
    """Connected components with a completeness check.

    Returns the components and, when some component is not complete, the
    first non-adjacent pair inside one as a witness.
    """
    n = graph.n
    seen = np.zeros(n, dtype=bool)
    comps: list[list[int]] = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in np.nonzero(graph.adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        comps.append(sorted(members))
    witness = None
    for members in comps:
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                if not graph.adj[members[ai], members[bi]]:
                    witness = (
                        graph.vertices[members[ai]],
                        graph.vertices[members[bi]],
                    )
                    break
            if witness:
                break
        if witness:
            break
    return CliqueCheck(
        cliques=tuple(tuple(graph.vertices[i] for i in c) for c in comps),
        witness=witness,
    )
