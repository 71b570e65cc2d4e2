"""Turn a thresholded similarity graph into a disjoint union of cliques.

Parts of a regularity partition are linked when their pair is regular with
edge density near one.  Maximal disjoint neighborhoods of linked parts are
grouped into clusters, nearby leftover parts are attached, and the vertex
graph is then repaired in five staged edit passes whose pairs and measures
are all logged.

Every stage works on boolean part-by-part matrices.  The parts are single
points, so that the part neighbor relation is the thresholded vertex graph
itself and q is the vertex count, whenever the partition is forced: (a)
epsilon N <= 1 for the rationalized denominator N, and (b) every point's
mass is at least epsilon mu / (2 (1 + m*)) (see ``regularity``).
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

    Every pair is stored in both orientations.  A pair may be added in one
    stage and deleted by a later one (leftover parts are completed and then
    cleared); stage consistency means each stage's edits were valid against
    the graph state it saw.  ``total_measure`` weighs the union of all
    stages once.
    """

    stages: dict[str, tuple[tuple[str, str], ...]]
    stage_measures: dict[str, float]
    total_measure: float


def part_neighbor_graph(partition: PartitionResult, epsilon: float
                        ) -> PartNeighborGraph:
    """Classify part pairs as neighbor / regular-non-neighbor / irregular."""
    q = partition.q
    upper = np.triu(np.ones((q + 1, q + 1), dtype=bool), 1)
    upper[0] = False
    regular = upper & partition.regular_flags
    d = partition.densities
    dense = regular & (d >= 1.0 - 2.0 * epsilon)
    middle = regular & ~dense & (d >= 3.0 * epsilon)
    irregular = upper & ~partition.regular_flags
    # middle lies above the diagonal, where upper_pairs keeps every entry
    rows, cols = upper_pairs(middle)
    return PartNeighborGraph(
        q=q,
        neighbor=dense | dense.T,
        irregular=irregular | irregular.T,
        densities=partition.densities,
        dichotomy_violations=tuple(zip(rows.tolist(), cols.tolist())),
    )


def neighborhood_family(pg: PartNeighborGraph, epsilon: float
                        ) -> tuple[tuple[int, ...], ...]:
    """Greedy maximal collection of disjoint neighborhoods of adequate size.

    Repeatedly takes the part whose closed neighborhood among unused parts
    is largest (ties to the lowest index) and accepts it while it has at
    least epsilon^(1/4) q members; on exit no unused part has an acceptable
    neighborhood left, which is re-verified.
    """
    q = pg.q
    cutoff = epsilon ** 0.25 * q
    closed = pg.neighbor[1:, 1:] | np.eye(q, dtype=bool)
    unused = np.ones(q, dtype=bool)
    family: list[tuple[int, ...]] = []

    def sizes() -> np.ndarray:
        # closed-neighborhood sizes among unused parts; -1 marks used parts
        return np.where(unused, (closed & unused).sum(axis=1), -1)

    while unused.any():
        size = sizes()
        best = int(np.argmax(size))  # first maximum: lowest index on ties
        if size[best] < cutoff:
            break
        members = closed[best] & unused
        family.append(tuple(int(i) + 1 for i in np.nonzero(members)[0]))
        unused &= ~members
    if unused.any() and sizes().max() >= cutoff:
        raise PostconditionFailure("greedy neighborhood family not maximal")
    return tuple(family)


def clique_closure(family: tuple[tuple[int, ...], ...], pg: PartNeighborGraph,
                   epsilon: float) -> CliqueStructure:
    """Group the neighborhoods into clusters and attach nearby leftovers.

    Neighborhoods are connected when some cross pair of their parts are
    neighbors; the connected components must be complete.  A leftover part
    with at least epsilon^(1/3) q neighbors inside a unique cluster joins
    that cluster; finding two such clusters contradicts the construction and
    raises instead of picking one arbitrarily.
    """
    q = pg.q
    t = len(family)
    member = np.zeros((t, q + 1))
    for a, parts in enumerate(family):
        member[a, list(parts)] = 1.0
    adj = np.triu(member @ pg.neighbor @ member.T > 0, 1)
    adj |= adj.T
    # transitive closure; each component is labelled by its lowest family
    reach = adj | np.eye(t, dtype=bool)
    while True:
        wider = reach.astype(float) @ reach > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    root = np.where(reach, np.arange(t), t).min(axis=1, initial=t)
    rows, cols = upper_pairs(reach & ~adj)
    if rows.size:
        # the first gap in component order, as a component-by-component
        # scan of member pairs would meet it
        gaps = zip(rows.tolist(), cols.tolist())
        a, b = min(gaps, key=lambda p: (root[p[0]], p))
        members = np.nonzero(root == root[a])[0].tolist()
        triple = _shortest_gap_triple(adj, members, a, b)
        raise NotAClique(
            "neighborhood component is not complete: families "
            f"{triple[0]} ~ {triple[1]} ~ {triple[2]} but the "
            "ends are not linked; the hyperbolicity "
            "preconditions do not hold for these parameters",
            witness=triple,
        )
    groups = [
        tuple(sorted(p for a in np.nonzero(root == r)[0] for p in family[a]))
        for r in np.unique(root)
    ]
    if len(groups) > epsilon ** -0.25 + 1e-9:
        raise PostconditionFailure("more clusters than the size bound allows")
    in_group = np.zeros((len(groups), q + 1))
    for gi, g in enumerate(groups):
        in_group[gi, list(g)] = 1.0
    grouped = in_group.any(axis=0)
    grouped[0] = True
    outside = np.nonzero(~grouped)[0]
    attach_cut = epsilon ** (1.0 / 3.0) * q
    hits = pg.neighbor[outside] @ in_group.T >= attach_cut
    extended = [list(g) for g in groups]
    leftover: list[int] = []
    for i, row in zip(outside.tolist(), hits):
        gis = np.nonzero(row)[0].tolist()
        if len(gis) > 1:
            raise NotAClique(
                f"part {i} attaches to {len(gis)} distinct clusters; "
                "cluster uniqueness fails for these parameters",
                witness=(i, tuple(gis)),
            )
        if gis:
            extended[gis[0]].append(i)
        else:
            leftover.append(i)
    extended_groups = tuple(tuple(sorted(g)) for g in extended)
    group_id = np.full(q + 1, -1)
    for gi, g in enumerate(extended_groups):
        group_id[list(g)] = gi
    gid = group_id[1:]
    cross = (gid[:, None] >= 0) & (gid[None, :] >= 0) \
        & (gid[:, None] != gid[None, :])
    rows, cols = upper_pairs(pg.neighbor[1:, 1:] & cross)
    bad = tuple(zip((rows + 1).tolist(), (cols + 1).tolist()))
    if len(bad) > 3.0 * epsilon ** (1.0 / 12.0) * q * q:
        raise PostconditionFailure("bad pair count exceeds its bound")
    degrees = pg.neighbor[leftover, 1:].sum(axis=1)
    for i, degree in zip(leftover, degrees.tolist()):
        if degree > 2.0 * epsilon ** (1.0 / 12.0) * q:
            raise PostconditionFailure(
                f"leftover part {i} has too many neighbors ({degree})"
            )
    return CliqueStructure(
        families=family,
        part_groups=tuple(groups),
        extended_groups=extended_groups,
        leftover_parts=tuple(leftover),
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
    path = []
    cur = b
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    path.reverse()
    return (path[0], path[1], path[2])


def clique_repair(graph: WeightedGraph, partition: PartitionResult,
                  structure: CliqueStructure, epsilon: float
                  ) -> tuple[WeightedGraph, ModificationLog]:
    """Apply the five staged edits that leave a disjoint union of cliques.

    Stages: drop edges at the exceptional part, complete every part
    internally, complete each extended group across its parts, cut edges
    between distinct groups, and clear all edges at leftover parts.  The
    result is asserted to be exactly the group cliques plus isolated
    vertices.  Each stage's mask is built whole; a stage that edits nothing
    then costs one scan of that mask, and logs no pairs and measure 0.0.

    Before any edit, every group of two or more points must carry at least
    (1/2) epsilon^(1/4) of the graph mass, or LightClique is raised.  The
    neighborhood family accepts a neighborhood by its part count,
    epsilon^(1/4) q, which gives that mass only when parts have near-equal
    mass; uneven point masses (such as Gibbs weights) can fall below it.
    """
    n = graph.n
    index = {v: i for i, v in enumerate(graph.vertices)}
    part_of = np.full(n, -1, dtype=int)
    for pi, part in enumerate(partition.parts):
        for v in part:
            part_of[index[v]] = pi
    if (part_of < 0).any():
        missing = graph.vertices[int(np.nonzero(part_of < 0)[0][0])]
        raise PostconditionFailure(f"vertex {missing!r} missing from partition")
    group_of_part = np.full(len(partition.parts), -1, dtype=int)
    for gi, g in enumerate(structure.extended_groups):
        for p in g:
            group_of_part[p] = gi
    leftover_part = np.zeros(len(partition.parts), dtype=bool)
    for p in structure.leftover_parts:
        leftover_part[p] = True

    part_v = part_of
    group_v = group_of_part[part_v]
    group_v[part_v == 0] = -1
    leftover_v = leftover_part[part_v]
    in_exceptional = part_v == 0

    mass = graph.mass
    mass_floor = 0.5 * epsilon ** 0.25 * graph.total_mass()
    for gi in range(len(structure.extended_groups)):
        members = np.nonzero(group_v == gi)[0]
        if len(members) >= 2:
            gmass = float(mass[members].sum())
            if gmass < mass_floor:
                raise LightClique(
                    f"clique {gi} of {len(members)} points has mass "
                    f"{gmass!r}, below the floor {mass_floor!r}; its "
                    "neighborhoods passed by part count, but their points "
                    "are too light"
                )

    adj = graph.adj.copy()
    off_diag = ~np.eye(n, dtype=bool)
    masks: list[np.ndarray] = []

    touch_v0 = in_exceptional[:, None] | in_exceptional[None, :]
    m1 = adj & touch_v0
    adj &= ~m1
    masks.append(m1)

    same_part = (part_v[:, None] == part_v[None, :]) & (part_v[:, None] >= 1)
    m2 = same_part & off_diag & ~adj
    adj |= m2
    masks.append(m2)

    same_group = (
        (group_v[:, None] == group_v[None, :])
        & (group_v[:, None] >= 0)
        & (part_v[:, None] != part_v[None, :])
    )
    m3 = same_group & ~adj
    adj |= m3
    masks.append(m3)

    cross_group = (
        (group_v[:, None] >= 0)
        & (group_v[None, :] >= 0)
        & (group_v[:, None] != group_v[None, :])
    )
    m4 = cross_group & adj
    adj &= ~m4
    masks.append(m4)

    touch_leftover = leftover_v[:, None] | leftover_v[None, :]
    m5 = touch_leftover & adj
    adj &= ~m5
    masks.append(m5)

    expected = (
        (group_v[:, None] == group_v[None, :])
        & (group_v[:, None] >= 0)
        & off_diag
    )
    if not np.array_equal(adj, expected):
        raise PostconditionFailure("repair did not produce the group cliques")

    stages: dict[str, tuple[tuple[str, str], ...]] = {}
    stage_measures: dict[str, float] = {}
    edited: list[np.ndarray] = []
    vertices = graph.vertices
    for name, mk in zip(STAGE_NAMES, masks):
        rows, cols = upper_pairs(mk)
        pairs = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            pairs.append((vertices[i], vertices[j]))
            pairs.append((vertices[j], vertices[i]))
        stages[name] = tuple(pairs)
        # every mask is symmetric with a zero diagonal, so a stage without
        # pairs has an all-False mask, whose measure is 0.0
        stage_measures[name] = float(mass @ mk @ mass) if pairs else 0.0
        if pairs:
            edited.append(mk)
    total = float(mass @ np.logical_or.reduce(edited) @ mass) if edited else 0.0
    log = ModificationLog(
        stages=stages,
        stage_measures=stage_measures,
        total_measure=total,
    )
    repaired = WeightedGraph(vertices=graph.vertices, mass=graph.mass, adj=adj)
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
