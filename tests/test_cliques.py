import numpy as np
import pytest

from treelike import (
    RegularityParams,
    WeightedGraph,
    clique_closure,
    clique_repair,
    neighborhood_family,
    part_neighbor_graph,
    regularity_pipeline,
    threshold_graph,
    verify_cliques,
)
from treelike.cliques import CliqueStructure, PartNeighborGraph, \
    STAGE_NAMES, _shortest_gap_triple
from treelike.errors import LightClique, NotAClique, \
    PostconditionFailure
from treelike.fixtures import planted_blocks_fixture
from treelike.regularity import PartitionResult


def manual_partition(q, densities, irregular=()):
    """PartitionResult with singleton parts and prescribed pair densities."""
    parts = tuple([()] + [(f"v{i}",) for i in range(1, q + 1)])
    dmat = np.full((q + 1, q + 1), np.nan)
    flags = np.zeros((q + 1, q + 1), dtype=bool)
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            if i != j:
                dmat[i, j] = densities.get((min(i, j), max(i, j)), 0.0)
                flags[i, j] = (min(i, j), max(i, j)) not in irregular
    return PartitionResult(parts=parts, densities=dmat, regular_flags=flags,
                           params={})


def manual_pg(q, neighbors, irregular=()):
    nb = np.zeros((q + 1, q + 1), dtype=bool)
    ir = np.zeros((q + 1, q + 1), dtype=bool)
    for i, j in neighbors:
        nb[i, j] = nb[j, i] = True
    for i, j in irregular:
        ir[i, j] = ir[j, i] = True
    return PartNeighborGraph(q=q, neighbor=nb, irregular=ir,
                             densities=np.full((q + 1, q + 1), np.nan),
                             dichotomy_violations=())


class TestPartNeighborGraph:
    def test_all_dense_regular_complete(self):
        dens = {(i, j): 1.0 for i in range(1, 5) for j in range(i + 1, 5)}
        part = manual_partition(4, dens)
        pg = part_neighbor_graph(part, 0.1)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert pg.neighbor[i, j]

    def test_all_sparse_empty(self):
        dens = {(i, j): 0.0 for i in range(1, 5) for j in range(i + 1, 5)}
        pg = part_neighbor_graph(manual_partition(4, dens), 0.1)
        assert not pg.neighbor.any()

    def test_boundary_density_inclusive(self):
        eps = 0.1
        pg = part_neighbor_graph(
            manual_partition(2, {(1, 2): 1.0 - 2.0 * eps}), eps)
        assert pg.neighbor[1, 2]

    def test_irregular_not_neighbor(self):
        pg = part_neighbor_graph(
            manual_partition(2, {(1, 2): 1.0}, irregular={(1, 2)}), 0.1)
        assert not pg.neighbor[1, 2]
        assert pg.irregular[1, 2]

    def test_dichotomy_band_recorded(self):
        eps = 0.1
        pg = part_neighbor_graph(manual_partition(2, {(1, 2): 0.5}), eps)
        assert pg.dichotomy_violations == ((1, 2),)


class TestNeighborhoodFamily:
    def test_complete_graph_single_neighborhood(self):
        q = 6
        pg = manual_pg(q, [(i, j) for i in range(1, q + 1)
                           for j in range(i + 1, q + 1)])
        family = neighborhood_family(pg, 0.2)
        assert family == (tuple(range(1, q + 1)),)

    def test_empty_graph_no_neighborhoods(self):
        # singletons are too small once the size cutoff exceeds one
        pg = manual_pg(5, [])
        family = neighborhood_family(pg, 0.2)
        assert family == ()

    def test_two_blocks(self):
        blocks = [(1, 2, 3), (4, 5, 6)]
        edges = [(i, j) for blk in blocks for i in blk for j in blk if i < j]
        pg = manual_pg(6, edges)
        family = neighborhood_family(pg, 0.01)
        assert sorted(family) == [(1, 2, 3), (4, 5, 6)]

    def test_greedy_prefers_largest_then_lowest(self):
        # part 4 has the largest closed neighborhood
        pg = manual_pg(6, [(4, 1), (4, 2), (4, 3), (4, 5), (1, 2)])
        family = neighborhood_family(pg, 1e-6)
        assert family[0] == (1, 2, 3, 4, 5)


class TestCliqueClosure:
    def test_single_neighborhood(self):
        pg = manual_pg(5, [(1, 2), (1, 3)])
        structure = clique_closure(((1, 2, 3),), pg, 1e-3)
        assert structure.part_groups == ((1, 2, 3),)
        assert structure.leftover_parts == (4, 5)

    def test_two_disconnected_components(self):
        pg = manual_pg(6, [(1, 2), (3, 4)])
        structure = clique_closure(((1, 2), (3, 4)), pg, 1e-3)
        assert structure.part_groups == ((1, 2), (3, 4))

    def test_not_a_clique_reports_triple(self):
        # families chained 1~2~3 without the closing 1~3 link
        pg = manual_pg(6, [(1, 2), (3, 4), (5, 6), (2, 3), (4, 5)])
        with pytest.raises(NotAClique) as exc:
            clique_closure(((1, 2), (3, 4), (5, 6)), pg, 1e-3)
        assert exc.value.witness is not None
        assert len(exc.value.witness) == 3

    def test_unique_group_violation(self):
        # part 5 attaches heavily to both groups; epsilon keeps the
        # attachment cutoff at two neighbors
        pg = manual_pg(5, [(1, 2), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)])
        with pytest.raises(NotAClique):
            clique_closure(((1, 2), (3, 4)), pg, 1.0 / 16.0)

    def test_attachment_goes_to_unique_group(self):
        pg = manual_pg(5, [(1, 2), (3, 4), (5, 1), (5, 2)])
        structure = clique_closure(((1, 2), (3, 4)), pg, 1e-3)
        assert (1, 2, 5) in structure.extended_groups
        assert structure.leftover_parts == ()

    def test_planted_blocks_end_to_end(self):
        fx = planted_blocks_fixture(36, 3, seed=5)
        graph = threshold_graph(fx.space, 0.5)
        params = RegularityParams(epsilon=1e-4, m=2)
        partition = regularity_pipeline(graph, params, seed=2)
        pg = part_neighbor_graph(partition, 1e-4)
        family = neighborhood_family(pg, 1e-4)
        structure = clique_closure(family, pg, 1e-4)
        assert len(structure.extended_groups) == 3
        # vertex-level groups must match the planted labels
        index = {v: i for i, v in enumerate(graph.vertices)}
        labels = np.array(fx.labels)
        for g in structure.extended_groups:
            members = [index[v] for p in g for v in partition.parts[p]]
            assert len(set(labels[members])) == 1


class TestCliqueRepair:
    def run_repair(self, space, t, epsilon, m=2, seed=0):
        graph = threshold_graph(space, t)
        params = RegularityParams(epsilon=epsilon, m=m)
        partition = regularity_pipeline(graph, params, seed=seed)
        pg = part_neighbor_graph(partition, epsilon)
        family = neighborhood_family(pg, epsilon)
        structure = clique_closure(family, pg, epsilon)
        repaired, log = clique_repair(graph, partition, structure, epsilon)
        return graph, partition, structure, repaired, log

    def test_complete_graph_no_edits(self):
        fx = planted_blocks_fixture(18, 1, seed=1, within=(0.9, 0.95))
        _, _, _, repaired, log = self.run_repair(fx.space, 0.5, 1e-4)
        check = verify_cliques(repaired)
        assert check.ok
        assert len(check.cliques) == 1
        assert log.total_measure == 0.0

    def test_empty_graph_completion_cancels(self):
        # with chunky parts, within-part completion fires and the leftover
        # deletion removes exactly what it added
        n = 40
        sim = np.zeros((n, n))
        sp_points = tuple(f"p{i}" for i in range(n))
        from treelike import SimilaritySpace
        space = SimilaritySpace(sp_points, np.full(n, 1.0 / n), sim, 1.0)
        graph, partition, structure, repaired, log = self.run_repair(
            space, 0.5, 0.2)
        assert not repaired.adj.any()
        added = set(log.stages["complete_within_part"])
        deleted = set(log.stages["delete_leftover_incident"])
        assert added and added == deleted
        check = verify_cliques(repaired)
        assert check.ok
        assert all(len(c) == 1 for c in check.cliques)

    def test_planted_blocks_recovered(self):
        fx = planted_blocks_fixture(36, 3, seed=5)
        graph, partition, structure, repaired, log = self.run_repair(
            fx.space, 0.5, 1e-4)
        check = verify_cliques(repaired)
        assert check.ok
        sizes = sorted(len(c) for c in check.cliques)
        assert sizes == sorted(np.bincount(fx.labels).tolist())
        # no planted cross-block edges at this threshold, so nothing to edit
        assert log.total_measure == 0.0

    def test_noisy_blocks_edit_measure_bounded(self):
        fx = planted_blocks_fixture(30, 3, seed=8, within=(0.55, 0.95),
                                    across=(0.05, 0.45))
        graph, partition, structure, repaired, log = self.run_repair(
            fx.space, 0.5, 1e-4)
        check = verify_cliques(repaired)
        assert check.ok
        labels = np.array(fx.labels)
        same = labels[:, None] == labels[None, :]
        p = fx.space.weights
        noise_mask = (fx.space.sim >= 0.5) != same
        np.fill_diagonal(noise_mask, False)
        noise_mass = float(p @ noise_mask @ p)
        assert log.total_measure <= noise_mass + 1e-12

    def test_log_arithmetic(self):
        fx = planted_blocks_fixture(30, 3, seed=8, within=(0.55, 0.95),
                                    across=(0.05, 0.45))
        _, _, _, _, log = self.run_repair(fx.space, 0.5, 1e-4)
        assert log.total_measure <= sum(log.stage_measures.values()) + 1e-12
        for name in STAGE_NAMES:
            pairs = log.stages[name]
            assert len(set(pairs)) == len(pairs)
            for u, v in pairs:
                assert (v, u) in set(pairs)

    def test_group_mass_floor(self):
        fx = planted_blocks_fixture(36, 3, seed=5)
        graph, partition, structure, repaired, log = self.run_repair(
            fx.space, 0.5, 1e-4)
        epsilon = 1e-4
        floor = 0.5 * epsilon ** 0.25 * graph.total_mass()
        for clique in verify_cliques(repaired).cliques:
            if len(clique) >= 2:
                mass = sum(graph.mass[graph.vertices.index(v)]
                           for v in clique)
                assert mass >= floor

    def test_light_group_is_a_construction_error(self):
        # the pair v0 ~ v1 passes by part count (epsilon^(1/4) q = 1) but
        # carries 0.02 of the mass, below the floor 0.05
        mass = np.array([0.01, 0.01] + [0.98 / 8] * 8)
        adj = np.zeros((10, 10), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        graph = WeightedGraph(tuple(f"v{i}" for i in range(10)), mass, adj)
        epsilon = 1e-4
        partition = regularity_pipeline(graph, RegularityParams(epsilon, 2))
        pg = part_neighbor_graph(partition, epsilon)
        structure = clique_closure(neighborhood_family(pg, epsilon), pg,
                                   epsilon)
        assert (1, 2) in structure.extended_groups
        with pytest.raises(LightClique, match="of 2 points has mass 0.02"):
            clique_repair(graph, partition, structure, epsilon)

    def test_no_neighbors_across_core_groups(self):
        fx = planted_blocks_fixture(36, 3, seed=5)
        graph, partition, structure, _, _ = self.run_repair(
            fx.space, 0.5, 1e-4)
        pg = part_neighbor_graph(partition, 1e-4)
        for a in range(len(structure.part_groups)):
            for b in range(a + 1, len(structure.part_groups)):
                for i in structure.part_groups[a]:
                    for j in structure.part_groups[b]:
                        assert not pg.neighbor[i, j]


class TestStageLog:
    """Stages that edit, checked against masks rebuilt from the log."""

    @pytest.mark.parametrize("epsilon, counts", [
        (1e-12, {"complete_within_group": 10000}),
        (0.05, {"complete_within_group": 2608,
                "delete_leftover_incident": 5605}),
        (0.2, {"delete_leftover_incident": 9900}),
    ])
    def test_planted_blocks_median(self, epsilon, counts):
        fx = planted_blocks_fixture(200, 3, seed=0)
        graph = threshold_graph(fx.space, float(np.median(fx.space.sim)))
        partition = regularity_pipeline(graph, RegularityParams(epsilon, 4))
        pg = part_neighbor_graph(partition, epsilon)
        structure = clique_closure(neighborhood_family(pg, epsilon), pg,
                                   epsilon)
        repaired, log = clique_repair(graph, partition, structure, epsilon)
        index = {v: i for i, v in enumerate(graph.vertices)}
        mass = graph.mass
        adj = graph.adj.copy()
        union = np.zeros_like(adj)
        for name in STAGE_NAMES:
            pairs = log.stages[name]
            assert len(pairs) // 2 == counts.get(name, 0)
            forward = [(index[u], index[v]) for u, v in pairs[::2]]
            assert [(index[v], index[u]) for u, v in pairs[1::2]] == forward
            assert forward == sorted(forward)  # row-major, i < j
            mask = np.zeros_like(adj)
            for i, j in forward:
                assert i < j
                mask[i, j] = mask[j, i] = True
            assert log.stage_measures[name] == float(mass @ mask @ mass)
            adj ^= mask  # every stage edit flips an edge the stage saw
            union |= mask
        assert np.array_equal(repaired.adj, adj)
        assert log.total_measure == float(mass @ union @ mass)
        assert log.total_measure > 0.0


class TestEditMeasureTrend:
    def test_monotone_in_parameters(self):
        # the edit measure follows the epsilon^(1/12) + 1/m budget as a
        # trend: non-increasing along each parameter direction; no claim is
        # made about the universal constant in front
        fx = planted_blocks_fixture(36, 3, seed=8, within=(0.55, 0.95),
                                    across=(0.05, 0.45))
        graph = threshold_graph(fx.space, 0.5)

        def total(eps, m):
            params = RegularityParams(epsilon=eps, m=m)
            part = regularity_pipeline(graph, params, seed=1)
            pg = part_neighbor_graph(part, eps)
            family = neighborhood_family(pg, eps)
            structure = clique_closure(family, pg, eps)
            _, log = clique_repair(graph, part, structure, eps)
            return log.total_measure

        eps_grid = (0.2, 0.01, 1e-4, 1e-8)
        for m in (2, 8):
            measures = [total(e, m) for e in eps_grid]
            assert all(a >= b - 1e-12
                       for a, b in zip(measures, measures[1:]))
        for eps in (0.01, 1e-4):
            assert total(eps, 2) >= total(eps, 8) - 1e-12


class TestVerifyCliques:
    def graph(self, adj):
        n = len(adj)
        return WeightedGraph(tuple(f"v{i}" for i in range(n)),
                             np.full(n, 1.0 / n), np.asarray(adj, dtype=bool))

    def test_two_triangles(self):
        adj = np.zeros((6, 6), dtype=bool)
        for blk in ((0, 1, 2), (3, 4, 5)):
            for i in blk:
                for j in blk:
                    if i != j:
                        adj[i, j] = True
        check = verify_cliques(self.graph(adj))
        assert check.ok
        assert len(check.cliques) == 2

    def test_path_witness(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[1, 2] = adj[2, 1] = True
        check = verify_cliques(self.graph(adj))
        assert not check.ok
        assert set(check.witness) == {"v0", "v2"}


# ---------------------------------------------------------------------------
# per-pair loop references for the array code of the clique stages


def part_neighbor_graph_loop(partition, epsilon):
    q = partition.q
    neighbor = np.zeros((q + 1, q + 1), dtype=bool)
    irregular = np.zeros((q + 1, q + 1), dtype=bool)
    middle = []
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            d = float(partition.densities[i, j])
            if not partition.regular_flags[i, j]:
                irregular[i, j] = irregular[j, i] = True
            elif d >= 1.0 - 2.0 * epsilon:
                neighbor[i, j] = neighbor[j, i] = True
            elif d >= 3.0 * epsilon:
                middle.append((i, j))
    return neighbor, irregular, tuple(middle)


def neighborhood_family_loop(pg, epsilon):
    cutoff = epsilon ** 0.25 * pg.q
    unused = set(range(1, pg.q + 1))
    family = []
    while unused:
        best = set()
        for i in sorted(unused):
            nbhd = {i} | {j for j in unused if pg.neighbor[i, j]}
            if len(nbhd) > len(best):
                best = nbhd
        if len(best) < cutoff:
            break
        family.append(tuple(sorted(best)))
        unused -= best
    return tuple(family)


def clique_closure_loop(family, pg, epsilon):
    """Components by search, then per-part attachment and per-pair checks."""
    q, t = pg.q, len(family)
    adj = np.zeros((t, t), dtype=bool)
    for a in range(t):
        for b in range(a + 1, t):
            adj[a, b] = adj[b, a] = any(
                pg.neighbor[i, j] for i in family[a] for j in family[b])
    comp = [-1] * t
    comps = []
    for a in range(t):
        if comp[a] < 0:
            comp[a] = len(comps)
            stack, members = [a], []
            while stack:
                u = stack.pop()
                members.append(u)
                for v in range(t):
                    if adj[u, v] and comp[v] < 0:
                        comp[v] = comp[a]
                        stack.append(v)
            comps.append(sorted(members))
    for members in comps:
        for ai, a in enumerate(members):
            for b in members[ai + 1:]:
                if not adj[a, b]:
                    triple = _shortest_gap_triple(adj, members, a, b)
                    raise NotAClique("gap", witness=triple)
    groups = [tuple(sorted(p for a in members for p in family[a]))
              for members in comps]
    if len(groups) > epsilon ** -0.25 + 1e-9:
        raise PostconditionFailure("more clusters than the size bound allows")
    grouped = {p for g in groups for p in g}
    extended = [list(g) for g in groups]
    leftover = []
    for i in range(1, q + 1):
        if i in grouped:
            continue
        hits = [gi for gi, g in enumerate(groups)
                if sum(1 for j in g if pg.neighbor[i, j])
                >= epsilon ** (1.0 / 3.0) * q]
        if len(hits) > 1:
            raise NotAClique("attach", witness=(i, tuple(hits)))
        if hits:
            extended[hits[0]].append(i)
        else:
            leftover.append(i)
    extended = tuple(tuple(sorted(g)) for g in extended)
    in_group = {p: gi for gi, g in enumerate(extended) for p in g}
    bad = tuple(
        (i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)
        if pg.neighbor[i, j] and i in in_group and j in in_group
        and in_group[i] != in_group[j])
    if len(bad) > 3.0 * epsilon ** (1.0 / 12.0) * q * q:
        raise PostconditionFailure("bad pair count exceeds its bound")
    for i in leftover:
        if int(pg.neighbor[i, 1:].sum()) > 2.0 * epsilon ** (1.0 / 12.0) * q:
            raise PostconditionFailure("leftover part has too many neighbors")
    return CliqueStructure(family, tuple(groups), extended, tuple(leftover),
                           bad)


def outcome(fn, *args):
    """Result, or the error type and witness a call raised."""
    try:
        return fn(*args)
    except (NotAClique, PostconditionFailure) as exc:
        return type(exc), getattr(exc, "witness", None)


def random_neighbor_graph(rng, q):
    """Blocks of parts with a few flipped pairs: ties and near-cliques."""
    blocks = rng.integers(0, int(rng.integers(1, 5)), size=q + 1)
    nb = blocks[:, None] == blocks[None, :]
    flip = np.triu(rng.random((q + 1, q + 1)) < rng.choice([0.0, 0.05, 0.3]),
                   1)
    nb ^= flip | flip.T
    np.fill_diagonal(nb, False)
    nb[0] = nb[:, 0] = False
    return PartNeighborGraph(q=q, neighbor=nb, irregular=~nb,
                             densities=np.full((q + 1, q + 1), np.nan),
                             dichotomy_violations=())


class TestLoopReferences:
    EPSILONS = (1e-6, 1e-3, 1.0 / 16.0, 0.2)

    def test_part_neighbor_graph(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = int(rng.integers(1, 12))
            eps = float(rng.choice(self.EPSILONS))
            # boundary densities and NaN exercise every comparison
            values = [0.0, 3.0 * eps, 0.5, 1.0 - 2.0 * eps, 1.0, np.nan]
            dens = rng.choice(values, size=(q + 1, q + 1))
            flags = rng.random((q + 1, q + 1)) < 0.8
            part = PartitionResult(parts=((),) * (q + 1), densities=dens,
                                   regular_flags=flags, params={})
            pg = part_neighbor_graph(part, eps)
            neighbor, irregular, middle = part_neighbor_graph_loop(part, eps)
            assert np.array_equal(pg.neighbor, neighbor)
            assert np.array_equal(pg.irregular, irregular)
            assert pg.dichotomy_violations == middle

    def test_gap_witness_follows_component_order(self):
        # components {0, 4, 5} and {1, 2, 3} both have a gap; the one in the
        # component holding the lowest family is reported, not the lowest pair
        pg = manual_pg(6, [(1, 5), (1, 6), (2, 3), (3, 4)])
        family = tuple((p,) for p in range(1, 7))
        got = outcome(clique_closure, family, pg, 1e-3)
        assert got == (NotAClique, (4, 0, 5))
        assert got == outcome(clique_closure_loop, family, pg, 1e-3)

    def test_neighborhood_family_and_closure(self):
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(300):
            pg = random_neighbor_graph(rng, int(rng.integers(0, 16)))
            eps = float(rng.choice(self.EPSILONS))
            family = neighborhood_family(pg, eps)
            assert family == neighborhood_family_loop(pg, eps)
            # arbitrary disjoint families over some of the parts reach the
            # gap and attach errors
            order = rng.permutation(np.arange(1, pg.q + 1))
            order = order[:int(rng.integers(0, pg.q + 1))]
            cuts = np.sort(rng.choice(len(order) + 1,
                                      size=min(3, len(order) + 1),
                                      replace=False))
            loose = tuple(tuple(sorted(int(p) for p in chunk))
                          for chunk in np.split(order, cuts) if len(chunk))
            for fam in (family, loose):
                got = outcome(clique_closure, fam, pg, eps)
                want = outcome(clique_closure_loop, fam, pg, eps)
                assert got == want
                seen.add(got[0] if isinstance(got, tuple) else "ok")
                if isinstance(got, tuple) and got[0] is NotAClique:
                    seen.add(len(got[1]))  # 3: gap triple, 2: attach
        assert seen >= {"ok", NotAClique, PostconditionFailure, 2, 3}
