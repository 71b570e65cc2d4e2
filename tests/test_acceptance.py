"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.  Tolerances are fixed here, not configurable.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from treelike import (
    RegularityParams,
    WeightedGraph,
    bad_set_profile,
    best_alpha,
    build_tree,
    clique_closure,
    clique_repair,
    converse_check,
    gibbs_exact,
    gibbs_mcmc,
    gromov_delta_worst_case,
    gromov_product_matrix,
    hyp_exact,
    hyp_monte_carlo,
    neighborhood_family,
    overlap_map,
    overlap_space,
    part_neighbor_graph,
    profile_integral,
    pure_state_tree,
    regularity_pipeline,
    sk_couplings,
    split_atoms,
    threshold_graph,
    tree_cost,
    verify_cliques,
)
from treelike.fixtures import (
    noisy_tree_fixture,
    planted_blocks_fixture,
    random_fixture,
    tree_scaled_fixture,
    ultrametric_fixture,
)
from treelike.treebuild import _class_pairs, _cost

EPS, M = 1e-12, 16
KAPPA = max(EPS ** (1 / 24), M ** -0.5)


def report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def exact_builds():
    """50 seeded zero-defect fixtures with their tree builds, timed."""
    builds = []
    start = time.perf_counter()
    for seed in range(25):
        n = 27 + (seed * 5) % 38
        fx = ultrametric_fixture(n, [KAPPA, 2 * KAPPA, 3 * KAPPA], seed=seed)
        builds.append((fx, build_tree(fx.space, EPS, M, seed=seed)))
    for seed in range(25):
        n = 30 + (seed * 7) % 35
        fx = tree_scaled_fixture(n, depth=2, alpha=KAPPA, seed=100 + seed)
        builds.append((fx, build_tree(fx.space, EPS, M, seed=seed)))
    elapsed = time.perf_counter() - start
    return builds, elapsed


@pytest.fixture(scope="module")
def noisy_fixtures():
    out = []
    for seed in range(50):
        noise = 0.05 * (seed % 10 + 1) / 10.0
        out.append(noisy_tree_fixture(24 + seed % 30, depth=2, alpha=0.3,
                                      noise=noise, seed=seed))
    return out


def test_criterion_1_exact_zero_equivalence(exact_builds):
    builds, elapsed = exact_builds
    worst_hyp = 0.0
    worst_gap = -math.inf
    ok = True
    for fx, rep in builds:
        h = hyp_exact(fx.space)
        worst_hyp = max(worst_hyp, abs(h))
        gap = rep.best_cost - (rep.kappa + rep.delta0)
        worst_gap = max(worst_gap, gap)
        ok = ok and abs(h) <= 1e-12 and gap <= 0
    ok = ok and elapsed < 10.0
    report(1, ok, f"50 fixtures: max |hyp| {worst_hyp:.2e}, "
                  f"max cost excess {worst_gap:.3e}, build time {elapsed:.2f}s")


def test_criterion_2_converse_bound(noisy_fixtures):
    worst_margin = math.inf
    ok = True
    for fx in noisy_fixtures:
        alpha, _ = best_alpha(fx.space, fx.tree)
        out = converse_check(fx.space, fx.tree, alpha)
        worst_margin = min(worst_margin, out.margin)
        ok = ok and out.passed and out.margin >= -1e-12
    report(2, ok, f"50 noisy-tree fixtures: min margin {worst_margin:.4f}")


def test_criterion_3_integral_identity(exact_builds, noisy_fixtures):
    builds, _ = exact_builds
    spaces = [fx.space for fx, _ in builds]
    spaces += [fx.space for fx in noisy_fixtures]
    spaces += [random_fixture(20 + s, seed=s, weights="random").space
               for s in range(10)]
    worst = 0.0
    for space in spaces:
        ts, masses = bad_set_profile(space)
        gap = abs(profile_integral(ts, masses) - hyp_exact(space))
        worst = max(worst, gap)
    report(3, worst <= 1e-10,
           f"{len(spaces)} fixtures: max |integral - hyp| = {worst:.2e}")


def test_criterion_4_monte_carlo():
    start = time.perf_counter()
    worst_sigmas = 0.0
    ok = True
    for seed in range(20):
        kind = seed % 2
        if kind == 0:
            fx = random_fixture(10 + 2 * seed, seed=seed, weights="random")
        else:
            fx = noisy_tree_fixture(12 + 2 * seed, depth=2, alpha=0.3,
                                    noise=0.04, seed=seed)
        exact = hyp_exact(fx.space)
        est, se = hyp_monte_carlo(fx.space, 1_000_000, seed=seed)
        gap = abs(est - exact)
        if se > 0:
            worst_sigmas = max(worst_sigmas, gap / se)
        ok = ok and gap <= 4.0 * se + 1e-15
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(4, ok, f"20 fixtures x 1e6 samples: worst deviation "
                  f"{worst_sigmas:.2f} sigma, {elapsed:.1f}s")


def _pipeline_graphs():
    rng = np.random.default_rng(17)
    graphs = []
    for seed, p in ((0, 0.3), (1, 0.5), (2, 0.7)):
        n = 40 + 10 * seed
        adj = rng.random((n, n)) < p
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        graphs.append(WeightedGraph(tuple(f"v{i}" for i in range(n)),
                                    np.full(n, 1.0 / n), adj))
    n = 30
    graphs.append(WeightedGraph(tuple(f"v{i}" for i in range(n)),
                                np.full(n, 1.0 / n),
                                ~np.eye(n, dtype=bool)))
    graphs.append(WeightedGraph(tuple(f"v{i}" for i in range(n)),
                                np.full(n, 1.0 / n),
                                np.zeros((n, n), dtype=bool)))
    w = rng.random(36) + 0.2
    adj = rng.random((36, 36)) < 0.4
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    graphs.append(WeightedGraph(tuple(f"v{i}" for i in range(36)),
                                w / w.sum(), adj))
    for seed in range(3):
        fx = planted_blocks_fixture(30 + 6 * seed, 3, seed=seed)
        graphs.append(threshold_graph(fx.space, 0.5))
    return graphs


def test_criterion_5_regularity_postconditions():
    checked = 0
    ok = True
    for gi, graph in enumerate(_pipeline_graphs()):
        for epsilon, m in ((0.1, 2), (0.2, 3)):
            params = RegularityParams(epsilon=epsilon, m=m)
            result = regularity_pipeline(graph, params, seed=gi)
            mass = dict(zip(graph.vertices, graph.mass))
            mu_total = graph.total_mass()
            mu_star = float(graph.mass.max())
            v0 = sum(mass[v] for v in result.parts[0])
            pm = [sum(mass[v] for v in part) for part in result.parts[1:]]
            ok = ok and v0 <= epsilon * mu_total
            ok = ok and min(pm) > 0
            ok = ok and max(pm) - min(pm) <= mu_star
            ok = ok and m <= result.q <= result.params["part_cap"]
            checked += 1
    report(5, ok, f"{checked} pipeline runs: exceptional mass, positivity, "
                  "spread, and part-count bounds all hold exactly")


def test_criterion_6_blowup_spectral_equivalence():
    from treelike.regularity import weighted_adjacency_spectrum
    rng = np.random.default_rng(23)
    worst = 0.0
    count = 0
    while count < 20:
        n = int(rng.integers(2, 6))
        k = rng.integers(1, 4, size=n)
        if k.sum() > 12:
            continue
        adj = rng.random((n, n)) < 0.6
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        graph = WeightedGraph(tuple(f"v{i}" for i in range(n)),
                              np.full(n, 1.0 / n), adj)
        spec = weighted_adjacency_spectrum(graph, k)
        owner = np.repeat(np.arange(n), k)
        big = adj[np.ix_(owner, owner)].astype(float)
        lam = np.linalg.eigvalsh(big)
        nz_big = sorted(v for v in lam if abs(v) > 1e-8)
        nz_red = sorted(v for v in spec.eigenvalues if abs(v) > 1e-8)
        assert len(nz_big) == len(nz_red)
        if nz_big:
            worst = max(worst, float(np.max(np.abs(
                np.array(nz_big) - np.array(nz_red)))))
        count += 1
    report(6, worst <= 1e-10,
           f"20 blow-ups (size <= 12): max eigenvalue gap {worst:.2e}")


def test_criterion_7_clique_repair_soundness():
    runs = 0
    ok = True
    for seed in range(5):
        for blocks in (2, 3, 4):
            fx = planted_blocks_fixture(24 + 6 * (seed % 3), blocks,
                                        seed=seed,
                                        within=(0.6, 0.95),
                                        across=(0.05, 0.4))
            graph = threshold_graph(fx.space, 0.5)
            epsilon = 1e-4
            params = RegularityParams(epsilon=epsilon, m=2)
            partition = regularity_pipeline(graph, params, seed=seed)
            pg = part_neighbor_graph(partition, epsilon)
            family = neighborhood_family(pg, epsilon)
            structure = clique_closure(family, pg, epsilon)
            repaired, log = clique_repair(graph, partition, structure,
                                          epsilon)
            check = verify_cliques(repaired)
            ok = ok and check.ok
            floor = 0.5 * epsilon ** 0.25 * graph.total_mass()
            index = {v: i for i, v in enumerate(graph.vertices)}
            for clique in check.cliques:
                if len(clique) >= 2:
                    cmass = float(sum(graph.mass[index[v]] for v in clique))
                    ok = ok and cmass >= floor
            runs += 1
    report(7, ok, f"{runs} repair runs: all outputs are disjoint cliques "
                  "with the mass floor satisfied")


def test_criterion_8_sandwich_inequalities(exact_builds):
    builds, _ = exact_builds
    checked_pairs = 0
    ok = True
    for fx, rep in builds:
        ok = ok and not rep.sandwich_violations
        # re-derive the comparison here instead of trusting the report
        space = fx.space
        prod = gromov_product_matrix(rep.tree, space.points)
        kappa, d0 = rep.kappa, rep.delta0
        excluded = set(rep.excluded_points)
        n = space.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if space.points[i] in excluded or space.points[j] in excluded:
                    continue
                s = space.sim[i, j]
                g = prod[i, j]
                pair_edited = (s >= kappa * (g + 1) + d0
                               or s < kappa * g - d0)
                if not pair_edited:
                    checked_pairs += 1
        # every pair either satisfies the sandwich or sits in the edit set;
        # the builds here have an empty edit set, so all pairs must satisfy
        if rep.delta_e_total == 0.0:
            for i in range(n):
                for j in range(n):
                    if i != j and space.points[i] not in excluded \
                            and space.points[j] not in excluded:
                        s = space.sim[i, j]
                        g = prod[i, j]
                        ok = ok and (kappa * g - d0 <= s
                                     <= (g + 1) * kappa + d0)
    report(8, ok, f"50 builds, {checked_pairs} pairs inside the two-sided "
                  "level bound, zero violations")


def test_criterion_9_best_alpha_optimality():
    worst = -math.inf
    for seed in range(20):
        sfx = random_fixture(10 + seed % 8, seed=seed, weights="random")
        base = tree_scaled_fixture(10 + seed % 8, depth=2, alpha=0.25,
                                   seed=seed)
        from treelike import SimilaritySpace
        space = SimilaritySpace(base.space.points, sfx.space.weights,
                                sfx.space.sim, 1.0)
        alpha, cost = best_alpha(space, base.tree)
        grid = np.linspace(0.0, 2.0, 10_000)
        pairs = _class_pairs(space, base.tree)
        costs = [_cost(pairs, a) for a in grid]
        at = int(np.argmin(costs))
        grid_min = costs[at]
        assert grid_min == tree_cost(space, base.tree, grid[at])
        step = grid[1] - grid[0]
        worst = max(worst, cost - grid_min)
        assert cost <= grid_min + step
    report(9, True, f"20 fixtures: scan minimum never above the 1e4-point "
                    f"grid minimum (max gap {worst:.2e})")


def test_criterion_10_split_invariance():
    ok = True
    for seed in range(20):
        fx = random_fixture(8 + seed % 9, seed=seed, weights="dyadic")
        delta = 0.02 + 0.01 * (seed % 5)
        split, _ = split_atoms(fx.space, delta)
        same_hyp = hyp_exact(split) == hyp_exact(fx.space)
        same_delta = (gromov_delta_worst_case(split)
                      == gromov_delta_worst_case(fx.space))
        ok = ok and same_hyp and same_delta
    report(10, ok, "20 fixtures: average and worst-case defects identical "
                   "bit for bit after splitting")


def _planted_two_cluster(n_spins, per_cluster, seed):
    rng = np.random.default_rng(seed)
    a = (2 * rng.integers(0, 2, size=n_spins) - 1).astype(np.int8)
    b = (2 * rng.integers(0, 2, size=n_spins) - 1).astype(np.int8)
    configs, labels = [], []
    for label, center in enumerate((a, b)):
        for i in rng.choice(n_spins, size=per_cluster, replace=False):
            c = center.copy()
            c[i] = -c[i]
            configs.append(c)
            labels.append(label)
    return np.array(configs), np.array(labels)


def test_criterion_11_spin_glass():
    start = time.perf_counter()
    # (a) chain against exact enumeration
    model = sk_couplings(10, beta=1.0, seed=7)
    samples = gibbs_mcmc(model, steps=1_000_000, burn_in=50_000, thin=1,
                         seed=8)
    configs, probs = gibbs_exact(model)
    counts = Counter(s.tobytes() for s in samples)
    total = len(samples)
    tv = 0.5 * sum(abs(counts.get(c.tobytes(), 0) / total - p)
                   for c, p in zip(configs, probs))
    # (b) planted two-cluster recovery over 50 seeds
    mapping = overlap_map("abs")
    hits = 0
    for seed in range(50):
        cfg, labels = _planted_two_cluster(48, 16, seed)
        space = overlap_space(cfg, None, mapping)
        by_name = {"".join("+" if v > 0 else "-" for v in c): l
                   for c, l in zip(cfg, labels)}
        rep = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4,
                              seed=seed, delta0=0.12)
        level1 = rep.build.levels[1]
        if (len(level1) == 2 and all(
                len({by_name[p] for p in cl}) == 1 for cl in level1)):
            hits += 1
    # (c) high-temperature overlap space has small average defect
    model0 = sk_couplings(12, beta=0.0, seed=3)
    s0 = gibbs_mcmc(model0, steps=60_000, burn_in=10_000, thin=100, seed=4)
    space0 = overlap_space(s0, None, overlap_map("id"))
    hyp0 = hyp_exact(space0)
    elapsed = time.perf_counter() - start
    ok = tv < 0.05 and hits >= 45 and hyp0 < 0.15 and elapsed < 120.0
    report(11, ok, f"TV {tv:.3f} < 0.05, planted split {hits}/50, "
                   f"beta=0 hyp {hyp0:.3f} < 0.15, {elapsed:.0f}s")
