import math

import numpy as np
import pytest

from treelike import (
    RegularityParams,
    WeightedGraph,
    choose_spectral_cut,
    equitable_refine,
    rationalize_weights,
    regularity_pipeline,
    regularity_test,
    spectral_bucket_partition,
    weighted_adjacency_spectrum,
)
from treelike import regularity
from treelike.errors import (BadParams, BlowupTooLarge, EmptyPart, HeavyAtom,
                             ZeroMassGraph)
from treelike.regularity import Buckets, SpectralData, atom_bound_theory


def graph_from_adj(adj, mass=None):
    n = len(adj)
    if mass is None:
        mass = np.full(n, 1.0 / n)
    return WeightedGraph(
        vertices=tuple(f"v{i}" for i in range(n)),
        mass=np.asarray(mass, dtype=float),
        adj=np.asarray(adj, dtype=bool),
    )


def er_graph(n, p, seed, mass=None):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    return graph_from_adj(adj, mass)


def apportion_loop(p, n_total):
    """Largest-remainder rounding with Python ``sorted`` orders."""
    n = len(p)
    if n_total < n:
        return None
    ideal = n_total * p
    base = np.maximum(1, np.floor(ideal).astype(np.int64))
    excess = int(base.sum()) - n_total
    if excess > 0:
        order = sorted(range(n), key=lambda i: (-(base[i] - ideal[i]), i))
        k = 0
        while excess > 0:
            i = order[k % n]
            if base[i] > 1:
                base[i] -= 1
                excess -= 1
            k += 1
            if k > 64 * n:
                return None
    elif excess < 0:
        remainder = ideal - base
        order = sorted(range(n), key=lambda i: (-remainder[i], i))
        for k in range(-excess):
            base[order[k % n]] += 1
    return base


def rationalize_scan_loop(p, tolerance):
    """Reference: a positive tolerance tries every N from n up in order."""
    n = len(p)
    max_blowup = RegularityParams.max_blowup
    scan_top = max(regularity.RATIONALIZE_SCAN_LIMIT, 4 * n)
    for n_total in range(n, scan_top + 1):
        k = regularity._apportion(p, n_total)
        if k is None:
            continue
        if np.abs(k / n_total - p).max() <= tolerance:
            return k, n_total
    n_total = max(n, int(math.ceil(2.0 / tolerance)))
    while n_total <= max_blowup:
        k = regularity._apportion(p, n_total)
        if k is not None and np.abs(k / n_total - p).max() <= tolerance:
            return k, n_total
        n_total *= 2
    raise BlowupTooLarge(n_total, max_blowup)


def outcome(fn, *args):
    try:
        k, n_total = fn(*args)
    except BlowupTooLarge as exc:
        return type(exc), str(exc)
    return k.dtype, k.tolist(), n_total


def planted_counts(rng, n, n_total):
    """Random integers K >= 1 summing to n_total."""
    return 1 + rng.multinomial(n_total - n, np.full(n, 1.0 / n))


def rationalize_cases():
    """Seeded weight vectors with tolerances, of every kind the filter meets.

    Each vector gets one tolerance that needs a long scan and four that end
    it early; n > 1024 gives scan_top = 4n.
    """
    rng = np.random.default_rng(31)
    cases = []
    for t in range(4):
        n = 1 if t == 0 else int(rng.integers(2, 40))
        zeros = rng.random(n)
        zeros[rng.random(n) < 0.3] = 0.0                    # zero weights
        zeros[: n // 2] = zeros[0]                          # ties
        vectors = [
            rng.random(n),                                  # random
            np.ones(n),                                     # uniform
            rng.dirichlet(np.full(n, 0.3)),                 # Dirichlet
            rng.integers(1, 64, size=n) / 64.0,             # dyadic
            planted_counts(rng, n, (997, 997, 1000, 4093)[t]),
            zeros if zeros.sum() > 0 else np.ones(n),
        ]
        for i, p in enumerate(vectors):
            for tol in ((1e-9, 1e-6)[(t + i) % 2], 1e-3, 0.01, 0.1, 0.5):
                cases.append((p / p.sum(), tol))
    cases.append((planted_counts(rng, 1025, 4099) / 4099, 1e-9))
    cases.append((rng.dirichlet(np.ones(1030)), 0.01))
    return cases


class TestRationalize:
    def test_thirds(self):
        k, n = rationalize_weights(np.array([1 / 3, 1 / 3, 1 / 3]), 1e-9)
        assert list(k) == [1, 1, 1] and n == 3

    def test_seven_three(self):
        k, n = rationalize_weights(np.array([0.7, 0.3]), 0.01)
        assert list(k) == [7, 3] and n == 10

    def test_error_bound_random(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = rng.random(12) + 0.05
            p = p / p.sum()
            k, n = rationalize_weights(p, 1e-6)
            assert int(k.sum()) == n
            assert (k >= 1).all()
            assert np.abs(k / n - p).max() <= 1e-6

    def test_apportion_matches_sorted_loop(self):
        rng = np.random.default_rng(11)
        seen = set()
        for k in range(60):
            n = int(rng.integers(1, 40))
            p = rng.random(n) ** 3
            if k % 3 == 0:  # zero weights and exact ties
                p[rng.random(n) < 0.3] = 0.0
                p[: n // 2] = p[0]
            p = p / p.sum() if p.sum() > 0 else np.full(n, 1.0 / n)
            for n_total in range(max(n - 1, 1), n + 200, 3):
                got = regularity._apportion(p, n_total)
                want = apportion_loop(p, n_total)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
                    seen.add(int(np.sign(np.maximum(
                        1, np.floor(n_total * p)).sum() - n_total)))
        assert seen == {-1, 0, 1}  # both the shave and the increment ran

    def test_filter_matches_plain_scan(self):
        denominators = set()
        for p, tol in rationalize_cases():
            got = outcome(rationalize_weights, p, tol)
            assert got == outcome(rationalize_scan_loop, p, tol)
            denominators.add(got[2])
        # minimal, planted, past-4096 and doubling-phase denominators
        assert {1, 997, 4093, 4099, 2_000_000} <= denominators

    def test_filter_keeps_denominators_at_the_tolerance_edge(self):
        # the tolerance is the check's own value at a planted N, so the
        # check passes there with no room: rounding in the filter must not
        # drop that N
        rng = np.random.default_rng(33)
        found = 0
        for _ in range(40):
            n = int(rng.integers(2, 30))
            n_total = int(rng.integers(n + 1, 1024))
            k = planted_counts(rng, n, n_total)
            p = k / n_total * (1 + rng.normal(0.0, 1e-7, size=n))
            tol = float(np.abs(k / n_total - p).max())
            got = outcome(rationalize_weights, p, tol)
            assert got == outcome(rationalize_scan_loop, p, tol)
            found += got[2] == n_total
        assert found > 20

    def test_unnormalized_weights_fail_fast(self, monkeypatch):
        calls = []
        monkeypatch.setattr(regularity, "_apportion",
                            lambda *args: calls.append(args))
        for p in ([2.0, 3.0], [0.5, 0.25, 0.25 + 1e-6], [math.nan, 1.0]):
            with pytest.raises(BadParams, match="must sum to 1"):
                rationalize_weights(np.array(p), 1e-9)
        assert not calls

    @pytest.mark.parametrize("tolerance", [0.0, -1e-9, math.nan])
    def test_tolerance_must_be_positive(self, tolerance):
        with pytest.raises(BadParams, match="tolerance must be > 0"):
            rationalize_weights(np.array([0.5, 0.5]), tolerance)

    @pytest.mark.parametrize("kind", ["random", "zero"])
    def test_apportion_runs_at_most_twice(self, monkeypatch, kind):
        # no N in the scan can meet 1e-9: random weights miss it at every
        # N, and a zero weight needs N >= 1e9; the doubling phase then
        # passes at its first N
        if kind == "random":
            p = np.random.default_rng(34).random(128)
            p /= p.sum()
        else:
            p = np.array([0.0, 0.5, 0.25, 0.25])
        calls = []
        apportion = regularity._apportion

        def counting(*args):
            calls.append(args[1])
            return apportion(*args)

        monkeypatch.setattr(regularity, "_apportion", counting)
        k, n = rationalize_weights(p, 1e-9)
        assert n == 2_000_000_000 and len(calls) <= 2

    def test_blowup_cap(self):
        # below 2 / max_blowup the doubling phase starts past the cap
        p = np.random.default_rng(35).random(8)
        with pytest.raises(BlowupTooLarge) as info:
            rationalize_weights(p / p.sum(), 1e-13)
        assert info.value.cap == RegularityParams.max_blowup

    @pytest.mark.parametrize("tolerance", [1e-310, 5e-324])
    def test_subnormal_tolerance_hits_the_cap(self, tolerance):
        # 2 / tolerance is infinite, and has no integer ceiling
        p = np.random.default_rng(36).random(5)
        with pytest.raises(BlowupTooLarge) as info:
            rationalize_weights(p / p.sum(), tolerance)
        assert info.value.needed == np.inf
        assert info.value.cap == RegularityParams.max_blowup


def spectrum_loop(graph, kmult):
    """Reference: Python ``sorted`` eigenvalue order and a per-row sign loop."""
    root = np.sqrt(np.asarray(kmult, dtype=np.int64).astype(float))
    lam, vec = np.linalg.eigh(np.outer(root, root) * graph.adj)
    order = sorted(range(len(lam)),
                   key=lambda i: (-abs(lam[i]), 0 if lam[i] >= 0 else 1, i))
    lam = lam[order]
    vec = vec[:, order].T.copy()
    for row in vec:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1
    return lam, vec


def complete_bipartite(a, b):
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = adj[a:, :a] = True
    return graph_from_adj(adj)


class TestSpectrum:
    def test_order_and_signs_match_loop(self):
        rng = np.random.default_rng(41)
        matching = np.zeros((6, 6), dtype=bool)
        matching[[0, 2, 4], [1, 3, 5]] = matching[[1, 3, 5], [0, 2, 4]] = True
        graphs = [graph_from_adj(np.zeros((0, 0)), mass=np.zeros(0)),
                  graph_from_adj(np.zeros((5, 5))), graph_from_adj(matching)]
        graphs += [complete_bipartite(a, b)
                   for a, b in ((1, 4), (2, 3), (3, 3), (4, 4))]
        graphs += [er_graph(int(rng.integers(2, 20)), 0.4, seed)
                   for seed in range(8)]
        ties = 0
        for g in graphs:
            for k in (np.ones(g.n, dtype=np.int64),
                      rng.integers(1, 4, size=g.n)):
                spec = weighted_adjacency_spectrum(g, k)
                lam, vec = spectrum_loop(g, k)
                assert spec.eigenvalues.tobytes() == lam.tobytes()
                assert spec.vectors.tobytes() == vec.tobytes()
                pos = lam[lam > 0]
                ties += int(np.isin(-pos, lam).sum())
        assert ties  # some +/- eigenvalue pairs tie in magnitude exactly

    def test_single_edge(self):
        g = graph_from_adj([[0, 1], [1, 0]])
        spec = weighted_adjacency_spectrum(g, np.array([1, 1]))
        assert np.allclose(spec.eigenvalues, [1.0, -1.0])

    def test_single_edge_with_copies(self):
        # K = (2, 1): the reduced matrix and the explicit 3-vertex blow-up
        # (a two-copy/one-copy star) must share their nonzero spectrum
        g = graph_from_adj([[0, 1], [1, 0]])
        spec = weighted_adjacency_spectrum(g, np.array([2, 1]))
        assert np.allclose(sorted(spec.eigenvalues),
                           [-math.sqrt(2), math.sqrt(2)])
        star = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
        lam = np.linalg.eigvalsh(star)
        nonzero = sorted(v for v in lam if abs(v) > 1e-12)
        assert np.allclose(nonzero, sorted(spec.eigenvalues))

    def test_triangle(self):
        g = graph_from_adj([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        spec = weighted_adjacency_spectrum(g, np.array([1, 1, 1]))
        assert np.allclose(sorted(spec.eigenvalues), [-1.0, -1.0, 2.0])

    def test_trace_identity(self):
        for seed in range(5):
            g = er_graph(10, 0.4, seed)
            k = np.random.default_rng(seed).integers(1, 4, size=10)
            spec = weighted_adjacency_spectrum(g, k)
            lhs = float(np.sum(spec.eigenvalues ** 2))
            rhs = float((np.outer(k, k) * g.adj).sum())
            assert abs(lhs - rhs) <= 1e-9 * spec.blowup_size ** 2

    def test_blowup_equivalence_small(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            k = rng.integers(1, 4, size=n)
            while k.sum() > 12:
                k = rng.integers(1, 4, size=n)
            adj = rng.random((n, n)) < 0.6
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            g = graph_from_adj(adj)
            spec = weighted_adjacency_spectrum(g, k)
            # explicit blow-up oracle
            owner = np.repeat(np.arange(n), k)
            big = adj[np.ix_(owner, owner)]
            lam = np.linalg.eigvalsh(big.astype(float))
            nz_big = sorted(v for v in lam if abs(v) > 1e-8)
            nz_red = sorted(v for v in spec.eigenvalues if abs(v) > 1e-8)
            assert len(nz_big) == len(nz_red)
            assert np.allclose(nz_big, nz_red, atol=1e-10)


def spike_spectrum(values, kmult=None):
    values = np.asarray(values, dtype=float)
    n = len(values)
    if kmult is None:
        kmult = np.ones(n, dtype=np.int64)
    return SpectralData(
        multiplicities=np.asarray(kmult, dtype=np.int64),
        blowup_size=int(np.sum(kmult)),
        eigenvalues=values,
        vectors=np.eye(n),
    )


class TestSpectralCut:
    def test_empty_graph_gives_one(self):
        g = graph_from_adj(np.zeros((5, 5)))
        spec = weighted_adjacency_spectrum(g, np.ones(5, dtype=np.int64))
        params = RegularityParams(epsilon=0.2, m=2)
        assert choose_spectral_cut(spec, params) == 1

    def test_single_spike_reduces_to_two(self):
        # lambda_1 large, everything else zero: the rung after [1, 4) is
        # [4, 16) with an empty tail, then the cut drops to the first zero
        spec = spike_spectrum([4.0, 0.0, 0.0, 0.0, 0.0])
        params = RegularityParams(epsilon=0.2, m=2)
        assert choose_spectral_cut(spec, params) == 2

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            lam = np.sort(np.abs(rng.normal(size=12) * 3))[::-1]
            lam = lam * np.where(rng.random(12) < 0.5, 1, -1)
            lam = lam[np.argsort(-np.abs(lam), kind="stable")]
            spec = spike_spectrum(lam)
            params = RegularityParams(epsilon=0.15, m=2)
            j = choose_spectral_cut(spec, params)
            # oracle: first ladder rung whose window sum meets the bound
            bound = 0.15 ** 5 * spec.blowup_size ** 2 / 128.0
            z, expect = 1, None
            lam2 = np.abs(lam) ** 2
            while expect is None:
                window = lam2[z - 1:min(4 * z - 1, len(lam2))].sum()
                if window <= bound:
                    expect = z
                z = 4 * z
            nz = int(np.count_nonzero(lam))
            expect = min(expect, nz + 1)
            assert j == expect


class TestBuckets:
    def test_cut_one_single_bucket(self):
        g = er_graph(8, 0.5, 1)
        spec = weighted_adjacency_spectrum(g, np.ones(8, dtype=np.int64))
        buckets = spectral_bucket_partition(spec, 1, 0.2)
        assert buckets.exceptional == ()
        assert len(buckets.cells) == 1
        assert sorted(buckets.cells[0]) == list(range(8))

    def test_two_communities_split_at_two(self):
        # two complete blocks, no cross edges: the leading eigenvector is
        # supported on one block, so its coordinate intervals separate them
        n = 14
        adj = np.zeros((n, n), dtype=bool)
        adj[:6, :6] = True
        adj[6:, 6:] = True
        np.fill_diagonal(adj, False)
        g = graph_from_adj(adj)
        spec = weighted_adjacency_spectrum(g, np.ones(n, dtype=np.int64))
        buckets = spectral_bucket_partition(spec, 2, 0.2)
        groups = [set(cell) for cell in buckets.cells]
        for cell in groups:
            assert cell <= set(range(6)) or cell <= set(range(6, n))
        covered = set().union(*groups) | set(buckets.exceptional)
        assert covered == set(range(n))

    def test_exceptional_blowup_bound(self):
        for seed in range(3):
            g = er_graph(12, 0.5, seed)
            k = np.ones(12, dtype=np.int64)
            spec = weighted_adjacency_spectrum(g, k)
            params = RegularityParams(epsilon=0.2, m=2)
            j = choose_spectral_cut(spec, params)
            buckets = spectral_bucket_partition(spec, j, 0.2)
            exc = sum(int(k[x]) for x in buckets.exceptional)
            assert exc <= 0.2 * spec.blowup_size / 2.0


class TestEquitableRefine:
    def test_chunks_of_three(self):
        # two buckets of unit-mass points in a 120-unit space: the chunk
        # target lands just under 3, so the 12-point bucket splits into four
        # parts of three with an empty remainder
        n = 120
        mass = np.ones(n)
        cells = (tuple(range(12)), tuple(range(12, n)))
        buckets = Buckets(exceptional=(), cells=cells,
                          coordinate_width=1.0, outlier_threshold=1.0)
        params = RegularityParams(epsilon=0.2, m=2)
        refined = equitable_refine(buckets, mass, params)
        assert 2.0 < refined.chunk_target <= 3.0
        first_bucket_parts = [p for p in refined.parts
                              if set(p) <= set(range(12))]
        assert [len(p) for p in first_bucket_parts] == [3, 3, 3, 3]
        assert refined.exceptional == ()

    def test_q_bounds_forty_uniform(self):
        g = er_graph(40, 0.5, 11)
        params = RegularityParams(epsilon=0.1, m=2)
        result = regularity_pipeline(g, params, seed=0)
        q = result.q
        assert params.m <= q <= result.params["part_cap"]

    def test_whole_points_only(self):
        # chunking acts on whole points, so every part is a set of point ids
        g = er_graph(20, 0.5, 2)
        params = RegularityParams(epsilon=0.2, m=2)
        result = regularity_pipeline(g, params, seed=0)
        seen = [v for part in result.parts for v in part]
        assert sorted(seen) == sorted(g.vertices)

    def test_heavy_atom_practical(self):
        mass = np.array([1.0, 0.0, 0.0])
        adj = np.zeros((3, 3), dtype=bool)
        g = graph_from_adj(adj, mass)
        params = RegularityParams(epsilon=0.2, m=2)
        with pytest.raises(HeavyAtom):
            regularity_pipeline(g, params, seed=0)

    def test_theory_atom_bound_reported(self):
        info = atom_bound_theory(0.2, 2)
        assert info["half_inverse_m"] == 0.25
        assert info["value"] == 0.0
        assert info["sigma_bound_log10"] < -100


class TestRegularityTester:
    def test_complete_bipartite_regular(self):
        n = 12
        adj = np.zeros((n, n), dtype=bool)
        adj[:6, 6:] = True
        adj[6:, :6] = True
        g = graph_from_adj(adj)
        verdict = regularity_test(g, list(range(6)), list(range(6, 12)), 0.25)
        assert verdict.regular and verdict.certified
        assert verdict.deviation <= 1e-12

    def test_half_block_design_irregular(self):
        # U1-V1 and U2-V2 complete, cross empty: base density one half and a
        # witness at deviation one half
        n = 12
        adj = np.zeros((n, n), dtype=bool)
        adj[0:3, 6:9] = True
        adj[3:6, 9:12] = True
        adj = adj | adj.T
        g = graph_from_adj(adj)
        verdict = regularity_test(g, list(range(6)), list(range(6, 12)), 0.25)
        assert not verdict.regular
        assert verdict.certified
        assert verdict.deviation == pytest.approx(0.5, abs=1e-12)
        a, b = verdict.witness
        base = 0.5
        mass = g.mass
        rho = float(mass[list(a)] @ g.adj[np.ix_(list(a), list(b))]
                    @ mass[list(b)])
        dens = rho / (mass[list(a)].sum() * mass[list(b)].sum())
        assert abs(dens - base) == pytest.approx(verdict.deviation, abs=1e-12)

    def test_exhaustive_and_sampling_agree(self, monkeypatch):
        # 400 draws per pair, so the sampler finds every witness here
        monkeypatch.setattr(RegularityParams, "trials", 400)
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = 16
            adj = rng.random((n, n)) < rng.uniform(0.2, 0.8)
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            g = graph_from_adj(adj)
            left = list(range(8))
            right = list(range(8, 16))
            full = regularity_test(g, left, right, 0.25)
            from treelike.regularity import _sampled_test
            sampled = _sampled_test(g, left, right, 0.25, trial)
            assert full.regular == sampled.regular

    def test_empty_part_rejected(self):
        g = er_graph(6, 0.5, 0)
        with pytest.raises(EmptyPart):
            regularity_test(g, [], [1, 2], 0.2)


class TestPipeline:
    def test_complete_graph_all_densities_one(self):
        n = 12
        adj = ~np.eye(n, dtype=bool)
        g = graph_from_adj(adj)
        result = regularity_pipeline(g, RegularityParams(0.2, 2), seed=0)
        q = result.q
        for i in range(1, q + 1):
            for j in range(1, q + 1):
                if i != j:
                    assert result.densities[i, j] == 1.0
                    assert result.regular_flags[i, j]

    def test_empty_graph_all_zero_all_regular(self):
        g = graph_from_adj(np.zeros((12, 12)))
        result = regularity_pipeline(g, RegularityParams(0.2, 2), seed=0)
        q = result.q
        for i in range(1, q + 1):
            for j in range(1, q + 1):
                if i != j:
                    assert result.densities[i, j] == 0.0
                    assert result.regular_flags[i, j]

    def test_er_few_pairs_fail_at_quarter(self):
        g = er_graph(60, 0.5, 42)
        result = regularity_pipeline(g, RegularityParams(0.2, 2), seed=1)
        parts = result.parts
        index = {v: i for i, v in enumerate(g.vertices)}
        q = result.q
        fails = 0
        for i in range(1, q + 1):
            for j in range(i + 1, q + 1):
                left = [index[v] for v in parts[i]]
                right = [index[v] for v in parts[j]]
                verdict = regularity_test(g, left, right, 0.25,
                                          seed=(1, i, j))
                fails += 0 if verdict.regular else 1
        assert fails <= 0.25 * q * q

    def test_postconditions(self):
        for seed in range(4):
            g = er_graph(30 + seed * 5, 0.4, seed)
            params = RegularityParams(epsilon=0.15, m=2)
            result = regularity_pipeline(g, params, seed=seed)
            mass = {v: m for v, m in zip(g.vertices, g.mass)}
            mu_total = g.total_mass()
            v0 = sum(mass[v] for v in result.parts[0])
            assert v0 <= params.epsilon * mu_total
            pm = [sum(mass[v] for v in part) for part in result.parts[1:]]
            assert min(pm) > 0
            assert max(pm) - min(pm) <= g.mass.max()
            assert params.m <= result.q <= result.params["part_cap"]
            defined = result.densities[1:, 1:][~np.isnan(result.densities[1:, 1:])]
            assert (defined >= 0).all() and (defined <= 1).all()
            flat = [v for part in result.parts for v in part]
            assert sorted(flat) == sorted(g.vertices)

    def test_determinism(self):
        g = er_graph(25, 0.5, 9)
        params = RegularityParams(epsilon=0.2, m=2)
        a = regularity_pipeline(g, params, seed=5)
        b = regularity_pipeline(g, params, seed=5)
        assert a.parts == b.parts
        assert np.array_equal(a.regular_flags, b.regular_flags)
        assert np.array_equal(np.nan_to_num(a.densities),
                              np.nan_to_num(b.densities))

    def test_zero_mass_graph(self):
        g = graph_from_adj(np.zeros((3, 3)), mass=np.zeros(3))
        with pytest.raises(ZeroMassGraph):
            regularity_pipeline(g, RegularityParams(0.2, 2), seed=0)


def pair_stage_loop(graph, result, epsilon, seed, tester=regularity_test):
    """Reference: densities and flags from a per-pair loop over all parts.

    Every pair, single-point pairs included, goes through the tester with
    the per-pair seed (seed, i, j).
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    parts = [[index[v] for v in part] for part in result.parts]
    q = result.q
    membership = np.zeros((graph.n, q + 1))
    for pi, part in enumerate(parts):
        for v in part:
            membership[v, pi] = 1.0
    weighted = membership * graph.mass[:, None]
    rho = weighted.T @ graph.adj @ weighted
    part_mass = graph.mass @ membership
    densities = np.full((q + 1, q + 1), math.nan)
    flags = np.zeros((q + 1, q + 1), dtype=bool)
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            densities[i, j] = densities[j, i] = (
                rho[i, j] / (part_mass[i] * part_mass[j]))
            verdict = tester(graph, parts[i], parts[j], epsilon,
                             seed=(seed, i, j))
            flags[i, j] = flags[j, i] = verdict.regular
    return densities, flags


def oracle_graph(case):
    if case == "empty120":
        return graph_from_adj(np.zeros((120, 120)))
    if case == "matched400":
        adj = np.zeros((400, 400), dtype=bool)
        for a, b in ((0, 1), (2, 3), (4, 5)):
            adj[a, b] = adj[b, a] = True
        return graph_from_adj(adj)
    # every tenth point 12x heavier; one heavy-light edge splits off a
    # bucket holding a single heavy point
    mass = np.ones(200)
    mass[::10] = 12.0
    adj = np.zeros((200, 200), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    return graph_from_adj(adj, mass / mass.sum())


class TestPipelineOracle:
    @pytest.mark.parametrize("case, sizes", [
        ("empty120", {4}),        # exhaustive tester
        ("matched400", {14}),     # sampled tester
        ("heavy200", {1, 9, 10}),  # single points meet multi-point parts
    ])
    def test_pair_stage_matches_per_pair_loop(self, case, sizes):
        g = oracle_graph(case)
        result = regularity_pipeline(g, RegularityParams(0.2, 2), seed=1)
        assert {len(part) for part in result.parts[1:]} == sizes
        densities, flags = pair_stage_loop(g, result, 0.2, seed=1)
        assert np.array_equal(result.densities, densities, equal_nan=True)
        assert np.array_equal(result.regular_flags, flags)

    def test_tester_calls_follow_the_seed_stream(self, monkeypatch):
        # every tester verdict above is regular, so a stand-in tester that
        # rejects by seed checks which pairs are tested and with what seed
        def stand_in(graph, left, right, epsilon, seed):
            if len(left) == len(right) == 1:
                return regularity_test(graph, left, right, epsilon)
            _, i, j = seed
            return regularity.RegularityVerdict(
                (i * i + j) % 3 != 0, True, 0.0, 0.0)

        monkeypatch.setattr(regularity, "regularity_test", stand_in)
        g = oracle_graph("heavy200")
        result = regularity_pipeline(g, RegularityParams(0.2, 2), seed=1)
        _, flags = pair_stage_loop(g, result, 0.2, seed=1, tester=stand_in)
        assert not flags[1:, 1:].all()
        assert np.array_equal(result.regular_flags, flags)


def bucket_loop(spectrum, cut, epsilon):
    """Reference: exceptional points and cells from a per-point loop."""
    k = spectrum.multiplicities
    n = len(k)
    big_n = spectrum.blowup_size
    threshold = math.sqrt(2.0 * cut / (epsilon * big_n))
    width = epsilon ** 1.5 / (16.0 * math.sqrt(2.0 * cut ** 3 * big_n))
    coords = [spectrum.vectors[i] / np.sqrt(k) for i in range(min(cut - 1, n))]
    outlier = np.zeros(n, dtype=bool)
    for u in coords:
        outlier |= np.abs(u) > threshold
    cells = {}
    for x in range(n):
        if not outlier[x]:
            label = tuple(int(math.ceil(u[x] / width)) for u in coords)
            cells.setdefault(label, []).append(x)
    exceptional = tuple(int(x) for x in np.nonzero(outlier)[0])
    return exceptional, tuple(tuple(cell) for cell in cells.values())


class TestBucketLabels:
    def test_matches_per_point_loop(self):
        # block graphs repeat rows, so points share cells; loose epsilon
        # and light copies give outliers
        rng = np.random.default_rng(21)
        shared = outliers = 0
        for _ in range(40):
            n = int(rng.integers(6, 30))
            blocks = rng.integers(0, int(rng.integers(1, 5)), size=n)
            link = rng.random((4, 4)) < 0.5
            adj = (link | link.T)[np.ix_(blocks, blocks)]
            np.fill_diagonal(adj, False)
            g = graph_from_adj(adj)
            k = rng.integers(1, 4, size=n)
            spec = weighted_adjacency_spectrum(g, k)
            eps = float(rng.choice([0.01, 0.1, 0.24]))
            for cut in (1, 2, 3, n + 1):
                exceptional, cells = bucket_loop(spec, cut, eps)
                buckets = spectral_bucket_partition(spec, cut, eps)
                assert buckets.exceptional == exceptional
                assert buckets.cells == cells
                shared += any(len(cell) > 1 for cell in cells) and cut > 1
                outliers += bool(exceptional)
        assert shared and outliers


SPECTRUM_KEYS = ("cut", "bucket_count", "part_cap", "chunk_target")
TINY = RegularityParams(1e-12, 16)


def spectral_path(graph, params, seed=0):
    """Oracle: the pipeline with the forced check turned off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "_forced_refinement", lambda *args: None)
        return regularity_pipeline(graph, params, seed=seed)


def in_point_order(result, graph):
    """Densities and flags of a single-point partition, indexed by point."""
    where = {part[0]: pi for pi, part in enumerate(result.parts[1:], 1)}
    order = [0] + [where[v] for v in graph.vertices]
    cells = np.ix_(order, order)
    return result.densities[cells], result.regular_flags[cells]


class TestForcedPartition:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, p", [(12, 0.5), (40, 0.3), (90, 0.6)])
    @pytest.mark.parametrize("weights", ["uniform", "random"])
    def test_matches_spectral_path(self, seed, n, p, weights):
        rng = np.random.default_rng((seed, n))
        mass = None if weights == "uniform" else rng.random(n) + 0.1
        g = er_graph(n, p, seed, None if mass is None else mass / mass.sum())
        assert g.adj.any(axis=1).all()  # no isolated vertex shares a cell
        forced = regularity_pipeline(g, TINY, seed=seed)
        full = spectral_path(g, TINY, seed=seed)
        assert forced.params["forced"] and not full.params["forced"]
        assert forced.parts == full.parts
        assert forced.parts == ((),) + tuple((v,) for v in g.vertices)
        assert forced.densities.tobytes() == full.densities.tobytes()
        assert np.array_equal(forced.regular_flags, full.regular_flags)
        for key in SPECTRUM_KEYS:
            assert forced.params[key] is None
            assert full.params[key] is not None
        rest = set(forced.params) - set(SPECTRUM_KEYS) - {"forced"}
        assert {k: forced.params[k] for k in rest} \
            == {k: full.params[k] for k in rest}

    def test_isolated_vertices_share_a_spectral_cell(self):
        # a path and an edge on 20 points; the other 15 are isolated
        adj = np.zeros((20, 20), dtype=bool)
        for a, b in ((1, 5), (5, 9), (12, 16)):
            adj[a, b] = adj[b, a] = True
        g = graph_from_adj(adj)
        forced = regularity_pipeline(g, TINY, seed=1)
        full = spectral_path(g, TINY, seed=1)
        assert forced.parts == ((),) + tuple((v,) for v in g.vertices)
        # the spectral path lists the all-zero cell at its first member
        assert full.parts != forced.parts
        assert sorted(full.parts) == sorted(forced.parts)
        dens, flags = in_point_order(full, g)
        assert dens.tobytes() == forced.densities.tobytes()
        assert np.array_equal(flags, forced.regular_flags)

    def test_zero_weight_point_takes_the_spectral_path(self):
        # fails (b): the zero-weight point cannot close a chunk on its own
        mass = np.full(10, 0.1)
        mass[3] = 0.0
        g = er_graph(10, 0.5, 2, mass)
        result = regularity_pipeline(g, TINY, seed=0)
        assert not result.params["forced"]
        # its chunk never closes, so it is left over into V_0
        assert result.parts[0] == ("v3",)
        assert result.parts == spectral_path(g, TINY, seed=0).parts
        # a target that underflows to 0 must not let a zero mass through
        tiny = RegularityParams(5e-324, 2)
        assert regularity._forced_refinement(mass, 20, tiny) is None

    def test_mass_condition_boundary(self):
        # an empty graph has one spectral cell, so the chunk target is the
        # one at r = 1; a light point exactly at it still closes its chunk,
        # one just below joins the next point's chunk
        def masses(w):  # m_eff = 6 for every small w
            return np.array([w] + [1.0] * 8 + [1.5])

        w = 0.0
        for _ in range(5):  # fixed point of w = target(masses(w))
            mu, _, m_star = regularity._refine_scale(masses(w), TINY)
            w = regularity._chunk_target(TINY.epsilon, mu, 1, m_star)
        at = regularity_pipeline(graph_from_adj(np.zeros((10, 10)),
                                                masses(w)), TINY)
        assert at.params["forced"]
        below = regularity_pipeline(graph_from_adj(
            np.zeros((10, 10)), masses(float(np.nextafter(w, 0.0)))), TINY)
        assert not below.params["forced"]
        assert below.params["bucket_count"] == 1
        assert below.parts[:2] == ((), ("v0", "v1"))

    def test_epsilon_n_just_above_one_takes_the_spectral_path(self):
        g = er_graph(10, 0.4, 3)  # uniform weights: N = 10
        at_one = regularity_pipeline(g, RegularityParams(0.1, 2), seed=0)
        above = regularity_pipeline(
            g, RegularityParams(float(np.nextafter(0.1, 1.0)), 2), seed=0)
        assert at_one.params["blowup_size"] == 10
        assert at_one.params["forced"] and not above.params["forced"]
        assert at_one.parts == above.parts

    def test_outliers_need_condition_a(self):
        # a star whose centre has multiplicity 1 and its 4 leaves 13 each:
        # (b) holds, but at epsilon N = 12.72 the centre is an outlier
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1:] = adj[1:, 0] = True
        k = np.array([1, 13, 13, 13, 13])
        g = graph_from_adj(adj, k / k.sum())
        params = RegularityParams(0.24, 4)
        _, big_n = rationalize_weights(g.mass, params.nu)
        assert params.epsilon * big_n > 1.0
        mu, _, m_star = regularity._refine_scale(g.mass, params)
        assert g.mass.min() >= regularity._chunk_target(0.24, mu, 1, m_star)
        result = regularity_pipeline(g, params, seed=0)
        assert not result.params["forced"]
        assert result.parts == (("v0",), ("v1",), ("v2",), ("v3",), ("v4",))

    def test_single_point_is_a_heavy_atom(self):
        g = graph_from_adj(np.zeros((1, 1)), mass=[1.0])
        with pytest.raises(HeavyAtom, match="leaves no feasible part count"):
            regularity_pipeline(g, TINY, seed=0)
        with pytest.raises(HeavyAtom, match="leaves no feasible part count"):
            spectral_path(g, TINY, seed=0)

    def test_part_count_reaches_m_effective(self):
        # q = n on the forced path, and m_eff p* < 1 <= n p* keeps
        # m_eff <= n, so the q < m_eff HeavyAtom cannot arise there
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            mass = rng.random(n) ** 4 + 1e-3
            g = er_graph(n, 0.5, int(rng.integers(1000)), mass / mass.sum())
            result = regularity_pipeline(g, TINY, seed=0)
            assert result.params["forced"]
            assert result.params["m_effective"] <= result.q == n
            assert result.parts == spectral_path(g, TINY, seed=0).parts


def triu_scatter_reference(graph, result, epsilon, seed,
                           tester=regularity_test):
    """Reference: the fancy-index scatter over ``np.triu_indices``.

    Densities and flags are written pair by pair at the indices i < j of
    the non-exceptional parts and mirrored; the tester runs on every pair
    with a multi-point part, in that row-major order.
    """
    index = {v: x for x, v in enumerate(graph.vertices)}
    index_parts = [[index[v] for v in part] for part in result.parts]
    q = len(index_parts) - 1
    sizes = np.array([len(part) for part in index_parts])
    i, j = np.triu_indices(q, 1)
    i += 1
    j += 1
    densities = np.full((q + 1, q + 1), math.nan)
    if result.params["forced"]:
        dens = graph.adj[i - 1, j - 1]
    else:
        membership = np.zeros((graph.n, q + 1))
        membership[[v for part in index_parts for v in part],
                   np.repeat(np.arange(q + 1), sizes)] = 1.0
        weighted = membership * graph.mass[:, None]
        rho = weighted.T @ graph.adj @ weighted
        part_mass = graph.mass @ membership
        dens = rho[i, j] / (part_mass[i] * part_mass[j])
    densities[i, j] = densities[j, i] = dens
    flags = np.zeros((q + 1, q + 1), dtype=bool)
    flags[i, j] = flags[j, i] = True
    tested = (sizes[i] > 1) | (sizes[j] > 1)
    for a, b in zip(i[tested].tolist(), j[tested].tolist()):
        verdict = tester(graph, index_parts[a], index_parts[b], epsilon,
                         seed=(seed, a, b))
        flags[a, b] = flags[b, a] = verdict.regular
    return densities, flags


class TestBlockAssignment:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("weights", ["uniform", "random"])
    def test_forced_path_matches_scatter(self, seed, weights):
        rng = np.random.default_rng((seed, 7))
        mass = None if weights == "uniform" else rng.random(70) + 0.1
        g = er_graph(70, 0.4, seed, None if mass is None else mass / mass.sum())
        result = regularity_pipeline(g, TINY, seed=seed)
        assert result.params["forced"]
        densities, flags = triu_scatter_reference(g, result, TINY.epsilon,
                                                  seed)
        assert result.densities.tobytes() == densities.tobytes()
        assert np.array_equal(result.regular_flags, flags)

    @pytest.mark.parametrize("case", ["empty120", "matched400", "heavy200",
                                      "er60", "chunks"])
    def test_spectral_path_matches_scatter(self, case, monkeypatch):
        # a stand-in tester that rejects by seed shows which pairs are
        # tested and with what seed, at a fraction of the real tester's cost
        def stand_in(graph, left, right, epsilon, seed):
            _, i, j = seed
            return regularity.RegularityVerdict(
                (i * i + j) % 3 != 0, True, 0.0, 0.0)

        monkeypatch.setattr(regularity, "regularity_test", stand_in)
        if case == "chunks":
            # parts of five points with uneven masses on edges: the weighted
            # edge masses rho are then not bit-symmetric
            def chunks(buckets, mass, params):
                return regularity.RefinedParts(
                    exceptional=(), m_effective=2, m_star=2.0,
                    chunk_target=None, part_cap=None,
                    parts=tuple(tuple(range(x, x + 5))
                                for x in range(0, len(mass), 5)))

            monkeypatch.setattr(regularity, "equitable_refine", chunks)
            mass = np.random.default_rng(8).random(80) + 0.5
            g = er_graph(80, 0.5, 8, mass / mass.sum())
        elif case == "er60":
            g = er_graph(60, 0.5, 3)
        else:
            # at epsilon = 0.2 these hold multi-point parts
            g = oracle_graph(case)
        result = regularity_pipeline(g, RegularityParams(0.2, 2), seed=4)
        assert not result.params["forced"]
        if case != "er60":
            assert not result.regular_flags[1:, 1:].all()
        densities, flags = triu_scatter_reference(g, result, 0.2, 4,
                                                  tester=stand_in)
        assert result.densities.tobytes() == densities.tobytes()
        assert np.array_equal(result.regular_flags, flags)

    def test_single_point_parts_skip_the_tester(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tester called on single-point parts")

        monkeypatch.setattr(regularity, "regularity_test", refuse)
        result = regularity_pipeline(er_graph(50, 0.5, 1), TINY, seed=0)
        assert result.regular_flags[1:, 1:].sum() == 50 * 49
