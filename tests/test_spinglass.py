import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from treelike import spinglass
from treelike import (
    SpinGlassModel,
    gibbs_exact,
    gibbs_mcmc,
    gromov_product_matrix,
    hyp_exact,
    overlap,
    overlap_map,
    overlap_space,
    pure_state_tree,
    sk_couplings,
)
from treelike.errors import (
    BadParams,
    BadSchedule,
    DegenerateSample,
    LengthMismatch,
    SizeTooSmall,
    TooLargeForEnumeration,
)
from treelike.hyperbolicity import _gamma


def planted_two_cluster(n_spins, per_cluster, seed):
    """Two random centers; each cluster is a set of distinct one-spin flips."""
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


class TestCouplings:
    def test_count_minimal(self):
        model = sk_couplings(2, seed=0)
        assert len(model.couplings) == 1

    def test_deterministic(self):
        a = sk_couplings(8, seed=5)
        b = sk_couplings(8, seed=5)
        assert np.array_equal(a.couplings, b.couplings)

    def test_moments(self):
        model = sk_couplings(450, seed=1)  # ~1e5 couplings
        g = model.couplings
        assert len(g) > 100_000 - 1000
        assert abs(g.mean()) < 0.02
        assert abs(g.var() - 1.0) < 0.05

    def test_too_small(self):
        with pytest.raises(SizeTooSmall):
            sk_couplings(1)

    def test_nan_beta(self):
        with pytest.raises(BadParams, match="beta must be a number"):
            sk_couplings(6, beta=math.nan)
        with pytest.raises(BadParams, match="beta must be a number"):
            SpinGlassModel(n=2, beta=math.nan, seed=0, couplings=np.ones(1))


class TestGibbsExact:
    def test_infinite_temperature_uniform(self):
        model = sk_couplings(6, beta=0.0, seed=2)
        _, probs = gibbs_exact(model)
        assert np.allclose(probs, 1.0 / 64.0, atol=1e-15)

    def test_two_spin_closed_form(self):
        model = sk_couplings(2, beta=1.0, seed=3)
        configs, probs = gibbs_exact(model)
        g = float(model.couplings[0])
        z = 2 * math.exp(g / math.sqrt(2)) + 2 * math.exp(-g / math.sqrt(2))
        expected = math.exp(g / math.sqrt(2)) / z
        idx = int(np.nonzero((configs == 1).all(axis=1))[0][0])
        assert probs[idx] == pytest.approx(expected, abs=1e-14)

    def test_global_flip_symmetry(self):
        model = sk_couplings(8, beta=0.7, seed=4)
        configs, probs = gibbs_exact(model)
        lookup = {c.tobytes(): p for c, p in zip(configs, probs)}
        for c, p in zip(configs, probs):
            assert lookup[(-c).tobytes()] == pytest.approx(p, rel=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(TooLargeForEnumeration):
            gibbs_exact(sk_couplings(21, seed=0))

    @pytest.mark.parametrize("beta", [math.inf, -math.inf])
    def test_infinite_beta(self, beta):
        # the chain takes an infinite beta; the enumeration would weigh
        # its ground states inf - inf
        model = sk_couplings(6, beta=beta, seed=2)
        with pytest.raises(BadParams, match="needs a finite beta"):
            gibbs_exact(model)


def gibbs_loop(model, steps, burn_in, thin, seed):
    """Per-step numpy Metropolis loop that copies the spins at each sample."""
    n = model.n
    rng = np.random.default_rng(seed)
    g = model.coupling_matrix()
    sigma = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
    local = g @ sigma / math.sqrt(n)  # field at each site
    sites = rng.integers(0, n, size=steps)
    accept_u = rng.random(steps)
    out = []
    for step in range(steps):
        i = sites[step]
        delta = -2.0 * sigma[i] * local[i]
        if delta >= 0 or accept_u[step] < math.exp(model.beta * delta):
            sigma[i] = -sigma[i]
            local += 2.0 * sigma[i] * g[:, i] / math.sqrt(n)
        if step >= burn_in and (step - burn_in) % thin == 0:
            out.append(sigma.copy())
    return np.array(out, dtype=np.int8)


def assert_same_samples(model, steps, burn_in, thin, seed):
    got = gibbs_mcmc(model, steps, burn_in, thin, seed)
    want = gibbs_loop(model, steps, burn_in, thin, seed)
    assert got.dtype == want.dtype == np.int8
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


LOOP_STEPS = 400


class TestGibbsMatchesLoop:
    @pytest.mark.parametrize("burn_in", [0, LOOP_STEPS - 1])
    @pytest.mark.parametrize("thin", [1, 7, 100])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])  # beta 0 accepts all
    @pytest.mark.parametrize("n", [2, 10, 12])
    def test_grid(self, n, beta, thin, burn_in):
        seed = 100 * n + 10 * int(beta) + thin
        model = sk_couplings(n, beta=beta, seed=seed)
        samples = assert_same_samples(model, LOOP_STEPS, burn_in, thin,
                                      seed + 1)
        if burn_in == LOOP_STEPS - 1:
            assert len(samples) == 1

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks(self, block, monkeypatch):
        monkeypatch.setattr(spinglass, "MCMC_BLOCK", block)
        model = sk_couplings(10, beta=1.0, seed=9)
        assert_same_samples(model, LOOP_STEPS, 13, 7, 10)

    def test_site_that_never_flips(self):
        model = sk_couplings(12, beta=1.0, seed=4)
        samples = assert_same_samples(model, 6, 0, 1, 5)
        assert (samples == samples[0]).all(axis=0).any()

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_temperature_ties(self, seed):
        # on a frustrated triangle at beta = inf only moves whose field
        # cancels to exactly 0 are accepted, so the field bits decide
        model = SpinGlassModel(n=3, beta=math.inf, seed=0,
                               couplings=np.full(3, -1.3))
        samples = assert_same_samples(model, 300, 0, 1, seed)
        assert len(np.unique(samples, axis=0)) > 2


class TestGibbsMcmc:
    def test_deterministic(self):
        model = sk_couplings(6, beta=0.5, seed=1)
        a = gibbs_mcmc(model, steps=2000, burn_in=100, thin=10, seed=3)
        b = gibbs_mcmc(model, steps=2000, burn_in=100, thin=10, seed=3)
        assert np.array_equal(a, b)

    def test_infinite_temperature_magnetization(self):
        model = sk_couplings(10, beta=0.0, seed=2)
        samples = gibbs_mcmc(model, steps=120_000, burn_in=20_000, thin=40,
                             seed=7)
        mags = samples.mean(axis=1)
        stderr = mags.std(ddof=1) / math.sqrt(len(mags))
        assert abs(mags.mean()) <= 4.0 * stderr + 0.01

    def test_bad_schedule(self):
        model = sk_couplings(4, seed=0)
        with pytest.raises(BadSchedule):
            gibbs_mcmc(model, steps=10, burn_in=10, thin=1, seed=0)
        with pytest.raises(BadSchedule):
            gibbs_mcmc(model, steps=10, burn_in=1, thin=0, seed=0)
        with pytest.raises(BadSchedule):
            gibbs_mcmc(model, steps=300, burn_in=-50, thin=1, seed=0)

    def test_close_to_exact_distribution(self):
        model = sk_couplings(8, beta=0.8, seed=5)
        samples = gibbs_mcmc(model, steps=300_000, burn_in=20_000, thin=1,
                             seed=6)
        configs, probs = gibbs_exact(model)
        counts = Counter(s.tobytes() for s in samples)
        total = len(samples)
        tv = 0.5 * sum(
            abs(counts.get(c.tobytes(), 0) / total - p)
            for c, p in zip(configs, probs)
        )
        assert tv < 0.06


class TestOverlap:
    def test_identical(self):
        s = np.array([1, -1, 1, 1])
        assert overlap(s, s) == 1.0

    def test_antipodal(self):
        s = np.array([1, -1, 1, 1])
        assert overlap(s, -s) == -1.0

    def test_half(self):
        assert overlap(np.array([1, 1, 1, 1]), np.array([1, 1, -1, -1])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            overlap(np.array([1, 1]), np.array([1, 1, 1]))


class TestOverlapSpace:
    def test_antipodal_pair_under_abs(self):
        configs = np.array([[1, 1, 1, 1], [-1, -1, -1, -1]], dtype=np.int8)
        space = overlap_space(configs, None, overlap_map("abs"))
        assert space.n == 2
        assert np.all(space.sim == 1.0)

    def test_identity_map_range(self):
        configs, labels = planted_two_cluster(10, 6, seed=1)
        space = overlap_space(configs, None, overlap_map("id"))
        assert space.sim.min() >= 0.0
        assert space.sim.max() <= 1.0
        assert np.allclose(np.diag(space.sim), 1.0)

    def test_duplicates_merge_mass(self):
        configs = np.array([[1, 1], [1, 1], [1, -1], [-1, 1]], dtype=np.int8)
        space = overlap_space(configs, None, overlap_map("abs"))
        assert space.n == 3
        assert space.weights.max() == pytest.approx(0.5, abs=1e-15)

    def test_degenerate(self):
        configs = np.array([[1, 1], [1, 1]], dtype=np.int8)
        with pytest.raises(DegenerateSample):
            overlap_space(configs, None, overlap_map("abs"))

    def test_weights_from_gibbs(self):
        model = sk_couplings(5, beta=0.4, seed=8)
        configs, probs = gibbs_exact(model)
        space = overlap_space(configs, probs, overlap_map("id"))
        assert space.n == 32
        assert space.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_high_temperature_low_defect(self):
        model = sk_couplings(12, beta=0.0, seed=3)
        samples = gibbs_mcmc(model, steps=60_000, burn_in=10_000, thin=100,
                             seed=4)
        assert len(samples) == 500
        space = overlap_space(samples, None, overlap_map("id"))
        assert hyp_exact(space) < 0.15


class TestPureStates:
    def test_planted_split_recovered(self):
        mapping = overlap_map("abs")
        hits = 0
        for seed in range(10):
            configs, labels = planted_two_cluster(48, 16, seed)
            space = overlap_space(configs, None, mapping)
            by_name = {
                "".join("+" if v > 0 else "-" for v in c): l
                for c, l in zip(configs, labels)
            }
            report = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4,
                                     seed=seed, delta0=0.12)
            level1 = report.build.levels[1]
            if (len(level1) == 2 and all(
                    len({by_name[p] for p in cl}) == 1 for cl in level1)):
                hits += 1
        assert hits >= 9

    def test_each_state_and_its_sign_flip_form_one_cluster(self):
        # under abs a state and its sign flip share one row whose diagonal
        # is its maximum, so the build on the twin quotient keeps the two
        # together until they split at the last level
        mapping = overlap_map("abs")
        space = overlap_space(*gibbs_exact(sk_couplings(6, 1.0, 0)), mapping)
        report = pure_state_tree(space, mapping, epsilon=1e-5, m=4, seed=0,
                                 delta0=0.1)
        levels = report.build.levels
        assert [len(row) for row in levels] == [1, 32, 64]
        assert report.build.excluded_points == ()
        flip = str.maketrans("+-", "-+")
        assert all(b == a.translate(flip) for a, b in levels[1])
        assert sorted(p for c in levels[1] for p in c) == sorted(space.points)
        assert sorted(levels[2]) == sorted((p,) for p in space.points)

    def test_within_cluster_value_deeper_than_root(self):
        mapping = overlap_map("abs")
        configs, labels = planted_two_cluster(48, 16, seed=0)
        space = overlap_space(configs, None, mapping)
        report = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4,
                                 seed=0, delta0=0.12)
        assert report.level_values[0] == mapping.rho_inverse(0.0)
        assert report.level_values[1] > report.level_values[0]
        # one-spin flips of a 48-spin center overlap at exactly 44/48
        assert report.level_values[1] == pytest.approx(44.0 / 48.0, abs=0.02)

    def test_single_level_constant_overlap(self):
        # pairwise-orthogonal configurations: every off-diagonal overlap is
        # zero, so the identity map gives a constant similarity of one half
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                      [1, -1, -1, 1]], dtype=np.int8)
        configs = h
        mapping = overlap_map("id")
        space = overlap_space(configs, None, mapping)
        assert np.all(space.sim[~np.eye(4, dtype=bool)] == 0.5)
        report = pure_state_tree(space, mapping, epsilon=1e-12, m=16, seed=0)
        kappa = report.build.kappa
        delta0 = report.build.delta0
        assert abs(report.level_values[1] - 0.0) <= kappa + delta0

    def test_defect_equals_hyp_bit_exact(self):
        mapping = overlap_map("abs")
        configs, _ = planted_two_cluster(32, 12, seed=2)
        space = overlap_space(configs, None, mapping)
        report = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4,
                                 seed=2, delta0=0.12)
        assert report.overlap_defect == hyp_exact(space)

    def test_values_indexed_by_depth(self):
        mapping = overlap_map("abs")
        configs, _ = planted_two_cluster(48, 16, seed=3)
        space = overlap_space(configs, None, mapping)
        report = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4,
                                 seed=3, delta0=0.12)
        assert len(report.level_values) == report.build.tree.depth() + 1

    def test_out_of_range_depth_is_clamped(self):
        # alpha * 2 leaves rho's range here, so depth 2 takes rho^{-1}(1)
        mapping = overlap_map("abs")
        configs, _ = planted_two_cluster(48, 16, seed=1)
        space = overlap_space(configs, None, mapping)
        report = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4,
                                 seed=1, delta0=0.12)
        assert report.clamped_levels == (2,)
        assert report.level_values[2] == 1.0

    def test_pipeline_deterministic(self):
        mapping = overlap_map("abs")
        configs, _ = planted_two_cluster(40, 14, seed=9)
        space = overlap_space(configs, None, mapping)
        a = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4, seed=1,
                            delta0=0.12)
        b = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4, seed=1,
                            delta0=0.12)
        assert a.build.tree == b.build.tree
        assert a.level_values == b.level_values
        assert a.mean_error == b.mean_error


def entrywise(fn, values):
    """Reference: fn applied entry by entry through np.vectorize."""
    return np.vectorize(fn, otypes=[float])(values)


def spins_of(space):
    return np.array([[1.0 if ch == "+" else -1.0 for ch in point]
                     for point in space.points])


class TestMapsPerDistinctValue:
    @pytest.mark.parametrize("name", ["id", "abs"])
    def test_matches_entrywise_on_repeats_and_signed_zeros(self, name):
        mapping = overlap_map(name)
        rng = np.random.default_rng(3)
        values = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0], size=(9, 7))
        got = spinglass._per_value(lambda u: mapping.rho(mapping.f(u)),
                                   values)
        want = entrywise(mapping.rho, entrywise(mapping.f, values))
        assert got.shape == values.shape
        assert got.tobytes() == want.tobytes()
        sims = mapping.rho(values)
        got = spinglass._per_value(
            lambda v: mapping.f(mapping.rho_inverse(v)), sims)
        want = entrywise(mapping.f, entrywise(mapping.rho_inverse, sims))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["id", "abs"])
    def test_overlap_space_and_mean_error_match_entrywise(self, name):
        mapping = overlap_map(name)
        configs, _ = planted_two_cluster(32, 12, seed=4)
        space = overlap_space(configs, None, mapping)
        spins = spins_of(space)
        ov = spins @ spins.T / spins.shape[1]
        sim = entrywise(mapping.rho, entrywise(mapping.f, ov))
        assert space.sim.tobytes() == ((sim + sim.T) / 2.0).tobytes()

        report = pure_state_tree(space, mapping, epsilon=2 ** -24, m=4,
                                 seed=4, delta0=0.12)
        f_vals = entrywise(mapping.f, entrywise(mapping.rho_inverse,
                                                space.sim))
        prod = gromov_product_matrix(report.build.tree, space.points)
        q_of_pair = np.array(report.level_values)[prod]
        p = space.weights
        assert report.mean_error \
            == float(p @ np.abs(f_vals - q_of_pair) @ p)


def overlap_space_loop(configs, weights, mapping):
    """The per-row reference: running weight sums in index order, and the
    map applied to every overlap entry."""
    arr = np.asarray(configs)
    if weights is None:
        weights = np.full(len(arr), 1.0 / len(arr))
    keys, order, mass = {}, [], []
    for k in range(len(arr)):
        key = arr[k].tobytes()
        if key in keys:
            mass[keys[key]] += float(weights[k])
        else:
            keys[key] = len(order)
            order.append(k)
            mass.append(float(weights[k]))
    distinct = arr[order].astype(float)
    sim = entrywise(mapping.rho, entrywise(
        mapping.f, distinct @ distinct.T / arr.shape[1]))
    points = tuple("".join("+" if v > 0 else "-" for v in arr[k])
                   for k in order)
    w = np.array(mass)
    return points, w / w.sum(), (sim + sim.T) / 2.0


def sources(kind):
    """configs and weights: MCMC samples with repeats, the same with uneven
    weights, or an exact enumeration with its Gibbs weights.  Nine spins,
    so that most overlaps k / 9 are not exact binary fractions."""
    model = sk_couplings(9, beta=1.0, seed=5)
    if kind == "exact":
        return gibbs_exact(model)
    samples = gibbs_mcmc(model, steps=6000, burn_in=500, thin=5, seed=6)
    assert len(np.unique(samples, axis=0)) < len(samples)
    if kind == "mcmc":
        return samples, None
    weights = np.random.default_rng(7).random(len(samples))
    return samples, weights / weights.sum()


class TestOverlapSpaceFromCounts:
    @pytest.mark.parametrize("kind", ["mcmc", "mcmc-weighted", "exact"])
    @pytest.mark.parametrize("name", ["id", "abs"])
    def test_matches_row_loop(self, name, kind):
        mapping = overlap_map(name)
        configs, weights = sources(kind)
        space = overlap_space(configs, weights, mapping)
        points, w, sim = overlap_space_loop(configs, weights, mapping)
        assert space.points == points
        assert space.weights.tobytes() == w.tobytes()
        assert space.sim.tobytes() == sim.tobytes()

    @pytest.mark.parametrize("n_spins", [7, 8, 299, 300])
    @pytest.mark.parametrize("name", ["id", "abs"])
    def test_float32_counts_match_float64(self, name, n_spins):
        # the overlap counts summed in float32 and held as small integers
        # index the same table entries as float64 products cast to int
        mapping = overlap_map(name)
        rng = np.random.default_rng(n_spins)
        configs = 2 * rng.integers(0, 2, size=(90, n_spins)) - 1
        space = overlap_space(configs, None, mapping)
        distinct = np.array([[1.0 if c == "+" else -1.0 for c in p]
                             for p in space.points])
        table = np.array([mapping.rho(mapping.f(k / n_spins))
                          for k in range(-n_spins, n_spins + 1)])
        counts = (distinct @ distinct.T).astype(int) + n_spins
        assert space.sim.tobytes() == table[counts].tobytes()

    @pytest.mark.parametrize("n_spins, error", [
        ((1 << 24) - 1, DegenerateSample), (1 << 24, BadParams)])
    def test_spins_beyond_exact_float32_sums(self, n_spins, error):
        # one configuration: below the limit it fails for want of a second
        configs = np.broadcast_to(np.int8(1), (1, n_spins))
        with pytest.raises(error):
            overlap_space(configs, None, overlap_map("id"))

    @pytest.mark.parametrize("name", ["id", "abs"])
    def test_map_called_once_per_overlap(self, name):
        base = overlap_map(name)
        calls = []

        def counted(u):
            calls.append(u)
            return base.f(u)

        configs, weights = sources("mcmc")
        space = overlap_space(configs, weights,
                              dataclasses.replace(base, f=counted))
        assert len(calls) <= 2 * configs.shape[1] + 1
        assert space.sim.tobytes() \
            == overlap_space(configs, weights, base).sim.tobytes()

    @pytest.mark.parametrize("length", [3, 5])
    def test_weights_of_another_length(self, length):
        configs = np.array([[1, 1], [1, -1], [-1, 1], [1, 1]], dtype=np.int8)
        with pytest.raises(BadParams, match="for 4 rows"):
            overlap_space(configs, np.full(length, 1.0 / length),
                          overlap_map("abs"))

    @pytest.mark.parametrize("weights", [
        [0.0, 0.0, 0.0], [math.inf, 1.0, 1.0], [1e308] * 3,
        [math.nan, 1.0, 1.0], [math.inf, -math.inf, 1.0]])
    def test_weights_without_a_finite_positive_sum(self, weights):
        # normalizing by a sum of 0, inf (an overflow too) or NaN gave NaN
        # or zero weights
        configs = np.array([[1, 1], [1, -1], [-1, 1]], dtype=np.int8)
        with pytest.raises(BadParams, match="need a finite sum > 0"):
            overlap_space(configs, np.array(weights), overlap_map("abs"))

    @pytest.mark.parametrize("value", [0, 2, -3])
    def test_entries_other_than_plus_minus_one(self, value):
        configs = np.array([[1, 1], [1, -1], [-1, value]], dtype=np.int8)
        with pytest.raises(BadParams, match="of \\+-1 rows"):
            overlap_space(configs, None, overlap_map("id"))


def mean_error_loop(space, mapping, report):
    """The point-by-point mean error, on n x n matrices."""
    f_vals = entrywise(mapping.f, entrywise(mapping.rho_inverse, space.sim))
    prod = gromov_product_matrix(report.build.tree, space.points)
    q_of_pair = np.array(report.level_values)[prod]
    p = space.weights
    return float(p @ np.abs(f_vals - q_of_pair) @ p)


@pytest.fixture(scope="module")
def enumerated():
    """(space, report) of an exact enumeration, built once per case."""
    cache = {}

    def get(name, spins, beta, seed):
        key = (name, spins, beta, seed)
        if key not in cache:
            mapping = overlap_map(name)
            configs, probs = gibbs_exact(sk_couplings(spins, beta, seed))
            space = overlap_space(configs, probs, mapping)
            cache[key] = space, pure_state_tree(space, mapping, 5.96e-8, 4,
                                                seed=1, delta0=0.2)
        return cache[key]

    return get


class TestPureStatePricing:
    def test_exact_without_shared_groups(self, enumerated):
        # under the identity map a state and its sign flip have other rows,
        # so every group is one point
        space, report = enumerated("id", 8, 2.0, 8)
        assert report.mean_error \
            == mean_error_loop(space, overlap_map("id"), report)

    # exact abs enumerations whose builds succeed; a state and its sign
    # flip share a row and a leaf parent, so they form one group
    @pytest.mark.parametrize("case", [(9, 3.0, 0), (9, 3.0, 6), (10, 2.0, 4)])
    def test_within_rounding_on_twins(self, enumerated, case):
        space, report = enumerated("abs", *case)
        n = space.n
        assert len(set(map(bytes, space.sim))) == n // 2
        want = mean_error_loop(space, overlap_map("abs"), report)
        # Both sides form each pair's |f - q| from the same two floats, and
        # only sum the nonnegative terms p(x) p(y) |f - q| apart.  The loop
        # takes two length-n dot products: within gamma(2n) of the exact
        # sum S.  The groups round each merged weight once, then take two
        # dot products of at most n terms: gamma(2n + 2) of a sum at most
        # S + 2 sum p^2, as it prices the pairs (x, x) at their parent
        # (every |f - q| <= 2).  The correction moves them to the leaf: sum
        # p^2 times a difference of two prices, at most 4 sum p^2 in all,
        # within gamma(2n + 2) (the squares, their sums, the difference,
        # the product and the dot product); then one rounding adds the two.
        # So the two values differ by at most
        # gamma(2n + 3) (2 S + 6 sum p^2); S <= want (1 + gamma(2n)).
        collision = float((space.weights ** 2).sum())
        bound = _gamma(2 * n + 4) * (2 * want + 6 * collision)
        assert abs(report.mean_error - want) <= bound

    def test_evaluation_forms_no_n_by_n_array(self, enumerated,
                                              monkeypatch):
        space, report = enumerated("abs", 10, 2.0, 4)
        assert space.n == 1024
        monkeypatch.setattr(spinglass, "build_tree",
                            lambda *args, **kwargs: report.build)
        tracemalloc.start()
        try:
            again = pure_state_tree(space, overlap_map("abs"), 5.96e-8, 4,
                                    seed=1, delta0=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.mean_error == report.mean_error
        # one n x n float64 array is 8 MiB; a d x d one, d = n / 2 groups,
        # is a quarter of that
        assert peak < space.n ** 2 * 8
