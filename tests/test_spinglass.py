import math
from collections import Counter

import numpy as np
import pytest

from treelike import (
    gibbs_exact,
    gibbs_mcmc,
    hyp_exact,
    overlap,
    overlap_map,
    overlap_space,
    pure_state_tree,
    sk_couplings,
)
from treelike.errors import (
    BadSchedule,
    DegenerateSample,
    LengthMismatch,
    RhoNotInvertibleAtValue,
    SizeTooSmall,
    TooLargeForEnumeration,
)


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

    def test_clamp_disabled_raises(self):
        mapping = overlap_map("abs")
        configs, _ = planted_two_cluster(48, 16, seed=1)
        space = overlap_space(configs, None, mapping)
        with pytest.raises(RhoNotInvertibleAtValue):
            pure_state_tree(space, mapping, epsilon=2 ** -24, m=4, seed=1,
                            delta0=0.12, clamp=False)

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
