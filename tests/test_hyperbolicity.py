import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from treelike import (
    SimilaritySpace,
    ThresholdLadder,
    bad_set_measure,
    bad_set_profile,
    exceptional_sets,
    gromov_delta_worst_case,
    gromov_product_similarity,
    hyp_exact,
    hyp_monte_carlo,
    profile_integral,
    rescale_to_unit,
    space_from_tree,
    threshold_ladder,
)
from treelike.cli import main
from treelike.errors import Delta0TooLarge, NoGoodThreshold, \
    ThresholdOutOfRange, ZeroSamples
from treelike.hyperbolicity import BLOCK, _dedupe_points
from treelike.io import space_to_dict, write_json
from treelike.fixtures import (
    noisy_tree_fixture,
    random_fixture,
    tree_scaled_fixture,
    ultrametric_fixture,
)

KAPPA = 1e-12 ** (1 / 24)


def three_point_space():
    # s(a,b)=0, s(a,c)=s(b,c)=1, diagonal 1, uniform weights
    return SimilaritySpace(
        points=("a", "b", "c"),
        weights=np.full(3, 1.0 / 3.0),
        sim=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        bound=1.0,
    )


def constant_space(n=4, c=0.4):
    return SimilaritySpace(
        points=tuple(f"p{i}" for i in range(n)),
        weights=np.full(n, 1.0 / n),
        sim=np.full((n, n), c),
        bound=1.0,
    )


def brute_force_hyp(space):
    total = 0.0
    n = space.n
    s, p = space.sim, space.weights
    for x, y, z in itertools.product(range(n), repeat=3):
        d = min(s[x, z], s[y, z]) - s[x, y]
        if d > 0:
            total += p[x] * p[y] * p[z] * d
    return total


class TestHypExact:
    def test_constant_space_is_zero(self):
        assert hyp_exact(constant_space()) == 0.0

    def test_tree_space_is_zero(self):
        fx = tree_scaled_fixture(15, depth=3, alpha=1.0, seed=1)
        assert hyp_exact(space_from_tree(fx.tree)) == 0.0

    def test_three_point_oracle(self):
        space = three_point_space()
        # independent oracle: enumerate all 27 ordered triples
        assert brute_force_hyp(space) == pytest.approx(2.0 / 27.0, abs=1e-15)
        assert hyp_exact(space) == pytest.approx(2.0 / 27.0, abs=1e-15)

    def test_matches_brute_force_on_random(self):
        for seed in range(4):
            fx = random_fixture(6, seed=seed, weights="random")
            assert hyp_exact(fx.space) == pytest.approx(
                brute_force_hyp(fx.space), abs=1e-14)

    def test_bounded_by_worst_case(self):
        for seed in range(5):
            fx = random_fixture(8, seed=seed)
            assert hyp_exact(fx.space) <= gromov_delta_worst_case(fx.space)

    def test_lipschitz_in_similarity(self):
        rng = np.random.default_rng(0)
        fx = random_fixture(7, seed=3)
        for _ in range(10):
            bump = rng.uniform(-0.02, 0.02, size=(7, 7))
            bump = np.triu(bump) + np.triu(bump, 1).T
            sim2 = np.clip(fx.space.sim + bump, 0.0, 1.0)
            other = SimilaritySpace(fx.space.points, fx.space.weights,
                                    sim2, 1.0)
            gap = abs(hyp_exact(fx.space) - hyp_exact(other))
            assert gap <= 2.0 * np.abs(sim2 - fx.space.sim).max() + 1e-15

    def test_scaling(self):
        fx = random_fixture(6, seed=7)
        scaled = SimilaritySpace(fx.space.points, fx.space.weights,
                                 3.0 * fx.space.sim, 3.0)
        assert hyp_exact(scaled) == pytest.approx(3.0 * hyp_exact(fx.space),
                                                  rel=1e-12)

    def test_permutation_invariance(self):
        fx = random_fixture(6, seed=8, weights="random")
        perm = np.array([3, 1, 5, 0, 4, 2])
        sp = fx.space
        out = SimilaritySpace(
            points=tuple(sp.points[i] for i in perm),
            weights=sp.weights[perm],
            sim=sp.sim[np.ix_(perm, perm)],
            bound=1.0,
        )
        assert hyp_exact(out) == pytest.approx(hyp_exact(sp), abs=1e-15)
        assert gromov_delta_worst_case(out) == gromov_delta_worst_case(sp)
        assert bad_set_measure(out, 0.5) == pytest.approx(
            bad_set_measure(sp, 0.5), abs=1e-15)


class TestWorstCase:
    def test_constant_zero(self):
        assert gromov_delta_worst_case(constant_space()) == 0.0

    def test_three_point_is_one(self):
        # frozen from the 27-triple enumeration: max defect is 1
        space = three_point_space()
        s = space.sim
        worst = max(
            min(s[x, z], s[y, z]) - s[x, y]
            for x, y, z in itertools.product(range(3), repeat=3)
        )
        assert worst == 1.0
        assert gromov_delta_worst_case(space) == 1.0

    def test_four_point_zero_on_tree_metric(self):
        from treelike.hyperbolicity import gromov_delta_four_point
        from treelike.core import gromov_product_matrix
        fx = tree_scaled_fixture(8, depth=2, alpha=1.0, seed=2)
        prod = gromov_product_matrix(fx.tree, fx.space.points)
        depth = np.diag(prod)
        d = (depth[:, None] + depth[None, :] - 2 * prod).astype(float)
        assert gromov_delta_four_point(d) == 0.0

    def test_ultrametric_metric_is_zero(self):
        # planted 8-point ultrametric distance, converted via products
        fx = ultrametric_fixture(8, [1.0, 2.0, 3.0], seed=5)
        sim = fx.space.sim
        d = 3.0 - sim  # decreasing transform of an ultrametric similarity
        np.fill_diagonal(d, 0.0)
        space = gromov_product_similarity(d, base=0)
        s = space.sim
        worst = max(
            min(s[x, z], s[y, z]) - s[x, y]
            for x, y, z in itertools.product(range(8), repeat=3)
        )
        assert worst <= 0.0
        assert gromov_delta_worst_case(space) == 0.0


def tile_edge_space(n, seed):
    """Random weights with some zeros, similarities with many ties, and a
    diagonal below some off-diagonal entries, so x = y triples carry
    positive defect."""
    rng = np.random.default_rng(seed)
    raw = np.where(rng.random((n, n)) < 0.5,
                   rng.integers(0, 9, size=(n, n)) / 8.0,
                   rng.uniform(0.0, 1.0, size=(n, n)))
    sim = np.triu(raw) + np.triu(raw, 1).T
    np.fill_diagonal(sim, rng.uniform(0.0, 0.6, size=n))
    w = rng.random(n)
    w[rng.random(n) < 0.2] = 0.0
    return SimilaritySpace(points=tuple(f"p{i}" for i in range(n)),
                           weights=w / w.sum(), sim=sim, bound=1.0)


def defect_slabs(space):
    """Per third point z, the n x n array of min(s(x,z), s(y,z)) - s(x,y)
    over all ordered pairs, one entry per triple."""
    s = space.sim
    for z in range(space.n):
        yield z, np.minimum(s[:, z][:, None], s[:, z][None, :]) - s


def fsum_hyp(space):
    """Correctly rounded sum over all ordered triples of the rounded terms
    p(x) p(y) p(z) max(d, 0)."""
    p = space.weights
    pp = p[:, None] * p[None, :]
    return math.fsum(itertools.chain.from_iterable(
        (pp * p[z] * np.maximum(d, 0.0)).ravel().tolist()
        for z, d in defect_slabs(space)))


def blocked_sum_tolerance(n, oracle):
    """Error bound of hyp_exact's blocked sum against fsum_hyp.

    Each nonnegative term passes through at most k roundings in the kernel:
    the product with p(x) and the sum over <= BLOCK tile rows, the product
    with p(y) and the sum over < n columns, the addition of the diagonal
    block's dot, <= ceil(n / BLOCK) tile additions, the product with p(z)
    and < n additions over z.  The computed defect d is the same float in
    both, so the kernel is within gamma_k and the oracle (three products,
    then one rounding) within gamma_4 of the exact sum; together that is
    within gamma_(k+5) of the oracle, gamma_j = j u / (1 - j u).
    """
    u = 2.0 ** -53
    k = BLOCK + 2 * n + -(-n // BLOCK) + 2 + 5
    return k * u / (1.0 - k * u) * oracle


class TestDefectTiles:
    """hyp_exact and gromov_delta_worst_case walk each third point's defect
    matrix in BLOCK-row tiles over the x <= y half; sizes straddle the block
    boundary."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_hyp_matches_fsum_oracle(self, n):
        space = tile_edge_space(n, seed=n)
        assert (space.weights == 0.0).any()
        assert any(space.sim[x, x] < space.sim[x].max() for x in range(n))
        oracle = fsum_hyp(space)
        assert oracle > 0.0
        assert abs(hyp_exact(space) - oracle) <= \
            blocked_sum_tolerance(n, oracle)

    def test_hyp_permutation_invariance(self):
        n = 2 * BLOCK + 1
        space = tile_edge_space(n, seed=11)
        perm = np.random.default_rng(12).permutation(n)
        oracle = fsum_hyp(space)
        tol = blocked_sum_tolerance(n, oracle)
        other = SimilaritySpace(points=tuple(space.points[i] for i in perm),
                                weights=space.weights[perm],
                                sim=space.sim[np.ix_(perm, perm)], bound=1.0)
        a, b = hyp_exact(space), hyp_exact(other)
        assert abs(a - oracle) <= tol and abs(b - oracle) <= tol
        assert abs(a - b) <= 2.0 * tol

    def test_hyp_exact_zero_on_tree_like_spaces(self):
        n = 2 * BLOCK + 2
        ultra = ultrametric_fixture(n, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                                    seed=2, weights="random").space
        tree = space_from_tree(tree_scaled_fixture(
            n, depth=4, alpha=0.2, seed=3, weights="random").tree)
        for space in (ultra, tree):
            assert len(_dedupe_points(space)[0]) > BLOCK
            assert hyp_exact(space) == 0.0
            assert gromov_delta_worst_case(space) == 0.0

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1])
    def test_worst_case_matches_brute_force(self, n):
        space = tile_edge_space(n, seed=n)
        worst = max(float(d.max()) for _, d in defect_slabs(space))
        assert gromov_delta_worst_case(space) == worst
        # plant the only pair of defect 1, at the last row of the first tile
        # and the last column, with a third point of weight 0: every other
        # similarity is below 1, so that point must still be counted
        sim = 0.875 * space.sim
        x, y, z = min(BLOCK, n - 1) - 1, n - 1, 1
        sim[x, y] = sim[y, x] = 0.0
        sim[[x, y], z] = sim[z, [x, y]] = 1.0
        w = space.weights.copy()
        w[z] = 0.0
        planted = dataclasses.replace(space, weights=w / w.sum(), sim=sim)
        assert max(float(d.max()) for _, d in defect_slabs(planted)) == 1.0
        assert gromov_delta_worst_case(planted) == 1.0

    def test_delta_command_matches_brute_force(self, tmp_path, capsys):
        space = tile_edge_space(BLOCK + 1, seed=5)
        path = tmp_path / "space.json"
        write_json(path, space_to_dict(space))
        assert main(["delta", "--space", str(path), "--format", "json"]) == 0
        worst = max(float(d.max()) for _, d in defect_slabs(space))
        assert json.loads(capsys.readouterr().out)["delta"] == worst


class TestMonteCarlo:
    def test_constant_space(self):
        est, se = hyp_monte_carlo(constant_space(), 1000, seed=1)
        assert est == 0.0 and se == 0.0

    def test_deterministic_per_seed(self):
        fx = random_fixture(9, seed=2)
        a = hyp_monte_carlo(fx.space, 5000, seed=42)
        b = hyp_monte_carlo(fx.space, 5000, seed=42)
        assert a == b

    def test_within_four_stderr(self):
        fx = random_fixture(5, seed=6, weights="random")
        exact = hyp_exact(fx.space)
        est, se = hyp_monte_carlo(fx.space, 200_000, seed=3)
        assert abs(est - exact) <= 4.0 * se

    def test_zero_samples(self):
        with pytest.raises(ZeroSamples):
            hyp_monte_carlo(constant_space(), 0, seed=0)


class TestBadSet:
    def test_all_zero_similarity(self):
        sp = constant_space(c=0.0)
        for t in (0.1, 0.5, 1.0):
            assert bad_set_measure(sp, t) == 0.0

    def test_three_point_at_half(self):
        assert bad_set_measure(three_point_space(), 0.5) == pytest.approx(
            2.0 / 27.0, abs=1e-15)

    def test_above_max_entry(self):
        fx = random_fixture(6, seed=1, bound=2.0)
        t = fx.space.sim.max() + 1e-9
        assert bad_set_measure(fx.space, t) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ThresholdOutOfRange):
            bad_set_measure(three_point_space(), 0.0)
        with pytest.raises(ThresholdOutOfRange):
            bad_set_measure(three_point_space(), 1.5)

    def test_profile_matches_pointwise(self):
        fx = random_fixture(7, seed=9, weights="random")
        ts, masses = bad_set_profile(fx.space)
        for t, m in zip(ts, masses):
            if t > 0:
                assert bad_set_measure(fx.space, float(t)) == pytest.approx(
                    float(m), abs=1e-14)

    def test_integral_identity(self):
        for seed in range(5):
            fx = random_fixture(9, seed=seed, weights="random")
            ts, masses = bad_set_profile(fx.space)
            assert profile_integral(ts, masses) == pytest.approx(
                hyp_exact(fx.space), abs=1e-10)


class TestThresholdLadder:
    def test_kappa_arithmetic(self):
        # epsilon = 2^-24, m = 16: kappa = max(1/2, 1/4) = 1/2, N = 1
        sp = constant_space(c=0.0)
        ladder = threshold_ladder(sp, 2.0 ** -24, 16)
        assert ladder.kappa == 0.5
        assert ladder.n_levels == 1

    def test_zero_similarity_picks_window_minimum(self):
        sp = constant_space(n=6, c=0.0)
        ladder = threshold_ladder(sp, 1e-12, 16)
        for i, t in enumerate(ladder.thresholds, start=1):
            assert t == i * ladder.kappa - ladder.delta0
            assert ladder.profile[t] == 0.0

    def test_two_level_ultrametric_profile_is_zero(self):
        # an exact nested structure has zero defect, so the profile must be
        # identically zero (its integral is the average defect)
        fx = ultrametric_fixture(12, [0.3, 0.6], seed=3)
        ts, masses = bad_set_profile(fx.space)
        assert masses.max() == 0.0
        for t in (0.15, 0.3, 0.45, 0.6, 0.8):
            assert bad_set_measure(fx.space, t) == 0.0

    def test_two_level_bridge_profile_closed_form(self):
        # two clusters at similarity levels 0.3 / 0.6 plus one bridge point
        # tied to both: the profile equals the bridge triple mass exactly on
        # (0.3, 0.6] and vanishes elsewhere
        n, half = 10, 5
        sim = np.full((n, n), 0.3)
        sim[:half, :half] = 0.6
        sim[half:, half:] = 0.6
        bridge = n - 1
        sim[bridge, :] = 0.6
        sim[:, bridge] = 0.6
        np.fill_diagonal(sim, 0.6)
        p = np.full(n, 1.0 / n)
        sp = SimilaritySpace(tuple(f"p{i}" for i in range(n)), p, sim, 1.0)

        def brute(t):
            total = 0.0
            for x, y, z in itertools.product(range(n), repeat=3):
                if sim[x, y] < t <= min(sim[x, z], sim[y, z]):
                    total += p[x] * p[y] * p[z]
            return total

        mass_a = half / n
        mass_b = (n - half - 1) / n
        closed_form = 2.0 * mass_a * mass_b * (1.0 / n)
        for t in (0.2, 0.3, 0.45, 0.6, 0.9):
            got = bad_set_measure(sp, t)
            assert got == pytest.approx(brute(t), abs=1e-14)
            if 0.3 < t <= 0.6:
                assert got == pytest.approx(closed_form, abs=1e-14)
            else:
                assert got == 0.0

    def test_thresholds_within_windows_and_budget(self):
        # the measured window width is the eighth root of the defect, so the
        # no-override path needs a nearly exact hierarchy
        fx = noisy_tree_fixture(20, depth=2, alpha=0.31622776601683794,
                                noise=1e-8, seed=4)
        ladder = threshold_ladder(fx.space, 1e-12, 16)
        for i, t in enumerate(ladder.thresholds, start=1):
            assert abs(t - i * ladder.kappa) <= ladder.delta0 + 1e-15
            assert bad_set_measure(fx.space, t) < ladder.delta0 ** 4

    def test_delta0_too_large(self):
        fx = random_fixture(8, seed=2)
        with pytest.raises(Delta0TooLarge):
            threshold_ladder(fx.space, 1e-12, 16)

    def test_delta0_too_large_message_prints_a_plain_number(self):
        space = rescale_to_unit(random_fixture(65, seed=0).space)
        hyp = hyp_exact(space)
        assert type(hyp) is float
        kappa = max(1e-12 ** (1.0 / 24.0), 16 ** -0.5)
        with pytest.raises(Delta0TooLarge) as info:
            threshold_ladder(space, 1e-12, 16)
        assert str(info.value) == (
            f"delta0={hyp ** 0.125!r} is not below kappa/2={kappa / 2!r}; "
            "the space is not hyperbolic enough for this (epsilon, m)")
        assert str(info.value).startswith("delta0=0.73153699198981")
        fx = ultrametric_fixture(16, [0.3, 0.6, 0.9], seed=6)
        assert type(threshold_ladder(fx.space, 1e-12, 16).hyp) is float

    def test_no_good_threshold(self):
        # the three-point space has triple mass 2/27 at every t in (0, 1]
        with pytest.raises(NoGoodThreshold):
            threshold_ladder(three_point_space(), 2.0 ** -24, 16,
                             delta0=0.2)


class TestExceptionalSets:
    def test_zero_defect_space(self):
        fx = ultrametric_fixture(16, [0.3, 0.6, 0.9], seed=6)
        ladder = threshold_ladder(fx.space, 1e-12, 16)
        exc = exceptional_sets(fx.space, ladder)
        assert exc.a_indices == ()
        assert exc.n1_measure.max() == 0.0
        assert exc.r2_measure.max() == 0.0

    def test_small_lemmas_hold(self):
        # P(A) <= delta0, and pair mass <= 2 delta0 off A, whenever the
        # ladder succeeds
        for seed in range(3):
            fx = noisy_tree_fixture(18, depth=2, alpha=0.31622776601683794,
                                    noise=0.001, seed=seed)
            ladder = threshold_ladder(fx.space, 1e-12, 16, delta0=0.12)
            exc = exceptional_sets(fx.space, ladder)
            assert exc.a_mass <= ladder.delta0 + 1e-15
            for z in range(fx.space.n):
                if z not in exc.a_indices:
                    assert exc.r2_measure[z] <= 2.0 * ladder.delta0 + 1e-15

    def test_n1_measure_brute_force(self):
        fx = noisy_tree_fixture(10, depth=2, alpha=0.31622776601683794,
                                noise=0.002, seed=9)
        sp = fx.space
        ladder = threshold_ladder(sp, 1e-12, 16, delta0=0.1)
        exc = exceptional_sets(sp, ladder)
        s, p = sp.sim, sp.weights
        for y in range(sp.n):
            for z in range(sp.n):
                mass = sum(
                    p[x] for x in range(sp.n)
                    if any(s[x, y] < t <= min(s[x, z], s[y, z])
                           for t in ladder.thresholds)
                )
                assert exc.n1_measure[y, z] == pytest.approx(mass, abs=1e-14)


# ---------------------------------------------------------------------------
# loop references: the searchsorted profile and the per-threshold exceptional
# sets, compared bit for bit with the rank-based kernels


def profile_loop(space):
    s, p = space.sim, space.weights
    vals = np.unique(s)
    diff = np.zeros(len(vals) + 1)
    for z in range(space.n):
        if p[z] == 0.0:
            continue
        col = s[:, z]
        high = np.minimum(col[:, None], col[None, :])
        w = np.outer(p, p) * p[z]
        ia = np.searchsorted(vals, s, side="right")
        ib = np.searchsorted(vals, high, side="right") - 1
        ok = ia <= ib
        if not ok.any():
            continue
        np.add.at(diff, ia[ok], w[ok])
        np.add.at(diff, ib[ok] + 1, -w[ok])
    return vals, np.cumsum(diff[:-1])


def crossings(space, ladder):
    """Per third point z, acc[x, y] = some threshold t has
    s(x, y) < t <= min(s(x, z), s(y, z))."""
    s, n = space.sim, space.n
    lows = [s < t for t in ladder.thresholds]
    for z in range(n):
        acc = np.zeros((n, n), dtype=bool)
        col = s[:, z]
        for t, low in zip(ladder.thresholds, lows):
            ok = col >= t
            acc |= low & ok[:, None] & ok[None, :]
        yield z, acc


def exceptional_loop(space, ladder):
    p, n = space.weights, space.n
    n1 = np.zeros((n, n))
    r2 = np.zeros(n)
    for z, acc in crossings(space, ladder):
        n1[:, z] = p @ acc
        r2[z] = float(p @ acc @ p)
    b_measure = p @ (n1 > ladder.delta0)
    a_indices = tuple(int(z) for z in np.nonzero(b_measure > ladder.delta0)[0])
    a_mass = float(p[list(a_indices)].sum()) if a_indices else 0.0
    return n1, b_measure, a_indices, a_mass, r2


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def exceptional_fsum_loop(space, ladder):
    """The per-threshold loop with every sum correctly rounded: n1[y, z] is
    the fsum of p(x) over the crossing x, r2[z] the fsum over y of the
    rounded products p(y) n1[y, z]."""
    p, n = space.weights, space.n
    n1 = np.zeros((n, n))
    for z, acc in crossings(space, ladder):
        n1[:, z] = [math.fsum(p[acc[:, y]].tolist()) for y in range(n)]
    r2 = np.array([math.fsum((p * n1[:, z]).tolist()) for z in range(n)])
    return n1, r2


def gamma(k):
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


def exceptional_tolerances(n, levels, n1, r2):
    """Error bounds of exceptional_sets against exceptional_fsum_loop.

    Every term of n1[y, z] is an exact p(x) (times 1 or 0) and all are
    nonnegative.  The kernel adds them in a matrix product, a sum of at
    most n terms in any order (n - 1 roundings), then adds the N partial
    sums (N - 1 more), so it is within gamma_(n+N-2) of the exact sum; the
    oracle rounds once.  Allowing for the exact sum in terms of the oracle,
    n1 is within gamma_(n+N+1) of it.  r2 = p @ n1 rounds each product and
    adds n terms, one more gamma_n, against an oracle that rounds n1, the
    product and the sum (gamma_3): within gamma_(2n+N+4) of it.
    """
    return gamma(n + levels + 1) * n1, gamma(2 * n + levels + 4) * r2


def undecided(value, delta0, tol, margin):
    """Whether some reference value, within tol of the exact one, lies where
    the paper's strict exact > delta0 and the kernel's rule (above only past
    delta0 plus its error margin) may disagree."""
    return bool(((delta0 - tol < value) & (value <= delta0 + margin + tol))
                .any())


def assert_same_decisions(space, ladder, exc, n1, tol_n1):
    """b_measure and a_indices of exc against the paper's strict rule on
    reference n1 values within tol_n1 of the exact masses.  Returns False,
    comparing nothing, when some n1 or b lies where the kernel's margin
    leaves the decision open.  On distinct rows the kernel's b is the same
    product p @ mask and is compared bit for bit; merged rows add their
    weights first, so b is then compared within both sums' bounds."""
    n, levels, d0 = space.n, len(ladder.thresholds), ladder.delta0
    if undecided(n1, d0, tol_n1, gamma(n + levels + 2) * d0):
        return False
    p = space.weights
    b_measure = p @ (n1 > d0)
    if len(_dedupe_points(space)[0]) == n:
        tol_b = np.zeros(n)
        assert_same_array(exc.b_measure, b_measure)
    else:
        tol_b = gamma(2 * n + 1) * b_measure
        assert (np.abs(exc.b_measure - b_measure) <= tol_b).all()
    if undecided(b_measure, d0, tol_b, gamma(n + 3) * d0):
        return False
    a_indices = tuple(int(z) for z in np.nonzero(b_measure > d0)[0])
    assert exc.a_indices == a_indices
    assert exc.a_mass == (float(p[list(a_indices)].sum()) if a_indices
                          else 0.0)
    return True


def assert_matches_fsum_loop(space, ladder, exc):
    """exc against the fsum oracle within the kernel's error bounds, and its
    decisions against the paper's rule where they are decided.  Returns
    whether the decisions were compared."""
    n1, r2 = exceptional_fsum_loop(space, ladder)
    tol_n1, tol_r2 = exceptional_tolerances(space.n, len(ladder.thresholds),
                                            n1, r2)
    assert (np.abs(exc.n1_measure - n1) <= tol_n1).all()
    assert (np.abs(exc.r2_measure - r2) <= tol_r2).all()
    return assert_same_decisions(space, ladder, exc, n1, tol_n1)


def tied_space(n, seed):
    """Similarities on a quarter grid (many ties), about a quarter of the
    weights zero, and a random half of the zero entries written as -0.0."""
    rng = np.random.default_rng(seed)
    raw = np.round(rng.uniform(0.0, 1.0, size=(n, n)) * 4) / 4
    sim = np.triu(raw) + np.triu(raw, 1).T
    sim[(sim == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    w = rng.random(n)
    w[rng.random(n) < 0.25] = 0.0
    w[0] = max(w[0], 0.5)
    return SimilaritySpace(tuple(f"q{i}" for i in range(n)), w / w.sum(), sim)


def grid_space(n, seed, weights):
    """Similarities on a sixteenth grid (ties with the grid ladders) and
    random weights, random with about a quarter zero, or dyadic."""
    rng = np.random.default_rng(seed)
    raw = np.round(rng.uniform(0.0, 1.0, size=(n, n)) * 16) / 16
    sim = np.triu(raw) + np.triu(raw, 1).T
    if weights == "dyadic":
        w = random_fixture(n, seed=seed, weights="dyadic").space.weights
    else:
        w = rng.random(n) + 0.1
        if weights == "zero":
            w[rng.random(n) < 0.25] = 0.0
        w = w / w.sum()
    return SimilaritySpace(tuple(f"g{i}" for i in range(n)), w, sim)


# N = 0, 1, 3 and 12 thresholds, on grid values (ties with s) and between
GRID_LADDERS = {
    0: (),
    1: (0.5,),
    3: (0.25, 0.5, 0.75),
    12: tuple(np.linspace(1 / 16, 15 / 16, 12).tolist()),
}


def ladder_with(thresholds, delta0):
    return ThresholdLadder(epsilon=1e-12, m=16, kappa=0.25, delta0=delta0,
                           n_levels=len(thresholds), thresholds=thresholds,
                           profile={}, hyp=0.0)


def reference_spaces():
    spaces = [tied_space(n, seed) for seed, n in enumerate((9, 17, 30))]
    spaces += [random_fixture(13, seed=4, weights="random").space,
               noisy_tree_fixture(24, depth=3, alpha=0.31622776601683794,
                                  noise=0.001, seed=2, weights="random").space]
    return spaces


class TestLoopReferences:
    def test_tied_space_has_the_hard_cases(self):
        sp = tied_space(30, 2)
        zeros = sp.sim[sp.sim == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert (sp.weights == 0.0).any()

    @pytest.mark.parametrize("k", range(5))
    def test_profile_matches_searchsorted_loop(self, k):
        sp = reference_spaces()[k]
        for got, want in zip(bad_set_profile(sp), profile_loop(sp)):
            assert_same_array(got, want)

    @pytest.mark.parametrize("k", range(5))
    def test_exceptional_sets_match_per_threshold_loop(self, k):
        sp = reference_spaces()[k]
        # thresholds on grid values (ties with s) and between them
        for thresholds, delta0 in (((0.25, 0.5, 0.75), 0.05),
                                   ((0.125, 0.5, 0.875), 0.2),
                                   ((0.3,), 0.0), ((), 0.1)):
            ladder = ladder_with(thresholds, delta0)
            exc = exceptional_sets(sp, ladder)
            assert assert_matches_fsum_loop(sp, ladder, exc)

    @pytest.mark.parametrize("distinct", [255, 256])
    def test_at_the_small_integer_type_limit(self, distinct):
        # 255 and 256 distinct values (and thresholds) straddle the uint8 /
        # uint16 boundary of the rank and count types
        n = 24
        upper = np.triu_indices(n)
        sim = np.zeros((n, n))
        grid = np.arange(len(upper[0])) % distinct / (distinct - 1)
        sim[upper] = np.random.default_rng(distinct).permutation(grid)
        sim = sim + np.triu(sim, 1).T
        sp = SimilaritySpace(tuple(f"q{i}" for i in range(n)),
                             np.full(n, 1.0 / n), sim)
        assert len(np.unique(sim)) == distinct
        for got, want in zip(bad_set_profile(sp), profile_loop(sp)):
            assert_same_array(got, want)
        vals = np.unique(sim)
        ladder = ladder_with((vals[1] / 2,) + tuple(vals[1:].tolist()), 0.01)
        assert len(ladder.thresholds) == distinct
        exc = exceptional_sets(sp, ladder)
        assert assert_matches_fsum_loop(sp, ladder, exc)

    @pytest.mark.parametrize("levels", sorted(GRID_LADDERS))
    @pytest.mark.parametrize("weights", ["random", "zero"])
    @pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 1])
    def test_exceptional_sets_match_fsum_loop_beyond_a_block(self, n, weights,
                                                              levels):
        sp = grid_space(n, seed=n + levels, weights=weights)
        assert (sp.weights == 0.0).any() == (weights == "zero")
        ladder = ladder_with(GRID_LADDERS[levels], 0.05)
        exc = exceptional_sets(sp, ladder)
        assert (exc.n1_measure.max() > 0.0) == (levels > 0)
        assert assert_matches_fsum_loop(sp, ladder, exc)

    @pytest.mark.parametrize("levels", sorted(GRID_LADDERS))
    @pytest.mark.parametrize("kind", ["dyadic", "ultrametric"])
    @pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 1])
    def test_exact_sums_match_the_loop_bit_for_bit(self, n, kind, levels):
        # dyadic weights keep every partial sum exact, and an ultrametric
        # space has no crossing x, so the order of the sums cannot show
        if kind == "dyadic":
            sp = grid_space(n, seed=n + levels, weights="dyadic")
        else:
            sp = ultrametric_fixture(n, [0.25, 0.5, 0.6875, 0.9375],
                                     seed=n + levels, weights="random").space
        ladder = ladder_with(GRID_LADDERS[levels], 0.05)
        exc = exceptional_sets(sp, ladder)
        n1, b, a_indices, a_mass, r2 = exceptional_loop(sp, ladder)
        assert (n1.max() > 0.0) == (kind == "dyadic" and levels > 0)
        assert_same_array(exc.n1_measure, n1)
        assert_same_array(exc.b_measure, b)
        assert_same_array(exc.r2_measure, r2)
        assert exc.a_indices == a_indices
        assert exc.a_mass == a_mass

    def test_exceptional_sets_of_a_built_ladder(self):
        fx = noisy_tree_fixture(18, depth=2, alpha=0.31622776601683794,
                                noise=0.001, seed=1, weights="random")
        ladder = threshold_ladder(fx.space, 1e-12, 16, delta0=0.12)
        exc = exceptional_sets(fx.space, ladder)
        n1, _, a_indices, _, r2 = exceptional_loop(fx.space, ladder)
        assert_same_array(exc.n1_measure, n1)
        assert_same_array(exc.r2_measure, r2)
        assert exc.a_indices == a_indices

    def test_exceptional_sets_ignore_threshold_order(self):
        sp = tied_space(17, 1)
        ordered = ladder_with((0.125, 0.25, 0.5, 0.75), 0.05)
        want = exceptional_sets(sp, ordered)
        rng = np.random.default_rng(3)
        for _ in range(4):
            shuffled = tuple(rng.permutation(ordered.thresholds).tolist())
            ladder = dataclasses.replace(ordered, thresholds=shuffled)
            got = exceptional_sets(sp, ladder)
            assert_same_array(got.n1_measure, want.n1_measure)
            assert_same_array(got.r2_measure, want.r2_measure)
            assert got.a_indices == want.a_indices
            assert assert_matches_fsum_loop(sp, ladder, got)


# ---------------------------------------------------------------------------
# the kernels on distinct rows: candidate masses and exceptional sets against
# brute-force and per-point oracles


def duplicated_space(n, seed):
    """n points copying the rows of a smaller tied_space, so rows repeat;
    the copies get fresh weights, about a quarter of them zero, and keep the
    -0.0 entries of the rows they copy."""
    rng = np.random.default_rng(seed)
    base = tied_space(n // 2 + 1, seed)
    src = rng.integers(0, base.n, size=n)
    w = rng.random(n)
    w[rng.random(n) < 0.25] = 0.0
    w[0] = max(w[0], 0.5)
    return SimilaritySpace(tuple(f"d{i}" for i in range(n)), w / w.sum(),
                           base.sim[np.ix_(src, src)])


def fsum_bad_set_measure(space, t):
    s, p = space.sim, space.weights
    return math.fsum(
        p[x] * p[y] * p[z]
        for x, y, z in itertools.product(range(space.n), repeat=3)
        if s[x, y] < t <= min(s[x, z], s[y, z]))


def exceptional_points(space, ladder):
    """n1 and r2 as exceptional_sets computed them on every point, before
    the rows were deduplicated: N products on the n x n counts."""
    p, n = space.weights, space.n
    ts = np.sort(ladder.thresholds)
    count = np.searchsorted(ts, space.sim, side="right")
    n1 = np.zeros((n, n))
    for j in range(len(ts)):
        e = (count == j) * p[:, None]
        g = (count > j).astype(float)
        n1 += (e.T @ g) * g
    return n1, p @ n1


def window_candidates(space, ladder):
    """Per ladder window, its candidate thresholds in ascending order."""
    vals = np.unique(space.sim)
    rows = []
    for i in range(1, ladder.n_levels + 1):
        lo = i * ladder.kappa - ladder.delta0
        hi = min(i * ladder.kappa + ladder.delta0, 1.0)
        inside = vals[(vals > lo) & (vals < hi)].tolist()
        rows.append(sorted({lo, hi, *inside}))
    return rows


class TestDistinctRowKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_space_has_the_hard_cases(self, seed):
        sp = duplicated_space(14, seed)
        assert len(_dedupe_points(sp)[0]) < sp.n
        assert (sp.weights == 0.0).any()
        assert np.signbit(sp.sim[sp.sim == 0.0]).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_bad_set_measure_matches_fsum_oracle(self, seed):
        # The kernel rounds each merged weight once, sums at most d terms per
        # entry of G W G^T and then two products with w of d terms each: it
        # is within gamma(3d + 4) of the exact mass, relative, as every term
        # is nonnegative.  The oracle rounds two products per triple and the
        # fsum once, gamma(3).  A mass with no triple is exactly +0.0: the
        # ultrametric space has repeated rows and no triple in any R_t.
        ultra = ultrametric_fixture(14, [0.25, 0.5, 0.75], seed=seed,
                                    weights="random").space
        assert len(_dedupe_points(ultra)[0]) < ultra.n
        for sp in (duplicated_space(14, seed), ultra):
            for t in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0):
                want = fsum_bad_set_measure(sp, t)
                got = bad_set_measure(sp, t)
                if want == 0.0:
                    assert got == 0.0 and not np.signbit(got)
                else:
                    assert sp is not ultra
                    assert abs(got - want) <= gamma(3 * sp.n + 7) * want

    def test_ladder_masses_are_exact_zeros(self):
        # the weighted noisy n = 128 space, where the profile's signed
        # cumsum gave -5.5e-16 at candidates with no triple in R_t
        fx = noisy_tree_fixture(128, depth=3, alpha=KAPPA, noise=1e-4,
                                seed=1, weights="random")
        sp = rescale_to_unit(fx.space)
        ladder = threshold_ladder(sp, 1e-12, 16, delta0=0.05)
        s, pos = sp.sim, np.flatnonzero(sp.weights > 0.0)
        cands = window_candidates(sp, ladder)
        assert set(ladder.profile) <= {t for row in cands for t in row}
        empty = 0
        for t in (t for row in cands for t in row):
            low = (s < t)[np.ix_(pos, pos)]
            high = (s >= t)[np.ix_(pos, pos)]
            if not any((low & np.outer(col, col)).any() for col in high.T):
                empty += 1
                mass = bad_set_measure(sp, t)
                assert mass == 0.0 and not np.signbit(mass)
                assert ladder.profile.get(t, 0.0) == 0.0
        assert empty > len(ladder.thresholds)
        # each window's lower end is an exact zero, so the smallest t wins
        for i, t in enumerate(ladder.thresholds, start=1):
            assert t == i * ladder.kappa - ladder.delta0

    def test_window_scan_stops_at_its_first_zero(self):
        # a nearly exact hierarchy under the measured delta0: the windows
        # hold whole clusters of noisy values above candidates of mass 0.0,
        # and the scan evaluates none of them
        fx = noisy_tree_fixture(40, depth=3, alpha=KAPPA, noise=1e-8,
                                seed=1, weights="random")
        sp = rescale_to_unit(fx.space)
        ladder = threshold_ladder(sp, 1e-12, 16)
        skipped = 0
        for t, row in zip(ladder.thresholds, window_candidates(sp, ladder)):
            masses = [bad_set_measure(sp, c) for c in row]
            stop = masses.index(0.0)
            assert t == row[stop]
            assert all(m > 0.0 for m in masses[:stop])
            assert all(ladder.profile[c] == m
                       for c, m in zip(row[:stop + 1], masses))
            assert not set(row[stop + 1:]) & set(ladder.profile)
            skipped += len(row) - stop - 1
        assert skipped > 100

    @pytest.mark.parametrize("thresholds, delta0", [
        ((0.25, 0.5, 0.75), 0.05), ((0.125, 0.5, 0.875), 0.2), ((0.3,), 0.0),
        ((), 0.1)])
    @pytest.mark.parametrize("n, seed", [(14, 0), (40, 1), (2 * BLOCK + 3, 2)])
    def test_exceptional_sets_match_per_point_oracle(self, n, seed,
                                                     thresholds, delta0):
        # both sides are within exceptional_tolerances of the exact masses
        sp = duplicated_space(n, seed)
        assert len(_dedupe_points(sp)[0]) < n
        ladder = ladder_with(thresholds, delta0)
        exc = exceptional_sets(sp, ladder)
        n1, r2 = exceptional_points(sp, ladder)
        tol_n1, tol_r2 = exceptional_tolerances(n, len(thresholds), n1, r2)
        assert (np.abs(exc.n1_measure - n1) <= 2 * tol_n1).all()
        assert (np.abs(exc.r2_measure - r2) <= 2 * tol_r2).all()
        assert assert_same_decisions(sp, ladder, exc, n1, 2 * tol_n1)
        # points sharing a row share every result
        _, _, inv = _dedupe_points(sp)
        first = np.unique(inv, return_index=True)[1][inv]
        assert_same_array(exc.n1_measure,
                          exc.n1_measure[np.ix_(first, first)])
        assert_same_array(exc.b_measure, exc.b_measure[first])

    def test_ties_at_delta0_do_not_depend_on_point_order(self):
        # Points come in pairs whose weights add up to c = 2/48 exactly and
        # whose similarities lie on the same side of the threshold, so every
        # crossing set is a union of pairs and its mass a multiple of c.
        # With delta0 = 4c, n1 = delta0 in exact arithmetic where four pairs
        # cross, and b = delta0 where four pairs of y are above, while the
        # float sums land on either side of delta0 by the order of their
        # terms.  A strict float comparison put different points in A under
        # these permutations; the stated rule follows the exact counts.
        m, n = 24, 48
        c = 2 * (1.0 / n)
        rng = np.random.default_rng(5)
        side = rng.choice([0.25, 0.75], size=(m, m), p=[0.3, 0.7])
        side = np.triu(side) + np.triu(side, 1).T
        pair = np.arange(n) // 2
        jitter = rng.choice([0.0, 0.0625], size=(n, n))
        sim = side[np.ix_(pair, pair)] + np.triu(jitter) + np.triu(jitter, 1).T
        w1 = 1.0 / n + rng.uniform(-1.0, 1.0, m) / (8 * n)
        w = np.empty(n)
        w[0::2], w[1::2] = w1, c - w1
        assert (w[0::2] + w[1::2] == c).all()
        ladder = ladder_with((0.5,), 4 * c)
        low = (side < 0.5).astype(int)
        crossing = (low.T @ (1 - low)) * (1 - low)  # pairs x per (y, z)
        above = (crossing > 4).sum(axis=0)  # pairs y above delta0 per z
        assert (crossing == 4).any() and (above == 4).any()
        b_exact = above[pair] * c
        want = {f"t{z}" for z in np.flatnonzero(above[pair] > 4)}
        for k in range(30):
            perm = np.random.default_rng(100 + k).permutation(n)
            sp = SimilaritySpace(tuple(f"t{i}" for i in perm), w[perm],
                                 sim[np.ix_(perm, perm)])
            assert len(_dedupe_points(sp)[0]) == n
            exc = exceptional_sets(sp, ladder)
            assert (np.abs(exc.b_measure - b_exact[perm])
                    <= gamma(n + 1) * b_exact[perm]).all()
            assert {sp.points[z] for z in exc.a_indices} == want
