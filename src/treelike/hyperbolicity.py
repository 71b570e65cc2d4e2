"""Average hyperbolicity, worst-case defect, bad-set mass and threshold ladder.

The central quantity is the expected positive part of
``min(s(X,Z), s(Y,Z)) - s(X,Y)`` over independent triples drawn from the
point weights.  Everything downstream (threshold selection, exceptional
sets) is driven by the piecewise-constant map ``t -> mass of R_t`` where
``R_t`` is the set of triples whose pair similarity drops below ``t`` while
both similarities to the third point stay at or above it.

For three distinct points at most one of the three choices of third point
gives a positive defect, the median minus the minimum of their three
similarities.  So the average defect is the sum of the triples (x, x, z)
plus twice that of p(x) p(y) p(z) (median - minimum) over x < y < z: about
d^3 / 6 cells for d rows, walked in tiles with two BLOCK x d buffers.  The
worst-case defect is the maximum over that walk, and the four-point defect
of a metric is that maximum over the Gromov products at each base point.

Triple masses depend on a point only through its similarity row, so the
kernels run on the d distinct rows with merged weights, which a space
groups once as it is made (``SimilaritySpace.distinct``).

On a space of V distinct values, the mass of R_t is constant between
consecutive values, so the average defect is also the integral of the
mass: sum_k (v_k - v_{k-1}) M(v_k), V - 1 d x d BLAS products.  One rule,
V - 1 <= min(d - 1, TABLE_PRODUCTS), picks this mass table over the walk
for ``hyp_exact`` and the ladder alike, and the ladder then reads every
candidate's mass from the table.  Elsewhere (a noisy space has V near
d^2 / 2) the ladder evaluates the mass of R_t only at its C window
candidates, one product each: O(C d^3).  ``exceptional_sets`` is N
products for N ladder thresholds: O(N d^3).  ``bad_set_profile`` computes
the mass at every distinct value with one walk on value ranks, O(d^3); it
serves ``treelike ladder --profile-csv`` and the tests, and no build calls
it."""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import SimilaritySpace, gromov_products, validate_metric
from .errors import (
    BadParams,
    Delta0TooLarge,
    NoGoodThreshold,
    ThresholdOutOfRange,
    ZeroSamples,
)

MACHINE_EPS = float(np.finfo(float).eps)


# Rows per tile of the defect walks, for a d-point space: a tile of at most
# BLOCK x d float64 cells stays in cache where a whole d x d temporary per
# point would stream through memory.
BLOCK = 64

# The average defect is read from a table of V - 1 bad-set masses, one d x d
# product each, instead of the walk of about d^3 / 6 cells, where
# V - 1 <= min(d - 1, TABLE_PRODUCTS) for d distinct rows and V distinct
# values.  Measured on one OpenBLAS thread (2-core host), the table took
# 0.1-0.3 of the walk's time at V - 1 = 3 for d from 12 to 512, and
# 0.59-0.70 at V - 1 = 8; the walk won from about V - 1 = 3 at d = 3, 6 at
# d = 6, 14 at d = 12, 17 at d = 32 to 128 and 10 at d = 512.  On the
# 12-spin ``abs`` space (d = 2048, V - 1 = 6) the ladder, its defect
# included, took 1.1-1.2 s with the table against 5.5-6.5 s with the walk.
TABLE_PRODUCTS = 8


def _tiles(sim: np.ndarray, p: np.ndarray | None = None):
    """Yield (y, i0, i1, low, high), the ends of the triples (x, y, z) for
    rows x in [i0, i1) and columns z > y, or of (x, x, z) when y = -1.

    (x, x, z) has ends min(s(x,x), s(x,z)) and s(x,z); no (x, y, x) or
    (x, y, y) lies in any R_t.  Each set of three distinct points comes once,
    as x < y < z in the rectangle of its middle point.  With a = s(x,y),
    b = s(y,z), c = s(x,z), the ends min(a, b) and min(max(a, b), c) are the
    minimum and the median, in some order: the set's two ordered triples on
    its least pair lie in R_t for t in (minimum, median], and |high - low|
    is its largest defect as the same float.  Tiles hold BLOCK rows, or at
    most BLOCK * d cells of a rectangle; middle rows of weight 0 in ``p``
    are skipped.  The ends are views of two BLOCK * d buffers (``high`` of
    ``sim`` when y = -1), valid until the next tile.
    """
    d = len(sim)
    lo, hi = np.empty(BLOCK * d, sim.dtype), np.empty(BLOCK * d, sim.dtype)
    for i0 in range(0, d, BLOCK):
        i1 = min(i0 + BLOCK, d)
        low = lo[:(i1 - i0) * d].reshape(i1 - i0, d)
        np.minimum(sim[i0:i1], sim.diagonal()[i0:i1, None], out=low)
        yield -1, i0, i1, low, sim[i0:i1]
    for y in range(1, d - 1):
        if p is not None and p[y] == 0.0:
            continue
        w = d - 1 - y
        u = sim[y]
        b = u[None, y + 1:]
        rows = BLOCK * d // w
        for i0 in range(0, y, rows):
            i1 = min(i0 + rows, y)
            k = (i1 - i0) * w
            low = lo[:k].reshape(i1 - i0, w)
            high = hi[:k].reshape(i1 - i0, w)
            # numpy's min and max run slowly on an operand that is constant
            # along rows, so the column u[i0:i1] is first written out
            high[...] = u[i0:i1, None]
            np.minimum(high, b, out=low)
            np.maximum(high, b, out=high)
            np.minimum(high, sim[i0:i1, y + 1:], out=high)
            yield y, i0, i1, low, high


def _gaps(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """|high - low|, each triple's largest defect, written over ``low``."""
    np.subtract(high, low, out=low)
    return np.abs(low, out=low)


def _defect_sum(p: np.ndarray, sim: np.ndarray) -> float:
    """The sum over ordered triples of p(x) p(y) p(z) times the positive
    part of the defect: the (x, x, z) terms once, plus twice the sum over
    x < y < z of p(x) p(y) p(z) (median - minimum), since each set of three
    distinct points is two ordered triples with a positive defect."""
    pairs, acc = 0.0, np.zeros(len(p))
    for y, i0, i1, low, high in _tiles(sim, p):
        gap = _gaps(low, high)
        if y < 0:
            pairs += float((p[i0:i1] * p[i0:i1]) @ (gap @ p))
        else:
            acc[y] += float(p[i0:i1] @ gap @ p[y + 1:])
    # each y's tiles are summed, then weighted and added in order of y
    triples = float(np.add.accumulate(p * acc)[-1])
    return pairs + 2.0 * triples


def _mass_table(w: np.ndarray, s: np.ndarray, vals: np.ndarray):
    """The average defect on distinct rows with weights w, read from the
    table of bad-set masses at ``vals``, the distinct values of s in
    ascending order, and the mass of R_t as a function of t read from it.

    The mass M(t) of R_t is constant on each interval (v_{k-1}, v_k]
    between consecutive values, where ``_mass`` forms the same matrices as
    at v_k, so M(t) is the table's entry at the first value >= t, bit for
    bit; it is exactly 0.0 at or below the least value and above the
    largest.  So the defect, the integral of M over t > 0, is exactly
    sum_k (v_k - v_{k-1}) M(v_k), k >= 2: V - 1 products, summed by
    ``math.fsum``.
    """
    v = vals.tolist()
    table = [0.0] + [_mass(w, s, t) for t in v[1:]] + [0.0]
    return math.fsum((b - a) * m for a, b, m in zip(v, v[1:], table[1:])), \
        lambda t: table[bisect.bisect_left(v, t)]


def _defect(w: np.ndarray, s: np.ndarray, vals: np.ndarray | None = None):
    """The average defect on distinct rows with weights w and similarity
    s, and the mass of R_t as a function of t, by one rule: on V distinct
    values on d rows with V - 1 <= min(d - 1, TABLE_PRODUCTS), both are
    read from the mass table (``_mass_table``); otherwise the defect is
    walked and each mass is one product (``_mass``).  ``vals``, the
    distinct values of s in ascending order, is sorted here where it is
    not given, unless the first row alone shows a noisy space that its
    values are too many, so the walk pays for no sort of all d^2 values.
    """
    limit = min(len(w) - 1, TABLE_PRODUCTS)
    if vals is None and len(np.unique(s[0])) - 1 <= limit:
        vals = np.unique(s)
    if vals is not None and len(vals) - 1 <= limit:
        return _mass_table(w, s, vals)
    return _defect_sum(w, s), functools.partial(_mass, w, s)


def hyp_exact(space: SimilaritySpace) -> float:
    """Expected triple defect, computed exactly on the d distinct rows.

    On a space of V distinct values with V - 1 <= min(d - 1,
    TABLE_PRODUCTS) it is the integral of the bad-set mass, read from V - 1
    mass products (``_mass_table``); otherwise the walk takes each set of
    three distinct rows once, as median - minimum, plus the d^2 triples
    (x, x, z), about d^3 / 6 cells, with two BLOCK x d tile buffers and
    O(d) vectors beyond the rows.  ``_defect`` applies the rule.  The two
    kernels differ by rounding: on the 10-spin ``abs`` overlap space of
    ``sk_couplings(10, 3.0, 3)`` (d = 512, V = 6) the walk gives
    0.027276334753638116 and the table 0.027276334753638092.
    """
    w, s, _ = space.distinct
    return _defect(w, s)[0]


def _defect_max(sim: np.ndarray) -> float:
    """The largest defect of an ordered triple, or 0.0, bit for bit: the
    maximum of the tiles that ``_defect_sum`` sums, each cell the largest
    defect of its triples; every middle point is visited, weight 0 too."""
    return max([0.0] + [float(_gaps(low, high).max())
                        for *_, low, high in _tiles(sim)])


def gromov_delta_worst_case(space: SimilaritySpace) -> float:
    """Maximum triple defect, an upper bound for the average: d^3 / 6 cells."""
    return _defect_max(space.distinct[1])


def hyp_monte_carlo(space: SimilaritySpace, samples: int, seed: int
                    ) -> tuple[float, float]:
    """Sample mean and standard error of the triple defect, seeded."""
    if samples < 1:
        raise ZeroSamples(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(space.n, size=(3, samples), p=space.weights)
    x, y, z = idx
    s = space.sim
    defect = np.minimum(s[x, z], s[y, z]) - s[x, y]
    np.clip(defect, 0.0, None, out=defect)
    est = float(defect.mean())
    if samples == 1:
        return est, 0.0
    stderr = float(defect.std(ddof=1) / math.sqrt(samples))
    return est, stderr


def gromov_delta_four_point(dist: np.ndarray) -> float:
    """Worst-case four-point defect of a metric over all base points.

    The defect at base w is the worst-case defect of the Gromov products at
    w, so the metric is checked once, as ``gromov_product_similarity`` does,
    and the walk runs on the products at each base: O(n^4), about n^4 / 6
    cells, one n x n product matrix at a time.  Not part of the pipeline.
    """
    d = validate_metric(dist)
    return max((_defect_max(gromov_products(d, w)) for w in range(len(d))),
               default=0.0)


# ---------------------------------------------------------------------------
# bad set of thresholds


def _mass(w: np.ndarray, s: np.ndarray, t: float) -> float:
    """Triple mass of R_t on distinct rows with weights w: with G = [s >= t]
    and W = diag(w), it is w^T ((G W G^T) * [s < t]) w, one d x d product.
    Every term is nonnegative, so an empty R_t gives exactly 0.0."""
    g = (s >= t).astype(float)
    pair = (g * w) @ g.T
    pair *= s < t
    return float(w @ pair @ w)


def bad_set_measure(space: SimilaritySpace, t: float) -> float:
    """Triple mass of R_t = {(x,y,z): s(x,y) < t <= min(s(x,z), s(y,z))}.

    One d x d BLAS product on the d distinct rows; exactly 0.0 when R_t
    holds no triple of positive mass.
    """
    if not (0.0 < t <= space.bound):
        raise ThresholdOutOfRange(t, space.bound)
    return _mass(*space.distinct[:2], t)


def _rank_batches(rank: np.ndarray, p: np.ndarray, v: int):
    """Yield (ends, terms) for the walk on ranks below v with row weights
    p: each triple's minimum rank and v plus its median rank, and its weight
    for each, p(x)^2 p(z) for (x, x, z) and 2 p(x) p(y) p(z) for a set.
    A batch but the last joins tiles of at least v cells, so that counting
    it into 2v bins costs no more than forming it, even for v ~ d^2 / 2."""
    batch, cells = [], 0
    for y, i0, i1, low, high in _tiles(rank):
        terms = np.multiply.outer(
            p[i0:i1] * (p[i0:i1] if y < 0 else 2.0 * p[y]), p[y + 1:]).ravel()
        batch += [(np.minimum(low, high, dtype=np.intp).ravel(), terms),
                  (np.maximum(low, high, dtype=np.intp).ravel() + v, terms)]
        cells += terms.size
        if cells >= v:
            yield [np.concatenate(a) for a in zip(*batch)]
            batch, cells = [], 0
    if batch:
        yield [np.concatenate(a) for a in zip(*batch)]


def bad_set_profile(space: SimilaritySpace) -> tuple[np.ndarray, np.ndarray]:
    """The full piecewise-constant profile t -> triple mass of R_t.

    Returns the distinct similarity values (sorted ascending, a zero
    unsigned) and the mass at each one.  The profile is constant on every
    interval between consecutive values, left-open and right-closed, and
    zero above the largest value, so these breakpoints describe it
    completely.

    The walk of ``hyp_exact`` runs on the value ranks of the distinct rows
    of positive weight, about d^3 / 6 cells: a triple's weight enters the
    mass past its minimum and leaves it past its median.  The triples that
    hold each interval are counted as integers, so an empty R_t gives
    exactly 0.0, as ``bad_set_measure`` does.
    """
    w, s, _ = space.distinct
    vals = np.unique(s + 0.0)
    v = len(vals)
    keep = w > 0.0
    # the rank of a minimum is the minimum of the ranks; the smallest type
    # holding every rank, and contiguous rows, keep each pass short
    rank = np.searchsorted(vals, s[np.ix_(keep, keep)]).astype(
        np.min_scalar_type(v - 1))
    # [:v] the weight and the number of triples whose interval starts past
    # each rank, [v:] of those whose interval ends past it
    flow, count = np.zeros(2 * v), np.zeros(2 * v, dtype=np.int64)
    for ends, terms in _rank_batches(rank, w[keep], v):
        flow += np.bincount(ends, terms, 2 * v)
        count += np.bincount(ends, minlength=2 * v)
    live = np.cumsum(count[:v] - count[v:])
    mass = np.where(live > 0, np.cumsum(flow[:v] - flow[v:]), 0.0)
    return vals, np.concatenate(([0.0], mass[:-1]))


def profile_integral(ts: np.ndarray, masses: np.ndarray) -> float:
    """Exact integral of the profile over t > 0.

    ``masses[i]`` is the mass on (ts[i - 1], ts[i]] for ascending ``ts``, as
    ``bad_set_profile`` gives them; the bad set is empty above the largest
    value, so the integral ends there, whatever the space's bound.
    """
    total = prev = 0.0
    for t, m in zip(map(float, ts), map(float, masses)):
        if t > prev:
            total += m * (t - prev)
            prev = t
    return total


# ---------------------------------------------------------------------------
# threshold ladder


@dataclass(frozen=True)
class ThresholdLadder:
    """Levels t_1 < ... < t_N near multiples of kappa avoiding the bad set.

    kappa is max(epsilon^(1/24), m^(-1/2)); delta0 is the eighth root of the
    measured average hyperbolicity (floored at machine precision's eighth
    root); n_levels is the largest N with N*kappa < 1.  Each threshold sits
    in [i*kappa - delta0, i*kappa + delta0] and has triple-defect mass below
    delta0^4.  profile maps every candidate threshold the scan evaluated to
    its mass.
    """

    epsilon: float
    m: int
    kappa: float
    delta0: float
    n_levels: int
    thresholds: tuple[float, ...]
    profile: dict[float, float]
    hyp: float


def threshold_ladder(space: SimilaritySpace, epsilon: float, m: int,
                     delta0: float | None = None) -> ThresholdLadder:
    """Pick thresholds minimizing the bad-set mass inside each window.

    Candidates are the distinct similarity values inside the window plus the
    window endpoints; the mass is piecewise constant with breakpoints at
    similarity values, so this scan is exact.  Ties go to the smallest t.
    Each window is scanned upwards and stops at its first mass of exactly
    0.0, which no later candidate can beat.

    The rule of ``hyp_exact`` (``_defect``) picks how the masses are
    read.  On a space of V distinct values on d distinct rows with
    V - 1 <= min(d - 1, TABLE_PRODUCTS), the V - 1 products of the mass
    table give the defect, and every candidate, the window ends included,
    reads the entry of the first value at or above it: the same float as
    ``_mass`` there, and 0.0 above the largest value.  On
    ``build-ultrametric``'s input (d = 12, V - 1 = 3) that is 3 products
    where the walk took 10 tiles.  Elsewhere the defect is walked and each
    scanned candidate costs one BLAS product on the d distinct rows: C
    candidates cost O(C d^3).  A window whose masses are all positive is
    scanned in full, so values that fill a window make C large: a uniform
    random space at n = 256 and delta0 = 0.05 evaluates 3,295 candidates
    (about 6 s on one OpenBLAS thread) before it fails with
    NoGoodThreshold, where the full ``bad_set_profile`` takes 0.08 s.
    """
    if space.bound != 1.0:
        raise BadParams("threshold ladder requires a space rescaled to bound 1")
    if not (epsilon > 0):
        raise BadParams(f"epsilon must be positive, got {epsilon}")
    if m < 2:
        raise BadParams(f"m must be an integer >= 2, got {m}")
    if delta0 is not None and not delta0 > 0:
        raise BadParams(f"delta0 must be positive, got {delta0}")
    w, s, _ = space.distinct
    vals = np.unique(s)
    hyp, mass_at = _defect(w, s, vals)
    if delta0 is None:
        # the floor applies when the measured hyperbolicity is exactly zero;
        # without it every window constraint degenerates
        delta0 = max(hyp, MACHINE_EPS) ** 0.125
    kappa = max(epsilon ** (1.0 / 24.0), m ** (-0.5))
    if not delta0 < kappa / 2.0:
        raise Delta0TooLarge(delta0, kappa)
    n_levels = int(math.floor(1.0 / kappa))
    while n_levels * kappa >= 1.0:
        n_levels -= 1
    while (n_levels + 1) * kappa < 1.0:
        n_levels += 1

    budget = delta0 ** 4
    values = vals.tolist()
    thresholds: list[float] = []
    profile: dict[float, float] = {}
    for i in range(1, n_levels + 1):
        lo = i * kappa - delta0
        hi = min(i * kappa + delta0, 1.0)
        cands = {lo, hi}
        # the values strictly inside the window
        cands.update(values[bisect.bisect_right(values, lo):
                            bisect.bisect_left(values, hi)])
        best_t = None
        best_mass = math.inf
        for t in sorted(cands):
            mass = mass_at(t)
            profile[float(t)] = mass
            if mass < best_mass:
                best_mass = mass
                best_t = float(t)
            if mass == 0.0:
                break  # no mass is below 0.0, and ties go to the smallest t
        if best_mass >= budget:
            raise NoGoodThreshold(i, (lo, hi), best_mass)
        thresholds.append(best_t)
    return ThresholdLadder(
        epsilon=float(epsilon),
        m=int(m),
        kappa=float(kappa),
        delta0=float(delta0),
        n_levels=n_levels,
        thresholds=tuple(thresholds),
        profile=profile,
        hyp=hyp,
    )


# ---------------------------------------------------------------------------
# exceptional sets


@dataclass(frozen=True)
class ExceptionalSets:
    """Per-point masses of the threshold-crossing neighborhoods.

    n1_measure[y, z] is the mass of points x for which some ladder threshold
    separates s(x,y) from both s(x,z) and s(y,z); b_measure[z] is the mass of
    y with n1_measure[y, z] above delta0; a_indices collects the points z
    whose b_measure exceeds delta0; r2_measure[z] is the pair mass of the
    analogous two-coordinate set.
    """

    n1_measure: np.ndarray
    b_measure: np.ndarray
    a_indices: tuple[int, ...]
    a_mass: float
    r2_measure: np.ndarray


def exceptional_sets(space: SimilaritySpace, ladder: ThresholdLadder
                     ) -> ExceptionalSets:
    """Mass of the threshold-crossing neighbourhoods, as N matrix products.

    n1[y, z] = sum of p(x) over x with min(c(x,z), c(y,z)) > c(x,y), where
    c(x,y) counts the ladder thresholds t <= s(x,y): some threshold then lies
    in (s(x,y), min(s(x,z), s(y,z))].  Each x has exactly one j = c(x,y), so
    with E_j = p(x) [c(x,y) = j] and G_j = [c(x,z) > j],

        n1 = sum over j < N of (E_j^T G_j) * G_j,

    the last factor being [c(y,z) > j] because c is symmetric; and
    r2 = p @ n1.  The masses depend on a point only through its similarity
    row, so the sum runs on the d distinct rows with their merged weights
    and n1, r2 and b_measure are expanded back to the points by indexing:
    N BLAS matrix products, O(N d^3) flops, and three d x d float64 buffers
    beyond n1.  N = ladder.n_levels < 1/kappa <= sqrt(m) in a build (3
    whenever m <= 16).  Against a pass per z over an n x n mask, on one
    OpenBLAS thread and all rows distinct: at N = 3 this is about 5x faster
    at n = 512 and 14x at n = 2048; the two cost the same near N = 16, and
    at N = 32 the products take about 1.6x as long for n = 128 to 512.

    A mass counts as above delta0 only when it exceeds delta0 by more than
    the error bound of its sum, so a mass equal to delta0 in exact
    arithmetic is never above it, whatever order the sum was taken in.
    """
    w, _, inv = space.distinct
    n1, b, in_a = _exceptional_rows(space, ladder)
    a_indices = tuple(int(z) for z in np.nonzero(in_a[inv])[0])
    a_mass = float(space.weights[list(a_indices)].sum()) if a_indices else 0.0
    return ExceptionalSets(
        n1_measure=n1[np.ix_(inv, inv)],
        b_measure=b[inv],
        a_indices=a_indices,
        a_mass=a_mass,
        r2_measure=(w @ n1)[inv],
    )


def _gamma(k: int) -> float:
    """Relative error bound of k roundings: k u / (1 - k u), u = 2^-53."""
    u = MACHINE_EPS / 2.0
    return k * u / (1.0 - k * u)


def _exceptional_rows(space: SimilaritySpace, ladder: ThresholdLadder
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n1 and b on the d distinct rows, and which rows are in A."""
    w, s, _ = space.distinct
    d = len(w)
    ts = np.sort(ladder.thresholds)
    count = np.searchsorted(ts, s, side="right").astype(
        np.min_scalar_type(len(ts)))  # small and by rows, as in the profile
    n1 = np.zeros((d, d))
    e, g, prod = np.empty((d, d)), np.empty((d, d)), np.empty((d, d))
    for j in range(len(ts)):
        np.equal(count, j, out=e)
        e *= w[:, None]
        np.greater(count, j, out=g)
        np.matmul(e.T, g, out=prod)
        prod *= g
        n1 += prod
    # The paper's sets are strict: y is in B(z) when n1[y, z] > delta0, and
    # z is in A when b[z] > delta0.  Each merged weight is the fsum of its
    # points' weights, within u = 2^-53 of their exact sum.  n1[y, z] adds at
    # most d of these nonnegative terms in one product (d - 1 roundings, in
    # any order) and then the N partial sums (N - 1 more), so it is within
    # gamma(d + N - 1) of the exact mass, relative.  b[z] adds at most d
    # terms w(y), within gamma(d).  A computed mass is declared above delta0
    # only past delta0 * (1 + gamma(k + 2)) for its bound gamma(k): the two
    # roundings of that product lose at most 2u < gamma(k + 2) - gamma(k).
    # A mass equal to delta0 in exact arithmetic is thus never above it,
    # whatever order the sums were taken in.
    d0 = ladder.delta0
    b = w @ (n1 > d0 * (1.0 + _gamma(d + len(ts) + 1)))
    return n1, b, b > d0 * (1.0 + _gamma(d + 2))
