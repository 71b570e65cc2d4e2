"""Average hyperbolicity, worst-case defect, bad-set mass and threshold ladder.

The central quantity is the expected positive part of
``min(s(X,Z), s(Y,Z)) - s(X,Y)`` over independent triples drawn from the
point weights.  Everything downstream (threshold selection, exceptional
sets) is driven by the piecewise-constant map ``t -> mass of R_t`` where
``R_t`` is the set of triples whose pair similarity drops below ``t`` while
both similarities to the third point stay at or above it.

Triple masses depend on a point only through its similarity row, so the
kernels run on the d distinct rows with merged weights (``_dedupe_points``).
The ladder evaluates the mass of R_t only at its C window candidates, one
d x d BLAS product each: O(C d^3).  ``exceptional_sets`` is N products for N
ladder thresholds: O(N d^3).  ``bad_set_profile`` computes the mass at
every distinct value in O(n^3) scatter work; it serves ``treelike ladder
--profile-csv`` and the tests, and no build calls it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimilaritySpace, validate_space
from .errors import (
    BadParams,
    Delta0TooLarge,
    NoGoodThreshold,
    ThresholdOutOfRange,
    ZeroSamples,
)

MACHINE_EPS = float(np.finfo(float).eps)


def _dedupe_points(space: SimilaritySpace
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse points with identical similarity rows, merging their weights.

    Returns the merged weights, the similarity between the distinct rows (in
    order of first occurrence) and each point's row index, so that a
    per-row result r expands to the points as ``r[inv]``.  Triple
    expectations depend on a point only through its row (including the
    diagonal), so grouping identical rows is an exact reduction.  Weight
    merging uses ``math.fsum`` so that re-splitting a point into equal-mass
    copies round-trips exactly when the weight is a power of two.
    """
    s = space.sim
    first: dict[bytes, int] = {}
    inv = np.array([first.setdefault(row.tobytes(), len(first)) for row in s],
                   dtype=int)
    if len(first) == space.n:
        return space.weights, s, inv
    keep = np.unique(inv, return_index=True)[1]
    p = space.weights
    w = np.array([math.fsum(p[inv == g]) for g in range(len(first))])
    return w, s[np.ix_(keep, keep)], inv


# Rows per tile of the triple defect: a BLOCK x n float64 tile stays in cache
# where a full n x n temporary per third point would stream through memory.
BLOCK = 64


def _defect_tiles(sim: np.ndarray, z: int, buf: np.ndarray):
    """Yield (i0, i1, tile) with tile = min(s(x,z), s(y,z)) - s(x,y) for
    rows x in [i0, i1) and columns y in [i0, n).

    The defect is symmetric in x and y, so these tiles cover the x <= y half:
    the square [i0, i1) x [i0, i1) holds each of its pairs in both orders,
    and the columns from i1 on hold pairs whose mirror no tile repeats.
    Every tile is a view of ``buf`` (BLOCK * n floats), valid until the next.
    """
    n = len(sim)
    col = sim[z]
    for i0 in range(0, n, BLOCK):
        i1 = min(i0 + BLOCK, n)
        tile = buf[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0)
        np.minimum(col[i0:i1, None], col[None, i0:], out=tile)
        tile -= sim[i0:i1, i0:]
        yield i0, i1, tile


def _defect_sum(weights: np.ndarray, sim: np.ndarray) -> float:
    p = weights
    buf = np.empty(BLOCK * len(p))
    total = 0.0
    for z in range(len(p)):
        if p[z] == 0.0:
            continue
        acc = 0.0
        for i0, i1, tile in _defect_tiles(sim, z, buf):
            np.maximum(tile, 0.0, out=tile)
            v = p[i0:i1] @ tile
            b = i1 - i0
            acc += float(v[:b] @ p[i0:i1]) + 2.0 * float(v[b:] @ p[i1:])
        total += float(p[z]) * acc
    return total


def hyp_exact(space: SimilaritySpace) -> float:
    """Expected triple defect, computed exactly.

    Takes O(n^3) time for n distinct rows, and O(BLOCK * n) working memory
    beyond the (deduplicated) similarity matrix: each third point's defect
    matrix is walked in row tiles over its x <= y half.
    """
    validate_space(space)
    w, s, _ = _dedupe_points(space)
    return _defect_sum(w, s)


def gromov_delta_worst_case(space: SimilaritySpace) -> float:
    """Maximum triple defect; an upper bound for the average."""
    validate_space(space)
    w, s, _ = _dedupe_points(space)
    buf = np.empty(BLOCK * len(w))
    best = 0.0
    for z in range(len(w)):
        for _, _, tile in _defect_tiles(s, z, buf):
            m = float(tile.max())
            if m > best:
                best = m
    return best


def hyp_monte_carlo(space: SimilaritySpace, samples: int, seed: int
                    ) -> tuple[float, float]:
    """Sample mean and standard error of the triple defect, seeded."""
    validate_space(space)
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
    """Worst-case four point defect over all base points (O(n^4)).

    Not part of the pipeline; exposed behind an explicit CLI flag only.
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    best = 0.0
    for w in range(n):
        prod = 0.5 * (d[:, w][:, None] + d[:, w][None, :] - d)
        for z in range(n):
            col = prod[:, z]
            defect = np.minimum(col[:, None], col[None, :]) - prod
            m = float(defect.max())
            if m > best:
                best = m
    return best


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
    validate_space(space)
    if not (0.0 < t <= space.bound):
        raise ThresholdOutOfRange(t, space.bound)
    w, s, _ = _dedupe_points(space)
    return _mass(w, s, t)


def bad_set_profile(space: SimilaritySpace) -> tuple[np.ndarray, np.ndarray]:
    """The full piecewise-constant profile t -> triple mass of R_t.

    Returns the distinct similarity values (sorted ascending) and the mass at
    each one.  The profile is constant on every interval between consecutive
    values, left-open and right-closed, and zero above the largest value, so
    these breakpoints describe it completely.  The masses are a cumsum of
    signed scatters, so an empty R_t may come out as a rounding residue such
    as -5.5e-16 where ``bad_set_measure`` gives 0.0.
    """
    validate_space(space)
    s = space.sim
    p = space.weights
    vals = np.unique(s)
    # The profile changes only at distinct values, so triples are compared on
    # ranks found once (the rank of a minimum is the minimum of the ranks): a
    # triple is in R_t for t in (vals[rank[x, y]], vals[ib]].  searchsorted
    # ranks, as np.unique's inverse may keep -0.0 as the zero.  The smallest
    # type holding len(vals), the largest index formed, and contiguous rows,
    # equal to the columns by symmetry, keep each pass short.
    rank = np.searchsorted(vals, s).astype(np.min_scalar_type(len(vals)))
    pp = np.outer(p, p)
    diff = np.zeros(len(vals) + 1)
    for z in range(space.n):
        if p[z] == 0.0:
            continue
        col = rank[z]
        ib = np.minimum(col[:, None], col[None, :])
        ok = rank < ib
        if not ok.any():
            continue
        w = pp[ok] * p[z]
        np.add.at(diff, rank[ok] + 1, w)
        np.add.at(diff, ib[ok] + 1, -w)
    return vals, np.cumsum(diff[:-1])


def profile_integral(ts: np.ndarray, masses: np.ndarray, upper: float = 1.0) -> float:
    """Exact integral of the profile over (0, upper]."""
    total = 0.0
    prev = 0.0
    for t, m in zip(ts, masses):
        if t <= 0.0:
            prev = 0.0
            continue
        hi = min(float(t), upper)
        if hi > prev:
            total += float(m) * (hi - prev)
            prev = hi
        if prev >= upper:
            break
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

    The mass is evaluated at the scanned candidates only, as one BLAS
    product on the d distinct rows each: C candidates cost O(C d^3) beside
    the O(d^3) average defect, and the full ``bad_set_profile`` is not
    computed.  A window whose masses are all positive is scanned in full,
    so values that fill a window make C large: a uniform random space at
    n = 256 and delta0 = 0.05 evaluates 3,295 candidates (about 6 s on one
    OpenBLAS thread) before it fails with NoGoodThreshold.
    """
    validate_space(space)
    if space.bound != 1.0:
        raise BadParams("threshold ladder requires a space rescaled to bound 1")
    return _threshold_ladder(_dedupe_points(space), epsilon, m, delta0)


def _threshold_ladder(rows: tuple[np.ndarray, np.ndarray, np.ndarray],
                      epsilon: float, m: int, delta0: float | None
                      ) -> ThresholdLadder:
    if not (epsilon > 0):
        raise BadParams(f"epsilon must be positive, got {epsilon}")
    if m < 2:
        raise BadParams(f"m must be an integer >= 2, got {m}")
    if delta0 is not None and not delta0 > 0:
        raise BadParams(f"delta0 must be positive, got {delta0}")
    w, s, _ = rows
    hyp = _defect_sum(w, s)
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

    vals = np.unique(s)
    budget = delta0 ** 4
    thresholds: list[float] = []
    profile: dict[float, float] = {}
    for i in range(1, n_levels + 1):
        lo = i * kappa - delta0
        hi = min(i * kappa + delta0, 1.0)
        cands = {lo, hi}
        inside = vals[(vals > lo) & (vals < hi)]
        cands.update(float(v) for v in inside)
        best_t = None
        best_mass = math.inf
        for t in sorted(cands):
            mass = _mass(w, s, t)
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
    validate_space(space)
    return _exceptional_sets(space.weights, _dedupe_points(space), ladder)


def _gamma(k: int) -> float:
    """Relative error bound of k roundings: k u / (1 - k u), u = 2^-53."""
    u = MACHINE_EPS / 2.0
    return k * u / (1.0 - k * u)


def _exceptional_sets(p: np.ndarray,
                      rows: tuple[np.ndarray, np.ndarray, np.ndarray],
                      ladder: ThresholdLadder) -> ExceptionalSets:
    w, s, inv = rows
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
    a_indices = tuple(int(z) for z in np.nonzero(
        b[inv] > d0 * (1.0 + _gamma(d + 2)))[0])
    a_mass = float(p[list(a_indices)].sum()) if a_indices else 0.0
    return ExceptionalSets(
        n1_measure=n1[np.ix_(inv, inv)],
        b_measure=b[inv],
        a_indices=a_indices,
        a_mass=a_mass,
        r2_measure=(w @ n1)[inv],
    )
