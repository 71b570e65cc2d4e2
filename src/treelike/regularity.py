"""Vertex-weighted regularity partition via spectral decomposition.

The partition of a weighted graph is built in five steps: weights are
approximated by rationals K(x)/N, the blow-up graph (K(x) copies of each
vertex) is eigen-decomposed through an n-by-n reduction, a spectral cut J
splits the spectrum into a dominant part and a controlled tail, vertices are
bucketed by their coordinates in the dominant eigenvectors, and buckets are
refined into parts of near-equal mass plus one exceptional part.

The blow-up is never materialized: copies of a vertex share all eigenvector
values, so the symmetric matrix B[x][y] = sqrt(K(x)K(y)) * adj[x][y] has the
same nonzero spectrum and everything downstream is constant on copy groups.

The partition is forced to one point per part, with an empty exceptional
part, whatever the eigenvectors are, when (a) epsilon N <= 1, so that no
point can be an outlier, and (b) every point's mass is at least
epsilon mu / (2 (1 + m*)), the chunk target at one bucket, so that every
chunk closes at one point.  Since N <= max_blowup and m* >= 1, both hold
whenever epsilon <= 1 / max_blowup and every relative weight is at least
epsilon / 4; the pipeline then skips the eigensolve, the cut and the
buckets.  A build that needs only the ``forced`` verdict skips the
denominator scan as well, where a guard proves that the scan returns (it
does not, for instance, on masses of 1e-13); see ``treebuild``.  The
pipeline settles every pair of single-point parts directly (the tester
can only call them regular) and runs the tester on the rest.
The denominator scan is thinned by the smallest weight, then its survivors
meet every weight at once.  An isolated point's value in an eigenvector of
a nonzero eigenvalue is exactly 0, so such points share a bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import WeightedGraph, _row_labels, upper_pairs
from .errors import (
    BadParams,
    BlowupTooLarge,
    EigensolveFailure,
    EmptyPart,
    HeavyAtom,
    PostconditionFailure,
    ZeroMassGraph,
)

EXHAUSTIVE_LIMIT = 12  # pair tester enumerates subsets up to this part size
RATIONALIZE_SCAN_LIMIT = 4096


@dataclass(frozen=True)
class RegularityParams:
    """Settings of the partition pipeline.

    The construction uses the growth function F(j) = 4j and replaces the
    irregular-pair count guarantee with the empirical tester; the worst-case
    atom bound, given by ``atom_bound_theory``, is not enforced.  The
    class constants are fixed for every caller.
    """

    epsilon: float
    m: int
    max_blowup: ClassVar[int] = 10 ** 12
    nu: ClassVar[float] = 1e-9
    trials: ClassVar[int] = 64

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.25):
            raise BadParams(f"epsilon must be in (0, 1/4), got {self.epsilon}")
        if int(self.m) != self.m or self.m < 2:
            raise BadParams(f"m must be an integer >= 2, got {self.m}")


def atom_bound_theory(epsilon: float, m: int) -> dict:
    """Every smallness condition on the maximum atom used by the construction.

    The third condition involves the worst-case bucket count, a tower-type
    quantity; it underflows to zero at any usable scale, which is reported
    honestly rather than replaced by a guess.
    """
    p1 = 1.0 / (2.0 * m)
    p2 = (2.0 - 3.0 * epsilon) / (m * (2.0 - epsilon))
    # log10 of the bucket-count term for F(1) dominant eigenvectors
    j1 = (8.0 * (64.0 / epsilon ** 2 + 3.0) + 16.0 * m) ** 2 / epsilon ** 6
    log10_r = j1 * math.log10(64.0 * j1 * j1 / epsilon ** 2 + 3.0) \
        if j1 < 1e15 else math.inf
    numer = math.sqrt(2.0) * epsilon * (1.0 - epsilon) - epsilon
    p3 = 0.0  # underflows: numer / (2 * 10**log10_r)
    return {
        "half_inverse_m": p1,
        "q_at_least_m": p2,
        "sigma_bound": p3,
        "sigma_bound_log10": (math.log10(max(numer, 1e-300)) - log10_r
                              if log10_r != math.inf else -math.inf),
        "value": min(p1, p2, p3),
    }


# ---------------------------------------------------------------------------
# rationalizing the weights


def _apportion(p: np.ndarray, n_total: int) -> np.ndarray | None:
    """Integer multiplicities >= 1 summing to n_total, near n_total * p.

    Largest-remainder rounding with deterministic index tie-breaks.  Returns
    None when n_total is below the point count.
    """
    n = len(p)
    if n_total < n:
        return None
    ideal = n_total * p
    base = np.maximum(1, np.floor(ideal).astype(np.int64))
    excess = int(base.sum()) - n_total
    if excess > 0:
        # shave the most over-represented entries, never below 1
        order = np.argsort(ideal - base, kind="stable")
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
        order = np.argsort(base - ideal, kind="stable")
        for k in range(-excess):
            base[order[k % n]] += 1
    return base


def rationalize_weights(weights: np.ndarray, tolerance: float
                        ) -> tuple[np.ndarray, int]:
    """Approximate probabilities by K(x)/N with a common denominator N.

    Guarantees K(x) >= 1, sum K = N <= ``RegularityParams.max_blowup`` and
    |K(x)/N - p(x)| within the tolerance, which must be positive.  Small N
    are scanned first so nice inputs get their minimal denominator.

    The weights must sum to one within n * tolerance; other weights raise
    BadParams before any N is tried.  The scan skips only N at which no
    K(x) >= 1 can meet the tolerance, so K and N equal those of a plain
    ascending scan.
    """
    p = np.asarray(weights, dtype=float)
    n = len(p)
    if n == 0 or (p < 0).any():
        raise BadParams("weights must be a nonempty nonnegative vector")
    if not tolerance > 0:
        raise BadParams("tolerance must be > 0")

    # K/N sums to one, so with u = 2^-53 an accepted K has |1 - sum p|
    # <= n * tolerance (1 + 2u) + u, and the pairwise sum adds at most
    # log2(n) u sum(p); the 1e-9 terms cover these.  A NaN sum fails too.
    total = float(p.sum())
    if not abs(total - 1.0) <= n * tolerance + 1e-9 * (1.0 + n * tolerance):
        raise BadParams(
            f"weights must sum to 1 within n * tolerance, got sum {total!r}"
        )
    # An accepted K has |K - N p| <= N tolerance (1 + 2u) + u K, from the
    # rounding of k / N and of the subtraction.  x = fl(N p) is within u N p
    # of N p, and c = max(1, rint(x)) is the integer >= 1 nearest to x, so
    # |c - x| <= |K - x| <= N tolerance (1 + 3u) + 3u max(1, x), up to terms
    # in u^2.  Rounding |c - x| and the slack adds a relative u to each side.
    # The 1e-9 factors exceed all of these by more than 10^6, and
    # x <= fl(N max p), so no N that the check accepts is dropped.
    def off(big_n, value):
        x = big_n * value
        return np.abs(np.maximum(1.0, np.rint(x)) - x)

    top = max(RATIONALIZE_SCAN_LIMIT, 4 * n)
    alive = np.arange(n, top + 1, dtype=float)
    # The slack rises with N, so its value at the last N bounds it.  Few N
    # put N min(p) near an integer >= 1; the survivors meet every weight.
    slack = top * tolerance * (1.0 + 1e-9) + 1e-9 * max(1.0, top * p.max())
    alive = alive[off(alive, p.min()) <= slack]
    alive = alive[(off(alive[:, None], p) <= slack).all(axis=1)]
    for n_total in map(int, alive.tolist()):
        k = _apportion(p, n_total)
        if k is None:
            continue
        if np.abs(k / n_total - p).max() <= tolerance:
            return k, n_total

    max_blowup = RegularityParams.max_blowup
    start = 2.0 / tolerance
    if start > max_blowup:
        # the doubling would start past the cap; a subnormal tolerance makes
        # start infinite, which has no integer ceiling
        raise BlowupTooLarge(start, max_blowup)
    n_total = max(n, math.ceil(start))
    while n_total <= max_blowup:
        k = _apportion(p, n_total)
        if k is not None and np.abs(k / n_total - p).max() <= tolerance:
            return k, n_total
        n_total *= 2
    raise BlowupTooLarge(n_total, max_blowup)


# ---------------------------------------------------------------------------
# blow-up spectrum through the n-by-n reduction


@dataclass(frozen=True)
class SpectralData:
    """Spectrum of the implicit blow-up adjacency.

    ``eigenvalues`` are sorted by decreasing magnitude (positive first on
    magnitude ties, then original index); indices past ``len(eigenvalues)``
    correspond to the blow-up padding and are identically zero.  ``vectors``
    stores per-point values v_i(x) of the reduced matrix; the blow-up
    coordinate of any copy of x is v_i(x) / sqrt(K(x)).  An isolated point's
    value is exactly 0 in every vector whose eigenvalue is nonzero.
    """

    multiplicities: np.ndarray
    blowup_size: int
    eigenvalues: np.ndarray
    vectors: np.ndarray


def weighted_adjacency_spectrum(graph: WeightedGraph, kmult: np.ndarray
                                ) -> SpectralData:
    """Eigen-decompose B[x][y] = sqrt(K(x)K(y)) where (x,y) is an edge.

    The nonzero eigenvalues equal those of the blow-up adjacency because
    copies of one vertex are never adjacent and eigenvectors with nonzero
    eigenvalue are constant on copy groups.
    """
    k = np.asarray(kmult, dtype=np.int64)
    if (k < 1).any():
        raise BadParams("multiplicities must be positive integers")
    n_total = int(k.sum())
    root = np.sqrt(k.astype(float))
    b = np.outer(root, root) * graph.adj
    try:
        lam, vec = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - lapack failure
        raise EigensolveFailure(str(exc)) from exc
    # decreasing magnitude, then positive first; lexsort is stable, so ties
    # keep index order
    order = np.lexsort((lam < 0, -np.abs(lam)))
    lam = lam[order]
    vec = vec[:, order].T.copy()  # row per eigenvalue
    # an isolated vertex has a zero row in B, so its value in an eigenvector
    # of a nonzero eigenvalue is 0; rounding noise would split its bucket
    vec[np.ix_(lam != 0, ~graph.adj.any(axis=1))] = 0.0
    # each row's first largest-magnitude entry is made positive (argmax
    # fails on the 0x0 matrix of an empty graph, which has no rows)
    if vec.size:
        lead = vec[np.arange(len(vec)), np.argmax(np.abs(vec), axis=1)]
        vec *= np.where(lead < 0, -1.0, 1.0)[:, None]
    lam.setflags(write=False)
    vec.setflags(write=False)
    # in floats: an int64 sum of K(x) K(y) wraps past 2^63
    kf = k.astype(float)
    edge_weight = float(kf @ graph.adj @ kf)
    if abs(float(np.sum(lam ** 2)) - edge_weight) > 1e-9 * max(n_total ** 2, 1):
        raise PostconditionFailure(
            "trace identity violated: sum of squared eigenvalues does not "
            "match the blow-up edge count"
        )
    return SpectralData(
        multiplicities=k,
        blowup_size=n_total,
        eigenvalues=lam,
        vectors=vec,
    )


def choose_spectral_cut(spectrum: SpectralData, params: RegularityParams
                        ) -> int:
    """First ladder rung whose spectral window has a small enough tail.

    Scans z = 1, 4, 16, ... (1-based indices, F(j) = 4j) and returns the
    first rung J whose window [J, 4J) has a sum of squared eigenvalues at
    most epsilon^5 N^2 / 128, then lowers J so that every eigenvalue before
    it is nonzero.  A window past the spectrum sums to zero, so the scan
    always stops.
    """
    lam2 = spectrum.eigenvalues ** 2
    big_n = spectrum.blowup_size
    bound = params.epsilon ** 5 * big_n * big_n / 128.0
    z = 1
    while float(lam2[z - 1:4 * z - 1].sum()) > bound:
        z *= 4
    return min(z, int(np.count_nonzero(spectrum.eigenvalues)) + 1)


@dataclass(frozen=True)
class Buckets:
    """Vertex buckets from the dominant eigenvector coordinates.

    ``exceptional`` holds the points whose blow-up coordinate is large in
    some dominant eigenvector; ``cells`` partition the rest by the tuple of
    half-open coordinate intervals.  Buckets are whole copy groups by
    construction.
    """

    exceptional: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]
    coordinate_width: float
    outlier_threshold: float


def spectral_bucket_partition(spectrum: SpectralData, cut: int, epsilon: float
                              ) -> Buckets:
    """Bucket points by their coordinates in eigenvectors before the cut.

    A point is exceptional when some coordinate magnitude exceeds
    sqrt(2J / (epsilon N)); the rest are grouped by which width
    epsilon^(3/2) / (16 sqrt(2 J^3 N)) interval each coordinate falls in,
    with interval boundaries going to the lower bucket.  Cells are keyed as
    a space keys its rows: ``core._row_labels`` numbers the points' rows of
    interval labels, so labels -0.0 and 0.0 agree, the cells come in order
    of first occurrence and each lists its points in ascending order.  An
    epsilon so small that the width is below 2 / DBL_MAX, where a label
    would not be a finite float, raises BadParams.
    """
    if cut < 1:
        raise BadParams("cut must be >= 1")
    k = spectrum.multiplicities
    big_n = spectrum.blowup_size
    threshold = math.sqrt(2.0 * cut / (epsilon * big_n))
    width = epsilon ** 1.5 / (16.0 * math.sqrt(2.0 * cut ** 3 * big_n))
    # a blow-up coordinate is at most 1 in magnitude, so every label is a
    # finite float unless the width is below 2 / DBL_MAX, or 0.0
    if not width * np.finfo(float).max >= 2.0:
        raise BadParams(f"epsilon {epsilon!r} is too small: width {width!r}")
    # blow-up coordinates, one row per eigenvector before the cut
    coords = spectrum.vectors[:cut - 1] / np.sqrt(k)
    outlier = (np.abs(coords) > threshold).any(axis=0)
    if int(k[outlier].sum()) > epsilon * big_n / 2.0:
        raise PostconditionFailure(
            "exceptional bucket exceeds half the allowed exceptional mass"
        )
    inside = np.nonzero(~outlier)[0]
    # integral floats: labels can pass 2^63, so they are not cast to int64;
    # a cell is a row number, so cells come in first-occurrence order
    cell, _ = _row_labels(np.ceil(coords[:, inside].T / width))
    members = inside[np.argsort(cell, kind="stable")].tolist()
    ends = np.bincount(cell).cumsum().tolist()
    # epsilon^2 underflows to 0 below about 1e-162: no bound is then finite
    try:
        r_bound = (64.0 * cut * cut / epsilon ** 2 + 3.0) ** cut
    except (OverflowError, ZeroDivisionError):
        r_bound = math.inf
    if len(ends) > r_bound:
        raise PostconditionFailure("bucket count exceeds its structural bound")
    return Buckets(
        exceptional=tuple(int(x) for x in np.nonzero(outlier)[0]),
        cells=tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends)),
        coordinate_width=width,
        outlier_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# equitable refinement


@dataclass(frozen=True)
class PartitionResult:
    """Partition into an exceptional part V_0 and parts V_1..V_q.

    ``parts[0]`` is the exceptional part (possibly empty); densities and
    regularity flags are indexed like ``parts`` with NaN/False in row and
    column zero and on the diagonal.
    """

    parts: tuple[tuple[str, ...], ...]
    densities: np.ndarray
    regular_flags: np.ndarray
    params: dict

    @property
    def q(self) -> int:
        return len(self.parts) - 1


@dataclass(frozen=True)
class RefinedParts:
    """Refined parts; a forced refinement has no chunk target or part cap."""

    exceptional: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    m_effective: int
    m_star: float
    chunk_target: float | None
    part_cap: int | None


def _effective_m(m: int, p_star: float) -> int:
    m_eff = m
    while m_eff > 1 and p_star * m_eff >= 1.0:
        m_eff -= 1
    if p_star * m_eff >= 1.0:
        raise HeavyAtom(
            f"max relative atom {p_star!r} leaves no feasible part count"
        )
    return m_eff


def _refine_scale(mass: np.ndarray, params: RegularityParams
                  ) -> tuple[float, int, float]:
    """Total mass, effective m and m* = m_eff / (1 - p* m_eff)."""
    mu_total = float(mass.sum())
    if mu_total <= 0:
        raise ZeroMassGraph("total mass must be positive")
    return (mu_total, *_scale(mu_total, float(mass.max()), params))


def _scale(mu_total: float, top: float, params: RegularityParams
           ) -> tuple[int, float]:
    """Effective m and m* of positive masses with sum mu_total and largest
    mass top."""
    p_star = top / mu_total
    m_eff = _effective_m(params.m, p_star)
    return m_eff, m_eff / (1.0 - p_star * m_eff)


def _chunk_target(epsilon: float, mu_total: float, r: int, m_star: float
                  ) -> float:
    return epsilon * mu_total / (2.0 * (r + m_star))


def _closes_at_one_point(mu_total: float, m_star: float, least: float,
                         params: RegularityParams) -> bool:
    """Condition (b) of ``_forced_refinement``: the least mass reaches the
    chunk target at r = 1 bucket, and that target is positive.  The rounded
    target is nonincreasing in r, so every chunk then closes at one point
    of positive mass for any r >= 1."""
    target = _chunk_target(params.epsilon, mu_total, 1, m_star)
    return target > 0.0 and least >= target


def _forced_refinement(mass: np.ndarray, blowup_size: int,
                       params: RegularityParams) -> RefinedParts | None:
    """The single-point refinement when no spectrum can change it, else None.

    When both conditions below hold, ``spectral_bucket_partition`` finds no
    outlier and ``equitable_refine`` closes every chunk at its first point,
    so the parts are the single points with an empty exceptional part,
    whatever the eigenvectors are.  They come here in index order; the
    spectral path lists them cell by cell, which differs only where points
    share a cell, such as isolated vertices in the all-zero cell.

    Only (a) reads N.  A build's pass over its clusters (``treebuild``)
    checks (a) at N = max_blowup, where epsilon * max_blowup <= 1 and a
    guard proves the scan returns, and (b) through ``_scale`` and
    ``_closes_at_one_point``.
    """
    # (a) epsilon N <= 1: the outlier threshold sqrt(2J / (epsilon N)) is
    # then at least sqrt(2), while a blow-up coordinate |v(x)| / sqrt(K(x))
    # of a unit eigenvector is at most 1 (up to rounding far below the
    # margin), so no point is an outlier
    if not params.epsilon * blowup_size <= 1.0:
        return None
    mu_total, m_eff, m_star = _refine_scale(mass, params)
    if not _closes_at_one_point(mu_total, m_star, float(mass.min()), params):
        return None
    # equitable_refine's checks pass: q = n >= m_eff, as m_eff p* < 1 and
    # p* >= 1/n; q = n <= N <= 1 / epsilon < part_cap; V_0 is empty; part
    # masses are positive and spread by at most the max atom
    return RefinedParts(
        exceptional=(),
        parts=tuple(zip(range(len(mass)))),
        m_effective=m_eff,
        m_star=m_star,
        chunk_target=None,
        part_cap=None,
    )


def equitable_refine(buckets: Buckets, mass: np.ndarray,
                     params: RegularityParams) -> RefinedParts:
    """Split buckets into parts of near-equal mass plus an exceptional part.

    Each bucket is chunked greedily in index order: a chunk closes as soon as
    its mass reaches epsilon * mu(S) / (2 (r + m*)), so chunk masses live in
    [target, target + max atom).  Whole points (hence whole copy groups) are
    never split.  The remainder of every bucket joins the exceptional part
    together with the outlier bucket.
    """
    mu_total, m_eff, m_star = _refine_scale(mass, params)
    mu_star = float(mass.max())
    r = len(buckets.cells)
    target = _chunk_target(params.epsilon, mu_total, r, m_star)
    parts: list[tuple[int, ...]] = []
    leftover: list[int] = list(buckets.exceptional)
    for cell in buckets.cells:
        chunk: list[int] = []
        acc = 0.0
        for x in cell:
            chunk.append(x)
            acc += float(mass[x])
            if acc >= target:
                parts.append(tuple(chunk))
                chunk = []
                acc = 0.0
        leftover.extend(chunk)
    q = len(parts)
    part_cap = int(math.ceil(2.0 * (r + m_star) / params.epsilon))
    if q < m_eff:
        raise HeavyAtom(
            f"refinement produced q={q} parts, below the required {m_eff}; "
            "atoms are too heavy for this epsilon and m"
        )
    if q > part_cap:
        raise PostconditionFailure("part count exceeds its structural cap")
    exc_mass = float(mass[leftover].sum()) if leftover else 0.0
    if exc_mass > params.epsilon * mu_total:
        raise PostconditionFailure("exceptional part is too heavy")
    part_masses = [float(mass[list(part)].sum()) for part in parts]
    if min(part_masses) <= 0:
        raise PostconditionFailure("a part has zero mass")
    if max(part_masses) - min(part_masses) > mu_star:
        raise PostconditionFailure("part masses spread beyond the max atom")
    return RefinedParts(
        exceptional=tuple(sorted(leftover)),
        parts=tuple(parts),
        m_effective=m_eff,
        m_star=m_star,
        chunk_target=target,
        part_cap=part_cap,
    )


# ---------------------------------------------------------------------------
# density and the pair tester


def pair_density(graph: WeightedGraph, left: list[int], right: list[int]
                 ) -> float:
    """Weighted edge density between two disjoint vertex sets."""
    mass = graph.mass
    mu_l = float(mass[list(left)].sum())
    mu_r = float(mass[list(right)].sum())
    if mu_l <= 0 or mu_r <= 0:
        raise EmptyPart("both sides must carry positive mass")
    sub = graph.adj[np.ix_(list(left), list(right))]
    rho = float(mass[list(left)] @ sub @ mass[list(right)])
    return rho / (mu_l * mu_r)


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    certified: bool
    deviation: float
    base_density: float
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _exhaustive_test(graph: WeightedGraph, left: list[int], right: list[int],
                     epsilon: float) -> RegularityVerdict:
    mass = graph.mass
    mu_l = mass[list(left)]
    mu_r = mass[list(right)]
    e_lr = graph.adj[np.ix_(list(left), list(right))].astype(float)
    a, b = len(left), len(right)
    base = float(mu_l @ e_lr @ mu_r) / (mu_l.sum() * mu_r.sum())
    bits_l = ((np.arange(1, 2 ** a)[:, None] >> np.arange(a)) & 1).astype(float)
    bits_r = ((np.arange(1, 2 ** b)[:, None] >> np.arange(b)) & 1).astype(float)
    mass_l = bits_l @ mu_l
    mass_r = bits_r @ mu_r
    ok_l = np.nonzero(mass_l >= epsilon * mu_l.sum())[0]
    ok_r = np.nonzero(mass_r >= epsilon * mu_r.sum())[0]
    worst = 0.0
    witness = None
    wl = (bits_l[ok_l] * mu_l) @ e_lr  # rho(A, y) per candidate A and vertex y
    chunk = max(1, 2 ** 22 // max(len(ok_r), 1))
    for start in range(0, len(ok_l), chunk):
        rows = slice(start, min(start + chunk, len(ok_l)))
        rho = wl[rows] @ (bits_r[ok_r] * mu_r).T
        dens = rho / np.outer(mass_l[ok_l][rows], mass_r[ok_r])
        dev = np.abs(dens - base)
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if float(dev[i, j]) > worst:
            worst = float(dev[i, j])
            mask_l = int(ok_l[start + i] + 1)
            mask_r = int(ok_r[j] + 1)
            witness = (
                tuple(left[t] for t in range(a) if mask_l >> t & 1),
                tuple(right[t] for t in range(b) if mask_r >> t & 1),
            )
    if worst > epsilon:
        return RegularityVerdict(False, True, worst, base, witness)
    return RegularityVerdict(True, True, worst, base, None)


def _flatten_seed(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    out: list[int] = []
    for part in seed:
        out.extend(_flatten_seed(part))
    return tuple(out)


def _sampled_test(graph: WeightedGraph, left: list[int], right: list[int],
                  epsilon: float, seed) -> RegularityVerdict:
    mass = graph.mass
    mu_l = float(mass[list(left)].sum())
    mu_r = float(mass[list(right)].sum())
    base = pair_density(graph, left, right)
    rng = np.random.default_rng(_flatten_seed(seed))

    def draw(side: list[int], mu_side: float) -> list[int]:
        for _ in range(200):
            mask = rng.random(len(side)) < 0.5
            sub = [v for v, keep in zip(side, mask) if keep]
            if sub and float(mass[sub].sum()) >= epsilon * mu_side:
                return sub
        return list(side)

    worst = 0.0
    for _ in range(RegularityParams.trials):
        sub_l = draw(left, mu_l)
        sub_r = draw(right, mu_r)
        dev = abs(pair_density(graph, sub_l, sub_r) - base)
        if dev > worst:
            worst = dev
        if dev > epsilon:
            return RegularityVerdict(
                False, False, worst, base, (tuple(sub_l), tuple(sub_r)),
            )
    return RegularityVerdict(True, False, worst, base, None)


def regularity_test(graph: WeightedGraph, left, right, epsilon: float,
                    seed=0) -> RegularityVerdict:
    """Decide whether a disjoint pair of parts is epsilon-regular.

    A complete or empty block between the parts, a pair of single points
    included, has density 1 or 0 on every pair of subsets, so it is settled
    at once: regular and certified, with deviation 0.  Any other pair gets
    exhaustive subset enumeration when both parts have at most 12 points
    (the verdict is then certified); otherwise a seeded sampling tester that
    draws ``RegularityParams.trials`` subset pairs and reports Regular unless
    one of them is a witness.
    """
    left = [int(v) for v in left]
    right = [int(v) for v in right]
    if set(left) & set(right):
        raise BadParams("parts must be disjoint")
    if not left or not right:
        raise EmptyPart("parts must be nonempty")
    if float(graph.mass[left].sum()) <= 0 or float(graph.mass[right].sum()) <= 0:
        raise EmptyPart("parts must carry positive mass")
    block = graph.adj[np.ix_(left, right)]
    if block.all() or not block.any():
        return RegularityVerdict(True, True, 0.0, float(block[0, 0]), None)
    if len(left) <= EXHAUSTIVE_LIMIT and len(right) <= EXHAUSTIVE_LIMIT:
        return _exhaustive_test(graph, left, right, epsilon)
    return _sampled_test(graph, left, right, epsilon, seed)


# ---------------------------------------------------------------------------
# the pipeline


def regularity_pipeline(graph: WeightedGraph, params: RegularityParams,
                        seed: int = 0) -> PartitionResult:
    """Full partition: rationalize, eigensolve, cut, bucket, refine, test.

    When the weights force the partition to single points (see
    ``_forced_refinement``), the eigensolve, cut and buckets are skipped,
    the parts come in index order, each density is the adjacency entry and
    the ``forced`` meta key is true; the spectrum-only keys ``cut``,
    ``bucket_count``, ``part_cap`` and ``chunk_target`` are then None.

    Densities and flags are assigned as whole blocks over the
    non-exceptional parts: the adjacency block on the forced path, the
    part-mass quotients of the weighted edge masses otherwise (each pair
    i < j computed once and mirrored).  Every pair starts regular, since a
    pair of single-point parts has no admissible subsets but the parts
    themselves.  The tester then sees only the pairs with a part of two or
    more points, in row-major order with the per-pair seed (seed, i, j), so
    verdicts do not depend on evaluation order; when every part is a single
    point it runs on no pair.
    """
    mu_total = graph.total_mass()
    if mu_total <= 0:
        raise ZeroMassGraph("graph carries no mass")
    prob = graph.mass / mu_total
    kmult, blowup = rationalize_weights(prob, params.nu)
    refined = _forced_refinement(graph.mass, blowup, params)
    forced = refined is not None
    cut = bucket_count = None
    if not forced:
        spectrum = weighted_adjacency_spectrum(graph, kmult)
        cut = choose_spectral_cut(spectrum, params)
        buckets = spectral_bucket_partition(spectrum, cut, params.epsilon)
        bucket_count = len(buckets.cells)
        refined = equitable_refine(buckets, graph.mass, params)

    q = len(refined.parts)
    densities = np.empty((q + 1, q + 1))
    # a single-point pair is regular; the tester settles every other pair
    flags = np.zeros((q + 1, q + 1), dtype=bool)
    flags[1:, 1:] = True
    flags.flat[::q + 2] = False
    if forced:
        # part i is point i - 1, so a density is an adjacency entry
        densities[1:, 1:] = graph.adj
        parts_ids = ((),) + tuple(zip(graph.vertices))
    else:
        index_parts = [list(refined.exceptional), *map(list, refined.parts)]
        sizes = np.array([len(part) for part in index_parts])
        membership = np.zeros((graph.n, q + 1))
        membership[[v for part in index_parts for v in part],
                   np.repeat(np.arange(q + 1), sizes)] = 1.0
        weighted = membership * graph.mass[:, None]
        rho = weighted.T @ graph.adj @ weighted
        part_mass = graph.mass @ membership
        # refinement gives every non-exceptional part positive mass
        dens = rho[1:, 1:] / np.outer(part_mass[1:], part_mass[1:])
        # rho need not be bit-symmetric: mirror the value above the diagonal
        upper = np.arange(q)[:, None] < np.arange(q)
        densities[1:, 1:] = np.where(upper, dens, dens.T)
        multi = sizes[1:] > 1
        tested_a, tested_b = upper_pairs(multi[:, None] | multi)
        for a, b in zip((tested_a + 1).tolist(), (tested_b + 1).tolist()):
            verdict = regularity_test(
                graph, index_parts[a], index_parts[b], params.epsilon,
                seed=(seed, a, b),
            )
            flags[a, b] = flags[b, a] = verdict.regular
        parts_ids = tuple(tuple(map(graph.vertices.__getitem__, part))
                          for part in index_parts)
    densities[0] = densities[:, 0] = densities.flat[::q + 2] = math.nan
    meta = {
        "epsilon": params.epsilon,
        "m": params.m,
        "m_effective": refined.m_effective,
        "seed": seed,
        "blowup_size": blowup,
        "cut": cut,
        "forced": forced,
        "bucket_count": bucket_count,
        "part_cap": refined.part_cap,
        "chunk_target": refined.chunk_target,
        "trials": params.trials,
    }
    return PartitionResult(
        parts=parts_ids,
        densities=densities,
        regular_flags=flags,
        params=meta,
    )
