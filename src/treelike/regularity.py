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

At desk scale the cut cannot meet its tail bound before the nonzero spectrum
ends, so bucket widths separate almost every point and most parts are single
points.  The pipeline settles every pair of single-point parts directly (the
tester can only call them regular) and runs the tester on the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .core import WeightedGraph
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


def rationalize_weights(weights: np.ndarray, tolerance: float,
                        max_blowup: int = 10 ** 12) -> tuple[np.ndarray, int]:
    """Approximate probabilities by K(x)/N with a common denominator N.

    Guarantees K(x) >= 1, sum K = N and |K(x)/N - p(x)| within the tolerance.
    With tolerance zero the weights are normalized and their exact dyadic
    representation is used.  Small N are scanned first so nice inputs get
    their minimal denominator.

    A positive tolerance needs weights summing to one within n * tolerance;
    other weights raise BadParams before any N is tried.  The scan skips only
    N at which no K(x) >= 1 can meet the tolerance, so K and N equal those of
    a plain ascending scan.
    """
    p = np.asarray(weights, dtype=float)
    n = len(p)
    if n == 0 or (p < 0).any():
        raise BadParams("weights must be a nonempty nonnegative vector")
    if not tolerance >= 0:
        raise BadParams("tolerance must be >= 0")
    if tolerance == 0.0:
        fracs = [Fraction(float(x)) for x in p]
        total = sum(fracs)
        if total == 0:
            raise BadParams("weights sum to zero")
        ratios = [f / total for f in fracs]
        denom = 1
        for r in ratios:
            denom = denom * r.denominator // math.gcd(denom, r.denominator)
        if denom > max_blowup:
            raise BlowupTooLarge(denom, max_blowup)
        k = np.array([int(r * denom) for r in ratios], dtype=np.int64)
        if (k < 1).any():
            raise BadParams("zero weight cannot be represented exactly")
        return k, int(denom)

    # K/N sums to one, so with u = 2^-53 an accepted K has |1 - sum p|
    # <= n * tolerance (1 + 2u) + u, and the pairwise sum adds at most
    # log2(n) u sum(p); the 1e-9 terms cover these.  A NaN sum fails too.
    total = float(p.sum())
    if not abs(total - 1.0) <= n * tolerance + 1e-9 * (1.0 + n * tolerance):
        raise BadParams(
            f"weights must sum to 1 within n * tolerance, got sum {total!r}"
        )
    scan_top = min(max(RATIONALIZE_SCAN_LIMIT, 4 * n), max_blowup)
    alive = np.arange(n, scan_top + 1)
    # An accepted K has |K - N p| <= N tolerance (1 + 2u) + u K, from the
    # rounding of k / N and of the subtraction.  x = fl(N p) is within u N p
    # of N p, and c = max(1, rint(x)) is the integer >= 1 nearest to x, so
    # |c - x| <= |K - x| <= N tolerance (1 + 3u) + 3u max(1, x), up to terms
    # in u^2.  Rounding |c - x| and the slack adds a relative u to each side.
    # The 1e-9 factors exceed all of these by more than 10^6, and
    # x <= fl(N max p), so no N that the check accepts is dropped.
    slack = alive * tolerance * (1.0 + 1e-9) \
        + 1e-9 * np.maximum(1.0, alive * p.max())
    for value in np.unique(p):
        if not alive.size:
            break
        x = alive * value
        keep = np.abs(np.maximum(1.0, np.rint(x)) - x) <= slack
        alive, slack = alive[keep], slack[keep]
    for n_total in alive.tolist():
        k = _apportion(p, n_total)
        if k is None:
            continue
        if np.abs(k / n_total - p).max() <= tolerance:
            return k, n_total

    n_total = max(n, int(math.ceil(2.0 / tolerance)))
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
    coordinate of any copy of x is v_i(x) / sqrt(K(x)).
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
    # each row's first largest-magnitude entry is made positive (argmax
    # fails on the 0x0 matrix of an empty graph, which has no rows)
    if vec.size:
        lead = vec[np.arange(len(vec)), np.argmax(np.abs(vec), axis=1)]
        vec *= np.where(lead < 0, -1.0, 1.0)[:, None]
    lam.setflags(write=False)
    vec.setflags(write=False)
    edge_weight = float((np.outer(k, k) * graph.adj).sum())
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
    with interval boundaries going to the lower bucket.
    """
    if cut < 1:
        raise BadParams("cut must be >= 1")
    k = spectrum.multiplicities
    big_n = spectrum.blowup_size
    threshold = math.sqrt(2.0 * cut / (epsilon * big_n))
    width = epsilon ** 1.5 / (16.0 * math.sqrt(2.0 * cut ** 3 * big_n))
    # blow-up coordinates, one row per eigenvector before the cut
    coords = spectrum.vectors[:cut - 1] / np.sqrt(k)
    outlier = (np.abs(coords) > threshold).any(axis=0)
    exc_blowup = int(k[outlier].sum())
    if exc_blowup > epsilon * big_n / 2.0:
        raise PostconditionFailure(
            "exceptional bucket exceeds half the allowed exceptional mass"
        )
    inside = np.nonzero(~outlier)[0]
    # integral floats: labels can pass 2^63, so they are not cast to int64;
    # dict order keeps the cells in first-occurrence order
    labels = np.ceil(coords[:, inside] / width).T.tolist()
    cells: dict[tuple[float, ...], list[int]] = {}
    for x, label in zip(inside.tolist(), labels):
        cells.setdefault(tuple(label), []).append(x)
    r = len(cells)
    try:
        r_bound = (64.0 * cut * cut / epsilon ** 2 + 3.0) ** cut
    except OverflowError:
        r_bound = math.inf
    if r > r_bound:
        raise PostconditionFailure("bucket count exceeds its structural bound")
    return Buckets(
        exceptional=tuple(int(x) for x in np.nonzero(outlier)[0]),
        cells=tuple(tuple(cell) for cell in cells.values()),
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
    exceptional: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    m_effective: int
    m_star: float
    chunk_target: float
    part_cap: int


def _effective_m(m: int, p_star: float) -> int:
    m_eff = m
    while m_eff > 1 and p_star * m_eff >= 1.0:
        m_eff -= 1
    if p_star * m_eff >= 1.0:
        raise HeavyAtom(
            f"max relative atom {p_star!r} leaves no feasible part count"
        )
    return m_eff


def equitable_refine(buckets: Buckets, mass: np.ndarray,
                     params: RegularityParams) -> RefinedParts:
    """Split buckets into parts of near-equal mass plus an exceptional part.

    Each bucket is chunked greedily in index order: a chunk closes as soon as
    its mass reaches epsilon * mu(S) / (2 (r + m*)), so chunk masses live in
    [target, target + max atom).  Whole points (hence whole copy groups) are
    never split.  The remainder of every bucket joins the exceptional part
    together with the outlier bucket.
    """
    mu_total = float(mass.sum())
    if mu_total <= 0:
        raise ZeroMassGraph("total mass must be positive")
    mu_star = float(mass.max())
    p_star = mu_star / mu_total
    m_eff = _effective_m(params.m, p_star)
    m_star = m_eff / (1.0 - p_star * m_eff)
    r = len(buckets.cells)
    target = params.epsilon * mu_total / (2.0 * (r + m_star))
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
                  epsilon: float, trials: int, seed) -> RegularityVerdict:
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
    for _ in range(trials):
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
                    trials: int = 64, seed=0) -> RegularityVerdict:
    """Decide whether a disjoint pair of parts is epsilon-regular.

    Exhaustive subset enumeration when both parts have at most 12 points
    (the verdict is then certified); otherwise a seeded sampling tester that
    reports Regular unless it finds a witness.
    """
    left = [int(v) for v in left]
    right = [int(v) for v in right]
    if set(left) & set(right):
        raise BadParams("parts must be disjoint")
    if not left or not right:
        raise EmptyPart("parts must be nonempty")
    if float(graph.mass[left].sum()) <= 0 or float(graph.mass[right].sum()) <= 0:
        raise EmptyPart("parts must carry positive mass")
    if len(left) == 1 and len(right) == 1:
        # the only admissible subsets are the parts themselves
        base = 1.0 if graph.adj[left[0], right[0]] else 0.0
        return RegularityVerdict(True, True, 0.0, base, None)
    if len(left) <= EXHAUSTIVE_LIMIT and len(right) <= EXHAUSTIVE_LIMIT:
        return _exhaustive_test(graph, left, right, epsilon)
    return _sampled_test(graph, left, right, epsilon, trials, seed)


# ---------------------------------------------------------------------------
# the pipeline


def regularity_pipeline(graph: WeightedGraph, params: RegularityParams,
                        seed: int = 0) -> PartitionResult:
    """Full partition: rationalize, eigensolve, cut, bucket, refine, test.

    Densities are recorded for every pair of non-exceptional parts.  A pair
    of single-point parts is regular, because its only admissible subsets
    are the parts themselves; every other pair is classified by the
    regularity tester with the per-pair seed (seed, i, j), so verdicts do not
    depend on evaluation order.
    """
    mu_total = graph.total_mass()
    if mu_total <= 0:
        raise ZeroMassGraph("graph carries no mass")
    prob = graph.mass / mu_total
    kmult, blowup = rationalize_weights(prob, params.nu, params.max_blowup)
    spectrum = weighted_adjacency_spectrum(graph, kmult)
    cut = choose_spectral_cut(spectrum, params)
    buckets = spectral_bucket_partition(spectrum, cut, params.epsilon)
    refined = equitable_refine(buckets, graph.mass, params)

    index_parts = [list(refined.exceptional)] + [list(p) for p in refined.parts]
    q = len(index_parts) - 1
    sizes = np.array([len(part) for part in index_parts])
    membership = np.zeros((graph.n, q + 1))
    membership[[v for part in index_parts for v in part],
               np.repeat(np.arange(q + 1), sizes)] = 1.0
    weighted = membership * graph.mass[:, None]
    rho = weighted.T @ graph.adj @ weighted
    part_mass = graph.mass @ membership
    # pairs i < j of non-exceptional parts; refinement guarantees their mass
    i, j = np.triu_indices(q, 1)
    i += 1
    j += 1
    densities = np.full((q + 1, q + 1), math.nan)
    dens = rho[i, j] / (part_mass[i] * part_mass[j])
    densities[i, j] = densities[j, i] = dens
    # a single-point pair is regular; the tester settles every other pair
    flags = np.zeros((q + 1, q + 1), dtype=bool)
    flags[i, j] = flags[j, i] = True
    tested = (sizes[i] > 1) | (sizes[j] > 1)
    for a, b in zip(i[tested].tolist(), j[tested].tolist()):
        verdict = regularity_test(
            graph, index_parts[a], index_parts[b], params.epsilon,
            trials=params.trials, seed=(seed, a, b),
        )
        flags[a, b] = flags[b, a] = verdict.regular
    parts_ids = tuple(
        tuple(graph.vertices[x] for x in part) for part in index_parts
    )
    meta = {
        "epsilon": params.epsilon,
        "m": params.m,
        "m_effective": refined.m_effective,
        "seed": seed,
        "blowup_size": blowup,
        "cut": cut,
        "cut_fallback": False,
        "bucket_count": len(buckets.cells),
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
