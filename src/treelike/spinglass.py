"""Spin-glass demonstrator: Gibbs measures, overlaps, and pure-state trees.

Small systems with Gaussian pair couplings are sampled exactly (full
enumeration) or by single-site Metropolis.  The sampled configurations and
their overlap similarity form a similarity space; running the tree
construction on it extracts hierarchically organized clusters whose level
values depend on depth only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import add

import numpy as np

from .core import SimilaritySpace, _row_labels
from .errors import (
    BadParams,
    BadSchedule,
    DegenerateSample,
    LengthMismatch,
    SizeTooSmall,
    TooLargeForEnumeration,
)
from .treebuild import TreeBuildReport, _class_pairs, _price, build_tree

ENUMERATION_CAP = 20
MCMC_BLOCK = 1 << 14  # chain steps held as Python scalars at a time


@dataclass(frozen=True)
class SpinGlassModel:
    """Pair-coupled spins with H(sigma) = sum_{i<j} g_ij sigma_i sigma_j / sqrt(n).

    Couplings are independent standard normals, reproducible from the seed.
    Gibbs weights are proportional to exp(beta * H); the sign convention is
    immaterial because the coupling law is symmetric.  beta may be infinite
    (a zero-temperature chain) but not NaN.
    """

    n: int
    beta: float
    seed: int
    couplings: np.ndarray  # upper-triangle entries g_ij, i < j, row-major

    def __post_init__(self):
        if math.isnan(self.beta):
            raise BadParams(f"beta must be a number, got {self.beta!r}")

    def coupling_matrix(self) -> np.ndarray:
        g = np.zeros((self.n, self.n))
        g[np.triu_indices(self.n, 1)] = self.couplings
        return g + g.T


def sk_couplings(n: int, beta: float = 1.0, seed: int = 0) -> SpinGlassModel:
    """Draw the n(n-1)/2 Gaussian couplings for a model of size n."""
    if n < 2:
        raise SizeTooSmall(f"need at least 2 spins, got {n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n * (n - 1) // 2)
    g.setflags(write=False)
    return SpinGlassModel(n=n, beta=float(beta), seed=seed, couplings=g)


def _all_configurations(n: int) -> np.ndarray:
    codes = np.arange(2 ** n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def gibbs_exact(model: SpinGlassModel) -> tuple[np.ndarray, np.ndarray]:
    """Full Gibbs distribution over all 2^n configurations.

    Returns (configs, probabilities); configs[k] is a +-1 vector.  Weights
    are exponentiated around the maximum energy for stability, which needs
    a finite beta.
    """
    if not math.isfinite(model.beta):
        raise BadParams(f"exact enumeration needs a finite beta, got "
                        f"{model.beta!r}")
    if model.n > ENUMERATION_CAP:
        raise TooLargeForEnumeration(
            f"n={model.n} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    configs = _all_configurations(model.n)
    g = model.coupling_matrix()
    sc = configs.astype(float)
    energies = 0.5 * np.einsum("ki,ij,kj->k", sc, g, sc) / math.sqrt(model.n)
    logw = model.beta * energies
    logw -= logw.max()
    w = np.exp(logw)
    return configs, w / w.sum()


def gibbs_mcmc(model: SpinGlassModel, steps: int, burn_in: int, thin: int,
               seed: int) -> np.ndarray:
    """Single-site Metropolis chain; returns the thinned sample array.

    Each step flips one uniformly chosen spin with acceptance probability
    min(1, exp(beta * energy_change)).  Deterministic per seed.

    The chain runs on Python scalars, MCMC_BLOCK steps at a time, and logs
    the steps of its accepted flips.  The samples at steps burn_in,
    burn_in + thin, ... are rebuilt from that log by per-site flip parity,
    so they are byte-identical to copying the spins at each sample step of
    a per-step numpy loop.  Beyond the O(steps) random draws, memory is
    O(samples * n) bytes plus O(MCMC_BLOCK).
    """
    if steps <= burn_in or burn_in < 0 or thin < 1:
        raise BadSchedule(
            f"need steps > burn_in >= 0 and thin >= 1, got "
            f"steps={steps}, burn_in={burn_in}, thin={thin}"
        )
    n = model.n
    rng = np.random.default_rng(seed)
    g = model.coupling_matrix()
    sigma = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
    local = (g @ sigma / math.sqrt(n)).tolist()  # field at each site
    sites = rng.integers(0, n, size=steps)
    accept_u = rng.random(steps)
    # field change when spin i flips to +1 / -1: column i of +-2 g / sqrt(n);
    # scaling by +-2 is exact and commutes with rounding, so the bits match
    # 2 * sigma_i * g[:, i] / sqrt(n)
    to_up = (2.0 * g / math.sqrt(n)).T.tolist()
    to_down = (-2.0 * g / math.sqrt(n)).T.tolist()
    spins = sigma.tolist()
    beta, exp = model.beta, math.exp
    count = len(range(burn_in, steps, thin))
    stop = burn_in + (count - 1) * thin + 1  # no sample sees a later step
    # toggle[k, j]: parity of the flips of site j that sample k is the first
    # to see, those at steps in (burn_in + (k - 1) * thin, burn_in + k * thin]
    toggle = np.zeros((count, n), dtype=bool)
    for start in range(0, stop, MCMC_BLOCK):
        block = slice(start, min(start + MCMC_BLOCK, stop))
        flips = []  # steps of the accepted flips in this block
        for step, i, u in zip(range(start, stop), sites[block].tolist(),
                              accept_u[block].tolist()):
            s = spins[i]
            delta = -2.0 * s * local[i]
            if delta >= 0 or u < exp(beta * delta):
                spins[i] = -s
                local = list(map(add, local,
                                 to_down[i] if s > 0 else to_up[i]))
                flips.append(step)
        flips = np.array(flips, dtype=np.int64)
        first = np.maximum(-((burn_in - flips) // thin), 0)
        np.logical_xor.at(toggle, (first, sites[flips]), True)
    flipped = np.logical_xor.accumulate(toggle, axis=0, out=toggle)
    return np.where(flipped, -sigma, sigma)


def overlap(sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    """Normalized inner product of two configurations, in [-1, 1]."""
    a = np.asarray(sigma1)
    b = np.asarray(sigma2)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths {a.shape} and {b.shape} differ")
    return float(a @ b) / len(a)


# ---------------------------------------------------------------------------
# overlap similarity spaces


@dataclass(frozen=True)
class OverlapMap:
    """A bounded transform f of the overlap and a strictly increasing map rho
    onto [0, 1] that turns f-values into similarities."""

    name: str
    f: object
    rho: object
    rho_inverse: object
    f_range: tuple[float, float]

    @property
    def rho_range(self) -> tuple[float, float]:
        return (self.rho(self.f_range[0]), self.rho(self.f_range[1]))


def overlap_map(name: str) -> OverlapMap:
    """Built-in transforms: "id" (rho shifts into [0,1]) and "abs"."""
    if name == "id":
        return OverlapMap(
            name="id",
            f=lambda u: u,
            rho=lambda u: (u + 1.0) / 2.0,
            rho_inverse=lambda v: 2.0 * v - 1.0,
            f_range=(-1.0, 1.0),
        )
    if name == "abs":
        return OverlapMap(
            name="abs",
            f=abs,
            rho=lambda u: u,
            rho_inverse=lambda v: v,
            f_range=(0.0, 1.0),
        )
    raise BadParams(f"unknown overlap map {name!r} (choose id or abs)")


def _per_value(fn, values: np.ndarray) -> np.ndarray:
    """fn of each entry as a float array, calling fn once per distinct value.

    fn sees the same Python floats as an entrywise call would (numpy merges
    -0.0 with 0.0, which both built-in maps send to equal floats).
    """
    uniq = np.unique(values)
    mapped = np.array([fn(u) for u in uniq.tolist()], dtype=float)
    return mapped[np.searchsorted(uniq, values)]


def overlap_space(configs: np.ndarray, weights: np.ndarray | None,
                  mapping: OverlapMap) -> SimilaritySpace:
    """Similarity space of distinct configurations under rho(f(overlap)).

    ``weights`` are Gibbs masses (exact mode) or None for empirical
    frequencies over the sample list.  Duplicate configurations, as
    ``core._row_labels`` finds them, are merged in order of first
    occurrence, their weights added in index order; weights whose sum is
    not a positive finite number raise BadParams before they are
    normalized.  The map is called once per overlap k / n_spins, k in
    [-n_spins, n_spins], and the similarities read off.
    """
    arr = np.asarray(configs)
    if arr.ndim != 2 or not (np.abs(arr) == 1).all():
        raise BadParams("configs must be a 2d array of +-1 rows")
    n_rows, n_spins = arr.shape
    if n_spins >= 1 << 24:  # float32 holds every integer below 2^24
        raise BadParams(f"{n_spins} spins are too many to sum exactly")
    if weights is None:
        weights = np.full(n_rows, 1.0 / n_rows)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_rows,):
        raise BadParams(f"weights shape {weights.shape} for {n_rows} rows")
    label, first = _row_labels(arr)
    if len(first) < 2:
        raise DegenerateSample("need at least 2 distinct configurations")
    w = np.bincount(label, weights=weights)
    # the sum is finite only when every weight is, and finite weights can
    # overflow it
    with np.errstate(all="ignore"):
        total = float(w.sum())
    if not 0.0 < total < math.inf:
        raise BadParams(f"weights sum to {total!r}; need a finite sum > 0")
    distinct = arr[first]
    table = np.array([mapping.rho(mapping.f(k / n_spins))
                      for k in range(-n_spins, n_spins + 1)], dtype=float)
    spins = distinct.astype(np.float32)
    # float32 sums are exact: every partial sum is an integer of size at most
    # n_spins, and k + n_spins is even and below 2^25; the counts are then
    # small integers, so one n x n 8-byte array, the result, is formed
    counts = spins @ spins.T
    counts += n_spins
    counts = counts.astype(np.min_scalar_type(2 * n_spins))
    points = np.where(distinct > 0, "+", "-").view(f"<U{n_spins}").ravel()
    return SimilaritySpace(points=tuple(points.tolist()), weights=w / total,
                           sim=table[counts], bound=1.0)


# ---------------------------------------------------------------------------
# pure states


@dataclass(frozen=True)
class PureStateReport:
    """Tree of clusters with one overlap value per depth.

    ``level_values[d]`` is the f-overlap value assigned to every cluster at
    depth d; ``overlap_defect`` is the average hyperbolicity of the overlap
    space (identical by construction); ``mean_error`` is the expected
    absolute difference between f(overlap) and the value at the deepest
    common cluster.
    """

    build: TreeBuildReport
    scale: float
    level_values: tuple[float, ...]
    clamped_levels: tuple[int, ...]
    overlap_defect: float
    mean_error: float


def pure_state_tree(space: SimilaritySpace, mapping: OverlapMap,
                    epsilon: float, m: int, seed: int = 0,
                    delta0: float | None = None) -> PureStateReport:
    """Run the tree construction on an overlap space and read off q-values.

    The similarity scale is the optimal alpha of the built tree; a cluster
    at depth d receives rho^{-1}(alpha * d) with alpha * d clamped into
    rho's range; the depths clamped are listed in ``clamped_levels``.
    ``delta0`` overrides the measured window width, which finite samples
    usually need: their defect is far from zero even when the cluster
    structure is clean.  The mean error is priced as the tree cost is, on
    groups of points with one row and one leaf parent, with the level
    values in place of alpha times the products.
    """
    report = build_tree(space, epsilon, m, seed=seed, delta0=delta0)
    scale = report.best_alpha
    lo, hi = mapping.rho_range
    depth = report.tree.depth()
    values = []
    clamped = []
    for d in range(depth + 1):
        v = scale * d
        if not (lo <= v <= hi):
            clamped.append(d)
            v = min(max(v, lo), hi)
        values.append(float(mapping.rho_inverse(v)))
    cp = _class_pairs(space, report.tree)
    # a similarity is rho(f(overlap)), so rho^{-1} recovers f(overlap)
    f_overlap = _per_value(lambda v: mapping.f(mapping.rho_inverse(v)), cp.sim)
    mean_error = _price(replace(cp, sim=f_overlap), np.array(values))
    return PureStateReport(
        build=report,
        scale=scale,
        level_values=tuple(values),
        clamped_levels=tuple(clamped),
        overlap_defect=report.ladder.hyp,
        mean_error=mean_error,
    )
