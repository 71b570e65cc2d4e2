"""Spin-glass demonstrator: Gibbs measures, overlaps, and pure-state trees.

Small systems with Gaussian pair couplings are sampled exactly (full
enumeration) or by single-site Metropolis.  The sampled configurations and
their overlap similarity form a similarity space; running the tree
construction on it extracts hierarchically organized clusters whose level
values depend on depth only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimilaritySpace, gromov_product_matrix
from .errors import (
    BadParams,
    BadSchedule,
    DegenerateSample,
    LengthMismatch,
    SizeTooSmall,
    TooLargeForEnumeration,
)
from .treebuild import TreeBuildReport, build_tree

ENUMERATION_CAP = 20


@dataclass(frozen=True)
class SpinGlassModel:
    """Pair-coupled spins with H(sigma) = sum_{i<j} g_ij sigma_i sigma_j / sqrt(n).

    Couplings are independent standard normals, reproducible from the seed.
    Gibbs weights are proportional to exp(beta * H); the sign convention is
    immaterial because the coupling law is symmetric.
    """

    n: int
    beta: float
    seed: int
    couplings: np.ndarray  # upper-triangle entries g_ij, i < j, row-major

    def coupling_matrix(self) -> np.ndarray:
        g = np.zeros((self.n, self.n))
        g[np.triu_indices(self.n, 1)] = self.couplings
        return g + g.T

    def energy(self, sigma: np.ndarray) -> float:
        g = self.coupling_matrix()
        return float(sigma @ g @ sigma) / (2.0 * math.sqrt(self.n))


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
    are exponentiated around the maximum energy for stability.
    """
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


def overlap_space(configs: np.ndarray, weights: np.ndarray | None,
                  mapping: OverlapMap) -> SimilaritySpace:
    """Similarity space of distinct configurations under rho(f(overlap)).

    ``weights`` are Gibbs masses (exact mode) or None for empirical
    frequencies over the sample list.  Duplicate configurations are merged,
    accumulating their weight.
    """
    arr = np.asarray(configs)
    if arr.ndim != 2:
        raise BadParams("configs must be a 2d array of +-1 rows")
    n_rows = arr.shape[0]
    if weights is None:
        weights = np.full(n_rows, 1.0 / n_rows)
    else:
        weights = np.asarray(weights, dtype=float)
    keys: dict[bytes, int] = {}
    order: list[int] = []
    mass: list[float] = []
    for k in range(n_rows):
        key = arr[k].tobytes()
        if key in keys:
            mass[keys[key]] += float(weights[k])
        else:
            keys[key] = len(order)
            order.append(k)
            mass.append(float(weights[k]))
    if len(order) < 2:
        raise DegenerateSample("need at least 2 distinct configurations")
    distinct = arr[order].astype(float)
    n_spins = arr.shape[1]
    ov = distinct @ distinct.T / n_spins
    f = np.vectorize(mapping.f, otypes=[float])
    rho = np.vectorize(mapping.rho, otypes=[float])
    sim = rho(f(ov))
    sim = (sim + sim.T) / 2.0  # symmetrize float dust from the transform
    points = tuple(
        "".join("+" if v > 0 else "-" for v in arr[k]) for k in order
    )
    w = np.array(mass)
    w = w / w.sum()
    return SimilaritySpace(points=points, weights=w, sim=sim, bound=1.0)


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
    structure is clean.
    """
    report = build_tree(space, epsilon, m, seed=seed, delta0=delta0)
    scale = report.best_alpha
    lo, hi = mapping.rho_range
    depth = max(report.tree.level.values())
    values = []
    clamped = []
    for d in range(depth + 1):
        v = scale * d
        if not (lo <= v <= hi):
            clamped.append(d)
            v = min(max(v, lo), hi)
        values.append(float(mapping.rho_inverse(v)))
    prod = gromov_product_matrix(report.tree, space.points)
    f_vals = np.vectorize(mapping.f, otypes=[float])(
        np.vectorize(mapping.rho_inverse, otypes=[float])(space.sim)
    )
    # space.sim is rho(f(overlap)), so rho^{-1} recovers f(overlap)
    q_of_pair = np.array(values)[prod]
    p = space.weights
    mean_error = float(p @ np.abs(f_vals - q_of_pair) @ p)
    return PureStateReport(
        build=report,
        scale=scale,
        level_values=tuple(values),
        clamped_levels=tuple(clamped),
        overlap_defect=report.ladder.hyp,
        mean_error=mean_error,
    )
