"""Seeded test-space generators.

Each kind exercises a different hypothesis: ultrametric and tree-scaled
spaces have zero average defect, noisy trees have defect bounded by twice
the noise, planted blocks feed the clique stages, and random spaces give
the Monte Carlo and profile checks something nontrivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompatibleTree, SimilaritySpace, gromov_product_matrix, \
    tree_from_levels
from .errors import BadParams

KINDS = ("ultrametric", "tree-scaled", "noisy-tree", "random", "planted-blocks")


@dataclass(frozen=True)
class PlantedFixture:
    """A generated space plus whatever structure was planted in it."""

    space: SimilaritySpace
    tree: CompatibleTree | None = None
    alpha: float | None = None
    labels: tuple[int, ...] | None = None
    noise: float = 0.0


def _random_hierarchy(n: int, depth: int, rng: np.random.Generator,
                      max_children: int = 3) -> list[np.ndarray]:
    """Nested partitions of range(n): one label array per level 1..depth."""
    labels = [np.zeros(n, dtype=int)]
    for _ in range(depth):
        prev = labels[-1]
        nxt = np.zeros(n, dtype=int)
        counter = 0
        for block in np.unique(prev):
            members = np.nonzero(prev == block)[0]
            k = min(len(members), int(rng.integers(2, max_children + 1)))
            if len(members) == 1:
                k = 1
            assign = rng.integers(0, k, size=len(members))
            # keep every child nonempty where possible
            for c in range(k):
                if not (assign == c).any():
                    assign[int(rng.integers(len(members)))] = c
            for c in range(k):
                chosen = members[assign == c]
                if len(chosen):
                    nxt[chosen] = counter
                    counter += 1
        labels.append(nxt)
    return labels[1:]


def _tree_from_hierarchy(points: tuple[str, ...], levels: list[np.ndarray]
                         ) -> CompatibleTree:
    """Compatible tree whose depth-i clusters are the level-i label blocks.

    A point's leaf attaches at the first level where its block becomes a
    singleton; blocks still shared at the last level get singleton leaves
    one level below.
    """
    rows = []
    alive = np.ones(len(points), dtype=bool)
    for labels in levels:
        row = [np.flatnonzero((labels == block) & alive).tolist()
               for block in np.unique(labels[alive])]
        alive[[c[0] for c in row if len(c) == 1]] = False
        rows.append(row)
    rows.append([[i] for i in np.flatnonzero(alive).tolist()])
    return tree_from_levels(points, rows)


def _weights(n: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind == "random":
        w = rng.random(n) + 0.1
        return w / w.sum()
    if kind == "dyadic":
        # random power-of-two masses that sum to one exactly
        shares = [1.0]
        while len(shares) < n:
            shares.sort()
            big = shares.pop()
            shares += [big / 2.0, big / 2.0]
        rng.shuffle(shares)
        return np.array(shares)
    raise BadParams(f"unknown weight kind {kind!r}")


def ultrametric_fixture(n: int, level_values: list[float], seed: int,
                        weights: str = "uniform") -> PlantedFixture:
    """Nested random blocks with similarity given by the deepest shared level.

    The similarity is an ultrametric-type function, so its average defect is
    exactly zero; the planted tree realizes it when the level values are
    multiples of a common scale.
    """
    if n < 2:
        raise BadParams("need at least 2 points")
    vals = [0.0] + [float(v) for v in level_values]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise BadParams("level values must be strictly increasing")
    rng = np.random.default_rng(seed)
    depth = len(level_values)
    levels = _random_hierarchy(n, depth, rng)
    points = tuple(f"p{i}" for i in range(n))
    shared = np.zeros((n, n), dtype=int)
    for d, labels in enumerate(levels, start=1):
        same = labels[:, None] == labels[None, :]
        shared[same] = d
    np.fill_diagonal(shared, depth)
    sim = np.array(vals)[shared]
    bound = max(vals[-1], 1.0)
    space = SimilaritySpace(points=points, weights=_weights(n, rng, weights),
                            sim=sim, bound=bound)
    tree = _tree_from_hierarchy(points, levels)
    return PlantedFixture(space=space, tree=tree,
                          labels=tuple(int(v) for v in levels[0]))


def tree_scaled_fixture(n: int, depth: int, alpha: float, seed: int,
                        weights: str = "uniform") -> PlantedFixture:
    """Random compatible tree, similarity = alpha times the leaf products."""
    if n < 2:
        raise BadParams("need at least 2 points")
    rng = np.random.default_rng(seed)
    levels = _random_hierarchy(n, depth, rng)
    points = tuple(f"p{i}" for i in range(n))
    tree = _tree_from_hierarchy(points, levels)
    prod = gromov_product_matrix(tree, points)
    sim = alpha * prod.astype(float)
    bound = max(float(sim.max()), 1.0)
    space = SimilaritySpace(points=points, weights=_weights(n, rng, weights),
                            sim=sim, bound=bound)
    return PlantedFixture(space=space, tree=tree, alpha=alpha)


def noisy_tree_fixture(n: int, depth: int, alpha: float, noise: float,
                       seed: int, weights: str = "uniform") -> PlantedFixture:
    """Tree-scaled space plus symmetric uniform noise of the given magnitude,
    clipped into [0, bound]; the average defect is at most twice the noise."""
    base = tree_scaled_fixture(n, depth, alpha, seed, weights)
    rng = np.random.default_rng((seed, 1))
    raw = rng.uniform(-noise, noise, size=(n, n))
    sym = np.triu(raw) + np.triu(raw, 1).T
    sim = np.clip(base.space.sim + sym, 0.0, base.space.bound)
    space = SimilaritySpace(points=base.space.points,
                            weights=base.space.weights,
                            sim=sim, bound=base.space.bound)
    return PlantedFixture(space=space, tree=base.tree, alpha=alpha,
                          noise=noise)


def random_fixture(n: int, seed: int, weights: str = "uniform",
                   bound: float = 1.0) -> PlantedFixture:
    """Symmetric uniform similarities in [0, bound], diagonal included."""
    if n < 2:
        raise BadParams("need at least 2 points")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, bound, size=(n, n))
    sim = np.triu(raw) + np.triu(raw, 1).T
    space = SimilaritySpace(points=tuple(f"p{i}" for i in range(n)),
                            weights=_weights(n, rng, weights),
                            sim=sim, bound=bound)
    return PlantedFixture(space=space)


def planted_blocks_fixture(n: int, blocks: int, seed: int,
                           within: tuple[float, float] = (0.75, 0.95),
                           across: tuple[float, float] = (0.05, 0.25),
                           weights: str = "uniform") -> PlantedFixture:
    """Blocks with high within-similarity and low cross-similarity."""
    if n < 2 or blocks < 1 or blocks > n:
        raise BadParams("need 1 <= blocks <= n and n >= 2")
    rng = np.random.default_rng(seed)
    labels = np.sort(rng.integers(0, blocks, size=n))
    for b in range(blocks):
        if not (labels == b).any():
            labels[int(rng.integers(n))] = b
    labels = np.sort(labels)
    same = labels[:, None] == labels[None, :]
    lo = rng.uniform(*across, size=(n, n))
    hi = rng.uniform(*within, size=(n, n))
    raw = np.where(same, hi, lo)
    sim = np.triu(raw) + np.triu(raw, 1).T
    np.fill_diagonal(sim, within[1])
    space = SimilaritySpace(points=tuple(f"p{i}" for i in range(n)),
                            weights=_weights(n, rng, weights),
                            sim=sim, bound=1.0)
    return PlantedFixture(space=space, labels=tuple(int(v) for v in labels))


def generate_fixture(kind: str, size: int, params: dict, seed: int
                     ) -> PlantedFixture:
    """Dispatch by kind; see KINDS.  Deterministic per seed."""
    params = dict(params or {})
    weights = params.pop("weights", "uniform")
    if kind == "ultrametric":
        levels = params.pop("levels", [0.25, 0.5, 0.75])
        _reject_extra(params)
        return ultrametric_fixture(size, levels, seed, weights)
    if kind == "tree-scaled":
        depth = int(params.pop("depth", 3))
        alpha = float(params.pop("alpha", 0.25))
        _reject_extra(params)
        return tree_scaled_fixture(size, depth, alpha, seed, weights)
    if kind == "noisy-tree":
        depth = int(params.pop("depth", 3))
        alpha = float(params.pop("alpha", 0.25))
        noise = float(params.pop("noise", 0.02))
        _reject_extra(params)
        return noisy_tree_fixture(size, depth, alpha, noise, seed, weights)
    if kind == "random":
        bound = float(params.pop("bound", 1.0))
        _reject_extra(params)
        return random_fixture(size, seed, weights, bound)
    if kind == "planted-blocks":
        blocks = int(params.pop("blocks", 3))
        _reject_extra(params)
        return planted_blocks_fixture(size, blocks, seed, weights=weights)
    raise BadParams(f"unknown fixture kind {kind!r} (choose from {KINDS})")


def _reject_extra(params: dict) -> None:
    if params:
        raise BadParams(f"unused fixture parameters: {sorted(params)}")
