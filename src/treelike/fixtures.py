"""Seeded test-space generators.

Each kind exercises a different hypothesis: ultrametric and tree-scaled
spaces have zero average defect, noisy trees have defect bounded by twice
the noise, planted blocks feed the clique stages, and random spaces give
the Monte Carlo and profile checks something nontrivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompatibleTree, SimilaritySpace, _products, \
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
    if not level_values:
        raise BadParams("need at least one level value")
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


def _tree_scaled(n: int, depth: int, alpha: float, seed: int, weights: str
                 ) -> tuple[tuple[str, ...], CompatibleTree, np.ndarray, float,
                            np.ndarray]:
    """The points, tree, similarity, bound and weights of a tree-scaled
    space, before the space is made."""
    if n < 2:
        raise BadParams("need at least 2 points")
    if depth < 1:
        raise BadParams(f"depth must be at least 1, not {depth!r}")
    if not 0.0 <= alpha < np.inf:
        raise BadParams(f"alpha must be finite and nonnegative, not {alpha!r}")
    rng = np.random.default_rng(seed)
    levels = _random_hierarchy(n, depth, rng)
    points = tuple(f"p{i}" for i in range(n))
    tree = _tree_from_hierarchy(points, levels)
    sim = alpha * _products(tree, tree.leaf).astype(float)
    bound = max(float(sim.max()), 1.0)
    return points, tree, sim, bound, _weights(n, rng, weights)


def tree_scaled_fixture(n: int, depth: int, alpha: float, seed: int,
                        weights: str = "uniform") -> PlantedFixture:
    """Random compatible tree, similarity = alpha times the leaf products."""
    points, tree, sim, bound, w = _tree_scaled(n, depth, alpha, seed, weights)
    space = SimilaritySpace(points=points, weights=w, sim=sim, bound=bound)
    return PlantedFixture(space=space, tree=tree, alpha=alpha)


def noisy_tree_fixture(n: int, depth: int, alpha: float, noise: float,
                       seed: int, weights: str = "uniform") -> PlantedFixture:
    """Tree-scaled space plus symmetric uniform noise of the given magnitude,
    clipped into [0, bound]; the average defect is at most twice the noise."""
    if not 0.0 <= noise < np.inf:
        raise BadParams(f"noise must be finite and nonnegative, not {noise!r}")
    points, tree, sim, bound, w = _tree_scaled(n, depth, alpha, seed, weights)
    rng = np.random.default_rng((seed, 1))
    raw = rng.uniform(-noise, noise, size=(n, n))
    sym = np.triu(raw) + np.triu(raw, 1).T
    space = SimilaritySpace(points=points, weights=w,
                            sim=np.clip(sim + sym, 0.0, bound), bound=bound)
    return PlantedFixture(space=space, tree=tree, alpha=alpha, noise=noise)


def random_fixture(n: int, seed: int, weights: str = "uniform",
                   bound: float = 1.0) -> PlantedFixture:
    """Symmetric uniform similarities in [0, bound], diagonal included."""
    if n < 2:
        raise BadParams("need at least 2 points")
    if not 0.0 < bound < np.inf:
        raise BadParams(f"bound must be finite and positive, not {bound!r}")
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
    """Dispatch by kind; see KINDS.  Deterministic per seed.

    ``params`` maps parameter names to values as JSON gives them.  Each
    value is converted here, and one that does not convert, or a name the
    kind does not take, raises BadParams naming it.
    """
    if not isinstance(params or {}, dict):
        raise BadParams("fixture parameters must be an object of names and "
                        f"values, not {params!r}")
    params = dict(params or {})
    weights = params.pop("weights", "uniform")
    if kind == "ultrametric":
        levels = _param(params, "levels", [0.25, 0.5, 0.75], _floats)
        _reject_extra(params)
        return ultrametric_fixture(size, levels, seed, weights)
    if kind == "tree-scaled":
        depth = _param(params, "depth", 3, int)
        alpha = _param(params, "alpha", 0.25, float)
        _reject_extra(params)
        return tree_scaled_fixture(size, depth, alpha, seed, weights)
    if kind == "noisy-tree":
        depth = _param(params, "depth", 3, int)
        alpha = _param(params, "alpha", 0.25, float)
        noise = _param(params, "noise", 0.02, float)
        _reject_extra(params)
        return noisy_tree_fixture(size, depth, alpha, noise, seed, weights)
    if kind == "random":
        bound = _param(params, "bound", 1.0, float)
        _reject_extra(params)
        return random_fixture(size, seed, weights, bound)
    if kind == "planted-blocks":
        blocks = _param(params, "blocks", 3, int)
        _reject_extra(params)
        return planted_blocks_fixture(size, blocks, seed, weights=weights)
    raise BadParams(f"unknown fixture kind {kind!r} (choose from {KINDS})")


def _floats(value) -> list[float]:
    if not isinstance(value, list):
        raise TypeError("it is not a list")
    return [float(v) for v in value]


def _param(params: dict, name: str, default, convert):
    """Remove params[name], default if absent, and convert it."""
    value = params.pop(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"fixture parameter {name!r} = {value!r}: {exc}"
                        ) from None


def _reject_extra(params: dict) -> None:
    if params:
        raise BadParams(f"unused fixture parameters: {sorted(params)}")
