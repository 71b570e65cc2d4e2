"""Pinned sha256 digests of every output of the cluster-repair chain.

The chain is ``threshold_graph`` -> ``regularity_pipeline`` ->
``part_neighbor_graph`` -> ``neighborhood_family`` -> ``clique_closure`` ->
``clique_repair``, plus a build's repair of the cluster on the spaces
(``treebuild._repair_row``, which settles it in one pass or runs the
chain).  Each case runs the chain at epsilon 1e-12 (the forced
single-point partition) and at epsilon 0.2 (the spectral path, with
multi-point parts and the sampled tester on the heavy/light graphs), and
digests each output: array dtypes, shapes and bytes, ``repr`` of tuples,
dicts and floats, and the type and message of the first exception.  So a
rewrite of any stage must keep every returned object bit for bit and raise
the same error first.

The digests in ``chain_digests.json`` were recorded with OpenBLAS on
x86-64; ``PYTHONPATH=src python tests/test_chain_digests.py`` records them
again.  The epsilon-0.2 cases depend on the eigensolver only through the
cells of points whose coordinates differ by rounding noise.  Seven of them
were re-pinned when an isolated vertex's coordinates in the eigenvectors of
nonzero eigenvalues were set to exactly 0: ``er-12-0.1``, ``er-64-0.05``,
``cliques-1-2-3-5-1`` and ``cliques-6-6-1-1-1-1`` (uniform and weighted) and
``noisy-48-t3-sizes``.  Their isolated vertices, each in a bucket of its own
before, now share one, so the same single-point parts come in another
order, which moves the partition and neighbor-graph digests only.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from treelike import (
    RegularityParams,
    WeightedGraph,
    clique_closure,
    clique_repair,
    neighborhood_family,
    part_neighbor_graph,
    regularity_pipeline,
    threshold_graph,
)
from treelike import treebuild
from treelike.errors import BlowupTooLarge, LightClique, NotAClique
from treelike.fixtures import noisy_tree_fixture, planted_blocks_fixture, \
    ultrametric_fixture

DIGESTS = Path(__file__).with_name("chain_digests.json")
K = 1e-12 ** (1 / 24)
SETTINGS = {"forced": (1e-12, 16), "spectral": (0.2, 2)}


def graph(adj, mass=None):
    adj = np.asarray(adj, dtype=bool)
    n = len(adj)
    mass = np.full(n, 1.0 / n) if mass is None else np.asarray(mass, float)
    return WeightedGraph(tuple(f"v{i}" for i in range(n)), mass, adj)


def symmetric(upper):
    upper = np.triu(upper, 1)
    return upper | upper.T


def random_mass(rng, n):
    mass = rng.random(n) + 0.1
    return mass / mass.sum()


def er(n, p, seed, weighted=False):
    rng = np.random.default_rng((seed, n))
    adj = symmetric(rng.random((n, n)) < p)
    return graph(adj, random_mass(rng, n) if weighted else None)


def planted(n, blocks, seed, weighted=False):
    rng = np.random.default_rng((seed, n, blocks))
    labels = np.sort(rng.integers(0, blocks, size=n))
    p = np.where(labels[:, None] == labels, 0.95, 0.05)
    adj = symmetric(rng.random((n, n)) < p)
    return graph(adj, random_mass(rng, n) if weighted else None)


def cliques_of(sizes, seed, weighted=False):
    rng = np.random.default_rng((seed, len(sizes)))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    adj = labels[:, None] == labels
    np.fill_diagonal(adj, False)
    return graph(adj, random_mass(rng, len(labels)) if weighted else None)


def heavy_light(n_heavy, n_light, edges, seed, heavy):
    """Heavy points, a mass of light isolated points and a few edges: the
    light points share the zero cell, so the spectral path cuts them into
    parts of many points."""
    rng = np.random.default_rng((seed, n_heavy, n_light))
    n = n_heavy + n_light
    mass = np.concatenate([np.full(n_heavy, heavy), np.ones(n_light)])
    adj = np.zeros((n, n), dtype=bool)
    for _ in range(edges):
        a, b = rng.choice(n, size=2, replace=False)
        adj[a, b] = adj[b, a] = True
    return graph(adj, mass / mass.sum())


def path_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = True
    return graph(adj)


def light_pair():
    # the pair v0 ~ v1 passes by part count but carries 2e-5 of the mass,
    # below the floor 5e-4 at epsilon 1e-12
    adj = np.zeros((10, 10), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    return graph(adj, [1e-5, 1e-5] + [(1 - 2e-5) / 8] * 8)


def dust(n_dust):
    """Points of mass 1e-30 push their excess onto the heavy points, by more
    than the tolerance at every denominator up to the cap."""
    n = n_dust + 4
    mass = np.concatenate([np.full(4, 0.25), np.full(n_dust, 1e-30)])
    return graph(symmetric(np.ones((n, n), dtype=bool)), mass)


def graph_cases():
    cases = {}
    for n, p in ((2, 0.5), (3, 0.9), (5, 0.5), (12, 0.1), (12, 0.9),
                 (30, 0.5), (64, 0.05)):
        cases[f"er-{n}-{p}"] = er(n, p, 1)
        cases[f"er-{n}-{p}-weighted"] = er(n, p, 2, weighted=True)
    for n, blocks in ((20, 2), (48, 4), (90, 3)):
        cases[f"planted-{n}-{blocks}"] = planted(n, blocks, 3)
        cases[f"planted-{n}-{blocks}-weighted"] = planted(n, blocks, 4, True)
    for sizes in ((4, 4, 4), (1, 2, 3, 5, 1), (10,), (6, 6, 1, 1, 1, 1)):
        name = "cliques-" + "-".join(map(str, sizes))
        cases[name] = cliques_of(sizes, 5)
        cases[name + "-weighted"] = cliques_of(sizes, 6, weighted=True)
    cases["empty-40"] = graph(np.zeros((40, 40)))
    # parts of 6 points (exhaustive tester) and of 14 (sampled tester)
    cases["heavy-light-8-120"] = heavy_light(8, 120, 3, 7, 12.0)
    cases["heavy-light-6-260"] = heavy_light(6, 260, 4, 8, 60.0)
    cases["not-a-clique-path-9"] = path_graph(9)
    cases["light-clique"] = light_pair()
    cases["blowup-dust-520"] = dust(520)
    return cases


def space_cases():
    """(space, idxs, threshold, sizes) for threshold graphs of spaces."""
    levels = [K, 2 * K, 3 * K]
    ultra = ultrametric_fixture(64, levels, 11).space
    ultra_w = ultrametric_fixture(40, levels, 12, weights="random").space
    noisy = noisy_tree_fixture(48, 3, K, 1e-4, 13, weights="random").space
    blocks = planted_blocks_fixture(36, 3, 14).space
    rng = np.random.default_rng(15)
    half = np.sort(rng.choice(64, size=32, replace=False)).tolist()
    twos = rng.integers(1, 3, size=64)
    return {
        "ultra-64-t1": (ultra, list(range(64)), K, None),
        "ultra-64-t2": (ultra, list(range(64)), 2 * K, None),
        "ultra-64-t3-half": (ultra, half, 3 * K, None),
        "ultra-64-t2-sizes": (ultra, list(range(64)), 2 * K, twos),
        "ultra-40-random-t1": (ultra_w, list(range(40)), K, None),
        "ultra-40-random-t2": (ultra_w, list(range(40)), 2 * K, None),
        "noisy-48-t1": (noisy, list(range(48)), K, None),
        "noisy-48-t2": (noisy, list(range(48)), 2 * K, None),
        "noisy-48-t3-sizes": (noisy, list(range(0, 48, 2)), 2 * K,
                              twos[:48]),
        "blocks-36-t05": (blocks, list(range(36)), 0.5, None),
    }


def _blob(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    return repr(value).encode()


def _digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(_blob(value))
        h.update(b"\0")
    return h.hexdigest()


def chain_digests(g, epsilon, m, seed, sizes=None) -> dict:
    """Digest of each stage's output, up to and including the first error."""
    out = {}

    def stage(name, fn, digest_of):
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the error is the output
            out[name] = _digest(type(exc).__name__, str(exc),
                                getattr(exc, "witness", None))
            raise
        out[name] = _digest(*digest_of(result))
        return result

    try:
        part = stage(
            "partition",
            lambda: regularity_pipeline(g, RegularityParams(epsilon, m),
                                        seed=seed),
            lambda r: (r.parts, r.densities, r.regular_flags,
                       list(r.params.items())))
        pg = stage(
            "neighbors", lambda: part_neighbor_graph(part, epsilon),
            lambda r: (r.q, r.neighbor, r.irregular, r.densities,
                       r.dichotomy_violations))
        family = stage("family", lambda: neighborhood_family(pg, epsilon),
                       lambda r: (r,))
        structure = stage(
            "structure", lambda: clique_closure(family, pg, epsilon),
            lambda r: (r.families, r.part_groups, r.extended_groups,
                       r.leftover_parts, r.bad_pairs))
        stage("repair",
              lambda: clique_repair(g, part, structure, epsilon, sizes),
              lambda r: (list(r[1].stages.items()),
                         list(r[1].stage_measures.items()),
                         r[1].total_measure, r[0].vertices, r[0].mass,
                         r[0].adj))
    except Exception:  # noqa: BLE001 - recorded above
        pass
    return out


def repair_one(space, idxs, t, params, seed, sizes):
    """A build's repair of one pending cluster of space points
    (``treebuild._repair_row``): its children as global index lists in
    order of first member, and its edited pairs i < j as global arrays."""
    n = space.n
    classes = treebuild._Classes(
        space.weights, space.sim,
        np.ones(n, dtype=int) if sizes is None else sizes, np.arange(n),
        space.points)
    pend = np.asarray(idxs, dtype=int)
    label, edited = treebuild._repair_row(
        classes, pend, np.array([len(pend)]), t, params, [seed])
    order = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[order])) + 1
    return [c.tolist() for c in np.split(pend[order], bounds)], edited


def space_digests(space, idxs, t, epsilon, m, seed, sizes) -> dict:
    g = threshold_graph(space, t, subset=idxs)
    out = {"graph": _digest(g.vertices, g.mass, g.adj)}
    out.update(chain_digests(g, epsilon, m, seed,
                             None if sizes is None else sizes[idxs]))
    try:
        children, (rows, cols) = repair_one(
            space, idxs, t, RegularityParams(epsilon, m), seed, sizes)
        # the recorded digests hold each pair as (i, j) then (j, i)
        pairs = [pair for i, j in zip(rows.tolist(), cols.tolist())
                 for pair in ((i, j), (j, i))]
        out["cluster"] = _digest(children, pairs)
    except Exception as exc:  # noqa: BLE001 - the error is the output
        out["cluster"] = _digest(type(exc).__name__, str(exc))
    return out


def all_digests(cases=None) -> dict:
    out = {}
    graphs, spaces = graph_cases(), space_cases()
    for setting, (epsilon, m) in SETTINGS.items():
        for k, (name, g) in enumerate(graphs.items()):
            key = f"{name}@{setting}"
            if cases is None or key in cases:
                out[key] = chain_digests(g, epsilon, m, (17, 1, k))
        for k, (name, (space, idxs, t, sizes)) in enumerate(spaces.items()):
            key = f"{name}@{setting}"
            if cases is None or key in cases:
                out[key] = space_digests(space, idxs, t, epsilon, m,
                                         (17, 2, k), sizes)
    return out


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_chain_outputs_match_the_recorded_digests(setting):
    want = {k: v for k, v in _recorded().items() if k.endswith(setting)}
    got = all_digests(set(want))
    assert len(want) == len(graph_cases()) + len(space_cases())
    for key in want:
        assert got[key] == want[key], key


class TestChainErrors:
    """The three error inputs of the corpus raise with these messages."""

    def run(self, g, epsilon, m):
        part = regularity_pipeline(g, RegularityParams(epsilon, m), seed=0)
        pg = part_neighbor_graph(part, epsilon)
        structure = clique_closure(neighborhood_family(pg, epsilon), pg,
                                   epsilon)
        return clique_repair(g, part, structure, epsilon)

    def test_path_is_not_a_clique(self):
        with pytest.raises(NotAClique) as info:
            self.run(path_graph(9), 1e-12, 16)
        assert str(info.value) == (
            "neighborhood component is not complete: families 0 ~ 1 ~ 2 but "
            "the ends are not linked; the hyperbolicity preconditions do not "
            "hold for these parameters")
        assert info.value.witness == (0, 1, 2)

    def test_light_pair_is_a_light_clique(self):
        with pytest.raises(LightClique) as info:
            self.run(light_pair(), 1e-12, 16)
        assert str(info.value) == (
            "clique 0 of 2 points has mass 2e-05, below the floor 0.0005; "
            "its neighborhoods passed by part count, but their points are "
            "too light")

    def test_dust_needs_too_large_a_denominator(self):
        with pytest.raises(BlowupTooLarge) as info:
            self.run(dust(520), 1e-12, 16)
        assert str(info.value) == (
            "common denominator 1024000000000 exceeds cap 1000000000000")


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {DIGESTS}")
