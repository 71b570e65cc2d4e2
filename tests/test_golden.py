"""Pinned sha256 digests of CLI files and stdout.

Each case runs its steps in a fresh working directory with relative paths,
so the ``config`` blocks of the reports do not depend on where the test
runs.  A step is either an argv list for ``treelike`` (which must exit 0) or
a ``(name, text)`` pair that writes an input file.  The digests cover every
file in the directory after the last step and that step's stdout; they were
recorded before the JSON writer learned to stream and to format arrays a row
at a time, and pin that those changes left every byte in place.  The
``tree-report-out-newick`` report and stdout were re-pinned when tree costs
began to be summed over groups of twin points: its space has 13 distinct
rows for 20 points, and ``cost_at_kappa`` and ``best_cost`` moved from
0.010277402395547235 to 0.010277402395547237, one unit in the last place.
The ``cliques-ultrametric-coarse`` file was re-pinned when isolated vertices
began to share one spectral bucket: its two isolated points p9 and p18, in
buckets of their own before, now share one, so the part of p18 comes right
after that of p9; every other key is unchanged.  The ``hyp-json`` stdout
was re-pinned when ``hyp_exact`` began to visit each set of three points
once, which reorders its sum: ``hyp`` moved from 7.2148256351089435e-06 to
7.2148256351089419e-06, two units in the last place, and the correctly
rounded sum of the same terms, 7.2148256351089427e-06, lies one unit from
each; every other key is unchanged.  The ``fixture-random`` and
``fixture-planted-blocks`` stdout was re-pinned when ``fixture`` began to
reject ``--tree-out`` for kinds that plant no tree: the cases dropped the
flag, so ``tree_out`` in the printed config went from ``"tree.json"`` to
null; their space files are unchanged.  The ``spinglass-spectral`` digests
were recorded before the spectral cells came to be numbered by the routine
that numbers a space's distinct rows, and pin that the cells kept their
members and order.  The ``ladder-profile-csv`` digests were recorded when
``bad_set_profile`` came to run on the walk of ``hyp_exact``: its masses
moved by at most 1.3e-16, and the 18 empty R_t above t = 0 that the
scatter before it left as residues near 1.2e-16 are written as 0.  The
``spinglass-spectral`` report and stdout were re-pinned when ``hyp`` came
to be read from the mass table on spaces of few values: its space has 512
distinct rows and 6 values, and ``hyp`` moved from 0.027276334753638116 to
0.027276334753638092, 7 units in the last place; every other key and the
tree file are unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from treelike.cli import main

K = 1e-12 ** (1 / 24)
UNIT = ["--epsilon", "1e-12", "--m", "16"]
LEVELS = json.dumps({"levels": [K, 2 * K, 3 * K]})
ULTRAMETRIC = ["fixture", "--kind", "ultrametric", "--size", "20", "--seed",
               "5", "--params", LEVELS, "--out", "space.json"]
NOISY = [["fixture", "--kind", "noisy-tree", "--size", "24", "--seed", "2",
          "--params", json.dumps({"weights": "random", "alpha": K,
                                  "noise": 1e-4}),
          "--out", "raw.json"],
         ["convert", "--space", "raw.json", "--rescale-out", "space.json"]]
GRAPH = ["convert", "--space", "space.json", "--t", repr(K), "--graph-out",
         "graph.json"]
# a four-cycle with unit sides plus a far point, in a metric file
METRIC = ("metric.json", json.dumps({"dist": [
    [0.0, 1.0, 2.0, 1.0, 3.5], [1.0, 0.0, 1.0, 2.0, 2.5],
    [2.0, 1.0, 0.0, 1.0, 3.0], [1.0, 2.0, 1.0, 0.0, 4.0],
    [3.5, 2.5, 3.0, 4.0, 0.0]]}))


def fixture_case(kind):
    # random and planted-blocks plant no tree, so they reject --tree-out
    tree_out = [] if kind in ("random", "planted-blocks") else [
        "--tree-out", "tree.json"]
    return [["fixture", "--kind", kind, "--size", "12", "--seed", "7",
             "--out", "space.json", *tree_out]]


CASES = {
    **{f"fixture-{kind}": fixture_case(kind)
       for kind in ("ultrametric", "tree-scaled", "noisy-tree", "random",
                    "planted-blocks")},
    "fixture-noisy-rescaled": NOISY,
    "tree-report-out-newick": [ULTRAMETRIC, [
        "tree", "--space", "space.json", *UNIT, "--report", "report.json",
        "--out", "tree.json", "--newick", "tree.nwk"]],
    "tree-noisy-random-weights": [*NOISY, [
        "tree", "--space", "space.json", *UNIT, "--delta0", "0.05",
        "--report", "report.json", "--out", "tree.json", "--newick",
        "tree.nwk"]],
    "ladder-out": [ULTRAMETRIC, [
        "ladder", "--space", "space.json", *UNIT, "--out", "ladder.json"]],
    # the full bad-set profile, with exact zeros where R_t is empty
    "ladder-profile-csv": [*NOISY, [
        "ladder", "--space", "space.json", *UNIT, "--delta0", "0.05",
        "--profile-csv", "profile.csv"]],
    # at epsilon 1e-12 every part is a single point and densities are null
    "partition-out-single-points": [ULTRAMETRIC, GRAPH, [
        "partition", "--graph", "graph.json", *UNIT, "--out", "parts.json"]],
    "partition-out-coarse": [ULTRAMETRIC, GRAPH, [
        "partition", "--graph", "graph.json", "--epsilon", "0.2", "--m", "4",
        "--out", "parts.json"]],
    # the repair chain's stages, stage measures and total measure: leftover
    # parts cleared on the spectral path, groups completed on the forced one
    "cliques-ultrametric-coarse": [ULTRAMETRIC, [
        "cliques", "--space", "space.json", "--t", repr(2 * K), "--epsilon",
        "0.2", "--m", "4", "--out", "cliques.json"]],
    "cliques-noisy": [*NOISY, [
        "cliques", "--space", "space.json", "--t", "0.25", *UNIT, "--out",
        "cliques.json"]],
    "convert-space-out": [METRIC, [
        "convert", "--metric", "metric.json", "--base", "4", "--space-out",
        "converted.json"]],
    "split-out-map": [ULTRAMETRIC, [
        "split", "--space", "space.json", "--delta", "0.02", "--out",
        "split.json", "--map", "map.json"]],
    "hyp-json": [*NOISY, [
        "hyp", "--space", "space.json", "--mc", "100", "--format", "json"]],
    # the only case whose build takes the spectral path: its one repair
    # buckets 512 states at cut 513, and its eigenvectors come from LAPACK
    "spinglass-spectral": [[
        "spinglass", "--n", "10", "--mcmc", "0", "--beta", "3.0", "--seed",
        "3", "--epsilon", "5.96e-8", "--m", "4", "--delta0", "0.24", "--f",
        "abs", "--report", "report.json", "--out", "tree.json"]],
}


def run_case(steps, capsys) -> dict:
    """Run the steps in the current directory; digest its files and the
    last step's stdout."""
    for step in steps:
        capsys.readouterr()
        if isinstance(step, tuple):
            Path(step[0]).write_text(step[1])
        else:
            assert main(list(step)) == 0
    digests = {"stdout": capsys.readouterr().out.encode()}
    digests.update({p.name: p.read_bytes() for p in Path(".").iterdir()})
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(digests.items())}


GOLDEN = {
    "fixture-ultrametric": {
        "space.json":
            "82f053251f937a8d229d133007284dd767cfcff1fa38d20e7c8bd88f2d2fce06",
        "stdout":
            "4c2efb4c0482e6936967d4ba6039f9257d87f404e5a7d0438c1c60d0d8a40e61",
        "tree.json":
            "4b84ed6b4b22250782b50f1921b999ded80f13ca40c021c5221e6cf68382d29b",
    },
    "fixture-tree-scaled": {
        "space.json":
            "1e71a42090a3286a60e937ae555cabf90657b1177ff196e1fe79d8f7020ae1a6",
        "stdout":
            "512074b3de2347ff0eaa0ba7feaab826c02c5f1169479b6aa9d35c091246eb03",
        "tree.json":
            "4b84ed6b4b22250782b50f1921b999ded80f13ca40c021c5221e6cf68382d29b",
    },
    "fixture-noisy-tree": {
        "space.json":
            "09ddeaa3d6e3ab5c0bf99c5d798e1880be970a3ed9ec7da4ac34def54c67d403",
        "stdout":
            "dab16a4638862108dfd3bbd09708445562bd248b4710ac895930ebcd7f70d750",
        "tree.json":
            "4b84ed6b4b22250782b50f1921b999ded80f13ca40c021c5221e6cf68382d29b",
    },
    "fixture-random": {
        "space.json":
            "62c4eb748ddf240921c2460bb4e5fa81900270a452061e000d8785416fbd6cfb",
        "stdout":
            "09fa75d90630905c9fe359ffb8e2e019eaa9d03bfa1287fb20f399f6664677cc",
    },
    "fixture-planted-blocks": {
        "space.json":
            "1a679e8a2567a3a98bd36c944b668c44d17ccb09892442f8a860b6c8782434b4",
        "stdout":
            "fff06c1a238def9626ef0e613c2d32251878dc68ee133ad76f2a2603b65cb39f",
    },
    "fixture-noisy-rescaled": {
        "raw.json":
            "b0b713266337bd657988afd1c8f5b2bf1ec4083d013f656f30a93291ea430663",
        "space.json":
            "7474b7068a61e12b7212914002f7543d064b2c206170dc5b4987837886f23136",
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tree-report-out-newick": {
        "report.json":
            "0a71ac8ebe96b8dc685ccf63001324a4f108f5eca356c0eb898e315c0f1d5989",
        "space.json":
            "ce8d1902bab9a7bedfd8b533d02c528111c73a434f54e2587b65397422ebd865",
        "stdout":
            "64c4af4d1abaf9668e0eaec6d012cb5e70c627130e49ecad2122e0d049684438",
        "tree.json":
            "a6e4fc4850a04c1907b6107fb2c511f095b89c9b54449e331981d1df63701de3",
        "tree.nwk":
            "5da83483577dcc5a71705e8a0e74da2b0a5812de4ee13fdc6c0b6542ec2734ad",
    },
    "tree-noisy-random-weights": {
        "raw.json":
            "b0b713266337bd657988afd1c8f5b2bf1ec4083d013f656f30a93291ea430663",
        "report.json":
            "61cbd4c9b3ff74494cdefb7cf3b555e50fa8a5e9c32179de5be30c7237881cbd",
        "space.json":
            "7474b7068a61e12b7212914002f7543d064b2c206170dc5b4987837886f23136",
        "stdout":
            "11832ca2f42d818b6d030785f855dcbd623d4d249c116871f3fd5cf9b927bc16",
        "tree.json":
            "235fc303791b506129c2e9281a5531c2f2ac1ae5a6c50ac07a7dfe27f8d73af0",
        "tree.nwk":
            "fb23ff34561b4e143951cdc14698a6be6341e1830e54df57c13e630495ccf175",
    },
    "ladder-out": {
        "ladder.json":
            "3e0990b4ac6b0b74c847a3d95ea3fcb6e05093b62747a738f763ab39e260b085",
        "space.json":
            "ce8d1902bab9a7bedfd8b533d02c528111c73a434f54e2587b65397422ebd865",
        "stdout":
            "d3cf6b40037dd1abdc1bac26237420adfb51f9a2d704d18e35334ef5cfa4cc42",
    },
    "ladder-profile-csv": {
        "profile.csv":
            "4c6444cc1aa3909aceb62fd28681bec94d4a0de576614434c205da03acaf4465",
        "raw.json":
            "b0b713266337bd657988afd1c8f5b2bf1ec4083d013f656f30a93291ea430663",
        "space.json":
            "7474b7068a61e12b7212914002f7543d064b2c206170dc5b4987837886f23136",
        "stdout":
            "166d5d5849823e61b6188623ae19145b6d4b99c19a9c775b99301e2df5d9ca34",
    },
    "partition-out-single-points": {
        "graph.json":
            "859980f5627cac1aec109d1c06933717f460648aa40032107968edcdc28e89dd",
        "parts.json":
            "b8bad1db7aa423e701bd930469397de9dae16f934c64777c1287de6de8634b7c",
        "space.json":
            "ce8d1902bab9a7bedfd8b533d02c528111c73a434f54e2587b65397422ebd865",
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "partition-out-coarse": {
        "graph.json":
            "859980f5627cac1aec109d1c06933717f460648aa40032107968edcdc28e89dd",
        "parts.json":
            "a6c684db754bb41b2a0909d64e5f70e0bd86ad287891eeb15d4e5d380486b192",
        "space.json":
            "ce8d1902bab9a7bedfd8b533d02c528111c73a434f54e2587b65397422ebd865",
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "cliques-ultrametric-coarse": {
        "cliques.json":
            "eb8713d552006970e1f2d6a2e4b8399994e68d68244fae7e4daed9360dd76bfb",
        "space.json":
            "ce8d1902bab9a7bedfd8b533d02c528111c73a434f54e2587b65397422ebd865",
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "cliques-noisy": {
        "cliques.json":
            "3534f1836ab0cd0dc8e898c8872f5a9576552de0abb801340a5b3a06f61d6ad3",
        "raw.json":
            "b0b713266337bd657988afd1c8f5b2bf1ec4083d013f656f30a93291ea430663",
        "space.json":
            "7474b7068a61e12b7212914002f7543d064b2c206170dc5b4987837886f23136",
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "convert-space-out": {
        "converted.json":
            "8c431c40fa48b56b4fac5895f2ac1a3417dd272b771c2c2a84d7a67f2e970da7",
        "metric.json":
            "251c75cd662bdd98ce9023d8135a4a1883a5e6de5d0aadc3c4cc8c1df13a28fa",
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "split-out-map": {
        "map.json":
            "123fb00435ec583753c7cf2d390d53c98b2199b16a8d05f190bff0197c14d627",
        "space.json":
            "ce8d1902bab9a7bedfd8b533d02c528111c73a434f54e2587b65397422ebd865",
        "split.json":
            "cd6d9d43b8dd7121058451715c9425e8db4ea3a2ed585bbc638dc6d95acab01a",
        "stdout":
            "88de452929474a92c272189b6e88c0ac0f5896c65f08b20ce63c40b7267b175a",
    },
    "hyp-json": {
        "raw.json":
            "b0b713266337bd657988afd1c8f5b2bf1ec4083d013f656f30a93291ea430663",
        "space.json":
            "7474b7068a61e12b7212914002f7543d064b2c206170dc5b4987837886f23136",
        "stdout":
            "9e0067ffa15cf48b20c8e53f76c73c477b3ae8657120e11a8ad56637c23f1e5f",
    },
    "spinglass-spectral": {
        "report.json":
            "b30bcef6a9ffa39bd2c7715178e892bdd0ea4f3a729794f5954d4d4c7d7c1c49",
        "stdout":
            "b30bcef6a9ffa39bd2c7715178e892bdd0ea4f3a729794f5954d4d4c7d7c1c49",
        "tree.json":
            "79551fe34c000c73326dc16cb0581d9ce4125b14b7303a2d40714fda33926f1f",
    },
}


@pytest.mark.parametrize("case", list(CASES))
def test_golden_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[case], capsys) == GOLDEN[case]
