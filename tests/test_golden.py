"""Pinned sha256 digests of CLI files and stdout.

Each case runs its steps in a fresh working directory with relative paths,
so the ``config`` blocks of the reports do not depend on where the test
runs.  A step is either an argv list for ``treelike`` (which must exit 0) or
a ``(name, text)`` pair that writes an input file.  The digests cover every
file in the directory after the last step and that step's stdout; they were
recorded before the JSON writer learned to stream and to format arrays a row
at a time, and pin that those changes left every byte in place.
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
    return [["fixture", "--kind", kind, "--size", "12", "--seed", "7",
             "--out", "space.json", "--tree-out", "tree.json"]]


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
    # at epsilon 1e-12 every part is a single point and densities are null
    "partition-out-single-points": [ULTRAMETRIC, GRAPH, [
        "partition", "--graph", "graph.json", *UNIT, "--out", "parts.json"]],
    "partition-out-coarse": [ULTRAMETRIC, GRAPH, [
        "partition", "--graph", "graph.json", "--epsilon", "0.2", "--m", "4",
        "--out", "parts.json"]],
    "convert-space-out": [METRIC, [
        "convert", "--metric", "metric.json", "--base", "4", "--space-out",
        "converted.json"]],
    "split-out-map": [ULTRAMETRIC, [
        "split", "--space", "space.json", "--delta", "0.02", "--out",
        "split.json", "--map", "map.json"]],
    "hyp-json": [*NOISY, [
        "hyp", "--space", "space.json", "--mc", "100", "--format", "json"]],
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
            "afbd2c11b713e269bcaba7cea3affcd0f5bdf6e5564910f96133f0155fb0eb5f",
    },
    "fixture-planted-blocks": {
        "space.json":
            "1a679e8a2567a3a98bd36c944b668c44d17ccb09892442f8a860b6c8782434b4",
        "stdout":
            "b1712c8cd02f3f9fa9dceb0d56834c1fe33ac4c1892c933fe8b46ddc273a24ad",
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
            "116340508b4d2c0fa5d9eacd9e41304e1a5132f570588baf365eed91af0e3e6b",
        "space.json":
            "ce8d1902bab9a7bedfd8b533d02c528111c73a434f54e2587b65397422ebd865",
        "stdout":
            "69fe30e9ee16531f35de60eb63b63800945fabf74c0ea8c0146ca33e4e159c64",
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
            "21e48df5c151b9f594586a7944e7ee81f4c627ce97abdb0cc797e2b61772a3c1",
    },
}


@pytest.mark.parametrize("case", list(CASES))
def test_golden_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[case], capsys) == GOLDEN[case]
