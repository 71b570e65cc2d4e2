"""The four benchmark workloads.

Each workload class sets itself up from a seed in its constructor (the
set-up the benchmark times), runs one op per ``op`` call (the timed part),
and turns an op's result into ``Outputs`` for the correctness check.  The
program only ever sees the generated inputs.

Where the drawn structure decides how much work an op does (how many
clusters get repaired, how often the Metropolis chain accepts a flip), that
structure is drawn once from STRUCTURE_SEED and the workload seed relabels
the points or drives the chain.  Drawing it from the workload seed moved op
time by up to 35% between seeds, which would swamp the changes the
benchmark exists to detect.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from treelike import core, fixtures, io, regularity, spinglass, treebuild

EPSILON = 1e-12
M = 16
KAPPA = EPSILON ** (1.0 / 24.0)
STRUCTURE_SEED = 1
NOISE = 1e-4
DEPTH = 3


@dataclass
class Outputs:
    """What one op produced, split by how it is compared with a reference.

    ``discrete`` values must match exactly, ``floats`` within the relative
    tolerance of check.py, and every ``identities`` entry must be true.
    """

    discrete: dict
    floats: dict
    identities: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def permuted(space: core.SimilaritySpace, seed: int) -> core.SimilaritySpace:
    """The same space with its points relabelled by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(space.n)
    return core.SimilaritySpace(
        points=space.points,
        weights=space.weights[perm],
        sim=space.sim[np.ix_(perm, perm)],
        bound=space.bound,
    )


def space_properties(space: core.SimilaritySpace, weights: str) -> dict:
    """Input properties a later change's gain may depend on."""
    nu = regularity.RegularityParams(epsilon=EPSILON, m=M).nu
    _, n_total = regularity.rationalize_weights(space.weights, nu)
    return {
        "n": space.n,
        "distinct_similarity_values": int(np.unique(space.sim).size),
        "distinct_rows": int(np.unique(space.sim, axis=0).shape[0]),
        "weights": weights,
        "rationalized_N": int(n_total),
    }


def without_config(text: str) -> dict:
    data = json.loads(text)
    data.pop("config", None)
    return data


class BuildUltrametric:
    """Library build_tree on a relabelled ultrametric fixture."""

    name = "build-ultrametric"
    uses_cli = False

    def __init__(self, seed: int, smoke: bool, workdir: str):
        n = 32 if smoke else 512
        fx = fixtures.ultrametric_fixture(n, [KAPPA, 2 * KAPPA, 3 * KAPPA],
                                          STRUCTURE_SEED)
        self.space = permuted(fx.space, seed)

    def op(self, run_cli):
        return treebuild.build_tree(self.space, EPSILON, M, seed=0)

    def outputs(self, report) -> Outputs:
        discrete = {
            "levels": [[list(c) for c in row] for row in report.levels],
            "tree": io.tree_to_dict(report.tree),
            "thresholds": list(report.ladder.thresholds),
            "excluded_points": list(report.excluded_points),
            "n_repairs": report.n_repairs,
        }
        floats = {
            "kappa": report.kappa,
            "delta0": report.delta0,
            "cost": report.cost,
            "best_alpha": report.best_alpha,
            "best_cost": report.best_cost,
            "delta_e_total": report.delta_e_total,
            "cost_bound": report.cost_bound,
            "hyp": report.ladder.hyp,
        }
        return Outputs(
            discrete={k: digest(v) for k, v in discrete.items()},
            floats=floats,
            identities={
                "cost_bound_ok": report.cost_bound_ok,
                "no_sandwich_violations": not report.sandwich_violations,
            },
        )

    def inputs(self) -> dict:
        return space_properties(self.space, "uniform")


class CliTreeWeighted:
    """``treelike tree`` on a relabelled noisy tree with random weights."""

    name = "cli-tree-weighted"
    uses_cli = True

    def __init__(self, seed: int, smoke: bool, workdir: str):
        n = 24 if smoke else 128
        fx = fixtures.noisy_tree_fixture(n, DEPTH, KAPPA, NOISE,
                                         STRUCTURE_SEED, weights="random")
        self.space = permuted(core.rescale_to_unit(fx.space), seed)
        self.paths = {k: os.path.join(workdir, f"{k}.json")
                      for k in ("space", "report", "tree")}
        self.paths["newick"] = os.path.join(workdir, "tree.nwk")
        io.write_json(self.paths["space"], io.space_to_dict(self.space))

    def op(self, run_cli):
        for key in ("report", "tree", "newick"):
            if os.path.exists(self.paths[key]):
                os.remove(self.paths[key])
        return run_cli([
            "tree", "--space", self.paths["space"],
            "--epsilon", repr(EPSILON), "--m", str(M), "--delta0", "0.05",
            "--report", self.paths["report"], "--out", self.paths["tree"],
            "--newick", self.paths["newick"],
        ])

    def outputs(self, stdout: str) -> Outputs:
        with open(self.paths["report"]) as fh:
            report = without_config(fh.read())
        with open(self.paths["tree"]) as fh:
            tree = json.load(fh)
        with open(self.paths["newick"]) as fh:
            newick = fh.read()
        floats = {k: report[k] for k in (
            "kappa", "delta0", "cost_at_kappa", "best_alpha", "best_cost",
            "delta_e_total", "cost_bound")}
        printed = json.loads(stdout)
        floats.update({f"stdout.{k}": v for k, v in printed.items()})
        discrete = {
            "levels": report["levels"],
            "excluded_points": report["excluded_points"],
            "sandwich_violations": report["sandwich_violations"],
            "tree": tree,
            "newick": newick,
        }
        return Outputs(
            discrete={k: digest(v) for k, v in discrete.items()},
            floats=floats,
            identities={"cost_bound_ok": report["cost_bound_ok"]},
        )

    def inputs(self) -> dict:
        return space_properties(self.space, "random")


class CliQuery:
    """``treelike hyp``, ``eval --converse`` and ``alpha`` on one space."""

    name = "cli-query"
    uses_cli = True

    def __init__(self, seed: int, smoke: bool, workdir: str):
        n = 32 if smoke else 512
        fx = fixtures.noisy_tree_fixture(n, DEPTH, KAPPA, NOISE, seed,
                                         weights="uniform")
        self.space = core.rescale_to_unit(fx.space)
        self.space_path = os.path.join(workdir, "space.json")
        self.tree_path = os.path.join(workdir, "tree.json")
        io.write_json(self.space_path, io.space_to_dict(self.space))
        io.write_json(self.tree_path, io.tree_to_dict(fx.tree))

    def op(self, run_cli):
        common = ["--space", self.space_path]
        with_tree = common + ["--tree", self.tree_path]
        return (
            run_cli(["hyp", *common, "--format", "json"]),
            run_cli(["eval", *with_tree, "--alpha", repr(KAPPA),
                     "--converse"]),
            run_cli(["alpha", *with_tree]),
        )

    def outputs(self, stdouts) -> Outputs:
        hyp, evaluated, alpha = (without_config(s) for s in stdouts)
        passed = evaluated.pop("passed")
        floats = {"hyp.hyp": hyp["hyp"]}
        floats.update({f"eval.{k}": v for k, v in evaluated.items()})
        floats.update({f"alpha.{k}": v for k, v in alpha.items()})
        return Outputs(discrete={}, floats=floats,
                       identities={"converse_passed": passed})

    def inputs(self) -> dict:
        return space_properties(self.space, "uniform")


def planted_two_cluster(n_spins: int, per_cluster: int, seed: int):
    """Two random centres; each cluster holds distinct one-spin flips."""
    rng = np.random.default_rng(seed)
    centres = [(2 * rng.integers(0, 2, size=n_spins) - 1).astype(np.int8)
               for _ in range(2)]
    configs, labels = [], []
    for label, centre in enumerate(centres):
        for i in rng.choice(n_spins, size=per_cluster, replace=False):
            c = centre.copy()
            c[i] = -c[i]
            configs.append(c)
            labels.append(label)
    return np.array(configs), labels


class SpinglassPlanted:
    """Metropolis sampling, then the pure-state tree of a planted sample."""

    name = "spinglass-planted"
    uses_cli = False

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        if smoke:
            spins, self.steps, self.burn_in = 6, 600, 100
            planted = (24, 8)
        else:
            spins, self.steps, self.burn_in = 10, 5000, 500
            planted = (48, 16)
        self.model = spinglass.sk_couplings(spins, beta=1.0,
                                            seed=STRUCTURE_SEED)
        self.configs, labels = planted_two_cluster(*planted, seed)
        self.label_of = {"".join("+" if v > 0 else "-" for v in c): lab
                         for c, lab in zip(self.configs, labels)}
        self.mapping = spinglass.overlap_map("abs")

    def op(self, run_cli):
        samples = spinglass.gibbs_mcmc(self.model, self.steps, self.burn_in,
                                       10, seed=self.seed + 1)
        space = spinglass.overlap_space(self.configs, None, self.mapping)
        report = spinglass.pure_state_tree(space, self.mapping, 2.0 ** -24, 4,
                                           seed=self.seed, delta0=0.12)
        return samples, report

    def outputs(self, result) -> Outputs:
        samples, report = result
        level1 = [list(c) for c in report.build.levels[1]]
        recovered = len(level1) == 2 and all(
            len({self.label_of[p] for p in c}) == 1 for c in level1)
        discrete = {
            "samples": hashlib.sha256(samples.tobytes()).hexdigest()
                       + f":{samples.shape}",
            "level1_split": digest(level1),
            "levels": digest([[list(c) for c in row]
                              for row in report.build.levels]),
        }
        floats = {
            "scale": report.scale,
            "level_values": list(report.level_values),
            "overlap_defect": report.overlap_defect,
            "mean_error": report.mean_error,
            "best_cost": report.build.best_cost,
        }
        return Outputs(discrete=discrete, floats=floats,
                       info={"planted_split_recovered": recovered})

    def inputs(self) -> dict:
        space = spinglass.overlap_space(self.configs, None, self.mapping)
        props = space_properties(space, "empirical")
        props["mcmc_spins"] = self.model.n
        props["mcmc_steps"] = self.steps
        return props


WORKLOADS = {w.name: w for w in (BuildUltrametric, CliTreeWeighted, CliQuery,
                                 SpinglassPlanted)}
