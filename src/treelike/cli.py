"""Command-line surface.

Every subcommand validates its inputs, dispatches to the library, writes any
requested artifacts, and exits 0 on success or a family-specific nonzero
code on error.  Reports embed the full configuration and seeds, and repeated
runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors as err
from .cliques import clique_closure, clique_repair, neighborhood_family, \
    part_neighbor_graph, verify_cliques
from .core import (
    SimilaritySpace,
    gromov_product_similarity,
    rescale_to_unit,
    threshold_graph,
    tree_gromov_product,
    validate_space,
)
from .fixtures import KINDS, generate_fixture
from .hyperbolicity import (
    bad_set_profile,
    gromov_delta_four_point,
    gromov_delta_worst_case,
    hyp_exact,
    hyp_monte_carlo,
    threshold_ladder,
)
from .io import (
    dump_json,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    metric_from_dict,
    partition_to_dict,
    read_json,
    space_from_dict,
    space_to_dict,
    tree_from_dict,
    tree_to_dict,
    tree_to_newick,
    write_json,
)
from .regularity import RegularityParams, regularity_pipeline
from .spinglass import (
    gibbs_exact,
    gibbs_mcmc,
    overlap_map,
    overlap_space,
    pure_state_tree,
    sk_couplings,
)
from .treebuild import best_alpha, build_tree, converse_check, split_atoms, \
    tree_cost

EXIT_CODES = (
    (err.IOFailure, 8),
    (err.PostconditionFailure, 9),
    (err.NotAClique, 5),
    (err.LightClique, 10),
    ((err.LeafMismatch, err.MapMismatch, err.UnknownLeaf,
      err.TreeStructureError), 6),
    ((err.SizeTooSmall, err.TooLargeForEnumeration, err.BadSchedule,
      err.LengthMismatch, err.DegenerateSample), 7),
    ((err.ZeroMassGraph, err.BlowupTooLarge, err.EigensolveFailure,
      err.HeavyAtom, err.EmptyPart), 4),
    ((err.Delta0TooLarge, err.NoGoodThreshold, err.ThresholdOutOfRange,
      err.ZeroSamples), 3),
    ((err.SpaceValidationError, err.InvalidMetric, err.BadParams), 2),
    (err.TreelikeError, 1),
)


def _exit_code(exc: Exception) -> int:
    for klass, code in EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1


def _load_space(path: str) -> SimilaritySpace:
    space = space_from_dict(read_json(path))
    validate_space(space)
    return space


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_hyp(args) -> int:
    space = _load_space(args.space)
    value = hyp_exact(space)
    out = {"config": _config(args), "hyp": value}
    if args.mc:
        est, se = hyp_monte_carlo(space, args.mc, args.seed)
        out["mc_estimate"] = est
        out["mc_stderr"] = se
    if args.format == "json":
        print(dump_json(out))
    else:
        print(f"{value:.6f}")
        if args.mc:
            print(f"mc {out['mc_estimate']:.6f} stderr {out['mc_stderr']:.2e}")
    if args.out:
        write_json(args.out, out)
    return 0


def cmd_delta(args) -> int:
    if args.base is not None and (args.space or args.four_point):
        raise err.BadParams("delta: --base is read only with --metric and "
                            "without --four-point")
    if args.metric:
        dist, points, weights = metric_from_dict(read_json(args.metric))
        if args.four_point:
            value = gromov_delta_four_point(dist)
        else:
            base = 0 if args.base is None else args.base
            space = gromov_product_similarity(dist, base, points, weights)
            value = gromov_delta_worst_case(space)
    else:
        if args.four_point:
            raise err.BadParams("--four-point needs --metric input")
        value = gromov_delta_worst_case(_load_space(args.space))
    if args.format == "json":
        print(dump_json({"config": _config(args), "delta": value}))
    else:
        print(f"{value:.6f}")
    return 0


def cmd_ladder(args) -> int:
    space = _load_space(args.space)
    ladder = threshold_ladder(space, args.epsilon, args.m, delta0=args.delta0)
    out = {
        "config": _config(args),
        "kappa": ladder.kappa,
        "delta0": ladder.delta0,
        "n_levels": ladder.n_levels,
        "thresholds": list(ladder.thresholds),
        "hyp": ladder.hyp,
        "candidates": {f"{t!r}": m for t, m in sorted(ladder.profile.items())},
    }
    print(dump_json(out) if args.format == "json" else
          f"kappa {ladder.kappa:.6f} delta0 {ladder.delta0:.6f} "
          f"levels {ladder.n_levels} thresholds "
          + " ".join(f"{t:.6f}" for t in ladder.thresholds))
    if args.out:
        write_json(args.out, out)
    if args.profile_csv:
        ts, masses = bad_set_profile(space)
        lines = ["t,mass"]
        lines += [f"{t:.17g},{m:.17g}" for t, m in zip(ts, masses)]
        _write_text(args.profile_csv, "\n".join(lines) + "\n")
    return 0


def cmd_partition(args) -> int:
    graph = graph_from_dict(read_json(args.graph))
    params = RegularityParams(epsilon=args.epsilon, m=args.m)
    result = regularity_pipeline(graph, params, seed=args.seed)
    out = partition_to_dict(result)
    out["config"] = _config(args)
    if args.out:
        write_json(args.out, out)
    else:
        print(dump_json(out))
    if args.dot:
        part_of = {}
        for pi, part in enumerate(result.parts):
            for v in part:
                part_of[v] = pi
        _write_text(args.dot, graph_to_dot(graph, part_of))
    return 0


def cmd_cliques(args) -> int:
    space = _load_space(args.space)
    graph = threshold_graph(space, args.t)
    params = RegularityParams(epsilon=args.epsilon, m=args.m)
    partition = regularity_pipeline(graph, params, seed=args.seed)
    pg = part_neighbor_graph(partition, args.epsilon)
    family = neighborhood_family(pg, args.epsilon)
    structure = clique_closure(family, pg, args.epsilon)
    repaired, log = clique_repair(graph, partition, structure, args.epsilon)
    check = verify_cliques(repaired)
    out = {
        "config": _config(args),
        "parts": [list(p) for p in partition.parts],
        "families": [list(f) for f in structure.families],
        "groups": [list(g) for g in structure.extended_groups],
        "leftover_parts": list(structure.leftover_parts),
        "bad_pairs": [list(p) for p in structure.bad_pairs],
        "stages": {k: [list(p) for p in v] for k, v in log.stages.items()},
        "stage_measures": log.stage_measures,
        "total_measure": log.total_measure,
        "cliques": [list(c) for c in check.cliques],
    }
    if args.out:
        write_json(args.out, out)
    else:
        print(dump_json(out))
    if args.dot_before:
        _write_text(args.dot_before, graph_to_dot(graph))
    if args.dot_after:
        _write_text(args.dot_after, graph_to_dot(repaired))
    return 0


def cmd_tree(args) -> int:
    space = _load_space(args.space)
    report = build_tree(space, args.epsilon, args.m, seed=args.seed,
                        delta0=args.delta0)
    out = {
        "config": _config(args),
        "kappa": report.kappa,
        "delta0": report.delta0,
        "cost_at_kappa": report.cost,
        "best_alpha": report.best_alpha,
        "best_cost": report.best_cost,
        "delta_e_total": report.delta_e_total,
        "excluded_points": list(report.excluded_points),
        "sandwich_violations": [list(p) for p in report.sandwich_violations],
        "cost_bound": report.cost_bound,
        "cost_bound_ok": report.cost_bound_ok,
        "levels": [[list(c) for c in row] for row in report.levels],
    }
    if args.report:
        write_json(args.report, out)
    print(dump_json({k: out[k] for k in
                     ("kappa", "delta0", "cost_at_kappa", "best_alpha",
                      "best_cost", "delta_e_total")}))
    if args.out:
        write_json(args.out, tree_to_dict(report.tree))
    if args.newick:
        _write_text(args.newick, tree_to_newick(report.tree) + "\n")
    return 0


def cmd_eval(args) -> int:
    space = _load_space(args.space)
    tree = tree_from_dict(read_json(args.tree))
    out = {"config": _config(args)}
    if args.converse:
        rep = converse_check(space, tree, args.alpha)
        out["cost"] = rep.cost
        out["hyp"] = rep.hyp
        out["bound"] = rep.bound
        out["margin"] = rep.margin
        out["passed"] = rep.passed
    else:
        out["cost"] = tree_cost(space, tree, args.alpha)
    print(dump_json(out))
    return 0


def cmd_alpha(args) -> int:
    space = _load_space(args.space)
    tree = tree_from_dict(read_json(args.tree))
    alpha, cost = best_alpha(space, tree)
    print(dump_json({"config": _config(args), "alpha": alpha, "cost": cost}))
    return 0


def cmd_split(args) -> int:
    space = _load_space(args.space)
    split, mapping = split_atoms(space, args.delta)
    if args.out:
        write_json(args.out, space_to_dict(split))
    if args.map:
        write_json(args.map, mapping)
    print(dump_json({
        "config": _config(args),
        "points_before": space.n,
        "points_after": split.n,
        "max_atom": float(split.weights.max()),
    }))
    return 0


def cmd_spinglass(args) -> int:
    model = sk_couplings(args.n, beta=args.beta, seed=args.seed)
    mapping = overlap_map(args.f)
    if args.mcmc:
        samples = gibbs_mcmc(model, steps=args.mcmc, burn_in=args.burn_in,
                             thin=args.thin, seed=args.seed + 1)
        space = overlap_space(samples, None, mapping)
    else:
        configs, probs = gibbs_exact(model)
        space = overlap_space(configs, probs, mapping)
    report = pure_state_tree(space, mapping, args.epsilon, args.m,
                             seed=args.seed, delta0=args.delta0)
    out = {
        "config": _config(args),
        "n_states": space.n,
        "hyp": report.overlap_defect,
        "tree_cost": report.build.best_cost,
        "scale": report.scale,
        "level_values": list(report.level_values),
        "clamped_levels": list(report.clamped_levels),
        "mean_abs_error": report.mean_error,
    }
    if args.report:
        write_json(args.report, out)
    print(dump_json(out))
    if args.out:
        write_json(args.out, tree_to_dict(report.build.tree))
    return 0


def cmd_fixture(args) -> int:
    params = json.loads(args.params) if args.params else {}
    fx = generate_fixture(args.kind, args.size, params, args.seed)
    write_json(args.out, space_to_dict(fx.space))
    if args.tree_out and fx.tree is not None:
        write_json(args.tree_out, tree_to_dict(fx.tree))
    print(dump_json({
        "config": _config(args),
        "points": fx.space.n,
        "bound": fx.space.bound,
    }))
    return 0


# each convert output, the inputs it needs and the inputs it may also read
CONVERT_OUTPUTS = (
    ("rescale_out", ("space",), ()),
    ("space_out", ("metric",), ("base",)),
    ("dot", ("space", "t"), ()),
    ("graph_out", ("space", "t"), ()),
    ("newick", ("tree",), ()),
)
CONVERT_INPUTS = ("space", "metric", "tree", "base", "t")


def cmd_convert(args) -> int:
    given = [(out, needs, extra) for out, needs, extra in CONVERT_OUTPUTS
             if getattr(args, out) is not None]
    if not given:
        raise err.BadParams("convert: no output given")
    for out, needs, _ in given:
        missing = [f"--{n}" for n in needs if getattr(args, n) is None]
        if missing:
            raise err.BadParams(f"convert: --{out.replace('_', '-')} needs "
                                + " and ".join(missing))
    read = {n for _, needs, extra in given for n in needs + extra}
    unread = [f"--{n}" for n in CONVERT_INPUTS
              if getattr(args, n) is not None and n not in read]
    if unread:
        raise err.BadParams("convert: no requested output reads "
                            + " or ".join(unread))
    # every output is built before the first one is written
    needed = {n for _, needs, _ in given for n in needs}
    if "space" in needed:
        space = _load_space(args.space)
    writes = []
    if args.rescale_out is not None:
        writes.append((write_json, args.rescale_out,
                       space_to_dict(rescale_to_unit(space))))
    if args.space_out is not None:
        dist, points, weights = metric_from_dict(read_json(args.metric))
        base = 0 if args.base is None else args.base
        converted = gromov_product_similarity(dist, base, points, weights)
        validate_space(converted)
        writes.append((write_json, args.space_out, space_to_dict(converted)))
    if "t" in needed:
        graph = threshold_graph(space, args.t)
    if args.dot is not None:
        writes.append((_write_text, args.dot, graph_to_dot(graph)))
    if args.graph_out is not None:
        writes.append((write_json, args.graph_out, graph_to_dict(graph)))
    if args.newick is not None:
        tree = tree_from_dict(read_json(args.tree))
        writes.append((_write_text, args.newick, tree_to_newick(tree) + "\n"))
    for write, path, value in writes:
        write(path, value)
    return 0


def cmd_product(args) -> int:
    tree = tree_from_dict(read_json(args.tree))
    value = tree_gromov_product(tree, args.x, args.y)
    print(dump_json({"config": _config(args), "product": value}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treelike",
        description="Average hyperbolicity and approximate tree embeddings "
                    "of weighted similarity spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seed=True, fmt=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if fmt:
            p.add_argument("--format", choices=("plain", "json"),
                           default="plain")

    p = sub.add_parser("hyp", help="average hyperbolicity of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--mc", type=int, default=0,
                   help="also run a Monte Carlo estimate with this many samples")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_hyp)

    p = sub.add_parser("delta", help="worst-case defect")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--space")
    given.add_argument("--metric")
    p.add_argument("--base", type=int,
                   help="base point for --metric (default 0)")
    p.add_argument("--four-point", action="store_true",
                   help="maximize over all base points (O(n^4), metric only)")
    common(p, seed=False)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("ladder", help="threshold ladder for a unit space")
    p.add_argument("--space", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--out")
    p.add_argument("--profile-csv")
    common(p, seed=False)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("partition", help="regularity partition of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    common(p, fmt=False)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("cliques", help="threshold, partition and repair")
    p.add_argument("--space", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--dot-before")
    p.add_argument("--dot-after")
    common(p, fmt=False)
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("tree", help="build a compatible tree")
    p.add_argument("--space", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--out")
    p.add_argument("--newick")
    p.add_argument("--report")
    common(p, fmt=False)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("eval", help="cost of a tree at a given alpha")
    p.add_argument("--space", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--converse", action="store_true",
                   help="also check hyp <= 5 sqrt(cost)")
    common(p, seed=False, fmt=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("alpha", help="best scale for a fixed tree")
    p.add_argument("--space", required=True)
    p.add_argument("--tree", required=True)
    common(p, seed=False, fmt=False)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("split", help="split heavy atoms into copies")
    p.add_argument("--space", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--map")
    common(p, seed=False, fmt=False)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("spinglass", help="pure-state tree of a sampled model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mcmc", type=int, default=0,
                   help="Metropolis steps (0 means exact enumeration)")
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--thin", type=int, default=100)
    p.add_argument("--f", choices=("id", "abs"), default="abs")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--out")
    p.add_argument("--report")
    common(p, fmt=False)
    p.set_defaults(func=cmd_spinglass)

    p = sub.add_parser("fixture", help="generate a seeded test space")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--params", help="JSON object of kind-specific parameters")
    p.add_argument("--out", required=True)
    p.add_argument("--tree-out")
    common(p, fmt=False)
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("convert", help="convert between file formats")
    p.add_argument("--space")
    p.add_argument("--metric")
    p.add_argument("--tree")
    p.add_argument("--base", type=int,
                   help="base point for --space-out (default 0)")
    p.add_argument("--t", type=float)
    p.add_argument("--rescale-out")
    p.add_argument("--space-out")
    p.add_argument("--graph-out")
    p.add_argument("--dot")
    p.add_argument("--newick")
    common(p, seed=False, fmt=False)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("product", help="tree Gromov product of two points")
    p.add_argument("--tree", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    common(p, seed=False, fmt=False)
    p.set_defaults(func=cmd_product)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except err.TreelikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
