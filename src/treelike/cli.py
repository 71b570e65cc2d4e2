"""Command-line surface.

Every subcommand checks its flags, dispatches to the library and returns
the files it asks for and the text it prints.  ``main`` writes all of those
files or none of them, then prints the text and exits 0, or exits with a
family-specific nonzero code on the first error.  A space is checked as
it is read or made, after the tree file in ``eval`` and ``alpha``.  A flag
that a run would not read exits 2 unless it keeps its default: ``delta
--base`` with ``--space`` or ``--four-point``, unread ``convert`` inputs,
``hyp --seed`` without ``--mc``, ``fixture --tree-out`` for a kind that
plants no tree, and ``spinglass --burn-in`` or ``--thin`` without
``--mcmc``.  Reports embed the full configuration and seeds, and repeated
runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import stat
import sys

from . import errors as err
from .cliques import clique_closure, clique_repair, neighborhood_family, \
    part_neighbor_graph, verify_cliques
from .core import (
    gromov_product_similarity,
    rescale_to_unit,
    threshold_graph,
    tree_gromov_product,
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
    json_pieces,
    metric_from_dict,
    partition_to_dict,
    read_json,
    space_from_dict,
    space_to_dict,
    tree_from_dict,
    tree_to_dict,
    tree_to_newick,
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


def _load(path: str, parse):
    """parse(read_json(path)), with the path in an IOFailure of parse."""
    data = read_json(path)
    try:
        return parse(data)
    except err.IOFailure as exc:
        raise err.IOFailure(f"{path}: {exc}") from exc


def _new_file_beside(target: str) -> str:
    """Create an empty file, with the mode open() would give it, in the
    folder of target under a name no file there has yet."""
    folder, name = os.path.split(target)
    for k in itertools.count():
        tmp = os.path.join(folder, f".{name}.{os.getpid()}.{k}.tmp")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:
            continue
        return tmp


def _write_all(outputs: list) -> None:
    """Write each (path, pieces of text) of a command, or none of them.

    A path to a regular file, or to nothing yet, is written to a new
    temporary file in the folder of the file it resolves to, and the
    targets are replaced only after every write has succeeded; a target
    that exists keeps its mode.  A path to anything else, such as a pipe or
    /dev/null, is written in place after the temporaries.  On any failure
    the temporaries are deleted and IOFailure names the path.
    """
    temps: list[tuple[str, str, str]] = []
    in_place = []
    path = None
    try:
        for path, pieces in outputs:
            target = os.path.realpath(path)
            try:
                info = os.stat(target)
            except FileNotFoundError:
                info = None
            if info is not None and stat.S_ISDIR(info.st_mode):
                raise IsADirectoryError("it is a directory")
            if info is not None and not stat.S_ISREG(info.st_mode):
                in_place.append((path, pieces))
                continue
            tmp = _new_file_beside(target)
            temps.append((tmp, target, path))
            if info is not None:
                os.chmod(tmp, stat.S_IMODE(info.st_mode))
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        for path, pieces in in_place:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        for tmp, target, path in temps:
            os.replace(tmp, target)
    except OSError as exc:
        raise err.IOFailure(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp, _, _ in temps:
            if os.path.exists(tmp):
                os.remove(tmp)


def _config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_hyp(args):
    if args.seed != 0 and not args.mc:
        raise err.BadParams("hyp: --seed is read only with --mc")
    space = _load(args.space, space_from_dict)
    value = hyp_exact(space)
    out = {"config": _config(args), "hyp": value}
    text = f"{value:.6f}"
    if args.mc:
        est, se = hyp_monte_carlo(space, args.mc, args.seed)
        out["mc_estimate"] = est
        out["mc_stderr"] = se
        text += f"\nmc {est:.6f} stderr {se:.2e}"
    writes = [(args.out, json_pieces(out))] if args.out else []
    return writes, dump_json(out) if args.format == "json" else text


def cmd_delta(args):
    if args.base is not None and (args.space or args.four_point):
        raise err.BadParams("delta: --base is read only with --metric and "
                            "without --four-point")
    if args.metric:
        dist, points, weights = _load(args.metric, metric_from_dict)
        if args.four_point:
            value = gromov_delta_four_point(dist)
        else:
            value = gromov_delta_worst_case(gromov_product_similarity(
                dist, args.base or 0, points, weights))
    else:
        if args.four_point:
            raise err.BadParams("--four-point needs --metric input")
        value = gromov_delta_worst_case(_load(args.space, space_from_dict))
    return [], (dump_json({"config": _config(args), "delta": value})
                if args.format == "json" else f"{value:.6f}")


def cmd_ladder(args):
    space = _load(args.space, space_from_dict)
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
    writes = []
    if args.out:
        writes.append((args.out, json_pieces(out)))
    if args.profile_csv:
        ts, masses = bad_set_profile(space)
        lines = ["t,mass"]
        lines += [f"{t:.17g},{m:.17g}" for t, m in zip(ts, masses)]
        writes.append((args.profile_csv, ["\n".join(lines) + "\n"]))
    return writes, (dump_json(out) if args.format == "json" else
                    f"kappa {ladder.kappa:.6f} delta0 {ladder.delta0:.6f} "
                    f"levels {ladder.n_levels} thresholds "
                    + " ".join(f"{t:.6f}" for t in ladder.thresholds))


def cmd_partition(args):
    graph = _load(args.graph, graph_from_dict)
    params = RegularityParams(epsilon=args.epsilon, m=args.m)
    result = regularity_pipeline(graph, params, seed=args.seed)
    out = partition_to_dict(result)
    out["config"] = _config(args)
    writes = []
    if args.out:
        writes.append((args.out, json_pieces(out)))
    if args.dot:
        part_of = {}
        for pi, part in enumerate(result.parts):
            for v in part:
                part_of[v] = pi
        writes.append((args.dot, [graph_to_dot(graph, part_of)]))
    return writes, None if args.out else dump_json(out)


def cmd_cliques(args):
    space = _load(args.space, space_from_dict)
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
    writes = []
    if args.out:
        writes.append((args.out, json_pieces(out)))
    if args.dot_before:
        writes.append((args.dot_before, [graph_to_dot(graph)]))
    if args.dot_after:
        writes.append((args.dot_after, [graph_to_dot(repaired)]))
    return writes, None if args.out else dump_json(out)


def cmd_tree(args):
    space = _load(args.space, space_from_dict)
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
    writes = []
    if args.report:
        writes.append((args.report, json_pieces(out)))
    if args.out:
        writes.append((args.out, json_pieces(tree_to_dict(report.tree))))
    if args.newick:
        writes.append((args.newick, [tree_to_newick(report.tree) + "\n"]))
    return writes, dump_json({k: out[k] for k in
                              ("kappa", "delta0", "cost_at_kappa",
                               "best_alpha", "best_cost", "delta_e_total")})


def cmd_eval(args):
    tree = _load(args.tree, tree_from_dict)
    space = _load(args.space, space_from_dict)
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
    return [], dump_json(out)


def cmd_alpha(args):
    tree = _load(args.tree, tree_from_dict)
    space = _load(args.space, space_from_dict)
    alpha, cost = best_alpha(space, tree)
    return [], dump_json({"config": _config(args), "alpha": alpha,
                          "cost": cost})


def cmd_split(args):
    space = _load(args.space, space_from_dict)
    split, mapping = split_atoms(space, args.delta)
    writes = []
    if args.out:
        writes.append((args.out, json_pieces(space_to_dict(split))))
    if args.map:
        writes.append((args.map, json_pieces(mapping)))
    return writes, dump_json({
        "config": _config(args),
        "points_before": space.n,
        "points_after": split.n,
        "max_atom": float(split.weights.max()),
    })


def cmd_spinglass(args):
    # exact enumeration reads no schedule, so it takes only the defaults
    if not args.mcmc and (args.burn_in, args.thin) != (1000, 100):
        raise err.BadParams("spinglass: --burn-in and --thin are read only "
                            "with --mcmc")
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
    writes = []
    if args.report:
        writes.append((args.report, json_pieces(out)))
    if args.out:
        writes.append((args.out,
                       json_pieces(tree_to_dict(report.build.tree))))
    return writes, dump_json(out)


def cmd_fixture(args):
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise err.BadParams(f"--params is not JSON: {exc}") from None
    fx = generate_fixture(args.kind, args.size, params, args.seed)
    if args.tree_out and fx.tree is None:
        raise err.BadParams(f"fixture: --tree-out is read only for kinds "
                            f"that plant a tree, not {args.kind!r}")
    writes = [(args.out, json_pieces(space_to_dict(fx.space)))]
    if args.tree_out:
        writes.append((args.tree_out, json_pieces(tree_to_dict(fx.tree))))
    return writes, dump_json({
        "config": _config(args),
        "points": fx.space.n,
        "bound": fx.space.bound,
    })


# each convert output, the inputs it needs and the inputs it may also read
CONVERT_OUTPUTS = (
    ("rescale_out", ("space",), ()),
    ("space_out", ("metric",), ("base",)),
    ("dot", ("space", "t"), ()),
    ("graph_out", ("space", "t"), ()),
    ("newick", ("tree",), ()),
)
CONVERT_INPUTS = ("space", "metric", "tree", "base", "t")


def cmd_convert(args):
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
        space = _load(args.space, space_from_dict)
    writes = []
    if args.rescale_out is not None:
        writes.append((args.rescale_out,
                       json_pieces(space_to_dict(rescale_to_unit(space)))))
    if args.space_out is not None:
        dist, points, weights = _load(args.metric, metric_from_dict)
        base = 0 if args.base is None else args.base
        converted = gromov_product_similarity(dist, base, points, weights)
        writes.append((args.space_out,
                       json_pieces(space_to_dict(converted))))
    if "t" in needed:
        graph = threshold_graph(space, args.t)
    if args.dot is not None:
        writes.append((args.dot, [graph_to_dot(graph)]))
    if args.graph_out is not None:
        writes.append((args.graph_out, json_pieces(graph_to_dict(graph))))
    if args.newick is not None:
        tree = _load(args.tree, tree_from_dict)
        writes.append((args.newick, [tree_to_newick(tree) + "\n"]))
    return writes, None


def cmd_product(args):
    tree = _load(args.tree, tree_from_dict)
    value = tree_gromov_product(tree, args.x, args.y)
    return [], dump_json({"config": _config(args), "product": value})


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


def _signed_values(argv: list[str]) -> list[str]:
    """``--flag VALUE`` as ``--flag=VALUE`` where VALUE starts with '-' and
    reads as a float.

    argparse takes "-0.1" after a flag for its value, but "-1e-1", "-inf"
    and "-nan" for options, which leaves the flag without a value; its
    ``--flag=VALUE`` form passes any value.  A flag that takes no value
    still rejects one.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and len(flag) > 2 and "=" not in flag \
                and token.startswith("-") and _reads_as_float(token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        writes, text = args.func(args)
        _write_all(writes)
    except err.TreelikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for klass, code in EXIT_CODES
                    if isinstance(exc, klass))
    if text is not None:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
