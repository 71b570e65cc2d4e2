"""Layer spans recorded from outside the program.

A Tracer replaces selected public functions of the treelike modules with
wrappers, in every module that holds a reference to them (so
``treebuild.regularity_pipeline`` and ``hyperbolicity.validate_space`` are
traced as well as the defining module's attribute).  Each call appends one
span ``(name, start, end, parent, op)`` to an in-memory list; counters
derived from the call's arguments or result are recorded at the same
boundary.  Nothing under ``src/`` is changed, and the wrappers exist only
between ``install`` and ``uninstall``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# functions wrapped per module; names follow ``<module>.<function>``
TRACED = {
    "core": ("validate_space", "gromov_product_matrix", "threshold_graph"),
    "hyperbolicity": ("hyp_exact", "bad_set_profile", "threshold_ladder",
                      "exceptional_sets"),
    "regularity": ("rationalize_weights", "weighted_adjacency_spectrum",
                   "choose_spectral_cut", "spectral_bucket_partition",
                   "equitable_refine", "regularity_test",
                   "regularity_pipeline"),
    "cliques": ("part_neighbor_graph", "neighborhood_family",
                "clique_closure", "clique_repair"),
    "treebuild": ("build_tree", "tree_cost", "best_alpha", "converse_check"),
    "spinglass": ("gibbs_mcmc", "overlap_space", "pure_state_tree"),
    "io": ("read_json", "write_json", "space_from_dict", "tree_from_dict"),
    "cli": ("main",),
}

# span covering a whole CLI child process, added by the parent that spawned it
PROCESS_SPAN = "cli.process"

# counters kept as a maximum over calls rather than a sum
MAX_COUNTERS = ("regularity.rationalize_weights.denominator",)
SUM_COUNTERS = (
    "hyperbolicity.bad_set_profile.triples",
    "regularity.regularity_test.trivial",
    "regularity.regularity_test.exhaustive",
    "regularity.regularity_test.sampled",
    "regularity.parts",
    "regularity.singleton_parts",
    "cliques.edited_pairs",
    "treebuild.build_tree.repairs",
    "spinglass.gibbs_mcmc.steps",
    "io.read_json.bytes",
    "io.write_json.bytes",
) + tuple(f"{module}.errors" for module in TRACED)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_regularity_test(tracer, args, kwargs, result):
    left = _arg(args, kwargs, 1, "left")
    right = _arg(args, kwargs, 2, "right")
    # mirrors the tester dispatch in regularity.regularity_test
    if len(left) == 1 and len(right) == 1:
        kind = "trivial"
    elif max(len(left), len(right)) <= tracer.exhaustive_limit:
        kind = "exhaustive"
    else:
        kind = "sampled"
    tracer.add(f"regularity.regularity_test.{kind}", 1)


def _count_rationalize(tracer, args, kwargs, result):
    tracer.maximum("regularity.rationalize_weights.denominator", result[1])


def _count_pipeline(tracer, args, kwargs, result):
    parts = result.parts[1:]  # parts[0] is the exceptional set
    tracer.add("regularity.parts", len(parts))
    tracer.add("regularity.singleton_parts", sum(len(p) == 1 for p in parts))


def _count_profile(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "space").n
    tracer.add("hyperbolicity.bad_set_profile.triples", n ** 3)


def _count_repair(tracer, args, kwargs, result):
    log = result[1]
    # the log stores every edited pair in both orientations
    tracer.add("cliques.edited_pairs",
               sum(len(pairs) for pairs in log.stages.values()) // 2)


def _count_build(tracer, args, kwargs, result):
    tracer.add("treebuild.build_tree.repairs", result.n_repairs)


def _count_mcmc(tracer, args, kwargs, result):
    tracer.add("spinglass.gibbs_mcmc.steps", _arg(args, kwargs, 1, "steps"))


def _count_file_bytes(key):
    def count(tracer, args, kwargs, result):
        tracer.add(key, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return count


COUNTERS = {
    "regularity.regularity_test": _count_regularity_test,
    "regularity.rationalize_weights": _count_rationalize,
    "regularity.regularity_pipeline": _count_pipeline,
    "hyperbolicity.bad_set_profile": _count_profile,
    "cliques.clique_repair": _count_repair,
    "treebuild.build_tree": _count_build,
    "spinglass.gibbs_mcmc": _count_mcmc,
    "io.read_json": _count_file_bytes("io.read_json.bytes"),
    "io.write_json": _count_file_bytes("io.write_json.bytes"),
}


class Tracer:
    """Spans and counters of one process, grouped by op id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [-1]
        self.op = -1
        self.sums: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.maxes: dict[int, dict[str, float]] = defaultdict(dict)
        self._patched: list[tuple] = []
        self.exhaustive_limit = 0

    # -- counters -----------------------------------------------------------

    def add(self, key: str, value) -> None:
        self.sums[self.op][key] += value

    def maximum(self, key: str, value) -> None:
        ops = self.maxes[self.op]
        ops[key] = max(ops.get(key, value), value)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        spans = self.spans
        stack = self.stack
        count = COUNTERS.get(name)
        errors = f"{module}.errors"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(errors, 1)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], self.op)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a treelike module holds it."""
        importlib.import_module("treelike.cli")  # imports every module
        self.exhaustive_limit = sys.modules["treelike.regularity"].EXHAUSTIVE_LIMIT
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "treelike" or key.startswith("treelike.")]
        for module, names in TRACED.items():
            home = importlib.import_module(f"treelike.{module}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module}.{fname}", module, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- child processes ----------------------------------------------------

    def child_record(self) -> dict:
        """What a CLI child hands back to the process that spawned it."""
        return {
            "spans": self.spans,
            "sums": {k: v for op in self.sums.values() for k, v in op.items()},
            "maxes": {k: v for op in self.maxes.values()
                      for k, v in op.items()},
        }

    def add_process(self, start: float, end: float, record: dict) -> None:
        """Graft a child's spans under one span covering the child process.

        perf_counter reads CLOCK_MONOTONIC on Linux, so the child's times
        are on this process's time line.
        """
        idx = len(self.spans)
        self.spans.append((PROCESS_SPAN, start, end, self.stack[-1], self.op))
        base = idx + 1
        for name, s, e, parent, _ in record["spans"]:
            self.spans.append(
                (name, s, e, idx if parent < 0 else base + parent, self.op))
        for key, value in record["sums"].items():
            self.add(key, value)
        for key, value in record["maxes"].items():
            self.maximum(key, value)

    # -- results ------------------------------------------------------------

    def op_stats(self) -> dict[int, dict[str, float]]:
        """Per-op layer statistics; every known key is present, 0 if unused.

        Self time is a span's duration minus the time its child spans
        cover; calls run on one thread, so children never overlap.
        """
        covered = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        names.append(PROCESS_SPAN)
        ops = sorted({s[4] for s in self.spans} | set(self.sums)
                     | set(self.maxes))
        stats = {}
        for op in ops:
            row = {f"{n}.{k}": 0.0 for n in names for k in ("calls", "self_s")}
            row.update({k: 0.0 for k in SUM_COUNTERS + MAX_COUNTERS})
            row.update(self.sums.get(op, {}))
            row.update(self.maxes.get(op, {}))
            stats[op] = row
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            row = stats[op]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += (end - start) - covered[idx]
        for row in stats.values():
            _derive(row)
        return stats

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _derive(row: dict) -> None:
    test = "regularity.regularity_test"
    row[f"{test}.useful_ratio"] = _ratio(
        row[f"{test}.exhaustive"] + row[f"{test}.sampled"], row[f"{test}.calls"])
    row["regularity.singleton_part_ratio"] = _ratio(
        row["regularity.singleton_parts"], row["regularity.parts"])
    row["spinglass.gibbs_mcmc.steps_per_s"] = _ratio(
        row["spinglass.gibbs_mcmc.steps"], row["spinglass.gibbs_mcmc.self_s"])
    row["cli.startup_s"] = row[f"{PROCESS_SPAN}.self_s"]
