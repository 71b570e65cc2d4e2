"""File formats and exports.

JSON numbers follow one rule, so binary floats round-trip exactly and
reports are byte-identical across runs: a float with an integral value below
1e16 in magnitude is written with one decimal ("3.0", "-0.0"), any other
finite float with 17 significant digits, NaN as null and infinities as the
strings "inf" and "-inf".  Python and numpy integers are written as
integers, Python bools as true/false; any other number (a numpy bool or
float32 scalar) is first widened to a float.

Writers stream.  One generator yields a document in pieces, one array row
or one line of scalars at a time; ``dump_json`` joins the pieces and
``write_json`` writes them to the open file as they come, so it never holds
the whole text.  A 1-D or 2-D numeric ndarray is converted and formatted a
row at a time.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import CompatibleTree, SimilaritySpace, WeightedGraph, _first_repeat
from .errors import IOFailure, TreeStructureError
from .regularity import PartitionResult


def _format_number(x) -> str:
    if type(x) is not float:
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        x = float(x)
    if x != x:
        return "null"
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    if x.is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _leaf(value) -> str:
    """A value that shares its line with its siblings in a list."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return dump_json(value)
    return _format_number(value)


def _chunks(value, indent: int):
    """Yield the JSON text of value in pieces.

    A list of scalars, or a 1-D numeric array, stays on one line.  Dicts,
    other lists and 2-D numeric arrays put one item (one row) on each line,
    indented by ``indent + 2``; an item that is itself a container goes on
    as the pieces of its own text.
    """
    if isinstance(value, np.ndarray):
        if not (value.size and value.ndim in (1, 2)
                and value.dtype.kind in "biuf"):
            value = value.tolist()
        elif value.ndim == 1:
            yield "[" + ", ".join(map(_format_number, value.tolist())) + "]"
            return
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        brackets = "{}"
        items = ((json.dumps(str(k)) + ": ", v) for k, v in value.items())
    elif isinstance(value, np.ndarray):
        brackets = "[]"
        items = (("", row) for row in value)
    elif isinstance(value, (list, tuple)):
        if not any(isinstance(v, (dict, list, tuple)) for v in value):
            yield "[" + ", ".join(map(_leaf, value)) + "]"
            return
        brackets = "[]"
        items = (("", v) for v in value)
    else:
        yield _leaf(value)
        return
    inner = " " * (indent + 2)
    head = brackets[0] + "\n"
    for key, v in items:
        if isinstance(v, (dict, list, tuple, np.ndarray)):
            yield f"{head}{inner}{key}"
            yield from _chunks(v, indent + 2)
        else:
            yield f"{head}{inner}{key}{_leaf(v)}"
        head = ",\n"
    yield f"\n{' ' * indent}{brackets[1]}"


def dump_json(value, indent: int = 0) -> str:
    """Serialize dicts/lists/arrays/strings/numbers with stable float
    formatting."""
    return "".join(_chunks(value, indent))


def json_pieces(value):
    """Yield ``dump_json(value)`` and a newline, piece by piece."""
    yield from _chunks(value, 0)
    yield "\n"


def write_json(path, value) -> None:
    """Write ``dump_json(value)`` and a newline to path, piece by piece."""
    p = Path(path)
    try:
        with p.open("w", encoding="utf-8") as fh:
            fh.writelines(json_pieces(value))
    except OSError as exc:
        raise IOFailure(f"cannot write {p}: {exc}") from exc


def read_json(path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise IOFailure(f"no such file: {p}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailure(f"cannot read {p}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IOFailure(f"cannot parse {p}: {exc}") from exc


# what reading a parsed document without the structure of its format raises
MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _malformed(kind: str, exc: Exception) -> IOFailure:
    if isinstance(exc, KeyError):
        return IOFailure(f"{kind} file missing key {exc}")
    return IOFailure(f"malformed {kind} file: {exc}")


# ---------------------------------------------------------------------------
# similarity spaces and metrics


def space_to_dict(space: SimilaritySpace) -> dict:
    return {
        "points": list(space.points),
        "weights": space.weights,
        "b": space.bound,
        "sim": space.sim,
    }


def space_from_dict(data: dict) -> SimilaritySpace:
    try:
        return SimilaritySpace(
            points=tuple(data["points"]),
            weights=np.array(data["weights"], dtype=float),
            sim=np.array(data["sim"], dtype=float),
            bound=float(data.get("b", 1.0)),
        )
    except MALFORMED as exc:
        raise _malformed("space", exc) from exc


def metric_from_dict(data: dict) -> tuple[np.ndarray, list | None,
                                          np.ndarray | None]:
    """Distances, point ids and weights; ids or weights not given are None."""
    try:
        dist = np.array(data["dist"], dtype=float)
        points, weights = data.get("points"), data.get("weights")
        if points is not None:
            points = [str(p) for p in points]
        if weights is not None:
            weights = np.array(weights, dtype=float)
    except MALFORMED as exc:
        raise _malformed("metric", exc) from exc
    return dist, points, weights


# ---------------------------------------------------------------------------
# graphs


def graph_to_dict(graph: WeightedGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "measure": graph.mass,
        "edges": [[u, v] for u, v in graph.edges()],
    }


def graph_from_dict(data: dict) -> WeightedGraph:
    try:
        vertices = [str(v) for v in data["vertices"]]
        mass = np.array(data["measure"], dtype=float)
        edge_list = [(str(u), str(v)) for u, v in data["edges"]]
    except MALFORMED as exc:
        raise _malformed("graph", exc) from exc
    index = {v: i for i, v in enumerate(vertices)}
    adj = np.zeros((len(vertices), len(vertices)), dtype=bool)
    for u, v in edge_list:
        try:
            i, j = index[u], index[v]
        except KeyError as exc:
            raise IOFailure(f"edge references unknown vertex {exc}") from exc
        adj[i, j] = adj[j, i] = True
    np.fill_diagonal(adj, False)
    return WeightedGraph(vertices=tuple(vertices), mass=mass, adj=adj)


def graph_to_dot(graph: WeightedGraph, part_of: dict[str, int] | None = None
                 ) -> str:
    """DOT export; vertices are colored by part index when given."""
    palette = [
        "lightblue", "lightgreen", "lightsalmon", "plum", "khaki",
        "lightcyan", "lightpink", "palegreen", "wheat", "lavender",
    ]
    lines = ["graph space {"]
    for v in graph.vertices:
        attrs = ""
        if part_of is not None and v in part_of:
            color = palette[part_of[v] % len(palette)]
            attrs = f' [style=filled, fillcolor={color}, label="{v}|{part_of[v]}"]'
        lines.append(f'  "{v}"{attrs};')
    for u, v in graph.edges():
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trees


def tree_to_dict(tree: CompatibleTree) -> dict:
    names, up, level = tree.names, tree.parent.tolist(), tree.level.tolist()
    order = sorted(range(len(names)), key=names.__getitem__)
    order.sort(key=level.__getitem__)
    named = names + (None,)  # the root's parent -1 reads None
    return {
        "root": tree.root,
        "nodes": [{"id": names[v], "parent": named[up[v]], "level": level[v]}
                  for v in order],
        "leaves": dict(sorted(zip(map(names.__getitem__, tree.leaf.tolist()),
                                  tree.points))),
    }


def _level(value) -> int:
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"level {value!r} is not an integer")
    return int(value)


def tree_from_dict(data: dict) -> CompatibleTree:
    """The tree of a file's node records, its ids kept, held root first
    and then by level in record order.  The checks that only named records
    need come before the tree's own."""
    try:
        root = str(data["root"])
        nodes = [(str(rec["id"]), rec.get("parent"), _level(rec["level"]))
                 for rec in data["nodes"]]
        leaves = {str(k): str(v) for k, v in data["leaves"].items()}
    except MALFORMED as exc:
        raise _malformed("tree", exc) from exc
    ids = [v for v, _, _ in nodes]
    index = {v: i for i, v in enumerate(ids)}
    if len(index) < len(ids):
        raise TreeStructureError(
            f"node id {ids[_first_repeat(ids)]!r} is repeated")
    if root not in index:
        raise TreeStructureError("root is not a node")
    r = index[root]
    if nodes[r][1] is not None:
        raise TreeStructureError("root must not have a parent")
    if nodes[r][2] != 0:
        raise TreeStructureError("root level must be 0")
    parent = [-1 if up is None else index.get(str(up), -2)
              for _, up, _ in nodes]
    if -2 in parent:
        raise TreeStructureError(
            f"parent of {ids[parent.index(-2)]!r} is not a node")
    for (v, _, level), up in zip(nodes, parent):
        if up >= 0 and level != nodes[up][2] + 1:
            raise TreeStructureError(f"level of {v!r} is not parent level + 1")
    for node in leaves:
        if node not in index:
            raise TreeStructureError(f"leaf {node!r} is not a node")
    # levels rise by one along parent links, so each parent comes first
    order = sorted(range(len(ids)), key=lambda i: (i != r, nodes[i][2]))
    rank = np.append(np.argsort(order), -1)  # index -1 reads -1
    return CompatibleTree(
        points=tuple(leaves.values()),
        names=tuple(ids[i] for i in order),
        parent=rank[np.array(parent)[order]],
        leaf=rank[[index[node] for node in leaves]],
    )


def tree_to_newick(tree: CompatibleTree) -> str:
    """Newick string with branch length 1 on every edge."""
    names, up = tree.names, tree.parent.tolist()
    kids: list[list[int]] = [[] for _ in names]
    for v in sorted(range(1, len(names)), key=names.__getitem__):
        kids[up[v]].append(v)
    label = dict(zip(tree.leaf.tolist(), tree.points))

    def render(v: int) -> str:
        if not kids[v]:
            return f"{_escape_newick(label.get(v, names[v]))}:1"
        return f"({','.join(map(render, kids[v]))}){':1' if v else 'root'}"

    return render(0) + ";"


def _escape_newick(label: str) -> str:
    if any(c in label for c in "(),:;' \t"):
        return "'" + label.replace("'", "''") + "'"
    return label


# ---------------------------------------------------------------------------
# partitions


def partition_to_dict(result: PartitionResult) -> dict:
    return {
        "parts": [list(p) for p in result.parts],
        "exceptional_index": 0,  # parts[0] is always V_0; kept for readers
        "densities": result.densities,
        "flags": result.regular_flags,
        "params": dict(result.params),
    }
