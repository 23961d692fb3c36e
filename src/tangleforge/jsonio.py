"""JSON readers for systems, tangles and explicit S families, and writers
for tangles, separations, flowers and trees.

Subsets serialize as sorted element arrays of 0-based ground-set indices.
Readers check the shape of what they read and refuse anything else with
ValueError.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .bitset import elements_of
from .core import ConnectivitySystem, RankFunction
from .closure import Separation
from .errors import PreconditionFailed
from .flowers import Flower, classify
from .tangles import Tangle
from .trees import PiTree


def _field(obj, key: str, kind: type, what: str):
    """obj[key], once obj is a JSON object (named `what` in the error) and
    the value there has type `kind` (a bool is not an int)."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    value = obj.get(key)
    if type(value) is not kind:
        raise ValueError(f"{what} needs {key!r} as {kind.__name__}")
    return value


def _ints(value, what: str) -> list:
    if type(value) is not list or any(type(v) is not int for v in value):
        raise ValueError(f"{what} must be a list of integers")
    return value


def masks_from_json(sys: ConnectivitySystem, value, what: str) -> List[int]:
    """The masks of a JSON list of element lists, `what` naming it."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list of element lists")
    return [sys.mask(_ints(m, f"each of {what}")) for m in value]


def load_system(obj: dict, verify: Optional[bool] = None) -> ConnectivitySystem:
    if type(obj) is not dict:
        raise ValueError("system must be a JSON object")
    kind = obj.get("kind")
    if kind == "matroid":
        source = obj.get("source")
        source = source if type(source) is dict else {}
        if "uniform" in source:
            u = source["uniform"]
            rank = RankFunction.uniform(_field(u, "r", int, "uniform"),
                                        _field(u, "n", int, "uniform"))
        elif "bases" in source:
            bases = [_ints(b, "each basis")
                     for b in _field(source, "bases", list, "matroid source")]
            n = (_field(source, "n", int, "matroid source") if "n" in source
                 else _bases_ground_size(bases))
            rank = RankFunction.from_bases(n, [_basis_mask(b, n) for b in bases])
        elif "rank_table" in source:
            table = _ints(source["rank_table"], "rank_table")
            n = (len(table) - 1).bit_length()
            rank = RankFunction(n, table)
        else:
            raise ValueError("matroid source must be uniform, bases, or rank_table")
        return ConnectivitySystem.matroid(rank, labels=_labels(obj), verify=verify)
    if kind == "graph":
        edges = _field(obj, "edges", list, "graph")
        if any(type(e) not in (list, tuple) or len(e) != 2 or
               any(type(v) not in (int, str) for v in e) for e in edges):
            raise ValueError("each edge must be a list of two vertices, "
                             "integers or strings")
        return ConnectivitySystem.graph([tuple(e) for e in edges],
                                        labels=_labels(obj), verify=verify)
    if kind == "r8_polymatroid":
        return ConnectivitySystem.r8_polymatroid(_field(obj, "ell", int, "r8_polymatroid"),
                                                 verify=verify)
    if kind == "table":
        return ConnectivitySystem.from_table(_field(obj, "n", int, "table"),
                                             _ints(obj.get("lambda"), "lambda"),
                                             labels=_labels(obj), verify=verify)
    raise ValueError(f"unknown system kind {kind!r}")


def _bases_ground_size(bases) -> int:
    """n when it is not given: one more than the largest basis element."""
    elements = [e for b in bases for e in b]
    if not elements:
        raise ValueError("bases name no element: give n")
    return 1 + max(elements)


def _basis_mask(basis, n: int) -> int:
    if not all(0 <= e < n for e in basis):
        raise PreconditionFailed(f"basis {basis} has elements outside 0..{n - 1}")
    return sum(1 << e for e in basis)


def _labels(obj):
    labels = obj.get("labels")
    if labels is not None and (type(labels) is not list
                               or any(type(x) is not str for x in labels)):
        raise ValueError("labels must be a list of strings")
    return labels


def load_system_file(path: str, verify: Optional[bool] = None) -> ConnectivitySystem:
    with open(path) as fh:
        return load_system(json.load(fh), verify=verify)


def tangle_to_json(tangle: Tangle) -> dict:
    return {"k": tangle.k,
            "members": sorted(elements_of(m) for m in tangle.members)}


def tangle_from_json(sys: ConnectivitySystem, obj: dict) -> Tangle:
    return Tangle(sys, _field(obj, "k", int, "tangle"),
                  masks_from_json(sys, _field(obj, "members", list, "tangle"), "members"))


def explicit_s_from_json(sys: ConnectivitySystem, obj: dict) -> List[int]:
    """The masks of an explicit S file, {"sets": [element lists]}."""
    return masks_from_json(sys, _field(obj, "sets", list, "S file"), "sets")


def separation_to_json(sys: ConnectivitySystem, sep: Separation) -> dict:
    return {"side": elements_of(sep.side), "k": sep.k}


def flower_to_json(sys: ConnectivitySystem, f: Flower) -> dict:
    return {"petals": [elements_of(p) for p in f.petals], "k": f.k,
            "class": classify(sys, f)}


def tree_to_json(sys: ConnectivitySystem, t: PiTree) -> dict:
    vertices = []
    for v in t.vertices():
        if t.is_bag_vertex(v):
            vertices.append({"id": v, "type": "bag",
                             "elements": elements_of(t.bags[v])})
        else:
            entry = {"id": v, "type": "flower", "label": t.labels[v]}
            if v in t.cyclic:
                entry["cyclic"] = list(t.cyclic[v])
            vertices.append(entry)
    return {"k": t.k, "vertices": vertices,
            "edges": [list(e) for e in t.edges()]}


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
