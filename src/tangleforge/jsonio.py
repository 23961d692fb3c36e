"""JSON (de)serialization for systems, tangles, separations, flowers, trees.

Subsets serialize as sorted element arrays of 0-based ground-set indices.
"""

from __future__ import annotations

import json
from typing import Optional

from .bitset import elements_of
from .core import ConnectivitySystem, RankFunction
from .closure import Separation
from .errors import PreconditionFailed
from .flowers import Flower
from .tangles import Tangle
from .trees import PiTree


def load_system(obj: dict, verify: Optional[bool] = None) -> ConnectivitySystem:
    kind = obj.get("kind")
    if kind == "matroid":
        source = obj.get("source", {})
        if "uniform" in source:
            u = source["uniform"]
            rank = RankFunction.uniform(u["r"], u["n"])
        elif "bases" in source:
            bases = source["bases"]
            n = source["n"] if "n" in source else _bases_ground_size(bases)
            rank = RankFunction.from_bases(n, [_basis_mask(b, n) for b in bases])
        elif "rank_table" in source:
            table = source["rank_table"]
            n = (len(table) - 1).bit_length()
            rank = RankFunction.from_table(n, table)
        else:
            raise ValueError("matroid source must be uniform, bases, or rank_table")
        return ConnectivitySystem.matroid(rank, labels=_labels(obj), verify=verify)
    if kind == "graph":
        return ConnectivitySystem.graph([tuple(e) for e in obj["edges"]],
                                        labels=_labels(obj), verify=verify)
    if kind == "r8_polymatroid":
        return ConnectivitySystem.r8_polymatroid(obj["ell"], verify=verify)
    if kind == "table":
        return ConnectivitySystem.from_table(obj["n"], obj["lambda"],
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
    return tuple(labels) if labels else None


def load_system_file(path: str, verify: Optional[bool] = None) -> ConnectivitySystem:
    with open(path) as fh:
        return load_system(json.load(fh), verify=verify)


def tangle_to_json(tangle: Tangle) -> dict:
    return {"k": tangle.k,
            "members": sorted(elements_of(m) for m in tangle.members)}


def tangle_from_json(sys: ConnectivitySystem, obj: dict) -> Tangle:
    return Tangle(sys, obj["k"], [sys.mask(m) for m in obj["members"]])


def separation_to_json(sys: ConnectivitySystem, sep: Separation) -> dict:
    return {"side": elements_of(sep.side), "k": sep.k}


def separation_from_json(sys: ConnectivitySystem, obj: dict) -> Separation:
    return Separation.make(sys, sys.mask(obj["side"]), obj["k"])


def flower_to_json(sys: ConnectivitySystem, f: Flower) -> dict:
    out = {"petals": [elements_of(p) for p in f.petals], "k": f.k}
    if f.klass:
        out["class"] = f.klass
    return out


def flower_from_json(sys: ConnectivitySystem, obj: dict) -> Flower:
    return Flower([sys.mask(p) for p in obj["petals"]], obj["k"], obj.get("class"))


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


def tree_from_json(sys: ConnectivitySystem, obj: dict) -> PiTree:
    bags, labels, cyclic = {}, {}, {}
    for v in obj["vertices"]:
        if v["type"] == "bag":
            bags[v["id"]] = sys.mask(v["elements"])
        else:
            labels[v["id"]] = v["label"]
            if "cyclic" in v:
                cyclic[v["id"]] = tuple(v["cyclic"])
    return PiTree(obj["k"], bags, labels,
                  [tuple(e) for e in obj["edges"]], cyclic)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
