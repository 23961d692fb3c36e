"""DOT export: flowers as star/cycle-with-center graphs, pi-trees with
boxed bags and labelled flower vertices."""

from __future__ import annotations

from typing import List

from .bitset import elements_of
from .core import ConnectivitySystem
from .flowers import ANEMONE, Flower, classify
from .trees import PiTree


def _set_label(sys: ConnectivitySystem, mask: int) -> str:
    """The set's element names in braces, with `\\` and `"` escaped for a
    quoted DOT string."""
    labels = sys.labels
    names = [labels[e] if labels else str(e) for e in elements_of(mask)]
    return "{" + ",".join(names).replace("\\", "\\\\").replace('"', '\\"') + "}"


def flower_to_dot(sys: ConnectivitySystem, f: Flower) -> str:
    lines: List[str] = ["graph flower {"]
    daisy = classify(sys, f) != ANEMONE
    lines.append(f'  c [shape=circle, label="{"D" if daisy else "A"}"];')
    for i, p in enumerate(f.petals):
        lines.append(f'  p{i} [shape=box, label="{_set_label(sys, p)}"];')
    for i in range(f.n):
        lines.append(f'  c -- p{i} [label="{i + 1}"];')
    if daisy:
        for i in range(f.n):
            lines.append(f"  p{i} -- p{(i + 1) % f.n} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_dot(sys: ConnectivitySystem, t: PiTree) -> str:
    lines: List[str] = ["graph pitree {"]
    for v in t.vertices():
        if t.is_bag_vertex(v):
            lines.append(f'  v{v} [shape=box, label="{_set_label(sys, t.bags[v])}"];')
        else:
            lines.append(f'  v{v} [shape=circle, label="{t.labels[v]}"];')
    cyclic_pos = {}
    for v, order in t.cyclic.items():
        for i, w in enumerate(order):
            cyclic_pos[(v, w)] = i + 1
    for u, v in t.edges():
        tag = cyclic_pos.get((u, v)) or cyclic_pos.get((v, u))
        attr = f' [label="{tag}"]' if tag else ""
        lines.append(f"  v{u} -- v{v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
