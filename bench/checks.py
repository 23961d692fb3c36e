"""Correctness checks computed apart from the library, and their negative
controls.

Nothing here imports tangleforge: lambda, rank, tangle axioms, robustness,
cyclic arcs and the expected tree shapes are recomputed from the
definitions.  Every check returns a list of problems, empty when the
records are right.  `negative_controls` corrupts one real record per check
(a tree missing a leaf bag, a tangle with an extra member, ...) and
reports any check that fails to notice.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction


def _bits(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _mask(elements):
    m = 0
    for e in elements:
        m |= 1 << e
    return m


# -- connectivity from the definitions ----------------------------------------


def _graph_lambda(edges):
    """Vertices meeting an edge of X and an edge of E-X, for every X."""
    n = len(edges)
    full = (1 << n) - 1
    incidence = {}
    for i, (u, v) in enumerate(edges):
        for w in {u, v}:
            incidence[w] = incidence.get(w, 0) | 1 << i
    inc = list(incidence.values())
    return [sum(1 for m in inc if m & x and m & (full ^ x)) for x in range(1 << n)]


def _graphic_rank(edges):
    n = len(edges)
    table = []
    for x in range(1 << n):
        parent = {}

        def root(v):
            while parent.setdefault(v, v) != v:
                v = parent[v]
            return v

        r = 0
        for i in _bits(x):
            a, b = root(edges[i][0]), root(edges[i][1])
            if a != b:
                parent[a] = b
                r += 1
        table.append(r)
    return table


def _vector_rank(vectors):
    rows = [list(map(Fraction, v)) for v in vectors]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


# The cube R_8 as affine points (x, y, z, 1): element i is vertex i+1 of the
# labelling bottom 1,2,3,4 (cyclic), top 5,6,7,8, verticals i -- i+4.
CUBE_POINTS = [(0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1),
               (0, 0, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1), (0, 1, 1, 1)]


def system_tables(spec):
    """(n, lambda table, rank table or None) for a benchmark system spec."""
    kind = spec["kind"]
    if kind == "graph":
        edges = [tuple(e) for e in spec["edges"]]
        return len(edges), _graph_lambda(edges), None
    if kind == "r8_polymatroid":
        ell = spec["ell"]
        rank = [_vector_rank([CUBE_POINTS[e] for e in _bits(x)]) for x in range(256)]
        f = [0] + [rank[x] + ell for x in range(1, 256)]
        return 8, [f[x] + f[255 ^ x] - f[255] + 1 for x in range(256)], None
    if kind == "graphic":
        rank = _graphic_rank([tuple(e) for e in spec["edges"]])
    else:
        u = spec["source"]["uniform"]
        rank = [min(bin(x).count("1"), u["r"]) for x in range(1 << u["n"])]
    n = (len(rank) - 1).bit_length()
    full = (1 << n) - 1
    return n, [rank[x] + rank[full ^ x] - rank[full] + 1 for x in range(1 << n)], rank


# -- tangles -------------------------------------------------------------------


def _maximal(masks):
    ms = sorted(set(masks), key=lambda m: -bin(m).count("1"))
    out = []
    for m in ms:
        if not any(m & ~o == 0 for o in out):
            out.append(m)
    return out


def tangle_axiom_problems(n, lam, k, members):
    """(T1)-(T4) for one member list."""
    full = (1 << n) - 1
    ms = {_mask(a) for a in members}
    out = [f"T1 {_bits(a)}" for a in ms if lam[a] >= k]
    for x in range(1 << n):
        if lam[x] <= k - 1 and x not in ms and full ^ x not in ms:
            out.append(f"T2 {_bits(x)}")
            break
    top = _maximal(ms)
    if any(a | b | c == full for a in top for b in top for c in top):
        out.append("T3")
    out += [f"T4 {e}" for e in range(n) if full ^ 1 << e in ms]
    return out


def covered_by_eight(n, members):
    """Some at most eight members cover E: branch on the lowest uncovered
    element over the maximal members containing it."""
    full = (1 << n) - 1
    top = _maximal({_mask(a) for a in members})

    def search(covered, left):
        if covered == full:
            return True
        if left == 0:
            return False
        low = (~covered & full) & -(~covered & full)
        return any(search(covered | m, left - 1) for m in top if m & low)

    return search(0, 8)


def vertical_tangle(n, rank, k):
    """{A : r(A) <= k-2} when the matroid is vertically k-connected with
    r(M) >= max(3k-5, 2), the hypotheses of the unique-tangle law; else None."""
    full = (1 << n) - 1
    rm = rank[full]
    if k < 2 or rm < max(3 * k - 5, 2):
        return None
    for x in range(1 << n):
        rx, ry = rank[x], rank[full ^ x]
        if rx + ry - rm + 1 <= k - 1 and rx >= k - 1 and ry >= k - 1:
            return None
    return sorted(_bits(a) for a in range(1 << n) if rank[a] <= k - 2)


def vertical_problems(tables, k, tangles):
    """The unique-tangle law, where its hypotheses hold."""
    n, _, rank = tables
    want = None if rank is None else vertical_tangle(n, rank, k)
    if want is not None and tangles != [want]:
        return ["unique vertical tangle expected"]
    return []


def robust_problems(n, tangles, verdicts):
    """Every robustness verdict matches the cover search."""
    if len(verdicts) != len(tangles):
        return ["robustness verdict count"]
    return [f"is_robust says {robust}" for members, robust in zip(tangles, verdicts)
            if robust == covered_by_eight(n, members)]


def tangle_records_problems(tables, rec, verdicts):
    n, lam, _ = tables
    out = [p for members in rec["tangles"]
           for p in tangle_axiom_problems(n, lam, rec["k"], members)]
    out += vertical_problems(tables, rec["k"], rec["tangles"])
    out += robust_problems(n, rec["tangles"], verdicts)
    return [f"{rec['id']} {p}" for p in out]


# -- trees ---------------------------------------------------------------------


def _flower_petals(tree):
    """(label, petals in edge order) of the single flower vertex, or None."""
    flowers = [v for v in tree["vertices"] if v["type"] == "flower"]
    if len(flowers) != 1:
        return None
    centre = flowers[0]
    adj = {}
    for u, v in tree["edges"]:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    bags = {v["id"]: _mask(v["elements"]) for v in tree["vertices"] if v["type"] == "bag"}
    order = centre.get("cyclic", sorted(adj.get(centre["id"], [])))
    petals = []
    for w in order:
        seen, stack, petal = {centre["id"], w}, [w], 0
        while stack:
            x = stack.pop()
            petal |= bags.get(x, 0)
            for y in adj.get(x, []):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        petals.append(petal)
    return centre["label"], petals


def star_problems(tree, n, label):
    """One flower vertex with the given label whose n petals are single
    elements covering E; every non-empty bag is a one-element leaf."""
    found = _flower_petals(tree)
    if found is None:
        return ["not exactly one flower vertex"]
    got_label, petals = found
    out = []
    if got_label != label:
        out.append(f"flower vertex labelled {got_label}")
    if len(petals) != n or any(bin(p).count("1") != 1 for p in petals):
        out.append("petals are not n single elements")
    if _mask(e for v in tree["vertices"] if v["type"] == "bag" for e in v["elements"]) \
            != (1 << n) - 1:
        out.append("bags do not cover E")
    degree = {}
    for u, v in tree["edges"]:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    for v in tree["vertices"]:
        if v["type"] == "bag" and v["elements"]:
            if len(v["elements"]) != 1 or degree.get(v["id"]) != 1:
                out.append(f"bag {v['id']} is not a one-element leaf")
    return out


def cycle_order(edges):
    """Element indices in the order met walking round the cycle."""
    order = [0]
    at = edges[0][1]
    while len(order) < len(edges):
        nxt = next(i for i, e in enumerate(edges) if i not in order and at in e)
        at = edges[nxt][0] if edges[nxt][1] == at else edges[nxt][1]
        order.append(nxt)
    return order


def cycle_arcs(order):
    """Canonical sides (the side holding element 0) of every separation
    into two non-empty arcs."""
    n = len(order)
    full = (1 << n) - 1
    out = set()
    for start in range(n):
        for length in range(1, n):
            side = _mask(order[(start + j) % n] for j in range(length))
            out.add(side if side & 1 else full ^ side)
    return out


def tree_path_problems(sysd, tables, rec):
    n = tables[0]
    out = []
    if not rec["verdict_ok"] or not rec["certified"]:
        out.append("tree fails verification or the oracle certificate")
    tree = json.loads(rec["tree"])
    sides = [_mask(side) for cls in rec["classes"] for side in cls]
    if sysd.get("cycle"):
        if rec["tangles"] != [[[]]]:
            out.append("cycle: expected the single tangle {empty set}")
        order = cycle_order([tuple(e) for e in sysd["spec"]["edges"]])
        if len(rec["classes"]) != n * (n - 1) // 2 or set(sides) != cycle_arcs(order) \
                or len(sides) != len(set(sides)):
            out.append("cycle: classes are not the arcs")
        out += star_problems(tree, n, "D")
        found = _flower_petals(tree)
        if found and not out:
            seq = [p.bit_length() - 1 for p in found[1]]
            turns = [order[i:] + order[:i] for i in range(n)]
            if seq not in turns and seq[::-1] not in turns:
                out.append("daisy petals not in cyclic order")
    else:
        if len(rec["classes"]) != 2 ** (n - 1) - 1:
            out.append("uniform: expected 2^(n-1)-1 classes")
        out += star_problems(tree, n, "A")
    return [f"{rec['id']} {p}" for p in out]


# -- per workload --------------------------------------------------------------

R8_WITNESSES = ([0, 2, 4, 6], [1, 3, 5, 7])


def _oracle_entry_problems(sysd, rec, entry):
    out = []
    if not entry["differential_ok"]:
        out.append("differential report disagrees")
    if entry["robust"] and not (entry["verdict_ok"] and entry["certified"]):
        out.append("tree fails verification or the oracle certificate")
    if sysd.get("r8") and entry.get("obstruction") not in R8_WITNESSES:
        out.append(f"R_8 obstruction witness {entry.get('obstruction')}")
    return [f"{rec['id']} {p}" for p in out]


def record_problems(kind, sysd, tables, rec):
    if kind == "tree":
        return tree_path_problems(sysd, tables, rec)
    if kind == "search":
        return tangle_records_problems(tables, rec, rec["robust"])
    verdicts = [e["robust"] for e in rec["per_tangle"]]
    out = tangle_records_problems(tables, rec, verdicts)
    if sysd.get("r8") and len(rec["per_tangle"]) != 1:
        out.append(f"{rec['id']} R_8 must have exactly one tangle")
    for entry in rec["per_tangle"]:
        out += _oracle_entry_problems(sysd, rec, entry)
    return out


def check_records(kind, systems, records):
    """All problems in one pass's records, plus the tables computed."""
    by_system = {s["id"]: s for s in systems}
    tables = {s["id"]: system_tables(s["spec"]) for s in systems}
    out = []
    for rec in records:
        sid = rec["id"].rsplit("/", 1)[0]
        out += record_problems(kind, by_system[sid], tables[sid], rec)
    return out, tables


# -- negative controls ---------------------------------------------------------


def _drop_leaf_bag(rec):
    bad = copy.deepcopy(rec)
    tree = json.loads(bad["tree"])
    leaf = next(v["id"] for v in tree["vertices"]
                if v["type"] == "bag" and len(v["elements"]) == 1
                and sum(v["id"] in e for e in tree["edges"]) == 1)
    tree["vertices"] = [v for v in tree["vertices"] if v["id"] != leaf]
    tree["edges"] = [e for e in tree["edges"] if leaf not in e]
    for v in tree["vertices"]:
        if "cyclic" in v:
            v["cyclic"] = [w for w in v["cyclic"] if w != leaf]
    bad["tree"] = json.dumps(tree)
    return bad


def _extra_member(n, members):
    """The complement of a maximal member: with it two members cover E."""
    full = (1 << n) - 1
    top = max(_maximal({_mask(a) for a in members}))
    return sorted(members + [_bits(full ^ top)])


def negative_controls(kind, systems, records, tables):
    """Feed each check one corrupted record; return the names of the
    controls whose check saw nothing wrong, and how many ran."""
    by_system = {s["id"]: s for s in systems}
    controls = []

    def first(pred):
        for rec in records:
            sid = rec["id"].rsplit("/", 1)[0]
            if pred(rec, by_system[sid], tables[sid]):
                return rec, by_system[sid], tables[sid]
        return None

    if kind == "tree":
        rec, sysd, tab = first(lambda r, s, t: True)
        controls.append(("tree missing a leaf bag",
                         tree_path_problems(sysd, tab, _drop_leaf_bag(rec))))
        bad = copy.deepcopy(rec)
        bad["classes"] = bad["classes"][1:]
        controls.append(("one class missing", tree_path_problems(sysd, tab, bad)))
        if sysd.get("cycle"):
            bad = copy.deepcopy(rec)
            bad["tangles"][0] = _extra_member(tab[0], bad["tangles"][0])
            controls.append(("cycle tangle with an extra member",
                             tree_path_problems(sysd, tab, bad)))
        return _missed(controls)

    rec, sysd, tab = first(lambda r, s, t: r["tangles"])
    extra = _extra_member(tab[0], rec["tangles"][0])
    controls.append(("tangle with an extra member",
                     tangle_axiom_problems(tab[0], tab[1], rec["k"], extra)))
    verdicts = rec["robust"] if kind == "search" else [e["robust"] for e in rec["per_tangle"]]
    flipped = [not verdicts[0]] + verdicts[1:]
    controls.append(("flipped robustness verdict",
                     robust_problems(tab[0], rec["tangles"], flipped)))
    vertical = first(lambda r, s, t: t[2] is not None
                     and vertical_tangle(t[0], t[2], r["k"]) is not None)
    if vertical:
        rec, sysd, tab = vertical
        bad = [_extra_member(tab[0], rec["tangles"][0])]
        controls.append(("vertical tangle with an extra member",
                         vertical_problems(tab, rec["k"], bad)))
    r8 = first(lambda r, s, t: s.get("r8"))
    if r8:
        rec, sysd, tab = r8
        bad = copy.deepcopy(rec)
        bad["per_tangle"][0]["obstruction"] = [0, 1, 2, 3]
        controls.append(("wrong R_8 witness",
                         _oracle_entry_problems(sysd, bad, bad["per_tangle"][0])))
    return _missed(controls)


def _missed(controls):
    return [name for name, problems in controls if not problems], len(controls)
