"""Pi-labelled trees, partial (k,S)-tree verification, bag surgery, and the
maximal partial k-tree construction.

A PiTree's vertices are bags (masks, possibly empty) or flower vertices
labelled A or D; D vertices carry a cyclic order on their incident edges.
Bags partition the ground set; edges and flower vertices display
k-separations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .bitset import down_closure, elements_of, maximal_family
from .core import ConnectivitySystem
from .closure import Separation, TreeCompatibleSet, full_closure, full_closure_sequence
from .errors import PreconditionFailed, TangleforgeError, ViolationFound
from .flowers import (ANEMONE, DAISY, Flower, classify, displayed_kS, displayed_separations,
                      first_nonconforming, loose_petals, maximal_flower, maximal_flower_from,
                      verify_flower)
from .tangles import Tangle, is_robust


class PiTree:
    """Immutable labelled tree; surgery returns new instances.

    Edge sides are indexed at construction, so display queries do no
    graph search.
    """

    def __init__(self, k: int, bags: Dict[int, int], labels: Dict[int, str],
                 edges: Sequence[Tuple[int, int]],
                 cyclic: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.k = k
        self.bags = dict(bags)
        self.labels = dict(labels)
        self.edge_list = tuple(tuple(sorted(e)) for e in edges)
        self.cyclic = dict(cyclic or {})
        adj: Dict[int, List[int]] = {v: [] for v in self.vertices()}
        if not adj:
            raise PreconditionFailed("tree has no vertex")
        for u, v in self.edge_list:
            if u not in adj or v not in adj:
                raise PreconditionFailed(
                    f"edge ({u},{v}) has an end that is neither a bag nor a flower vertex")
            adj[u].append(v)
            adj[v].append(u)
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._index_structure()

    def _index_structure(self):
        """One walk of the bags and edges, at construction.  It records the
        bag union, whether two bags overlap, whether a BFS from the least
        vertex reaches every vertex, and side[(u, v)] for both orientations
        of every edge: a child's side is its subtree's bag union, the
        parent's side the rest.  Inputs that are not a tree with disjoint
        bags get an empty side index and fall back to a component search
        per query."""
        verts = self.vertices()
        union = overlap = 0
        for bag in self.bags.values():
            overlap |= union & bag
            union |= bag
        self._union, self._overlap = union, bool(overlap)
        parent = {verts[0]: None}
        order = [verts[0]]
        for v in order:
            for w in self.adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        self._connected = len(order) == len(verts)
        self._sides: Dict[Tuple[int, int], int] = {}
        if self._overlap or not self._connected or len(self.edge_list) != len(verts) - 1:
            return
        down = {v: self.bags.get(v, 0) for v in verts}
        for w in reversed(order[1:]):
            down[parent[w]] |= down[w]
            self._sides[(w, parent[w])] = down[w]
            self._sides[(parent[w], w)] = union ^ down[w]

    def side(self, u: int, v: int) -> int:
        """Union of the bags in u's component of the tree minus the edge (u,v)."""
        mask = self._sides.get((u, v))
        if mask is None:
            blocked = {u, v}
            seen = {u}
            stack = [u]
            mask = 0
            while stack:
                x = stack.pop()
                mask |= self.bags.get(x, 0)
                for w in self.adj[x]:
                    if w not in seen and {x, w} != blocked:
                        seen.add(w)
                        stack.append(w)
        return mask

    def petals_at(self, v: int) -> Tuple[int, ...]:
        """Bag unions of the components at a flower vertex, in its edge order
        (cyclic for D, sorted for A)."""
        return tuple(self.side(w, v) for w in self.cyclic.get(v, self.adj[v]))

    def vertices(self) -> List[int]:
        return sorted(set(self.bags) | set(self.labels))

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self.edge_list

    def is_leaf(self, v: int) -> bool:
        return len(self.adj[v]) == 1

    def is_bag_vertex(self, v: int) -> bool:
        return v in self.bags

    def fresh_vertex(self) -> int:
        return max(self.vertices()) + 1

    def validate_structure(self, sys: ConnectivitySystem) -> List[str]:
        """Tree-ness, bag partition, label sanity, cyclic-order sanity, read
        off the facts `_index_structure` recorded."""
        problems = []
        if set(self.bags) & set(self.labels):
            problems.append("vertex both bag and flower vertex")
        if len(self.edge_list) != len(self.adj) - 1:
            problems.append("edge count is not |V|-1")
        if not self._connected:
            problems.append("graph is not connected")
        if self._overlap:
            problems.append("bags overlap")
        if self._union != sys.full:
            problems.append("bags do not cover the ground set")
        for v, lab in self.labels.items():
            if lab not in ("A", "D"):
                problems.append(f"vertex {v} has label {lab!r}")
            if lab == "D":
                cyc = self.cyclic.get(v)
                if cyc is None or sorted(cyc) != sorted(self.adj[v]):
                    problems.append(f"D vertex {v} lacks a cyclic order over its edges")
        return problems

    def replaced(self, bags=None, labels=None, edges=None, cyclic=None) -> "PiTree":
        return PiTree(self.k,
                      self.bags if bags is None else bags,
                      self.labels if labels is None else labels,
                      self.edge_list if edges is None else edges,
                      self.cyclic if cyclic is None else cyclic)


def single_bag_tree(sys: ConnectivitySystem, k: int) -> PiTree:
    return PiTree(k, {0: sys.full}, {}, [])


def _vertex_flowers(sys: ConnectivitySystem, tangle: Tangle, t: PiTree):
    """Each flower vertex with the flower of its petals, or with the error
    they raise: a (P3)/(P4) failure, and a vertex that displays nothing."""
    for v in t.labels:
        try:
            f = verify_flower(sys, tangle, t.petals_at(v), t.k)
        except TangleforgeError as exc:
            f = exc
        yield v, f


def _shown_class_ids(sys: ConnectivitySystem, tangle: Tangle,
                     s_family: TreeCompatibleSet, t: PiTree) -> FrozenSet[int]:
    """The ids of the (k,S)-classes t displays, without its display set: a
    canonical edge side is looked up in the class index, and a flower
    vertex whose petals pass `verify_flower` shows the (k,S)-separations
    no petal crosses (`displayed_kS`).  A tree of another order shows none."""
    ids = {s_family.class_id(Separation.make(sys, t.side(u, v), t.k)) for u, v in t.edges()}
    for _, f in _vertex_flowers(sys, tangle, t):
        if isinstance(f, Flower):
            ids.update(map(s_family.class_id, displayed_kS(sys, tangle, s_family, f)))
    return frozenset(ids - {None})


def _nonempty_bags(t: PiTree) -> List[int]:
    return [b for b in t.bags.values() if b]


AXIOMS = ("P2", "P1", "P3", "P4", "P5")  # in the key order of TreeVerdict.passed


class TreeVerdict(NamedTuple):
    """The failures of partial (k,S)-tree verification, and the separations
    the tree displays in ascending order; an axiom passes iff no failure
    names it."""

    failures: List[Tuple[str, object]]
    displayed: List[Separation]

    @property
    def passed(self) -> Dict[str, bool]:
        failed = {a for a, _ in self.failures}
        return {a: a not in failed for a in AXIOMS}

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "ok": self.ok,
            "passed": self.passed,
            "failures": [{"axiom": a, "witness": _witness_json(a, w)}
                         for a, w in self.failures],
            "displayed": [elements_of(s.side) for s in self.displayed],
        }


def _witness_json(axiom: str, witness):
    """P1: the edge [u, v]; P3/P4: the vertex and the failure detail; P5:
    the side's elements; P2: the structure message as it is."""
    if axiom == "P1":
        return list(witness)
    if axiom in ("P3", "P4"):
        vertex, detail = witness
        return {"vertex": vertex, "detail": detail}
    if axiom == "P5":
        return elements_of(witness.side)
    return witness


def verify_partial_kS_tree(sys: ConnectivitySystem, tangle: Tangle,
                           s_family: TreeCompatibleSet, t: PiTree) -> TreeVerdict:
    """Check (P1)-(P5) in one walk of the edges and one of the flower
    vertices.  The edge walk reads each side once and calls lam once per
    edge, for (P1) and for the edge's display; the vertex walk collects each
    flower vertex's displays before checking its label, S-order and
    looseness (P3)/(P4).  The display set so built serves (P5), which tests
    each class of the (k,S)-separations once against it, and the verdict's
    `displayed`."""
    failures = [("P2", msg) for msg in t.validate_structure(sys)]
    displayed = set()
    for u, v in t.edges():
        x = t.side(u, v)
        y = sys.full ^ x
        lam, sep = sys.lam(x), Separation.make(sys, x, t.k)
        if x and y and lam <= t.k:
            displayed.add(sep)
        if (lam > t.k or tangle.is_weak(x) or tangle.is_weak(y)
                or t.is_bag_vertex(u) and t.is_bag_vertex(v)
                and not s_family.is_kS_separation(sep)):
            failures.append(("P1", (u, v)))

    for v, f in _vertex_flowers(sys, tangle, t):
        lab = t.labels[v]
        try:
            if isinstance(f, TangleforgeError):
                raise f  # its petals are no flower, so it displays nothing
            shown = displayed_separations(sys, tangle, f)
            displayed.update(shown)
            klass = classify(sys, f)
            want_ok = (klass == ANEMONE) if lab == "A" else (klass == DAISY or f.n <= 3)
            s_order = len({s_family.class_id(s) for s in shown} - {None})
            if not want_ok or s_order < 2 or loose_petals(sys, tangle, f):
                raise ViolationFound("flower vertex fails label/order/looseness", v)
        except TangleforgeError as exc:
            failures.append(("P3" if lab == "A" else "P4", (v, str(exc))))

    failing = first_nonconforming(sys, s_family, displayed, _nonempty_bags(t))
    if failing is not None:
        failures.append(("P5", failing))
    return TreeVerdict(failures, sorted(displayed))


def flower_to_tree(sys: ConnectivitySystem, tangle: Tangle, f: Flower) -> PiTree:
    """One bag for n=1, two adjacent bags for n=2, a labelled star for n>=3."""
    if f.n == 1:
        return PiTree(f.k, {0: f.petals[0]}, {}, [])
    if f.n == 2:
        return PiTree(f.k, {0: f.petals[0], 1: f.petals[1]}, {}, [(0, 1)])
    return _with_star(f.k, {}, {}, (), {}, 0, f.petals, classify(sys, f))


def _with_star(k, bags, labels, edges, cyclic, center, petals, klass, tail=()) -> PiTree:
    """The tree of bags, labels, edges and cyclic orders with `center` made
    a flower vertex of class klass, and the petals hung off it as leaf bags
    numbered from one above the largest vertex; the new edges follow
    `edges`, and a D vertex gets the cyclic edge order (leaves..., *tail)."""
    first = max((*bags, *labels, center)) + 1
    leaves = tuple(range(first, first + len(petals)))
    label = "A" if klass == ANEMONE else "D"
    if label == "D":
        cyclic = {**cyclic, center: leaves + tail}
    return PiTree(k, {**bags, **dict(zip(leaves, petals))}, {**labels, center: label},
                  list(edges) + [(center, w) for w in leaves], cyclic)


# -- bag surgery -----------------------------------------------------------


def _require_s_terminal(sys, s_family, t, leaf) -> int:
    if not t.is_bag_vertex(leaf) or not t.is_leaf(leaf):
        raise PreconditionFailed("vertex is not a leaf bag vertex")
    b = t.bags[leaf]
    if not s_family.is_kS_separation(Separation.make(sys, b, t.k)):
        raise PreconditionFailed("terminal bag is not an S-terminal bag")
    return b


def grow_terminal_bag(sys: ConnectivitySystem, tangle: Tangle,
                      s_family: TreeCompatibleSet, t: PiTree,
                      leaf: int, x: int) -> PiTree:
    """Absorb a weak set into an S-terminal bag, stripping it elsewhere."""
    b = _require_s_terminal(sys, s_family, t, leaf)
    if x == 0 or x & b or tangle.is_strong(x):
        raise PreconditionFailed("x must be a non-empty weak subset of E-B")
    if sys.lam(b | x) > t.k:
        raise PreconditionFailed("B | x is not k-separating")
    bags = {v: (bag | x if v == leaf else bag & ~x) for v, bag in t.bags.items()}
    return t.replaced(bags=bags)


def split_terminal_bag(sys: ConnectivitySystem, tangle: Tangle,
                       s_family: TreeCompatibleSet, t: PiTree,
                       leaf: int, x: int) -> PiTree:
    """Carve a weak set out of an S-terminal bag into the old vertex; the
    shrunken bag moves to a fresh leaf."""
    b = _require_s_terminal(sys, s_family, t, leaf)
    if x == 0 or x & ~b or tangle.is_strong(x):
        raise PreconditionFailed("x must be a non-empty weak subset of B")
    if sys.lam(b & ~x) > t.k:
        raise PreconditionFailed("B - x is not k-separating")
    return _split_bag(t, leaf, b & ~x)


def _split_bag(t: PiTree, u: int, moved: int) -> PiTree:
    """Move `moved` out of u's bag into a fresh leaf hung off u."""
    v = t.fresh_vertex()
    bags = dict(t.bags)
    bags[u] &= ~moved
    bags[v] = moved
    return t.replaced(bags=bags, edges=list(t.edge_list) + [(u, v)])


def retarget_terminal_bag(sys: ConnectivitySystem, tangle: Tangle,
                          s_family: TreeCompatibleSet, t: PiTree,
                          leaf: int, c: int) -> Tuple[PiTree, int]:
    """Replace an S-terminal bag B by C with fcl(B) = fcl(C): grow to the
    closure along B's maximal partial k-sequence, then split back down along
    C's reversed one.  Returns the tree and the vertex now holding C; for
    C = B that is t and the leaf, unchanged."""
    b = _require_s_terminal(sys, s_family, t, leaf)
    if not s_family.is_kS_separation(Separation.make(sys, c, t.k)):
        raise PreconditionFailed("(C, E-C) is not a (k,S)-separation")
    if c == b:
        return t, leaf
    fcl_b, grow_steps = full_closure_sequence(sys, tangle, b)
    fcl_c, shrink_steps = full_closure_sequence(sys, tangle, c)
    if fcl_b != fcl_c:
        raise PreconditionFailed("closures differ")
    cur = t
    for y in grow_steps:
        cur = grow_terminal_bag(sys, tangle, s_family, cur, leaf, y)
    holder = leaf
    for y in reversed(shrink_steps):
        cur = split_terminal_bag(sys, tangle, s_family, cur, holder, y)
        holder = max(cur.vertices())
    if cur.bags[holder] != c:
        raise ViolationFound("retargeted bag does not hold C", (cur.bags[holder], c))
    return cur, holder


# -- the extension step and the main construction --------------------------


def _find_rep_in_bag(sys, s_family, t, target):
    """A side of a member of target's class inside a bag, and that bag's
    vertex; target's class has no member in t's display set."""
    for member in s_family.class_of(target):
        for side in member.sides(sys):
            for v, bag in sorted(t.bags.items()):
                if bag and side & ~bag == 0:
                    return side, v
    raise ViolationFound("separation neither displayed-equivalent nor in a bag (P5 broken)",
                         target)


def _maximal_k_separating_between(sys, tangle, lower: int, upper: int,
                                  allow_equal: bool) -> int:
    """Subset-maximal k-separating Z with lower <= Z <= upper (Z proper in
    upper unless allow_equal); ties broken by smallest mask.  Bit S of the
    family below is set iff lower | S is such a Z, for S inside the gap."""
    gap = upper & ~lower
    found = (sys.k_separating(tangle.k) >> lower) & down_closure(gap)
    if not allow_equal and lower | gap == upper:
        found &= ~(1 << gap)
    if not found:
        raise PreconditionFailed("no k-separating set in the interval")
    maximal = maximal_family(found, sys.n)
    return lower | ((maximal & -maximal).bit_length() - 1)


def _petals_in(sys, f: Flower, c: int) -> Tuple[int, ...]:
    """The petals of f inside a proper side C that f displays: an anemone's
    in index order, a daisy's along their cyclic run from its start."""
    in_c = [i for i, p in enumerate(f.petals) if p & ~c == 0]
    if classify(sys, f) == DAISY:  # a daisy displays only cyclic runs
        start = next(i for i in in_c if (i - 1) % f.n not in in_c)
        in_c = [(start + i) % f.n for i in range(len(in_c))]
    return tuple(f.petals[i] for i in in_c)


def _split_internal_bag(sys, tangle, s_family, t, u, side) -> PiTree:
    """Case II: split the internal bag at u around a maximal k-separating Z
    between side and the bag."""
    z = _maximal_k_separating_between(sys, tangle, side, t.bags[u], allow_equal=True)
    if not s_family.is_kS_separation(Separation.make(sys, z, t.k)):
        raise ViolationFound("internal-bag Z is not a (k,S)-separation",
                             Separation.make(sys, z, t.k))
    return _split_bag(t, u, z)


def _extend_at_leaf(sys, tangle, s_family, t, u, side) -> PiTree:
    """Case I: u is a leaf whose bag B contains side properly.  Fully close
    B's complement, leaving B1 at a leaf; choose a maximal k-separating Z
    between R1 and B1; then either hang Z as a new leaf (when B1 & W is not
    k-separating) or grow a maximal flower f* from f0 = (Z, B1 & W, E - B1).
    In f0 the fully closed petal E - B1 = fcl(E - B) absorbs neither other
    petal; the flower loop checks the other absorptions.  f0 displays
    (B1, E - B1) and (W, Z), and the loop only splits petals, so f* displays
    both (checked: a miss raises ViolationFound with the separation).  So
    the graft is made at B1 itself: its leaf becomes the flower vertex, with
    the petals inside B1 as new leaf bags, and no empty bag is left."""
    k = t.k
    fcl_co, steps = full_closure_sequence(sys, tangle, sys.full ^ t.bags[u])
    holder = u
    for y in steps:
        t = split_terminal_bag(sys, tangle, s_family, t, holder, y)
        holder = max(t.vertices())
    b1 = sys.full ^ fcl_co
    r1 = sys.full ^ full_closure(sys, tangle, sys.full ^ side)
    if not r1 or r1 & ~b1 or r1 == b1:
        raise ViolationFound("R1 is not a non-empty proper subset of B1", (r1, b1))
    z = _maximal_k_separating_between(sys, tangle, r1, b1, allow_equal=False)
    w = sys.full ^ z
    wz = Separation.make(sys, z, k)
    if not s_family.is_kS_separation(wz):
        raise ViolationFound("(W, Z) is not a (k,S)-separation", wz)
    bw = b1 & w
    if sys.lam(bw) > k:
        # New leaf Z; the old terminal vertex, whose bag is B1, keeps B1 & W.
        return _split_bag(t, holder, z)
    if not tangle.is_strong(bw):
        raise ViolationFound("B & W is weak on the flower route", (bw,))
    f0 = verify_flower(sys, tangle, (z, bw, sys.full ^ b1), k)
    fstar = maximal_flower_from(sys, tangle, s_family, f0)
    shown = displayed_kS(sys, tangle, s_family, fstar)
    for sep in (Separation.make(sys, b1, k), wz):
        if sep not in shown:
            raise ViolationFound("maximal flower does not display a (k,S)-separation of f0", sep)
    prefix = _petals_in(sys, fstar, b1)
    fpp = verify_flower(sys, tangle, prefix + (sys.full ^ b1,), k)
    # The holder becomes fpp's flower vertex; its neighbour (side E - B1) is last in a D order.
    bags = {v: bag for v, bag in t.bags.items() if v != holder}
    return _with_star(k, bags, t.labels, t.edge_list, t.cyclic, holder, prefix,
                      classify(sys, fpp), tail=t.adj[holder])


def extend_tree(sys: ConnectivitySystem, tangle: Tangle,
                s_family: TreeCompatibleSet, t: PiTree) -> Optional[PiTree]:
    """One extension step: returns a tree above t in the quasi-order (it
    displays every (k,S)-class t displays and at least one more), or None
    when every class is already displayed.

    The target is the first class t does not display.  A side of one of its
    members lies in a bag; an internal bag is split (Case II), a leaf bag
    gets a new leaf or a grafted flower (Case I).  A step that is not above
    t raises ViolationFound.
    """
    return _extend(sys, tangle, s_family, t, None)[0]


def _extend(sys, tangle, s_family, t, base_ids):
    """`extend_tree` on t with class ids base_ids (None: not yet found);
    returns the next tree, or None, and its class ids (None after a seed)."""
    if not is_robust(tangle):
        raise PreconditionFailed("tangle is not robust")
    if base_ids is None:
        base_ids = _shown_class_ids(sys, tangle, s_family, t)
    target = next((cls[0] for cid, cls in enumerate(s_family.classes())
                   if cid not in base_ids), None)
    if target is None:
        return None, base_ids
    if not base_ids:
        # Trivial tree: replace it by the tree of a maximal flower seeded at
        # the target class (vacuously above the input in the quasi-order).
        return _seed_tree(sys, tangle, s_family, target), None
    side, u = _find_rep_in_bag(sys, s_family, t, target)
    case = _extend_at_leaf if t.is_leaf(u) else _split_internal_bag
    nxt = case(sys, tangle, s_family, t, u, side)
    ids = _shown_class_ids(sys, tangle, s_family, nxt)
    if not base_ids < ids:
        raise ViolationFound("extension step is not above its input in the quasi-order",
                             sorted(base_ids - ids) or target)
    return nxt, ids


def _seed_tree(sys: ConnectivitySystem, tangle: Tangle,
               s_family: TreeCompatibleSet, seed: Separation) -> PiTree:
    """The tree of a maximal flower displaying seed's class.

    A flower vertex needs S-order at least 3, and for a tree-compatible S a
    flower of three or more petals displays two classes.  The 2-petal seed
    (X, E-X) displays seed's class and is loose-free by the definition of S
    (`maximal_flower`).  The loop only splits petals, keeping every display,
    until no petal crosses a member of a non-conforming class, so that
    class, not the seed's, is displayed too.  A flower of three or more
    petals that displays one class raises ViolationFound with it as witness."""
    f = maximal_flower(sys, tangle, s_family, seed)
    if f.n > 2 and len({s_family.class_id(s) for s in displayed_kS(sys, tangle, s_family, f)}) < 2:
        raise ViolationFound("maximal flower of three or more petals displays one class", f)
    return flower_to_tree(sys, tangle, f)


def build_maximal_tree(sys: ConnectivitySystem, tangle: Tangle,
                       s_family: TreeCompatibleSet) -> PiTree:
    """Iterate extension steps from a maximal-flower seed until every
    (k,S)-equivalence class is displayed by the tree; each step hands the
    class ids of its tree to the next."""
    seps = s_family.separations()
    if not seps:
        return single_bag_tree(sys, tangle.k)
    t, ids = _seed_tree(sys, tangle, s_family, seps[0]), None
    while True:
        nxt, ids = _extend(sys, tangle, s_family, t, ids)
        if nxt is None:
            return t
        t = nxt
