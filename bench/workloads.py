"""Seeded inputs and one pass of each benchmark workload.

A workload is a list of systems, each run at one or more orders; one
(system, order) pair is one operation.  `run_pass` runs every operation
once through the library's public functions and returns plain records
(tangle members, class sides, tree JSON, verdicts) that the checks in
`checks.py` recompute independently and that later passes must repeat
exactly.  Every call into the library sits inside a span: a `Timer` on
untraced passes, a `Tracer` (spans plus lambda counts) on traced ones.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time

from tangleforge import (ConnectivitySystem, RankFunction, build_default_S,
                         build_maximal_tree, canonical_vertical_tangle,
                         enumerate_tangles, is_robust, maximal_flower,
                         verify_partial_kS_tree)
from tangleforge.bitset import elements_of
from tangleforge.errors import NonRobustObstruction
from tangleforge.jsonio import dumps, load_system, tree_to_json
from tangleforge.oracle import differential_report, oracle_certify_tree
from tangleforge.tangles import Tangle

# -- timing and tracing ------------------------------------------------------


REF_ITERATIONS = 4000
REF_TABLE = [bin(m).count("1") for m in range(1 << 14)]


def reference_loop():
    """About a millisecond of fixed interpreted work (list indexing, int
    masks, a small dict and set); its time is the unit of corpus_ref."""
    start = time.perf_counter()
    counts, seen, acc = {}, set(), 0
    for i in range(REF_ITERATIONS):
        m = (i * 40503) & 0x3FFF
        acc += REF_TABLE[m] + (m & 7)
        counts[m & 0xFF] = counts.get(m & 0xFF, 0) + 1
        if m & 0x101:
            seen.add(m)
    elapsed = time.perf_counter() - start
    if acc + len(counts) + len(seen) <= 0:
        raise AssertionError("reference loop lost its work")
    return elapsed


class Timer:
    """Untraced passes: a reference chunk is timed right before and right
    after every call, and `units` sums each call's time divided by the mean
    of its two chunks.  The host's speed changes within seconds, so only a
    reference taken next to the call measures the same speed; lam stays
    unwrapped."""

    traced = False

    def __init__(self):
        self.units = 0.0
        self.seconds = 0.0

    @contextlib.contextmanager
    def span(self, name, inst):
        before = reference_loop()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            after = reference_loop()
            self.seconds += elapsed
            self.units += elapsed / ((before + after) / 2)

    def wrap(self, system):
        return system


class Tracer:
    """Spans (name, start, end, parent instance, lam delta) kept in memory.

    `wrap` replaces a system's bound `lam` by a counting closure, so every
    lambda evaluation made after construction is attributed to the span
    open at the time.  Spans do not nest.
    """

    traced = True

    def __init__(self):
        self.spans = []
        self.lam = 0
        self.pass_index = 0

    @contextlib.contextmanager
    def span(self, name, inst):
        lam0 = self.lam
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append({"pass": self.pass_index, "name": name,
                               "parent": inst, "start": start, "end": end,
                               "lam": self.lam - lam0})

    def wrap(self, system):
        inner = system.lam

        def counted(mask, _inner=inner, _tracer=self):
            _tracer.lam += 1
            return _inner(mask)

        system.lam = counted
        return system


# -- input generation ---------------------------------------------------------


def _relabel(edges, rng):
    """Shuffle the edge order and rename the vertices: an isomorphic copy
    whose element and vertex numbering depend on the seed."""
    verts = sorted({v for e in edges for v in e}, key=repr)
    names = list(range(len(verts)))
    rng.shuffle(names)
    rename = dict(zip(verts, names))
    out = [(rename[u], rename[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _ring_of_triangles(m):
    """m triangles in a ring, consecutive ones sharing one vertex."""
    edges = []
    for i in range(m):
        a, b, c = 2 * i, 2 * i + 1, (2 * i + 2) % (2 * m)
        edges += [(a, b), (b, c), (a, c)]
    return edges


def _random_edges(rng, nv, ne, multi):
    possible = list(itertools.combinations(range(nv), 2))
    if multi:
        return [rng.choice(possible) for _ in range(ne)]
    return rng.sample(possible, ne)


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)])
K6_MINUS_EDGE = [e for e in itertools.combinations(range(6), 2) if e != (0, 1)]
GRID_3X3 = ([((r, c), (r, c + 1)) for r in range(3) for c in range(2)]
            + [((r, c), (r + 1, c)) for r in range(2) for c in range(3)])
K5 = list(itertools.combinations(range(5), 2))
CUBE_Q3 = [(a, b) for a in range(8) for b in range(a + 1, 8)
           if bin(a ^ b).count("1") == 1]
WHEEL_6 = _cycle(6) + [(i, 6) for i in range(6)]
TRIANGLE_CHAIN = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6),
                  (6, 7), (7, 8), (8, 9), (7, 9)]


def _system(sid, spec, orders, **facts):
    """One system: `spec` is a jsonio system object, or the benchmark's own
    {"kind": "graphic", "edges": ...} for a cycle matroid."""
    return {"id": sid, "spec": spec, "orders": list(orders), **facts}


def _graph(edges):
    return {"kind": "graph", "edges": [list(e) for e in edges]}


def _graphic(edges):
    return {"kind": "graphic", "edges": [list(e) for e in edges]}


def _uniform(r, n):
    return {"kind": "matroid", "source": {"uniform": {"r": r, "n": n}}}


def daisy_cycles(rng):
    out = []
    for n in (10, 11):
        edges = _relabel(_cycle(n), rng)
        out.append(_system(f"C{n}", _graph(edges), [2], cycle=True))
    return out


def anemone_uniform(rng):
    # U_{n-1,n} is invariant under relabelling, so the seed changes nothing.
    return [_system(f"U{n - 1},{n}", _uniform(n - 1, n), [2])
            for n in (8, 9)]


def oracle_graphs(rng):
    # The random graphs are drawn once from fixed generator seeds and only
    # relabelled by the run's seed: fresh random structure per seed moved
    # the pass cost by up to 60%, far more than any bound could absorb.
    out = []
    slots = [("multigraph", True, (5, 8)), ("multigraph", True, (7, 11)),
             ("multigraph", True, (7, 12)),
             ("graphic", False, (5, 8)), ("graphic", False, (7, 11)),
             ("graphic", False, (7, 12))]
    for i, (name, multi, (nv, ne)) in enumerate(slots):
        base = _random_edges(random.Random(f"oracle-graphs/{i}"), nv, ne, multi)
        spec = _graph if multi else _graphic
        out.append(_system(f"{name}-n{ne}", spec(_relabel(base, rng)), [2, 3, 4]))
    out.append(_system("triangle-chain", _graph(_relabel(TRIANGLE_CHAIN, rng)), [2, 3]))
    for m in (3, 4):
        out.append(_system(f"ring{m}", _graph(_relabel(_ring_of_triangles(m), rng)),
                           [2, 3]))
    for ell in (1, 2, 3):
        out.append(_system(f"R8-ell{ell}", {"kind": "r8_polymatroid", "ell": ell},
                           [ell + 3], r8=True))
    return out


def tangle_search(rng):
    return [
        _system("petersen", _graph(_relabel(PETERSEN, rng)), [2, 4, 5]),
        _system("K6-e", _graph(_relabel(K6_MINUS_EDGE, rng)), [2, 4]),
        _system("grid3x3", _graph(_relabel(GRID_3X3, rng)), [2, 3, 4, 5]),
        _system("Q3", _graph(_relabel(CUBE_Q3, rng)), [3]),
        _system("W6", _graph(_relabel(WHEEL_6, rng)), [3]),
        _system("M(K5)", _graphic(_relabel(K5, rng)), [2, 3, 4, 5]),
        _system("M(Q3)", _graphic(_relabel(CUBE_Q3, rng)), [3, 4]),
        _system("U3,12", _uniform(3, 12), [2, 3, 4]),
    ]


# name -> (input generator, pass kind, build with the axiom check?)
WORKLOADS = {
    "daisy-cycles": (daisy_cycles, "tree", False),
    "anemone-uniform": (anemone_uniform, "tree", False),
    "oracle-graphs": (oracle_graphs, "oracle", None),
    "tangle-search": (tangle_search, "search", False),
}


def make_inputs(workload, seed):
    generate = WORKLOADS[workload][0]
    return generate(random.Random(f"{workload}/{seed}"))


def operation_count(systems):
    return sum(len(s["orders"]) for s in systems)


# -- one pass -----------------------------------------------------------------


def build_system(spec, verify):
    if spec["kind"] == "graphic":
        rank = RankFunction.graphic([tuple(e) for e in spec["edges"]])
        return ConnectivitySystem.matroid(rank, verify=verify)
    return load_system(spec, verify=verify)


def _members(tangle):
    return sorted(elements_of(m) for m in tangle.members)


def _tree_record(tracer, inst, system, tangle, s_family):
    with tracer.span("trees.build", inst):
        tree = build_maximal_tree(system, tangle, s_family)
    with tracer.span("trees.verify", inst):
        verdict = verify_partial_kS_tree(system, tangle, s_family, tree)
    with tracer.span("oracle.certify", inst):
        certified, _ = oracle_certify_tree(system, tangle, s_family, tree)
    with tracer.span("jsonio.emit", inst):
        out = tree_to_json(system, tree)
        out["verdict"] = verdict.to_json()
        text = dumps(out)
    return {"tree": text, "verdict_ok": verdict.ok, "certified": certified}


def _seed_flower(tracer, inst, system, tangle):
    """The extra traced call: maximal_flower from the separation that
    build_maximal_tree seeds from, on a fresh tangle and S family whose
    classes are already computed, as they are when the build starts."""
    with tracer.span("flowers.seed_prep", inst):
        fresh = Tangle(system, tangle.k, tangle.members)
        s_family = build_default_S(system, fresh)
        seps = s_family.separations()
        s_family.classes()
    if seps:
        with tracer.span("flowers.seed", inst):
            maximal_flower(system, fresh, s_family, seps[0])


def _tree_path(tracer, sysd, verify):
    """The `tangleforge tree --verify` path for one system at one order."""
    k = sysd["orders"][0]
    inst = f"{sysd['id']}/k{k}"
    with tracer.span("core.build", inst):
        system = tracer.wrap(build_system(sysd["spec"], verify))
    if system.kind == "matroid":
        with tracer.span("tangles.canonical", inst):
            tangle = canonical_vertical_tangle(system, k)
        tangles = [tangle]
    else:
        with tracer.span("tangles.enumerate", inst):
            tangles = enumerate_tangles(system, k)
        tangle = tangles[0]
    with tracer.span("closure.classes", inst):
        s_family = build_default_S(system, tangle)
        classes = s_family.classes()
    if tracer.traced:
        _seed_flower(tracer, inst, system, tangle)
    rec = {"id": inst, "k": k, "tangles": [_members(t) for t in tangles],
           "classes": [[elements_of(s.side) for s in cls] for cls in classes]}
    rec.update(_tree_record(tracer, inst, system, tangle, s_family))
    return [rec]


def _oracle_path(tracer, sysd, verify):
    """Differential report for every tangle; a tree for every robust one,
    the non-robust obstruction for R_8."""
    with tracer.span("core.build", sysd["id"]):
        system = tracer.wrap(build_system(sysd["spec"], verify))
    records = []
    for k in sysd["orders"]:
        inst = f"{sysd['id']}/k{k}"
        with tracer.span("tangles.enumerate", inst):
            tangles = enumerate_tangles(system, k)
        rec = {"id": inst, "k": k, "tangles": [_members(t) for t in tangles],
               "per_tangle": []}
        for tangle in tangles:
            with tracer.span("closure.classes", inst):
                s_family = build_default_S(system, tangle)
                n_classes = len(s_family.classes())
            with tracer.span("oracle.differential", inst):
                report = differential_report(system, tangle, s_family)
            with tracer.span("tangles.robust", inst):
                robust = is_robust(tangle)
            entry = {"classes": n_classes, "differential_ok": report.ok,
                     "robust": robust}
            if robust:
                entry.update(_tree_record(tracer, inst, system, tangle, s_family))
            elif sysd.get("r8"):
                with tracer.span("trees.build", inst):
                    try:
                        build_maximal_tree(system, tangle, s_family)
                        entry["obstruction"] = None
                    except NonRobustObstruction as exc:
                        entry["obstruction"] = elements_of(exc.separation.side)
            rec["per_tangle"].append(entry)
        records.append(rec)
    return records


def _search_path(tracer, sysd, verify):
    with tracer.span("core.build", sysd["id"]):
        system = tracer.wrap(build_system(sysd["spec"], verify))
    records = []
    for k in sysd["orders"]:
        inst = f"{sysd['id']}/k{k}"
        with tracer.span("tangles.enumerate", inst):
            tangles = enumerate_tangles(system, k)
        robust = []
        for tangle in tangles:
            with tracer.span("tangles.robust", inst):
                robust.append(is_robust(tangle))
        records.append({"id": inst, "k": k, "tangles": [_members(t) for t in tangles],
                        "robust": robust})
    return records


PATHS = {"tree": _tree_path, "oracle": _oracle_path, "search": _search_path}


def run_pass(workload, systems, tracer):
    """Run every operation once.  Returns the records of the operations
    that completed and one line per operation that raised; a system that
    raises fails all of its orders."""
    _, kind, verify = WORKLOADS[workload]
    path = PATHS[kind]
    records, failures = [], []
    for sysd in systems:
        try:
            records.extend(path(tracer, sysd, verify))
        except Exception as exc:  # noqa: BLE001 - counted and reported as failed
            failures += [f"{sysd['id']}/k{k}: {exc!r}" for k in sysd["orders"]]
    return records, failures
