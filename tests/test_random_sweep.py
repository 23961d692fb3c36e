"""Seeded randomized sweep: every structure on random graph and graphic
matroid systems agrees with the oracle, and every robust tangle yields a
certified maximal tree."""

import itertools
import random

from tangleforge import (ConnectivitySystem, RankFunction, enumerate_tangles,
                         is_robust, verify_connectivity_axioms, verify_tangle)
from tangleforge.closure import build_default_S
from tangleforge.errors import SearchSpaceTooLarge
from tangleforge.oracle import differential_report, oracle_certify_tree
from tangleforge.trees import build_maximal_tree, verify_partial_kS_tree

from conftest import displayed_tree_class_ids


def random_edges(rng, min_v=3, max_v=6, max_e=8, allow_multi=True):
    nv = rng.randint(min_v, max_v)
    possible = list(itertools.combinations(range(nv), 2))
    ne = rng.randint(3, min(max_e, len(possible) + 2))
    if allow_multi:
        return [rng.choice(possible) for _ in range(ne)]
    return rng.sample(possible, min(ne, len(possible)))


def sweep(system, orders, check_flowers):
    built = 0
    assert verify_connectivity_axioms(system) == []
    for k in orders:
        try:
            tangles = enumerate_tangles(system, k)
        except SearchSpaceTooLarge:
            continue
        for tangle in tangles:
            assert verify_tangle(system, tangle) == []
            s_family = build_default_S(system, tangle)
            report = differential_report(system, tangle, s_family,
                                         max_petals=4 if check_flowers else None)
            assert report.ok, report.disagreements
            if not is_robust(tangle):
                continue
            tree = build_maximal_tree(system, tangle, s_family)
            verdict = verify_partial_kS_tree(system, tangle, s_family, tree)
            assert verdict.ok, verdict.failures
            assert (displayed_tree_class_ids(system, tangle, s_family, tree)
                    == frozenset(range(len(s_family.classes()))))
            ok, problems = oracle_certify_tree(system, tangle, s_family, tree)
            assert ok, problems
            built += 1
    return built


def test_random_multigraph_systems():
    built = 0
    for seed in range(24):
        rng = random.Random(seed)
        edges = random_edges(rng)
        system = ConnectivitySystem.graph(edges, verify=False)
        built += sweep(system, (2, 3), check_flowers=system.n <= 8)
    assert built >= 20


def test_random_graphic_matroid_systems():
    built = 0
    for seed in range(16):
        rng = random.Random(1000 + seed)
        edges = random_edges(rng, min_v=4, max_v=6, allow_multi=False)
        system = ConnectivitySystem.matroid(RankFunction.graphic(edges),
                                            verify=False)
        built += sweep(system, (2, 3, 4), check_flowers=system.n <= 8)
    assert built >= 10
