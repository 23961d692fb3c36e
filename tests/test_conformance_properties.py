"""Property test: the one-pass (P5) check of `verify_partial_kS_tree`, which
builds the tree's display set once, agrees with asking `conforms_with_tree`
about every (k,S)-separation separately.

The trees come from small random graphs (at most 8 edges): every step of
the construction (the single bag, the seed tree and each extension), which
all conform, and the two-bag tree of every (k,S)-separation, which fails
(P5) whenever another class crosses it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tangleforge import (ConnectivitySystem, build_default_S, enumerate_tangles,
                         extend_tree, is_robust, verify_partial_kS_tree)
from tangleforge.trees import PiTree, single_bag_tree

from conftest import conforms_with_tree

MAX_EDGES = 8


@st.composite
def graphs(draw):
    nv = draw(st.integers(3, 5))
    vertex = st.integers(0, nv - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return draw(st.lists(edge, min_size=3, max_size=MAX_EDGES))


@settings(max_examples=30, deadline=None)
@given(edges=graphs(), k=st.sampled_from([2, 3]))
def test_one_pass_p5_matches_per_separation(edges, k):
    system = ConnectivitySystem.graph(edges, verify=False)
    for tangle in enumerate_tangles(system, k):
        s_family = build_default_S(system, tangle)
        trees = [PiTree(k, {0: sep.side, 1: system.full ^ sep.side}, {}, [(0, 1)])
                 for sep in s_family.separations()]
        trees.append(single_bag_tree(system, k))
        if is_robust(tangle):
            while True:
                nxt = extend_tree(system, tangle, s_family, trees[-1])
                if nxt is None:
                    break
                trees.append(nxt)
        for t in trees:
            verdict = verify_partial_kS_tree(system, tangle, s_family, t)
            failing = [s for s in s_family.separations()
                       if not conforms_with_tree(system, tangle, s_family, s, t)]
            assert verdict.passed["P5"] == (not failing)
            assert [w for a, w in verdict.failures if a == "P5"] == failing[:1]
