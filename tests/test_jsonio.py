import json
import re

import pytest

from tangleforge import build_r8_rank, enumerate_tangles
from tangleforge.closure import (Separation, TreeCompatibleSet,
                                 verify_tree_compatible)
from tangleforge.errors import PreconditionFailed
from tangleforge.jsonio import (dumps, load_system, separation_to_json,
                                tangle_from_json, tangle_to_json)

from conftest import lab


def test_load_uniform_matroid():
    sys = load_system({"kind": "matroid", "source": {"uniform": {"r": 2, "n": 4}}})
    assert sys.kind == "matroid" and sys.n == 4
    assert sys.lam(0b0001) == 2


def test_load_matroid_from_bases():
    r8 = build_r8_rank()
    bases = [sorted(e for e in range(8) if m >> e & 1)
             for m in range(1 << 8)
             if bin(m).count("1") == 4 and r8.rank(m) == 4]
    sys = load_system({"kind": "matroid", "source": {"bases": bases}})
    assert all(sys.rank.rank(m) == r8.rank(m) for m in range(1 << 8))


@pytest.mark.parametrize("bases, bad", [
    ([[3, 4]], [3, 4]),
    ([[0, 1], [0, 4]], [0, 4]),
    ([[0, -1]], [0, -1]),
])
def test_load_bases_refuses_elements_outside_the_ground_set(bases, bad):
    with pytest.raises(PreconditionFailed,
                       match=re.escape(f"basis {bad} has elements outside 0..2")):
        load_system({"kind": "matroid", "source": {"n": 3, "bases": bases}})


def test_load_empty_basis_with_n():
    sys = load_system({"kind": "matroid", "source": {"n": 3, "bases": [[]]}})
    assert sys.n == 3
    assert all(sys.rank.rank(m) == 0 for m in range(1 << 3))


def test_load_bases_without_n_needs_an_element():
    with pytest.raises(ValueError, match="give n"):
        load_system({"kind": "matroid", "source": {"bases": [[], []]}})


def test_load_matroid_from_rank_table():
    r8 = build_r8_rank()
    table = [r8.rank(m) for m in range(1 << 8)]
    sys = load_system({"kind": "matroid", "source": {"rank_table": table}})
    assert sys.lam(lab(1, 2, 3, 4)) == 3 + 3 - 4 + 1


def test_load_graph_and_labels():
    sys = load_system({"kind": "graph", "edges": [[0, 1], [1, 2], [2, 0]],
                       "labels": ["a", "b", "c"]})
    assert sys.labels == ("a", "b", "c")
    assert sys.lam(0b001) == 2


@pytest.mark.parametrize("labels", [[], ["a"]], ids=["empty", "short"])
def test_load_refuses_labels_of_another_length(labels):
    # an empty list is a list of 0 labels, not "no labels"
    with pytest.raises(ValueError, match="labels length must equal n"):
        load_system({"kind": "graph", "edges": [[0, 1], [1, 2], [2, 0]],
                     "labels": labels})


def test_load_table_and_r8():
    sys = load_system({"kind": "r8_polymatroid", "ell": 2})
    assert sys.lam(lab(1, 2)) == 2 + 4 + 2 - 3
    t = load_system({"kind": "table", "n": 2, "lambda": [0, 1, 1, 0]})
    assert t.lam(0b01) == 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        load_system({"kind": "mystery"})


def test_tangle_roundtrip(r8p1):
    t = enumerate_tangles(r8p1, 4)[0]
    back = tangle_from_json(r8p1, tangle_to_json(t))
    assert back.members == t.members and back.k == t.k


def test_separation_to_json_is_canonical(r8p1):
    s = Separation.make(r8p1, lab(5, 6, 7, 8), 4)
    assert separation_to_json(r8p1, s) == {"side": [0, 1, 2, 3], "k": 4}


def test_dumps_deterministic():
    a = dumps({"b": [2, 1], "a": 1})
    b = dumps({"a": 1, "b": [2, 1]})
    assert a == b


def test_explicit_S_matches_default_on_r8(ctx_r8p1):
    sys, tangle = ctx_r8p1.sys, ctx_r8p1.tangle
    masks = [x for x in range(1 << sys.n) if ctx_r8p1.S.contains(x)]
    explicit = TreeCompatibleSet(sys, tangle, explicit=masks)
    assert verify_tree_compatible(sys, tangle, explicit) == []
    assert explicit.separations() == ctx_r8p1.S.separations()
    got = [[s.side for s in cls] for cls in explicit.classes()]
    want = [[s.side for s in cls] for cls in ctx_r8p1.S.classes()]
    assert got == want


TRIANGLE = [[0, 1], [1, 2], [2, 0]]


@pytest.mark.parametrize("obj, message", [
    pytest.param({"kind": "matroid", "source": {"graphic": TRIANGLE}},
                 "matroid source must be uniform, bases, or rank_table",
                 id="unknown-matroid-source"),
    pytest.param({"kind": "graph", "edges": [[0, 1], [1, 2, 0]]},
                 "each edge must be a list of two vertices, integers or strings",
                 id="edge-not-a-pair"),
    pytest.param({"kind": "graph", "edges": TRIANGLE, "labels": ["a", 2, "c"]},
                 "labels must be a list of strings", id="label-not-a-string"),
])
def test_load_system_refusals(obj, message):
    with pytest.raises(ValueError) as err:
        load_system(obj)
    assert type(err.value) is ValueError and str(err.value) == message
