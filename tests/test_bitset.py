import random

import pytest

from tangleforge.bitset import (byte_lanes, complements, disjoint_from, down_closure,
                                elements_of, family_of, flags, full_mask, join, mask_of,
                                maximal_family, popcount_layers, up_closure)

from conftest import maximal_masks, submasks


def test_mask_roundtrip():
    m = mask_of([0, 3, 5], 6)
    assert m == 0b101001
    assert elements_of(m) == [0, 3, 5]
    assert m.bit_count() == 3


def test_mask_range_checked():
    with pytest.raises(ValueError):
        mask_of([4], 4)


def test_set_ops_closed_under_full_mask():
    rng = random.Random(7)
    n = 9
    full = full_mask(n)
    for _ in range(200):
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        for m in (a | b, a & b, a & ~b, a ^ full):
            assert m & ~full == 0


def test_complements_match_member_definition():
    rng = random.Random(11)
    for n in range(1, 7):
        full = full_mask(n)
        for _ in range(30):
            family = rng.getrandbits(1 << n)
            want = sum(1 << (full ^ x) for x in range(1 << n) if family >> x & 1)
            assert complements(family, n) == want
        assert complements(0, n) == 0


def test_submasks_count_and_membership():
    m = 0b10110
    subs = list(submasks(m))
    assert len(subs) == 1 << m.bit_count()
    assert len(set(subs)) == len(subs)
    assert all(s & ~m == 0 for s in subs)
    assert 0 in subs and m in subs


def members(family):
    return {x for x in range(family.bit_length()) if family >> x & 1}


def test_down_closure_and_join_match_set_definitions():
    rng = random.Random(3)
    for n in range(1, 6):
        for _ in range(40):
            gens = [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
            family = 0
            for g in gens:
                family |= down_closure(g)
            assert members(family) == {x for g in gens for x in submasks(g)}
            m = rng.getrandbits(n)
            want = {x for x in range(1 << n) if x & ~m in members(family)}
            assert members(join(family, m, n)) == want


def test_maximal_masks_are_the_subset_maximal_ones():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(40):
            masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 8))]
            got = maximal_masks(masks)
            assert set(got) == {m for m in masks
                                if not any(m != w and m & ~w == 0 for w in masks)}
            assert len(got) == len(set(got))
            assert [m.bit_count() for m in got] == sorted(map(int.bit_count, got), reverse=True)


def random_family(rng, n):
    return rng.getrandbits(1 << n)


def test_flags_and_byte_lanes_invert_to_the_family():
    rng = random.Random(13)
    for n in range(1, 9):
        for _ in range(20):
            family = random_family(rng, n)
            table = flags(family, n)
            assert len(table) == 1 << n
            assert list(table) == [family >> x & 1 for x in range(1 << n)]
            assert family_of(table) == family
            assert family_of(byte_lanes(family, n).to_bytes(1 << n, "little")) == family
        assert family_of(flags(0, n)) == 0


def test_popcount_layers_partition_the_masks():
    for n in range(0, 9):
        layers = popcount_layers(n)
        assert len(layers) == n + 1
        union = 0
        for j, layer in enumerate(layers):
            assert members(layer) == {x for x in range(1 << n) if x.bit_count() == j}
            assert union & layer == 0
            union |= layer
        assert union == (1 << (1 << n)) - 1


def test_family_up_closure_matches_per_mask_check():
    rng = random.Random(17)
    for n in range(1, 7):
        for _ in range(30):
            gens = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
            family = sum(1 << g for g in set(gens))
            want = {x for x in range(1 << n) if any(g & ~x == 0 for g in gens)}
            assert members(up_closure(family, n)) == want


def test_maximal_family_and_disjoint_members():
    rng = random.Random(19)
    for n in range(1, 7):
        for _ in range(30):
            family = random_family(rng, n)
            got = members(maximal_family(family, n))
            assert got == set(maximal_masks(members(family)))
            m = rng.getrandbits(n)
            assert members(disjoint_from(family, m, n)) == {x for x in members(family)
                                                            if not x & m}
