import random

import pytest

from tangleforge.bitset import (complement, down_closure, elements_of, full_mask,
                                is_subset, join, mask_of, masks_of_size, maximal_masks,
                                nonempty_submasks, popcount, submasks, submasks_by_size)


def test_mask_roundtrip():
    m = mask_of([0, 3, 5], 6)
    assert m == 0b101001
    assert elements_of(m) == [0, 3, 5]
    assert popcount(m) == 3


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
        for m in (a | b, a & b, a & ~b, complement(a, n)):
            assert m & ~full == 0


def test_complement_involution():
    for m in range(1 << 6):
        assert complement(complement(m, 6), 6) == m


def test_submasks_count_and_membership():
    m = 0b10110
    subs = list(submasks(m))
    assert len(subs) == 1 << popcount(m)
    assert len(set(subs)) == len(subs)
    assert all(is_subset(s, m) for s in subs)
    assert 0 in subs and m in subs
    assert sum(1 for _ in nonempty_submasks(m)) == len(subs) - 1


def test_submasks_by_size_ordering():
    ordered = submasks_by_size(0b1011)
    sizes = [popcount(s) for s in ordered]
    assert sizes == sorted(sizes)
    assert ordered[0] == 0
    # lexicographic within a size class
    singles = [s for s in ordered if popcount(s) == 1]
    assert singles == sorted(singles)


def test_masks_of_size():
    got = list(masks_of_size(5, 2))
    assert len(got) == 10
    assert all(popcount(m) == 2 for m in got)
    assert got == sorted(got)
    assert list(masks_of_size(4, 0)) == [0]


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
            assert [popcount(m) for m in got] == sorted(map(popcount, got), reverse=True)
