"""Subsets of a ground set encoded as int bitmasks.

Masks are plain Python ints with only the low n bits possibly set, so the
set operations are the machine ones: | & ^ and complement via full_mask ^ x.
Everything here is total and closed over valid masks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Tuple


def full_mask(n: int) -> int:
    """Mask with all n ground-set bits set."""
    return (1 << n) - 1


def mask_of(elements: Iterable[int], n: int) -> int:
    """Build a mask from element indices, validating the range."""
    m = 0
    for e in elements:
        if not 0 <= e < n:
            raise ValueError(f"element {e} outside ground set of size {n}")
        m |= 1 << e
    return m


def elements_of(mask: int) -> List[int]:
    """Sorted list of element indices in the mask."""
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def complement(mask: int, n: int) -> int:
    return mask ^ full_mask(n)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself.

    Standard descending-submask walk; 2^popcount(mask) values.
    """
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def nonempty_submasks(mask: int) -> Iterator[int]:
    for s in submasks(mask):
        if s:
            yield s


def submasks_by_size(mask: int) -> List[int]:
    """Submasks sorted by (popcount, value): smallest witnesses first."""
    return sorted(submasks(mask), key=lambda s: (popcount(s), s))


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def maximal_masks(masks: Iterable[int]) -> Tuple[int, ...]:
    """The subset-maximal masks among `masks`, largest first.  A mask is
    kept iff no kept mask contains it: any strict superset is larger, so it
    was met earlier and is itself kept or inside a kept one."""
    out: List[int] = []
    for m in sorted(set(masks), key=popcount, reverse=True):
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return tuple(out)


def masks_of_size(n: int, size: int) -> Iterator[int]:
    """All masks over n elements with exactly `size` bits, ascending."""
    if size == 0:
        yield 0
        return
    # Gosper's hack.
    v = (1 << size) - 1
    top = 1 << n
    while v < top:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


# -- down-closed families ------------------------------------------------
#
# A family of subsets of an n-element ground set is one int of 2^n bits:
# bit x is set iff the mask x belongs to the family.  Shifting the int by
# 2^i moves every member across element i at once.


def down_closure(mask: int) -> int:
    """The family of all submasks of mask."""
    family = 1 << mask
    while mask:
        low = mask & -mask
        family |= family >> low  # add each member with element low removed
        mask ^= low
    return family


def up_closure(mask: int, n: int) -> int:
    """The family of all supersets of mask among the masks below 2^n."""
    family = 1 << mask
    free = full_mask(n) ^ mask
    while free:
        low = free & -free
        family |= family << low  # add each member with element low added
        free ^= low
    return family


@lru_cache(maxsize=8)
def element_absent(n: int) -> Tuple[int, ...]:
    """For each element i < n, the family of masks x < 2^n without i:
    runs of 2^i set bits and 2^i clear bits, repeated."""
    width = 1 << n
    out = []
    for i in range(n):
        run = 1 << i
        period = (1 << 2 * run) - 1
        out.append(((1 << width) - 1) // period * ((1 << run) - 1))
    return tuple(out)


def join(family: int, mask: int, n: int) -> int:
    """{x : x & ~mask in family}; for a down-closed family this is the
    down-closure of the unions of its members with mask."""
    absent = element_absent(n)
    while mask:
        low = mask & -mask
        family &= absent[low.bit_length() - 1]
        family |= family << low
        mask ^= low
    return family


# -- byte lanes ------------------------------------------------------------
#
# A table of small values, one per mask, is one int with one byte per mask:
# byte x (little-endian) holds the value at mask x.  Adding two such ints
# adds mask by mask as long as every lane stays in 0..255, and shifting by
# 8 * 2^i bits reads the value at x + 2^i into lane x.

_BIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def byte_lanes(family: int, n: int) -> int:
    """The family as an int with one byte per mask, 1 at members, else 0."""
    bits = format(family, f"0{1 << n}b")[::-1].encode()
    return int.from_bytes(bits.translate(_BIT_TO_BYTE), "little")
