"""Subsets of a ground set encoded as int bitmasks.

Masks are plain Python ints with only the low n bits possibly set, so the
set operations are the machine ones: | & ^ and complement via full_mask ^ x.
Everything here is total and closed over valid masks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Tuple


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


def maximal_masks(masks: Iterable[int]) -> Tuple[int, ...]:
    """The subset-maximal masks among `masks`, largest first.  A mask is
    kept iff no kept mask contains it: any strict superset is larger, so it
    was met earlier and is itself kept or inside a kept one."""
    out: List[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & ~kept == 0 for kept in out):
            out.append(m)
    return tuple(out)


# -- families of subsets ------------------------------------------------
#
# A family of subsets of an n-element ground set is one int of 2^n bits:
# bit x is set iff the mask x belongs to the family.  Shifting the int by
# 2^i moves every member across element i at once; ANDing with
# element_absent(n)[i] first keeps the members the move is defined on.


def down_closure(mask: int) -> int:
    """The family of all submasks of mask."""
    family = 1 << mask
    while mask:
        low = mask & -mask
        family |= family >> low  # add each member with element low removed
        mask ^= low
    return family


def up_closure(family: int, n: int) -> int:
    """The family of all masks below 2^n that contain a member of family."""
    for i, absent in enumerate(element_absent(n)):
        family |= (family & absent) << (1 << i)  # add each member with i added
    return family


def maximal_family(family: int, n: int) -> int:
    """The subset-maximal members of family: those strictly inside no member."""
    below = 0  # after element i: the X strictly inside a member F with F - X in 0..i
    for i, absent in enumerate(element_absent(n)):
        below |= ((family | below) >> (1 << i)) & absent
    return family & ~below


def complements(family: int, n: int) -> int:
    """{E - x : x in family}.  E - x is 2^n - 1 - x, so this reverses the
    2^n bits of the family."""
    return int(format(family, f"0{1 << n}b")[::-1], 2)


def disjoint_from(family: int, mask: int, n: int) -> int:
    """The members of family disjoint from mask."""
    absent = element_absent(n)
    while mask:
        low = mask & -mask
        family &= absent[low.bit_length() - 1]
        mask ^= low
    return family


@lru_cache(maxsize=8)
def popcount_layers(n: int) -> Tuple[int, ...]:
    """For each size j = 0..n, the family of masks below 2^n with j bits."""
    layers = [1]
    for i in range(n):
        run = 1 << i
        layers = [a | b << run for a, b in zip(layers + [0], [0] + layers)]
    return tuple(layers)


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
_BYTE_TO_BIT = bytes.maketrans(b"\x00\x01", b"01")


def flags(family: int, n: int) -> bytes:
    """The family as one byte per mask below 2^n: 1 at members, else 0."""
    return format(family, f"0{1 << n}b")[::-1].encode().translate(_BIT_TO_BYTE)


def family_of(table: bytes) -> int:
    """The inverse of `flags`: the masks whose byte is 1, every byte 0 or 1."""
    return int(table[::-1].translate(_BYTE_TO_BIT), 2)


def byte_lanes(family: int, n: int) -> int:
    """The family as an int with one byte per mask, 1 at members, else 0."""
    return int.from_bytes(flags(family, n), "little")
