"""Ground sets, rank functions, and connectivity systems.

A connectivity system is a pair (E, lam) with lam integer-valued, symmetric
(lam(X) == lam(E-X)) and submodular.  Systems here come from matroid rank
functions (with the +1 convention), graph edge sets (boundary-vertex count),
the R_8 polymatroid family, or explicit tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .bitset import (byte_lanes, down_closure, element_absent, elements_of, family_of,
                     full_mask, mask_of, popcount_layers, up_closure)
from .errors import PreconditionFailed, SearchSpaceTooLarge, ViolationFound

# -- caps ----------------------------------------------------------------------
#
# Every system holds its full lambda table, the scans visit all 2^n masks, and
# families of subsets are 2^n-bit ints (bitset.down_closure), so a ground set
# has at most MAX_N elements, for the engine and the oracle alike.  The tangle
# search stops after NODE_CAP nodes, and the oracle's flower walk after
# NODE_CAP candidates.  The flower walk takes at most ORACLE_MAX_PETALS petals.
MAX_N = 16
NODE_CAP = 1 << 20
ORACLE_MAX_PETALS = 8


def check_ground_size(n: int):
    """Refuse n outside 1..MAX_N, before anything of size 2^n is built."""
    if n < 1:
        raise ValueError(f"ground set size {n} outside 1..{MAX_N}")
    if n > MAX_N:
        raise SearchSpaceTooLarge(f"ground set size {n} exceeds {MAX_N}")


def _checked_labels(n: int, labels) -> Optional[Tuple[str, ...]]:
    """Refuse n as `check_ground_size` does, then labels that are not n
    distinct strings (one string is not a list of them); the labels as a
    tuple, or None."""
    check_ground_size(n)
    if labels is None:
        return None
    if len(labels) != n:
        raise ValueError("labels length must equal n")
    if len(set(labels)) != n:
        raise ValueError("labels must be distinct")
    if isinstance(labels, str) or any(type(x) is not str for x in labels):
        raise ValueError("labels must be a list of strings")
    return tuple(labels)


class Violation(NamedTuple):
    """One axiom failure with a machine-checkable witness."""

    axiom: str
    witness: tuple

    def to_json(self):
        return {"axiom": self.axiom, "witness": [elements_of(m) for m in self.witness]}


# -- byte tables -----------------------------------------------------------
#
# A table whose values all lie in 0..255 is kept as bytes (byte x is the
# value at mask x), any other table as a list, and held once: `lam` and
# `rank` index it too, though a loop of `lam` calls on bytes ran up to about
# 10% slower than on a list (CPython 3.11).  Scans of bytes run as one
# `translate` without a Python loop, and lane arithmetic
# (`bitset.byte_lanes`, `_lanes`) reads them as they are.

_UP_TO_127 = bytes(range(128))
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"


def _held_table(values: Sequence[int]) -> Sequence[int]:
    """The values as bytes when every one lies in 0..255, else as a list.
    A value that is not an int raises ValueError."""
    if isinstance(values, bytes):
        return values
    values = list(values)
    if not set(map(type, values)) <= {int}:
        raise ValueError("table values must be integers")
    if min(values) < 0 or max(values) > 255:
        return values
    return bytes(values)


@lru_cache(maxsize=None)
def _keep(k: int) -> bytes:
    """The `translate` table that maps a byte v to 1 if v <= k, else 0."""
    return bytes(v <= k for v in range(256))


def _at_most_flags(values: Sequence[int], k: int) -> bytes:
    """One byte per mask, 1 where its value is at most k: one `translate`
    of a byte table, or one C-level pass over any other table."""
    if isinstance(values, bytes):
        return values.translate(_keep(k))
    return bytes(map(k.__ge__, values))


def _select(flags: bytes, masks: Sequence[int]) -> bytes:
    """The flags of `masks`, in order: a slice for an ascending range inside
    the table, else one table read per mask (a mask past the table raises
    IndexError)."""
    if (isinstance(masks, range) and masks.step > 0 and masks.start >= 0
            and masks.stop <= len(flags)):
        return flags[masks.start:masks.stop:masks.step]
    if len(masks) > 1:
        return bytes(itemgetter(*masks)(flags))  # a tuple for two or more keys
    return bytes(flags[x] for x in masks)


def _flagged(masks: Sequence[int], sel: bytes) -> List[int]:
    """The masks whose byte of `sel` (one 0/1 byte per mask, in order) is 1.
    A sparse selection is walked with `bytes.find`, which skips the clear
    bytes in C; a dense one goes through `compress`, which costs less per
    mask than a `find` call per flagged one."""
    if sel.count(1) * 8 >= len(sel):
        return list(compress(masks, sel))
    out = []
    i = sel.find(1)
    while i >= 0:
        out.append(masks[i])
        i = sel.find(1, i + 1)
    return out


class RankFunction:
    """Matroid rank function over masks, held as a full table.

    Sources: explicit 2^n table, uniform matroids, graphic matroids, or a
    list of bases.  Construction checks r(empty)=0, unit increments, and
    local submodularity exhaustively.
    """

    def __init__(self, n: int, table: Sequence[int], verify: bool = True):
        check_ground_size(n)
        if len(table) != 1 << n:
            raise ValueError("rank table must have 2^n entries")
        self.n = n
        self._table = _held_table(table)
        if verify:
            bad = verify_rank_axioms(self)
            if bad:
                raise ViolationFound(f"not a matroid rank function: {bad[0].axiom}", bad[0])

    def rank(self, mask: int) -> int:
        return self._table[mask]

    def rank_at_most(self, k: int, masks: range) -> List[int]:
        """The masks of `masks` of rank at most k, ascending."""
        return _flagged(masks, _select(_at_most_flags(self._table, k), masks))

    @property
    def full_rank(self) -> int:
        return self._table[full_mask(self.n)]

    def lam_table(self) -> Sequence[int]:
        """lambda_M(X) = r(X) + r(E-X) - r(E) + 1 for every X.  As bytes, summed
        on byte lanes (the table of r(E-X) is the rank table reversed); as a
        list from the formula when a lane would leave 0..255, which an
        unverified rank table can make happen."""
        table, drop = self._table, self.full_rank - 1
        # ranks up to 127 sum without carrying into the next lane
        if isinstance(table, bytes) and not table.translate(None, _UP_TO_127):
            total = (int.from_bytes(table, "little")
                     + int.from_bytes(table[::-1], "little")).to_bytes(len(table), "little")
            # no r(X) + r(E-X) below r(E) - 1, so no lambda below 0: the
            # lanes lie in max(drop, 0)..254 and subtracting drop wraps none
            if drop <= 0 or not total.translate(None, bytes(range(drop, 256))):
                return total.translate(bytes((v - drop) & 0xFF for v in range(256)))
        full = full_mask(self.n)
        return [table[x] + table[full ^ x] - drop for x in range(1 << self.n)]

    @classmethod
    def uniform(cls, r: int, n: int) -> "RankFunction":
        check_ground_size(n)
        if not 0 <= r <= n:
            raise ValueError("uniform matroid needs 0 <= r <= n")
        counts = b"\0"  # popcounts of the masks below 2^i, for i = 0..n
        for _ in range(n):
            counts += counts.translate(_PLUS_ONE)
        capped = counts.translate(bytes(min(v, r) for v in range(256)))
        return cls(n, capped, verify=False)

    @classmethod
    def graphic(cls, edges: Sequence[Tuple[object, object]]) -> "RankFunction":
        """Cycle-matroid rank, greedy by edge index: edge e adds one to r(X)
        iff e is in X and its ends are not joined by the edges of X below e.

        "Joined" is a reachability fixpoint on families of edge sets:
        reach[w] holds every X whose edges below e join e's first end to w.
        """
        n = len(edges)
        if n == 0:
            raise ValueError("graphic matroid needs at least one edge")
        check_ground_size(n)
        every = (1 << (1 << n)) - 1
        present = [every ^ a for a in element_absent(n)]
        total = 0
        for e, (u, v) in enumerate(edges):
            reach = {u: every}
            grown = True
            while grown:
                grown = False
                for f in range(e):
                    a, b = edges[f]
                    for s, t in ((a, b), (b, a)):
                        new = reach.get(s, 0) & present[f] & ~reach.get(t, 0)
                        if new:
                            reach[t] = reach.get(t, 0) | new
                            grown = True
            total += byte_lanes(present[e] & ~reach.get(v, 0), n)
        return cls(n, total.to_bytes(1 << n, "little"), verify=False)

    @classmethod
    def from_bases(cls, n: int, bases: Sequence[int]) -> "RankFunction":
        """r(X) = max over bases B of |X & B|, which is the number of sizes
        j >= 1 at which X contains a subset of a basis: a sum of one 0/1
        lane table per size, the up-closure of the j-sets in the
        down-closure of the bases."""
        check_ground_size(n)
        if not bases:
            raise ValueError("need at least one basis")
        full = full_mask(n)
        for b in bases:
            if b < 0 or b & ~full:
                raise PreconditionFailed(f"basis {b:#x} has elements outside 0..{n - 1}")
        independent = 0
        for b in bases:
            independent |= down_closure(b)
        total = 0
        for layer in popcount_layers(n)[1:]:
            total += byte_lanes(up_closure(independent & layer, n), n)
        return cls(n, total.to_bytes(1 << n, "little"))


# -- axiom checks on lanes ---------------------------------------------------
#
# Lane X of a table's lane int holds the value at X, less the table's least
# value, in w bytes; shifting right by 8w * 2^e bits puts the lane of X + 2^e
# there.  Lanes at masks that contain e read another mask's value, so every
# check keeps only the lanes at masks without the elements it adds, and
# reports the least failing X.

def _lanes(values: Sequence[int]) -> Tuple[int, int]:
    """The lane int of a table (bytes or any other sequence) and its lane
    width w: the fewest whole bytes with span < 2^(8w-2), where the span is
    max - min, so that two lanes plus 2^(8w-1) minus two lanes stays inside
    1..2^(8w)-1 and no lane carries into or borrows from the next."""
    if isinstance(values, bytes):
        present = [v for v in range(256) if v in values]  # one memchr each
        low, high = present[0], present[-1]
    else:
        low, high = min(values), max(values)
    w = ((high - low).bit_length() + 9) // 8
    if w == 1 and isinstance(values, bytes):
        lanes = values.translate(bytes((v - low) & 0xFF for v in range(256)))
    else:
        lanes = b"".join((v - low).to_bytes(w, "little") for v in values)
    return int.from_bytes(lanes, "little"), w


def _without(n: int, e: int, w: int) -> int:
    """Lanes of width w set to 1 at the masks below 2^n without element e."""
    run = 1 << e
    one = b"\1".ljust(w, b"\0")
    return int.from_bytes((one * run + bytes(w * run)) * ((1 << n) >> (e + 1)), "little")


def _top(n: int, w: int) -> int:
    """Lanes of width w set to 2^(8w-1) at every mask below 2^n."""
    return int.from_bytes((1 << 8 * w - 1).to_bytes(w, "little") * (1 << n), "little")


def _lowest_lane(x: int, w: int) -> int:
    return ((x & -x).bit_length() - 1) // (8 * w)


def _lane_submodularity_failure(lanes: int, n: int, w: int) -> Optional[Tuple[int, int, int]]:
    """The least triple (X, {e}, {f}) of masks, e < f outside X, with
    v(X+e) + v(X+f) < v(X+e+f) + v(X); None if there is none.  Exhaustive.

    Over every X and pair this is equivalent to submodularity on 2^E: each
    pairwise inequality is a telescoping sum of local ones (Fujishige,
    Submodular Functions and Optimization).  For each pair e < f, lane X of
    L>>2^e + L>>2^f + 2^(8w-1) - L>>(2^e+2^f) - L (each shift by whole
    lanes of `_lanes`) is v(X+e) + v(X+f) - v(X+e+f) - v(X) + 2^(8w-1), so
    its top bit is clear iff the local inequality fails at X.
    """
    bits = 8 * w
    base = _top(n, w) - lanes  # lane X: 2^(8w-1) - v(X)
    shifted = [lanes >> (bits << e) for e in range(n)]
    free = [_without(n, e, w) << bits - 1 for e in range(n)]  # top bits without e
    best = None
    for e in range(n):
        part = shifted[e] + base
        for f in range(e + 1, n):
            local = part + shifted[f] - (lanes >> ((bits << e) + (bits << f)))
            bad = free[e] & free[f] & ~local
            if bad:
                x = _lowest_lane(bad, w)
                if best is None or x < best[0]:
                    best = (x, 1 << e, 1 << f)
    return best


def _lane_unit_increment_failure(lanes: int, n: int, w: int) -> Optional[Tuple[int, int]]:
    """The least (X, {e}), e outside X, with r(X+e) - r(X) not 0 or 1: lane
    X of R>>2^e + 2^(8w-1) - R (lanes of `_lanes`) is r(X+e) - r(X) +
    2^(8w-1), which is 2^(8w-1) or one more exactly when the step is 0 or 1."""
    bits = 8 * w
    high = _top(n, w)
    best = None
    for e in range(n):
        step = (lanes >> (bits << e)) + high - lanes
        bad = (step ^ high) & (_without(n, e, w) * ((1 << bits) - 2))
        if bad:
            x = _lowest_lane(bad, w)
            if best is None or x < best[0]:
                best = (x, 1 << e)
    return best


def verify_rank_axioms(rank: RankFunction) -> List[Violation]:
    """Check r(empty)=0, unit increments, and submodularity.

    Unit increments give monotonicity for free; local submodularity
    (r(X+e)+r(X+f) >= r(X+e+f)+r(X)) is equivalent to the pairwise form.
    Exhaustive, on the lanes of `_lanes`.
    """
    out = []
    if rank._table[0] != 0:
        out.append(Violation("rank_empty", (0,)))
    lanes, w = _lanes(rank._table)
    step = _lane_unit_increment_failure(lanes, rank.n, w)
    if step:
        out.append(Violation("rank_unit_increment", step))
        return out
    bad = _lane_submodularity_failure(lanes, rank.n, w)
    if bad:
        out.append(Violation("rank_submodular", bad))
    return out


def build_r8_rank() -> RankFunction:
    """Rank function of the 8-element rank-4 matroid R_8 (the real cube).

    Ground set 0..7 stands for the cube vertices labelled 1..8: bottom face
    1,2,3,4 in cyclic order, top face 5,6,7,8, verticals 1-5, 2-6, 3-7, 4-8.
    The twelve 4-point planes (six faces, six diagonal planes) have rank 3;
    every other 4-set has rank 4, smaller sets are free, larger sets span.
    """
    one_based_planes = [
        (1, 2, 3, 4), (5, 6, 7, 8),          # bottom, top
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8),  # side faces
        (1, 3, 5, 7), (2, 4, 6, 8),          # diagonal planes
        (1, 2, 7, 8), (3, 4, 5, 6),
        (1, 4, 6, 7), (2, 3, 5, 8),
    ]
    planes = {mask_of([e - 1 for e in p], 8) for p in one_based_planes}
    table = []
    for m in range(1 << 8):
        size = m.bit_count()
        if size <= 3:
            table.append(size)
        elif size == 4:
            table.append(3 if m in planes else 4)
        else:
            table.append(4)
    return RankFunction(8, table)


class ConnectivitySystem:
    """A ground set 0..n-1, optionally with distinct display labels, plus a
    symmetric submodular lambda, held as its full table.

    Immutable after construction apart from the per-k flags and k-separating
    families, whose inserts are idempotent, so concurrent reads are safe.
    """

    def __init__(self, n: int, kind: str, table: Sequence[int],
                 labels: Optional[Tuple[str, ...]] = None,
                 rank: Optional[RankFunction] = None, verify: Optional[bool] = None):
        """`table` holds lambda at every mask of the ground set, and `labels`
        comes from `_checked_labels`, which every constructor calls before
        it builds the table.  The axioms are checked unless `verify` is
        False."""
        self.n = n
        self.full = full_mask(n)
        self.labels = labels
        self.kind = kind
        self.rank = rank
        self._outside = ~self.full  # bits of masks that leave the ground set
        self._flags_by_k: Dict[int, bytes] = {}
        self._k_separating: Dict[int, int] = {}
        self._table = _held_table(table)
        if verify is None or verify:
            bad = verify_connectivity_axioms(self)
            if bad:
                raise ViolationFound(f"not a connectivity function: {bad[0].axiom}", bad[0])

    def checked(self, mask: int) -> int:
        """mask itself; a mask outside the ground set raises
        PreconditionFailed, as `lam` does."""
        if mask & self._outside:
            raise PreconditionFailed(f"mask {mask:#x} outside ground set")
        return mask

    def lam(self, mask: int) -> int:
        if mask & self._outside:
            raise PreconditionFailed(f"mask {mask:#x} outside ground set")
        return self._table[mask]

    def _flags(self, k: int) -> bytes:
        """One byte per mask, 1 where lam <= k; built once per k."""
        flags = self._flags_by_k.get(k)
        if flags is None:
            flags = self._flags_by_k[k] = _at_most_flags(self._table, k)
        return flags

    def lam_at_most(self, k: int, masks: range) -> List[int]:
        """The masks of `masks` with lam <= k, ascending, without a lam call."""
        return _flagged(masks, _select(self._flags(k), masks))

    def lam_flags(self, k: int, masks: Sequence[int]) -> bytes:
        """One byte per mask of `masks` (in order, repeats allowed), 1 where
        lam <= k, without a lam call.  A mask outside the ground set raises
        PreconditionFailed."""
        flags = self._flags(k)
        # the least mask of a range is one of its ends; a negative mask
        # would index from the end of the table, so it is refused here
        ends = (masks[0], masks[-1]) if isinstance(masks, range) and masks else masks
        if ends and min(ends) < 0:
            raise PreconditionFailed("mask outside ground set")
        try:
            return _select(flags, masks)
        except IndexError:
            raise PreconditionFailed("mask outside ground set") from None

    def k_separating(self, k: int) -> int:
        """The family of masks X with lam(X) <= k as a 2^n-bit int, built
        once per k."""
        family = self._k_separating.get(k)
        if family is None:
            family = self._k_separating[k] = family_of(self._flags(k))
        return family

    def mask(self, elements: Iterable[int]) -> int:
        return mask_of(elements, self.n)

    # -- constructors ------------------------------------------------------

    @classmethod
    def matroid(cls, rank: RankFunction, labels=None, verify: Optional[bool] = None) -> "ConnectivitySystem":
        labels = _checked_labels(rank.n, labels)
        return cls(rank.n, "matroid", rank.lam_table(), labels, rank, verify)

    @classmethod
    def graph(cls, edges: Sequence[Tuple[object, object]], labels=None,
              verify: Optional[bool] = None) -> "ConnectivitySystem":
        """lambda_G(X) = vertices meeting a non-loop edge of X and one of E-X.

        With t(X) the number of vertices that X meets through a non-loop
        edge, that is t(X) + t(E-X) - V for the V vertices with a non-loop
        edge, since E-X meets every such vertex that X misses.  Each vertex
        adds its 0/1 table "X meets inc(v)" to t on byte lanes; the table
        doubles once per element, its new half all ones when the element is
        in inc(v).  The table of t(E-X) is that of t reversed, and no lane
        of the sum lies below V, so subtracting V borrows from none."""
        n = len(edges)
        labels = _checked_labels(n, labels)
        inc: Dict[object, int] = {}
        for i, (a, b) in enumerate(edges):
            if a != b:  # loops never make their vertex a boundary vertex
                inc[a] = inc.get(a, 0) | 1 << i
                inc[b] = inc.get(b, 0) | 1 << i
        total = 0
        for m in inc.values():
            meets = b"\0"
            for i in range(n):
                meets += b"\1" * len(meets) if m >> i & 1 else meets
            total += int.from_bytes(meets, "little")
        met = total.to_bytes(1 << n, "little")
        both = (total + int.from_bytes(met[::-1], "little")).to_bytes(1 << n, "little")
        drop = len(inc)
        table = both.translate(bytes((v - drop) & 0xFF for v in range(256)))
        return cls(n, "graph", table, labels, verify=verify)

    @classmethod
    def r8_polymatroid(cls, ell: int, verify: Optional[bool] = None) -> "ConnectivitySystem":
        """Connectivity of f_ell on R_8: f_ell(empty)=0, else rank + ell."""
        if ell < 1:
            raise ValueError("ell must be a positive integer")
        rank = build_r8_rank()
        r = rank.rank
        full = full_mask(8)
        table = [1 if m in (0, full) else r(m) + r(full ^ m) + ell - 3 for m in range(1 << 8)]
        labels = tuple(str(i) for i in range(1, 9))
        return cls(8, "r8_polymatroid", table, labels, rank, verify)

    @classmethod
    def from_table(cls, n: int, values: Sequence[int], labels=None,
                   verify: Optional[bool] = None) -> "ConnectivitySystem":
        labels = _checked_labels(n, labels)
        vals = list(values)
        if len(vals) != 1 << n:
            raise ValueError("lambda table must have 2^n entries")
        return cls(n, "table", vals, labels, verify=verify)


def verify_connectivity_axioms(sys: ConnectivitySystem) -> List[Violation]:
    """Report a violation of symmetry or submodularity, with its witness.

    Symmetry is lam(X) == lam(E-X); submodularity is checked in its local
    form lam(X+e) + lam(X+f) >= lam(X+e+f) + lam(X), which on 2^E is
    equivalent to the pairwise one, and a failure is reported as the pair
    (X+e, X+f).  Together the two imply lam(X) >= lam(empty) and
    lam(X)+lam(Y) >= lam(X-Y)+lam(Y-X).  Symmetry compares the table with
    its reverse; submodularity is checked exhaustively on the lanes of
    `_lanes`, and the least asymmetric X is read off them as well.
    """
    values = sys._table
    lanes, w = _lanes(values)
    flipped = values[::-1]  # entry X holds lam(E-X)
    if values != flipped:
        return [Violation("symmetry", (_lowest_lane(lanes ^ _lanes(flipped)[0], w),))]
    bad = _lane_submodularity_failure(lanes, sys.n, w)
    if bad:
        x, be, bf = bad
        return [Violation("submodularity", (x | be, x | bf))]
    return []


def is_vertically_k_connected(rank: RankFunction, k: int) -> bool:
    """Every (k-1)-separation of lambda_M has a side of rank <= k-2.

    Checked by exhaustion over all subsets (loose vertical connectivity).
    """
    if k < 2:
        raise PreconditionFailed("vertical connectivity needs k >= 2")
    full = full_mask(rank.n)
    r = rank.rank
    flags = _at_most_flags(rank.lam_table(), k - 1)
    return all(r(x) <= k - 2 or r(full ^ x) <= k - 2
               for x in _flagged(range(1 << rank.n), flags))
