"""Bit-packed element sets.

Subsets of ``range(n)`` are plain Python ints with bit ``i`` set for
element ``i``.  Arbitrary-precision ints make union/intersection/difference
single operations regardless of n.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator


def _byte_table(first: int) -> tuple[tuple[int, ...], ...]:
    """``table[k]``: the positions ``first + i`` of the set bits i of the
    byte k, ascending.  The rows of the bytes whose highest bit is i are
    those of the lower bytes with ``first + i`` appended."""
    table = [()]
    for position in range(first, first + 8):
        table += [row + (position,) for row in table]
    return tuple(table)


# The set bits of a byte k, and of k as the second byte of a mask.
_BYTE_BITS = _byte_table(0)
_HIGH_BITS = _byte_table(8)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """An iterator over the indices of the set bits, in ascending order.

    A mask below 256 is one lookup in ``_BYTE_BITS``, and one below 2^16
    two lookups, the high byte's in ``_HIGH_BITS``.  A wider mask is
    walked a byte at a time, little end first: byte p of the mask adds
    ``8*p`` to each of its bit positions, and zero bytes add nothing.  The
    walk costs one step per byte, so a wider mask with fewer than 8 set
    bits takes its lowest bit ``mask & -mask`` instead, one big-int step
    per set bit, which is cheaper at every width.  A negative mask has
    infinitely many set bits and raises ``ValueError``.
    """
    if mask < 256:
        if mask < 0:
            raise ValueError(f"bits of a negative mask: {mask}")
        return iter(_BYTE_BITS[mask])
    if mask < 65536:
        return iter(_BYTE_BITS[mask & 255] + _HIGH_BITS[mask >> 8])
    if mask.bit_count() < 8:
        found = []
        while mask:
            low = mask & -mask
            found.append(low.bit_length() - 1)
            mask ^= low
        return iter(found)
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return iter([base + i for base, k in zip(count(0, 8), data) if k for i in _BYTE_BITS[k]])


def popcount(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def contains(mask: int, i: int) -> bool:
    return bool(mask >> i & 1)
