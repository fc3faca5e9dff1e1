"""Bit-packed element sets.

Subsets of ``range(n)`` are plain Python ints with bit ``i`` set for
element ``i``.  Arbitrary-precision ints make union/intersection/difference
single operations regardless of n.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def contains(mask: int, i: int) -> bool:
    return bool(mask >> i & 1)
