"""``bitset.bits`` against the low-bit generator it replaced.

The generator takes the lowest set bit, ``m & -m``, one big-int step per
set bit; it is the definition, and every path of ``bits`` must list the
same positions in the same order.
"""

import random

import pytest

from residua.bitset import bits


def low_bit_reference(mask):
    """The set bits of a non-negative mask, ascending, by the low-bit loop."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def assert_matches(mask):
    assert list(bits(mask)) == list(low_bit_reference(mask)), hex(mask)
    if mask:
        assert next(bits(mask)) == (mask & -mask).bit_length() - 1, hex(mask)


def test_zero_and_every_single_bit():
    assert list(bits(0)) == []
    with pytest.raises(StopIteration):
        next(bits(0))
    for i in range(4097):
        assert list(bits(1 << i)) == [i]
        assert_matches(1 << i)


def test_masks_across_byte_boundaries():
    """Runs of set bits that start and end on either side of each byte
    edge, pairs of bits in neighbouring and distant bytes, and whole
    bytes of ones."""
    for edge in range(8, 8 * 40, 8):
        for lo in range(edge - 3, edge + 1):
            for hi in range(edge, edge + 4):
                assert_matches(((1 << (hi - lo + 1)) - 1) << lo)
        assert_matches(1 << (edge - 1) | 1 << edge)
        assert_matches(1 << (edge - 1) | 1 << (8 * 64 + edge))
    for nbytes in range(1, 70):
        assert_matches((1 << 8 * nbytes) - 1)
        assert_matches(((1 << 8 * nbytes) - 1) ^ 0xFF)


def test_wide_masks_on_both_sides_of_eight_set_bits():
    """Masks of 2^16 and wider take the low-bit loop below 8 set bits and
    the byte walk from 8 on."""
    rng = random.Random(8)
    for width in (17, 24, 64, 65, 200, 1024, 4096):
        for count in range(1, 12):
            positions = rng.sample(range(width - 1), count - 1) + [width - 1]
            assert_matches(sum(1 << i for i in positions))


def test_seeded_masks_of_up_to_4096_bits():
    rng = random.Random(38)
    for _ in range(2000):
        width = rng.randint(1, 4096)
        density = rng.choice((0.001, 0.05, 0.5, 0.95))
        mask = sum(1 << i for i in range(width) if rng.random() < density) | 1 << (width - 1)
        assert_matches(mask)


def test_the_result_is_an_iterator():
    it = bits(0b1011 << 300)
    assert iter(it) is it
    assert next(it) == 300
    assert list(it) == [301, 303]


@pytest.mark.parametrize("mask", [-1, -2, -255, -256, -(1 << 300)])
def test_negative_masks_raise(mask):
    """A negative int has infinitely many set bits; the low-bit loop never
    ends on one."""
    with pytest.raises(ValueError, match="negative mask"):
        bits(mask)
