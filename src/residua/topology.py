"""Finite topological spaces, Cantor-Bendixson machinery, dual Lawson topology.

A topology is given by a subbase, and is fully determined by the
minimal open neighborhood N(x) of each point: the intersection of the
subbase members containing x.  These rows are derived from the subbase
and nowhere else, so they are always a preorder: each point lies in its
own row, and y in N(x) puts N(y) within N(x).  Isolation, CB
derivatives, closed sets and the order-compatibility conditions are all
answered through N(x) and its transpose, the closure rows, so spaces
whose full open-set family is astronomically large (the discrete
topology on 64 points) stay cheap.  No open-set family is built: the
closed sets are the masks closed under the closure rows, enumerated set
by set and refused as soon as they pass the lattice size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Optional

from .bitset import bits, full_mask, mask_of
from .errors import NotT1
from .generators import _downsets
from .lattice import FiniteLattice, inclusion_lattice
from .residual import residual_derivative


def _in_carrier(n: int, m: int) -> int:
    """``m`` when it holds only points of 0..n-1; otherwise a ValueError
    naming its lowest point outside them."""
    extra = m >> n
    if extra:
        x = n + (extra & -extra).bit_length() - 1
        raise ValueError(f"point {x} is outside the carrier 0..{n - 1}")
    return m


@dataclass(frozen=True)
class FiniteTopology:
    """Points 0..n-1 with the topology generated by a subbase of subsets."""

    n: int
    subbase: tuple[int, ...]

    @classmethod
    def from_subbase(cls, n: int, subbase: Iterable) -> "FiniteTopology":
        """Smallest topology containing the subbase, whose members are
        masks or iterables of points; arbitrary unions are implicit."""
        if n < 0:
            raise ValueError(f"a space has n >= 0 points, not n = {n}")
        masks = set()
        for s in subbase:
            if not isinstance(s, int):
                s = list(s)
                if s and min(s) < 0:
                    raise ValueError(f"point {min(s)} is outside the carrier 0..{n - 1}")
                s = mask_of(s)
            masks.add(_in_carrier(n, s))
        return cls(n=n, subbase=tuple(sorted(masks)))

    @cached_property
    def min_nbhd(self) -> tuple[int, ...]:
        """``min_nbhd[x]`` is the minimal neighborhood of x: the AND of the
        subbase members that hold x, the whole space if none does."""
        rows = [full_mask(self.n)] * self.n
        for m in self.subbase:
            for x in bits(m):
                rows[x] &= m
        return tuple(rows)

    @cached_property
    def closure(self) -> tuple[int, ...]:
        """``closure[x]`` is the closure of {x}: the points whose minimal
        neighborhood holds x, the transpose of ``min_nbhd``."""
        rows = [0] * self.n
        for y, row in enumerate(self.min_nbhd):
            for x in bits(row):
                rows[x] |= 1 << y
        return tuple(rows)

    # -- basic queries ----------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return all(self.min_nbhd[x] == 1 << x for x in range(self.n))

    @property
    def is_t1(self) -> bool:
        """All singletons closed: no closure row holds a point other than its own."""
        return all(row & ~(1 << x) == 0 for x, row in enumerate(self.closure))

    # -- isolation and CB -------------------------------------------------

    def isolated_points(self, s: int) -> int:
        """Points x of S with an open O such that O /\\ S = {x}.

        The minimal neighborhood is the best candidate, so the scan is
        exact.
        """
        out = 0
        for x in bits(_in_carrier(self.n, s)):
            if self.min_nbhd[x] & s == 1 << x:
                out |= 1 << x
        return out

    def to_json_dict(self) -> dict:
        return {
            "points": self.n,
            "subbase": [sorted(bits(m)) for m in self.subbase],
        }


@dataclass(frozen=True)
class CBSequence:
    """Iterated Cantor-Bendixson derivatives S_0 over ... until stabilization."""

    levels: tuple[int, ...]
    rank: int

    def to_json_dict(self) -> dict:
        return {
            "levels": [sorted(bits(m)) for m in self.levels],
            "rank": self.rank,
        }


def cb_sequence(t: FiniteTopology) -> CBSequence:
    """Remove isolated points (in the subspace topology) until nothing changes."""
    levels = [full_mask(t.n)]
    while True:
        nxt = levels[-1] & ~t.isolated_points(levels[-1])
        if nxt == levels[-1]:
            break
        levels.append(nxt)
    return CBSequence(levels=tuple(levels), rank=len(levels) - 1)


def dual_lawson(L: FiniteLattice) -> FiniteTopology:
    """Topology generated by all downsets of dually compact elements and
    their complements.  On a finite lattice every element is dually
    compact, and the result is discrete: {x} is the downset of x minus the
    downsets of its maximal subelements."""
    everything = full_mask(L.n)
    subbase = [row for d in L.poset.down for row in (d, everything & ~d)]
    return FiniteTopology.from_subbase(L.n, subbase)


@dataclass(frozen=True)
class OrderCompatReport:
    """Per-condition verdicts for order-compatibility of a topology."""

    join_continuous: bool
    order_closed: bool
    witness: Optional[dict] = None

    @property
    def monotone_nets_converge(self) -> bool:
        """Always true: see ``check_order_compatible``."""
        return True

    @property
    def all_pass(self) -> bool:
        return self.join_continuous and self.order_closed

    def to_json_dict(self) -> dict:
        out = {
            "monotone_nets_converge": self.monotone_nets_converge,
            "join_continuous": self.join_continuous,
            "order_closed": self.order_closed,
        }
        if self.witness:
            out["witness"] = self.witness
        return out


def check_order_compatible(L: FiniteLattice, t: FiniteTopology) -> OrderCompatReport:
    """Check the three order-compatibility conditions on a finite lattice.

    (i) reduces on a finite lattice to eventually-constant monotone
    sequences: every chain, read as a monotone net, must converge to its
    meet/join, that is, the minimal neighborhood of the limit must hold
    a tail, which the limit itself is.  Every point lies in its own
    minimal neighborhood, so (i) holds on every topology and is not
    searched.  (ii) is the preimage test for continuity of the join map
    at every pair, with minimal neighborhoods standing in for arbitrary
    opens.  (iii) asks that the complement of the order relation be open
    in the product.

    Each searched condition is a first-hit search whose witness is its
    first failing pair, row-major; the report's witness is that of join
    continuity if it fails, else that of order-closedness.  Join
    continuity fails at (x, z) when some (x2, z2) in N(x) x N(z) joins
    outside N(x v z).  Order-closedness fails at (x, z), x not <= z,
    when N(z) meets U(x), the OR of the up rows over N(x), that is when
    z is in the closure row of a point of U(x).

    On a discrete space neither search can fail, so neither runs: every
    N(x) is {x}, so join continuity compares ``join[x][z]`` with itself,
    and every closure row is a singleton, so U(x) is up(x) and
    order-closedness finds no z outside it.
    """
    if L.n != t.n:
        raise ValueError("topology and lattice have different carriers")
    if t.is_discrete:
        return OrderCompatReport(True, True)
    join, order = _join_witness(L, t), _order_witness(L, t)
    return OrderCompatReport(join is None, order is None, join or order)


def _join_witness(L: FiniteLattice, t: FiniteTopology) -> Optional[dict]:
    nbhd, join = t.min_nbhd, L.join
    members = [tuple(bits(row)) for row in nbhd]
    for x in L.elements():
        for z, xz in enumerate(join[x]):
            target = nbhd[xz]
            for x2 in members[x]:
                row = join[x2]
                for z2 in members[z]:
                    if not target >> row[z2] & 1:
                        pair, at = [L.names[x], L.names[z]], [L.names[x2], L.names[z2]]
                        return {"condition": "join_continuity", "pair": pair, "at": at}
    return None


def _order_witness(L: FiniteLattice, t: FiniteTopology) -> Optional[dict]:
    up, closure = L.poset.up, t.closure
    for x in L.elements():
        near = reduce(or_, map(up.__getitem__, bits(t.min_nbhd[x])), 0)
        failing = reduce(or_, map(closure.__getitem__, bits(near)), 0) & ~up[x]
        if failing:
            return {"condition": "order_closed", "pair": [L.names[x], L.names[next(bits(failing))]]}
    return None


def closed_set_lattice(t: FiniteTopology) -> FiniteLattice:
    """The lattice of closed sets ordered by inclusion; ``sets[i]`` is the
    closed set (a point bitmask) that element ``i`` stands for.  A set is
    closed iff it holds the closure row of each of its points, and
    ``inclusion_lattice`` builds the rows and the Hasse diagram.  More
    than ``LATTICE_SIZE_CAP`` closed sets raise ``TooLarge``."""
    points = tuple(str(x) for x in range(t.n))
    sets = _downsets(t.closure, "closed-set lattice")
    return inclusion_lattice(sets, points, f"closed_sets(points={t.n})")


@dataclass(frozen=True)
class CBResidualReport:
    """Comparison of the topological derivative with the lattice derivative."""

    checked: int
    mismatches: tuple

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def residual_equals_cb_closedsets(t: FiniteTopology) -> CBResidualReport:
    """On a T1 space, the derivative of every closed set in the closed-set
    lattice must equal its topological CB derivative."""
    if not t.is_t1:
        raise NotT1("space has a non-closed singleton")
    lat = closed_set_lattice(t)
    closeds = lat.sets
    mismatches = []
    for i, s in enumerate(closeds):
        mu = residual_derivative(lat, i)
        derived = s & ~t.isolated_points(s)
        if closeds[mu] != derived:
            mismatches.append(
                {
                    "closed_set": sorted(bits(s)),
                    "lattice_derivative": sorted(bits(closeds[mu])),
                    "cb_derivative": sorted(bits(derived)),
                }
            )
    return CBResidualReport(checked=len(closeds), mismatches=tuple(mismatches))


__all__ = [
    "FiniteTopology",
    "CBSequence",
    "cb_sequence",
    "dual_lawson",
    "OrderCompatReport",
    "check_order_compatible",
    "closed_set_lattice",
    "CBResidualReport",
    "residual_equals_cb_closedsets",
]
