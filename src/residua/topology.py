"""Finite topological spaces, Cantor-Bendixson machinery, dual Lawson topology.

A finite topology is fully determined by the minimal open neighborhood
N(x) of each point (the intersection of all subbase members containing
x).  Openness, isolation, CB derivatives and the order-compatibility
conditions are all answered through N(x), so spaces whose full open-set
family is astronomically large (the discrete topology on 64 points) stay
cheap.  The explicit open-set family is materialized lazily and only for
small point counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .bitset import bits, contains, full_mask, mask_of
from .errors import NotT1, PreconditionFailed, TooLarge
from .lattice import FiniteLattice, inclusion_lattice
from .residual import (
    classify_t,
    completely_coirreducibles,
    maximal_subelements,
    mu_iterates,
    outcasts,
    residual_derivative,
)

_OPENS_MATERIALIZATION_CAP = 20


@dataclass(frozen=True)
class FiniteTopology:
    """Points 0..n-1 with the topology generated by a subbase of subsets."""

    n: int
    subbase: tuple[int, ...]
    min_nbhd: tuple[int, ...]

    @classmethod
    def from_subbase(cls, n: int, subbase: Iterable) -> "FiniteTopology":
        """Smallest topology containing the subbase.

        Finite intersections of subbase members give the minimal
        neighborhoods; arbitrary unions are implicit.
        """
        masks = []
        everything = full_mask(n)
        for s in subbase:
            m = s if isinstance(s, int) else mask_of(s)
            if m & ~everything:
                raise ValueError("subbase member mentions a point outside 0..n-1")
            masks.append(m)
        nbhd = []
        for x in range(n):
            acc = everything
            for m in masks:
                if contains(m, x):
                    acc &= m
            nbhd.append(acc)
        return cls(n=n, subbase=tuple(sorted(set(masks))), min_nbhd=tuple(nbhd))

    # -- basic queries ----------------------------------------------------

    def is_open(self, mask: int) -> bool:
        return all(self.min_nbhd[x] & ~mask == 0 for x in bits(mask))

    def is_closed(self, mask: int) -> bool:
        return self.is_open(full_mask(self.n) & ~mask)

    @property
    def is_discrete(self) -> bool:
        return all(self.min_nbhd[x] == 1 << x for x in range(self.n))

    @property
    def is_t1(self) -> bool:
        """All singletons closed, i.e. no point sits in another's every neighborhood."""
        return all(
            self.is_closed(1 << x) for x in range(self.n)
        )

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """The full open-set family, deduplicated and canonically sorted.

        Every open set is the union of the minimal neighborhoods of its
        points, so the family is enumerated from point subsets.  Capped:
        the family can have 2^n members.
        """
        if self.n > _OPENS_MATERIALIZATION_CAP:
            raise TooLarge(
                f"open-set family materialization is capped at {_OPENS_MATERIALIZATION_CAP} points"
            )
        found = {0}
        for t in range(1 << self.n):
            acc = 0
            for x in bits(t):
                acc |= self.min_nbhd[x]
            found.add(acc)
        return tuple(sorted(found))

    # -- isolation and CB -------------------------------------------------

    def isolated_points(self, s: int) -> int:
        """Points x of S with an open O such that O /\\ S = {x}.

        The minimal neighborhood is the best candidate, so the scan is
        exact.
        """
        out = 0
        for x in bits(s):
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


def cb_sequence(t: FiniteTopology, s0: Optional[int] = None) -> CBSequence:
    """Remove isolated points (in the subspace topology) until nothing changes."""
    s = full_mask(t.n) if s0 is None else s0
    levels = [s]
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
    subbase = []
    for x in L.elements():
        d = L.down_set(x)
        subbase.append(d)
        subbase.append(everything & ~d)
    return FiniteTopology.from_subbase(L.n, subbase)


@dataclass(frozen=True)
class OrderCompatReport:
    """Per-condition verdicts for order-compatibility of a topology."""

    monotone_nets_converge: bool
    join_continuous: bool
    order_closed: bool
    witness: Optional[dict] = None

    @property
    def all_pass(self) -> bool:
        return self.monotone_nets_converge and self.join_continuous and self.order_closed

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
    meet/join, which is checked as "the minimal neighborhood of the limit
    contains a tail", that is, the limit.  (ii) is the preimage test for
    continuity of the join map at every pair, with minimal neighborhoods
    standing in for arbitrary opens.  (iii) asks that the complement of
    the order relation be open in the product.
    """
    if L.n != t.n:
        raise ValueError("topology and lattice have different carriers")
    witness = None

    # The nets (y, x, x, ...) and (x, y, y, ...) of x <= y fail iff x or y is bad.
    bad = sum(1 << x for x in L.elements() if not contains(t.min_nbhd[x], x))
    for x in L.elements():
        failing = L.up_set(x) if contains(bad, x) else L.up_set(x) & bad
        if failing:
            witness = {"condition": "nets", "pair": [L.names[x], L.names[next(bits(failing))]]}
            break
    nets_ok = witness is None

    join_ok = True
    for x in L.elements():
        if not join_ok:
            break
        for z in L.elements():
            target = t.min_nbhd[L.join2(x, z)]
            for x2 in bits(t.min_nbhd[x]):
                for z2 in bits(t.min_nbhd[z]):
                    if not contains(target, L.join2(x2, z2)):
                        join_ok = False
                        witness = witness or {
                            "condition": "join_continuity",
                            "pair": [L.names[x], L.names[z]],
                            "at": [L.names[x2], L.names[z2]],
                        }
                        break
                if not join_ok:
                    break
            if not join_ok:
                break

    order_ok = True
    up_union = []
    for x in L.elements():
        acc = 0
        for x2 in bits(t.min_nbhd[x]):
            acc |= L.up_set(x2)
        up_union.append(acc)
    for x in L.elements():
        if not order_ok:
            break
        for z in L.elements():
            if L.leq(x, z):
                continue
            # (x, z) is in the complement of <=; its product neighborhood
            # N(x) x N(z) must avoid <= entirely.
            if t.min_nbhd[z] & up_union[x]:
                order_ok = False
                witness = witness or {
                    "condition": "order_closed",
                    "pair": [L.names[x], L.names[z]],
                }
                break

    return OrderCompatReport(
        monotone_nets_converge=nets_ok,
        join_continuous=join_ok,
        order_closed=order_ok,
        witness=witness,
    )


def closed_set_lattice(t: FiniteTopology) -> FiniteLattice:
    """The lattice of closed sets ordered by inclusion; ``sets[i]`` is the
    closed set (a point bitmask) that element ``i`` stands for."""
    everything = full_mask(t.n)
    points = tuple(str(x) for x in range(t.n))
    closeds = {everything & ~o for o in t.opens}
    return inclusion_lattice(closeds, points, f"closed_sets(points={t.n})")


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


def is_order_convex(L: FiniteLattice, mask: int) -> bool:
    """x <= y <= z with x, z in the set forces y in the set."""
    for x in bits(mask):
        for z in bits(L.up_set(x) & mask):
            between = L.up_set(x) & L.down_set(z)
            if between & ~mask:
                return False
    return True


def locally_constant_core(L: FiniteLattice, t: FiniteTopology, x: int, cores) -> bool:
    """Is the core operator constant on some neighborhood of x outside its downset?

    The minimal neighborhood is the best possible witness, so the check
    is exact on finite spaces.  ``cores`` maps each element to its core.
    """
    region = t.min_nbhd[x] & ~L.down_set(x)
    return all(cores[z] == cores[x] for z in bits(region))


@dataclass(frozen=True)
class IsolatedBelowReport:
    """Clause verdicts of the isolated-from-below conditions at one
    element; ``x`` is the element as printed (a name or a vector)."""

    x: str
    vacuous: bool
    reason: Optional[str]
    clauses: dict

    def to_json_dict(self) -> dict:
        out = {"x": self.x, "vacuous": self.vacuous}
        if self.reason:
            out["reason"] = self.reason
        if self.clauses:
            out["clauses"] = dict(sorted(self.clauses.items()))
        return out


def check_isolated_below_conditions_finite(
    L: FiniteLattice, t: FiniteTopology, x: int
) -> IsolatedBelowReport:
    """Clause-by-clause isolated-from-below evaluation on a finite lattice
    with an arbitrary finite topology on its carrier.

    Real finite lattices under the dual Lawson topology are discrete, so
    the second CB layer is empty and the precondition fails; the checker
    is exercised through hand-built topologies in fixtures.  Clauses are
    evaluated exhaustively and reported, never assumed.
    """
    seq = cb_sequence(t)
    s1 = seq.levels[1] if len(seq.levels) > 1 else 0
    s2 = seq.levels[2] if len(seq.levels) > 2 else 0
    if not contains(s1, x) or contains(s2, x):
        raise PreconditionFailed(
            f"{L.names[x]} is not in S1 minus S2 for this topology"
        )
    t0 = [z for z in L.elements() if classify_t(L, z) == 0]
    if x not in t0:
        if not outcasts(L, x):
            raise PreconditionFailed(
                f"{L.names[x]} is outside the zero-maximal family and has no outcast"
            )
        raise PreconditionFailed("outcast variant needs an infinite instance")
    m_t0 = maximal_subelements(L, x, t0)
    mu_t0 = L.meet_of_set(m_t0) if m_t0 else x
    delta_x = [
        s
        for s in completely_coirreducibles(L)
        if L.leq(s, x) and not L.leq(s, mu_t0)
    ]
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(delta_x, k) for k in range(len(delta_x) + 1)
        )
    )
    h = {p: L.join_of_set(list(p)) for p in subsets}
    full = h[tuple(delta_x)]
    isolated = lambda z: t.min_nbhd[z] == 1 << z
    cores = {z: mu_iterates(L, z)[-1] for z in set(h.values())}
    clauses = {}
    clauses["net_strictly_below"] = all(v != x for v in h.values())
    clauses["net_joins_to_x"] = full == x or (not delta_x and x == L.bottom)
    clauses["every_subelement_dominated"] = all(
        L.leq(z, full) for z in bits(L.strictly_below(x))
    )
    stars = [p for p in subsets if isolated(h[p]) and cores[h[p]] == mu_t0]
    clauses["base_point_isolated_with_matching_core"] = bool(stars)
    clauses["tail_dually_compact"] = all(L.dually_compact(v) for v in h.values())
    clauses["relative_strata_finite"] = True  # finite instance
    # Against the minimal neighborhood of x, the hardest open.
    nbhd = t.min_nbhd[x]
    clauses["tails_enter_every_neighborhood"] = any(
        all(contains(nbhd, s) for s in delta_x if s not in p) for p in subsets
    )
    if stars:
        p_star = stars[0]
        rest = [s for s in delta_x if s not in p_star]
        clauses["late_members_dominate_mu"] = all(L.leq(mu_t0, s) for s in rest)
    clauses["unique_maximal_t0_subelement"] = len(m_t0) == 1
    clauses["no_t0_outcast"] = not outcasts(L, x, t0)
    return IsolatedBelowReport(x=L.names[x], vacuous=False, reason=None, clauses=clauses)


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
    "is_order_convex",
    "locally_constant_core",
    "IsolatedBelowReport",
    "check_isolated_below_conditions_finite",
]
