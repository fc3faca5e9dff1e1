"""The residual calculus: maximal subelements, derivatives, cores, strata.

Every function here is generic over an *effective lattice* instance.  A
finite lattice exposes ``strictly_below``/``elements`` and the calculus
computes everything definitionally (the maximal subelements of x are its
lower covers, a cached row of the order, and derivatives are cached one
element at a time on the lattice); an instance that instead
supplies its own ``maximal_subelements``/``co_heyting_sub``/``outcasts``
closed forms (the ordinal testbed) is used through those, so there is a
single copy of the derivative/rank/stratum machinery.  Those three are
the only closed forms dispatched; the other functions read finite rows.

Set-valued results are returned in canonical index order.  Degenerate
input: the bottom element has no maximal subelements, derivative itself,
rank 0, empty boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .bitset import bits, contains, mask_of
from .errors import LatticeIntegrityError, NotBelow
from .lattice import FiniteLattice, _dot_escape


@dataclass(frozen=True)
class RankValue:
    """A residual rank: a natural number or the first infinite ordinal."""

    finite: Optional[int]

    @classmethod
    def of(cls, k: int) -> "RankValue":
        return cls(finite=k)

    @property
    def is_omega(self) -> bool:
        return self.finite is None

    def to_json(self):
        return "omega" if self.finite is None else {"finite": self.finite}

    def __repr__(self):
        return "omega" if self.finite is None else f"Finite({self.finite})"


OMEGA = RankValue(finite=None)


def _family_mask(L: FiniteLattice, family) -> Optional[int]:
    """Normalize a family to a carrier bitmask (None means all of L)."""
    if family is None:
        return None
    if isinstance(family, int):
        return family
    return mask_of(family)


def family_is_upper_semilattice(L: FiniteLattice, fam_mask: int) -> bool:
    members = list(bits(fam_mask))
    return all(contains(fam_mask, L.join2(a, b)) for a in members for b in members)


def family_is_lattice(L: FiniteLattice, fam_mask: int) -> bool:
    members = list(bits(fam_mask))
    return family_is_upper_semilattice(L, fam_mask) and all(
        contains(fam_mask, L.meet2(a, b)) for a in members for b in members
    )


def maximal_subelements(L, x, family=None) -> list:
    """Maximal elements of family /\\ (down(x) minus {x})."""
    if hasattr(L, "maximal_subelements"):
        return L.maximal_subelements(x, family)
    fam = _family_mask(L, family)
    if fam is None:
        return list(bits(L.poset.lower_covers[x]))
    return list(bits(L.poset.maximal_of(L.strictly_below(x) & fam)))


def residual_derivative(L, x, family=None):
    """Meet of the maximal subelements; x itself when there are none.

    On a finite lattice the default-family answer is kept in
    ``L.derivatives``.  It is stored only after its verified fold
    returns, so a corrupted meet entry raises at every call.
    """
    if family is None and isinstance(L, FiniteLattice):
        row = L.derivatives
        mu = row[x]
        if mu is None:
            mu = row[x] = _derivative(L, x, None)
        return mu
    return _derivative(L, x, family)


def _derivative(L, x, family):
    maxes = maximal_subelements(L, x, family)
    if not maxes:
        return x
    return L.meet_of_set(maxes)


def co_heyting_sub(L, x, z):
    """Co-Heyting subtraction x - z: the least y <= x with z v y = x.

    On a finite distributive lattice it has Birkhoff's closed form: the
    join-irreducibles below z v y are those below z or below y, so
    z v y = x with y <= x iff y is above every join-irreducible below x
    and not below z, and x - z is the join of those, one verified fold.
    ``distributive`` is decided from the order rows alone.  A
    non-distributive finite lattice (a subgroup lattice, say) scans
    down(x) for the y with z v y = x and folds their meet.
    """
    if hasattr(L, "co_heyting_sub"):
        return L.co_heyting_sub(x, z)
    if not L.leq(z, x):
        raise NotBelow(f"{L.names[z]} is not below {L.names[x]}")
    down = L.poset.down
    if L.distributive:
        return L.join_of_set(bits(L.poset.irreducibles & down[x] & ~down[z]))
    jz = L.join[z]
    return L.meet_of_set([y for y in bits(down[x]) if jz[y] == x])


def mu_iterates(L, x, family=None, limit=None) -> list:
    """The sequence x, mu(x), mu(mu(x)), ... up to the fixpoint.

    With ``limit=k`` at most k+1 entries are produced even without
    stabilization (used to cross-check closed-form instances whose rank
    is the first infinite ordinal).
    """
    out = [x]
    while limit is None or len(out) <= limit:
        nxt = residual_derivative(L, out[-1], family)
        if nxt == out[-1]:
            break
        out.append(nxt)
    return out


def classify_t(L, x) -> int:
    """Cardinality of the set of maximal subelements of x."""
    if hasattr(L, "maximal_subelements"):
        return len(L.maximal_subelements(x, None))
    return L.poset.lower_covers[x].bit_count()


def outcasts(L, x, family=None, residues=None) -> list:
    """Elements of the family strictly below x that no maximal subelement covers.

    On a finite lattice the scan is one mask: the family below x minus
    the down rows of the maximal subelements.  On coframe instances with
    the default family the result is cross-validated against the boundary
    criterion: outcasts exist iff the boundary of x is strictly below x,
    and then they are exactly the elements of up(boundary) minus {x}
    within down(x) minus {x}.  ``residues``, when given, is the dict of
    x - m by maximal subelement m, in maximal order, as
    ``residual_profile`` reads it; its keys are then the maximal
    subelements and its values the residues the boundary joins.
    """
    if hasattr(L, "outcasts"):
        return L.outcasts(x, family)
    fam = _family_mask(L, family)
    cand = L.strictly_below(x)
    if fam is not None:
        cand &= fam
    maxes = maximal_subelements(L, x, family) if residues is None else list(residues)
    down = L.poset.down
    for m in maxes:
        cand &= ~down[m]
    if family is None and L.coframe:
        if residues is None:
            residues = {m: co_heyting_sub(L, x, m) for m in maxes}
        boundary = L.join_of_set(list(residues.values()))
        expected = L.up_set(boundary) & L.strictly_below(x) if boundary != x else 0
        if expected != cand:
            raise LatticeIntegrityError(
                "outcast scan disagrees with the boundary criterion",
                witness={
                    "x": L.names[x],
                    "scan": [L.names[z] for z in bits(cand)],
                    "boundary_criterion": [L.names[z] for z in bits(expected)],
                },
            )
    return list(bits(cand))


def completely_coirreducibles(L) -> list:
    """Elements with a unique maximal subelement dominating every proper subelement."""
    return list(bits(L.poset.coirreducibles))


@dataclass(frozen=True)
class ResidualProfile:
    """Everything the calculus derives about one element.

    ``strata[a]`` lists the residues of the a-th derivative iterate;
    ``boundary_poset`` is their union and ``rho`` maps each of its members
    to its stratum index.  ``t_class`` is the number of maximal
    subelements of the element itself.
    """

    element: int
    family: Optional[int]
    maximal: tuple
    mu: int
    rank: RankValue
    core: int
    residues: dict
    boundary: int
    strata: tuple
    boundary_poset: tuple
    rho: dict
    t_class: int
    iterates: tuple

    def to_json_dict(self, L) -> dict:
        name = lambda i: L.names[i]
        return {
            "element": name(self.element),
            "mu": name(self.mu),
            "rank": self.rank.to_json(),
            "core": name(self.core),
            "residues": {name(m): name(r) for m, r in sorted(self.residues.items())},
            "boundary": name(self.boundary),
            "strata": [[name(s) for s in stratum] for stratum in self.strata],
            "rho": {name(s): a for s, a in sorted(self.rho.items())},
        }

    def grade_stats(self, L) -> dict:
        """Maximal-chain statistics of the boundary poset; asserts nothing."""
        lengths = _maximal_chain_lengths(L, self.boundary_poset)
        return {
            "elements": len(self.boundary_poset),
            "maximal_chain_lengths": sorted(lengths),
            "all_maximal_chains_equal_length": len(lengths) <= 1,
        }

    def boundary_dot(self, L) -> str:
        """DOT rendering of the boundary poset, clustered by stratum index."""
        members = list(self.boundary_poset)
        lines = ["digraph boundary {", "  rankdir=BT;"]
        for a, stratum in enumerate(self.strata):
            if not stratum:
                continue
            lines.append(f"  subgraph cluster_stratum_{a} {{")
            lines.append(f'    label="stratum {a}"; rank=same;')
            for s in stratum:
                lines.append(f'    n{s} [label="{_dot_escape(L.names[s])}"];')
            lines.append("  }")
        for i, j in _cover_pairs(L, members):
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def residual_profile(L, x, family=None, residues_of=None) -> ResidualProfile:
    """Iterate the derivative to its fixpoint and assemble the full record.

    ``residues_of(y)`` gives the dict of y - m by maximal subelement m of
    y, in maximal order, for x and each iterate; by default each is
    computed with ``maximal_subelements`` and ``co_heyting_sub``.  The law
    registry passes its per-run rows (``laws._Ctx.residues``).

    Verifies before returning that the core is a fixpoint and, on coframe
    instances (where the decomposition lemmas apply), that the element is
    the join of its core and its residues.
    """
    fam = _family_mask(L, family)
    if residues_of is None:
        residues_of = lambda y: {m: co_heyting_sub(L, y, m) for m in maximal_subelements(L, y, fam)}
    iterates = mu_iterates(L, x, fam)
    core = iterates[-1]
    rank = RankValue.of(len(iterates) - 1)
    residues = residues_of(x)
    maxes = tuple(residues)
    mu = iterates[1] if len(iterates) > 1 else x
    boundary = L.join_of_set(list(residues.values()))
    strata = []
    rho = {}
    for a, xa in enumerate(iterates[:-1]):
        stratum = tuple(sorted(set((residues if a == 0 else residues_of(xa)).values())))
        strata.append(stratum)
        for s in stratum:
            rho.setdefault(s, a)
    boundary_poset = tuple(sorted(rho))
    profile = ResidualProfile(
        element=x,
        family=fam,
        maximal=maxes,
        mu=mu,
        rank=rank,
        core=core,
        residues=residues,
        boundary=boundary,
        strata=tuple(strata),
        boundary_poset=boundary_poset,
        rho=rho,
        t_class=len(maxes),
        iterates=tuple(iterates),
    )
    _verify_profile(L, profile)
    return profile


def _verify_profile(L, p: ResidualProfile) -> None:
    if residual_derivative(L, p.core, p.family) != p.core:
        raise LatticeIntegrityError(
            "core is not a fixpoint of the derivative",
            witness={"x": L.names[p.element], "core": L.names[p.core]},
        )
    if not L.leq(p.mu, p.element):
        raise LatticeIntegrityError(
            "derivative escaped the downset of its argument",
            witness={"x": L.names[p.element], "mu": L.names[p.mu]},
        )
    hypotheses_ok = L.coframe and (
        p.family is None
        or (
            contains(p.family, L.bottom)
            and family_is_upper_semilattice(L, p.family)
        )
    )
    if hypotheses_ok:
        parts = [p.core, *p.residues.values()]
        if L.join_of_set(parts) != p.element:
            raise LatticeIntegrityError(
                "core-residue decomposition failed",
                witness={
                    "x": L.names[p.element],
                    "core": L.names[p.core],
                    "residues": [L.names[r] for r in p.residues.values()],
                },
            )


def delta_plus(L, x, core=None) -> list:
    """Co-irreducible subelements of x not below its core."""
    if core is None:
        core = mu_iterates(L, x)[-1]
    return list(bits(L.poset.coirreducibles & L.down_set(x) & ~L.down_set(core)))


@dataclass(frozen=True)
class RelativeStrata:
    """Strata of z thinned to the elements not below x, plus their rank."""

    strata: tuple
    rank: RankValue
    delta: tuple


def relative_strata(L, x, z) -> RelativeStrata:
    """Relative strata of index x inside the boundary poset of z (x <= z)."""
    if not L.leq(x, z):
        raise NotBelow(f"{L.names[x]} is not below {L.names[z]}")
    prof = residual_profile(L, z)
    strata = []
    rank = prof.rank
    for a, stratum in enumerate(prof.strata):
        rel = tuple(s for s in stratum if not L.leq(s, x))
        if not rel and rank == prof.rank:
            rank = RankValue.of(a)
        strata.append(rel)
    delta = tuple(sorted({s for stratum in strata for s in stratum}))
    return RelativeStrata(strata=tuple(strata), rank=rank, delta=delta)


def _cover_pairs(L, members: Iterable[int]) -> list:
    """Hasse edges (i, j) among the members: the members j covers are the
    maximal members strictly below j."""
    members = list(members)
    inside, down = mask_of(members), L.poset.down
    lower = L.poset.maximal_of
    return sorted((i, j) for j in members for i in bits(lower(down[j] & ~(1 << j) & inside)))


def _maximal_chain_lengths(L, members) -> set:
    """The set of lengths, in elements, of the maximal chains among the
    members: one pass over the cover graph from the top down, each member
    collecting the lengths of the maximal chains that start at it."""
    members = list(members)
    ups = {i: [] for i in members}
    bottoms = set(members)
    for i, j in _cover_pairs(L, members):
        ups[i].append(j)
        bottoms.discard(j)
    down = L.poset.down
    # A member strictly below another has a smaller downset, so this
    # order puts every member after all the members above it.
    from_here = {}
    for i in sorted(members, key=lambda m: -down[m].bit_count()):
        from_here[i] = {k + 1 for j in ups[i] for k in from_here[j]} if ups[i] else {1}
    return set().union(*(from_here[i] for i in bottoms))


__all__ = [
    "RankValue",
    "OMEGA",
    "ResidualProfile",
    "RelativeStrata",
    "maximal_subelements",
    "residual_derivative",
    "co_heyting_sub",
    "mu_iterates",
    "residual_profile",
    "outcasts",
    "classify_t",
    "completely_coirreducibles",
    "delta_plus",
    "relative_strata",
    "family_is_upper_semilattice",
    "family_is_lattice",
]
