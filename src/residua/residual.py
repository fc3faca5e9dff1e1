"""The residual calculus: maximal subelements, derivatives, cores, strata.

Every function here is generic over a lattice instance.  On a finite
lattice's order rows (``poset``) the calculus computes everything
definitionally: the maximal subelements of x are its lower covers, a
cached row of the order, and the derivative of x is the meet of them.
Nothing is kept on the instance: a ``Rows`` keeps each derived fact of
one instance and family once.  ``residual_profile``, ``outcasts`` and
``mu_iterates`` answer from a fresh one; the law registry's run
(``laws._Ctx``, a ``Rows``) and ``residua analyze`` share one.  An
instance that supplies its own ``maximal_subelements``,
``co_heyting_sub``, ``outcasts`` or ``profile`` closed forms (the
ordinal testbed) is used through those in the default family, so there
is a single copy of the derivative/rank/stratum machinery.  A family is
a set of element positions, which only order rows answer
(``family_mask``).  The other functions read order rows.

On order rows an element is a position: an ``int``, not a ``bool``, in
0..n-1.  Each public function here refuses any other argument, and
``family_mask`` any other family member, with a ``ValueError`` naming
it (``_position``); the table primitives they call do not check.

Set-valued results are returned in canonical index order.  Degenerate
input: the bottom element has no maximal subelements, derivative itself,
rank 0, empty boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .bitset import bits, contains, mask_of
from .errors import LatticeIntegrityError, NotBelow, PreconditionFailed
from .lattice import FiniteLattice, _dot_escape


@dataclass(frozen=True)
class RankValue:
    """A residual rank: a natural number or the first infinite ordinal."""

    finite: Optional[int]

    @classmethod
    def of(cls, k: int) -> "RankValue":
        return cls(finite=k)

    def to_json(self):
        return "omega" if self.finite is None else {"finite": self.finite}

    def __repr__(self):
        return "omega" if self.finite is None else f"Finite({self.finite})"


OMEGA = RankValue(finite=None)


def _position(L, x) -> None:
    """Refuse x unless it is a position of the carrier of L's order rows."""
    n = L.poset.n
    if type(x) is not int or not 0 <= x < n:
        raise ValueError(f"position {x!r} is outside the carrier 0..{n - 1}")


def family_mask(L, family) -> Optional[int]:
    """Normalize a family to a carrier bitmask (None means all of L).  A
    family is a set of element positions, or their bitmask, so it needs
    order rows: without them, or with a member outside the carrier, it
    raises ``ValueError``."""
    if family is None:
        return None
    if not hasattr(L, "poset"):
        raise ValueError(f"{L.describe()} has no order rows, which a family of positions needs")
    if type(family) is bool:
        _position(L, family)
    if type(family) is int:
        n = L.poset.n
        extra = family >> n
        if extra:  # name the lowest member past the carrier
            _position(L, n + (extra & -extra).bit_length() - 1)
        return family
    family = list(family)
    for x in family:
        _position(L, x)
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
    fam = family_mask(L, family)
    if fam is None and hasattr(L, "maximal_subelements"):
        return L.maximal_subelements(x)
    _position(L, x)
    if fam is None:
        return list(bits(L.poset.lower_covers[x]))
    return list(bits(L.poset.maximal_of(L.poset.down[x] & ~(1 << x) & fam)))


def residual_derivative(L, x, family=None):
    """Meet of the maximal subelements, a verified fold; x itself when
    there are none."""
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
    closed_form = getattr(L, "co_heyting_sub", None)
    if closed_form is not None:
        return closed_form(x, z)
    _position(L, x)
    _position(L, z)
    if not L.leq(z, x):
        raise NotBelow(f"{L.name(z)} is not below {L.name(x)}")
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
    if hasattr(L, "poset"):
        _position(L, x)
    return _descend(x, Rows(L, family).derivative, limit=limit)[0]


def _descend(x, derivative, kept=None, limit=None):
    """The derivative chain x, mu(x), ... and the profile it stops at.

    The chain stops at the fixpoint, which it ends with, or, when
    ``kept`` (a dict of profiles by element) holds the profile of an
    iterate, before that iterate, whose profile is returned with it; or
    after ``limit + 1`` entries.
    """
    chain = [x]
    while limit is None or len(chain) <= limit:
        nxt = derivative(chain[-1])
        if nxt == chain[-1]:
            break
        below = kept.get(nxt) if kept else None
        if below is not None:
            return chain, below
        chain.append(nxt)
    return chain, None


def classify_t(L, x) -> int:
    """Cardinality of the set of maximal subelements of x."""
    return len(maximal_subelements(L, x))


def outcasts(L, x, family=None) -> list:
    """Elements of the family strictly below x that no maximal subelement
    covers: ``Rows(L, family).outcasts(x)``."""
    return Rows(L, family).outcasts(x)


@dataclass(frozen=True)
class ResidualProfile:
    """Everything the calculus derives about one element.

    ``strata[a]`` lists the residues of the a-th derivative iterate;
    ``boundary_poset`` is their union and ``rho`` maps each of its members
    to its stratum index.
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


def residual_profile(L, x, family=None) -> ResidualProfile:
    """Iterate the derivative to its fixpoint and build the full record:
    ``Rows(L, family).profile(x)``.

    Verifies before returning that the core is a fixpoint and, on coframe
    instances (where the decomposition lemmas apply), that the element is
    the join of its core and its residues, or in a family that holds the
    bottom and is an upper semilattice, of its mu and its residues.
    """
    return Rows(L, family).profile(x)


class Rows:
    """The residual facts of one instance in one family, kept by element.

    ``family`` is normalized with ``family_mask``; None is the default
    family.  ``maximal_row``, ``residue_row``, ``outcast_row``,
    ``derivatives`` and ``profiles`` hold, by element, the maximal
    subelements, the dict of x - m by maximal m, the outcasts, the
    derivative and the profile.  The rows are filled through this
    module's ``maximal_subelements`` and ``co_heyting_sub``, looked up at
    call time, so a replacement bound there reaches every entry.  An
    entry is stored only once its fold or cross-check has passed, so a
    faulty table raises the same error at every read, and a kept profile
    holds what the iteration computes.  The lists and dicts the readers
    return are the stored entries: callers must not change them.
    Nothing is stored on the instance; the rows go with this object.
    """

    def __init__(self, L, family=None):
        self.L = L
        self.family = family_mask(L, family)
        self.profiles, self.derivatives = {}, {}
        self.maximal_row, self.residue_row, self.outcast_row = {}, {}, {}

    def maximals(self, x) -> list:
        """``maximal_subelements`` in the rows' family."""
        row = self.maximal_row
        got = row.get(x)
        if got is None:
            got = row[x] = maximal_subelements(self.L, x, self.family)
        return got

    def t(self, x) -> int:
        """The t-class of x: how many maximal subelements it has.  The
        laws that read it run in the default family."""
        return len(self.maximals(x))

    def residue(self, x, m):
        """``co_heyting_sub(L, x, m)`` for a maximal subelement m of x,
        kept in the residue row once its fold has passed."""
        got = self.residue_row.get(x)
        if got is None:
            got = self.residue_row[x] = {}
        r = got.get(m)
        if r is None:
            r = got[m] = co_heyting_sub(self.L, x, m)
        return r

    def residues(self, x) -> dict:
        """The dict of x - m by maximal subelement m of x, in maximal
        order: the row entry, made whole and put in that order on first
        read."""
        maxes = self.maximals(x)
        got = self.residue_row.get(x)
        if got is None or list(got) != maxes:
            residue = self.residue
            got = self.residue_row[x] = {m: residue(x, m) for m in maxes}
        return got

    def derivative(self, x):
        """The meet of the maximal subelements of x, a verified fold; x
        itself when there are none."""
        row = self.derivatives
        mu = row.get(x)
        if mu is None:
            maxes = self.maximals(x)
            mu = row[x] = self.L.meet_of_set(maxes) if maxes else x
        return mu

    def outcasts(self, x) -> list:
        """Elements of the family strictly below x that no maximal
        subelement covers.

        On a finite lattice there are none: every z < x lies below a lower
        cover of x, and every family member below x below a maximal one.
        On coframe instances with the default family that empty answer is
        cross-validated against the boundary criterion, on the residue
        row of x: outcasts exist iff the boundary of x is strictly below
        x, and then they are exactly the elements of up(boundary) minus
        {x} within down(x) minus {x}.  A closed-form ``outcasts`` answers
        the default family."""
        row = self.outcast_row
        got = row.get(x)
        if got is not None:
            return got
        L = self.L
        if self.family is None and hasattr(L, "outcasts"):
            got = row[x] = L.outcasts(x)
            return got
        _position(L, x)
        if self.family is None and L.coframe:
            boundary = L.join_of_set(list(self.residues(x).values()))
            expected = L.poset.up[boundary] & L.poset.down[x] & ~(1 << x) if boundary != x else 0
            if expected:
                raise LatticeIntegrityError(
                    "outcast scan disagrees with the boundary criterion",
                    witness={
                        "x": L.name(x),
                        "scan": [],
                        "boundary_criterion": [L.name(z) for z in bits(expected)],
                    },
                )
        got = row[x] = []
        return got

    def profile(self, x) -> ResidualProfile:
        """The profile of x; a closed-form ``profile`` answers the default
        family.  A loop walks the derivative row of x down to a fixpoint
        or to the first iterate whose profile is kept; the iterates,
        strata, rho and core below come from that profile, and each other
        stratum from the residue row of its iterate.  A kept profile
        passed its checks, so only x's own steps raise."""
        got = self.profiles.get(x)
        if got is not None:
            return got
        L = self.L
        if self.family is None and hasattr(L, "profile"):
            got = self.profiles[x] = L.profile(x)
            return got
        _position(L, x)
        chain, below = _descend(x, self.derivative, self.profiles)
        residues = self.residues(x)
        boundary = L.join_of_set(list(residues.values()))
        strata = []
        rho = {}
        for a, xa in enumerate(chain if below is not None else chain[:-1]):
            stratum = tuple(sorted(set((residues if a == 0 else self.residues(xa)).values())))
            strata.append(stratum)
            for s in stratum:
                rho.setdefault(s, a)
        iterates = chain
        if below is not None:
            for s, a in below.rho.items():
                rho.setdefault(s, a + len(chain))
            strata.extend(below.strata)
            iterates = chain + list(below.iterates)
        got = ResidualProfile(
            element=x,
            family=self.family,
            maximal=tuple(residues),
            mu=iterates[1] if len(iterates) > 1 else x,
            rank=RankValue.of(len(iterates) - 1),
            core=iterates[-1],
            residues=residues,
            boundary=boundary,
            strata=tuple(strata),
            boundary_poset=tuple(sorted(rho)),
            rho=rho,
            iterates=tuple(iterates),
        )
        _verify_profile(L, got)
        self.profiles[x] = got
        return got


def _verify_profile(L, p: ResidualProfile) -> None:
    if residual_derivative(L, p.core, p.family) != p.core:
        raise LatticeIntegrityError(
            "core is not a fixpoint of the derivative",
            witness={"x": L.name(p.element), "core": L.name(p.core)},
        )
    if not L.leq(p.mu, p.element):
        raise LatticeIntegrityError(
            "derivative escaped the downset of its argument",
            witness={"x": L.name(p.element), "mu": L.name(p.mu)},
        )
    hypotheses_ok = L.coframe and (
        p.family is None
        or (
            contains(p.family, L.bottom)
            and family_is_upper_semilattice(L, p.family)
        )
    )
    if hypotheses_ok:
        # x = core v residues holds in the default family; in a family H
        # the core of x may miss what mu_H(x) keeps, and x = mu_H(x) v
        # residues is the decomposition the family's hypotheses grant.
        label, base = ("core", p.core) if p.family is None else ("mu", p.mu)
        if L.join_of_set([base, *p.residues.values()]) != p.element:
            raise LatticeIntegrityError(
                f"{label}-residue decomposition failed",
                witness={
                    "x": L.name(p.element),
                    label: L.name(base),
                    "residues": [L.name(r) for r in p.residues.values()],
                },
            )


def delta_plus(L, x, core=None) -> list:
    """Co-irreducible subelements of x not below its core.  On a finite
    lattice these are the join-irreducibles: every z < s lies below a
    lower cover of s, so s with one lower cover m has all of down(s)
    minus {s} below m."""
    if core is None:
        core = mu_iterates(L, x)[-1]  # which checks x
    else:
        _position(L, x)
        _position(L, core)
    down = L.poset.down
    return list(bits(L.poset.irreducibles & down[x] & ~down[core]))


@dataclass(frozen=True)
class RelativeStrata:
    """Strata of z thinned to the elements not below x, plus their rank."""

    strata: tuple
    rank: RankValue
    delta: tuple


def relative_strata(L, x, z) -> RelativeStrata:
    """Relative strata of index x inside the boundary poset of z (x <= z)."""
    if hasattr(L, "poset"):
        _position(L, x)
        _position(L, z)
    if not L.leq(x, z):
        raise NotBelow(f"{L.name(x)} is not below {L.name(z)}")
    prof = residual_profile(L, z)
    if not hasattr(prof, "strata"):
        raise PreconditionFailed(
            f"{L.describe()} has no finite strata to thin; its relative strata "
            "come from relative_strata_closed_form"
        )
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
    "Rows",
    "maximal_subelements",
    "residual_derivative",
    "co_heyting_sub",
    "mu_iterates",
    "residual_profile",
    "outcasts",
    "classify_t",
    "delta_plus",
    "relative_strata",
    "family_is_upper_semilattice",
    "family_is_lattice",
]
