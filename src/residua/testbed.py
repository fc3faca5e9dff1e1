"""A finitely presented infinite dual algebraic coframe of ordinal vectors.

Elements are length-I tuples with entries in the naturals plus infinity,
ordered by x below y iff every coordinate of x is numerically >= the
matching coordinate of y (the reversed orientation is what makes the
lattice dual algebraic: the dually compact elements are exactly the
all-finite vectors, and every vector is the filtered meet of its finite
truncations).  Meets are pointwise numeric sups, joins pointwise mins.

Residual data has exact closed forms here: the derivative bumps every
finite coordinate by one, iterates add k, the limit of the iteration is
the all-infinite bottom, so every vector with a finite coordinate has
rank omega and core bottom.  A vector's residue at a finite coordinate j
keeps coordinate j and forgets the rest, its boundary is itself, and it
never has outcasts.

Topological questions (isolation, CB levels) are decided by bounded
exhaustive searches over basic opens of the dual Lawson topology, kept
independent of the closed forms so the two can be played against each
other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf as INF
from typing import Iterable, Optional

from .errors import (
    BoundTooSmall,
    DimensionMismatch,
    NotBelow,
    PreconditionFailed,
    UnstableVerdict,
)
from .residual import OMEGA, RankValue

MAX_DIMS = 4


def parse_vec(text: str) -> tuple:
    """Parse a comma list like ``"3,inf"`` into a vector of naturals or inf."""
    coords = []
    for part in text.split(","):
        part = part.strip().lower()
        c = INF if part == "inf" else int(part)
        if c < 0:
            raise ValueError(f"coordinate {part} is negative; coordinates are naturals or inf")
        coords.append(c)
    return tuple(coords)


def fmt_vec(v: tuple) -> str:
    return ",".join("inf" if c == INF else str(int(c)) for c in v)


@dataclass(frozen=True)
class CoordConstraint:
    """One coordinate of a definable pattern."""

    kind: str  # "inf" | "eq" | "fin_at_least" | "any_fin" | "any"
    value: Optional[int] = None

    def matches(self, c) -> bool:
        if self.kind == "inf":
            return c == INF
        if self.kind == "eq":
            return c == self.value
        if self.kind == "fin_at_least":
            return c != INF and c >= self.value
        if self.kind == "any_fin":
            return c != INF
        return True

    def to_json(self):
        if self.kind in ("eq", "fin_at_least"):
            return {self.kind: self.value}
        return self.kind


IS_INF = CoordConstraint("inf")
ANY = CoordConstraint("any")
ANY_FIN = CoordConstraint("any_fin")


def pattern_matches(pattern: tuple, v: tuple) -> bool:
    return all(c.matches(x) for c, x in zip(pattern, v))


def any_pattern_matches(patterns, v: tuple) -> bool:
    return any(pattern_matches(p, v) for p in patterns)


@dataclass(frozen=True)
class TestbedProfile:
    """Closed-form residual data for one vector.

    Strata are infinite in number (one per natural), so they are exposed
    through ``stratum(k)`` and the boundary poset through per-coordinate
    patterns rather than a materialized set.
    """

    element: tuple
    maximal: tuple
    mu: tuple
    rank: RankValue
    core: tuple
    residues: dict
    boundary: tuple
    t_class: int
    finite_coords: tuple

    def iterate(self, k: int) -> tuple:
        return tuple(c if c == INF else c + k for c in self.element)

    def stratum(self, k: int) -> tuple:
        dims = len(self.element)
        return tuple(
            sorted(
                _unit(dims, j, self.element[j] + k) for j in self.finite_coords
            )
        )

    def rho(self, s: tuple) -> int:
        """Stratum index of a boundary-poset member."""
        for j in self.finite_coords:
            if s == _unit(len(self.element), j, s[j]) and s[j] != INF:
                k = s[j] - self.element[j]
                if k >= 0:
                    return k
        raise ValueError(f"{fmt_vec(s)} is not in the boundary poset of {fmt_vec(self.element)}")

    def delta_patterns(self) -> tuple:
        """Patterns describing the boundary poset, one per finite coordinate."""
        dims = len(self.element)
        out = []
        for j in self.finite_coords:
            out.append(
                tuple(
                    CoordConstraint("fin_at_least", self.element[j]) if i == j else IS_INF
                    for i in range(dims)
                )
            )
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "element": fmt_vec(self.element),
            "mu": fmt_vec(self.mu),
            "rank": self.rank.to_json(),
            "core": fmt_vec(self.core),
            "residues": {fmt_vec(m): fmt_vec(r) for m, r in sorted(self.residues.items())},
            "boundary": fmt_vec(self.boundary),
            "strata": [[fmt_vec(s) for s in self.stratum(k)] for k in range(3)],
            "rho": {fmt_vec(s): k for k in range(3) for s in self.stratum(k)},
        }


def _unit(dims: int, j: int, value) -> tuple:
    return tuple(value if i == j else INF for i in range(dims))


class OrdinalCoframe:
    """The testbed lattice in a given dimension (1 <= dims <= 4)."""

    coframe = True
    distributive = True

    def __init__(self, dims: int):
        if not 1 <= dims <= MAX_DIMS:
            raise ValueError(f"dims must be between 1 and {MAX_DIMS}")
        self.dims = dims
        self.bottom = (INF,) * dims
        self.top = (0,) * dims
        self._grids: dict = {}

    # -- lattice primitives ------------------------------------------------

    def _check(self, *vs):
        for v in vs:
            if len(v) != self.dims:
                raise DimensionMismatch(
                    f"expected {self.dims} coordinates, got {len(v)}"
                )

    def leq(self, x: tuple, y: tuple) -> bool:
        self._check(x, y)
        return all(a >= b for a, b in zip(x, y))

    def lt(self, x: tuple, y: tuple) -> bool:
        return x != y and self.leq(x, y)

    def order(self, x: tuple, y: tuple) -> str:
        """One of 'equal', 'below', 'above', 'incomparable'."""
        if x == y:
            return "equal"
        if self.leq(x, y):
            return "below"
        if self.leq(y, x):
            return "above"
        return "incomparable"

    def meet2(self, x: tuple, y: tuple) -> tuple:
        self._check(x, y)
        return tuple(max(a, b) for a, b in zip(x, y))

    def join2(self, x: tuple, y: tuple) -> tuple:
        self._check(x, y)
        return tuple(min(a, b) for a, b in zip(x, y))

    def meet_of_set(self, vs: Iterable[tuple]) -> tuple:
        vs = list(vs)
        if not vs:
            return self.top
        out = vs[0]
        for v in vs[1:]:
            out = self.meet2(out, v)
        return out

    def join_of_set(self, vs: Iterable[tuple]) -> tuple:
        vs = list(vs)
        if not vs:
            return self.bottom
        out = vs[0]
        for v in vs[1:]:
            out = self.join2(out, v)
        return out

    def dually_compact(self, x: tuple) -> bool:
        """True iff every coordinate is finite.

        A vector with an infinite coordinate is the strict meet of the
        filtered family obtained by running a counter up that coordinate,
        no member of which lies below it.
        """
        self._check(x)
        return all(c != INF for c in x)

    def truncations(self, x: tuple, upto: int) -> list:
        """The filtered family of finite truncations whose meet is x."""
        return [
            tuple(k if c == INF else c for c in x) for k in range(upto + 1)
        ]

    # -- residual closed forms ----------------------------------------------

    def finite_coords(self, x: tuple) -> tuple:
        return tuple(j for j, c in enumerate(x) if c != INF)

    def maximal_subelements(self, x: tuple, family=None) -> list:
        """Bump one finite coordinate; empty exactly at the bottom."""
        self._check(x)
        if family is not None:
            cand = [z for z in family if self.lt(z, x)]
            return sorted(
                z for z in cand if not any(self.lt(z, w) for w in cand)
            )
        return sorted(
            tuple(c + 1 if i == j else c for i, c in enumerate(x))
            for j in self.finite_coords(x)
        )

    def co_heyting_sub(self, x: tuple, z: tuple) -> tuple:
        """x - z keeps the coordinates where z sits strictly deeper than x."""
        if not self.leq(z, x):
            raise NotBelow(f"{fmt_vec(z)} is not below {fmt_vec(x)}")
        return tuple(
            xc if zc > xc else INF for xc, zc in zip(x, z)
        )

    def outcasts(self, x: tuple, family=None) -> list:
        """No vector has outcasts: its boundary is itself."""
        self._check(x)
        if family is not None:
            maxes = self.maximal_subelements(x, family)
            return sorted(
                z
                for z in family
                if self.lt(z, x) and not any(self.leq(z, m) for m in maxes)
            )
        return []

    def profile(self, x: tuple) -> TestbedProfile:
        self._check(x)
        maxes = tuple(self.maximal_subelements(x))
        fin = self.finite_coords(x)
        mu = tuple(c + 1 if c != INF else c for c in x)
        residues = {
            tuple(c + 1 if i == j else c for i, c in enumerate(x)): _unit(
                self.dims, j, x[j]
            )
            for j in fin
        }
        return TestbedProfile(
            element=x,
            maximal=maxes,
            mu=mu if fin else x,
            rank=OMEGA if fin else RankValue.of(0),
            core=self.bottom if fin else x,
            residues=residues,
            boundary=self.join_of_set(list(residues.values())) if residues else x,
            t_class=len(maxes),
            finite_coords=fin,
        )

    def completely_coirreducibles_pattern(self) -> tuple:
        """Patterns for the single-finite-coordinate vectors."""
        return tuple(
            tuple(ANY_FIN if i == j else IS_INF for i in range(self.dims))
            for j in range(self.dims)
        )

    def delta_plus_bounded(self, x: tuple, bound: int) -> list:
        """delta+ members with finite coordinate <= bound."""
        out = []
        for j in self.finite_coords(x):
            for v in range(x[j], bound + 1):
                out.append(_unit(self.dims, j, v))
        return sorted(out)

    def relative_strata_closed_form(self, x: tuple, z: tuple, upto: int):
        """Relative strata s_k(x, z) for k <= upto, plus the relative rank.

        The rank is omega exactly when some coordinate keeps producing
        residues not below x for every k, i.e. when x is infinite at a
        coordinate where z is finite.
        """
        if not self.leq(x, z):
            raise NotBelow(f"{fmt_vec(x)} is not below {fmt_vec(z)}")
        pz = self.profile(z)
        strata = []
        rank = None
        for k in range(upto + 1):
            rel = tuple(s for s in pz.stratum(k) if not self.leq(s, x))
            strata.append(rel)
            if not rel and rank is None:
                rank = RankValue.of(k)
        endless = any(
            z[j] != INF and x[j] == INF for j in range(self.dims)
        )
        if rank is None:
            rank = OMEGA if endless else None
        return strata, rank

    # -- grids and bounded searches ------------------------------------------

    def box(self, bound: int) -> list:
        """All vectors with coordinates in {0..bound} or infinity."""
        values = list(range(bound + 1)) + [INF]
        return [tuple(v) for v in itertools.product(values, repeat=self.dims)]

    def _grid(self, bound: int) -> list:
        # bound+1 represents every finite value beyond the search bound;
        # all subbase constraints with parameters <= bound treat those
        # values identically.
        if bound not in self._grids:
            values = list(range(bound + 2)) + [INF]
            self._grids[bound] = [
                tuple(v) for v in itertools.product(values, repeat=self.dims)
            ]
        return self._grids[bound]

    def max_finite(self, x: tuple) -> int:
        fins = [c for c in x if c != INF]
        return max(fins) if fins else 0


    def _separable(self, x: tuple, bound: int, members=None) -> bool:
        """Is there a basic open with parameters <= bound isolating x?

        A basic open is the downset of an all-finite vector minus finitely
        many such downsets.  Negative parts can be taken maximal: a point
        z survives every admissible negative iff min(z_j, bound) <= x_j in
        every coordinate.  The positive part is searched exhaustively.
        """
        grid = self._grid(bound) if members is None else members
        bad = [
            z
            for z in grid
            if z != x
            and all(min(zc, bound) <= xc for zc, xc in zip(z, x))
        ]
        bad.sort(key=lambda z: tuple(-min(c, bound + 2) for c in z))
        ranges = [range(int(min(c, bound)), -1, -1) for c in x]
        for a in itertools.product(*ranges):
            if all(any(zc < ac for zc, ac in zip(z, a)) for z in bad):
                return True
        return False

    def isolated_oracle(self, x: tuple, bound: int) -> bool:
        """Search-based isolation verdict, independent of the closed forms.

        Runs the basic-open search at ``bound`` and re-runs it at the next
        three bounds; disagreement raises UnstableVerdict rather than
        trusting an unproved search radius.
        """
        self._check(x)
        if bound < self.max_finite(x) + 2:
            raise BoundTooSmall(
                f"bound {bound} < max finite coordinate of {fmt_vec(x)} + 2"
            )
        verdicts = [self._separable(x, b) for b in range(bound, bound + 4)]
        if len(set(verdicts)) != 1:
            raise UnstableVerdict(
                f"isolation verdicts for {fmt_vec(x)} differ on bounds {bound}..{bound + 3}"
            )
        return verdicts[0]

    def isolated_in_subspace_oracle(self, x: tuple, member, bound: int) -> bool:
        """Isolation of x inside {z : member(z)}, by the same bounded search."""
        self._check(x)
        if not member(x):
            raise PreconditionFailed(f"{fmt_vec(x)} is not in the subspace")
        if bound < self.max_finite(x) + 2:
            raise BoundTooSmall(
                f"bound {bound} < max finite coordinate of {fmt_vec(x)} + 2"
            )
        verdicts = []
        for b in range(bound, bound + 4):
            members = [z for z in self._grid(b) if member(z)]
            verdicts.append(self._separable(x, b, members))
        if len(set(verdicts)) != 1:
            raise UnstableVerdict(
                f"subspace isolation verdicts for {fmt_vec(x)} differ on bounds {bound}..{bound + 3}"
            )
        return verdicts[0]

    def subspace_isolation_sweep(self, member, bound: int) -> dict:
        """Isolation verdicts inside {z : member(z)} for every box(bound)
        vector in the subspace.

        The basic-open search runs at bound + 2 (so the precondition holds
        for every box vector) with a stability re-check one bound higher,
        and shares the member grid across elements, which keeps
        whole-ladder verification affordable.
        """
        out = {}
        for b in (bound + 2, bound + 3):
            members = [z for z in self._grid(b) if member(z)]
            capped = [tuple(min(c, b) for c in z) for z in members]
            for x in self.box(bound):
                if not member(x):
                    continue
                bad = [
                    z
                    for z, zc in zip(members, capped)
                    if z != x and all(c <= xc for c, xc in zip(zc, x))
                ]
                ranges = [range(int(min(c, b)), -1, -1) for c in x]
                verdict = any(
                    all(any(zc < ac for zc, ac in zip(z, a)) for z in bad)
                    for a in itertools.product(*ranges)
                )
                if x in out and out[x] != verdict:
                    raise UnstableVerdict(
                        f"subspace isolation verdict for {fmt_vec(x)} differs "
                        f"between bounds {b - 1} and {b}"
                    )
                out[x] = verdict
        return out

    # -- characterizations and CB ladder --------------------------------------

    def characterization_predicates(self, x: tuple) -> dict:
        """The isolation predicate as literally stated, and the corrected one.

        The literal predicate (no outcast and finitely many maximal
        subelements) holds for every vector here; the corrected predicate
        adds dual compactness.  They disagree exactly on the vectors with
        an infinite coordinate.
        """
        self._check(x)
        no_outcast = not self.outcasts(x)
        m_finite = True
        literal = no_outcast and m_finite
        corrected = self.dually_compact(x) and no_outcast and m_finite
        return {"literal": literal, "corrected": corrected}

    def cb_level(self, x: tuple) -> int:
        """Greatest a with x in S_a: the number of infinite coordinates."""
        self._check(x)
        return sum(1 for c in x if c == INF)

    def cb_level_patterns(self, alpha: int) -> tuple:
        """Patterns whose union is S_alpha = {x : #infinite coords >= alpha}.

        The level sets are unions of per-coordinate patterns, one per
        choice of alpha coordinates forced infinite.
        """
        if alpha > self.dims + 1:
            raise ValueError("levels beyond dims+1 are not defined")
        if alpha > self.dims:
            return ()
        out = []
        for infs in itertools.combinations(range(self.dims), alpha):
            out.append(
                tuple(IS_INF if i in infs else ANY for i in range(self.dims))
            )
        return tuple(out)

    def in_level(self, x: tuple, alpha: int) -> bool:
        return self.cb_level(x) >= alpha

    # -- section-6 checkers ----------------------------------------------------

    def check_s1s2_above(self, x: tuple, z: tuple, bound: int = 8) -> "S1S2Report":
        """Evaluate the six second-layer clauses for the pair (x, z).

        x must sit in the second CB layer (exactly one infinite
        coordinate) and z must be a dually compact element strictly above
        it.  Clause verdicts are evaluated, not assumed; the converse
        check samples every y strictly between x and z with coordinates
        <= bound and asks the isolation oracle about each.
        """
        self._check(x, z)
        if self.cb_level(x) != 1:
            raise PreconditionFailed(f"{fmt_vec(x)} is not in S1 minus S2")
        if not self.dually_compact(z):
            raise PreconditionFailed(f"{fmt_vec(z)} is not dually compact")
        if not self.lt(x, z):
            raise PreconditionFailed(f"{fmt_vec(x)} is not strictly below {fmt_vec(z)}")

        strata, rel_rank = self.relative_strata_closed_form(x, z, bound)
        px, pz = self.profile(x), self.profile(z)

        m_finite = len(pz.maximal) == self.dims and all(
            len(s) <= self.dims for s in strata
        )
        cores_equal = px.core == pz.core
        rank_omega = rel_rank == OMEGA and all(strata[k] for k in range(bound + 1))

        domination = True
        for k in range(bound):
            found_l = any(
                all(
                    self.leq(t, s)
                    for s in strata[k]
                    for t in strata[l]
                )
                for l in range(k + 1, bound + 1)
            )
            if strata[k] and not found_l:
                domination = False
                break

        has_outcast = bool(self.outcasts(x))
        if has_outcast:
            outcast_clause = all(
                self.leq(px.core, self.join2(s, px.boundary))
                for stratum in strata
                for s in stratum
            )
        else:
            outcast_clause = True  # vacuous: x has no outcast

        delta_members = [s for stratum in strata for s in stratum]
        none_above = all(not self.leq(x, s) for s in delta_members)
        all_above = all(self.leq(x, s) for s in delta_members)
        dichotomy = none_above or all_above

        converse = []
        for y in self.box(bound):
            if self.lt(x, y) and self.leq(y, z):
                b = max(bound, self.max_finite(y) + 2)
                converse.append((y, self.isolated_oracle(y, b)))

        return S1S2Report(
            x=x,
            z=z,
            maximal_and_strata_finite=m_finite,
            cores_equal=cores_equal,
            relative_rank_omega=rank_omega,
            eventual_domination=domination,
            outcast_clause=outcast_clause,
            outcast_clause_vacuous=not has_outcast,
            uniform_side_dichotomy=dichotomy,
            converse_samples=tuple(converse),
        )

    def check_locally_constant_core(self, x: tuple, bound: int) -> bool:
        """Search for a basic open around x on which the core is constant
        away from the downset of x."""
        self._check(x)
        if self.cb_level(x) != 1:
            raise PreconditionFailed(f"{fmt_vec(x)} is not in S1 minus S2")
        grid = self._grid(bound)
        core_x = self.profile(x).core
        ranges = [range(int(min(c, bound)), -1, -1) for c in x]
        for a in itertools.product(*ranges):
            zone = [
                z
                for z in grid
                if z != x
                and self.leq(z, a)
                and all(min(zc, bound) <= xc for zc, xc in zip(z, x))
                and not self.leq(z, x)
            ]
            if all(self.profile(z).core == core_x for z in zone):
                return True
        return False

    def check_isolated_below_conditions(self, x: tuple, bound: int = 6) -> "IsolatedBelowReport":
        """Clause-by-clause evaluation of the isolated-from-below conditions.

        Only the bottom vector has no maximal subelements here, so the
        hypothesis set is {bottom}; in dimension >= 2 the bottom is not in
        the second CB layer and the report is vacuous, in dimension 1 the
        clauses are enumerated (several fail: the hypothesis family below
        the bottom is empty) without asserting anything.
        """
        self._check(x)
        if x != self.bottom:
            raise PreconditionFailed(
                "the testbed's zero-maximal-subelement family is {bottom}"
            )
        if self.dims >= 2:
            return IsolatedBelowReport(
                x=x, vacuous=True, reason="bottom is not in S1 minus S2", clauses={}
            )
        # dims == 1: bottom = (inf,) is in S1 minus S2.
        clauses = {}
        clauses["unique_maximal_t0_subelement"] = False  # the family below x is empty
        clauses["no_t0_outcast"] = True
        # delta x is empty, so the net over finite subsets is the constant bottom.
        clauses["net_strictly_below_with_join_x"] = False
        clauses["every_subelement_dominated"] = True  # vacuous: nothing below bottom
        clauses["base_point_isolated_with_matching_core"] = bool(
            self._separable_if_bounded(x, bound)
        )
        clauses["tail_dually_compact"] = True
        clauses["relative_strata_finite"] = True
        clauses["tails_enter_every_neighborhood"] = True  # empty tail set
        return IsolatedBelowReport(x=x, vacuous=False, reason=None, clauses=clauses)

    def _separable_if_bounded(self, x: tuple, bound: int) -> bool:
        try:
            return self.isolated_oracle(x, max(bound, self.max_finite(x) + 2))
        except UnstableVerdict:
            return False


def check_isolated_below_conditions_finite(L, t, x: int) -> IsolatedBelowReport:
    """Clause-by-clause isolated-from-below evaluation on a finite lattice
    with an arbitrary finite topology on its carrier.

    Real finite lattices under the dual Lawson topology are discrete, so
    the second CB layer is empty and the precondition fails; the checker
    is exercised through hand-built topologies in fixtures.  Clauses are
    evaluated exhaustively and reported, never assumed.
    """
    from .bitset import bits, contains
    from .residual import (
        classify_t,
        completely_coirreducibles,
        maximal_subelements,
        mu_iterates,
        outcasts,
    )
    from .topology import cb_sequence

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
    return IsolatedBelowReport(x=x, vacuous=False, reason=None, clauses=clauses)


@dataclass(frozen=True)
class S1S2Report:
    """Clause verdicts for the second-layer characterization at (x, z)."""

    x: tuple
    z: tuple
    maximal_and_strata_finite: bool
    cores_equal: bool
    relative_rank_omega: bool
    eventual_domination: bool
    outcast_clause: bool
    outcast_clause_vacuous: bool
    uniform_side_dichotomy: bool
    converse_samples: tuple

    @property
    def all_clauses_pass(self) -> bool:
        return (
            self.maximal_and_strata_finite
            and self.cores_equal
            and self.relative_rank_omega
            and self.eventual_domination
            and self.outcast_clause
            and self.uniform_side_dichotomy
        )

    @property
    def converse_all_isolated(self) -> bool:
        return all(v for _, v in self.converse_samples)

    def to_json_dict(self) -> dict:
        return {
            "x": fmt_vec(self.x),
            "z": fmt_vec(self.z),
            "clauses": {
                "i_maximal_and_strata_finite": self.maximal_and_strata_finite,
                "ii_cores_equal": self.cores_equal,
                "iii_relative_rank_omega": self.relative_rank_omega,
                "iv_eventual_domination": self.eventual_domination,
                "v_outcast_clause": self.outcast_clause,
                "v_vacuous": self.outcast_clause_vacuous,
                "vi_uniform_side_dichotomy": self.uniform_side_dichotomy,
            },
            "converse": {fmt_vec(y): v for y, v in self.converse_samples},
        }


@dataclass(frozen=True)
class IsolatedBelowReport:
    x: tuple
    vacuous: bool
    reason: Optional[str]
    clauses: dict

    def to_json_dict(self) -> dict:
        out = {"x": fmt_vec(self.x), "vacuous": self.vacuous}
        if self.reason:
            out["reason"] = self.reason
        if self.clauses:
            out["clauses"] = dict(sorted(self.clauses.items()))
        return out


__all__ = [
    "INF",
    "MAX_DIMS",
    "OrdinalCoframe",
    "TestbedProfile",
    "CoordConstraint",
    "IS_INF",
    "ANY",
    "ANY_FIN",
    "pattern_matches",
    "any_pattern_matches",
    "parse_vec",
    "fmt_vec",
    "S1S2Report",
    "IsolatedBelowReport",
    "check_isolated_below_conditions_finite",
]
