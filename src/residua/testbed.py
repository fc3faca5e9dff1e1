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

The law registry (``laws.run_all``) runs 16 of its 26 laws here, over
box(``Budget.testbed_bound``); the other 10 need finite enumeration.
``mu_join_hom`` plays the closed-form mu against the definitional
derivative, the meet of the maximal subelements, and
``residue_unique_maximal`` bounds that derivative on every residue; the
other laws check the closed forms (maximal subelements, mu, cores,
residues, x - z) against the pointwise order, meets and joins.  Each run
computes a vector's derivative once and drops the memo when it returns,
so nothing is stored on the ``OrdinalCoframe``.

Topological questions (isolation, CB levels) are decided by a bounded
search over basic opens of the dual Lawson topology, kept independent of
the closed forms so the two can be played against each other.  The
search needs one basic open per point: the one with the maximal positive
part and the maximal negative parts, which is the smallest basic open
around the point.  Its points are enumerated directly, at most
3^dims - 1 of them besides the point, so no search grid is ever built
(see ``OrdinalCoframe._punctured_open``).  Whole-space isolation is one
search; the subspace searches re-check at higher bounds, because a member
predicate can tell apart finite values at or beyond the bound.
``cb_level`` is the one description of the CB levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf as INF
from operator import ge
from typing import Iterable

from .errors import (
    BoundTooSmall,
    DimensionMismatch,
    NotBelow,
    PreconditionFailed,
    TooLarge,
    UnstableVerdict,
)
from .residual import OMEGA, RankValue
from .topology import IsolatedBelowReport

# Keeps the smallest basic open around a vector, which every isolation
# verdict enumerates, at 3^dims - 1 <= 80 points besides the vector.
MAX_DIMS = 4
# Largest box() that is built.  A box vector takes about 85 bytes, so a
# box at the cap holds about 85 MB.
MAX_GRID_POINTS = 1_000_000


def parse_vec(text: str) -> tuple:
    """Parse a comma list like ``"3,inf"`` into a vector of naturals or inf."""
    if not text.strip():
        raise ValueError("empty vector; give comma-separated naturals or inf, e.g. 3,inf")
    coords = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            raise ValueError(f"empty coordinate in {text!r}")
        c = INF if part == "inf" else int(part)
        if c < 0:
            raise ValueError(f"coordinate {part} is negative; coordinates are naturals or inf")
        coords.append(c)
    return tuple(coords)


def fmt_vec(v: tuple) -> str:
    return ",".join("inf" if c == INF else str(int(c)) for c in v)


@dataclass(frozen=True)
class TestbedProfile:
    """Closed-form residual data for one vector.

    Strata are infinite in number (one per natural), so they are exposed
    through ``stratum(k)``, and the boundary poset, their union, through
    ``rho``, rather than as a materialized set.
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


def _box_values(bound: int) -> list:
    return list(range(bound + 1)) + [INF]


def _check_bound(bound: int) -> None:
    """Bounds are naturals: below 0 the searches would walk vectors with
    negative coordinates, outside the carrier."""
    if bound < 0:
        raise ValueError(f"bound {bound} is negative; bounds are naturals")


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

    # -- lattice primitives ------------------------------------------------

    def _check(self, *vs):
        for v in vs:
            if len(v) != self.dims:
                raise DimensionMismatch(
                    f"expected {self.dims} coordinates, got {len(v)}"
                )

    # The primitives below compare lengths once and leave the message to
    # _check; they are the inner loop of every testbed law.

    def leq(self, x: tuple, y: tuple) -> bool:
        if not len(x) == len(y) == self.dims:
            self._check(x, y)
        return all(map(ge, x, y))

    def lt(self, x: tuple, y: tuple) -> bool:
        return self.leq(x, y) and x != y

    def meet2(self, x: tuple, y: tuple) -> tuple:
        if not len(x) == len(y) == self.dims:
            self._check(x, y)
        return tuple(map(max, x, y))

    def join2(self, x: tuple, y: tuple) -> tuple:
        if not len(x) == len(y) == self.dims:
            self._check(x, y)
        return tuple(map(min, x, y))

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

    # -- boxes and bounded searches ------------------------------------------

    def box(self, bound: int) -> list:
        """All vectors with coordinates in {0..bound} or infinity."""
        _check_bound(bound)
        if (bound + 2) ** self.dims > MAX_GRID_POINTS:
            raise TooLarge(
                f"bound {bound} in dims {self.dims} needs a box of {bound + 2}^{self.dims} "
                f"vectors, above the cap of {MAX_GRID_POINTS}"
            )
        return list(itertools.product(_box_values(bound), repeat=self.dims))

    def box_below(self, x: tuple, bound: int) -> list:
        """The box(bound) vectors below x, in box order.

        z <= x iff z_j >= x_j for every j, so coordinate j ranges over the
        box values from x_j on, and the product of those suffixes lists
        the same vectors in the same order as filtering box(bound).
        """
        self._check(x)
        _check_bound(bound)
        values = _box_values(bound)
        return list(itertools.product(*[[v for v in values if v >= c] for c in x]))

    def max_finite(self, x: tuple) -> int:
        fins = [c for c in x if c != INF]
        return max(fins) if fins else 0

    def _punctured_open(self, x: tuple, bound: int):
        """Yield the search-grid points other than x in the smallest basic
        open around x with parameters <= bound.

        A basic open is the downset of an all-finite vector a (the
        positive part) minus finitely many such downsets (the negative
        parts).  z lies in the downset of a iff z_j >= a_j for every j; it
        escapes iff z_j < a_j for some j, which only gets easier as a
        grows, so the largest admissible positive part a* = min(x, bound)
        gives the smallest open.  Negative parts can be taken maximal: z
        survives every admissible negative iff min(z_j, bound) <= x_j for
        every j, i.e. z_j <= x_j wherever x_j < bound.  The open is thus
        the box of z with min(x_j, bound) <= z_j <= x_j where x_j < bound
        and z_j >= bound elsewhere; neither argument uses the closed forms.

        The search grid has the values 0..bound + 1 and infinity: every
        subbase constraint with parameters <= bound treats all finite
        values beyond bound alike, so bound + 1 stands for them.  On the
        grid the box pins z_j = x_j where x_j < bound and leaves bound,
        bound + 1 and infinity elsewhere, at most 3^dims - 1 points
        besides x.
        """
        axes = [(c,) if c < bound else (bound, bound + 1, INF) for c in x]
        for z in itertools.product(*axes):
            if z != x:
                yield z

    def _separable(self, x: tuple, bound: int, member=None) -> bool:
        """Is there a basic open with parameters <= bound isolating x inside
        {z : member(z)} (default: the whole search grid)?

        If any basic open does, the smallest one does, so the answer is
        whether that open holds no other member.
        """
        for z in self._punctured_open(x, bound):
            if member is None or member(z):
                return False
        return True

    def _check_search_bound(self, x: tuple, bound: int) -> None:
        if bound < self.max_finite(x) + 2:
            raise BoundTooSmall(
                f"bound {bound} < max finite coordinate of {fmt_vec(x)} + 2"
            )

    def isolated_oracle(self, x: tuple, bound: int) -> bool:
        """Search-based isolation verdict, independent of the closed forms.

        One search decides it.  Once bound >= max_finite(x) + 2, the
        smallest basic open (see ``_punctured_open``) pins every finite
        coordinate and offers bound, bound + 1 and infinity at every
        infinite one, so x is isolated iff all its coordinates are finite,
        at this bound and at every larger one; a re-check at higher bounds
        could not disagree.
        """
        self._check(x)
        _check_bound(bound)
        self._check_search_bound(x, bound)
        return self._separable(x, bound)

    def isolated_in_subspace_oracle(self, x: tuple, member, bound: int) -> bool:
        """Isolation of x inside {z : member(z)}, by the same bounded search.

        The search runs at ``bound`` and at the next three bounds, and
        disagreement raises UnstableVerdict: unlike the whole space, a
        member predicate can tell apart finite values at or beyond the
        bound, which the search grid lumps together.
        """
        self._check(x)
        _check_bound(bound)
        if not member(x):
            raise PreconditionFailed(f"{fmt_vec(x)} is not in the subspace")
        self._check_search_bound(x, bound)
        verdicts = {self._separable(x, b, member) for b in range(bound, bound + 4)}
        if len(verdicts) != 1:
            raise UnstableVerdict(
                f"subspace isolation verdicts for {fmt_vec(x)} differ on bounds {bound}..{bound + 3}"
            )
        return verdicts.pop()

    def subspace_isolation_sweep(self, member, bound: int) -> dict:
        """Isolation verdicts inside {z : member(z)} for every box(bound)
        vector in the subspace.

        The basic-open search runs at bound + 2 (so the precondition holds
        for every box vector) with a stability re-check one bound higher,
        for the reason given in ``isolated_in_subspace_oracle``.
        Each verdict reads at most 3^dims - 1 points, so the sweep is
        linear in the box.
        """
        out = {}
        for x in self.box(bound):
            if member(x):
                verdicts = {self._separable(x, b, member) for b in (bound + 2, bound + 3)}
                if len(verdicts) != 1:
                    raise UnstableVerdict(
                        f"subspace isolation verdict for {fmt_vec(x)} differs "
                        f"between bounds {bound + 2} and {bound + 3}"
                    )
                out[x] = verdicts.pop()
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
        _check_bound(bound)
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
        """Is there a basic open around x on which the core is constant
        away from the downset of x?

        A larger positive part gives a smaller open, so the smallest basic
        open (see ``_punctured_open``) decides.
        """
        self._check(x)
        _check_bound(bound)
        if self.cb_level(x) != 1:
            raise PreconditionFailed(f"{fmt_vec(x)} is not in S1 minus S2")
        core_x = self.profile(x).core
        return all(
            self.profile(z).core == core_x
            for z in self._punctured_open(x, bound)
            if not self.leq(z, x)
        )

    def check_isolated_below_conditions(self, x: tuple, bound: int = 6) -> IsolatedBelowReport:
        """Clause-by-clause evaluation of the isolated-from-below conditions.

        Only the bottom vector has no maximal subelements here, so the
        hypothesis set is {bottom}; in dimension >= 2 the bottom is not in
        the second CB layer and the report is vacuous, in dimension 1 the
        clauses are enumerated (several fail: the hypothesis family below
        the bottom is empty) without asserting anything.
        """
        self._check(x)
        _check_bound(bound)
        if x != self.bottom:
            raise PreconditionFailed(
                "the testbed's zero-maximal-subelement family is {bottom}"
            )
        if self.dims >= 2:
            return IsolatedBelowReport(
                x=fmt_vec(x), vacuous=True, reason="bottom is not in S1 minus S2", clauses={}
            )
        # dims == 1: bottom = (inf,) is in S1 minus S2.
        clauses = {}
        clauses["unique_maximal_t0_subelement"] = False  # the family below x is empty
        clauses["no_t0_outcast"] = True
        # delta x is empty, so the net over finite subsets is the constant bottom.
        clauses["net_strictly_below_with_join_x"] = False
        clauses["every_subelement_dominated"] = True  # vacuous: nothing below bottom
        clauses["base_point_isolated_with_matching_core"] = self.isolated_oracle(
            x, max(bound, self.max_finite(x) + 2)
        )
        clauses["tail_dually_compact"] = True
        clauses["relative_strata_finite"] = True
        clauses["tails_enter_every_neighborhood"] = True  # empty tail set
        return IsolatedBelowReport(x=fmt_vec(x), vacuous=False, reason=None, clauses=clauses)


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


__all__ = [
    "INF",
    "MAX_DIMS",
    "OrdinalCoframe",
    "TestbedProfile",
    "parse_vec",
    "fmt_vec",
    "S1S2Report",
    "IsolatedBelowReport",
]
