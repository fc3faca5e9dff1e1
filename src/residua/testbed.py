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

The testbed meets the law registry's instance protocol (see ``laws``):
its window is box(``laws.WINDOW_BOUND``), ``name`` formats a vector,
and its residual data are closed forms, for the default family: a
family is a set of element positions, which needs order rows.
``laws.run_all`` runs 16 of its 26 laws here; the other 10 read order
rows, which the testbed lacks.
``mu_join_hom`` plays the closed-form mu against the definitional
derivative, the meet of the maximal subelements, and
``residue_unique_maximal`` bounds that derivative on every residue; the
other laws check the closed forms (maximal subelements, mu, cores,
residues, x - z) against the pointwise order, meets and joins.  Each run
computes a vector's derivative once and holds its window's tables, and
drops both when it returns: an ``OrdinalCoframe`` keeps nothing but its
dims, bottom and top.  The pair laws check every box pair, deciding
whole rows of pairs at a time.

``leq``, ``meet2``, ``join2`` and ``co_heyting_sub`` are plain methods,
each a call of a kernel compiled for ``dims`` (see ``_kernels``) that
checks the lengths by unpacking them.  While ``join2`` and ``leq`` are
the class's own, ``window_tables`` gives the position tables of a
box-shaped window by arithmetic on coordinate positions: its join table
and the positions below each position, plus the meet rows while
``meet2`` is the class's own and the x - z rows while
``co_heyting_sub`` is.  Each table is a head × tail product of the
chains' tables.  Each call gives a fresh ``WindowTables``, which builds
a table on first read and goes with its reader; the run reads the mus'
tables for their shape alone, so a dims-3 run builds four tables.
``run_all`` in dims 3 makes 8,166 calls of them and
``dually_compact``.  Every other method, and the law registry, reads
the public names, never a kernel, so a subclass or class patch that
overrides one is seen by every use, and each table gives way: the laws
that read it replay their pair loops, with one call per pair (46,656
ordered pairs in dims 3, 1.68 M in dims 4).

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
from functools import cache, cached_property, reduce
from math import inf as INF
from operator import iadd
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
    finite_coords: tuple

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


def _product_rows(sizes, chain_row):
    """Position rows over a product of chains of the given sizes, in
    ``itertools.product`` order, where ``chain_row(n, a)`` is row a over a
    chain of n.  The product is head × tail, each the product of half the
    axes (the head of one axis alone): with m positions in the tail, the
    row of (h, t) concatenates the segments p * m + e, e along tail row t,
    for the p along head row h.  The segments are precomputed over one
    shared int per position, so a row is one ``reduce`` of list
    extensions, one per head entry, with no Python-level step per entry.
    The rows of the whole product come from an iterator, one at a time, so
    a reader that keeps something else per row never holds them all."""
    if len(sizes) > 1:
        k = len(sizes) // 2
        heads, tails = (list(_product_rows(part, chain_row)) for part in (sizes[:k], sizes[k:]))
    else:  # one chain: the head, over the product of no chains
        heads, tails = [chain_row(sizes[0], a) for a in range(sizes[0])], [[0]]
    m = len(tails)
    ints = list(range(len(heads) * m))
    blocks = [ints[p * m:p * m + m] for p in range(len(heads))]
    segments = [[list(map(block.__getitem__, tail)) for block in blocks] for tail in tails]
    return (reduce(iadd, map(segs.__getitem__, head), []) for head in heads for segs in segments)


def _check_bound(bound: int) -> None:
    """Bounds are naturals: below 0 the searches would walk vectors with
    negative coordinates, outside the carrier."""
    if bound < 0:
        raise ValueError(f"bound {bound} is negative; bounds are naturals")


def _check_lengths(dims: int, vs) -> None:
    """Raise DimensionMismatch at the first vector whose length is not
    ``dims``."""
    for v in vs:
        if len(v) != dims:
            raise DimensionMismatch(f"expected {dims} coordinates, got {len(v)}") from None


@cache
def _kernels(dims: int) -> tuple:
    """``leq``, ``meet``, ``join`` and ``sub`` (x - z) on two vectors of
    length ``dims``, unrolled over the coordinates: one comparison per
    coordinate, where ``tuple(map(min, x, y))`` pays a call of ``min`` and
    ``all(map(ge, x, y))`` an iterator step.  They take x's coordinates
    as a0, a1, ... and y's (or z's) as b0, b1, ...  Each checks the
    lengths by that tuple unpacking: when it fails, the kernel raises
    ``_check_lengths``' DimensionMismatch, or the unpacking error itself
    if both lengths are right.  ``sub`` names its parameters x and z, as
    ``co_heyting_sub`` does.  Each dims is compiled once, by its first
    ``OrdinalCoframe``."""
    a = [f"a{i}" for i in range(dims)]
    b = [f"b{i}" for i in range(dims)]

    def unpack(first: str, second: str) -> str:
        names = {"x": ", ".join(a), "y": ", ".join(b), "z": ", ".join(b)}
        return (
            f"    try:\n        {names[first]}, = {first}\n        {names[second]}, = {second}\n"
            f"    except (TypeError, ValueError):\n        check({dims}, ({first}, {second}))\n"
            f"        raise\n"
        )

    def vector(term: str) -> str:
        return "(" + "".join(term.format(a=ai, b=bi) + ", " for ai, bi in zip(a, b)) + ")"

    bodies = {
        "leq": " and ".join(f"{ai} >= {bi}" for ai, bi in zip(a, b)),
        "meet": vector("{a} if {a} > {b} else {b}"),
        "join": vector("{a} if {a} < {b} else {b}"),
        "sub": vector("{a} if {b} > {a} else INF"),
    }
    source = ""
    for name, body in bodies.items():
        second = "z" if name == "sub" else "y"
        source += f"def {name}(x, {second}):\n{unpack('x', second)}    return {body}\n"
    namespace = {"INF": INF, "check": _check_lengths}
    exec(source, namespace)
    return tuple(map(namespace.__getitem__, bodies))


class WindowTables:
    """Position tables of the windows that are a product of chains of
    these sizes, one per coordinate (see ``OrdinalCoframe.window_tables``),
    none built by a primitive call.  ``has_inf`` says whether every chain
    ends at infinity.

    A window puts x at the sum over i of rank(x_i) * stride_i.  Joins
    are pointwise mins, meets pointwise maxes, and z <= x iff
    rank(z_i) >= rank(x_i) at every i.  So x v z sits at the sum of
    min(rank(x_i), rank(z_i)) * stride_i, x ^ z at that of the maxes, the
    row below x is the product of the ranks at or above those of x, and
    x - z keeps rank(x_i) where rank(z_i) > rank(x_i) and takes the
    infinite rank elsewhere.  Every table is a head × tail product
    (``_product_rows``).  The tables hold positions only, so ``sizes``
    and ``has_inf`` give the shape of every window they serve.  ``join``
    and ``below`` are built on first read and kept as long as their
    reader keeps this object; the ``*_rows`` methods of meets and x - z
    stream their rows, for a reader that reads them once."""

    def __init__(self, cf, sizes: tuple, has_inf: bool):
        self.cf, self.sizes, self.has_inf = cf, sizes, has_inf

    @cached_property
    def join(self) -> list:
        """Row i, entry k: the position of the join of elements i and k."""
        return list(_product_rows(self.sizes, lambda n, a: [min(a, b) for b in range(n)]))

    @cached_property
    def below(self) -> list:
        """Row i: the positions of the elements below element i, in order."""
        return list(_product_rows(self.sizes, lambda n, a: range(a, n)))

    def meet_rows(self):
        """Row i, entry k: the position of the meet of elements i and k;
        None unless ``meet2`` is the class's own (see ``_own``)."""
        if not _own(self.cf, "meet2"):
            return None
        return _product_rows(self.sizes, lambda n, a: [max(a, b) for b in range(n)])

    def sub_rows(self):
        """Row i: the pair (``below`` row i, the positions of element i
        minus each element along it); None unless ``co_heyting_sub`` is
        the class's own and every axis ends at infinity."""
        if not _own(self.cf, "co_heyting_sub") or not self.has_inf:
            return None
        subs = _product_rows(self.sizes, lambda n, a: [n - 1] + [a] * (n - 1 - a))
        return zip(self.below, subs)


class OrdinalCoframe:
    """The testbed lattice in a given dimension (1 <= dims <= 4)."""

    coframe = True
    distributive = True

    def __init__(self, dims: int):
        if not 1 <= dims <= MAX_DIMS:
            raise ValueError(f"dims must be between 1 and {MAX_DIMS}")
        self.dims = dims
        _kernels(dims)  # compiled here, not at the first primitive call
        self.bottom = (INF,) * dims
        self.top = (0,) * dims

    # -- lattice primitives ------------------------------------------------

    def _check(self, *vs):
        """Refuse a vector of the wrong length (``DimensionMismatch``) or
        with a coordinate that is neither inf nor a natural, an ``int``
        but not a ``bool`` (``ValueError``, worded as ``parse_vec``'s)."""
        _check_lengths(self.dims, vs)
        for v in vs:
            for c in v:
                if c != INF and (type(c) is not int or c < 0):
                    raise ValueError(f"coordinate {c!r} is not a natural; coordinates are naturals or inf")

    # leq, meet2, join2 and co_heyting_sub each call the kernel for
    # ``self.dims`` (see ``_kernels``), which checks the lengths by
    # unpacking them.  Every other method, and the law registry, reads
    # them through the instance, never a kernel, so that an override is
    # seen by every use.

    def leq(self, x: tuple, y: tuple) -> bool:
        return _kernels(self.dims)[0](x, y)

    def meet2(self, x: tuple, y: tuple) -> tuple:
        return _kernels(self.dims)[1](x, y)

    def join2(self, x: tuple, y: tuple) -> tuple:
        return _kernels(self.dims)[2](x, y)

    def lt(self, x: tuple, y: tuple) -> bool:
        return self.leq(x, y) and x != y

    def meet_of_set(self, vs: Iterable[tuple]) -> tuple:
        vs = list(vs)
        if not vs:
            return self.top
        out, meet2 = vs[0], self.meet2
        for v in vs[1:]:
            out = meet2(out, v)
        return out

    def join_of_set(self, vs: Iterable[tuple]) -> tuple:
        vs = list(vs)
        if not vs:
            return self.bottom
        out, join2 = vs[0], self.join2
        for v in vs[1:]:
            out = join2(out, v)
        return out

    def dually_compact(self, x: tuple) -> bool:
        """True iff every coordinate is finite.

        A vector with an infinite coordinate is the strict meet of the
        filtered family obtained by running a counter up that coordinate,
        no member of which lies below it.
        """
        if len(x) != self.dims:
            self._check(x)
        return INF not in x

    # -- residual closed forms ----------------------------------------------

    def finite_coords(self, x: tuple) -> tuple:
        return tuple(j for j, c in enumerate(x) if c != INF)

    def maximal_subelements(self, x: tuple) -> list:
        """Bump one finite coordinate; empty exactly at the bottom."""
        if len(x) != self.dims:
            self._check(x)
        out = []
        for j in range(len(x) - 1, -1, -1):  # the last bump sorts first
            if x[j] != INF:
                bumped = list(x)
                bumped[j] += 1
                out.append(tuple(bumped))
        return out

    def co_heyting_sub(self, x: tuple, z: tuple) -> tuple:
        """x - z keeps the coordinates where z sits strictly deeper than x."""
        if not self.leq(z, x):
            raise NotBelow(f"{fmt_vec(z)} is not below {fmt_vec(x)}")
        return _kernels(self.dims)[3](x, z)

    def outcasts(self, x: tuple) -> list:
        """No vector has outcasts: its boundary is itself."""
        self._check(x)
        return []

    def profile(self, x: tuple) -> TestbedProfile:
        self._check(x)
        maxes = tuple(self.maximal_subelements(x))
        fin = self.finite_coords(x)
        residues = {}
        for j in fin:  # the residue at bump j keeps coordinate j alone
            bumped = list(x)
            bumped[j] += 1
            residues[tuple(bumped)] = _unit(self.dims, j, x[j])
        return TestbedProfile(
            element=x,
            maximal=maxes,
            mu=tuple([c + 1 if c != INF else c for c in x]) if fin else x,
            rank=OMEGA if fin else RankValue.of(0),
            core=self.bottom if fin else x,
            residues=residues,
            boundary=self.join_of_set(list(residues.values())) if residues else x,
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

    def window_tables(self, elements: list):
        """The ``WindowTables`` of a box-shaped window: its join table,
        below rows, meet rows and x - z rows by arithmetic on positions.
        The law registry reads them instead of calling the primitives at
        every ordered pair (see ``laws._Ctx.window``).  Each call gives a
        fresh ``WindowTables``, which the caller holds: the coframe keeps
        none.

        None unless ``join2`` and ``leq`` are the class's own (see
        ``_own``: a subclass, a class patch or an instance attribute gives
        way to the calls), and ``elements`` is the ``itertools.product``
        of its sorted coordinate values.  Every ``box`` is, and so are the
        mus of a box."""
        if not (_own(self, "join2") and _own(self, "leq")):
            return None
        try:
            axes = [sorted({v[i] for v in elements}) for i in range(self.dims)]
            if not elements or list(itertools.product(*axes)) != elements:
                return None
        except (IndexError, TypeError):  # a short vector, or no vector
            return None
        return WindowTables(self, tuple(map(len, axes)), all(axis[-1] == INF for axis in axes))

    def name(self, x: tuple) -> str:
        return fmt_vec(x)

    def describe(self) -> str:
        return f"testbed(dims={self.dims})"

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

    def subspace_isolation_sweep(self, member, bound: int) -> dict:
        """Isolation verdicts inside {z : member(z)} for every box(bound)
        vector in the subspace.

        The basic-open search runs at bound + 2 (so the precondition holds
        for every box vector) with a stability re-check one bound higher:
        unlike the whole space, a member predicate can tell apart finite
        values at or beyond the bound, which the search grid lumps together.
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
        an infinite coordinate.  ``outcasts`` checks x.
        """
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


# The primitives as the class defines them, taken at import, so that a
# class patch made before or after an instance was built reads as another
# function.
_OWN = {name: vars(OrdinalCoframe)[name] for name in ("leq", "meet2", "join2", "co_heyting_sub")}


def _own(cf, name: str) -> bool:
    """Is ``cf.<name>`` the class's own primitive?  A subclass method, a
    class patch or an instance attribute is not, so the position table
    that stands for its calls gives way to them."""
    return getattr(getattr(cf, name), "__func__", None) is _OWN[name]


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
]
