"""Explicit finite posets, built with their Hasse diagrams, and certified lattices.

Order relations are stored as full reflexive-transitive closures, one
bit-packed row per element, so order queries are O(1) word operations.
The rows are built whole: ``build_poset`` closes a relation in one
topological pass, and inclusion and product lattices form their rows
from set and factor rows.  Every constructor's rows are a partial order
by construction, and each builds its Hasse diagram (``lower_covers``)
with them and hands it over (``_hasse_poset``), so no axiom check runs
on them.  Only a ``FinitePoset`` made by hand runs the axiom check
(``verify_axioms``), on the first read of its lower covers, which it
then reads off its checked down rows.  ``upper_covers`` is their
transpose.

A lattice is certified at construction, on its order rows, and both
tables are built on first read.  The certificate rests on one fact: in
a finite poset with a bottom, if ``j v y`` exists for every
join-irreducible j and every y, every pair has a join.  By induction on
height: an element x that is neither the bottom nor join-irreducible has
two lower covers c1 and c2, and ``c1 v c2``, below x and strictly above
c1, is x.  So the upper bounds of {x, y} are those of {c1, c2, y}, and
``x v y = c1 v (c2 v y)``.  The join table follows the same induction:
only the join-irreducible rows j are filled from the up rows, looking up
just the y incomparable to j; every other row is gathered from the rows
of two lower covers, built before it.  The meet table is built the same
way on the down rows and upper covers.  Distributivity reads the order
rows alone.

Every ``meet_of_set``/``join_of_set`` answer is re-verified against the
universal property read off the order matrix; a corrupted table entry
can therefore never produce a silently wrong answer.  Facts derived from
the order alone (the covers and the join-irreducibles, which on a
finite lattice are also its completely co-irreducibles) are cached on
the poset, and facts about the tables on the lattice: the two tables
and the first faulty entry of each table (``join_fault``,
``meet_fault``), each computed on first read, unless the table was
built from the order rows and so has none.  Residual facts are kept by
the ``residual.Rows`` that derives them.

The table primitives (``leq``, ``join2``, ``meet2``, ``join_of_set``
and ``meet_of_set``) do not check their positions, since the law
registry calls them tens of thousands of times per run: a position
outside 0..n-1 gives a wrong answer or an unrelated error there.  The
residual calculus checks each position at its public functions
(``residual._position``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import compress, count, repeat
from operator import and_, getitem, itemgetter, or_
from typing import Iterable, Optional, Sequence

from .bitset import bits, full_mask, mask_of
from .errors import (
    CycleDetected,
    LatticeIntegrityError,
    NoBottom,
    NotALattice,
    TooLarge,
    UnknownElement,
)

LATTICE_SIZE_CAP = 4096  # elements, for every generator and for JSON input


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order on elements 0..n-1.

    ``up[i]`` is the bitmask of ``{j : i <= j}`` and ``down[i]`` the bitmask
    of ``{j : j <= i}``; both are full transitive closures.  Labels in
    ``names`` are display-only, indices are canonical.
    """

    n: int
    names: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and bool(self.up[i] >> j & 1)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownElement(f"unknown element {name!r}") from None

    def verify_axioms(self) -> None:
        """Check that ``up`` is a partial order and ``down`` its transpose:
        reflexivity, antisymmetry and transitivity row by row, one step
        per comparable pair, then ``down`` against the transpose of
        ``up``.  Raises ``CycleDetected`` naming the first fault."""
        n, names, up, down = self.n, self.names, self.up, self.down
        for i in range(n):
            if not up[i] >> i & 1:
                raise CycleDetected(f"relation not reflexive at {names[i]}")
            both = up[i] & down[i] & ~(1 << i)
            if both:
                j = next(bits(both))
                raise CycleDetected(f"antisymmetry fails: {names[i]} <= {names[j]} <= {names[i]}")
            for j in bits(up[i]):
                if up[j] & ~up[i]:
                    k = next(bits(up[j] & ~up[i]))
                    raise CycleDetected(f"transitivity fails at ({names[i]},{names[j]},{names[k]})")
        transpose = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                transpose[j] |= 1 << i
        for j in range(n):
            if down[j] != transpose[j]:
                i = next(bits(down[j] ^ transpose[j]))
                rows = "up" if transpose[j] >> i & 1 else "down"
                raise CycleDetected(
                    f"down rows are not the transpose of the up rows: "
                    f"{names[i]} <= {names[j]} only in the {rows} rows"
                )

    @cached_property
    def lower_covers(self) -> tuple[int, ...]:
        """``lower_covers[x]`` is the bitmask of the elements x covers:
        the maximal elements strictly below x.  Every constructor of this
        module hands them over with the rows (``_hasse_poset``); a poset
        made by hand runs ``verify_axioms`` on first read, which raises on
        rows that are no partial order, and reads them off its down rows."""
        self.verify_axioms()
        return tuple(self.maximal_of(row ^ 1 << x) for x, row in enumerate(self.down))

    @cached_property
    def upper_covers(self) -> tuple[int, ...]:
        """``upper_covers[x]`` is the bitmask of the elements that cover x:
        the transpose of ``lower_covers``, built on first read.  Only the
        meet table reads it."""
        upper = [0] * self.n
        for y, row in enumerate(self.lower_covers):
            bit = 1 << y
            for x in bits(row):
                upper[x] |= bit
        return tuple(upper)

    @cached_property
    def irreducibles(self) -> int:
        """Bitmask of the join-irreducibles: the elements with exactly one
        lower cover."""
        one_cover = map((1).__eq__, map(int.bit_count, self.lower_covers))
        return sum(map((1).__lshift__, compress(count(), one_cover)))

    def covers(self) -> list[tuple[int, int]]:
        """Edges (i, j) of the Hasse diagram, sorted: j covers i."""
        return sorted((i, j) for j, row in enumerate(self.lower_covers) for i in bits(row))

    def maximal_of(self, mask: int) -> int:
        """Bitmask of the maximal elements of the given subset.

        Each round climbs from the highest remaining bit through larger
        remaining elements to a maximal one, keeps it and drops its
        downset, which holds no other maximal element.  The work grows
        with the maximal elements and the climbs, not with the subset."""
        up, down = self.up, self.down
        out = 0
        while mask:
            i = mask.bit_length() - 1
            above = up[i] & mask & ~(1 << i)
            while above:
                i = above.bit_length() - 1
                above = up[i] & mask & ~(1 << i)
            out |= 1 << i
            mask &= ~down[i]
        return out

    def to_json_dict(self) -> dict:
        pairs = sorted((self.names[i], self.names[j]) for i, j in self.covers())
        return {
            "elements": list(self.names),
            "relation": [list(p) for p in pairs],
            "mode": "covers",
        }

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i in range(self.n):
            lines.append(f'  n{i} [label="{_dot_escape(self.names[i])}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(
    names: Sequence[str], relation_pairs: Iterable[tuple[str, str]], mode: str = "covers"
) -> FinitePoset:
    """Build a poset from named pairs.

    ``mode="covers"`` treats pairs as Hasse edges, ``mode="leq"`` as arbitrary
    (a <= b) assertions; either way the reflexive-transitive closure is
    computed.  The closure is one pass in topological order: an up row is
    the OR of its successors' up rows, taken in reverse order, and a down
    row the OR of its predecessors' down rows, which is O(n + pairs) row
    ORs.  A cyclic relation raises ``CycleDetected`` naming two elements
    on a cycle; the closure of an acyclic one is a partial order, so no
    axiom check runs on it.

    The lower covers of b are built in the same pass: the predecessors
    of b that lie strictly below no other predecessor of b.  Every
    element strictly below b lies at or below a predecessor of b, so each
    lower cover is a predecessor, and a predecessor a is one unless some
    c lies strictly between a and b, which puts a strictly below the
    predecessor at or above c.
    """
    if mode not in ("covers", "leq"):
        raise ValueError(f"mode must be 'covers' or 'leq', got {mode!r}")
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError("element names must be distinct")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    succ = [0] * n
    for a, b in relation_pairs:
        if a not in index:
            raise UnknownElement(f"unknown element {a!r}")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r}")
        succ[index[a]] |= 1 << index[b]
    # A pair (a, a) asserts reflexivity, which every row has anyway.
    succ = [row & ~(1 << i) for i, row in enumerate(succ)]
    pred = [0] * n
    for a, row in enumerate(succ):
        for b in bits(row):
            pred[b] |= 1 << a
    order = _topological_order(names, succ, pred)
    up = [1 << i for i in range(n)]
    for a in reversed(order):
        for b in bits(succ[a]):
            up[a] |= up[b]
    down = [1 << i for i in range(n)]
    lower = [0] * n
    for b in order:
        row, strict = down[b], 0
        for a in bits(pred[b]):
            row |= down[a]
            strict |= down[a] ^ 1 << a
        down[b] = row
        lower[b] = pred[b] & ~strict
    return _hasse_poset(names, up, down, lower)


def _hasse_poset(names: tuple[str, ...], up, down, lower_covers) -> FinitePoset:
    """A poset on rows that are a partial order by construction, holding
    the Hasse diagram its builder knows as ``lower_covers``: no axiom
    check runs on it."""
    poset = FinitePoset(n=len(names), names=names, up=tuple(up), down=tuple(down))
    vars(poset)["lower_covers"] = tuple(lower_covers)
    return poset


def _topological_order(names, succ, pred) -> list:
    """Kahn's order of the edge graph: each element after all of its
    predecessors.  When a cycle blocks it, raises ``CycleDetected`` for
    the least element on a cycle and the least other element on its
    cycles, the pair that the antisymmetry check of the closure names."""
    indegree = [row.bit_count() for row in pred]
    order = [i for i, d in enumerate(indegree) if d == 0]
    for a in order:  # grows while it is read
        for b in bits(succ[a]):
            indegree[b] -= 1
            if indegree[b] == 0:
                order.append(b)
    if len(order) == len(names):
        return order
    # The elements left out lie on or above a cycle.  For each, in index
    # order, the others that are both after and before it: its cycles.
    blocked = full_mask(len(names)) & ~mask_of(order)
    cycles = ((i, _reach(succ, succ[i]) & _reach(pred, pred[i]) & ~(1 << i)) for i in bits(blocked))
    i, cycle = next((i, cycle) for i, cycle in cycles if cycle)
    j = next(bits(cycle))
    raise CycleDetected(f"antisymmetry fails: {names[i]} <= {names[j]} <= {names[i]}")


def _reach(edges, mask: int) -> int:
    """Bitmask of the elements reachable from ``mask`` along ``edges``,
    ``mask`` included."""
    seen = frontier = mask
    while frontier:
        step = 0
        for k in bits(frontier):
            step |= edges[k]
        frontier = step & ~seen
        seen |= frontier
    return seen


def poset_from_json(doc: dict) -> FinitePoset:
    """Poset from ``{"elements": [...], "relation": [[a, b], ...], "mode": ...}``.

    A document of the wrong shape raises ``ValueError`` naming the field,
    and one of more than ``LATTICE_SIZE_CAP`` elements ``TooLarge``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"poset JSON must be an object, got {type(doc).__name__}")
    for field in ("elements", "relation"):
        if not isinstance(doc.get(field), (list, tuple)):
            raise ValueError(f"poset JSON needs a list field {field!r}")
    if not all(isinstance(name, str) for name in doc["elements"]):
        raise ValueError("poset JSON field 'elements' must hold string names")
    if not all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(isinstance(a, str) for a in p)
        for p in doc["relation"]
    ):
        raise ValueError("poset JSON field 'relation' must hold [a, b] pairs of names")
    if len(doc["elements"]) > LATTICE_SIZE_CAP:
        raise TooLarge(f"poset JSON exceeds the size cap {LATTICE_SIZE_CAP}")
    pairs = [tuple(p) for p in doc["relation"]]
    return build_poset(doc["elements"], pairs, doc.get("mode", "covers"))


@dataclass(frozen=True)
class FiniteLattice:
    """A finite lattice: poset plus total meet/join tables and bottom.

    Both tables (``join``, ``meet``) are built from the order rows on
    first read, unless the lattice was built with its own rows in
    ``join_rows`` or ``meet_rows`` (a ``mutate_entry`` or ``replace`` copy
    that carries its own table).  Instances are otherwise immutable; every
    operation is read-only.  For a lattice of sets ordered by inclusion,
    ``sets[i]`` is the set (a bitmask) that element ``i`` stands for;
    otherwise ``sets`` is empty.
    """

    poset: FinitePoset
    bottom: int
    top: int
    distributive: bool
    provenance: str = "lattice"
    sets: tuple = ()
    join_rows: Optional[tuple[tuple[int, ...], ...]] = field(default=None, repr=False)
    meet_rows: Optional[tuple[tuple[int, ...], ...]] = field(default=None, repr=False)

    # -- order plumbing -------------------------------------------------

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def coframe(self) -> bool:
        """The coframe law (dual infinite distributivity): on a finite
        lattice every meet and join is finite, so it is distributivity."""
        return self.distributive

    @property
    def names(self) -> tuple[str, ...]:
        return self.poset.names

    def leq(self, i: int, j: int) -> bool:
        return bool(self.poset.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and bool(self.poset.up[i] >> j & 1)

    def down_set(self, x: int) -> int:
        """Bitmask of {z : z <= x}."""
        return self.poset.down[x]

    def up_set(self, x: int) -> int:
        """Bitmask of {z : x <= z}."""
        return self.poset.up[x]

    def strictly_below(self, x: int) -> int:
        return self.poset.down[x] & ~(1 << x)

    def elements(self) -> range:
        return range(self.n)

    # The law registry's window (see ``laws``) is all of the lattice.

    def box(self, bound: int) -> range:
        return range(self.n)

    def name(self, x: int) -> str:
        return self.poset.names[x]

    @cached_property
    def join(self) -> tuple[tuple[int, ...], ...]:
        """The join table: ``join_rows`` when given, else built on first
        read from the up rows along a linear extension, from the bottom
        up (``_composed_table``).  The poset is certified (see
        ``as_lattice``), so every lookup finds its row and, by the
        induction of the module docstring, every row holds true joins."""
        if self.join_rows is not None:
            return self.join_rows
        p = self.poset
        return _composed_table(p.up, p.down, p.lower_covers, _linear_extension(p))

    @cached_property
    def meet(self) -> tuple[tuple[int, ...], ...]:
        """The meet table: ``meet_rows`` when given, else built on first
        read by the dual of ``join``, from the top down.  The top row is
        the identity, each meet-irreducible row (one upper cover) is
        filled from the down rows, looking up only the entries for
        elements incomparable to it, and the row of an x with upper
        covers c1 and c2 is gathered from theirs, as ``meet(x, y) =
        meet(c1, meet(c2, y))``.  By the induction of the module
        docstring read upside down, every row holds true meets."""
        if self.meet_rows is not None:
            return self.meet_rows
        p = self.poset
        return _composed_table(p.down, p.up, p.upper_covers, _linear_extension(p)[::-1])

    def meet2(self, i: int, j: int) -> int:
        return self.meet[i][j]

    def join2(self, i: int, j: int) -> int:
        return self.join[i][j]

    # -- verified folds --------------------------------------------------
    #
    # Each fold checks its answer against the universal property: the
    # common lower (upper) bounds of the set must be exactly down(acc)
    # (up(acc)).  That one comparison is the same test as "acc is a common
    # bound and every common bound is below (above) it": on a transitive
    # order acc being a common bound forces down(acc) (up(acc)) inside the
    # common bounds, and reflexivity puts acc in its own row.

    def meet_of_set(self, xs: Iterable[int]) -> int:
        """Meet of a finite set, verified against the universal property."""
        xs = list(xs)
        if not xs:
            return self.top  # every finite lattice has one
        down, meet = self.poset.down, self.meet
        acc = xs[0]
        lower = down[acc]
        for x in xs[1:]:
            acc = meet[acc][x]
            lower &= down[x]
        if lower != down[acc]:
            raise LatticeIntegrityError(
                "meet table violates the universal property",
                witness={"set": [self.names[x] for x in xs], "folded": self.names[acc]},
            )
        return acc

    def join_of_set(self, xs: Iterable[int]) -> int:
        """Join of a finite set, verified the same way; the empty join is
        the bottom."""
        xs = list(xs)
        if not xs:
            return self.bottom
        up, join = self.poset.up, self.join
        acc = xs[0]
        upper = up[acc]
        for x in xs[1:]:
            acc = join[acc][x]
            upper &= up[x]
        if upper != up[acc]:
            raise self._join_violation(xs, acc)
        return acc

    def _join_violation(self, xs: list, acc: int) -> LatticeIntegrityError:
        """The error ``join_of_set(xs)`` raises when its fold ``acc`` fails
        the check; the law registry's shared folds raise the same one."""
        return LatticeIntegrityError(
            "join table violates the universal property",
            witness={"set": [self.names[x] for x in xs], "folded": self.names[acc]},
        )

    @cached_property
    def join_fault(self) -> Optional[tuple[int, int]]:
        """First pair (a, b), row-major, with ``up[join[a][b]] != up[a] &
        up[b]`` (by the argument above, a wrong entry), or None.  A table
        built from the up rows (see ``join``) holds only true joins, so
        only ``join_rows`` are scanned, on first read: a ``mutate_entry``
        or ``replace`` copy that carries its own table."""
        if self.join_rows is None:
            return None
        return _table_fault(self.join, self.poset.up)

    @cached_property
    def meet_fault(self) -> Optional[tuple[int, int]]:
        """The same for the meet table, on the down rows.  A table built
        from the down rows (see ``meet``) holds only true meets, so only
        ``meet_rows`` are scanned."""
        if self.meet_rows is None:
            return None
        return _table_fault(self.meet, self.poset.down)

    # -- dual compactness -------------------------------------------------

    def dually_compact(self, x: int) -> bool:
        """Every element of a finite lattice is dually compact: a finite
        filtered set contains its own minimum, which realizes the required
        member below x."""
        return True

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return self.poset.to_json_dict()

    def to_dot(self) -> str:
        return self.poset.to_dot()

    def describe(self) -> str:
        return f"{self.provenance} (n={self.n})"


def as_lattice(p: FinitePoset, provenance: str = "lattice") -> FiniteLattice:
    """Certify that the poset is a lattice, or fail with a witness pair.

    The certificate is the fact of the module docstring, read off the
    order rows: exactly one element has no lower covers (in a finite
    poset, that is a bottom), and for every join-irreducible j (one
    lower cover) and every y incomparable to j, ``up[j] & up[y]`` is an
    up row, that of ``j v y``.  For y comparable to j the join is the
    larger of the two.  That is one set lookup per such pair, in any
    order.  A finite poset with a bottom in which every pair has a join
    is a lattice: the meet of a and b is the join of their common lower
    bounds, a set holding the bottom.  So no table is built here:
    ``FiniteLattice.join`` and ``FiniteLattice.meet`` build theirs on
    first read.  Distributivity reads the order rows alone
    (``_join_prime_distributive``).

    A poset that fails the certificate is no lattice.  It raises
    ``NotALattice`` for the first pair, row-major, without a join or a
    meet (the join checked first; see ``_missing_bound``).  The empty
    poset raises ``NoBottom``.
    """
    n, up, down = p.n, p.up, p.down
    if n == 0:
        raise NoBottom("an empty poset has no bottom")
    if p.lower_covers.count(0) != 1:
        raise _missing_bound(p)
    full, is_up_row = full_mask(n), set(up).issuperset
    for j in bits(p.irreducibles):
        if not is_up_row(map(up[j].__and__, map(up.__getitem__, bits(full & ~(up[j] | down[j]))))):
            raise _missing_bound(p)
    return FiniteLattice(
        poset=p,
        bottom=up.index(full),
        top=down.index(full),
        distributive=_join_prime_distributive(p),
        provenance=provenance,
    )


def _linear_extension(p: FinitePoset) -> Sequence[int]:
    """The elements, each after every element below it: index order when
    it is one, as the inclusion, divisor, chain and product generators
    build it, else by down-row size (the ideal lattices of Z/n list the
    top first)."""
    if all(row.bit_length() == x + 1 for x, row in enumerate(p.down)):
        return range(p.n)
    return sorted(range(p.n), key=lambda x: p.down[x].bit_count())


def _composed_table(rows, dual, covers, order) -> tuple[tuple[int, ...], ...]:
    """``table[a][b]``, the k with ``rows[k] == rows[a] & rows[b]``, built
    along ``order`` (each element after its ``covers``) on a lattice.

    On up rows, with the down rows as ``dual`` and the lower covers, this
    is the join table; on down rows, with the up rows and the upper
    covers, walked the other way, the meet table.  The first element is
    the only one without covers (the bottom, or the top), and its row is
    the identity.  An element x with one cover is filled without
    gathering: the entries for the elements walked before it are x when
    all of them lie in ``dual[x]`` (as on a chain), else its column in
    their rows; the entry for a later y in ``rows[x]`` is y (on an order,
    ``rows[x] & rows[y] == rows[y]``), and only the later y outside
    ``rows[x]`` are looked up among the rows.  Any other element's row
    is gathered from the rows of two of its covers.
    """
    n = len(rows)
    index = {row: k for k, row in enumerate(rows)}
    # Entries are filled in walk order; at[y] is y's place in the walk.
    at = [0] * n
    for t, x in enumerate(order):
        at[x] = t
    scatter = tuple if order == range(n) else itemgetter(*at)
    table = [None] * n
    walked = []
    unwalked = full = full_mask(n)
    for t, x in enumerate(order):
        unwalked ^= 1 << x
        cover_mask = covers[x]
        if rest := cover_mask & (cover_mask - 1):
            c1 = (cover_mask ^ rest).bit_length() - 1
            c2 = (rest & -rest).bit_length() - 1
            row = itemgetter(*table[c2])(table[c1])
        elif cover_mask:
            if unwalked | dual[x] == full:
                entries = [x] * t
            else:
                entries = list(map(getitem, walked, repeat(x)))
            entries += order[t:]
            row_x = rows[x]
            for y in bits(unwalked & ~row_x):
                entries[at[y]] = index[row_x & rows[y]]
            row = scatter(entries)
        else:
            row = tuple(range(n))
        table[x] = row
        walked.append(row)
    return tuple(table)


def _missing_bound(p: FinitePoset) -> NotALattice:
    """The first pair, row-major, without a join or a meet (the join
    checked first) in a poset that ``as_lattice`` refused.  A pair has
    a join iff the AND of its up rows is an up row, and a meet iff the
    AND of its down rows is a down row.  Some pair has none: with every
    meet the poset has a bottom, and then with every join it passes the
    certificate."""
    names, up, down = p.names, p.up, p.down
    up_rows, down_rows = set(up), set(down)
    for a in range(p.n):
        for b in range(p.n):
            if up[a] & up[b] not in up_rows:
                return NotALattice(f"{names[a]} and {names[b]} have no join", pair=(a, b))
            if down[a] & down[b] not in down_rows:
                return NotALattice(f"{names[a]} and {names[b]} have no meet", pair=(a, b))


def inclusion_lattice(sets: Iterable[int], point_names: Sequence[str], provenance: str) -> FiniteLattice:
    """Lattice of distinct point sets (bitmasks) ordered by inclusion.

    The sets are put in (size, value) order; element ``i`` stands for
    ``sets[i]`` of the result and is named by the ``point_names`` of its
    members.  A negative mask, a set holding a point past ``point_names``
    or a set given twice raises ``ValueError`` naming the set, before any
    row is built.  Raises ``NotALattice`` if the family is not a lattice.

    Each set's member list is taken once.  It gives the set's name and
    the holder masks: ``holders[q]``, the sets that hold point q.  A set's
    up row is the AND of its points' holders, and its down row the AND of
    the complements of the holders of the points it lacks, each one
    ``reduce`` over the rows.

    Inclusion of distinct sets is a partial order, so no axiom check
    runs on the rows, and the lower covers are read off the down rows.
    A strict subset is smaller, so it comes earlier.  So the highest
    element left in a set's strict down row lies strictly below no other
    element left, nor below a cover already kept, whose down row was
    cleared: it is a lower cover.  Keep it, clear its down row, and
    repeat until nothing is left.
    """
    sets = tuple(sorted(sorted(sets), key=int.bit_count))  # stable: (size, value) order
    points = _union_of_sets(sets, point_names)
    members = list(map(tuple, map(bits, sets)))
    name_of = point_names.__getitem__
    names = tuple([f"{{{','.join(map(name_of, ms))}}}" for ms in members])
    everything = full_mask(len(sets))
    holders = [0] * len(point_names)
    for j, ms in enumerate(members):
        bit = 1 << j
        for q in ms:
            holders[q] |= bit
    lacking = [everything ^ row for row in holders]
    up = tuple([reduce(and_, map(holders.__getitem__, ms), everything) for ms in members])
    down = tuple([reduce(and_, map(lacking.__getitem__, bits(points & ~m)), everything) for m in sets])
    lower = []
    for x, row in enumerate(down):
        rest, covers = row ^ 1 << x, 0
        while rest:
            c = rest.bit_length() - 1
            covers |= 1 << c
            rest &= ~down[c]
        lower.append(covers)
    poset = _hasse_poset(names, up, down, lower)
    return replace(as_lattice(poset, provenance=provenance), sets=sets)


def _union_of_sets(sets: tuple[int, ...], point_names: Sequence[str]) -> int:
    """The union of the sets, once the family is known to name an
    inclusion order on ``point_names``: the first negative mask, then the
    first set with a point past the names, then the first set given
    twice, in (size, value) order, raise ``ValueError``."""
    if min(sets, default=0) < 0:
        m = next(m for m in sets if m < 0)
        raise ValueError(f"inclusion_lattice: set {m} is a negative mask")
    named, points = len(point_names), reduce(or_, sets, 0)
    if points >> named:
        m = next(m for m in sets if m >> named)
        q = next(bits(m >> named)) + named
        raise ValueError(
            f"inclusion_lattice: set {bin(m)} holds point {q}, but only {named} points are named"
        )
    if len(set(sets)) < len(sets):
        m = next(m for m, after in zip(sets, sets[1:]) if m == after)
        name = "{" + ",".join(map(point_names.__getitem__, bits(m))) + "}"
        raise ValueError(f"inclusion_lattice: set {name} is given twice")
    return points


def _table_fault(table, rows) -> Optional[tuple[int, int]]:
    """One list comparison per row, then a scan of the first failing row."""
    for a, entries in enumerate(table):
        want = list(map(rows[a].__and__, rows))
        if list(map(rows.__getitem__, entries)) != want:
            return a, next(b for b, j in enumerate(entries) if rows[j] != want[b])
    return None


def _join_prime_distributive(p: FinitePoset) -> bool:
    """A finite lattice is distributive iff every join-irreducible j
    (one lower cover) is join-prime: ``j <= x v y`` only if ``j <= x`` or
    ``j <= y`` (Davey & Priestley, *Introduction to Lattices and Order*,
    2nd ed., ch. 5).  The elements not above j form a down-set that holds
    the bottom, and it is closed under joins, and so the down row of its
    join, exactly when j is join-prime.  So the test reads the order rows
    alone: one mask per join-irreducible, and no table."""
    full, up, down_rows = full_mask(p.n), p.up, set(p.down)
    return all(full & ~up[j] in down_rows for j in bits(p.irreducibles))


def meet_of_set(L: FiniteLattice, mask_or_indices) -> int:
    """Meet of a subset given as a bitmask or as indices; the empty meet
    is the top."""
    return L.meet_of_set(_as_indices(mask_or_indices))


def join_of_set(L: FiniteLattice, mask_or_indices) -> int:
    return L.join_of_set(_as_indices(mask_or_indices))


def _as_indices(mask_or_indices) -> list[int]:
    if isinstance(mask_or_indices, int):
        return list(bits(mask_or_indices))
    return list(mask_or_indices)


def lattice_from_json(doc: dict, provenance: str = "lattice") -> FiniteLattice:
    return as_lattice(poset_from_json(doc), provenance=provenance)


def canonical_json(obj) -> str:
    """Stable byte form: sorted keys, no whitespace drift, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


__all__ = [
    "LATTICE_SIZE_CAP",
    "FinitePoset",
    "FiniteLattice",
    "build_poset",
    "as_lattice",
    "poset_from_json",
    "lattice_from_json",
    "meet_of_set",
    "join_of_set",
    "canonical_json",
    "inclusion_lattice",
]
