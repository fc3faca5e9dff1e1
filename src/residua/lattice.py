"""Explicit finite posets and lattices with verified axioms.

Order relations are stored as full reflexive-transitive closures, one
bit-packed row per element, so order queries are O(1) word operations.
The rows are built whole: ``build_poset`` closes a relation in one
topological pass, and inclusion and product lattices form their rows
from set and factor rows.  The join table is built with the lattice, as
its certificate; the meet table on first read.  Every
``meet_of_set``/``join_of_set`` answer is re-verified against the
universal property read off the order matrix; a corrupted table entry
can therefore never produce a silently wrong answer.  Facts derived from
the order alone (lower covers, the join-irreducibles, the completely
co-irreducibles) are cached on the poset, facts that read the tables on
the lattice: the meet table, the residual derivatives and the first
faulty entry of each table (``join_fault``, ``meet_fault``), each
computed on first read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from operator import getitem
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
        """Check that ``up`` is a partial order and ``down`` its transpose,
        with one row OR per Hasse edge for each.

        Row i passes when ``up[i] & down[i]`` is ``{i}`` and ``up[i]``
        minus i is exactly the union of the up rows of the minimal
        elements c of ``up[i]`` minus i, none of which holds i.  Each c
        is found by climbing down rows through a shrinking candidate set,
        so the climb ends on any rows.  If every row passes, the order is
        transitive, by induction on ``|up[i]|``: each ``up[c]`` lies in
        ``up[i]`` and misses i, so it is smaller and transitive, and every
        j above i lies in some ``up[c]``, so ``up[j]`` lies in ``up[c]``.
        It is antisymmetric for the same reason: j above i lies in some
        ``up[c]``, which misses i.

        Every c found is above i, and every element that covers i is
        found.  So ``down`` is the transpose of ``up`` when each
        ``down[c]`` is c plus the down rows of the i whose climb found c:
        by induction from the minimal elements, every element below c lies
        below one that c covers.  A partial order with its transpose
        passes.  Rows that fail replay the full scan (``_axiom_scan``),
        which raises their first fault.
        """
        up, down = self.up, self.down
        # below[c]: c plus the down rows of the elements whose climb found c
        below = [1 << c for c in range(self.n)]
        for i, row in enumerate(up):
            bit = 1 << i
            if row & down[i] != bit:
                return self._axiom_scan()
            rest = row ^ bit
            covered = 0
            while rest:
                cand = rest
                while True:
                    c = (cand & -cand).bit_length() - 1
                    lower = down[c] & cand & ~(1 << c)
                    if not lower:
                        break
                    cand = lower
                covered |= up[c]
                below[c] |= down[i]
                rest &= ~(up[c] | 1 << c)
            if covered != row ^ bit:
                return self._axiom_scan()
        if below != list(down):
            return self._axiom_scan()

    def _axiom_scan(self) -> None:
        """The full matrix scan for reflexivity, antisymmetry and
        transitivity, one step per comparable pair, then a comparison of
        ``down`` with the transpose of ``up``: it names the first fault,
        row by row."""
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
        """``lower_covers[x]`` is the bitmask of the elements x covers."""
        return tuple(self.maximal_of(self.down[x] & ~(1 << x)) for x in range(self.n))

    @cached_property
    def irreducibles(self) -> int:
        """Bitmask of the join-irreducibles: the elements with exactly one
        lower cover."""
        return mask_of(x for x, row in enumerate(self.lower_covers) if row.bit_count() == 1)

    @cached_property
    def coirreducibles(self) -> int:
        """Bitmask of the completely co-irreducible elements: x has a unique
        lower cover m and every element strictly below x is below m."""
        down, out = self.down, 0
        for x, row in enumerate(self.lower_covers):
            if row.bit_count() == 1 and down[x] & ~(1 << x) & ~down[row.bit_length() - 1] == 0:
                out |= 1 << x
        return out

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
    """Build a verified poset from named pairs.

    ``mode="covers"`` treats pairs as Hasse edges, ``mode="leq"`` as arbitrary
    (a <= b) assertions; either way the reflexive-transitive closure is
    computed and the poset axioms are verified.  The closure is one pass
    in topological order: an up row is the OR of its successors' up rows,
    taken in reverse order, and a down row the OR of its predecessors'
    down rows, which is O(n + pairs) row ORs.  A cyclic relation raises
    ``CycleDetected`` naming two elements on a cycle.
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
    for b in order:
        for a in bits(pred[b]):
            down[b] |= down[a]
    poset = FinitePoset(n=n, names=names, up=tuple(up), down=tuple(down))
    poset.verify_axioms()
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

    The join table is built with the lattice, as its certificate; the
    meet table (``meet``) is built from the down rows on first read,
    unless the lattice was built with its own rows in ``meet_rows`` (a
    copy that carries a corrupted or restricted table).  Instances are
    otherwise immutable; every operation is read-only.  For a lattice of
    sets ordered by inclusion, ``sets[i]`` is the set (a bitmask) that
    element ``i`` stands for; otherwise ``sets`` is empty.
    """

    poset: FinitePoset
    join: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    distributive: bool
    coframe: bool
    provenance: str = "lattice"
    sets: tuple = ()
    meet_rows: Optional[tuple[tuple[int, ...], ...]] = field(default=None, repr=False)

    # -- order plumbing -------------------------------------------------

    @property
    def n(self) -> int:
        return self.poset.n

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

    def full(self) -> int:
        return full_mask(self.n)

    @cached_property
    def meet(self) -> tuple[tuple[int, ...], ...]:
        """The meet table: ``meet_rows`` when given, else built from the
        down rows on first read.  That cannot fail once the join table
        exists (see ``as_lattice``)."""
        if self.meet_rows is not None:
            return self.meet_rows
        return _bound_table(self.poset.down)

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
        up[b]`` (by the argument above, a wrong entry), or None.  Never
        set by ``as_lattice``: a ``mutate_entry`` copy computes its own."""
        return _table_fault(self.join, self.poset.up)

    @cached_property
    def meet_fault(self) -> Optional[tuple[int, int]]:
        """The same for the meet table, on the down rows."""
        return _table_fault(self.meet, self.poset.down)

    @cached_property
    def derivatives(self) -> list:
        """Row of residual derivatives (default family), filled one element
        at a time by ``residual.residual_derivative``; None where not yet
        computed.  It lives on the lattice, not the poset, because the
        derivative reads the meet table: a ``mutate_entry`` copy starts
        with its own empty row."""
        return [None] * self.n

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
    """Compute the join table from the order, or fail with a witness pair.

    The join of (i, j) exists iff the common upper bounds equal ``up[k]``
    for some k, which is then the unique minimum; k is found by hashing
    the up rows.  The join table is the lattice certificate: in a finite
    poset with a bottom where every pair has a join, the meet of a and b
    is the join of their common lower bounds, a set holding the bottom.
    So the meet table is left to ``FiniteLattice.meet``, built on first
    read.  A poset that is no lattice raises ``NotALattice`` for the first
    pair, row-major, without a join or a meet (the join checked first).
    """
    n, up, down = p.n, p.up, p.down
    if n == 0:
        raise NoBottom("an empty poset has no bottom")
    join = _bound_table(up)
    gap = next(((i, row.index(None)) for i, row in enumerate(join) if None in row), None)
    if gap is not None or full_mask(n) not in up:
        raise _missing_bound(p, gap)
    bottom = up.index(full_mask(n))
    top = down.index(full_mask(n))
    distributive = _birkhoff_distributive(p, join)
    # For a finite lattice the coframe law (dual infinite distributivity)
    # reduces to plain distributivity: all meets/joins are finite.
    return FiniteLattice(
        poset=p,
        join=join,
        bottom=bottom,
        top=top,
        distributive=distributive,
        coframe=distributive,
        provenance=provenance,
    )


def _bound_table(rows) -> tuple[tuple[Optional[int], ...], ...]:
    """``table[a][b]`` is the k with ``rows[k] == rows[a] & rows[b]``, or
    None: the join table on up rows, the meet table on down rows.  The
    table is symmetric, so row a is computed from column a on, and its
    first a entries are column a of the rows above."""
    index = {row: k for k, row in enumerate(rows)}
    table = []
    for a, row in enumerate(rows):
        entries = list(map(getitem, table, repeat(a)))
        entries += map(index.get, map(row.__and__, rows[a:]))
        table.append(tuple(entries))
    return tuple(table)


def _missing_bound(p: FinitePoset, no_join: Optional[tuple[int, int]]):
    """The error for a poset that is no lattice, given its first pair
    without a join (None if every pair has one): ``NotALattice`` for the
    first pair, row-major, without a meet or a join, else ``NoBottom``."""
    n, names, down = p.n, p.names, p.down
    rows = set(down)
    for a in range(n):
        for b in range(n):
            if (a, b) == no_join:
                return NotALattice(f"{names[a]} and {names[b]} have no join", pair=(a, b))
            if down[a] & down[b] not in rows:
                return NotALattice(f"{names[a]} and {names[b]} have no meet", pair=(a, b))
    return NoBottom("lattice has no bottom element")


def inclusion_lattice(sets: Iterable[int], point_names: Sequence[str], provenance: str) -> FiniteLattice:
    """Lattice of distinct point sets (bitmasks) ordered by inclusion.

    The sets are put in (size, value) order; element ``i`` stands for
    ``sets[i]`` of the result and is named by the ``point_names`` of its
    members.  Raises ``NotALattice`` if the family is not a lattice.
    """
    sets = tuple(sorted(sets, key=lambda m: (m.bit_count(), m)))
    names = tuple("{" + ",".join(point_names[i] for i in bits(m)) + "}" for m in sets)
    # holders[q]: the sets that hold point q.  A set's up row is the AND
    # of its points' holders; its down row is every set but the holders
    # of the points it lacks.
    points = 0
    for m in sets:
        points |= m
    holders = dict.fromkeys(bits(points), 0)
    for j, m in enumerate(sets):
        for q in bits(m):
            holders[q] |= 1 << j
    everything = full_mask(len(sets))
    up = []
    down = []
    for m in sets:
        u = everything
        for q in bits(m):
            u &= holders[q]
        outside = 0
        for q in bits(points & ~m):
            outside |= holders[q]
        up.append(u)
        down.append(everything & ~outside)
    poset = FinitePoset(n=len(sets), names=names, up=tuple(up), down=tuple(down))
    poset.verify_axioms()
    return replace(as_lattice(poset, provenance=provenance), sets=sets)


def _table_fault(table, rows) -> Optional[tuple[int, int]]:
    """One list comparison per row, then a scan of the first failing row."""
    for a, entries in enumerate(table):
        want = list(map(rows[a].__and__, rows))
        if list(map(rows.__getitem__, entries)) != want:
            return a, next(b for b, j in enumerate(entries) if rows[j] != want[b])
    return None


def _birkhoff_distributive(p: FinitePoset, join) -> bool:
    """Birkhoff's criterion: a finite lattice is distributive iff
    ``J(x v y) = J(x) | J(y)`` for all x, y, where ``J(x)`` is the set of
    join-irreducibles (elements with exactly one lower cover) below x
    (Davey & Priestley, *Introduction to Lattices and Order*, 2nd ed.,
    ch. 5).  Only the rows x in J are compared, |J|·n mask operations
    against the n^2/2 of all pairs: every x is the join ``j1 v ... v jk``
    of J(x), and if the law holds for each j in J and all y, then by
    induction on k, ``J(x v y) = J(j1) | J(j2 v ... v jk v y) = ... =
    J(j1) | ... | J(jk) | J(y) = J(x) | J(y)`` (the bottom is the empty
    join, k = 0).  That needs a true join table, which ``as_lattice``
    builds from the up rows.
    """
    irreducibles = p.irreducibles
    J = [row & irreducibles for row in p.down]
    for j in bits(irreducibles):
        # One list comparison per join-irreducible j over all pairs (j, y).
        if list(map(J.__getitem__, join[j])) != list(map(J[j].__or__, J)):
            return False
    return True


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
