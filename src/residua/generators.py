"""Construction and ingestion of example lattices.

Covers the classical instances the residual derivative specializes to:
subgroup lattices (Frattini subgroup), ideal lattices of Z/n (Jacobson
radical), divisor lattices, Boolean lattices, downset lattices of finite
posets (which realize every finite distributive lattice), products, and
seeded random distributive lattices for fuzzing the law suite.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from .bitset import bits, mask_of, popcount
from .errors import InvalidGroup, TooLarge
from .lattice import (
    LATTICE_SIZE_CAP,
    FiniteLattice,
    FinitePoset,
    _hasse_poset,
    as_lattice,
    build_poset,
    inclusion_lattice,
)
from .residual import residual_derivative

GROUP_ORDER_CAP = 64
ZN_CAP = 10**6
_ORDER_CAP_MESSAGE = f"subgroup enumeration capped at order {GROUP_ORDER_CAP}"

CATALOG_NAMES = tuple(
    [f"z{n}" for n in range(1, 33)] + ["s3", "d4", "q8", "a4", "z2xz4", "z2xz2xz2"]
)


# -- finite groups -----------------------------------------------------------


@dataclass(frozen=True)
class CayleyTable:
    """A finite group given by its multiplication table on 0..n-1."""

    order: int
    table: tuple
    identity: int
    name: str = "group"

    @classmethod
    def from_json_dict(cls, doc: dict, name: str = "group") -> "CayleyTable":
        """Group from ``{"order": n, "identity": e, "table": [[...], ...]}``.

        A document of the wrong shape raises ``InvalidGroup`` naming the
        field, and an order above ``GROUP_ORDER_CAP`` is refused; the group
        axioms are then checked by ``validate``.
        """
        if not isinstance(doc, dict):
            raise InvalidGroup(f"{name}: Cayley JSON must be an object, got {type(doc).__name__}")
        order, identity, table = doc.get("order"), doc.get("identity"), doc.get("table")
        if not _is_index(order):
            raise InvalidGroup(f"{name}: Cayley JSON needs a non-negative integer field 'order'")
        if not (_is_index(identity) and identity < order):
            raise InvalidGroup(f"{name}: Cayley JSON field 'identity' must be an element below 'order'")
        # One C-level pass per row: a bool has its own type, so it fails.
        if not (
            isinstance(table, list)
            and all(
                isinstance(row, list) and set(map(type, row)) <= {int} and min(row, default=0) >= 0
                for row in table
            )
        ):
            raise InvalidGroup(f"{name}: Cayley JSON field 'table' must be a list of rows of elements")
        if order > GROUP_ORDER_CAP:
            # Refused before validate(), whose associativity test reads
            # |S|·n^2 entries and replays an O(n^3) scan on a failure.
            raise InvalidGroup(_ORDER_CAP_MESSAGE)
        c = cls(
            order=order,
            table=tuple(tuple(row) for row in table),
            identity=identity,
            name=name,
        )
        c.validate()
        return c

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def validate(self) -> None:
        """Check the shape, the identity, inverses and associativity.

        Associativity is Light's test on a generating set.  The b with
        ``(xb)y = x(by)`` for all x and y hold the identity and are closed
        under the product: for such a and b, ``(x(ab))y = ((xa)b)y =
        (xa)(by) = x(a(by)) = x((ab)y)``.  So testing the generators that
        ``_generators`` picks, |S|·n^2 table reads, covers every b.  A
        failing generator replays the triple scan (``_associativity_scan``)
        for the first failing triple, row-major.
        """
        n, t, e = self.order, self.table, self.identity
        if len(t) != n or any(len(row) != n for row in t):
            raise InvalidGroup(f"{self.name}: table is not {n}x{n}")
        if any(min(row) < 0 or max(row) >= n for row in t):
            raise InvalidGroup(f"{self.name}: table entry out of range")
        if any(t[e][a] != a or t[a][e] != a for a in range(n)):
            raise InvalidGroup(f"{self.name}: {e} is not an identity")
        for a in range(n):
            if e not in t[a]:
                raise InvalidGroup(f"{self.name}: element {a} has no inverse")
        for b in _generators(t, e):
            row_b = t[b]
            for row_x in t:
                if list(t[row_x[b]]) != list(map(row_x.__getitem__, row_b)):
                    return self._associativity_scan()

    def _associativity_scan(self) -> None:
        """The O(n^3) scan of every triple, row-major, for the first one
        that fails associativity."""
        n, t = self.order, self.table
        for a in range(n):
            for b in range(n):
                tab = t[a][b]
                for c in range(n):
                    if t[tab][c] != t[a][t[b][c]]:
                        raise InvalidGroup(
                            f"{self.name}: associativity fails at ({a},{b},{c})"
                        )

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "identity": self.identity,
            "table": [list(row) for row in self.table],
        }


def _is_index(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _generators(t, e: int) -> list[int]:
    """A generating set of the magma with table ``t`` and identity ``e``,
    picked greedily in index order: each element outside the closure of
    those picked so far joins them.

    The closure is grown under right multiplication by the picks: each
    member x is multiplied by each pick s once, as x·s, which is O(n·|S|)
    reads over the run.  That gives the left-normed products
    ``((e·s1)·s2)···sk`` of picks, and each lies in the submagma the
    picks generate, so once the members cover the table the picks
    generate it.  After each pick the members are checked closed under
    all products, one C-level gather per member; a product found outside
    joins them and is grown in turn, so the members are exactly the
    submagma that e and the picks generate, on any table.  On an
    associative table the check finds nothing: for members x and
    ``y = ((e·s1)···)·sk``, ``x·y = ((x·s1)···)·sk`` is a member."""
    members, inside, picked = [e], {e}, []
    for g in range(len(t)):
        if g in inside:
            continue
        picked.append(g)
        fresh = {t[x][g] for x in members} - inside
        while fresh:
            inside |= fresh
            members += fresh
            todo = list(fresh)
            while todo:
                row = t[todo.pop()]
                for s in picked:
                    y = row[s]
                    if y not in inside:
                        inside.add(y)
                        members.append(y)
                        todo.append(y)
            take = itemgetter(*members)
            fresh = inside.union(*map(take, map(t.__getitem__, members))) - inside
    return picked


def load_catalog_group(name: str) -> CayleyTable:
    """One of the catalog groups by name (e.g. 'q8' or 'z2xz4')."""
    if name not in CATALOG_NAMES:
        raise InvalidGroup(f"unknown catalog group {name!r}; see CATALOG_NAMES")
    if name in _NONABELIAN_GROUPS:
        return _tabulate(*_NONABELIAN_GROUPS[name], name)
    return _abelian_group([int(factor[1:]) for factor in name.split("x")], name)


def _compose(a: tuple, b: tuple) -> tuple:
    """The permutation a·b, which maps i to a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _is_even(p: tuple) -> bool:
    return sum(x > y for x, y in itertools.combinations(p, 2)) % 2 == 0


def _dihedral(a: tuple, b: tuple) -> tuple:
    """(s, i)(t, j) = (s xor t, i + (-1)^s j mod 4): s is a reflection,
    i a rotation of the square."""
    (s, i), (t, j) = a, b
    return s ^ t, (i - j if s else i + j) % 4


# The sign of u·v for quaternion units u, v in 1, i, j, k (0..3), 1 when
# negative; the unit itself is u xor v (i·j = k, j·i = -k, i·i = -1).
_QUATERNION_SIGN = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))


def _quaternion(a: tuple, b: tuple) -> tuple:
    """(u, s)(v, t) for units u, v and signs s, t (1 when negative)."""
    (u, s), (v, t) = a, b
    return u ^ v, s ^ t ^ _QUATERNION_SIGN[u][v]


# The non-abelian catalog groups: each one's elements, in table order,
# and its product.
_NONABELIAN_GROUPS = {
    "s3": (list(itertools.permutations(range(3))), _compose),
    "d4": (list(itertools.product(range(2), range(4))), _dihedral),
    "q8": (list(itertools.product(range(4), range(2))), _quaternion),
    "a4": (list(filter(_is_even, itertools.permutations(range(4)))), _compose),
}


def _tabulate(elements: list, mul, name: str) -> CayleyTable:
    """The group on ``elements`` under ``mul``, validated: element i is
    ``elements[i]``, ``table[a][b]`` is the index of ``mul(elements[a],
    elements[b])``, and the identity is ``elements[0]``."""
    index = {x: i for i, x in enumerate(elements)}
    table = tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)
    group = CayleyTable(order=len(table), table=table, identity=0, name=name)
    group.validate()
    return group


def _abelian_group(moduli: list[int], name: str = "group") -> CayleyTable:
    """Z/m1 x ... x Z/mk, validated: elements are the tuples in
    lexicographic order, the operation is componentwise addition, and the
    identity is 0.  The table is built one factor at a time: the element
    with index a in the first factors and r in Z/m has index a*m + r, a
    mixed-radix number, so the sum of a*m + r and b*m + s is
    ``table[a][b]*m + (r + s) % m``.  For c = table[a][b], those m
    entries are the block c*m .. c*m + m - 1 rotated left by r: a slice
    of that block written twice."""
    table, concat = [(0,)], itertools.chain.from_iterable
    for m in moduli:
        doubled = [tuple(range(c * m, c * m + m)) * 2 for c in range(len(table))]
        table = [tuple(concat([doubled[c][r : r + m] for c in row])) for row in table for r in range(m)]
    group = CayleyTable(order=len(table), table=tuple(table), identity=0, name=name)
    group.validate()
    return group


def _extend(c: CayleyTable, hs: list[int], g: int) -> int:
    """The subgroup <h, g> as a bitmask, for the subgroup h given by its
    member list ``hs``.

    The result is grown as a union of left cosets of ``h``, starting from
    ``h`` itself.  Each member ``x`` is multiplied by ``g`` once; when
    ``x·g`` lies outside, the whole coset ``(x·g)h`` joins and its members
    are multiplied in turn.  That is O(|<h, g>|) table reads.

    Why this is <h, g>: the result S contains e, is a union of left cosets
    of h and so is closed under right multiplication by h, and is closed
    under right multiplication by g.  Every element of the finite group
    <h, g> is a product of elements of h and of g (inverses are positive
    powers), so S contains <h, g>; and every member of S is such a product,
    so S lies inside <h, g>.
    """
    t = c.table
    members = sum(map((1).__lshift__, hs))
    todo = hs.copy()
    while todo:
        y = t[todo.pop()][g]
        if not members >> y & 1:
            # the coset yh, disjoint from the cosets in members: its
            # elements are distinct, so their sum is their union
            coset = list(map(t[y].__getitem__, hs))
            members |= sum(map((1).__lshift__, coset))
            todo += coset
    return members


def _cyclic_generators(c: CayleyTable) -> list[tuple[int, ...]]:
    """``gens[g]``, the generators of the cyclic subgroup <g>: the powers
    g^j with j prime to the order of g.  Each cyclic subgroup's powers are
    walked once, and its generators share the tuple."""
    t, e = c.table, c.identity
    gens = [()] * c.order
    for g in range(c.order):
        if gens[g]:
            continue
        powers = [g]
        while powers[-1] != e:
            powers.append(t[powers[-1]][g])
        order = len(powers)  # powers[j - 1] is g^j, and g^order is e
        generators = tuple(x for j, x in enumerate(powers, 1) if math.gcd(j, order) == 1)
        for x in generators:
            gens[x] = generators
    return gens


def subgroups(c: CayleyTable) -> list[int]:
    """All subgroups as element bitmasks: from the trivial subgroup, extend
    each subgroup h found by the elements outside it, once per class.

    The class of g is the union of the left cosets ``g'h`` over the
    generators g' of <g>.  Each of its elements gives the same extension
    ``<h, g>``: <g'> = <g>, and for k in h, ``g'k`` and g' generate the
    same subgroup together with h.  So every extension <h, g> is still
    found, and on a cyclic group the trivial subgroup is extended once
    per cyclic subgroup instead of once per element.
    """
    if c.order > GROUP_ORDER_CAP:
        raise InvalidGroup(_ORDER_CAP_MESSAGE)
    gens = _cyclic_generators(c)
    trivial = 1 << c.identity
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            hs = list(bits(h))
            tried = h
            for g in range(c.order):
                if tried >> g & 1:
                    continue
                for x in gens[g]:
                    if not tried >> x & 1:
                        row = c.table[x]
                        for k in hs:
                            tried |= 1 << row[k]
                extended = _extend(c, hs, g)
                if extended not in found:
                    found.add(extended)
                    nxt.append(extended)
        frontier = nxt
    return sorted(found, key=lambda m: (popcount(m), m))


def subgroup_lattice(c: CayleyTable) -> FiniteLattice:
    """Subgroup lattice ordered by inclusion; the meet is intersection.

    ``sets[i]`` is the element bitmask of subgroup ``i``.
    """
    points = tuple(str(g) for g in range(c.order))
    return inclusion_lattice(subgroups(c), points, f"subgroup_lattice({c.name})")


@dataclass(frozen=True)
class FrattiniResult:
    lattice: FiniteLattice
    index: int
    members: tuple


def frattini(c: CayleyTable) -> FrattiniResult:
    """Frattini subgroup computed two independent ways and compared.

    Route one intersects the maximal proper subgroups directly on element
    bitmasks; route two takes the residual derivative of the top of the
    subgroup lattice.  The two must agree exactly.
    """
    lat = subgroup_lattice(c)
    subs = lat.sets
    whole = subs[lat.top]
    maximal_masks = [
        subs[i]
        for i in bits(lat.strictly_below(lat.top))
        if lat.down_set(lat.top) & lat.up_set(i) == mask_of([i, lat.top])
    ]
    direct = whole
    for m in maximal_masks:
        direct &= m
    mu = residual_derivative(lat, lat.top)
    if subs[mu] != direct:
        raise InvalidGroup(
            f"{c.name}: derivative route {sorted(bits(subs[mu]))} disagrees "
            f"with maximal-subgroup intersection {sorted(bits(direct))}"
        )
    return FrattiniResult(lattice=lat, index=mu, members=tuple(bits(direct)))


# -- rings Z/n ----------------------------------------------------------------


def divisors(n: int) -> list[int]:
    """The divisors of a positive n, ascending, from its factorization;
    none for n below 1."""
    return _divisors(_factorization(n)) if n > 0 else []


def _factorization(n: int) -> list[tuple[int, int]]:
    """The pairs (p, e), p ascending, with p^e the largest power of the
    prime p dividing n, by trial division."""
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _divisors(factors: list[tuple[int, int]]) -> list[int]:
    """The divisors of the number with this factorization, ascending."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def radical(n: int) -> int:
    """Product of the distinct primes dividing n."""
    return math.prod(p for p, _ in _factorization(n))


def _divisibility_rows(n: int) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """The divisors of n in ascending order, a linear extension of
    divisibility, with their up and down rows and their lower and upper
    covers under divisibility, all from one factorization of n.

    d*p covers d for each prime p with d*p dividing n, and these are all
    the covers: any divisor strictly between d and a multiple m of d is
    d times a proper divisor of m/d, so only a prime m/d leaves none.  The
    up row of d is its bit ORed with the up rows of its upper covers,
    built in reverse index order; the down row is its bit ORed with the
    down rows of its lower covers, the d/p, built in index order."""
    factors = _factorization(n)
    primes = [p for p, _ in factors]
    divs = _divisors(factors)
    at = {d: i for i, d in enumerate(divs)}
    size = len(divs)
    up, down, lower, upper = [0] * size, [0] * size, [0] * size, [0] * size
    below = [[] for _ in divs]  # below[j]: the indices of the d/p
    for i in range(size - 1, -1, -1):
        d, row, covers = divs[i], 1 << i, 0
        for p in primes:
            j = at.get(d * p)
            if j is not None:
                row |= up[j]
                covers |= 1 << j
                below[j].append(i)
        up[i], upper[i] = row, covers
    for j, covered in enumerate(below):
        row, covers = 1 << j, 0
        for i in covered:
            row |= down[i]
            covers |= 1 << i
        down[j], lower[j] = row, covers
    return divs, up, down, lower, upper


def ideal_lattice_zn(n: int) -> FiniteLattice:
    """Ideals of Z/n are dZ/n for d | n, ordered by inclusion.

    dZ/n is contained in eZ/n iff e divides d, so the top is (1) = R and
    the bottom is (n) = {0}.  Element ``i`` is the ideal generated by
    ``divisors(n)[i]``.  The ideal order is reverse divisibility, so the
    rows and covers of ``_divisibility_rows`` swap: its up rows are the
    down rows of divisibility, and the ideals an ideal covers are the
    d*p, the upper covers of d under divisibility.
    """
    if not 2 <= n <= ZN_CAP:
        raise TooLarge(f"n must be between 2 and {ZN_CAP}")
    divs, below, above, _, covers = _divisibility_rows(n)
    names = tuple(f"({d})" for d in divs)
    poset = _hasse_poset(names, above, below, covers)
    return as_lattice(poset, provenance=f"ideal_lattice_zn({n})")


@dataclass(frozen=True)
class JacobsonResult:
    lattice: FiniteLattice
    index: int
    generator: int


def jacobson_zn(n: int) -> JacobsonResult:
    """Jacobson radical of Z/n via the derivative, checked against rad(n)."""
    lat = ideal_lattice_zn(n)
    gens = divisors(n)
    mu = residual_derivative(lat, lat.top)
    expected = radical(n)
    if gens[mu] != expected:
        raise AssertionError(
            f"Z/{n}: derivative gives ({gens[mu]}), radical arithmetic gives ({expected})"
        )
    return JacobsonResult(lattice=lat, index=mu, generator=gens[mu])


# -- order-theoretic generators ------------------------------------------------


def chain(k: int) -> FiniteLattice:
    """The k-element chain 0 < 1 < ... < k-1.  Its rows are arithmetic:
    ``up[i]`` holds the bits i..k-1 and ``down[i]`` the bits 0..i, and
    the one lower cover of i > 0 is i-1."""
    if not 1 <= k <= LATTICE_SIZE_CAP:
        raise TooLarge(f"chain size must be between 1 and {LATTICE_SIZE_CAP}")
    full = (1 << k) - 1
    up = [full >> i << i for i in range(k)]
    down = [(2 << i) - 1 for i in range(k)]
    covers = [0] + [1 << i for i in range(k - 1)]
    poset = _hasse_poset(tuple(map(str, range(k))), up, down, covers)
    return as_lattice(poset, provenance=f"chain({k})")


def antichain_poset(k: int, prefix: str = "a") -> FinitePoset:
    names = tuple(f"{prefix}{i}" for i in range(k))
    return build_poset(names, [], "covers")


def downset_lattice(p: FinitePoset, provenance: str | None = None) -> FiniteLattice:
    """Lattice of downward-closed subsets of a poset, ordered by inclusion."""
    downsets = _downsets(p.down)
    if len(downsets) > LATTICE_SIZE_CAP:
        raise TooLarge(f"downset lattice exceeds the size cap {LATTICE_SIZE_CAP}")
    return inclusion_lattice(downsets, p.names, provenance or f"downset(poset n={p.n})")


def _downsets(rows: tuple[int, ...]) -> list[int]:
    """The point sets closed under the rows (m holds ``rows[i]`` whenever
    it holds i), as bitmasks, ascending.  On a poset's down rows these
    are its downsets; on a topology's closure rows, its closed sets."""
    if len(rows) > 20:
        raise TooLarge("closed-set enumeration is capped at 20 points")
    # closure[m] is the OR of the rows of the members of m: the masks
    # with bit i are those without it, each ORed with rows[i].
    closure = [0]
    for row in rows:
        closure += [c | row for c in closure]
    return [m for m, c in enumerate(closure) if c & ~m == 0]


def boolean(k: int) -> FiniteLattice:
    """The Boolean lattice of subsets of a k-set."""
    if not 0 <= k <= 12:
        raise TooLarge("boolean exponent must be between 0 and 12 (2^12 elements)")
    lat = downset_lattice(antichain_poset(k), provenance=f"boolean({k})")
    return lat


def divisor(n: int) -> FiniteLattice:
    """Divisors of n under divisibility; meet is gcd, join is lcm.  The
    rows and covers come from ``_divisibility_rows``."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > ZN_CAP:
        raise TooLarge(f"n must be at most {ZN_CAP}")
    divs, up, down, covers, _ = _divisibility_rows(n)
    if len(divs) > LATTICE_SIZE_CAP:
        raise TooLarge("too many divisors")
    poset = _hasse_poset(tuple(map(str, divs)), up, down, covers)
    return as_lattice(poset, provenance=f"divisor({n})")


def product(a: FiniteLattice, b: FiniteLattice) -> FiniteLattice:
    """Componentwise-ordered product lattice; element (i, j) has index
    ``i * b.n + j``.  Its rows and its Hasse diagram come from the
    factors': (i, j) covers (i', j) for each i' that i covers, and (i, j')
    for each j' that j covers."""
    if a.n * b.n > LATTICE_SIZE_CAP:
        raise TooLarge(f"product exceeds the size cap {LATTICE_SIZE_CAP}")
    names = tuple(f"({x},{y})" for x in a.names for y in b.names)

    def spread(rows):
        # spread(m) has bit k*b.n for each k in m.  A row of b is below
        # 2^b.n, so spread(m) * row is that row shifted into each of those
        # blocks, without carries, and spread(m) << j is bit j of each.
        return [sum(1 << (k * b.n) for k in bits(m)) for m in rows]

    up = [s * r for s in spread(a.poset.up) for r in b.poset.up]
    down = [s * r for s in spread(a.poset.down) for r in b.poset.down]
    covers = [
        s << j | c << (i * b.n)
        for i, s in enumerate(spread(a.poset.lower_covers))
        for j, c in enumerate(b.poset.lower_covers)
    ]
    poset = _hasse_poset(names, up, down, covers)
    return as_lattice(
        poset, provenance=f"product({a.provenance},{b.provenance})"
    )


def random_poset(rand: random.Random, size: int) -> FinitePoset:
    """Random poset: random upper-triangular covers, then closure."""
    names = tuple(f"p{i}" for i in range(size))
    prob = rand.uniform(0.15, 0.7)
    pairs = [
        (names[i], names[j])
        for i in range(size)
        for j in range(i + 1, size)
        if rand.random() < prob
    ]
    return build_poset(names, pairs, "leq")


def random_distributive(seed: int, target_size: int) -> FiniteLattice:
    """Seeded random downset lattice with at most target_size elements.

    target_size is only a cap: the poset has 0-9 points, drawn
    uniformly, so target_size=50 mostly gives lattices under 16
    elements.  Distributive by construction (and the flag is
    recomputed, not assumed).  Identical seeds give identical lattices.
    """
    if target_size > LATTICE_SIZE_CAP:
        raise TooLarge(f"target size exceeds {LATTICE_SIZE_CAP}")
    if target_size < 1:
        raise ValueError("target size must be positive")
    rand = random.Random(seed)
    while True:
        size = rand.randint(0, 9)
        p = random_poset(rand, size)
        downsets = _downsets(p.down)
        if len(downsets) <= target_size:  # the empty downset is always one
            break
    lat = inclusion_lattice(downsets, p.names, f"random(seed={seed},size={target_size})")
    if not lat.distributive:
        raise AssertionError("downset lattice must be distributive")
    return lat


# -- generator-spec strings ----------------------------------------------------


def generate(spec: str) -> FiniteLattice:
    """Build a lattice from a spec string.

    Grammar: ``chain:K``, ``boolean:K``, ``divisor:N``, ``zn:N`` (ideal
    lattice), ``random:seed=S,size=T``, ``group:NAME`` or ``group:@file``
    (subgroup lattice), ``downset:@poset.json``, and
    ``product:SPEC|SPEC``.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "chain":
        return chain(int(arg))
    if kind == "boolean":
        return boolean(int(arg))
    if kind == "divisor":
        return divisor(int(arg))
    if kind == "zn":
        return ideal_lattice_zn(int(arg))
    if kind == "random":
        opts = {}
        for kv in arg.split(","):
            key, _, value = kv.partition("=")
            if key in opts or key not in ("seed", "size"):
                why = "repeated" if key in opts else "unknown"
                raise ValueError(f"random spec is random:seed=S,size=T; key {key!r} is {why}")
            opts[key] = value
        for field in ("seed", "size"):
            if field not in opts:
                raise ValueError(f"random spec is random:seed=S,size=T; {field!r} is missing")
        return random_distributive(int(opts["seed"]), int(opts["size"]))
    if kind == "group":
        if arg.startswith("@"):
            with open(arg[1:]) as f:
                table = CayleyTable.from_json_dict(json.load(f), name=arg[1:])
        else:
            table = load_catalog_group(arg.strip().lower())
        return subgroup_lattice(table)
    if kind == "downset":
        if not arg.startswith("@"):
            raise ValueError("downset spec takes a @file.json poset")
        from .lattice import poset_from_json

        with open(arg[1:]) as f:
            return downset_lattice(poset_from_json(json.load(f)))
    if kind == "product":
        left, sep, right = arg.partition("|")
        if not sep:
            raise ValueError("product spec is product:SPEC|SPEC")
        return product(generate(left), generate(right))
    raise ValueError(f"unknown generator kind {kind!r}")


__all__ = [
    "CayleyTable",
    "CATALOG_NAMES",
    "load_catalog_group",
    "subgroups",
    "subgroup_lattice",
    "frattini",
    "FrattiniResult",
    "divisors",
    "radical",
    "ideal_lattice_zn",
    "jacobson_zn",
    "JacobsonResult",
    "chain",
    "boolean",
    "divisor",
    "product",
    "downset_lattice",
    "antichain_poset",
    "random_poset",
    "random_distributive",
    "generate",
]
