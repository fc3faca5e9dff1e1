"""The axiom checks that range over generators, against the full scans
they replaced.

``FinitePoset.verify_axioms`` scans the rows one comparable pair at a
time and compares the down rows with the transpose of the up rows; the
reference below does the comparison one pair at a time, so both name
the same first fault.  ``CayleyTable.validate`` runs Light's
associativity test on a generating set and replays its full scan on a
failure, so the first fault it names is the scan's.  ``_downsets`` and
``_abelian_group`` build their lists by an OR closure over masks and a
product of cyclic tables, and ``_generators`` grows its closure under
right multiplication by the picks.  The references below are the
bodies they replaced.  (Birkhoff's criterion on the join-irreducible
rows is checked against the all-pairs form in ``test_order_core``.)
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from residua.bitset import bits
from residua.errors import CycleDetected, InvalidGroup
from residua.generators import (
    CATALOG_NAMES,
    CayleyTable,
    _abelian_group,
    _downsets,
    _generators,
    load_catalog_group,
    random_poset,
)
from residua.lattice import FinitePoset


def axiom_scan(p: FinitePoset) -> None:
    """Reflexivity, antisymmetry and transitivity, one step per
    comparable pair, then the down rows against the up rows, one pair at
    a time in column order."""
    n, names, up, down = p.n, p.names, p.up, p.down
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
    for j in range(n):
        for i in range(n):
            in_up, in_down = bool(up[i] >> j & 1), bool(down[j] >> i & 1)
            if in_up != in_down:
                rows = "up" if in_up else "down"
                raise CycleDetected(
                    f"down rows are not the transpose of the up rows: {names[i]} <= {names[j]} only in the {rows} rows"
                )


def group_scan(c: CayleyTable) -> None:
    """The group axioms with the O(n^3) associativity scan, as
    ``validate`` checked them before Light's test."""
    n, t, e = c.order, c.table, c.identity
    if len(t) != n or any(len(row) != n for row in t):
        raise InvalidGroup(f"{c.name}: table is not {n}x{n}")
    if any(not 0 <= v < n for row in t for v in row):
        raise InvalidGroup(f"{c.name}: table entry out of range")
    if any(t[e][a] != a or t[a][e] != a for a in range(n)):
        raise InvalidGroup(f"{c.name}: {e} is not an identity")
    for a in range(n):
        if not any(t[a][b] == e for b in range(n)):
            raise InvalidGroup(f"{c.name}: element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            for d in range(n):
                if t[t[a][b]][d] != t[a][t[b][d]]:
                    raise InvalidGroup(f"{c.name}: associativity fails at ({a},{b},{d})")


def abelian_tuples(moduli) -> dict:
    """Z/m1 x ... x Z/mk on its tuples in lexicographic order, each sum
    looked up by its tuple."""
    elems = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))] for b in elems]
        for a in elems
    ]
    return {"order": len(elems), "identity": 0, "table": table}


def downsets_filter(p: FinitePoset) -> list:
    return [m for m in range(1 << p.n) if all(p.down[i] & ~m == 0 for i in bits(m))]


def outcome(check, *args):
    """None, or the type and message of what ``check`` raised."""
    try:
        check(*args)
    except Exception as e:
        return type(e), str(e)
    return None


def closure(t, gens) -> int:
    """Bitmask of the closure of ``gens`` under the product, by products
    of known members until none is new."""
    members = set(gens)
    while True:
        more = {t[a][b] for a in members for b in members} - members
        if not more:
            return sum(1 << m for m in members)
        members |= more


def two_sided_generators(t, e: int) -> list[int]:
    """The greedy generating set with its closure grown by multiplying
    each new member x by every earlier member u and by itself, both ways
    (x·u and u·x), O(n^2) reads: the loop ``_generators`` replaced."""
    members, inside, picked = [e], 1 << e, []
    for g in range(len(t)):
        if inside >> g & 1:
            continue
        picked.append(g)
        inside |= 1 << g
        todo = [g]
        while todo:
            x = todo.pop()
            members.append(x)
            row = t[x]
            for u in members:
                for v in (row[u], t[u][x]):
                    if not inside >> v & 1:
                        inside |= 1 << v
                        todo.append(v)
    return picked


def rows_poset(up, down) -> FinitePoset:
    return FinitePoset(n=len(up), names=tuple("abcdefgh"[: len(up)]), up=tuple(up), down=tuple(down))


# -- references ----------------------------------------------------------------


def test_every_corpus_order_passes_and_keeps_its_covers(lattice_corpus):
    """Every partial order in the corpus, rebuilt by hand from its rows,
    passes the axiom check and reads off the lower covers its
    constructor handed over."""
    for L in lattice_corpus:
        p = L.poset
        assert axiom_scan(p) is None
        fresh = FinitePoset(n=p.n, names=p.names, up=p.up, down=p.down)
        assert fresh.verify_axioms() is None
        assert fresh.lower_covers == p.lower_covers, L.provenance


@st.composite
def order_rows(draw):
    """Up rows that mostly hold their own bit, often transitively closed,
    with down rows that are their transpose, or hold only their own bit
    (which hides every cycle from the antisymmetry test), or are random."""
    n = draw(st.integers(min_value=1, max_value=6))
    up = [draw(st.integers(0, (1 << n) - 1)) | (1 << i if draw(st.integers(0, 9)) else 0) for i in range(n)]
    if draw(st.booleans()):
        for k in range(n):
            up = [row | up[k] if row >> k & 1 else row for row in up]
    kind = draw(st.sampled_from(["transpose", "diagonal", "random"]))
    if kind == "transpose":
        down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    elif kind == "diagonal":
        down = [1 << j for j in range(n)]
    else:
        down = [draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
    return up, down


@settings(max_examples=400, deadline=None)
@given(order_rows())
def test_verify_axioms_matches_the_pair_scan_on_fuzzed_rows(rows):
    p = rows_poset(*rows)
    assert outcome(p.verify_axioms) == outcome(axiom_scan, p)


def test_verify_axioms_matches_the_pair_scan_on_all_rows_up_to_two_elements():
    for n in (1, 2):
        for up in itertools.product(range(1 << n), repeat=n):
            for down in itertools.product(range(1 << n), repeat=n):
                p = rows_poset(up, down)
                assert outcome(p.verify_axioms) == outcome(axiom_scan, p), (up, down)


def test_fixed_rows_reach_every_outcome():
    """The fuzzed outcomes the pair scan can give, on fixed rows: a pass,
    a transitivity fault, and a 2-cycle in the up rows that diagonal down
    rows hide from the antisymmetry test, which the transpose check
    refuses."""
    cases = [
        ((0b011, 0b010), (0b001, 0b011)),
        ((0b011, 0b110, 0b100), (0b001, 0b011, 0b110)),
        ((0b0011, 0b0011, 0b0100, 0b1000), (1, 2, 4, 8)),
    ]
    got = [outcome(rows_poset(*rows).verify_axioms) for rows in cases]
    assert got == [outcome(axiom_scan, rows_poset(*rows)) for rows in cases]
    assert got == [
        None,
        (CycleDetected, "transitivity fails at (a,b,c)"),
        (CycleDetected, "down rows are not the transpose of the up rows: b <= a only in the up rows"),
    ]


def test_down_rows_that_are_not_the_transpose_raise():
    """Down rows that disagree with the up rows raise ``CycleDetected``
    naming a pair on which they disagree: a 2-cycle with diagonal down
    rows, a down row without its own element, and a chain whose top
    down row misses the bottom (its lower covers would read empty)."""
    cases = [
        ((3, 3), (1, 2), "b <= a only in the up rows"),
        ((1,), (0,), "a <= a only in the up rows"),
        ((3, 2), (1, 2), "a <= b only in the up rows"),
        ((1, 2), (3, 2), "b <= a only in the down rows"),
    ]
    for up, down, pair in cases:
        p = rows_poset(up, down)
        want = (CycleDetected, f"down rows are not the transpose of the up rows: {pair}")
        assert outcome(p.verify_axioms) == outcome(axiom_scan, p) == want, (up, down)


def test_catalog_groups_pass_light_test_without_the_replay(monkeypatch):
    def replay(self):
        raise AssertionError(f"{self.name}: Light's test refused a group")

    groups = [load_catalog_group(name) for name in CATALOG_NAMES]
    for g in groups:
        assert group_scan(g) is None
    monkeypatch.setattr(CayleyTable, "_associativity_scan", replay)
    for g in groups:
        g.validate()


def single_entry_mutations(g: CayleyTable):
    """``g`` with one entry changed to each other value, in order."""
    for a, b in itertools.product(range(g.order), repeat=2):
        for v in range(g.order):
            if v != g.table[a][b]:
                rows = [list(row) for row in g.table]
                rows[a][b] = v
                yield CayleyTable(order=g.order, table=tuple(map(tuple, rows)), identity=g.identity, name=g.name)


def small_catalog_groups():
    return [g for g in map(load_catalog_group, CATALOG_NAMES) if g.order <= 12]


def test_generators_each_lie_outside_the_closure_of_the_ones_before():
    """On the catalog groups and on the mutated tables of order at most
    12 that keep the identity and inverses, which ``validate`` tests."""
    tables = [load_catalog_group(name) for name in CATALOG_NAMES]
    for g in small_catalog_groups():
        e = g.identity
        tables += [
            c
            for c in single_entry_mutations(g)
            if all(c.table[e][x] == x == c.table[x][e] and e in c.table[x] for x in range(c.order))
        ]
    for c in tables:
        picked = _generators(c.table, c.identity)
        for k, x in enumerate(picked):
            assert not closure(c.table, [c.identity, *picked[:k]]) >> x & 1, (c.name, c.table, picked)
        assert closure(c.table, [c.identity, *picked]) == (1 << c.order) - 1, (c.name, c.table)


def test_generators_match_the_two_sided_closure():
    """The same picks as the two-sided closure on every catalog group and
    on every single-entry mutation of the catalog tables of order at most
    12 that keeps the identity and inverses, which ``validate`` tests;
    the right closure alone picks differently on 510 of those 6,336."""
    tables = [load_catalog_group(name) for name in CATALOG_NAMES]
    for g in small_catalog_groups():
        e = g.identity
        tables += [
            c
            for c in single_entry_mutations(g)
            if all(c.table[e][x] == x == c.table[x][e] and e in c.table[x] for x in range(c.order))
        ]
    assert len(tables) == len(CATALOG_NAMES) + 6336
    for c in tables:
        assert _generators(c.table, c.identity) == two_sided_generators(c.table, c.identity), (c.name, c.table)


def test_validate_matches_the_triple_scan_on_every_single_entry_mutation():
    """Every catalog table of order at most 12 with one entry changed to
    each other value: the same exception and message, or none."""
    checked = refused_by_associativity = 0
    for g in small_catalog_groups():
        for bad in single_entry_mutations(g):
            got = outcome(bad.validate)
            assert got == outcome(group_scan, bad), (bad.name, bad.table)
            checked += 1
            refused_by_associativity += got is not None and "associativity" in got[1]
    assert checked > 5000 and refused_by_associativity > 500


# -- generated tables and downsets ---------------------------------------------


def test_abelian_tables_match_the_tuple_index_build():
    moduli = [[int(f[1:]) for f in name.split("x")] for name in CATALOG_NAMES if name[0] == "z"]
    assert len(moduli) == 34
    for m in moduli + [[2] * 6, [4] * 3, [8, 8], [64]]:
        assert _abelian_group(m).to_json_dict() == abelian_tuples(m), m


def test_downsets_match_the_filter_on_random_posets():
    for seed in range(200):
        rng = random.Random(seed)
        p = random_poset(rng, rng.randint(0, 9))
        assert _downsets(p.down) == downsets_filter(p), seed
