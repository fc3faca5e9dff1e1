"""Differential tests of the order-row builders against their per-pair
references.

``build_poset`` closes a relation in one topological pass, ``as_lattice``
certifies a lattice on its order rows and builds no table (each is built
on first read, filling the irreducible rows from the order rows, looking
up only the incomparable entries, and gathering every other row from the
rows of two covers), ``chain``, ``divisor`` and ``ideal_lattice_zn`` form
their rows by arithmetic, ``inclusion_lattice`` forms rows from
per-point holder masks and ``product`` shifts the factor rows.  The
references below build the same rows and tables one pair at a time: the
Warshall closure and its transposition, pairwise subset tests, the
``leq``-loop product, the Hasse covers closed by ``build_poset``, and
an ``as_lattice`` that fills both tables
eagerly, looking up every pair.
"""

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residua.generators
import residua.lattice
import residua.topology
from residua.bitset import bits, full_mask
from residua.errors import CycleDetected, NoBottom, NotALattice
from residua.generators import (
    CATALOG_NAMES,
    boolean,
    chain,
    divisor,
    divisors,
    generate,
    ideal_lattice_zn,
    load_catalog_group,
    product,
    subgroup_lattice,
)
from residua.lattice import (
    FiniteLattice,
    FinitePoset,
    _linear_extension,
    as_lattice,
    build_poset,
    inclusion_lattice,
    lattice_from_json,
)
from residua.laws import mutate_entry
from residua.topology import FiniteTopology, closed_set_lattice

from conftest import birkhoff_rows


def warshall_poset(names, pairs) -> FinitePoset:
    """The reflexive-transitive closure by Warshall's loop on bit rows,
    down rows by transposing the up rows, then the axiom scan."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        row_k = up[k]
        bit_k = 1 << k
        for i in range(n):
            if up[i] & bit_k:
                up[i] |= row_k
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    poset = FinitePoset(n=n, names=tuple(names), up=tuple(up), down=tuple(down))
    poset.verify_axioms()
    return poset


def pairwise_inclusion_rows(sets):
    """Up and down rows of sets under inclusion, one subset test per pair."""
    up, down = [], []
    for a in sets:
        u = d = 0
        for j, b in enumerate(sets):
            common = a & b
            if common == a:
                u |= 1 << j
            if common == b:
                d |= 1 << j
        up.append(u)
        down.append(d)
    return tuple(up), tuple(down)


def leq_loop_product_rows(a, b):
    """Up and down rows of the product, one ``leq`` pair per bit."""
    up, down = [], []
    for i in range(a.n):
        for j in range(b.n):
            u = d = 0
            for k in range(a.n):
                for l in range(b.n):
                    if a.leq(i, k) and b.leq(j, l):
                        u |= 1 << (k * b.n + l)
                    if a.leq(k, i) and b.leq(l, j):
                        d |= 1 << (k * b.n + l)
            up.append(u)
            down.append(d)
    return tuple(up), tuple(down)


def eager_tables(p: FinitePoset):
    """Both tables filled together, one pair at a time, join before meet:
    (join, meet, bottom, top), or the first pair's error."""
    n, up, down = p.n, p.up, p.down
    if n == 0:
        raise NoBottom("an empty poset has no bottom")
    up_index = {row: i for i, row in enumerate(up)}
    down_index = {row: i for i, row in enumerate(down)}
    join, meet = [], []
    for i in range(n):
        jrow, mrow = [], []
        for j in range(n):
            k = up_index.get(up[i] & up[j])
            if k is None:
                raise NotALattice(f"{p.names[i]} and {p.names[j]} have no join", pair=(i, j))
            jrow.append(k)
            k = down_index.get(down[i] & down[j])
            if k is None:
                raise NotALattice(f"{p.names[i]} and {p.names[j]} have no meet", pair=(i, j))
            mrow.append(k)
        join.append(tuple(jrow))
        meet.append(tuple(mrow))
    # Every pair has a meet, so the meet of all elements is a bottom.
    return tuple(join), tuple(meet), up_index[full_mask(n)], down_index[full_mask(n)]


def outcome(fn, *args):
    """The result, or the error's type, message and pair."""
    try:
        return fn(*args)
    except (CycleDetected, NotALattice, NoBottom) as e:
        return type(e), str(e), getattr(e, "pair", None)


def lattice_outcome(p):
    def tables(p):
        L = as_lattice(p)
        return L.join, L.meet, L.bottom, L.top

    return outcome(tables, p)


def relation(forward_only: bool):
    """(n, pairs) on elements 0..n-1; with ``forward_only`` every pair
    goes from a lower index to a higher one, so the relation is acyclic."""

    @st.composite
    def draw(draw):
        n = draw(st.integers(0, 8))
        if n == 0:
            return 0, []
        index = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
        if forward_only:
            pairs = [(min(a, b), max(a, b)) for a, b in pairs]
        return n, pairs

    return draw()


def leq_poset(n, pairs):
    """The poset of ``relation``'s (n, pairs) on elements e0..e(n-1)."""
    return build_poset([f"e{i}" for i in range(n)], [(f"e{a}", f"e{b}") for a, b in pairs], "leq")


def compare_with_references(n, pairs):
    names = [f"e{i}" for i in range(n)]
    named = [(names[a], names[b]) for a, b in pairs]
    got = outcome(build_poset, names, named, "leq")
    want = outcome(warshall_poset, names, named)
    assert got == want
    if isinstance(got, FinitePoset):
        assert lattice_outcome(got) == outcome(eager_tables, got)
    return got


@settings(max_examples=200, deadline=None)
@given(relation(forward_only=False))
def test_closure_matches_warshall_on_fuzzed_relations(data):
    """Cycles included: the error names the same two elements."""
    compare_with_references(*data)


@settings(max_examples=200, deadline=None)
@given(relation(forward_only=True))
def test_tables_match_the_eager_pair_loop_on_fuzzed_posets(data):
    """Mostly non-lattices: the error names the same pair, the join
    checked before the meet at each pair."""
    compare_with_references(*data)


def test_fixed_relations_reach_every_outcome():
    """Cycles, missing joins before missing meets and after them, the
    empty poset and lattices all appear, and match the references."""
    cases = [
        (2, [(0, 1), (1, 0)]),
        (5, [(0, 1), (3, 4), (4, 2), (2, 3), (1, 2)]),
        (3, [(0, 2), (1, 2)]),  # two minimal elements: no meet of (0, 1)
        (3, [(0, 1), (0, 2)]),  # two maximal elements: no join of (1, 2)
        (4, [(1, 0), (2, 0), (3, 1), (3, 2), (3, 0)]),
        (0, []),
        (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    ]
    seen = set()
    for n, pairs in cases:
        got = compare_with_references(n, pairs)
        result = lattice_outcome(got) if isinstance(got, FinitePoset) else got
        seen.add(result[0] if isinstance(result[0], type) else "lattice")
        if result[0] is NotALattice:
            seen.add(result[1].split()[-1])
    assert seen == {CycleDetected, NotALattice, NoBottom, "lattice", "join", "meet"}


def test_rows_and_tables_match_the_references_on_the_corpus(lattice_corpus):
    """The composed tables equal the eager pair loop's on the corpus."""
    for L in lattice_corpus:
        covers = [(L.names[i], L.names[j]) for i, j in L.poset.covers()]
        rebuilt = build_poset(L.names, covers, "covers")
        assert rebuilt == warshall_poset(L.names, covers) == L.poset, L.provenance
        assert pairwise_inclusion_rows(L.sets) == (L.poset.up, L.poset.down), L.provenance
        assert eager_tables(L.poset) == (L.join, L.meet, L.bottom, L.top), L.provenance


def test_divisor_and_ideal_covers_give_the_divisibility_order():
    """The Hasse covers d -> d*p close to exactly the divisibility pairs;
    the ideal (d) lies below (e) when e divides d."""
    for n in (1, 2, 12, 60, 97, 720, 5040):
        lattices = [(divisor(n), lambda d, e: e % d == 0)]
        if n >= 2:
            lattices.append((ideal_lattice_zn(n), lambda d, e: d % e == 0))
        for L, below in lattices:
            divs = [int(name.strip("()")) for name in L.names]
            pairs = [(L.names[i], L.names[j]) for i, d in enumerate(divs) for j, e in enumerate(divs) if below(d, e)]
            assert L.poset == warshall_poset(L.names, pairs), L.provenance
            assert eager_tables(L.poset) == (L.join, L.meet, L.bottom, L.top), L.provenance


def covers_construction(kind, n, lattice=True):
    """``chain``, ``divisor`` or ``ideal_lattice_zn`` as ``build_poset``
    builds it from named Hasse covers: i -> i+1, and d -> d*p for each
    prime p (reversed for the ideals, whose order is reverse
    divisibility).  With ``lattice`` False, only the poset."""
    if kind == "chain":
        names = [str(i) for i in range(n)]
        pairs = list(zip(names, names[1:]))
    else:
        divs = divisors(n)
        names = [f"({d})" if kind == "zn" else str(d) for d in divs]
        at = {d: i for i, d in enumerate(divs)}
        primes = [p for p in divs[1:] if all(p % q for q in range(2, p))]
        pairs = [(names[i], names[at[d * p]]) for i, d in enumerate(divs) for p in primes if n % (d * p) == 0]
        if kind == "zn":
            pairs = [(b, a) for a, b in pairs]
    poset = build_poset(names, pairs)
    if not lattice:
        return poset
    return as_lattice(poset, provenance={"zn": "ideal_lattice_zn"}.get(kind, kind) + f"({n})")


def build_workload_numbers():
    """Every N <= 10^6 that the ``build`` workload can draw, at any seed:
    one of its exponent signatures over distinct primes up to 19."""
    out = {720720}
    for signature in ((2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 1, 1, 1), (4, 1, 1, 1, 1),
                      (3, 2, 1, 1, 1), (2, 2, 2, 1, 1), (4, 2, 1, 1, 1), (3, 3, 1, 1, 1)):
        for primes in itertools.permutations((2, 3, 5, 7, 11, 13, 17, 19), len(signature)):
            n = math.prod(p**e for p, e in zip(primes, signature))
            if n <= 10**6:
                out.add(n)
    return sorted(out)


def assert_same_construction(got, want):
    assert (got.poset, got.provenance, got.bottom, got.top) == (want.poset, want.provenance, want.bottom, want.top)
    assert (got.distributive, got.coframe) == (want.distributive, want.coframe), got.provenance
    assert "join" not in vars(got), got.provenance
    assert (got.join, got.meet) == (want.join, want.meet), got.provenance


def test_chain_divisor_and_ideal_rows_equal_the_covers_construction():
    """The arithmetic rows of ``chain``, ``divisor`` and ``ideal_lattice_zn``
    give the lattice that ``build_poset`` closes from the Hasse covers: the
    same names, rows, provenance, bottom, top, distributivity and tables,
    for small n (1, 2, primes and prime powers among them) and the
    ``build`` workload's 720720.  Its other N, over a thousand, are
    compared on the poset, which decides all the rest."""
    for k in range(1, 301):
        assert_same_construction(chain(k), covers_construction("chain", k))
    for n in [*range(1, 2001), 720720]:
        assert_same_construction(divisor(n), covers_construction("divisor", n))
        if n >= 2:
            assert_same_construction(ideal_lattice_zn(n), covers_construction("zn", n))
    for n in build_workload_numbers():
        assert divisor(n).poset == covers_construction("divisor", n, lattice=False), n
        assert ideal_lattice_zn(n).poset == covers_construction("zn", n, lattice=False), n


def test_product_rows_match_the_leq_loop():
    factors = [chain(1), chain(3), boolean(2), divisor(12), subgroup_lattice(load_catalog_group("s3"))]
    for a in factors:
        for b in factors:
            L = product(a, b)
            assert (L.poset.up, L.poset.down) == leq_loop_product_rows(a, b), L.provenance
            assert eager_tables(L.poset) == (L.join, L.meet, L.bottom, L.top), L.provenance


def test_mutated_copies_keep_or_rebuild_the_meet_table():
    """A join-mutated copy builds a clean meet table from the down rows; a
    meet-mutated copy keeps its corrupted rows through later copies."""
    L = divisor(60)
    _, clean_meet, _, _ = eager_tables(L.poset)
    rng = random.Random(5)
    for _ in range(20):
        i, j = rng.randrange(L.n), rng.randrange(L.n)
        value = rng.choice([v for v in L.elements() if v != L.join[i][j]])
        joined = mutate_entry(L, "join", i, j, value)
        assert joined.join[i][j] == value
        assert joined.meet_rows is None and joined.meet == clean_meet and joined.meet_fault is None

        value = rng.choice([v for v in L.elements() if v != L.meet[i][j]])
        met = mutate_entry(L, "meet", i, j, value)
        assert met.meet[i][j] == value and met.meet_fault == (i, j)
        assert met.join == L.join
        for copy in (
            mutate_entry(met, "join", j, i, L.join[j][i]),
            replace(met, bottom=L.top),
            replace(met, join_rows=met.join, meet_rows=met.meet),
        ):
            assert copy.meet == met.meet and copy.meet_fault == (i, j)


def test_join_tables_built_from_the_up_rows_skip_the_fault_scan():
    """``as_lattice`` and ``inclusion_lattice`` return a lattice whose join
    table is built from the up rows on first read, so it has no fault:
    ``join_fault`` is None without building or scanning it.  Every copy
    with its own rows scans them: a join-mutated copy and a ``replace``
    copy with a corrupted table find the fault, and one with its own clean
    rows finds none; a plain ``replace`` copy builds its table too."""
    rng = random.Random(7)
    for L in (chain(5), boolean(3), divisor(60), subgroup_lattice(load_catalog_group("s3"))):
        assert L.join_fault is None and "join" not in vars(L), L.provenance
        i, j = rng.randrange(L.n), rng.randrange(L.n)
        value = rng.choice([v for v in L.elements() if v != L.join[i][j]])
        rows = [list(row) for row in L.join]
        rows[i][j] = value
        copies = [
            replace(L, provenance="copy"),
            mutate_entry(L, "join", i, j, value),
            replace(L, join_rows=L.join, meet_rows=L.meet),
            replace(L, join_rows=tuple(map(tuple, rows))),
        ]
        assert not any("join_fault" in vars(copy) for copy in copies), L.provenance
        assert [copy.join_fault for copy in copies] == [None, (i, j), None, (i, j)], L.provenance


# -- composed tables against the lookup of every pair ----------------------------


def assert_tables_match_the_lookups(L):
    assert (L.join, L.meet, L.bottom, L.top) == eager_tables(L.poset), L.provenance


def build_workload_specs():
    """Every spec of the benchmark's ``build`` workload: the fixed specs,
    the catalog groups, one divisor and one ideal lattice per exponent
    signature (every N of a signature gives the same shape) and the
    seeded random lattices.  Its closed-set items are the Boolean
    lattices of ``discrete_closed_sets``."""
    specs = ["chain:256", "boolean:8", "divisor:720720", "zn:720720", "product:chain:16|chain:16"]
    specs += [f"group:{name}" for name in CATALOG_NAMES]
    signatures = ((2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 1, 1, 1), (4, 1, 1, 1, 1),
                  (3, 2, 1, 1, 1), (2, 2, 2, 1, 1), (4, 2, 1, 1, 1), (3, 3, 1, 1, 1))
    for signature in signatures:
        n = 1
        for p, e in zip((2, 3, 5, 7, 11), signature):
            n *= p**e
        specs += [f"divisor:{n}", f"zn:{n}"]
    specs += [f"random:seed={s},size=200" for s in range(60)]
    return specs


def discrete_closed_sets(points):
    return closed_set_lattice(FiniteTopology.from_subbase(points, [1 << i for i in range(points)]))


def relabeled(L, seed):
    """L read back from JSON with its elements shuffled: index order is
    then rarely a linear extension."""
    doc = L.to_json_dict()
    random.Random(seed).shuffle(doc["elements"])
    return lattice_from_json(doc, provenance=f"{L.provenance}~{seed}")


def test_composed_tables_match_the_lookups_on_every_build_spec():
    """Chains fill every looked-up row from comparable entries alone;
    relabeled, they walk it off index order.  Distributivity, decided on
    the order rows, matches Birkhoff's criterion on the tables."""
    chains = [generate(f"chain:{n}") for n in range(1, 9)]
    lattices = [generate(spec) for spec in build_workload_specs()] + chains
    lattices += [discrete_closed_sets(points) for points in range(1, 9)]
    lattices += [relabeled(L, seed) for L in chains[2:] for seed in range(2)]
    for L in lattices:
        assert_tables_match_the_lookups(L)
        assert L.distributive == birkhoff_rows(L.poset, L.join), L.provenance


def test_composed_tables_match_the_lookups_off_a_linear_extension():
    """Relabeled lattices walk an order by down-row size, and their
    looked-up rows are put back in index order; ideal lattices of Z/n
    list the top first, so their index order runs downwards."""
    bases = [boolean(4), divisor(360), ideal_lattice_zn(60), product(chain(3), boolean(2))]
    bases += [subgroup_lattice(load_catalog_group(name)) for name in ("s3", "d4", "q8", "a4", "z2xz2xz2")]
    off = 0
    for L in bases + [relabeled(L, seed) for L in bases for seed in range(3)]:
        off += _linear_extension(L.poset) != range(L.n)
        assert_tables_match_the_lookups(L)
    assert off >= 12


def test_composed_tables_at_one_and_two_elements():
    """A single looked-up row put back in index order stays a tuple."""
    one = chain(1)
    assert (one.join, one.meet, one.bottom, one.top) == (((0,),), ((0,),), 0, 0)
    downward = as_lattice(build_poset(["top", "bottom"], [("bottom", "top")]))
    for L in (chain(2), downward):
        assert_tables_match_the_lookups(L)
        assert all(isinstance(row, tuple) for row in L.join + L.meet)
    assert (downward.join, downward.meet) == (((0, 0), (0, 1)), ((0, 1), (1, 1)))


@st.composite
def random_posets(draw):
    """Random orders on up to 8 elements, relabeled, with a bottom added
    or not and a top added or not: lattices and non-lattices of every
    kind, in index orders that are or are not linear extensions."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    names = [f"e{i}" for i in range(n)]
    if draw(st.booleans()):
        pairs += [(n, i) for i in range(n)]
        names.append("bot")
    if draw(st.booleans()):
        pairs += [(i, len(names)) for i in range(len(names))]
        names.append("top")
    relation = [(names[a], names[b]) for a, b in pairs]
    elements = draw(st.permutations(names))
    return build_poset(elements, relation, "leq")


def seeded_poset(seed):
    """A random order on 0-9 elements, with a bottom and a top added or
    not, in a shuffled index order."""
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    names = [f"e{i}" for i in range(n)]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))] if n else []
    relation = [(names[min(a, b)], names[max(a, b)]) for a, b in pairs if a != b]
    if n and rng.random() < 0.5:
        relation += [("bot", x) for x in names]
        names.append("bot")
    if n and rng.random() < 0.5:
        relation += [(x, "top") for x in names]
        names.append("top")
    rng.shuffle(names)
    return build_poset(names, relation, "leq")


def test_composed_tables_match_the_lookups_on_seeded_posets():
    """On 20,000 seeded posets ``as_lattice`` gives the lookup of every
    pair's outcome: the same tables, or the same exception class, pair
    and message.  Every outcome class appears."""
    seen = {}
    for seed in range(20_000):
        p = seeded_poset(seed)
        got = lattice_outcome(p)
        assert got == outcome(eager_tables, p), seed
        kind = "lattice" if isinstance(got[0], tuple) else (got[0], got[1].split()[-1])
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"lattice", (NoBottom, "bottom"), (NotALattice, "join"), (NotALattice, "meet")}
    assert min(seen.values()) >= 1_000, seen


@settings(max_examples=300, deadline=None)
@given(random_posets())
def test_composed_join_refuses_exactly_what_the_lookups_refuse(p):
    """``as_lattice`` raises when and only when looking up every pair
    finds a gap or no bottom, with the same exception, pair and
    message, and on a lattice builds the same tables."""
    assert lattice_outcome(p) == outcome(eager_tables, p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_posets(), relation(forward_only=True).map(lambda d: leq_poset(*d))))
def test_the_certificate_builds_no_table_and_refuses_what_the_lookups_refuse(p):
    """``as_lattice`` certifies on the order rows: it refuses exactly the
    posets that looking up every pair refuses, with the same exception,
    pair and message, and on a lattice it builds neither table; the
    tables read later are the lookups'."""
    got, want = outcome(as_lattice, p), outcome(eager_tables, p)
    if isinstance(got, FiniteLattice):
        assert "join" not in vars(got) and "meet" not in vars(got)
        got = got.join, got.meet, got.bottom, got.top
    assert got == want


def test_copies_scan_their_own_tables_in_composed_and_looked_up_rows():
    """A copy never inherits the proof that the composed tables have no
    fault.  On lattices built along index order and off it, an entry is
    changed in a gathered row (two lower or upper covers) and in a
    looked-up row: the join-mutated copy finds its join fault and builds
    a clean meet table from the down rows, the meet-mutated copy finds
    its meet fault and keeps a clean join table, and a ``replace`` copy
    with a changed join table finds the fault too."""
    rng = random.Random(11)
    for L in (boolean(4), ideal_lattice_zn(360), relabeled(divisor(60), 1), relabeled(boolean(3), 2)):
        _, clean_meet, _, _ = eager_tables(L.poset)
        lower, upper = L.poset.lower_covers, L.poset.upper_covers
        for table, covers in (("join", lower), ("meet", upper)):
            gathered = [x for x in L.elements() if covers[x].bit_count() >= 2]
            looked_up = [x for x in L.elements() if covers[x].bit_count() == 1]
            for i in (rng.choice(gathered), rng.choice(looked_up)):
                j = rng.randrange(L.n)
                value = rng.choice([v for v in L.elements() if v != getattr(L, table)[i][j]])
                copy = mutate_entry(L, table, i, j, value)
                if table == "join":
                    assert copy.join_fault == (i, j), (L.provenance, i, j)
                    assert copy.meet_rows is None and copy.meet == clean_meet and copy.meet_fault is None
                    rows = [list(row) for row in L.join]
                    rows[i][j] = value
                    assert replace(L, join_rows=tuple(map(tuple, rows))).join_fault == (i, j)
                else:
                    assert copy.meet_fault == (i, j) and copy.join == L.join and copy.join_fault is None
                    assert mutate_entry(copy, "join", j, i, L.join[j][i]).meet_fault == (i, j)


def test_the_axiom_check_keeps_the_hasse_diagram(lattice_corpus):
    """``upper_covers`` holds the minimal elements strictly above each
    element, and ``lower_covers`` is its transpose.  A poset made without
    the check runs it on first read, and rows that are no partial order
    raise there as in ``verify_axioms``."""
    for L in lattice_corpus[:120]:
        p = L.poset
        want = tuple(
            sum(1 << y for y in bits(p.up[x] & ~(1 << x)) if p.up[x] & p.down[y] == (1 << x) | (1 << y))
            for x in range(p.n)
        )
        assert p.upper_covers == want, L.provenance
        assert p.lower_covers == tuple(sum(1 << x for x in range(p.n) if want[x] >> y & 1) for y in range(p.n))
        fresh = FinitePoset(n=p.n, names=p.names, up=p.up, down=p.down)
        assert (fresh.lower_covers, fresh.upper_covers) == (p.lower_covers, p.upper_covers)
    cyclic = FinitePoset(n=2, names=("a", "b"), up=(3, 3), down=(1, 2))
    for read in (lambda: cyclic.upper_covers, lambda: cyclic.lower_covers, cyclic.verify_axioms):
        assert outcome(read)[:2] == (
            CycleDetected,
            "down rows are not the transpose of the up rows: b <= a only in the up rows",
        )
    assert "upper_covers" not in vars(cyclic) and "lower_covers" not in vars(cyclic)


def pairwise_inclusion_lattice(sets, point_names, provenance):
    """The inclusion lattice by its definition: each name spelled point by
    point, the rows by one subset test per pair, then the axiom check and
    the certificate."""
    sets = tuple(sorted(sets, key=lambda m: (m.bit_count(), m)))
    names = tuple(
        "{" + ",".join(name for q, name in enumerate(point_names) if m >> q & 1) + "}" for m in sets
    )
    up, down = pairwise_inclusion_rows(sets)
    poset = FinitePoset(n=len(sets), names=names, up=up, down=down)
    poset.verify_axioms()
    return replace(as_lattice(poset, provenance=provenance), sets=sets)


def inclusion_outcome(build, args):
    """Everything the lattice is built from, or the error's type, message
    and pair."""
    try:
        L = build(*args)
    except (CycleDetected, NotALattice, NoBottom) as e:
        return type(e), str(e), getattr(e, "pair", None)
    p = L.poset
    return L.sets, p.names, p.up, p.down, p.covers(), L.distributive, L.bottom, L.top, L.provenance


def test_inclusion_rows_match_the_pairwise_construction(lattice_corpus, monkeypatch):
    """Rows, names, sets, covers, the distributive flag and the
    ``NotALattice`` witnesses equal the pairwise construction's, on the
    corpus's Moore families, ``boolean:0`` to ``boolean:8``, the catalog
    subgroup lattices, closed-set lattices of 1 to 8 points and seeded
    families that are no lattice."""
    calls = []

    def spy(*args):
        calls.append(args)
        return inclusion_lattice(*args)

    monkeypatch.setattr(residua.generators, "inclusion_lattice", spy)
    monkeypatch.setattr(residua.topology, "inclusion_lattice", spy)
    for k in range(9):
        boolean(k)
    for name in CATALOG_NAMES:
        subgroup_lattice(load_catalog_group(name))
    rng = random.Random(38)
    for points in range(1, 9):
        closed_set_lattice(FiniteTopology.from_subbase(points, [1 << i for i in range(points)]))
        for _ in range(5):
            subbase = [rng.getrandbits(points) for _ in range(rng.randint(1, points))]
            closed_set_lattice(FiniteTopology.from_subbase(points, subbase))
    assert len(calls) == 9 + len(CATALOG_NAMES) + 8 * 6
    moore = [L for L in lattice_corpus if L.provenance.startswith("moore#")]
    assert len(moore) == 600
    calls += [(L.sets, [f"p{i}" for i in range(L.sets[-1].bit_length())], L.provenance) for L in moore]
    for k in range(300):
        points = rng.randint(3, 6)
        family = {rng.getrandbits(points) for _ in range(rng.randint(2, 9))}
        calls.append((family, [f"p{i}" for i in range(points)], f"family#{k}"))
    witnesses = set()
    for args in calls:
        got = inclusion_outcome(inclusion_lattice, args)
        assert got == inclusion_outcome(pairwise_inclusion_lattice, args), args[2]
        if got[0] is NotALattice:
            witnesses.add(got[1].split()[-1])
    assert witnesses == {"join", "meet"}


def test_inclusion_lattice_refuses_bad_sets_before_building_rows(monkeypatch):
    """A negative mask, a point past the names and a repeated set each
    raise ``ValueError`` naming the set, checked in that order, before
    any row is built."""
    built = []
    monkeypatch.setattr(residua.lattice, "FinitePoset", lambda **rows: built.append(rows))
    cases = [
        (([0, 4], ["a", "b"]), "inclusion_lattice: set 0b100 holds point 2, but only 2 points are named"),
        (
            ([0, 1, 3, 1 << 70], ["a", "b"]),
            f"inclusion_lattice: set {bin(1 << 70)} holds point 70, but only 2 points are named",
        ),
        (([0, 1, 1], ["a", "b"]), "inclusion_lattice: set {a} is given twice"),
        (([3, 0, 3, 1, 1], ["a", "b"]), "inclusion_lattice: set {a} is given twice"),
        (([0, -1], ["a"]), "inclusion_lattice: set -1 is a negative mask"),
        (([4, -2, -2], ["a"]), "inclusion_lattice: set -2 is a negative mask"),
        (([0, 5, 5], ["a", "b"]), "inclusion_lattice: set 0b101 holds point 2, but only 2 points are named"),
    ]
    for (sets, names), message in cases:
        with pytest.raises(ValueError) as info:
            inclusion_lattice(sets, names, "x")
        assert str(info.value) == message
    assert built == []
