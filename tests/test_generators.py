import itertools
import json
import math
import os
import time

import pytest

import residua.generators

from residua.bitset import bits, popcount
from residua.errors import InvalidGroup, TooLarge
from residua.generators import (
    CATALOG_NAMES,
    GROUP_ORDER_CAP,
    ZN_CAP,
    CayleyTable,
    antichain_poset,
    boolean,
    chain,
    divisor,
    divisors,
    downset_lattice,
    frattini,
    generate,
    ideal_lattice_zn,
    jacobson_zn,
    load_catalog_group,
    product,
    radical,
    random_distributive,
    random_poset,
    subgroup_lattice,
    subgroups,
)
from residua.generators import _extend
from residua.lattice import inclusion_lattice
from residua.laws import all_pass, run_all
from residua.topology import FiniteTopology, closed_set_lattice
import random


def brute_force_subgroups(c: CayleyTable):
    """All subsets closed under the product: the independent oracle."""
    out = set()
    for mask in range(1, 1 << c.order):
        members = list(bits(mask))
        if c.identity not in members:
            continue
        if all(c.mul(a, b) in members for a in members for b in members):
            out.add(mask)
    return sorted(out, key=lambda m: (popcount(m), m))


def closure_reference(c: CayleyTable, seed_mask: int) -> int:
    """Closure of a nonempty subset under the product, by multiplying every
    new member with every member on both sides: the slow twin of
    ``_extend``."""
    members = seed_mask | 1 << c.identity
    frontier = list(bits(members))
    while frontier:
        nxt = []
        for a in frontier:
            for b in bits(members):
                for prod in (c.mul(a, b), c.mul(b, a)):
                    if not members >> prod & 1:
                        members |= 1 << prod
                        nxt.append(prod)
        frontier = nxt
    return members


def s4_table() -> CayleyTable:
    """S4 from permutation composition: elements are the permutations of
    range(4) in lexicographic order, ``a·b`` applies b first, then a."""
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(4))] for b in perms] for a in perms]
    return CayleyTable.from_json_dict(
        {"order": 24, "identity": index[(0, 1, 2, 3)], "table": table}, name="s4"
    )


def cyclic_subgroups_oracle(c: CayleyTable):
    """For cyclic groups only: subgroups are single-generator closures."""
    out = set()
    for g in range(c.order):
        members = {c.identity}
        cur = g
        while cur not in members:
            members.add(cur)
            cur = c.mul(cur, g)
        out.add(sum(1 << m for m in members))
    return sorted(out, key=lambda m: (popcount(m), m))


def test_catalog_complete_and_valid(monkeypatch):
    """Every catalog group validates and equals its own Cayley JSON read
    back, the generated abelian tables included, which are validated as
    they are built."""
    assert len(CATALOG_NAMES) == 38
    for name in CATALOG_NAMES:
        g = load_catalog_group(name)
        g.validate()
        assert g == CayleyTable.from_json_dict(g.to_json_dict(), name=name), name
    assert load_catalog_group("z12").order == 12
    assert load_catalog_group("q8").order == 8
    with pytest.raises(InvalidGroup):
        load_catalog_group("nosuch")
    real = CayleyTable.validate
    checked = []
    monkeypatch.setattr(CayleyTable, "validate", lambda g: checked.append(g.name) or real(g))
    assert load_catalog_group("z2xz4").name == "z2xz4" and checked == ["z2xz4"]


FIXTURES = os.path.join(os.path.dirname(__file__), "data", "groups")


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4"])
def test_nonabelian_catalog_groups_equal_their_fixtures(name, monkeypatch):
    """s3, d4, q8 and a4 are built in code, validated once, and equal the
    Cayley JSON fixture of the same name entry for entry."""
    real = CayleyTable.validate
    checked = []
    monkeypatch.setattr(CayleyTable, "validate", lambda g: checked.append(g.name) or real(g))
    g = load_catalog_group(name)
    with open(os.path.join(FIXTURES, f"{name}.json")) as f:
        doc = json.load(f)
    assert checked == [name]
    assert (g.name, g.order, g.identity) == (name, doc["order"], doc["identity"])
    assert [list(row) for row in g.table] == doc["table"]


def test_invalid_group_rejected():
    with pytest.raises(InvalidGroup):
        CayleyTable.from_json_dict({"order": 2, "identity": 0, "table": [[0, 1], [1, 1]]})


def test_subgroups_match_brute_force_small():
    for name in ["z1", "z4", "z6", "z8", "s3", "q8", "d4", "z2xz4", "z2xz2xz2"]:
        g = load_catalog_group(name)
        assert subgroups(g) == brute_force_subgroups(g), name


def assert_extend_matches_closure_reference(c: CayleyTable):
    for h in subgroups(c):
        for g in range(c.order):
            assert _extend(c, list(bits(h)), g) == closure_reference(c, h | 1 << g), (h, g)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_extend_matches_closure_reference(name):
    assert_extend_matches_closure_reference(load_catalog_group(name))


def test_s4_subgroups_and_frattini():
    s4 = s4_table()
    assert_extend_matches_closure_reference(s4)
    subs = subgroups(s4)
    assert len(subs) == 30
    assert sorted(popcount(m) for m in subs) == (
        [1] + [2] * 9 + [3] * 4 + [4] * 7 + [6] * 4 + [8] * 3 + [12, 24]
    )
    assert frattini(s4).members == (s4.identity,)


def test_subgroups_match_single_generator_oracle_for_cyclic():
    for n in (15, 24, 25, 32):
        g = load_catalog_group(f"z{n}")
        assert subgroups(g) == cyclic_subgroups_oracle(g)
        assert len(subgroups(g)) == len(divisors(n))


def coset_subgroups_reference(c: CayleyTable):
    """The subgroups by extending each subgroup h found by one element of
    every left coset gh outside h: the loop ``subgroups`` ran before it
    took one element per generator class."""
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
                for k in hs:
                    tried |= 1 << c.mul(g, k)
                extended = residua.generators._extend(c, hs, g)
                if extended not in found:
                    found.add(extended)
                    nxt.append(extended)
        frontier = nxt
    return sorted(found, key=lambda m: (popcount(m), m))


def abelian_table(moduli) -> CayleyTable:
    name = "x".join(f"z{m}" for m in moduli)
    return residua.generators._abelian_group(list(moduli), name)


def seeded_abelian_tables(count, seed=38):
    """Distinct tables of Z/m1 x ... x Z/mk of order at most 64."""
    rng = random.Random(seed)
    drawn = {}
    while len(drawn) < count:
        moduli = [rng.randint(2, 9)]
        while rng.random() < 0.6 and math.prod(moduli) * 2 <= GROUP_ORDER_CAP:
            moduli.append(rng.randint(2, GROUP_ORDER_CAP // math.prod(moduli)))
        drawn.setdefault(tuple(moduli), None)
    return [abelian_table(moduli) for moduli in drawn]


ORDER_64_MODULI = [(2,) * 6, (2, 2, 4, 4), (4, 4, 4), (8, 8), (64,)]


def test_subgroups_match_the_coset_loop():
    groups = [load_catalog_group(name) for name in CATALOG_NAMES]
    groups += [abelian_table(m) for m in ORDER_64_MODULI] + seeded_abelian_tables(20)
    groups.append(s4_table())
    for c in groups:
        assert subgroups(c) == coset_subgroups_reference(c), c.name


def test_subgroups_extend_once_per_generator_class(monkeypatch):
    """On a cyclic group of prime order every element but e generates it:
    one extension, where the coset loop makes one per element.  On Z2^6
    each class is one coset, and no more extensions are made than by the
    coset loop."""
    calls = []
    extend = residua.generators._extend
    monkeypatch.setattr(residua.generators, "_extend", lambda *args: calls.append(args) or extend(*args))

    def extensions(fn, c):
        calls.clear()
        fn(c)
        return len(calls)

    z31 = load_catalog_group("z31")
    assert extensions(subgroups, z31) <= 2 < extensions(coset_subgroups_reference, z31) == 30
    z64 = abelian_table((64,))
    assert extensions(subgroups, z64) < extensions(coset_subgroups_reference, z64)
    z2e6 = abelian_table((2,) * 6)
    assert extensions(subgroups, z2e6) <= extensions(coset_subgroups_reference, z2e6)


def test_z4_subgroup_chain():
    lat = subgroup_lattice(load_catalog_group("z4"))
    assert lat.n == 3
    assert [sorted(bits(m)) for m in lat.sets] == [[0], [0, 2], [0, 1, 2, 3]]


def test_q8_has_six_subgroups_s3_structure():
    q8 = load_catalog_group("q8")
    subs = subgroups(q8)
    assert len(subs) == 6
    assert sorted(popcount(m) for m in subs) == [1, 2, 4, 4, 4, 8]
    s3 = load_catalog_group("s3")
    assert sorted(popcount(m) for m in subgroups(s3)) == [1, 2, 2, 2, 3, 6]
    a4 = load_catalog_group("a4")
    assert len(subgroups(a4)) == 10  # and none of order 6


def test_frattini_examples():
    assert frattini(load_catalog_group("z4")).members == (0, 2)
    s3 = frattini(load_catalog_group("s3"))
    assert s3.members == (load_catalog_group("s3").identity,)
    q8 = load_catalog_group("q8")
    fr = frattini(q8)
    assert len(fr.members) == 2  # the center {1, -1}
    center = tuple(
        a for a in range(q8.order) if all(q8.mul(a, b) == q8.mul(b, a) for b in range(q8.order))
    )
    assert fr.members == center


def test_frattini_of_prime_square_cyclics():
    for p in (2, 3, 5):
        g = load_catalog_group(f"z{p * p}")
        assert frattini(g).members == tuple(range(0, p * p, p))


def test_divisors_and_radical():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert radical(12) == 6
    assert radical(30) == 30
    assert radical(8) == 2
    assert radical(1) == 1


def test_ideal_lattice_and_jacobson():
    lat = ideal_lattice_zn(12)
    assert lat.n == 6
    assert lat.distributive
    assert jacobson_zn(12).generator == 6
    assert jacobson_zn(30).generator == 30
    assert jacobson_zn(8).generator == 2
    with pytest.raises(TooLarge):
        ideal_lattice_zn(1)


def test_divisor_is_capped_before_dividing(monkeypatch):
    import residua.generators

    def no_division(n):
        raise AssertionError("divisors reached")

    monkeypatch.setattr(residua.generators, "divisors", no_division)
    with pytest.raises(TooLarge):
        divisor(ZN_CAP + 1)


def test_divisor_lattice(div12):
    assert div12.n == 6
    assert div12.distributive
    assert div12.names == ("1", "2", "3", "4", "6", "12")


def test_boolean_and_chain():
    assert boolean(3).n == 8
    assert chain(4).n == 4
    assert boolean(0).n == 1
    assert chain(1).n == 1


def test_downset_of_antichain_is_diamond():
    lat = downset_lattice(antichain_poset(2))
    assert lat.n == 4
    assert lat.distributive


def antichain_count(p) -> int:
    """Brute-force count of antichains (equals the downset count)."""
    count = 0
    for m in range(1 << p.n):
        if all(
            not p.lt(i, j) and not p.lt(j, i)
            for i in bits(m)
            for j in bits(m)
            if i < j
        ):
            count += 1
    return count


def test_downset_count_equals_antichain_count():
    rng = random.Random(9)
    for _ in range(12):
        p = random_poset(rng, rng.randint(0, 6))
        assert downset_lattice(p).n == antichain_count(p)


def test_random_distributive_deterministic_and_bounded():
    a = random_distributive(1, 32)
    b = random_distributive(1, 32)
    assert a.poset == b.poset and a.meet == b.meet and a.join == b.join
    assert 1 <= a.n <= 32
    assert a.distributive
    assert random_distributive(3, 1).n == 1  # empty poset gives the one-point lattice


def random_distributive_reference(seed: int, target_size: int):
    """The generator's former loop: build every drawn downset lattice and
    return the first one within the size cap."""
    rng = random.Random(seed)
    while True:
        p = random_poset(rng, rng.randint(0, 9))
        lat = downset_lattice(p, provenance=f"random(seed={seed},size={target_size})")
        if 1 <= lat.n <= target_size:
            return lat


def test_random_distributive_builds_only_the_lattice_it_returns(monkeypatch):
    """Counting the downsets first draws the same lattices as building
    each one: the same JSON for seeds 0-199 at sizes 20, 50 and 200."""
    for size in (20, 50, 200):
        for seed in range(200):
            want = random_distributive_reference(seed, size)
            got = random_distributive(seed, size)
            assert (got.to_json_dict(), got.provenance, got.sets) == (
                want.to_json_dict(),
                want.provenance,
                want.sets,
            ), (seed, size)
    built = []
    monkeypatch.setattr(
        residua.generators, "inclusion_lattice", lambda *args: built.append(args) or inclusion_lattice(*args)
    )
    assert random_distributive(10, 200).n <= 200 and len(built) == 1


def test_product_of_chains_is_grid():
    g = product(chain(2), chain(2))
    assert g.n == 4
    assert g.distributive
    big = product(chain(3), boolean(2))
    assert big.n == 12
    assert all_pass(run_all(big))


def test_closed_sets_generator():
    t = FiniteTopology.from_subbase(2, [[0]])
    lat = closed_set_lattice(t)
    assert lat.n == 3  # {}, {1}, {0,1}
    assert lat.sets == (0b00, 0b10, 0b11)


def test_generated_lattices_pass_laws_when_distributive():
    for L in (divisor(60), boolean(3), random_distributive(11, 40)):
        assert L.coframe
        assert all_pass(run_all(L))


def test_generate_spec_strings(tmp_path):
    assert generate("chain:4").n == 4
    assert generate("boolean:3").n == 8
    assert generate("divisor:12").n == 6
    assert generate("zn:12").n == 6
    assert generate("random:seed=7,size=50").n <= 50
    assert generate("group:q8").n == 6
    assert generate("product:chain:2|chain:3").n == 6
    poset_doc = {"elements": ["a", "b"], "relation": [], "mode": "covers"}
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset_doc))
    assert generate(f"downset:@{path}").n == 4
    with pytest.raises(ValueError):
        generate("nosuch:1")


def test_caps_enforced():
    with pytest.raises(TooLarge):
        chain(5000)
    for k in (13, -1):
        with pytest.raises(TooLarge, match=r"^boolean exponent must be between 0 and 12 \(2\^12 elements\)$"):
            generate(f"boolean:{k}")
    big = CayleyTable(
        order=65,
        table=tuple(tuple((a + b) % 65 for b in range(65)) for a in range(65)),
        identity=0,
    )
    with pytest.raises(InvalidGroup, match="capped at order 64"):
        subgroups(big)


def _z_table(n: int) -> list:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _swapped(table: list, cells) -> list:
    """A copy of ``table`` with the entries of each pair of cells swapped."""
    t = [list(row) for row in table]
    for (a, b), (c, d) in cells:
        t[a][b], t[c][d] = t[c][d], t[a][b]
    return t


def _twisted_z3_z2() -> list:
    """Z3 x Z2 on its tuples in lexicographic order, with a carry into Z2
    from (1, _) * (1, _) only, which is no cocycle.  Every triple with
    (0, 1) in the middle associates, so only a test of the second
    generator, (1, 0), finds the fault."""
    el = [(a, b) for a in range(3) for b in range(2)]
    return [[el.index(((a + c) % 3, (b + d + (a == c == 1)) % 2)) for c, d in el] for a, b in el]


@pytest.mark.parametrize(
    "table, message",
    [
        # Z5 with the 2x2 block on rows and columns 1, 2 swapped left-right.
        (_swapped(_z_table(5), [((1, 1), (1, 2)), ((2, 1), (2, 2))]), "associativity fails at (1,1,2)"),
        (_swapped(_z_table(64), [((1, 1), (1, 2))]), "associativity fails at (1,1,2)"),
        (_swapped(_z_table(64), [((63, 62), (63, 63))]), "associativity fails at (1,62,62)"),
        (_twisted_z3_z2(), "associativity fails at (2,2,4)"),
    ],
)
def test_non_associative_tables_with_identity_and_inverses_name_the_first_triple(table, message):
    n = len(table)
    assert table[0] == list(range(n)) and [row[0] for row in table] == list(range(n))
    assert all(0 in row for row in table)
    with pytest.raises(InvalidGroup) as raised:
        CayleyTable.from_json_dict({"order": n, "identity": 0, "table": table}, name="t")
    assert str(raised.value) == f"t: {message}"


@pytest.mark.parametrize(
    "entry, message",
    [
        (True, "Cayley JSON field 'table' must be a list of rows of elements"),
        (False, "Cayley JSON field 'table' must be a list of rows of elements"),
        (1.0, "Cayley JSON field 'table' must be a list of rows of elements"),
        (-1, "Cayley JSON field 'table' must be a list of rows of elements"),
        (3, "table entry out of range"),
    ],
)
def test_cayley_entries_of_the_wrong_type_or_range_name_their_fault(entry, message):
    """Each row is checked in C-level calls (the set of entry types, then
    min and max), with the messages of the per-entry checks, at the first
    entry and at a later one."""
    for a, b in ((0, 0), (2, 1)):
        table = _z_table(3)
        table[a][b] = entry
        with pytest.raises(InvalidGroup) as raised:
            CayleyTable.from_json_dict({"order": 3, "identity": 0, "table": table}, name="t")
        assert str(raised.value) == f"t: {message}"


def test_oversized_cayley_json_refused_before_validation():
    n = 400
    doc = {"order": n, "identity": 0, "table": [[(a + b) % n for b in range(n)] for a in range(n)]}
    start = time.perf_counter()
    with pytest.raises(InvalidGroup, match=f"capped at order {GROUP_ORDER_CAP}"):
        CayleyTable.from_json_dict(doc)
    # validate() alone scans 64,000,000 triples here; the cap check does not.
    assert time.perf_counter() - start < 1.0


def test_cayley_json_round_trip():
    g = load_catalog_group("s3")
    doc = g.to_json_dict()
    assert set(doc) == {"order", "identity", "table"}
    again = CayleyTable.from_json_dict(doc, name="s3")
    assert again.table == g.table
