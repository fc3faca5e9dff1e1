import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residua.bitset import bits, mask_of
from residua.errors import LatticeIntegrityError, NotBelow, PreconditionFailed
from residua.generators import (
    antichain_poset,
    downset_lattice,
    generate,
    load_catalog_group,
    random_distributive,
    subgroup_lattice,
)
from residua.residual import (
    OMEGA,
    RankValue,
    Rows,
    classify_t,
    co_heyting_sub,
    delta_plus,
    maximal_subelements,
    mu_iterates,
    outcasts,
    relative_strata,
    residual_derivative,
    residual_profile,
)
from residua.lattice import lattice_from_json
from residua.laws import mutate_entry, run_all
from residua.residual import ResidualProfile, _cover_pairs, _maximal_chain_lengths
from residua.testbed import INF, OrdinalCoframe

from conftest import co_heyting_scan


def coheyting_oracle(L, x, z):
    """Least y <= x with z v y = x, with joins recomputed from the order
    matrix rather than the join table."""
    candidates = []
    for y in bits(L.down_set(x)):
        common_up = L.up_set(z) & L.up_set(y)
        least = min(bits(common_up), key=lambda c: bin(L.down_set(c)).count("1"))
        if least == x:
            candidates.append(y)
    best = [
        y for y in candidates if all(L.leq(y, other) for other in candidates)
    ]
    assert len(best) == 1
    return best[0]


def maximal_oracle(L, x, family=None):
    """Filter then maximize, directly from the definition."""
    pool = [
        z
        for z in L.elements()
        if L.lt(z, x) and (family is None or z in family)
    ]
    return sorted(
        z for z in pool if not any(L.lt(z, w) for w in pool)
    )


def test_maximal_subelements_examples(b2, chain3):
    top = b2.top
    assert maximal_subelements(b2, top) == maximal_oracle(b2, top) == [1, 2]
    assert maximal_subelements(chain3, 2) == [1]
    assert maximal_subelements(chain3, chain3.bottom) == []


def test_lower_covers_match_maximal_oracle(lattice_corpus):
    for L in lattice_corpus:
        for x in L.elements():
            assert L.poset.lower_covers[x] == mask_of(maximal_oracle(L, x)), (L.provenance, x)
        hasse = sorted((z, x) for x in L.elements() for z in maximal_oracle(L, x))
        assert L.poset.covers() == hasse


def test_maximal_subelements_with_family():
    L = downset_lattice(antichain_poset(2))
    fam = [L.bottom, L.top]
    assert maximal_subelements(L, L.top, fam) == maximal_oracle(L, L.top, fam) == [L.bottom]


def test_co_heyting_examples(b2, chain3):
    a, b = b2.names.index("{a0}"), b2.names.index("{a1}")
    assert co_heyting_sub(b2, b2.top, a) == coheyting_oracle(b2, b2.top, a) == b
    assert co_heyting_sub(chain3, 2, 1) == coheyting_oracle(chain3, 2, 1) == 2
    for L in (b2, chain3):
        for x in L.elements():
            assert co_heyting_sub(L, x, x) == L.bottom
    with pytest.raises(NotBelow):
        co_heyting_sub(chain3, 1, 2)


class BirkhoffOracle:
    """Closed forms on a finite distributive lattice, read off the order
    rows only, never the tables (Birkhoff's representation).

    Every element x is the join of J(x), the join-irreducibles below it,
    and J(x) is a downset of the join-irreducibles.  A lower cover of x
    drops one maximal member of J(x), so the derivative drops all of them
    and the iterates peel J(x) layer by layer from the top: the rank is
    the number of layers, the core is the bottom, the residue at the lower
    cover that drops j is j, stratum a is the a-th layer and the boundary
    poset is J(x) itself.  x - z is the element whose join-irreducibles
    are those generated by J(x) minus down(z).
    """

    def __init__(self, L):
        self.L = L
        down = L.poset.down
        self.J = mask_of(y for y in L.elements() if len(self.maxima(down[y] & ~(1 << y))) == 1)
        self.by_jset = {down[y] & self.J: y for y in L.elements()}

    def maxima(self, mask) -> list:
        up = self.L.poset.up
        return [i for i in bits(mask) if up[i] & mask == 1 << i]

    def jset(self, x) -> int:
        return self.L.poset.down[x] & self.J

    def element(self, jmask) -> int:
        """The element whose join-irreducibles are generated by jmask."""
        closure = 0
        for j in bits(jmask):
            closure |= self.jset(j)
        return self.by_jset[closure]

    def sub(self, x, z) -> int:
        return self.element(self.jset(x) & ~self.L.poset.down[z])

    def profile(self, x) -> ResidualProfile:
        jx = self.jset(x)
        layers, rest = [], jx
        while rest:
            layers.append(mask_of(self.maxima(rest)))
            rest &= ~layers[-1]
        iterates, peeled = [x], jx
        for layer in layers:
            peeled &= ~layer
            iterates.append(self.element(peeled))
        residues = {self.element(jx & ~(1 << j)): j for j in bits(layers[0])} if layers else {}
        return ResidualProfile(
            element=x,
            family=None,
            maximal=tuple(sorted(residues)),
            mu=iterates[1] if layers else x,
            rank=RankValue.of(len(layers)),
            core=self.L.bottom,
            residues=residues,
            boundary=x,
            strata=tuple(tuple(bits(layer)) for layer in layers),
            boundary_poset=tuple(bits(jx)),
            rho={s: a for a, layer in enumerate(layers) for s in bits(layer)},
            iterates=tuple(iterates),
        )


def test_birkhoff_oracle_matches_profiles_and_residues(lattice_corpus):
    distributive = 0
    for L in lattice_corpus:
        if not L.distributive:
            continue
        distributive += 1
        oracle = BirkhoffOracle(L)
        for x in L.elements():
            assert residual_profile(L, x) == oracle.profile(x), (L.provenance, x)
            for z in bits(L.down_set(x)):
                assert co_heyting_sub(L, x, z) == oracle.sub(x, z), (L.provenance, x, z)
    assert distributive >= 100


def test_co_heyting_sub_matches_scan(lattice_corpus):
    """On every corpus lattice, distributive or not, x - z equals the
    definitional scan for every z <= x."""
    for L in lattice_corpus:
        for x in L.elements():
            for z in bits(L.down_set(x)):
                assert co_heyting_sub(L, x, z) == co_heyting_scan(L, x, z), (L.provenance, x, z)


def maximal_of_reference(L, mask) -> int:
    """Filter the subset for members with nothing else of it above."""
    return mask_of(i for i in bits(mask) if L.up_set(i) & mask == 1 << i)


def test_maximal_of_matches_filter(lattice_corpus):
    rng = random.Random(11)
    for L in lattice_corpus:
        for _ in range(20):
            mask = rng.getrandbits(L.n)
            assert L.poset.maximal_of(mask) == maximal_of_reference(L, mask), (L.provenance, mask)


def cover_pairs_reference(L, members) -> list:
    """Hasse edges among the members by a scan over triples."""
    members = list(members)
    out = []
    for i in members:
        above = [j for j in members if L.lt(i, j)]
        for j in above:
            if not any(L.lt(i, k) and L.lt(k, j) for k in above):
                out.append((i, j))
    return sorted(out)


def chain_lengths_reference(L, members) -> list:
    """Walk every maximal chain up the cover graph from each minimal
    member; the length of each, in elements."""
    members = list(members)
    covers = cover_pairs_reference(L, members)
    ups = {i: [j for a, j in covers if a == i] for i in members}
    minimal = [i for i in members if not any(b == i for _, b in covers)]
    lengths = []

    def walk(node, depth):
        if not ups[node]:
            lengths.append(depth)
        for j in ups[node]:
            walk(j, depth + 1)

    for m in minimal:
        walk(m, 1)
    return lengths


def test_boundary_covers_and_chain_lengths_match_walk(lattice_corpus):
    """On every boundary poset of the corpus, and on each whole lattice of
    at most 24 elements."""
    for L in lattice_corpus:
        member_sets = [residual_profile(L, x).boundary_poset for x in L.elements()]
        if L.n <= 24:
            member_sets.append(tuple(L.elements()))
        for members in member_sets:
            assert _cover_pairs(L, members) == cover_pairs_reference(L, members), L.provenance
            assert _maximal_chain_lengths(L, members) == set(chain_lengths_reference(L, members))


def climbs(L, mask) -> bool:
    """Whether ``maximal_of`` must climb on the subset: its highest index
    is not maximal in it."""
    top = mask.bit_length() - 1
    return bool(mask) and L.up_set(top) & mask != 1 << top


def test_maximal_of_climbs_off_index_order(lattice_corpus):
    """Where index order is no linear extension, ``maximal_of`` climbs
    from the highest index to a maximal member: on ``zn:360``, whose
    ideal (1) has index 0, and on relabeled corpus lattices.  There the
    maximal subelements in seeded families, and the cover pairs and
    chain lengths that ``grade_stats`` and ``boundary_dot`` read, equal
    the filter that keeps the members with no other member above them."""
    rng = random.Random(360)
    lattices = [generate("zn:360")]
    for L in lattice_corpus[::4]:
        doc = L.to_json_dict()
        rng.shuffle(doc["elements"])
        lattices.append(lattice_from_json(doc, provenance=f"{L.provenance}~"))
    climbed = 0
    for L in lattices:
        for _ in range(3):
            family = [x for x in L.elements() if rng.random() < 0.6]
            fam = mask_of(family)
            for x in L.elements():
                below = L.down_set(x) & ~(1 << x) & fam
                climbed += climbs(L, below)
                want = maximal_of_reference(L, below)
                assert mask_of(maximal_subelements(L, x, family)) == want, (L.provenance, x, family)
        for x in L.elements():
            prof = residual_profile(L, x)
            members = prof.boundary_poset
            edges = cover_pairs_reference(L, members)
            assert _cover_pairs(L, members) == edges, (L.provenance, x)
            lengths = sorted(set(chain_lengths_reference(L, members)))
            assert prof.grade_stats(L)["maximal_chain_lengths"] == lengths, (L.provenance, x)
            dot_edges = [line for line in prof.boundary_dot(L).splitlines() if "->" in line]
            assert dot_edges == [f"  n{i} -> n{j};" for i, j in edges], (L.provenance, x)
        if L.n <= 24:
            everything = tuple(L.elements())
            assert _cover_pairs(L, everything) == cover_pairs_reference(L, everything), L.provenance
            climbed += sum(climbs(L, L.down_set(x) & ~(1 << x)) for x in L.elements())
    assert climbed > 1000, climbed


def test_residual_derivative_examples(b2):
    assert residual_derivative(b2, b2.top) == b2.bottom
    assert residual_derivative(b2, b2.bottom) == b2.bottom


def test_residual_derivative_z4_subgroup_chain():
    lat = subgroup_lattice(load_catalog_group("z4"))
    mu = residual_derivative(lat, lat.top)
    assert sorted(bits(lat.sets[mu])) == [0, 2]


def test_profile_chain(chain3):
    p = residual_profile(chain3, 2)
    assert p.rank == RankValue.of(2)
    assert p.core == chain3.bottom
    assert p.strata == ((2,), (1,))
    assert p.boundary_poset == (1, 2)
    assert p.rho == {2: 0, 1: 1}
    assert p.iterates == (2, 1, 0)


def test_profile_b2(b2):
    a, b = b2.names.index("{a0}"), b2.names.index("{a1}")
    p = residual_profile(b2, b2.top)
    assert p.rank == RankValue.of(1)
    assert p.core == b2.bottom
    assert p.residues == {a: b, b: a}
    assert p.boundary == b2.top
    assert p.strata == ((a, b),)
    assert len(p.maximal) == 2


def test_profile_bottom_degenerate(b2):
    p = residual_profile(b2, b2.bottom)
    assert p.rank == RankValue.of(0)
    assert p.mu == b2.bottom
    assert p.core == b2.bottom
    assert p.residues == {}
    assert p.boundary == b2.bottom
    assert p.strata == ()
    assert p.boundary_poset == ()


def test_profile_invariants_on_random_lattices():
    for seed in range(8):
        L = random_distributive(seed, 40)
        for x in L.elements():
            p = residual_profile(L, x)
            assert L.leq(p.mu, x)
            assert residual_derivative(L, p.core) == p.core
            if p.rank.finite >= 1:
                assert L.leq(p.core, p.mu)
            members = set(p.boundary_poset)
            covered = set()
            for a, stratum in enumerate(p.strata):
                for s in stratum:
                    assert s in members
                    assert p.rho[s] == a
                    covered.add(s)
            assert covered == members


def test_profile_with_explicit_family(b3):
    fam = mask_of([b3.bottom, b3.top])
    p = residual_profile(b3, b3.top, fam)
    assert p.maximal == (b3.bottom,)
    assert p.mu == b3.bottom
    # family without the bottom: profile still computes
    atoms = [x for x in b3.elements() if classify_t(b3, x) == 1]
    p2 = residual_profile(b3, b3.top, mask_of(atoms))
    assert p2.maximal == tuple(atoms)


def test_family_profiles_decompose_through_mu():
    """In a family that holds the bottom and is closed under joins, x is
    the join of mu(x) and its residues, not of its core and residues.  On
    divisor:60 in the family of the divisors of 30 and 60 itself, 12 has
    core 1 and one residue, 4, so the core form would join 4; mu(12) is
    6, and 6 v 4 = 12.  Every element profiles without raising there and
    in random such families on distributive lattices."""
    L = generate("divisor:60")
    family = mask_of(L.poset.index_of(n) for n in "1,2,3,5,6,10,15,30,60".split(","))
    name = L.names.__getitem__
    p = residual_profile(L, L.poset.index_of("12"), family)
    assert (name(p.core), name(p.mu), [name(r) for r in p.residues.values()]) == ("1", "6", ["4"])
    cases = [(L, family)]
    rng = random.Random(29)
    for spec in ("divisor:60", "divisor:210", "boolean:4", "chain:6", "product:chain:3|boolean:2"):
        L = generate(spec)
        for _ in range(10):
            members = {L.bottom, *rng.sample(range(L.n), rng.randint(0, L.n))}
            while not all(L.join2(a, b) in members for a in members for b in members):
                members |= {L.join2(a, b) for a in members for b in members}
            cases.append((L, mask_of(members)))
    for L, family in cases:
        for x in L.elements():
            p = residual_profile(L, x, family)
            assert L.join_of_set([p.mu, *p.residues.values()]) == x, (L.provenance, family, x)


def test_outcasts_empty_on_finite(b2, b3, chain3, lattice_corpus):
    for L in (b2, b3, chain3, *lattice_corpus):
        for x in L.elements():
            assert outcasts(L, x) == []
            if L.coframe:
                assert residual_profile(L, x).boundary == x


def test_outcasts_with_family(chain3):
    fam = [0, 2]
    assert outcasts(chain3, 2, fam) == []


def outcasts_scan(L, x, family=None) -> list:
    """The element scan ``outcasts`` replaced with one mask: each z below
    x in the family whose up row misses every maximal subelement, then
    the same boundary cross-check."""
    cand = L.strictly_below(x) & ((1 << L.n) - 1 if family is None else mask_of(family))
    max_mask = mask_of(maximal_subelements(L, x, family))
    out = [z for z in bits(cand) if L.up_set(z) & max_mask == 0]
    if family is None and L.coframe:
        boundary = L.join_of_set([co_heyting_sub(L, x, m) for m in bits(max_mask)])
        expected = sorted(bits(L.up_set(boundary) & L.strictly_below(x))) if boundary != x else []
        if expected != out:
            raise LatticeIntegrityError(
                "outcast scan disagrees with the boundary criterion",
                witness={
                    "x": L.names[x],
                    "scan": [L.names[z] for z in out],
                    "boundary_criterion": [L.names[z] for z in expected],
                },
            )
    return out


def test_outcasts_mask_matches_the_element_scan(lattice_corpus, b3):
    """The same list, or the same error and witness, as the element scan:
    on corpus lattices with the default family and random families, and
    on every join mutation of boolean:3, where the cross-check fails."""

    def outcome(*args):
        try:
            return outcasts(*args)
        except LatticeIntegrityError as e:
            return str(e), e.witness

    def reference(*args):
        try:
            return outcasts_scan(*args)
        except LatticeIntegrityError as e:
            return str(e), e.witness

    rng = random.Random(21)
    lattices = lattice_corpus[::5]
    lattices += [
        mutate_entry(b3, "join", i, j, v)
        for i in b3.elements()
        for j in b3.elements()
        for v in b3.elements()
        if v != b3.join[i][j]
    ]
    raised = 0
    for L in lattices:
        for x in L.elements():
            for family in (None, rng.sample(range(L.n), rng.randint(1, L.n))):
                got = outcome(L, x, family)
                assert got == reference(L, x, family), (L.provenance, x, family)
                raised += isinstance(got, tuple)
    assert raised > 20


def test_classify_t(b2, b3):
    assert classify_t(b2, b2.top) == 2
    assert classify_t(b2, b2.bottom) == 0
    assert classify_t(b3, b3.top) == 3


def test_positions_outside_the_carrier_are_rejected(div12):
    """On order rows an element is an int, not a bool, in 0..n-1, and so
    is each member of a family; anything else is refused, named, before
    a row is read.  -1 used to be read as position n - 1, or raised a
    negative shift count, and n an IndexError."""
    L = div12
    assert L.n == 6
    calls = [
        (lambda: residual_derivative(L, -1), -1),
        (lambda: Rows(L).derivative(-1), -1),
        (lambda: maximal_subelements(L, -2), -2),
        (lambda: maximal_subelements(L, 6, family=[0, 1]), 6),
        (lambda: co_heyting_sub(L, 5, -1), -1),
        (lambda: co_heyting_sub(L, 6, 0), 6),
        (lambda: delta_plus(L, -1), -1),
        (lambda: delta_plus(L, 5, core=7), 7),
        (lambda: classify_t(L, -1), -1),
        (lambda: classify_t(L, True), True),
        (lambda: outcasts(L, 1.0), 1.0),
        (lambda: mu_iterates(L, 6, limit=0), 6),
        (lambda: relative_strata(L, 0, -1), -1),
        (lambda: residual_profile(L, -1), -1),
        (lambda: residual_profile(L, 6), 6),
        (lambda: residual_profile(L, 0, family=[0, True]), True),
        (lambda: run_all(L, family=[-1]), -1),
        (lambda: run_all(L, family=[0, 9]), 9),
        (lambda: run_all(L, family=1 << 9 | 1), 9),
        (lambda: run_all(L, family=True), True),
    ]
    for call, x in calls:
        message = rf"^position {re.escape(repr(x))} is outside the carrier 0\.\.5$"
        with pytest.raises(ValueError, match=message):
            call()
    assert residual_profile(L, 5, family=[0, 5]).element == 5


def derivative_oracle(L, x):
    """Meet of the maximal subelements read off the order matrix: the
    element whose downset is their common downset."""
    maxes = maximal_oracle(L, x)
    if not maxes:
        return x
    common = (1 << L.n) - 1
    for m in maxes:
        common &= L.down_set(m)
    return next(z for z in L.elements() if L.down_set(z) == common)


def coirreducibles_oracle(L):
    """Elements with one maximal subelement that dominates every element
    strictly below, straight from the definition."""
    out = []
    for x in L.elements():
        maxes = maximal_oracle(L, x)
        below = [z for z in L.elements() if L.lt(z, x)]
        if len(maxes) == 1 and all(L.leq(z, maxes[0]) for z in below):
            out.append(x)
    return out


def test_cached_rows_match_recomputation(lattice_corpus):
    for L in lattice_corpus:
        expected = [derivative_oracle(L, x) for x in L.elements()]
        assert [residual_derivative(L, x) for x in L.elements()] == expected, L.provenance
        coirreducibles = coirreducibles_oracle(L)
        assert list(bits(L.poset.irreducibles)) == coirreducibles, L.provenance
        for x in L.elements():
            core = mu_iterates(L, x)[-1]
            assert delta_plus(L, x) == [
                s for s in coirreducibles if L.leq(s, x) and not L.leq(s, core)
            ]


def test_derivative_row_is_per_lattice_and_never_holds_a_failure(b3):
    top = b3.top
    expected = residual_derivative(b3, top)
    m1, m2 = maximal_subelements(b3, top)[:2]
    bad = mutate_entry(b3, "meet", m1, m2, top)
    assert bad.poset is b3.poset
    for _ in range(2):
        with pytest.raises(LatticeIntegrityError):
            residual_derivative(bad, top)
    assert residual_derivative(b3, top) == expected


def test_completely_coirreducibles(chain3, b2):
    """On a finite lattice the co-irreducibles are the join-irreducibles."""
    assert list(bits(chain3.poset.irreducibles)) == [1, 2]
    a, b = b2.names.index("{a0}"), b2.names.index("{a1}")
    assert list(bits(b2.poset.irreducibles)) == [a, b]
    assert sorted(delta_plus(chain3, 2)) == [1, 2]
    assert sorted(delta_plus(b2, b2.top)) == [a, b]


def test_rank_value_repr():
    assert repr(RankValue.of(3)) == "Finite(3)"
    assert repr(OMEGA) == "omega"


def test_relative_strata(chain3):
    rs = relative_strata(chain3, 2, 2)
    assert all(not s for s in rs.strata)
    assert rs.rank == RankValue.of(0)
    rs = relative_strata(chain3, 0, 2)
    assert rs.delta == (1, 2)
    assert rs.rank == RankValue.of(2)
    with pytest.raises(NotBelow):
        relative_strata(chain3, 2, 0)


def test_relative_strata_raises_residua_errors_on_the_testbed(chain3):
    """On the testbed, ``relative_strata`` names the vectors of a pair
    that is not in order, and refuses the infinitely many strata of a
    vector with a ``ResiduaError`` that points to the closed form; on
    ``chain3`` its errors and answers are as before."""
    cf = OrdinalCoframe(2)
    with pytest.raises(NotBelow, match=r"^0,0 is not below 1,1$"):
        relative_strata(cf, (0, 0), (1, 1))
    with pytest.raises(PreconditionFailed, match="relative_strata_closed_form"):
        relative_strata(cf, (INF, 0), (0, 0))
    with pytest.raises(NotBelow, match=r"^2 is not below 0$"):
        relative_strata(chain3, 2, 0)
    assert relative_strata(chain3, 0, 2).delta == (1, 2)


def test_relative_strata_testbed_closed_form():
    cf = OrdinalCoframe(2)
    strata, rank = cf.relative_strata_closed_form((INF, 0), (0, 0), upto=5)
    for k, stratum in enumerate(strata):
        assert stratum == ((k, INF),)
    assert rank == OMEGA


def test_generic_engine_cross_checks_testbed_closed_form():
    cf = OrdinalCoframe(2)
    for x in [(3, INF), (2, 3), (0, 0), (INF, 0)]:
        p = cf.profile(x)
        iterates = mu_iterates(cf, x, limit=20)
        for k, it in enumerate(iterates):
            assert it == tuple(c if c == INF else c + k for c in x)
        for k in range(len(iterates) - 1):
            assert cf.lt(iterates[k + 1], iterates[k])
        assert maximal_subelements(cf, x) == cf.maximal_subelements(x)
        assert residual_derivative(cf, x) == p.mu if p.maximal else x


def test_rank_value_json():
    assert RankValue.of(3).to_json() == {"finite": 3}
    assert OMEGA.to_json() == "omega"
    assert OMEGA.finite is None and RankValue.of(0).finite == 0


def test_profile_json_schema(chain3):
    doc = residual_profile(chain3, 2).to_json_dict(chain3)
    assert set(doc) == {
        "element",
        "mu",
        "rank",
        "core",
        "residues",
        "boundary",
        "strata",
        "rho",
    }
    assert doc["rank"] == {"finite": 2}
    assert doc["strata"] == [["2"], ["1"]]
    assert doc["rho"] == {"1": 1, "2": 0}


def test_boundary_dot(chain3):
    p = residual_profile(chain3, 2)
    dot = p.boundary_dot(chain3)
    assert "cluster_stratum_0" in dot and "cluster_stratum_1" in dot
    assert dot.count("->") == 1


def test_grade_stats(chain3, b3):
    stats = residual_profile(chain3, 2).grade_stats(chain3)
    assert stats["elements"] == 2
    assert stats["all_maximal_chains_equal_length"] in (True, False)
    stats = residual_profile(b3, b3.top).grade_stats(b3)
    assert stats["elements"] == len(residual_profile(b3, b3.top).boundary_poset)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_core_residue_identity_on_random_coframes(seed):
    L = random_distributive(seed, 24)
    for x in L.elements():
        p = residual_profile(L, x)
        assert L.join_of_set([p.core, *p.residues.values()]) == x
        assert L.join_of_set([p.mu, *p.residues.values()]) == x
