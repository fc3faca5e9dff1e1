import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residua.bitset import bits, mask_of
from residua.errors import LatticeIntegrityError, NotBelow
from residua.generators import (
    antichain_poset,
    downset_lattice,
    load_catalog_group,
    random_distributive,
    subgroup_lattice,
)
from residua.residual import (
    OMEGA,
    RankValue,
    classify_t,
    co_heyting_sub,
    completely_coirreducibles,
    delta_plus,
    maximal_subelements,
    mu_iterates,
    outcasts,
    relative_strata,
    residual_derivative,
    residual_profile,
)
from residua.laws import mutate_entry
from residua.testbed import INF, OrdinalCoframe


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
    assert p.t_class == 2


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


def test_outcasts_empty_on_finite(b2, b3, chain3):
    for L in (b2, b3, chain3):
        for x in L.elements():
            assert outcasts(L, x) == []
            if L.coframe:
                assert residual_profile(L, x).boundary == x


def test_outcasts_with_family(chain3):
    fam = [0, 2]
    assert outcasts(chain3, 2, fam) == []


def test_classify_t(b2, b3):
    assert classify_t(b2, b2.top) == 2
    assert classify_t(b2, b2.bottom) == 0
    assert classify_t(b3, b3.top) == 3


def derivative_oracle(L, x):
    """Meet of the maximal subelements read off the order matrix: the
    element whose downset is their common downset."""
    maxes = maximal_oracle(L, x)
    if not maxes:
        return x
    common = L.full()
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
        assert L.derivatives == expected
        # the second pass reads the filled row
        assert [residual_derivative(L, x) for x in L.elements()] == expected
        coirreducibles = coirreducibles_oracle(L)
        assert completely_coirreducibles(L) == coirreducibles, L.provenance
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
    assert bad.derivatives is not b3.derivatives
    assert bad.poset is b3.poset
    for _ in range(2):
        with pytest.raises(LatticeIntegrityError):
            residual_derivative(bad, top)
    assert bad.derivatives[top] is None
    assert residual_derivative(b3, top) == expected


def test_completely_coirreducibles(chain3, b2):
    assert completely_coirreducibles(chain3) == [1, 2]
    a, b = b2.names.index("{a0}"), b2.names.index("{a1}")
    assert completely_coirreducibles(b2) == [a, b]
    assert sorted(delta_plus(chain3, 2)) == [1, 2]
    assert sorted(delta_plus(b2, b2.top)) == [a, b]


def test_relative_strata(chain3):
    rs = relative_strata(chain3, 2, 2)
    assert all(not s for s in rs.strata)
    assert rs.rank == RankValue.of(0)
    rs = relative_strata(chain3, 0, 2)
    assert rs.delta == (1, 2)
    assert rs.rank == RankValue.of(2)
    with pytest.raises(NotBelow):
        relative_strata(chain3, 2, 0)


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
            assert it == p.iterate(k)
        for k in range(len(iterates) - 1):
            assert cf.lt(iterates[k + 1], iterates[k])
        assert maximal_subelements(cf, x) == cf.maximal_subelements(x)
        assert residual_derivative(cf, x) == p.mu if p.maximal else x


def test_rank_value_json():
    assert RankValue.of(3).to_json() == {"finite": 3}
    assert OMEGA.to_json() == "omega"
    assert OMEGA.is_omega and not RankValue.of(0).is_omega


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
