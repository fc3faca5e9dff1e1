import itertools
import random
import re
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residua.errors import (
    BoundTooSmall,
    DimensionMismatch,
    NotBelow,
    PreconditionFailed,
    TooLarge,
    UnstableVerdict,
)
from residua.residual import OMEGA, RankValue, mu_iterates
from residua.testbed import (
    INF,
    MAX_GRID_POINTS,
    OrdinalCoframe,
    fmt_vec,
    parse_vec,
)


@pytest.fixture(scope="module")
def cf2():
    return OrdinalCoframe(2)


def test_parse_and_format():
    assert parse_vec("3,inf") == (3, INF)
    assert fmt_vec((3, INF)) == "3,inf"
    assert parse_vec("0") == (0,)
    for text in ("", " ", "3,", ",inf"):
        with pytest.raises(ValueError):
            parse_vec(text)


def test_grids_above_the_cap_are_refused_before_they_are_built(monkeypatch):
    cf = OrdinalCoframe(2)
    with pytest.raises(TooLarge):
        cf.box(10**8)
    # the largest --dims 2 box is --bound 998
    assert (998 + 2) ** 2 <= MAX_GRID_POINTS < (999 + 2) ** 2
    monkeypatch.setattr("residua.testbed.MAX_GRID_POINTS", 100)
    assert len(cf.box(8)) == (8 + 2) ** 2 == 100
    with pytest.raises(TooLarge):
        cf.box(9)


def test_isolation_search_builds_no_grid():
    # a search grid at these bounds would hold about 10^16 vectors
    cf = OrdinalCoframe(2)
    assert cf.isolated_oracle((99999999, 1), 10**8 + 1) is True
    assert cf.isolated_oracle((99999999, INF), 10**8 + 1) is False
    s1 = lambda z: cf.cb_level(z) >= 1
    assert cf._separable((99999999, INF), 10**8 + 1, s1) is True


def test_order_examples(cf2):
    assert cf2.lt((3, INF), (1, 0)) and not cf2.leq((1, 0), (3, INF))
    assert cf2.leq((1, 0), (1, 0)) and not cf2.lt((1, 0), (1, 0))
    assert not cf2.leq((0, 1), (1, 0)) and not cf2.leq((1, 0), (0, 1))


def test_meet_join_examples(cf2):
    assert cf2.meet2((2, 5), (4, 1)) == (4, 5)
    assert cf2.join2((2, 5), (4, 1)) == (2, 1)
    assert cf2.join2((2, 5), cf2.bottom) == (2, 5)
    assert cf2.meet_of_set([]) == cf2.top
    assert cf2.join_of_set([]) == cf2.bottom


def test_dimension_mismatch(cf2):
    # the primitives compare lengths once; a wrong length in either
    # argument must still reach DimensionMismatch
    right = (INF, INF)  # below every vector, so co_heyting_sub reaches its check
    binary = [cf2.leq, cf2.lt, cf2.meet2, cf2.join2, cf2.co_heyting_sub]
    for wrong in ((1,), (1, 2, 3), ()):
        for op in binary:
            for args in ((wrong, right), (right, wrong), (wrong, wrong)):
                with pytest.raises(DimensionMismatch):
                    op(*args)
        with pytest.raises(DimensionMismatch):
            cf2.profile(wrong)


# The generic forms of the primitives, which the unrolled kernels replaced.


def join_reference(x, y):
    return tuple(map(min, x, y))


def meet_reference(x, y):
    return tuple(map(max, x, y))


def leq_reference(x, y):
    return all(map(ge, x, y))


def dually_compact_reference(x):
    return all(c != INF for c in x)


def co_heyting_sub_reference(x, z):
    return tuple(xc if zc > xc else INF for xc, zc in zip(x, z))


def test_kernels_match_the_generic_forms():
    """Every primitive against its generic form on every pair of box(4)
    in dims 1-3 and of box(2) in dims 4, and a wrong length in either
    argument raises DimensionMismatch naming the expected and the given
    length."""
    for dims, bound in ((1, 4), (2, 4), (3, 4), (4, 2)):
        cf = OrdinalCoframe(dims)
        box = cf.box(bound)
        for x in box:
            assert cf.dually_compact(x) is dually_compact_reference(x), x
            for y in box:
                assert cf.join2(x, y) == join_reference(x, y), (x, y)
                assert cf.meet2(x, y) == meet_reference(x, y), (x, y)
                below = leq_reference(y, x)
                assert cf.leq(y, x) is below, (x, y)
                if below:
                    assert cf.co_heyting_sub(x, y) == co_heyting_sub_reference(x, y), (x, y)
        right = cf.bottom  # below every vector, so co_heyting_sub reaches its check
        binary = [cf.leq, cf.lt, cf.meet2, cf.join2, cf.co_heyting_sub]
        for wrong in {(), (0,) * (dims - 1), (0,) * (dims + 1)}:
            message = f"^expected {dims} coordinates, got {len(wrong)}$"
            for op in binary:
                for args in ((wrong, right), (right, wrong)):
                    with pytest.raises(DimensionMismatch, match=message):
                        op(*args)
            with pytest.raises(DimensionMismatch, match=message):
                cf.dually_compact(wrong)


def test_co_heyting_sub_matches_the_generic_form_and_checks_z_first():
    """co_heyting_sub agrees with the generic form on every pair of
    box(3) with z below x in dims 1-4, raises NotBelow naming z and x on
    every pair of box(1) with z not below x, and raises DimensionMismatch
    for a wrong length in either argument or both: the one of z when both
    are wrong, as its order test leq(z, x) checks z first."""

    def outcome(x, z):
        try:
            return cf.co_heyting_sub(x, z)
        except (NotBelow, DimensionMismatch) as e:
            return type(e), str(e)

    for dims in (1, 2, 3, 4):
        cf = OrdinalCoframe(dims)
        for x, z in itertools.product(cf.box(3), repeat=2):
            if leq_reference(z, x):
                assert cf.co_heyting_sub(x, z) == co_heyting_sub_reference(x, z), (x, z)
        for x, z in itertools.product(cf.box(1), repeat=2):
            if not leq_reference(z, x):
                assert outcome(x, z) == (NotBelow, f"{fmt_vec(z)} is not below {fmt_vec(x)}")
        for short, long in (((0,) * (dims - 1), (0,) * (dims + 1)), ((), (0,) * (dims + 2))):
            for x, z, given in ((short, cf.bottom, short), (cf.top, long, long), (short, long, long)):
                expected = DimensionMismatch, f"expected {dims} coordinates, got {len(given)}"
                assert outcome(x, z) == expected


def test_patched_leq_reaches_co_heyting_sub(monkeypatch):
    """A class patch of leq made after construction, and an instance
    attribute leq, are each called once by cf.co_heyting_sub, which keeps
    its closed form, and each turns off the window's tables while it
    holds; undoing either brings them back."""
    cf = OrdinalCoframe(3)
    box = cf.box(2)
    x, z = (1, 2, INF), (2, 2, INF)
    calls = []
    real = OrdinalCoframe.leq

    def counting(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(OrdinalCoframe, "leq", counting)
        assert cf.window_tables(box) is None
        assert cf.co_heyting_sub(x, z) == co_heyting_sub_reference(x, z)
        assert calls == [(z, x)]
    assert cf.window_tables(box).sub_rows() is not None
    calls.clear()
    cf.leq = lambda a, b: calls.append((a, b)) or real(cf, a, b)
    assert cf.window_tables(box) is None
    with pytest.raises(NotBelow):
        cf.co_heyting_sub(z, x)
    assert calls == [(x, z)]
    del cf.leq
    assert cf.window_tables(box).sub_rows() is not None


def test_overrides_reach_every_use():
    """A subclass that records its join2, meet2 and leq calls sees every
    call that join_of_set, meet_of_set, lt, co_heyting_sub and profile
    make: they reach the kernels only through those methods."""
    calls = []

    class Recording(OrdinalCoframe):
        def join2(self, x, y):
            calls.append(("join2", x, y))
            return super().join2(x, y)

        def meet2(self, x, y):
            calls.append(("meet2", x, y))
            return super().meet2(x, y)

        def leq(self, x, y):
            calls.append(("leq", x, y))
            return super().leq(x, y)

    cf = Recording(3)
    x, y, z = (1, 2, INF), (0, 3, 4), (2, 2, INF)

    def seen(call):
        calls.clear()
        call()
        return list(calls)

    assert seen(lambda: cf.join_of_set([x, y, z])) == [("join2", x, y), ("join2", (0, 2, 4), z)]
    assert seen(lambda: cf.meet_of_set([x, y, z])) == [("meet2", x, y), ("meet2", (1, 3, INF), z)]
    assert seen(lambda: cf.lt(z, x)) == [("leq", z, x)]
    assert seen(lambda: cf.co_heyting_sub(x, z)) == [("leq", z, x)]
    # the boundary is the join of the residues at coordinates 0 and 1
    assert seen(lambda: cf.profile(x)) == [("join2", (1, INF, INF), (INF, 2, INF))]


PRIMITIVES = (
    ("join2", join_reference),
    ("meet2", meet_reference),
    ("leq", leq_reference),
)


def test_primitives_called_off_the_class():
    """join2, meet2 and leq read off the class take the instance first
    and give the kernel's answer, and a wrong length in either argument
    raises the same DimensionMismatch message as through the instance."""
    cf = OrdinalCoframe(3)
    box = cf.box(2)
    for name, reference in PRIMITIVES:
        method = getattr(OrdinalCoframe, name)
        for x, y in itertools.product(box, repeat=2):
            assert method(cf, x, y) == getattr(cf, name)(x, y) == reference(x, y), (name, x, y)
        for wrong in ((), (0, 0), (0, 0, 0, 0)):
            message = f"^expected 3 coordinates, got {len(wrong)}$"
            for args in ((wrong, cf.top), (cf.top, wrong)):
                with pytest.raises(DimensionMismatch, match=message):
                    method(cf, *args)
                with pytest.raises(DimensionMismatch, match=message):
                    getattr(cf, name)(*args)


def test_patches_made_after_construction_reach_every_use(monkeypatch):
    """A class patch of join2 made after the instance was built reaches
    cf.join2 and run_all, and turns off the window's tables while it
    holds; undoing it brings them back.  An instance patch does the same,
    and a recording subclass sees as many joins in run_all as the class
    patch."""
    from residua.laws import run_all

    cf = OrdinalCoframe(2)
    box = cf.box(4)
    joins = []
    real = OrdinalCoframe.join2

    def counting(self, x, y):
        joins.append((x, y))
        return real(self, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(OrdinalCoframe, "join2", counting)
        assert cf.window_tables(box) is None
        assert cf.join2((1, INF), (2, 0)) == (1, 0)
        assert joins == [((1, INF), (2, 0))]
        joins.clear()
        reports = run_all(cf)
        patched = len(joins)
    docs = [r.to_json_dict() for r in reports]
    assert docs == [r.to_json_dict() for r in run_all(cf)]
    assert sum(r.verdict == "pass" for r in reports) == 16
    assert patched >= len(box) ** 2
    assert cf.window_tables(box) is not None

    seen = []
    cf.join2 = lambda x, y: seen.append((x, y)) or real(cf, x, y)
    assert cf.join_of_set([(1, INF), (2, 0), (0, 3)]) == (0, 0)
    assert seen == [((1, INF), (2, 0)), ((1, 0), (0, 3))]
    assert cf.window_tables(box) is None
    del cf.join2
    assert cf.window_tables(box) is not None

    recorded = []

    class Recording(OrdinalCoframe):
        def join2(self, x, y):
            recorded.append((x, y))
            return super().join2(x, y)

    assert [r.to_json_dict() for r in run_all(Recording(2))] == docs
    assert len(recorded) == patched


def test_window_tables_refuse_short_vectors_and_non_vectors():
    """A window holding a vector shorter than dims, a non-vector or a
    coordinate of another type has no position tables; the box it is
    made from has them."""
    cf = OrdinalCoframe(2)
    box = cf.box(2)
    assert cf.window_tables(box) is not None
    for odd in ((INF,), 7, None, ("a", 0)):
        assert cf.window_tables([*box[:-1], odd]) is None, odd


def test_negative_bounds_are_rejected():
    # bounds are naturals: a negative one would walk vectors with negative
    # coordinates, outside the carrier
    cf2 = OrdinalCoframe(2)
    s1 = lambda z: cf2.cb_level(z) >= 1
    calls = [
        lambda: cf2.box(-1),
        lambda: cf2.isolated_oracle((1, 1), -1),
        lambda: cf2.subspace_isolation_sweep(s1, -3),
        lambda: cf2.check_s1s2_above((INF, 0), (0, 0), -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="negative"):
            call()
    assert cf2.box(0) == [(0, 0), (0, INF), (INF, 0), (INF, INF)]
    # so are coordinates: each is inf or a natural, an int but not a bool
    outside = [
        (lambda: cf2.isolated_oracle((-1, 0), 5), -1),
        (lambda: cf2.cb_level((1.5, 0)), 1.5),
        (lambda: cf2.profile((0.5, 2)), 0.5),
        (lambda: cf2.characterization_predicates((True, 0)), True),
        (lambda: cf2.outcasts((0, -2)), -2),
        (lambda: cf2.check_s1s2_above((INF, 0), (0, 0.0)), 0.0),
    ]
    for call, c in outside:
        message = rf"^coordinate {re.escape(repr(c))} is not a natural; coordinates are naturals or inf$"
        with pytest.raises(ValueError, match=message):
            call()


def test_lattice_laws_on_box(cf2):
    box = cf2.box(2)
    rng = random.Random(0)
    sample = rng.sample(box, 8)
    for x, y in itertools.product(sample, repeat=2):
        assert cf2.meet2(x, y) == cf2.meet2(y, x)
        assert cf2.join2(x, y) == cf2.join2(y, x)
        assert cf2.meet2(x, cf2.join2(x, y)) == x
        assert cf2.join2(x, cf2.meet2(x, y)) == x
    # dual infinite distributivity on finite subsets of the box
    for _ in range(60):
        x = rng.choice(box)
        s = rng.sample(box, rng.randint(1, 4))
        lhs = cf2.join2(x, cf2.meet_of_set(s))
        rhs = cf2.meet_of_set([cf2.join2(x, t) for t in s])
        assert lhs == rhs


def test_dually_compact_closed_form(cf2):
    assert cf2.dually_compact((5, 0))
    assert not cf2.dually_compact((INF, 0))
    assert not cf2.dually_compact(cf2.bottom)


def test_dually_compact_witness_family(cf2):
    # explicit witness: the truncations of a vector with an infinite
    # coordinate form a filtered family whose members never drop below it
    x = (INF, 0)
    family = cf2.truncations(x, 6)
    for a, b in itertools.combinations(family, 2):
        assert cf2.leq(b, a) or cf2.leq(a, b)  # a chain, hence filtered
    assert all(not cf2.leq(f, x) for f in family)
    for k, f in enumerate(family):
        assert cf2.meet_of_set(family[: k + 1]) == f  # partial meets walk down
        assert f == tuple(k if c == INF else c for c in x)


def test_dually_compact_agrees_with_sampled_filtered_families(cf2):
    # definitional direction on bounded families: every sampled filtered
    # family with meet below a compact x has a member below x
    rng = random.Random(1)
    box = cf2.box(4)
    for _ in range(200):
        x = rng.choice(box)
        if not cf2.dually_compact(x):
            continue
        fam = sorted(rng.sample(box, rng.randint(1, 4)), reverse=True)
        chain_fam = [cf2.meet_of_set(fam[: k + 1]) for k in range(len(fam))]
        if cf2.leq(cf2.meet_of_set(chain_fam), x):
            assert any(cf2.leq(f, x) for f in chain_fam)


def test_maximal_subelements_examples(cf2):
    assert cf2.maximal_subelements((3, INF)) == [(4, INF)]
    assert cf2.maximal_subelements((2, 3)) == [(2, 4), (3, 3)]
    assert cf2.maximal_subelements(cf2.bottom) == []


def test_maximal_subelements_cover_property(cf2):
    # each maximal subelement is strictly below with nothing in between
    box = cf2.box(4)
    for x in [(2, 3), (0, INF), (4, 4)]:
        for m in cf2.maximal_subelements(x):
            assert cf2.lt(m, x)
            assert not any(cf2.lt(m, z) and cf2.lt(z, x) for z in box)


def test_profile_dim1():
    cf = OrdinalCoframe(1)
    p = cf.profile((3,))
    assert p.rank == OMEGA
    assert p.core == cf.bottom
    for k in range(5):
        assert p.stratum(k) == ((3 + k,),)
        assert p.rho((3 + k,)) == k
    # the boundary poset is the finite values from 3 on
    for s in [(2,), (INF,)]:
        with pytest.raises(ValueError):
            p.rho(s)


def test_profile_dim2(cf2):
    p = cf2.profile((2, 3))
    assert sorted(p.residues.values()) == [(2, INF), (INF, 3)]
    assert p.boundary == (2, 3)
    assert cf2.outcasts((2, 3)) == []
    assert p.mu == (3, 4)
    assert len(p.maximal) == 2
    assert p.rho((2, INF)) == 0
    assert p.rho((4, INF)) == 2


def test_profile_bottom(cf2):
    p = cf2.profile(cf2.bottom)
    assert p.rank == RankValue.of(0)
    assert p.core == cf2.bottom
    assert p.residues == {}
    assert p.boundary == cf2.bottom


def test_co_heyting_closed_form(cf2):
    assert cf2.co_heyting_sub((2, 3), (2, 4)) == (INF, 3)
    assert cf2.co_heyting_sub((2, 3), (2, 3)) == cf2.bottom
    with pytest.raises(NotBelow):
        cf2.co_heyting_sub((2, 3), (0, 0))
    # z v (x - z) = x on a sampled box
    rng = random.Random(2)
    box = cf2.box(3)
    for _ in range(100):
        x = rng.choice(box)
        z = rng.choice([v for v in box if cf2.leq(v, x)])
        assert cf2.join2(z, cf2.co_heyting_sub(x, z)) == x


def test_isolated_oracle_examples(cf2):
    assert cf2.isolated_oracle((2, 3), 6)
    assert not cf2.isolated_oracle((INF, 0), 6)
    assert not cf2.isolated_oracle(cf2.bottom, 4)
    with pytest.raises(BoundTooSmall):
        cf2.isolated_oracle((2, 3), 4)


def test_characterization_predicates(cf2):
    assert cf2.characterization_predicates((2, 3)) == {"literal": True, "corrected": True}
    assert cf2.characterization_predicates((INF, 0)) == {
        "literal": True,
        "corrected": False,
    }
    assert cf2.characterization_predicates(cf2.bottom) == {
        "literal": True,
        "corrected": False,
    }


def test_disagreement_set_is_vectors_with_infinite_coordinate(cf2):
    for x in cf2.box(4):
        preds = cf2.characterization_predicates(x)
        assert (preds["literal"] != preds["corrected"]) == (INF in x)
        # the boundary is the element itself throughout the testbed
        assert cf2.profile(x).boundary == x


def test_cb_level_examples(cf2):
    assert cf2.cb_level((5, 1)) == 0
    assert cf2.cb_level((INF, 7)) == 1
    assert cf2.cb_level(cf2.bottom) == 2
    cf1 = OrdinalCoframe(1)
    assert cf1.cb_level((INF,)) == 1
    assert cf1.cb_level((0,)) == 0


def test_inf0_isolated_within_first_layer(cf2):
    member = lambda z: cf2.cb_level(z) >= 1
    sweep = cf2.subspace_isolation_sweep(member, 6)
    assert sweep[(INF, 0)]
    assert not sweep[cf2.bottom]


def test_cb_ladder_small_dims():
    for dims in (1, 2):
        cf = OrdinalCoframe(dims)
        for alpha in range(dims + 1):
            sweep = cf.subspace_isolation_sweep(
                lambda z, a=alpha: cf.cb_level(z) >= a, 5
            )
            for x, isolated in sweep.items():
                assert isolated == (cf.cb_level(x) == alpha)


def test_coirreducibles_have_one_finite_coordinate(cf2):
    # bounded definitional scan: exactly one maximal subelement, and every
    # strictly smaller box vector sits below the derivative
    verdicts = set()
    box = cf2.box(4)
    for x in box:
        maxes = cf2.maximal_subelements(x)
        definitional = len(maxes) == 1 and all(
            cf2.leq(z, cf2.meet_of_set(maxes))
            for z in box
            if cf2.lt(z, x)
        )
        assert (len(cf2.finite_coords(x)) == 1) == definitional, x
        verdicts.add(definitional)
    assert verdicts == {True, False}


def test_boundary_members_come_from_strata(cf2):
    x, bound = (2, 3), 5
    p = cf2.profile(x)
    # each member has one finite coordinate, its min
    got = sorted(s for k in range(bound + 1) for s in p.stratum(k) if min(s) <= bound)
    expected = sorted(
        [(v, INF) for v in range(2, 6)] + [(INF, v) for v in range(3, 6)]
    )
    assert got == expected
    # the boundary poset inside box(5): a single finite coordinate, at
    # least x's there, and rho names its stratum
    for z in cf2.box(bound):
        j = cf2.finite_coords(z)
        if len(j) == 1 and z[j[0]] >= x[j[0]]:
            assert z in got and z in p.stratum(p.rho(z))
        else:
            assert z not in got


def test_rank_realization_bounded_iterates(cf2):
    for x in [(0, 0), (3, INF), (2, 5)]:
        p = cf2.profile(x)
        assert p.rank == OMEGA
        iterates = mu_iterates(cf2, x, limit=20)
        assert len(iterates) == 21
        for k in range(20):
            assert iterates[k + 1] == p.iterate(k + 1)
            assert cf2.lt(iterates[k + 1], iterates[k])


def test_dual_algebraicity_via_truncations(cf2):
    for x in [(INF, 0), (INF, INF), (2, INF)]:
        fam = cf2.truncations(x, 8)
        assert all(cf2.dually_compact(f) for f in fam)
        # partial meets stabilize on the finite coordinates and grow
        # unboundedly on the infinite ones; the symbolic limit is x itself
        last = cf2.meet_of_set(fam)
        for j, c in enumerate(x):
            if c != INF:
                assert last[j] == c
            else:
                assert last[j] == 8


def test_compact_meet_closed_and_maximals_compact(cf2):
    box = cf2.box(3)
    for x in box:
        if cf2.dually_compact(x):
            for m in cf2.maximal_subelements(x):
                assert cf2.dually_compact(m)
        for z in box:
            if cf2.dually_compact(x) and cf2.dually_compact(z):
                assert cf2.dually_compact(cf2.meet2(x, z))


def test_s1s2_above_full_pass(cf2):
    rep = cf2.check_s1s2_above((INF, 0), (0, 0), bound=8)
    assert rep.all_clauses_pass
    assert rep.outcast_clause_vacuous
    assert all(v for _, v in rep.converse_samples)
    assert len(rep.converse_samples) == 9
    doc = rep.to_json_dict()
    assert doc["clauses"]["iii_relative_rank_omega"]
    assert doc["x"] == "inf,0" and doc["z"] == "0,0"


def test_s1s2_above_preconditions(cf2):
    with pytest.raises(PreconditionFailed):
        cf2.check_s1s2_above((INF, 0), (INF, 0))  # z not dually compact
    with pytest.raises(PreconditionFailed):
        cf2.check_s1s2_above((2, 3), (0, 0))  # x not in the second layer
    with pytest.raises(PreconditionFailed):
        cf2.check_s1s2_above((INF, 5), (0, 6))  # z not strictly above x


def test_s1s2_above_clauses_can_fail_for_bad_pair():
    cf3 = OrdinalCoframe(3)
    rep = cf3.check_s1s2_above((INF, 0, 5), (0, 0, 0), bound=6)
    assert not rep.all_clauses_pass  # the chosen z mixes residue directions
    good = cf3.check_s1s2_above((INF, 0, 5), (0, 0, 5), bound=6)
    assert good.all_clauses_pass


def test_stability_machinery(cf2):
    # verdicts are stable across the re-check window by construction here
    for x in [(1, 1), (INF, 2), (0, INF)]:
        bound = max(6, cf2.max_finite(x) + 2)
        v1 = cf2.isolated_oracle(x, bound)
        v2 = cf2.isolated_oracle(x, bound + 1)
        assert v1 == v2


def test_whole_space_verdict_is_stable_across_bounds():
    # isolated_oracle searches once; this is the re-check it no longer
    # runs: from max finite + 2 on, every bound gives "all finite"
    reps = {"fin": (0, 3), "inf": (INF,)}
    for dims in range(1, 5):
        cf = OrdinalCoframe(dims)
        for types in itertools.product(reps, repeat=dims):
            for x in itertools.product(*(reps[t] for t in types)):
                for start in range(cf.max_finite(x) + 2, cf.max_finite(x) + 5):
                    verdicts = {cf._separable(x, b) for b in range(start, start + 4)}
                    assert verdicts == {"inf" not in types}, (x, start)


def test_isolated_oracle_searches_once(monkeypatch):
    calls = []
    search = OrdinalCoframe._separable

    def counted(self, *args):
        calls.append(args)
        return search(self, *args)

    monkeypatch.setattr(OrdinalCoframe, "_separable", counted)
    cf = OrdinalCoframe(2)
    for x in [(1, 1), (INF, 2), (INF, INF)]:
        calls.clear()
        assert cf.isolated_oracle(x, 6) == (INF not in x)
        assert calls == [(x, 6)]


def test_subspace_searches_raise_unstable_verdict():
    # the member predicate tells 7 and 8 apart from the larger finite
    # values, which the sweep's search grid at bound 7 lumps into 8
    cf = OrdinalCoframe(1)
    member = lambda z: z[0] == INF or z[0] not in (7, 8)
    with pytest.raises(UnstableVerdict):
        cf.subspace_isolation_sweep(member, 5)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.one_of(st.integers(0, 5), st.just(INF)), min_size=3, max_size=3),
)
def test_characterization_matches_oracle_random(dims, coords):
    cf = OrdinalCoframe(dims)
    x = tuple(coords[:dims])
    bound = max(6, cf.max_finite(x) + 2)
    assert cf.characterization_predicates(x)["corrected"] == cf.isolated_oracle(x, bound)


# -- the isolation search against its exhaustive form -----------------------
#
# OrdinalCoframe decides isolation at the largest positive part only and
# enumerates that open without a grid.  The references below are the
# searches as first written, trying every positive part a <= min(x, bound)
# over the whole search grid; they must give the same verdicts.


def search_grid(cf, bound):
    """Every vector with coordinates in 0..bound + 1 or infinity."""
    values = list(range(bound + 2)) + [INF]
    return [tuple(v) for v in itertools.product(values, repeat=cf.dims)]


def exhaustive_separable(cf, x, bound, members=None):
    grid = search_grid(cf, bound) if members is None else members
    bad = [
        z
        for z in grid
        if z != x
        and all(min(zc, bound) <= xc for zc, xc in zip(z, x))
    ]
    bad.sort(key=lambda z: tuple(-min(c, bound + 2) for c in z))
    ranges = [range(int(min(c, bound)), -1, -1) for c in x]
    for a in itertools.product(*ranges):
        if all(any(zc < ac for zc, ac in zip(z, a)) for z in bad):
            return True
    return False


def exhaustive_sweep(cf, member, bound):
    out = {}
    for b in (bound + 2, bound + 3):
        members = [z for z in search_grid(cf, b) if member(z)]
        capped = [tuple(min(c, b) for c in z) for z in members]
        for x in cf.box(bound):
            if not member(x):
                continue
            bad = [
                z
                for z, zc in zip(members, capped)
                if z != x and all(c <= xc for c, xc in zip(zc, x))
            ]
            ranges = [range(int(min(c, b)), -1, -1) for c in x]
            verdict = any(
                all(any(zc < ac for zc, ac in zip(z, a)) for z in bad)
                for a in itertools.product(*ranges)
            )
            out[x] = verdict
    return out


def test_separable_matches_exhaustive_search():
    verdicts = set()
    for dims, bounds in ((1, range(8)), (2, range(8)), (3, range(5))):
        cf = OrdinalCoframe(dims)
        for bound in bounds:
            # x off the grid too: coordinates up to bound + 3
            for x in search_grid(cf, bound + 2):
                got = cf._separable(x, bound)
                assert got == exhaustive_separable(cf, x, bound), (x, bound)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_sweep_matches_exhaustive_sweep():
    for dims, bound in ((1, 8), (2, 8), (3, 4), (4, 1)):
        cf = OrdinalCoframe(dims)
        members = [lambda z, a=alpha: cf.cb_level(z) >= a for alpha in range(dims + 1)]
        if dims <= 3:
            # these read the finite values too, not only which are infinite
            members.append(lambda z: sum(c for c in z if c != INF) % 2 == 0)
            members.append(lambda z: z[0] == INF or z[0] <= 3)
        for i, member in enumerate(members):
            sweep = cf.subspace_isolation_sweep(member, bound)
            assert sweep == exhaustive_sweep(cf, member, bound), (dims, i)


def test_isolation_depends_only_on_coordinate_types():
    # Per coordinate: finite below the bound, finite at or above it, or
    # infinite.  Both representatives of every type get the same verdict,
    # so the closed forms below hold for every vector, not for one box.
    bound = 5
    reps = {"low": (0, bound - 1), "high": (bound, bound + 7), "inf": (INF,)}
    for dims in range(1, 5):
        cf = OrdinalCoframe(dims)
        levels = [lambda z, a=alpha: cf.cb_level(z) >= a for alpha in range(dims + 1)]
        for types in itertools.product(reps, repeat=dims):
            xs = list(itertools.product(*(reps[t] for t in types)))
            infinite = types.count("inf")
            verdicts = {cf._separable(x, bound) for x in xs}
            assert len(verdicts) == 1, types
            if "high" not in types:
                assert verdicts == {infinite == 0}, types
            for alpha, member in enumerate(levels):
                verdicts = {cf._separable(x, bound, member) for x in xs}
                assert len(verdicts) == 1, (types, alpha)
                if "high" not in types and infinite >= alpha:
                    assert verdicts == {infinite == alpha}, (types, alpha)
