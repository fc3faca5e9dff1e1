import pytest

from residua.bitset import bits, contains, full_mask
from residua.errors import NotT1, TooLarge
from residua.generators import boolean, chain, divisor
from residua.lattice import lattice_from_json
from residua.topology import (
    FiniteTopology,
    OrderCompatReport,
    _join_witness,
    _order_witness,
    cb_sequence,
    check_order_compatible,
    closed_set_lattice,
    dual_lawson,
    residual_equals_cb_closedsets,
)
import random


def opens(t):
    """The full open-set family, sorted.  Every open set is the union of
    the minimal neighborhoods of its points, so the family is enumerated
    from point subsets: 2^n of them."""
    found = {0}
    for s in range(1 << t.n):
        acc = 0
        for x in bits(s):
            acc |= t.min_nbhd[x]
        found.add(acc)
    return tuple(sorted(found))


def isolated_oracle(t, s):
    """Per-point scan over the materialized open family."""
    out = 0
    family = opens(t)
    for x in bits(s):
        if any(o & s == 1 << x for o in family):
            out |= 1 << x
    return out


def verify_closure_properties(t):
    """Exhaustively confirm closure under union and finite intersection."""
    family = set(opens(t))
    if 0 not in family or full_mask(t.n) not in family:
        raise AssertionError("topology must contain the empty set and the space")
    for a in family:
        for b in family:
            if a | b not in family or a & b not in family:
                raise AssertionError("open family not closed under union/intersection")


def test_sierpinski():
    t = FiniteTopology.from_subbase(2, [[0]])
    assert set(opens(t)) == {0, 0b01, 0b11}
    assert t.isolated_points(0b11) == 0b01


def test_indiscrete():
    t = FiniteTopology.from_subbase(3, [])
    assert set(opens(t)) == {0, 0b111}
    assert t.isolated_points(0b111) == 0
    assert cb_sequence(t).rank == 0
    assert cb_sequence(t).levels == (0b111,)


def test_discrete_from_singletons():
    t = FiniteTopology.from_subbase(4, [[i] for i in range(4)])
    assert len(opens(t)) == 16
    assert t.is_discrete
    assert t.isolated_points(full_mask(4)) == full_mask(4)


def test_from_subbase_closure_properties():
    for subbase in ([], [[0]], [[0, 1], [1, 2]], [[0], [1], [2]]):
        t = FiniteTopology.from_subbase(3, subbase)
        verify_closure_properties(t)
    # Inputs outside the carrier are rejected, naming the bad n or point.
    with pytest.raises(ValueError, match="n = -1"):
        FiniteTopology.from_subbase(-1, [])
    for subbase, point in (([[-1]], -1), ([[0, 3]], 3), ([0b1001], 3), ([-1], 3)):
        with pytest.raises(ValueError, match=rf"^point {point} is outside the carrier 0\.\.2$"):
            FiniteTopology.from_subbase(3, subbase)
    for s, point in ((1 << t.n, 3), (0b10111, 4), (-1, 3)):
        with pytest.raises(ValueError, match=rf"^point {point} is outside the carrier 0\.\.2$"):
            t.isolated_points(s)


def test_isolated_points_agree_with_open_family_scan():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        subbase = [
            [i for i in range(n) if rng.random() < 0.5] for _ in range(rng.randint(0, 4))
        ]
        t = FiniteTopology.from_subbase(n, subbase)
        for s in range(1 << n):
            assert t.isolated_points(s) == isolated_oracle(t, s)


def test_cb_sequence_discrete():
    t = FiniteTopology.from_subbase(5, [[i] for i in range(5)])
    seq = cb_sequence(t)
    assert seq.levels == (full_mask(5), 0)
    assert seq.rank == 1


def test_cb_sequence_tail_space():
    # points 0..3 with up-tail subbase: each derivative removes the current
    # maximum, so the sequence steps down one point at a time.
    k = 3
    t = FiniteTopology.from_subbase(k + 1, [list(range(i, k + 1)) for i in range(k + 1)])
    seq = cb_sequence(t)
    assert seq.levels == (0b1111, 0b0111, 0b0011, 0b0001, 0)
    assert seq.rank == k + 1


def test_cb_json_schema():
    t = FiniteTopology.from_subbase(2, [[0]])
    doc = cb_sequence(t).to_json_dict()
    assert set(doc) == {"levels", "rank"}
    assert doc["levels"][0] == [0, 1]
    assert t.to_json_dict() == {"points": 2, "subbase": [[0]]}


def test_dual_lawson_discrete_small(b2, chain3):
    for L in (b2, chain3, divisor(12), boolean(3)):
        t = dual_lawson(L)
        assert t.is_discrete
    assert len(opens(dual_lawson(chain3))) == 8
    assert len(opens(dual_lawson(b2))) == 16


def test_dual_lawson_discrete_on_64_elements():
    L = boolean(6)
    assert L.n == 64
    t = dual_lawson(L)
    assert t.is_discrete
    assert check_order_compatible(L, t).all_pass


def test_downset_compact_by_finite_subcover(chain3, b2):
    # finite plumbing check: every open cover of a downset has a finite subcover
    for L in (chain3, b2):
        t = dual_lawson(L)
        for x in L.elements():
            target = L.down_set(x)
            cover = [o for o in opens(t) if o & target]
            chosen = []
            remaining = target
            for o in cover:
                if remaining == 0:
                    break
                if o & remaining:
                    chosen.append(o)
                    remaining &= ~o
            assert remaining == 0 and len(chosen) <= bin(target).count("1")


def test_order_compatible_verdicts(b2):
    t = dual_lawson(b2)
    rep = check_order_compatible(b2, t)
    assert rep.all_pass
    indiscrete = FiniteTopology.from_subbase(4, [])
    rep = check_order_compatible(b2, indiscrete)
    assert rep.monotone_nets_converge
    assert not rep.order_closed
    assert rep.witness["condition"] == "order_closed"
    two = chain(2)
    rep = check_order_compatible(two, dual_lawson(two))
    assert rep.all_pass


def test_order_compatible_refuses_a_topology_of_another_size(b2, chain3):
    with pytest.raises(ValueError, match="different carriers"):
        check_order_compatible(b2, dual_lawson(chain3))


def test_order_compatible_join_continuity_failure():
    # a topology separating the top from everything below breaks join
    # continuity on a diamond: join of nearby points jumps into {top}
    L = boolean(2)
    t = FiniteTopology.from_subbase(4, [[L.top]])
    rep = check_order_compatible(L, t)
    assert not rep.join_continuous


def nets_pair_loop(L, t):
    """The first pair x <= y, row-major, with x or y outside its own
    minimal neighbourhood, by the loop over every such pair."""
    for x in L.elements():
        for y in bits(L.up_set(x)):
            if not (t.min_nbhd[x] >> x & 1 and t.min_nbhd[y] >> y & 1):
                return {"condition": "nets", "pair": [L.names[x], L.names[y]]}
    return None


def order_compat_pair_loops(L, t):
    """The three conditions by loops over every pair, each stopping at its
    first failing pair, row-major: the flags (nets, join continuity,
    order-closedness) and the first failing condition's witness."""
    nbhd = t.min_nbhd
    nets = nets_pair_loop(L, t)
    join = next(
        (
            {
                "condition": "join_continuity",
                "pair": [L.names[x], L.names[z]],
                "at": [L.names[x2], L.names[z2]],
            }
            for x in L.elements()
            for z in L.elements()
            for x2 in bits(nbhd[x])
            for z2 in bits(nbhd[z])
            if not contains(nbhd[L.join2(x, z)], L.join2(x2, z2))
        ),
        None,
    )
    up_union = [0] * L.n
    for x in L.elements():
        for x2 in bits(nbhd[x]):
            up_union[x] |= L.up_set(x2)
    order = next(
        (
            {"condition": "order_closed", "pair": [L.names[x], L.names[z]]}
            for x in L.elements()
            for z in L.elements()
            if not L.leq(x, z) and nbhd[z] & up_union[x]
        ),
        None,
    )
    return (nets is None, join is None, order is None), nets or join or order


def relabeled(L, rng):
    doc = L.to_json_dict()
    rng.shuffle(doc["elements"])
    return lattice_from_json(doc)


def test_order_compatible_matches_the_pair_loops():
    """All three flags and the witness, in the report and in its JSON
    form, agree with the pair loops on relabeled lattices, over subbases
    of one random mask per point and over random subbases drawn from
    random masks, up sets, down sets and their complements.  Every point
    lies in its own minimal neighbourhood, so the nets never fail; and an
    order-closed topology has a closed diagonal, so on a finite space it
    is order-closed iff it is discrete.  On every discrete space, drawn
    or the one of singletons added per lattice, the report, which is
    then decided without a search, equals the two searches' verdicts."""
    rng = random.Random(41)
    flags, conditions, cases, discrete = set(), set(), 0, 0
    for L in (chain(4), boolean(2), boolean(3), divisor(12), divisor(30)):
        for _ in range(3):
            M = relabeled(L, rng)
            full = full_mask(M.n)
            rows = [row for x in M.elements() for row in (M.up_set(x), M.down_set(x))]
            rows += [full & ~row for row in rows]
            for k in range(361):
                if k == 360:
                    t = FiniteTopology.from_subbase(M.n, [1 << x for x in M.elements()])
                elif k % 2:
                    nbhd = tuple(
                        rng.getrandbits(M.n) | (1 << x if rng.random() < 0.9 else 0)
                        for x in M.elements()
                    )
                    t = FiniteTopology.from_subbase(M.n, nbhd)
                else:
                    members = rng.sample(rows, rng.randint(0, len(rows) // 2))
                    members += [rng.getrandbits(M.n) for _ in range(rng.randint(0, 2))]
                    t = FiniteTopology.from_subbase(M.n, members)
                want_flags, want = order_compat_pair_loops(M, t)
                rep = check_order_compatible(M, t)
                got = (rep.monotone_nets_converge, rep.join_continuous, rep.order_closed)
                assert got == want_flags and rep.witness == want, (M.names, t.subbase)
                assert rep.to_json_dict().get("witness") == want, (M.names, t.subbase)
                assert nets_pair_loop(M, t) is None, (M.names, t.subbase)
                assert rep.order_closed == t.is_discrete, (M.names, t.subbase)
                if t.is_discrete:
                    join, order = _join_witness(M, t), _order_witness(M, t)
                    assert rep == OrderCompatReport(join is None, order is None, join or order)
                    discrete += 1
                flags.add(got)
                conditions.add(want and want["condition"])
                cases += 1
    assert cases >= 5000 and discrete >= 15
    assert conditions == {None, "join_continuity", "order_closed"}
    assert flags >= {(True, True, True), (True, True, False), (True, False, False)}, flags


def test_residual_equals_cb_on_discrete():
    t = FiniteTopology.from_subbase(3, [[0], [1], [2]])
    rep = residual_equals_cb_closedsets(t)
    assert rep.all_match
    assert rep.checked == 8


def test_residual_equals_cb_handles_edge_sets():
    t = FiniteTopology.from_subbase(1, [[0]])
    rep = residual_equals_cb_closedsets(t)
    assert rep.all_match and rep.checked == 2


def test_residual_equals_cb_requires_t1():
    with pytest.raises(NotT1):
        residual_equals_cb_closedsets(FiniteTopology.from_subbase(2, [[0]]))


def test_closed_set_lattice_matches_powerset_on_discrete():
    t = FiniteTopology.from_subbase(3, [[0], [1], [2]])
    lat = closed_set_lattice(t)
    closeds = lat.sets
    assert lat.n == 8
    assert lat.distributive
    index = {m: i for i, m in enumerate(closeds)}
    for a in closeds:
        for b in closeds:
            assert closeds[lat.meet2(index[a], index[b])] == a & b
            assert closeds[lat.join2(index[a], index[b])] == a | b


def test_closed_sets_agree_with_the_open_family():
    """The closed sets, enumerated on the closure rows, are the
    complements of the open family, the space is T1 iff each singleton's
    complement is open, and the minimal neighbourhood rows are a preorder
    (each point in its own row, each row holding the rows of its points),
    on random subbases over 0-6 points and on members whose hand-built
    rows (0b011, 0b110, 0b100) would not be one."""
    rng = random.Random(41)
    cases = []
    for _ in range(1200):
        n = rng.randint(0, 6)
        subbase = [rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))]
        if rng.random() < 0.3:
            subbase += [1 << x for x in range(n) if rng.random() < 0.8]
        cases.append((n, subbase))
    cases.append((3, [0b011, 0b110, 0b100]))
    t1 = 0
    for n, subbase in cases:
        t = FiniteTopology.from_subbase(n, subbase)
        rows = t.min_nbhd
        for x, row in enumerate(rows):
            assert contains(row, x) and all(rows[y] & ~row == 0 for y in bits(row)), (n, subbase)
        family = opens(t)
        want = {full_mask(n) & ~o for o in family}
        sets = closed_set_lattice(t).sets
        assert len(sets) == len(want) and set(sets) == want, (n, subbase)
        assert list(sets) == sorted(want, key=lambda m: (m.bit_count(), m))
        is_t1 = all(full_mask(n) & ~(1 << x) in family for x in range(n))
        assert t.is_t1 == is_t1, (n, subbase)
        t1 += is_t1 and n > 1
    assert 100 < t1 < 1100


def test_closed_set_enumeration_cap():
    for n in (21, 30):
        t = FiniteTopology.from_subbase(n, [[i] for i in range(n)])
        with pytest.raises(TooLarge):
            closed_set_lattice(t)
