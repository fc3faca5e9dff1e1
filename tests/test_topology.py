import pytest

from residua.bitset import bits, full_mask
from residua.errors import NotT1, PreconditionFailed, TooLarge
from residua.generators import boolean, chain, divisor
from residua.lattice import lattice_from_json
from residua.topology import (
    FiniteTopology,
    cb_sequence,
    check_isolated_below_conditions_finite,
    check_order_compatible,
    closed_set_lattice,
    dual_lawson,
    is_order_convex,
    locally_constant_core,
    residual_equals_cb_closedsets,
)
import random


def isolated_oracle(t, s):
    """Per-point scan over the materialized open family."""
    out = 0
    for x in bits(s):
        if any(o & s == 1 << x for o in t.opens):
            out |= 1 << x
    return out


def verify_closure_properties(t):
    """Exhaustively confirm closure under union and finite intersection."""
    opens = set(t.opens)
    if 0 not in opens or full_mask(t.n) not in opens:
        raise AssertionError("topology must contain the empty set and the space")
    for a in opens:
        for b in opens:
            if a | b not in opens or a & b not in opens:
                raise AssertionError("open family not closed under union/intersection")


def test_sierpinski():
    t = FiniteTopology.from_subbase(2, [[0]])
    assert set(t.opens) == {0, 0b01, 0b11}
    assert t.isolated_points(0b11) == 0b01


def test_indiscrete():
    t = FiniteTopology.from_subbase(3, [])
    assert set(t.opens) == {0, 0b111}
    assert t.isolated_points(0b111) == 0
    assert cb_sequence(t).rank == 0
    assert cb_sequence(t).levels == (0b111,)


def test_discrete_from_singletons():
    t = FiniteTopology.from_subbase(4, [[i] for i in range(4)])
    assert len(t.opens) == 16
    assert t.is_discrete
    assert t.isolated_points(full_mask(4)) == full_mask(4)


def test_from_subbase_closure_properties():
    for subbase in ([], [[0]], [[0, 1], [1, 2]], [[0], [1], [2]]):
        t = FiniteTopology.from_subbase(3, subbase)
        verify_closure_properties(t)


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
    assert len(dual_lawson(chain3).opens) == 8
    assert len(dual_lawson(b2).opens) == 16


def test_dual_lawson_discrete_on_64_elements():
    L = boolean(6)
    assert L.n == 64
    t = dual_lawson(L)
    assert t.is_discrete
    assert check_order_compatible(L, t).all_pass


def test_dual_lawson_base_is_order_convex(div12):
    everything = full_mask(div12.n)
    for x in div12.elements():
        assert is_order_convex(div12, div12.down_set(x))
        assert is_order_convex(div12, everything & ~div12.down_set(x))


def test_downset_compact_by_finite_subcover(chain3, b2):
    # finite plumbing check: every open cover of a downset has a finite subcover
    for L in (chain3, b2):
        t = dual_lawson(L)
        for x in L.elements():
            target = L.down_set(x)
            cover = [o for o in t.opens if o & target]
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


def test_order_compatible_nets_report_the_first_failing_pair():
    """A hand-built topology whose minimal neighbourhoods miss their own
    points fails the nets condition at every pair; the witness is the
    first pair, row-major, as for the other two conditions."""
    L = chain(3)
    t = FiniteTopology(n=3, subbase=(), min_nbhd=(0b010, 0b100, 0b001))
    rep = check_order_compatible(L, t)
    assert not rep.monotone_nets_converge
    assert rep.witness == {"condition": "nets", "pair": [L.names[0], L.names[0]]}


def nets_pair_loop(L, t):
    """The first pair x <= y, row-major, with x or y outside its own
    minimal neighbourhood, by the loop over every such pair."""
    for x in L.elements():
        for y in bits(L.up_set(x)):
            if not (t.min_nbhd[x] >> x & 1 and t.min_nbhd[y] >> y & 1):
                return {"condition": "nets", "pair": [L.names[x], L.names[y]]}
    return None


def test_order_compatible_nets_witness_matches_the_pair_loop():
    """The nets witness is the pair loop's first failing pair, also when
    its y is not x: on a chain whose top alone misses its neighbourhood
    it is (bottom, top), and on random neighbourhoods over relabeled
    lattices the two agree."""
    L = chain(3)
    t = FiniteTopology(n=3, subbase=(), min_nbhd=(0b001, 0b010, 0b001))
    rep = check_order_compatible(L, t)
    assert not rep.monotone_nets_converge
    assert rep.witness == {"condition": "nets", "pair": [L.names[0], L.names[2]]}
    rng = random.Random(40)
    distinct = 0
    for L in (chain(4), boolean(2), boolean(3), divisor(12), divisor(30)):
        for seed in range(3):
            doc = L.to_json_dict()
            rng.shuffle(doc["elements"])
            M = lattice_from_json(doc)
            for _ in range(30):
                nbhd = tuple(
                    rng.getrandbits(M.n) | (1 << x if rng.random() < 0.85 else 0) for x in M.elements()
                )
                t = FiniteTopology(n=M.n, subbase=(), min_nbhd=nbhd)
                want = nets_pair_loop(M, t)
                rep = check_order_compatible(M, t)
                assert rep.monotone_nets_converge == (want is None), (M.names, nbhd)
                if want is not None:
                    assert rep.witness == want, (M.names, nbhd)
                    distinct += want["pair"][0] != want["pair"][1]
    assert distinct > 0


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


def test_opens_materialization_cap():
    t = FiniteTopology.from_subbase(30, [[i] for i in range(30)])
    with pytest.raises(TooLarge):
        t.opens


def test_locally_constant_core_on_discrete(chain3):
    from residua.residual import mu_iterates

    t = dual_lawson(chain3)
    cores = {x: mu_iterates(chain3, x)[-1] for x in chain3.elements()}
    for x in chain3.elements():
        assert locally_constant_core(chain3, t, x, cores)


def test_isolated_below_finite_precondition(b3):
    t = dual_lawson(b3)
    with pytest.raises(PreconditionFailed):
        check_isolated_below_conditions_finite(b3, t, b3.top)


def test_isolated_below_finite_fixture():
    # pretend topology on a 3-chain putting the bottom in the second layer
    L = chain(3)
    t = FiniteTopology.from_subbase(3, [[1], [2], [0, 1]])
    rep = check_isolated_below_conditions_finite(L, t, 0)
    assert not rep.vacuous
    assert rep.clauses["no_t0_outcast"] is True
    assert rep.clauses["tail_dually_compact"] is True
    assert "net_strictly_below" in rep.clauses


def test_isolated_below_finite_report_names_the_element():
    L = chain(3)
    t = FiniteTopology.from_subbase(3, [[1], [2], [0, 1]])
    doc = check_isolated_below_conditions_finite(L, t, 0).to_json_dict()
    assert doc["x"] == L.names[0]
    assert doc["vacuous"] is False
    assert list(doc["clauses"]) == sorted(doc["clauses"])
