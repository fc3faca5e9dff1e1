import itertools
import json
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from residua.bitset import bits, contains, full_mask, mask_of
from residua.errors import CycleDetected, LatticeIntegrityError, NotALattice, TooLarge, UnknownElement
from residua.lattice import (
    LATTICE_SIZE_CAP,
    FinitePoset,
    _join_prime_distributive,
    as_lattice,
    build_poset,
    canonical_json,
    join_of_set,
    lattice_from_json,
    meet_of_set,
    poset_from_json,
)
from residua.generators import boolean, chain
from residua.laws import mutate_entry

from conftest import birkhoff_rows


def subsets(mask: int):
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _distributivity_witness(n: int, meet, join):
    """First triple with x ^ (y v z) != (x ^ y) v (x ^ z), or None.

    Reads only the tables, never the order."""
    for x in range(n):
        mx = meet[x]
        for y in range(n):
            mxy = mx[y]
            jrow = join[mxy]
            jy = join[y]
            for z in range(n):
                if mx[jy[z]] != jrow[mx[z]]:
                    return (x, y, z)
    return None


def closure_oracle(names, pairs):
    """Reflexive-transitive closure by pair-set saturation (independent of
    the bitmask row implementation)."""
    rel = {(a, a) for a in names}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def test_chain_closure_has_six_entries():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert sum(bin(row).count("1") for row in p.up) == 6


def test_two_cycle_raises():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


@pytest.mark.parametrize(
    "up, down, message",
    [
        # a <= b <= c without a <= c.
        ((0b011, 0b110, 0b100), (0b001, 0b011, 0b110), "transitivity fails at (a,b,c)"),
        # a and b form a 2-cycle in the up rows that diagonal down rows hide
        # from the antisymmetry test, and c <= d is missing above a.  The
        # up row of each of a and b is itself plus the other's: a cover test
        # that did not also ask that no cover's up row holds the element
        # below it would pass these rows.
        ((0b0111, 0b0111, 0b1100, 0b1000), (1, 2, 4, 8), "transitivity fails at (a,c,d)"),
        # The missing pair lies above an element of larger index.
        ((0b1001, 0b0110, 0b0100, 0b1100), (0b0001, 0b0010, 0b0110, 0b1001), "transitivity fails at (a,d,c)"),
    ],
)
def test_non_transitive_rows_raise_the_first_fault(up, down, message):
    p = FinitePoset(n=len(up), names=tuple("abcd"[: len(up)]), up=up, down=down)
    with pytest.raises(CycleDetected) as raised:
        p.verify_axioms()
    assert str(raised.value) == message


def test_unknown_element_raises():
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "z")])


def test_diamond_closure_matches_pair_oracle():
    names = ["0", "a", "b", "1"]
    covers = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    p = build_poset(names, covers)
    expected = closure_oracle(names, covers)
    got = {
        (names[i], names[j])
        for i in range(p.n)
        for j in bits(p.up[i])
    }
    assert got == expected
    a, b = p.index_of("a"), p.index_of("b")
    assert not p.leq(a, b) and not p.leq(b, a)


def test_leq_mode_accepts_closed_relation():
    names = ["x", "y", "z"]
    rel = [("x", "y"), ("y", "z"), ("x", "z")]
    p = build_poset(names, rel, mode="leq")
    assert p.leq(0, 2)


def test_diamond_is_distributive_by_triple_scan(b2):
    n = b2.n
    for x, y, z in itertools.product(range(n), repeat=3):
        assert b2.meet2(x, b2.join2(y, z)) == b2.join2(b2.meet2(x, y), b2.meet2(x, z))
    assert b2.distributive


def test_pentagon_not_distributive_by_triple_scan(n5):
    found = any(
        n5.meet2(x, n5.join2(y, z)) != n5.join2(n5.meet2(x, y), n5.meet2(x, z))
        for x, y, z in itertools.product(range(n5.n), repeat=3)
    )
    assert found
    assert not n5.distributive and not n5.coframe


def birkhoff_all_pairs(p, join) -> bool:
    """Birkhoff's criterion on every pair: ``J(x v y) = J(x) | J(y)``
    for all x < y, where J(x) is the set of join-irreducibles below x."""
    J = [row & p.irreducibles for row in p.down]
    return all(J[join[x][y]] == J[x] | J[y] for x in range(p.n) for y in range(x + 1, p.n))


def distributivity_verdicts(L):
    """Five verdicts that must agree: the join-prime test on the order
    rows, Birkhoff's criterion on the join-irreducible rows and on every
    pair, the table-based triple scan, and ``L.distributive``."""
    return (
        _join_prime_distributive(L.poset),
        birkhoff_rows(L.poset, L.join),
        birkhoff_all_pairs(L.poset, L.join),
        _distributivity_witness(L.n, L.meet, L.join) is None,
        L.distributive,
    )


def test_birkhoff_agrees_with_triple_scan(lattice_corpus):
    """as_lattice decides distributivity by join-primes on the order rows;
    Birkhoff's criterion on the rows and on all pairs and the triple scan
    are its oracles."""
    non_distributive = 0
    for L in lattice_corpus:
        verdicts = distributivity_verdicts(L)
        assert len(set(verdicts)) == 1, (L.provenance, verdicts)
        non_distributive += not verdicts[0]
    assert non_distributive >= 100


@st.composite
def bounded_posets(draw):
    """Random orders on 1-6 elements with a bottom and a top added, in a
    random index order: mostly lattices, half of them not distributive."""
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    names = [f"e{i}" for i in range(n)] + ["bot", "top"]
    relation = [(names[min(a, b)], names[max(a, b)]) for a, b in pairs if a != b]
    relation += [("bot", name) for name in names[:n]] + [(name, "top") for name in names[: n + 1]]
    return build_poset(draw(st.permutations(names)), relation, "leq")


@settings(max_examples=300, deadline=None)
@given(bounded_posets())
@example(build_poset(["0", "a", "b", "c", "1"], [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")]))
@example(build_poset(["1", "a", "0", "b", "c"], [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]))
def test_join_primes_agree_with_birkhoff_on_random_lattices(p):
    """The pentagon, the diamond M3 and random bounded posets that
    ``as_lattice`` accepts, in index orders that are or are not linear
    extensions."""
    try:
        L = as_lattice(p)
    except NotALattice:
        assume(False)
    verdicts = distributivity_verdicts(L)
    assert len(set(verdicts)) == 1, verdicts


def test_antichain_is_not_a_lattice():
    p = build_poset(["a", "b"], [])
    with pytest.raises(NotALattice):
        as_lattice(p)


def test_down_and_up_sets(chain3, b2):
    assert chain3.down_set(1) == mask_of([0, 1])
    assert chain3.down_set(chain3.bottom) == 1 << chain3.bottom
    a = b2.names.index("{a0}")
    assert b2.up_set(a) == mask_of([a, b2.top])


def test_down_up_agree_with_relation_matrix(div12):
    for x in div12.elements():
        assert div12.down_set(x) == mask_of(
            z for z in div12.elements() if div12.leq(z, x)
        )
        assert div12.up_set(x) == mask_of(
            z for z in div12.elements() if div12.leq(x, z)
        )


def test_meet_join_of_set(b2, div12):
    a, b = b2.names.index("{a0}"), b2.names.index("{a1}")
    assert meet_of_set(b2, [a, b]) == b2.bottom
    assert join_of_set(b2, []) == b2.bottom
    assert meet_of_set(b2, []) == b2.top
    # gcd oracle on the divisor lattice
    four, six = div12.names.index("4"), div12.names.index("6")
    assert div12.names[meet_of_set(div12, [four, six])] == str(gcd(4, 6))
    for i in div12.elements():
        for j in div12.elements():
            di, dj = int(div12.names[i]), int(div12.names[j])
            assert int(div12.names[div12.meet2(i, j)]) == gcd(di, dj)
            assert int(div12.names[div12.join2(i, j)]) == di * dj // gcd(di, dj)


def fold_passes_two_conditions(rows, table, xs) -> bool:
    """The fold check written as two conditions: the folded element is a
    common bound, and every common bound lies beyond it."""
    acc, common = xs[0], rows[xs[0]]
    for x in xs[1:]:
        acc = table[acc][x]
        common &= rows[x]
    return contains(common, acc) and common & ~rows[acc] == 0


def fold_raises(fold, xs) -> bool:
    try:
        fold(xs)
    except LatticeIntegrityError:
        return True
    return False


def test_one_comparison_fold_check_matches_two_conditions(lattice_corpus):
    cases = [(L, None) for L in lattice_corpus]
    nondistributive = next(L for L in lattice_corpus if not L.distributive and L.n >= 6)
    for L in (boolean(3), nondistributive):
        for table in ("meet", "join"):
            for i, j in itertools.product(L.elements(), repeat=2):
                for v in L.elements():
                    if v != getattr(L, table)[i][j]:
                        cases.append((mutate_entry(L, table, i, j, v), (i, j)))
    raised = 0
    for L, entry in cases:
        if entry is None:
            folds = [[a, b] for a in L.elements() for b in L.elements()]
        else:
            # every fold that reads the mutated entry first or second
            i, j = entry
            folds = [[i, j], *([i, j, k] for k in L.elements()), *([k, i, j] for k in L.elements())]
        for xs in folds:
            for fold, rows, table in (
                (L.meet_of_set, L.poset.down, L.meet),
                (L.join_of_set, L.poset.up, L.join),
            ):
                expected = not fold_passes_two_conditions(rows, table, xs)
                assert fold_raises(fold, xs) == expected, (L.provenance, xs)
                raised += expected
    assert raised >= 1000


def _filtered_subsets(L):
    for mask in subsets(full_mask(L.n)):
        if mask == 0:
            continue
        members = list(bits(mask))
        if all(
            any(L.leq(c, a) and L.leq(c, b) for c in members)
            for a in members
            for b in members
        ):
            yield members


def _dually_compact_oracle(L, x):
    """Definitional check, with meets recomputed from the order matrix."""
    for members in _filtered_subsets(L):
        lower = full_mask(L.n)
        for m in members:
            lower &= L.down_set(m)
        inf = max(bits(lower), key=lambda c: bin(L.down_set(c)).count("1"))
        if L.leq(inf, x) and not any(L.leq(f, x) for f in members):
            return False
    return True


def test_every_finite_element_dually_compact(b2, chain3):
    for L in (b2, chain3, chain(4)):
        for x in L.elements():
            assert L.dually_compact(x)
            assert _dually_compact_oracle(L, x)
    single = chain(1)
    assert single.dually_compact(single.bottom)


def test_tables_commutative_associative_absorptive(b3, div12, n5):
    for L in (b3, div12, n5):
        for i, j in itertools.product(L.elements(), repeat=2):
            assert L.meet2(i, j) == L.meet2(j, i)
            assert L.join2(i, j) == L.join2(j, i)
            assert L.meet2(i, L.join2(i, j)) == i
            assert L.join2(i, L.meet2(i, j)) == i
        for i, j, k in itertools.product(L.elements(), repeat=3):
            assert L.meet2(i, L.meet2(j, k)) == L.meet2(L.meet2(i, j), k)
            assert L.join2(i, L.join2(j, k)) == L.join2(L.join2(i, j), k)


def dual_distributivity_holds(L, subset_cap: int = 12, samples=None) -> bool:
    """Independent coframe test: x v /\\S == /\\(x v s) over subsets S.

    Exhaustive over all subsets when n <= subset_cap, over the supplied
    sample masks otherwise.
    """
    if L.n <= subset_cap:
        candidate_masks = list(subsets(L.full()))
    else:
        candidate_masks = list(samples or [])
    for x in L.elements():
        for mask in candidate_masks:
            members = list(bits(mask))
            if not members:
                continue
            lhs = L.join2(x, L.meet_of_set(members))
            rhs = L.meet_of_set([L.join2(x, s) for s in members])
            if lhs != rhs:
                return False
    return True


def test_coframe_flag_matches_independent_dual_distributivity(b3, div12, n5, m3):
    for L in (b3, div12, n5, m3):
        assert L.coframe == L.distributive
        assert dual_distributivity_holds(L) == L.coframe


def test_bottom_is_least_and_neutral(div12):
    for x in div12.elements():
        assert div12.leq(div12.bottom, x)
        assert div12.join2(div12.bottom, x) == x
        assert div12.meet2(div12.bottom, x) == div12.bottom


def test_json_round_trip_is_byte_identical(div12, b2):
    for L in (div12, b2):
        doc = canonical_json(L.to_json_dict())
        reloaded = lattice_from_json(json.loads(doc))
        assert canonical_json(reloaded.to_json_dict()) == doc


def test_poset_json_modes():
    doc = {"elements": ["a", "b", "c"], "relation": [["a", "b"], ["b", "c"]], "mode": "covers"}
    p = poset_from_json(doc)
    assert p.leq(0, 2)


def test_poset_json_above_the_size_cap_is_refused_before_the_closure(monkeypatch):
    import residua.lattice

    def no_closure(*args, **kwargs):
        raise AssertionError("build_poset reached")

    names = [f"e{i}" for i in range(LATTICE_SIZE_CAP + 1)]
    monkeypatch.setattr(residua.lattice, "build_poset", no_closure)
    with pytest.raises(TooLarge, match=str(LATTICE_SIZE_CAP)):
        poset_from_json({"elements": names, "relation": []})
    with pytest.raises(ValueError, match="relation"):
        poset_from_json({"elements": names})
    with pytest.raises(AssertionError, match="build_poset reached"):
        poset_from_json({"elements": names[:LATTICE_SIZE_CAP], "relation": []})


def test_dot_export(b2, chain3):
    dot = b2.to_dot()
    assert dot.count("label=") == 4
    assert dot.count("->") == 4
    assert chain(1).to_dot().count("label=") == 1


@st.composite
def cover_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=10,
        )
    )
    return n, pairs


@settings(max_examples=60, deadline=None)
@given(cover_sets())
def test_poset_axioms_hold_after_construction(data):
    n, pairs = data
    names = [str(i) for i in range(n)]
    p = build_poset(names, [(names[i], names[j]) for i, j in pairs], mode="leq")
    for i in range(n):
        assert p.leq(i, i)
        for j in range(n):
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in range(n):
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)
