import functools
import itertools
import json
import random
import sys
from dataclasses import fields, replace

import pytest

import residua.laws
import residua.residual
from residua.bitset import bits, contains, mask_of
from residua.errors import LatticeIntegrityError, NotBelow
from residua.generators import (
    boolean,
    chain,
    divisor,
    downset_lattice,
    generate,
    random_distributive,
)
from residua.lattice import FiniteLattice, build_poset, lattice_from_json
from residua.laws import (
    REGISTRY,
    SUBSET_EXHAUSTIVE_BITS,
    WINDOW_BOUND,
    LawId,
    _Ctx,
    _fold_downset_subsets,
    _join_fault_witness,
    _key,
    mutate_entry,
    run_all,
    run_law,
)
from residua.residual import (
    classify_t,
    co_heyting_sub,
    maximal_subelements,
    outcasts,
    residual_derivative,
    residual_profile,
)

from conftest import co_heyting_scan

# The one-checker-per-invariant table: every invariant of the residual
# calculus and every structural law has exactly one registry entry.
EXPECTED_INVARIANTS = {
    LawId.COHEYTING_JOIN: "z v (x-z) = x for z <= x",
    LawId.MU_RESIDUE_DECOMP: "x = mu(x) v join of residues",
    LawId.CORE_RESIDUE_DECOMP: "x = core(x) v join of residues",
    LawId.MAXIMALS_JOIN: "distinct maximal subelements join to x",
    LawId.MAXIMALS_MEET_MAXIMAL: "meet of distinct maximals is maximal in each",
    LawId.RESIDUE_UNIQUE_MAXIMAL: "residues have one maximal, bounded derivative, no outcast",
    LawId.MAXIMAL_FORMULA: "m = mu(x) v join of other residues",
    LawId.MU_RESIDUE_BOUND: "residues of mu(x) sit under the boundary",
    LawId.OUTCAST_TRICHOTOMY: "outcast iff core escapes boundary iff boundary strict",
    LawId.STRATA_RANKED: "boundary poset is ranked; strata are antichains",
    LawId.STRATUM0_CHARACTERIZATION: "stratum 0 via join-irredundancy in delta-plus",
    LawId.DELTA_EQUALS_DELTA_PLUS: "boundary poset equals delta-plus",
    LawId.TYPE_SUBADDITIVE: "|M(x v z)| <= |M(x)| + |M(z)|",
    LawId.SUBELEMENT_DECOMP: "z = (z ^ core) v boundary members under z",
    LawId.MU_MONOTONE: "derivative is monotone",
    LawId.MU_JOIN_HOM: "derivative is a join homomorphism",
    LawId.MINMAX_BOUND: "monotone pair bound",
    LawId.BOUNDARY_REMOVAL_DESCENT: "removing boundary members is a maximal descent",
    LawId.CORE_UNION: "core is the join of zero-maximal elements below",
    LawId.CORE_DECOMP: "zero-maximal y <= x v z splits into cores",
    LawId.CORE_JOIN_HOM: "core is a join homomorphism",
    LawId.T0_UPPER_SEMILATTICE: "zero-maximal family closed under join with bottom",
    LawId.X_MINUS_BOUNDARY_T0: "x minus boundary is zero-maximal under the core",
    LawId.DOWNSET_UPPER_COMPLETE: "downsets are upper complete",
    LawId.K_LOWER_SEMILATTICE: "dually compact elements form a lower semilattice",
    LawId.MAXIMALS_DUALLY_COMPACT: "maximal subelements of compact elements are compact",
}


def test_registry_covers_every_invariant_exactly_once():
    assert len(REGISTRY) >= 22
    assert set(REGISTRY) == set(EXPECTED_INVARIANTS)
    for law, spec in REGISTRY.items():
        assert spec.invariant_key == EXPECTED_INVARIANTS[law]
    keys = [spec.invariant_key for spec in REGISTRY.values()]
    assert len(keys) == len(set(keys))


def test_core_residue_on_b3_exhaustive(b3):
    rep = run_law(b3, LawId.CORE_RESIDUE_DECOMP)
    assert rep.verdict == "pass"
    assert rep.checked == 8
    assert rep.exhaustive


def test_coheyting_skipped_on_pentagon(n5):
    rep = run_law(n5, LawId.COHEYTING_JOIN)
    assert rep.verdict == "skipped"
    assert rep.reason == "not a coframe"


def test_mu_join_hom_on_divisor60_all_pairs():
    rep = run_law(divisor(60), LawId.MU_JOIN_HOM)
    assert rep.verdict == "pass"
    assert rep.checked == 144
    assert rep.exhaustive


def test_run_all_on_n_poset_downsets():
    # the 4-element N-shaped poset: a < c, b < c, b < d
    p = build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])
    L = downset_lattice(p)
    reports = run_all(L)
    assert all(r.verdict == "pass" for r in reports)


def test_run_all_on_seeded_random():
    L = random_distributive(7, 50)
    reports = run_all(L)
    assert all(r.verdict == "pass" for r in reports)


def test_m3_skips_coframe_laws_passes_rest(m3):
    reports = run_all(m3)
    verdicts = {r.law: r.verdict for r in reports}
    assert verdicts["coheyting_join"] == "skipped"
    assert verdicts["maximals_join"] == "pass"
    assert verdicts["downset_upper_complete"] == "pass"
    assert verdicts["k_lower_semilattice"] == "pass"
    assert not any(r.verdict == "fail" for r in reports)


def test_family_hypothesis_gate(b3):
    # a family without the bottom is skipped, not asserted
    atoms = [x for x in b3.elements() if bin(b3.down_set(x)).count("1") == 2]
    rep = run_law(b3, LawId.MU_RESIDUE_DECOMP, family=atoms)
    assert rep.verdict == "skipped"
    assert "bottom" in rep.reason
    # a valid family runs
    rep = run_law(b3, LawId.MU_RESIDUE_DECOMP, family=[b3.bottom, b3.top])
    assert rep.verdict == "pass"


# The laws that check the tables against the order run first, so that a
# mutation is usually decided by one or two laws instead of all 26.
INTEGRITY_FIRST = sorted(
    REGISTRY, key=lambda law: law not in (LawId.DOWNSET_UPPER_COMPLETE, LawId.K_LOWER_SEMILATTICE)
)


def fails_some_law(L) -> bool:
    return any(run_law(L, law).verdict == "fail" for law in INTEGRITY_FIRST)


def single_entry_mutations(L, tables=("meet", "join"), entries=None):
    for table in tables:
        for i, j in entries or itertools.product(L.elements(), repeat=2):
            orig = getattr(L, table)[i][j]
            for v in L.elements():
                if v != orig:
                    yield (table, i, j, v), mutate_entry(L, table, i, j, v)


def test_every_single_entry_mutation_fails_some_law(b2, b3):
    # On boolean:3 every entry; on divisor:60 every meet entry, which the
    # residues no longer read on a distributive lattice, and the join
    # entries [i][j] with i > j, which no folded subset reaches, so that
    # only the check of the whole join table catches some of them, such
    # as ("join", 5, 4, v) on boolean:3 and ("join", 6, 1, 1) on divisor:60.
    d60 = divisor(60)
    cases = itertools.chain(
        single_entry_mutations(b2),
        single_entry_mutations(b3),
        single_entry_mutations(d60, ("meet",)),
        single_entry_mutations(
            d60, ("join",), [(i, j) for i, j in itertools.product(d60.elements(), repeat=2) if i > j]
        ),
    )
    for key, mutated in cases:
        assert fails_some_law(mutated), key


def test_join_entry_no_subset_folds_fails_with_the_table_pair(b3):
    mutated = mutate_entry(b3, "join", 5, 4, 0)
    rep = run_law(mutated, LawId.DOWNSET_UPPER_COMPLETE)
    assert rep.verdict == "fail"
    names = b3.names
    assert rep.to_json_dict()["witness"] == {
        "set": [names[5], names[4]],
        "join": names[0],
        "x": names[b3.top],
    }
    assert rep.checked == run_law(b3, LawId.DOWNSET_UPPER_COMPLETE).checked


def join_table_is_correct(L) -> bool:
    up = L.poset.up
    return all(
        up[L.join2(a, b)] == up[a] & up[b] for a in L.elements() for b in L.elements()
    )


def first_fault_reference(table, rows):
    """The first pair, in row-major order, whose entry breaks the
    condition of ``join_table_is_correct`` (down rows for the meet)."""
    for a, b in itertools.product(range(len(rows)), repeat=2):
        if rows[table[a][b]] != rows[a] & rows[b]:
            return a, b
    return None


def test_table_faults_are_the_first_failing_pairs(lattice_corpus, b3, div12):
    """``join_fault``/``meet_fault`` against a plain double loop on the
    corpus, on relabeled copies and on every single-entry mutation of
    boolean:3 and divisor:12, whose parents' facts are read first: each
    copy computes its own, which is the mutated pair."""
    relabeled_copies = [relabeled(L, seed) for L in (b3, div12, divisor(60)) for seed in range(3)]
    for L in [*lattice_corpus, *relabeled_copies]:
        assert L.join_fault == first_fault_reference(L.join, L.poset.up), L.provenance
        assert L.meet_fault == first_fault_reference(L.meet, L.poset.down), L.provenance
    assert (b3.join_fault, b3.meet_fault, div12.join_fault, div12.meet_fault) == (None,) * 4
    for L in (b3, div12):
        for (table, i, j, _), m in single_entry_mutations(L):
            assert not {"join_fault", "meet_fault"} & set(vars(m)), m.provenance
            faults = {
                "join": first_fault_reference(m.join, m.poset.up),
                "meet": first_fault_reference(m.meet, m.poset.down),
            }
            other = "meet" if table == "join" else "join"
            assert (faults[table], faults[other]) == ((i, j), None), m.provenance
            assert (m.join_fault, m.meet_fault) == (faults["join"], faults["meet"]), m.provenance


def test_downset_count_path_matches_subset_loop(lattice_corpus, b3):
    """Whole reports (verdict, checked, witness) of the
    table-check-and-count path equal those of the subset loop, which folds
    the empty set, every singleton and every pair, except where the loop
    misses a bad join entry: there the law fails with the table check's
    pair."""
    law = LawId.DOWNSET_UPPER_COMPLETE
    wrong_bottom = replace_bottom(b3, b3.top)
    cases = [*lattice_corpus, wrong_bottom, *(m for _, m in single_entry_mutations(b3, ("join",)))]
    caught_by_table = 0
    for L in cases:
        rep = run_law(L, law)
        ctx = _Ctx(L)
        ok, witness = _fold_downset_subsets(ctx)
        assert rep.checked == ctx.checked, L.provenance
        if not ok:
            assert (rep.verdict, rep.witness) == ("fail", witness), L.provenance
        elif join_table_is_correct(L):
            assert (rep.verdict, rep.witness) == ("pass", None), L.provenance
        else:
            assert rep.verdict == "fail" and set(rep.witness) == {"set", "join", "x", "indices"}
            caught_by_table += 1
    assert run_law(wrong_bottom, law).verdict == "fail"
    assert caught_by_table >= 17


def replace_bottom(L, bottom):
    return replace(L, bottom=bottom, provenance=f"{L.provenance}+bottom={bottom}")


def test_wrong_bottom_copies_fail_laws_instead_of_raising():
    """A wrong ``bottom`` field makes the empty join of residues, the
    boundary of the true bottom, an element not below it: the registry
    reports failures instead of raising ``NotBelow``."""
    copies = 0
    for L in (boolean(3), divisor(60), relabeled(divisor(60), 0)):
        for bottom in L.elements():
            if bottom == L.bottom:
                continue
            reports = run_all(replace_bottom(L, bottom))
            assert len(reports) == 26 and any(r.verdict == "fail" for r in reports), bottom
            copies += 1
    assert copies == 29


def descends_to_reference(L, x, target) -> bool:
    """Can target be reached from x by steps into maximal subelements?
    A breadth-first search over the lower covers inside up(target)."""
    seen = set()
    stack = [x]
    interval = L.up_set(target)
    while stack:
        cur = stack.pop()
        if cur == target:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for m in maximal_subelements(L, cur):
            if contains(interval, m):
                stack.append(m)
    return False


def test_descent_search_matches_order(lattice_corpus):
    for L in lattice_corpus:
        for x in L.elements():
            for t in L.elements():
                assert descends_to_reference(L, x, t) == L.leq(t, x), (L.provenance, x, t)


def minmax_reference(L):
    """The minmax_bound law with both halves as per-element loops over
    the same pairs: every pair (u, v), then, on a table with a fault,
    every 2-chain a < b in element order.  ``(verdict, checked, witness)``."""
    ctx = _Ctx(L)
    for u, v in ctx.pairs():
        hyp = L.join2(u, v)
        conclusion = L.join2(L.join2(u, u), L.meet2(v, v))
        for z in L.elements():
            if L.leq(z, hyp):
                ctx.checked += 1
                if not L.leq(z, conclusion):
                    return "fail", ctx.checked, ctx.witness(u=u, v=v, z=z)
    if L.join_fault is None and L.meet_fault is None:
        return "pass", ctx.checked, None
    for a, b in ctx.pairs():
        if not L.lt(a, b):
            continue
        try:
            bound = L.join2(L.join_of_set([a, b]), L.meet_of_set([b, a]))
        except LatticeIntegrityError as e:
            return "fail", ctx.checked, e.witness
        for z in L.elements():
            if L.leq(z, L.join2(a, b)) and L.leq(z, L.join2(b, a)):
                ctx.checked += 1
                if not L.leq(z, bound):
                    return "fail", ctx.checked, ctx.witness({"chain": [ctx.name(a), ctx.name(b)]}, z=z)
    return "pass", ctx.checked, None


def test_minmax_bound_bit_scan_matches_element_loop(div12):
    failures = 0
    for L in (boolean(3), div12, chain(5), divisor(60)):
        for v, w in itertools.product(L.elements(), repeat=2):
            if w == v:
                continue
            mutated = mutate_entry(L, "meet", v, v, w)
            expected = minmax_reference(mutated)
            rep = run_law(mutated, LawId.MINMAX_BOUND)
            assert (rep.verdict, rep.checked, rep.witness) == expected
            failures += expected[0] == "fail"
    assert failures >= 100


class UncheckedFolds(FiniteLattice):
    """A lattice whose folds trust the tables.  With verified folds the
    chain half of minmax_bound fails only through a fold's error: its
    bound is the join entry of the chain's top and bottom, which its own
    last term reads too.  Unverified folds let corrupted entries reach
    the bound."""

    def meet_of_set(self, xs):
        return functools.reduce(lambda a, b: self.meet[a][b], xs)

    def join_of_set(self, xs):
        return functools.reduce(lambda a, b: self.join[a][b], xs)


def test_minmax_bound_chain_bit_scan_matches_element_loop(div12):
    """The 2-chain a < b escapes its bound on unchecked folds with two
    faults: meet[b][a] set to the bottom makes the bound join[b][bottom],
    and that entry set to a v not above b leaves b itself escaping.  One
    fault cannot do it: the bound join[join[a][b]][meet[b][a]] reads a
    second entry that only a second fault makes wrong."""
    chain_failures = 0
    for L in (boolean(3), div12, chain(5)):
        unchecked = UncheckedFolds(**{f.name: getattr(L, f.name) for f in fields(L)})
        for a, b in itertools.product(L.elements(), repeat=2):
            if a == L.bottom or not L.lt(a, b):
                continue
            once = mutate_entry(unchecked, "meet", b, a, L.bottom)
            for v in L.elements():
                if L.leq(b, v):
                    continue
                mutated = mutate_entry(once, "join", b, L.bottom, v)
                expected = minmax_reference(mutated)
                rep = run_law(mutated, LawId.MINMAX_BOUND)
                assert (rep.verdict, rep.checked, rep.witness) == expected, (a, b, v)
                chain_failures += expected[0] == "fail" and "chain" in expected[2]
    assert chain_failures >= 20


def test_fault_reports_carry_witness(div12):
    mutated = mutate_entry(div12, "meet", 3, 4, 0)
    reports = run_all(mutated)
    failing = [r for r in reports if r.verdict == "fail"]
    assert failing
    assert all(r.witness is not None or r.reason for r in failing)


def test_mutate_entry_rejects_values_outside_the_carrier(b3):
    """A value, row or column outside range(n), or a bool, is refused,
    naming the table, the pair and the value; -1 used to be read as
    position n - 1, and True as 1.  A table other than meet or join is
    refused by name."""
    n = b3.n
    for table, i, j, value in (
        ("join", 3, 4, -1),
        ("join", 3, 4, n),
        ("meet", 3, 4, 99),
        ("meet", -1, 4, 0),
        ("join", 3, n, 0),
        ("join", 0, 0, True),
        ("join", True, 4, 0),
        ("meet", 3, False, 0),
    ):
        message = rf"^{table}\[{i}\]\[{j}\]={value} is outside the carrier range\({n}\)$"
        with pytest.raises(ValueError, match=message):
            mutate_entry(b3, table, i, j, value)
    with pytest.raises(ValueError, match=r"^table must be 'meet' or 'join'$"):
        mutate_entry(b3, "leq", 3, 4, 0)
    assert mutate_entry(b3, "join", 3, 4, n - 1).join[3][4] == n - 1


def test_law_subset_selection(div12):
    reports = run_all(div12, laws=[LawId.COHEYTING_JOIN, LawId.CORE_UNION])
    assert [r.law for r in reports] == ["coheyting_join", "core_union"]


def test_testbed_instance_supported(monkeypatch):
    from residua.testbed import OrdinalCoframe

    cf = OrdinalCoframe(2)
    monkeypatch.setattr(residua.laws, "WINDOW_BOUND", 3)
    reports = run_all(cf)
    verdicts = {r.law: r for r in reports}
    assert verdicts["k_lower_semilattice"].verdict == "pass"
    assert verdicts["maximals_dually_compact"].verdict == "pass"
    assert verdicts["maximals_dually_compact"].checked > 0
    assert verdicts["coheyting_join"].verdict == "pass"
    assert verdicts["strata_ranked"].verdict == "skipped"
    assert not any(r.verdict == "fail" for r in reports)


def test_report_json_schema(div12):
    doc = run_law(div12, LawId.COHEYTING_JOIN).to_json_dict()
    assert set(doc) == {"law", "instance", "verdict", "checked", "exhaustive"}
    assert "elapsed_ms" not in doc  # no clock readings: reports are byte-deterministic
    json.dumps(doc)


# -- reference checkers -------------------------------------------------------
# The element- and pair-loop bodies that the registry's mask scans, shared
# removal folds and hoisted pair loops replace; whole reports must agree.


def coheyting_join_reference(ctx):
    """One ``co_heyting_sub`` per pair z <= x, looked up at call time so
    that a test can swap in the definitional scan."""
    L = ctx.L
    for x in ctx.elements:
        for z in ctx.below(x):
            ctx.checked += 1
            s = residua.residual.co_heyting_sub(L, x, z)
            if L.join2(z, s) != x:
                return False, ctx.witness(x=x, z=z, sub=s)
    return True, None


def boundary_removal_reference(ctx):
    """Fold every removal subset through ``join_of_set``, one by one; of
    a boundary poset above ``SUBSET_EXHAUSTIVE_BITS`` members, the empty
    and single removals, and then fail at a join fault."""
    L = ctx.L
    unfolded = None
    for x in ctx.elements:
        p = ctx.profile(x)
        delta = list(p.boundary_poset)
        if len(delta) <= SUBSET_EXHAUSTIVE_BITS:
            removals = list(
                itertools.chain.from_iterable(
                    itertools.combinations(delta, k) for k in range(len(delta) + 1)
                )
            )
        else:
            removals = [(), *((s,) for s in delta)]
            unfolded = x if unfolded is None else unfolded
        for removed in removals:
            ctx.checked += 1
            target = L.join_of_set([p.core, *[s for s in delta if s not in removed]])
            if not L.leq(target, x):
                return False, ctx.witness(
                    {"removed": [ctx.name(s) for s in removed]}, x=x, target=target
                )
    if unfolded is not None and L.join_fault is not None:
        return False, _join_fault_witness(ctx, unfolded)
    return True, None


def strata_ranked_reference(ctx):
    """Antichain and rank order by loops over element pairs."""
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        seen = {}
        for a, stratum in enumerate(p.strata):
            for s in stratum:
                if s in seen:
                    return False, ctx.witness({"strata": [seen[s], a]}, x=x, s=s)
                seen[s] = a
            for s, t in itertools.combinations(stratum, 2):
                if L.leq(s, t) or L.leq(t, s):
                    return False, ctx.witness({"violated": "antichain"}, x=x, s=s, t=t)
        for s in p.boundary_poset:
            for t in p.boundary_poset:
                if L.lt(s, t) and not p.rho[s] > p.rho[t]:
                    return False, ctx.witness({"violated": "rank order"}, x=x, s=s, t=t)
    return True, None


def subelement_decomp_reference(ctx):
    L = ctx.L
    for x in ctx.elements:
        p = ctx.profile(x)
        for z in bits(L.down_set(x)):
            ctx.checked += 1
            parts = [L.meet2(z, p.core)]
            parts.extend(s for s in p.boundary_poset if L.leq(s, z))
            if L.join_of_set(parts) != z:
                return False, ctx.witness(x=x, z=z)
    return True, None


def stratum0_reference(ctx):
    """One ``join_of_set`` per member of delta-plus left out."""
    L = ctx.L
    for x in ctx.elements:
        ctx.checked += 1
        p = ctx.profile(x)
        dplus = residua.residual.delta_plus(L, x, core=p.core)
        expected = {s for s in dplus if not L.leq(s, L.join_of_set([t for t in dplus if t != s]))}
        s0 = set(p.strata[0]) if p.strata else set()
        if s0 != expected:
            return False, ctx.witness(
                {
                    "stratum0": [ctx.name(s) for s in sorted(s0)],
                    "characterized": [ctx.name(s) for s in sorted(expected)],
                },
                x=x,
            )
        for s in s0:
            m = L.join_of_set([p.core, *[t for t in dplus if t != s]])
            if m not in p.maximal or L.join2(s, m) != x:
                return False, ctx.witness(x=x, s=s, m=m)
            if any(mm != m and L.join2(s, mm) == x for mm in p.maximal):
                return False, ctx.witness({"violated": "uniqueness"}, x=x, s=s, m=m)
    return True, None


def type_subadditive_reference(ctx):
    L = ctx.L
    for x, z in ctx.pairs():
        ctx.checked += 1
        if classify_t(L, L.join2(x, z)) > classify_t(L, x) + classify_t(L, z):
            return False, ctx.witness(x=x, z=z)
    return True, None


def mu_join_hom_reference(ctx):
    L = ctx.L
    for x, z in ctx.pairs():
        ctx.checked += 1
        j = L.join2(x, z)
        expected = L.join2(ctx.profile(x).mu, ctx.profile(z).mu)
        got = residual_derivative(L, j)
        if got != expected:
            return False, ctx.witness(x=x, z=z, join=j, mu=got, mu_of_parts=expected)
    return True, None


def core_decomp_reference(ctx):
    L = ctx.L
    t0 = [y for y in ctx.elements if classify_t(L, y) == 0]
    for x, z in ctx.pairs():
        for y in t0:
            if L.leq(y, L.join2(x, z)):
                ctx.checked += 1
                got = L.join2(ctx.profile(L.meet2(x, y)).core, ctx.profile(L.meet2(z, y)).core)
                if got != y:
                    return False, ctx.witness(x=x, z=z, y=y, got=got)
    return True, None


def core_join_hom_reference(ctx):
    L = ctx.L
    for x, z in ctx.pairs():
        ctx.checked += 1
        got = ctx.profile(L.join2(x, z)).core
        expected = L.join2(ctx.profile(x).core, ctx.profile(z).core)
        if got != expected:
            return False, ctx.witness(x=x, z=z, got=got, expected=expected)
    return True, None


def k_lower_semilattice_reference(ctx):
    """The finite pair loop: down(x) & down(z) against down(x ^ z).  Only
    finite lattices run it."""
    L = ctx.L
    for x, z in ctx.pairs():
        ctx.checked += 1
        m = L.meet2(x, z)
        if L.down_set(x) & L.down_set(z) != L.down_set(m):
            return False, ctx.witness(x=x, z=z, meet=m)
    return True, None


REFERENCE_CHECKERS = {
    LawId.COHEYTING_JOIN: coheyting_join_reference,
    LawId.K_LOWER_SEMILATTICE: k_lower_semilattice_reference,
    LawId.BOUNDARY_REMOVAL_DESCENT: boundary_removal_reference,
    LawId.STRATA_RANKED: strata_ranked_reference,
    LawId.STRATUM0_CHARACTERIZATION: stratum0_reference,
    LawId.SUBELEMENT_DECOMP: subelement_decomp_reference,
    LawId.TYPE_SUBADDITIVE: type_subadditive_reference,
    LawId.MU_JOIN_HOM: mu_join_hom_reference,
    LawId.CORE_DECOMP: core_decomp_reference,
    LawId.CORE_JOIN_HOM: core_join_hom_reference,
}


def report_docs(L) -> list:
    return [r.to_json_dict() for r in run_all(L)]


def test_fast_paths_match_reference_laws(lattice_corpus, b3, monkeypatch):
    """Whole run_all reports of the registry equal those of the reference
    checkers: on every corpus lattice with the definitional x - z scan in
    place of the closed form, and on every single-entry mutation of
    boolean:3, where the failures show that each reference is reached.
    The mutations of two join entries of chain:14, whose top has a
    boundary poset above ``SUBSET_EXHAUSTIVE_BITS`` members, reach the
    removal law's fault-pair failure."""
    mutations = [m for _, m in single_entry_mutations(b3)]
    mutations += [m for _, m in single_entry_mutations(chain(14), ("join",), [(13, 0), (13, 12)])]
    fast_corpus = [report_docs(L) for L in lattice_corpus]
    fast_mutations = [report_docs(m) for m in mutations]
    for law, fn in REFERENCE_CHECKERS.items():
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=fn))
    failing = set()
    for m, fast in zip(mutations, fast_mutations):
        assert report_docs(m) == fast, m.provenance
        failing.update(d["law"] for d in fast if d["verdict"] == "fail")
    assert {law.value for law in REFERENCE_CHECKERS} <= failing
    monkeypatch.setattr(residua.residual, "co_heyting_sub", co_heyting_scan)
    monkeypatch.setattr(residua.laws, "co_heyting_sub", co_heyting_scan)
    for L, fast in zip(lattice_corpus, fast_corpus):
        assert report_docs(L) == fast, L.provenance


def relabeled(L, seed):
    """L with its elements renumbered at random, so that index 0 is
    usually not the bottom."""
    doc = L.to_json_dict()
    random.Random(seed).shuffle(doc["elements"])
    return lattice_from_json(doc, provenance=f"{L.provenance}~{seed}")


def test_reports_do_not_depend_on_element_labels(lattice_corpus):
    """run_all on three relabelings of each corpus lattice gives the
    original's reports but for the instance name: no verdict, count or
    witness (by element name) reads the order of the elements."""

    def docs(L):
        return [{k: v for k, v in r.to_json_dict().items() if k != "instance"} for r in run_all(L)]

    for L in lattice_corpus:
        want = docs(L)
        for seed in range(3):
            assert docs(relabeled(L, seed)) == want, (L.provenance, seed)


def with_profiles(L, profiles) -> _Ctx:
    """A run on L whose profiles are ``profiles`` where they are given."""
    ctx = _Ctx(L)
    ctx.profiles.update(profiles)
    return ctx


def test_strata_masks_report_the_pair_loops_first_witness(lattice_corpus, monkeypatch):
    """Profiles with flattened or reversed strata make strata_ranked fail
    through its antichain and rank-order scans; the reports, witnesses
    included, equal those of the pair loops."""
    law = LawId.STRATA_RANKED
    rng = random.Random(8)
    flatten = lambda p: replace(p, strata=(p.boundary_poset,), rho=dict.fromkeys(p.boundary_poset, 0))
    reverse = lambda p: replace(
        p,
        strata=p.strata[::-1],
        rho={s: len(p.strata) - 1 - a for s, a in p.rho.items()},
    )
    cases = []
    for L in lattice_corpus:
        if not L.distributive:
            continue
        run_all(L, laws=[law])
        for craft in (flatten, reverse):
            profiles = {x: residua.residual.residual_profile(L, x) for x in L.elements()}
            for x in rng.sample(range(L.n), L.n // 3):
                profiles[x] = craft(profiles[x])
            cases.append((L, profiles))
    fast = [run_law(L, law, _ctx=with_profiles(L, profiles)).to_json_dict() for L, profiles in cases]
    monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=strata_ranked_reference))
    violated = set()
    for (L, profiles), doc in zip(cases, fast):
        ref = run_law(L, law, _ctx=with_profiles(L, profiles)).to_json_dict()
        assert doc == ref, L.provenance
        violated.add((doc.get("witness") or {}).get("violated"))
    assert {"antichain", "rank order"} <= violated


def test_mu_monotone_covers_report_the_pair_loops_first_witness(lattice_corpus, monkeypatch):
    """Profiles whose mus are moved at random elements make mu_monotone
    fail.  Its rows pass, which compares lower covers only, reports what
    its pair loop reports, witnesses and counts included, on those
    profiles and on the true ones."""
    law = LawId.MU_MONOTONE
    rng = random.Random(25)
    cases = []
    for L in lattice_corpus[::5]:
        profiles = {x: residual_profile(L, x) for x in L.elements()}
        cases.append((L, dict(profiles)))
        for x in rng.sample(range(L.n), max(1, L.n // 8)):
            profiles[x] = replace(profiles[x], mu=rng.randrange(L.n))
        cases.append((L, profiles))
    fast = [run_law(L, law, _ctx=with_profiles(L, profiles)).to_json_dict() for L, profiles in cases]
    monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=residua.laws._mu_monotone_pairs))
    assert [run_law(L, law, _ctx=with_profiles(L, profiles)).to_json_dict() for L, profiles in cases] == fast
    assert {"pass", "fail"} <= {doc["verdict"] for doc in fast}


def test_pair_laws_reach_a_raising_profile_at_the_same_pair(b3, div12, monkeypatch):
    """With profiles that raise at chosen elements, the hoisted pair loops
    fail at the same pair, with the same witness, as the reference loops.
    The order of the profile calls within a pair shows on relabeled
    lattices, which keep index 0 off the bottom."""
    real = residua.residual.residual_profile

    def raising_at(elements):
        def profile(L, x, family=None, rows=None):
            if x in elements:
                raise LatticeIntegrityError("injected", witness={"x": L.names[x]})
            return real(L, x, family, rows)

        return profile

    lattices = [relabeled(L, seed) for L in (b3, div12, divisor(60)) for seed in range(4)]
    rng = random.Random(4)
    # corrupted x ^ bottom entries give core_decomp two different meets
    lattices += [
        mutate_entry(L, "meet", x, L.bottom, rng.randrange(L.n))
        for L in lattices[:4]
        for x in rng.sample(range(L.n), 3)
    ]
    cases = [(L, frozenset(rng.sample(range(L.n), rng.randint(1, 3)))) for L in lattices for _ in range(6)]
    laws = [LawId.MU_JOIN_HOM, LawId.CORE_JOIN_HOM, LawId.CORE_DECOMP]

    def docs():
        out = []
        for L, elements in cases:
            monkeypatch.setattr(residua.laws, "residual_profile", raising_at(elements))
            out.extend(run_law(L, law).to_json_dict() for law in laws)
        return out

    fast = docs()
    for law in laws:
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=REFERENCE_CHECKERS[law]))
    assert docs() == fast
    assert {doc["law"] for doc in fast if doc["verdict"] == "fail"} == {law.value for law in laws}


# The pair laws that decide a finite lattice's pairs by whole table rows,
# and replay their pair loops on a failing row; k_lower_semilattice reads
# its first witness off ``L.meet_fault``.
ROW_LAWS = [
    LawId.TYPE_SUBADDITIVE,
    LawId.MU_JOIN_HOM,
    LawId.CORE_JOIN_HOM,
    LawId.CORE_DECOMP,
    LawId.K_LOWER_SEMILATTICE,
]


def late_row_mutations(rng, lattices, per_table=6):
    """Copies of each lattice with one meet or join entry changed in its
    last third of rows, where a row pass has already passed most rows;
    every other entry is in the last column."""
    for L in lattices:
        for table in ("meet", "join"):
            for k in range(per_table):
                i, j = rng.randrange(L.n - L.n // 3, L.n), rng.randrange(L.n) if k % 2 else L.n - 1
                orig = getattr(L, table)[i][j]
                yield mutate_entry(L, table, i, j, rng.choice([v for v in L.elements() if v != orig]))


def test_row_passes_replay_the_pair_loops_first_witness(b3, div12, monkeypatch):
    """Mutations in late rows of relabeled lattices fail the row passes,
    which replay the pair loops: whole reports, ``checked`` counts and
    first witnesses included, equal those of the pair-loop references,
    and several failures come after a full row has been counted."""
    rng = random.Random(12)
    lattices = [relabeled(L, seed) for L in (b3, div12, divisor(60), boolean(4)) for seed in range(2)]
    cases = list(late_row_mutations(rng, lattices))
    fast = [[run_law(m, law).to_json_dict() for law in ROW_LAWS] for m in cases]
    minmax = [minmax_reference(m) for m in cases]
    for m, expected in zip(cases, minmax):
        rep = run_law(m, LawId.MINMAX_BOUND)
        assert (rep.verdict, rep.checked, rep.witness) == expected, m.provenance
    for law in ROW_LAWS:
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=REFERENCE_CHECKERS[law]))
    late = set()
    for m, docs in zip(cases, fast):
        assert [run_law(m, law).to_json_dict() for law in ROW_LAWS] == docs, m.provenance
        late.update(d["law"] for d in docs if d["verdict"] == "fail" and d["checked"] >= m.n)
    assert {"type_subadditive", "mu_join_hom", "k_lower_semilattice"} <= late
    assert sum(verdict == "fail" and checked >= m.n for m, (verdict, checked, _) in zip(cases, minmax)) >= 5


def test_late_table_faults_fail_with_exhaustive_reports(div12):
    """Every report is exhaustive on div12 and on copies with a late
    table fault, where ``mu_join_hom`` replays its pair loop,
    ``minmax_bound`` walks its constant pairs and ``k_lower_semilattice``
    fails at the meet fault."""
    cases = [div12, *late_row_mutations(random.Random(13), [relabeled(div12, 0)], per_table=3)]
    reports = [run_law(L, law).to_json_dict() for L in cases for law in REGISTRY]
    assert all(d["exhaustive"] for d in reports)
    failing = {d["law"] for d in reports if d["verdict"] == "fail"}
    assert {"mu_join_hom", "k_lower_semilattice", "minmax_bound"} <= failing


def test_join_fold_memo_matches_join_of_set(lattice_corpus, b3):
    """``_Ctx.join_fold`` against ``join_of_set([head, *bits(mask)])`` on
    the prefixes of random member sets, in random order with repeats, so
    that a fold is stored already, extends a stored prefix, or is folded
    in full.  A failing fold raises the same message and witness, and is
    not stored, so it raises again when asked again."""
    rng = random.Random(11)
    cases = [L for L in lattice_corpus if L.n <= 24]
    cases += [m for _, m in single_entry_mutations(b3, ("join",))]
    seen = set()

    def outcome(fold, *args):
        try:
            return fold(*args)
        except LatticeIntegrityError as e:
            return str(e), e.witness

    for L in cases:
        ctx = _Ctx(L)
        calls = []
        for _ in range(4):
            head = rng.randrange(L.n)
            members = sorted(rng.sample(range(L.n), rng.randint(0, min(5, L.n))))
            calls += [(head, mask_of(members[:k])) for k in range(len(members) + 1)]
        calls += rng.sample(calls, len(calls) // 2)
        rng.shuffle(calls)
        for head, mask in calls:
            stored = ctx.folds.get(head, {})
            state = (
                "stored" if mask in stored
                else "prefix" if mask and mask ^ (1 << (mask.bit_length() - 1)) in stored
                else "full"
            )
            want = outcome(L.join_of_set, [head, *bits(mask)])
            assert outcome(ctx.join_fold, head, mask) == want, (L.provenance, head, mask)
            seen.add((state, isinstance(want, tuple)))
    assert seen == {("stored", False), ("prefix", False), ("prefix", True), ("full", False), ("full", True)}


FOLD_LAWS = [
    LawId.COHEYTING_JOIN,
    LawId.STRATUM0_CHARACTERIZATION,
    LawId.SUBELEMENT_DECOMP,
    LawId.BOUNDARY_REMOVAL_DESCENT,
]


def test_shared_folds_match_reference_laws_on_relabeled_lattices(b3, div12, monkeypatch):
    """The laws that fold through ``join_fold`` report what one
    ``join_of_set`` per fold reports, on relabeled lattices (index 0 is
    usually not the bottom) and on their late-row mutations."""
    lattices = [relabeled(L, seed) for L in (b3, div12, divisor(60), boolean(4)) for seed in range(2)]
    cases = lattices + list(late_row_mutations(random.Random(14), lattices, per_table=4))
    fast = [[r.to_json_dict() for r in run_all(L, laws=FOLD_LAWS)] for L in cases]
    for law in FOLD_LAWS:
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=REFERENCE_CHECKERS[law]))
    assert [[r.to_json_dict() for r in run_all(L, laws=FOLD_LAWS)] for L in cases] == fast
    assert {d["law"] for docs in fast for d in docs if d["verdict"] == "fail"} == {law.value for law in FOLD_LAWS}


def test_run_all_leaves_no_fold_state_on_the_lattice():
    """The fold memo and the derivatives live with the run, or with each
    law on a copy with a table fault, never on the lattice: after
    ``run_all`` the lattice holds only its two table faults and its two
    tables (built on first read), and the poset its order facts: the
    Hasse diagram kept by its axiom check and the irreducibles."""
    L = generate("chain:40")
    run_all(L)
    cached = lambda obj: set(vars(obj)) - {f.name for f in fields(obj)}
    assert cached(L) == {"join_fault", "meet_fault", "join", "meet"}
    assert cached(L.poset) <= {"upper_covers", "lower_covers", "irreducibles", "coirreducibles"}


def test_run_all_reports_equal_each_law_run_alone(b3, div12):
    """The laws of one run share their profiles and element rows, each
    filled by whichever law reads it first.  On every single-entry
    mutation of divisor:12 and every join mutation of boolean:3,
    ``run_all`` reports what each law reports run alone with a fresh
    memo: verdicts, ``checked`` counts and witnesses, indices included."""
    cases = [m for _, m in single_entry_mutations(div12)]
    cases += [m for _, m in single_entry_mutations(b3, ("join",))]
    failing = set()
    for m in cases:
        reports = run_all(m)
        assert reports == [run_law(m, law) for law in REGISTRY], m.provenance
        failing.update(r.law for r in reports if r.verdict == "fail")
    assert len(cases) == 360 + 448
    # the laws besides the profiles' that read the rows and fail here
    assert {"maximals_join", "maximals_meet_maximal", "mu_residue_bound", "outcast_trichotomy"} <= failing


def test_certified_runs_match_laws_run_alone_and_definitional_profiles(lattice_corpus, b3, div12):
    """On certified tables one run shares its verified folds among the
    laws.  On corpus lattices and relabeled ones, whose index order is no
    linear extension, ``run_all`` reports what each law reports run alone
    with its own memo, and every profile of a run, asked in a random
    order, equals the definitional ``residual_profile``.  A copy with a
    table fault keeps one fold memo per law, and its run's profiles equal
    the standalone ones too."""
    rng = random.Random(24)
    lattices = lattice_corpus[::6]
    lattices += [relabeled(L, seed) for L in (b3, div12, divisor(60), boolean(4), chain(12)) for seed in range(3)]
    for L in lattices:
        assert run_all(L) == [run_law(L, law) for law in REGISTRY], L.provenance
        ctx = _Ctx(L)
        for x in rng.sample(range(L.n), L.n):
            assert ctx.profile(x) == residual_profile(L, x), (L.provenance, x)
        if L.distributive:
            folds = ctx.folds
            run_law(L, LawId.SUBELEMENT_DECOMP, _ctx=ctx)
            assert ctx.folds is folds and folds
    faulty = mutate_entry(b3, "join", 3, 2, 7)
    ctx = _Ctx(faulty)
    folds = ctx.folds
    run_law(faulty, LawId.SUBELEMENT_DECOMP, _ctx=ctx)
    assert not ctx.certified and ctx.folds is not folds
    for x in rng.sample(range(faulty.n), faulty.n):
        assert outcome(ctx.profile, x) == outcome(residual_profile, faulty, x), x


def test_profiles_walk_derivative_chains_without_recursion():
    """The top of a relabeled chain:300 has rank 299, so its profile
    walks down a derivative chain of 300 elements.  With the recursion
    limit at 200 the walk still builds it, the run keeps all 300
    profiles once each element is asked, and ``run_all`` passes every
    law."""
    L = relabeled(generate("chain:300"), 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        ctx = _Ctx(L)
        top = ctx.profile(L.top)
        for x in L.elements():
            ctx.profile(x)
        reports = run_all(L)
    finally:
        sys.setrecursionlimit(limit)
    assert (top.rank.finite, len(ctx.profiles)) == (299, 300)
    assert all(r.verdict == "pass" for r in reports)


def test_fold_keys_hash_wide_masks_apart():
    """Python hashes an int modulo 2**61 - 1, so the 1,024 up rows of
    chain:1024 take 61 hashes as ints and 1,024 as ``_key`` makes them.
    A mask below 2**61 is its own key."""
    up = generate("chain:1024").poset.up
    assert len({hash(m) for m in up}) == 61
    assert len({hash(_key(m)) for m in up}) == 1024
    assert [_key(m) for m in (0, 5, (1 << 61) - 1)] == [0, 5, (1 << 61) - 1]


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class, message and witness of
    the ``LatticeIntegrityError`` it raises."""
    try:
        return fn(*args)
    except LatticeIntegrityError as e:
        return type(e), str(e), e.witness


def fresh_residues(L, x):
    return {m: co_heyting_sub(L, x, m) for m in bits(L.poset.lower_covers[x])}


def test_element_rows_match_fresh_computation(lattice_corpus):
    """Every entry of the run's rows, read in a random order and read
    twice, equals ``lower_covers``, ``co_heyting_sub`` and ``outcasts``
    computed fresh; the residues come in maximal order, and the profiles
    built on the rows equal those built without them."""
    rng = random.Random(16)
    for L in lattice_corpus:
        ctx = _Ctx(L)
        reads = [(kind, x) for kind in ("maximals", "residue", "residues", "outcasts") for x in L.elements()]
        rng.shuffle(reads)
        for kind, x in reads + reads:
            maxes = list(bits(L.poset.lower_covers[x]))
            if kind == "maximals":
                assert ctx.maximals(x) == maxes
            elif kind == "residue" and maxes:
                m = rng.choice(maxes)
                assert ctx.residue(x, m) == co_heyting_sub(L, x, m)
            elif kind == "residues":
                assert list(ctx.residues(x).items()) == list(fresh_residues(L, x).items())
            elif kind == "outcasts":
                assert ctx.outcasts(x) == outcasts(L, x)
        every = set(L.elements())
        assert set(ctx.maximal_row) == set(ctx.residue_row) == set(ctx.outcast_row) == every, L.provenance
        for x in L.elements():
            assert residual_profile(L, x, rows=ctx) == residual_profile(L, x)


def join_closed_family(L, rng) -> list:
    """A random family that holds the bottom and is closed under joins."""
    family = {L.bottom, *rng.sample(range(L.n), rng.randint(0, L.n // 2))}
    while True:
        closed = family | {L.join[a][b] for a in family for b in family}
        if closed == family:
            return sorted(family)
        family = closed


def test_run_profiles_on_faulty_tables_match_standalone_profiles(div12, b3):
    """A run builds each profile on the profile it keeps for an iterate,
    on faulty tables as on certified ones.  On every single-entry mutant
    of divisor:12 and every join mutant of boolean:3, in the default
    family and in a join-closed family holding the bottom, each run
    profile, asked in a random order, equals the standalone
    ``residual_profile`` or raises the same error class, message and
    witness."""
    rng = random.Random(37)
    seen = set()
    for L, tables in ((div12, ("meet", "join")), (b3, ("join",))):
        family = mask_of(join_closed_family(L, rng))
        assert contains(family, L.bottom) and family != L.full()
        for _, m in single_entry_mutations(L, tables):
            for fam in (None, family):
                ctx = _Ctx(m, fam)
                for x in rng.sample(range(m.n), m.n):
                    got = outcome(ctx.profile, x)
                    assert got == outcome(residual_profile, m, x, fam), (m.provenance, fam, x)
                    seen.add((fam is None, isinstance(got, tuple)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_laws_in_a_family_keep_their_own_rows(lattice_corpus, monkeypatch):
    """``run_all`` in a family runs the laws of ``FAMILY_HYPOTHESES`` in
    a second run of their own, whose rows hold the maximal subelements,
    outcasts, derivatives and profiles in that family, and the other laws
    in a run of the default family.  Every entry equals the fresh
    computation in its run's family, value or error."""
    runs = []

    class Recorded(_Ctx):
        def __init__(self, L, family=None):
            super().__init__(L, family)
            runs.append(self)

    monkeypatch.setattr(residua.laws, "_Ctx", Recorded)
    rng = random.Random(17)
    read = 0
    for L in lattice_corpus[::7]:
        for members in ([L.bottom, *rng.sample(range(L.n), L.n // 2)], join_closed_family(L, rng)):
            family = mask_of(members)
            runs.clear()
            run_all(L, family=family)
            default, in_family = runs
            assert (default.family, in_family.family) == (None, family)
            assert in_family.maximal_row is not default.maximal_row
            for x, got in in_family.maximal_row.items():
                assert got == maximal_subelements(L, x, family), (L.provenance, x)
            for x, got in in_family.outcast_row.items():
                assert got == outcasts(L, x, family)
            for x, got in in_family.derivatives.items():
                assert got == residual_derivative(L, x, family)
            for x, got in in_family.profiles.items():
                assert got == residual_profile(L, x, family)
            for x, got in default.maximal_row.items():
                assert got == maximal_subelements(L, x)
            read += bool(in_family.maximal_row and in_family.profiles)
            for x in L.elements():
                assert outcome(in_family.profile, x) == outcome(residual_profile, L, x, family)
    assert read >= 10


def test_family_runs_equal_each_law_run_alone(lattice_corpus, b3, div12):
    """A family run shares its rows among the laws of ``FAMILY_HYPOTHESES``:
    ``run_all`` in a family gives, byte for byte, what each law gives run
    alone in that family, on every 6th corpus lattice with join-closed
    families that hold the bottom, and on single-entry join and meet
    mutants of divisor:12 and boolean:3."""
    rng = random.Random(29)

    def doc(reports):
        return json.dumps([r.to_json_dict() for r in reports])

    cases = [(L, join_closed_family(L, rng)) for L in lattice_corpus[::6] for _ in range(2)]
    for L in (div12, b3):
        mutants = [m for _, m in single_entry_mutations(L)]
        cases += [(m, join_closed_family(L, rng)) for m in rng.sample(mutants, 12)]
    verdicts = set()
    for L, family in cases:
        reports = run_all(L, family=family)
        assert doc(reports) == doc(run_law(L, law, family=family) for law in REGISTRY), (L.provenance, family)
        verdicts.update(r.verdict for r in reports if r.law == "mu_residue_decomp")
    assert {"pass", "fail"} <= verdicts


def test_element_rows_store_only_what_passes(b3, m3):
    """On every single-entry mutation of boolean:3, and every meet
    mutation of M3, each row read gives the fresh outcome, value or
    error.  An entry whose fold or cross-check fails is never stored, so
    each read raises the same error again.  On a distributive lattice
    x - m is one join-irreducible when m is a lower cover of x, a fold
    of one element, so boolean:3 fails through the boundary join of the
    outcast cross-check; M3's residues fold meets over a scan of down(x)."""
    cases = [m for _, m in single_entry_mutations(b3)]
    cases += [m for _, m in single_entry_mutations(m3, ("meet",))]
    failed = set()
    for L in cases:
        ctx = _Ctx(L)
        for x in L.elements():
            maxes = list(bits(L.poset.lower_covers[x]))
            whole = outcome(fresh_residues, L, x)
            outs = outcome(outcasts, L, x)
            for _ in range(2):
                assert ctx.maximals(x) == maxes
                assert outcome(ctx.residues, x) == whole, (L.provenance, x)
                assert (list(ctx.residue_row[x]) == maxes) == isinstance(whole, dict)
                for m in maxes:
                    single = outcome(co_heyting_sub, L, x, m)
                    assert outcome(ctx.residue, x, m) == single
                    assert ctx.residue_row[x].get(m) == (single if isinstance(single, int) else None)
                    failed.add(("residue", L.provenance.split("+")[0], isinstance(single, tuple)))
                assert outcome(ctx.outcasts, x) == outs, (L.provenance, x)
                assert (x in ctx.outcast_row) == isinstance(outs, list)
                failed.add(("outcasts", L.provenance.split("+")[0], isinstance(outs, tuple)))
    assert ("residue", "boolean(3)", True) not in failed
    assert {("residue", "M3", True), ("outcasts", "boolean(3)", True)} <= failed


# -- the law registry on the testbed ------------------------------------------
# run_all on an OrdinalCoframe memoises default-family derivatives and
# one join table of the box for the run, and enumerates downsets; the
# references below are the per-pair checkers above and the leq filter
# that ``_Ctx.below`` replaced.

# The laws that quantify over finite enumerations, as the benchmark's
# oracle lists them; the testbed skips exactly these.
LAWS_FINITE_ONLY = {
    "strata_ranked",
    "stratum0_characterization",
    "delta_equals_delta_plus",
    "subelement_decomp",
    "minmax_bound",
    "boundary_removal_descent",
    "core_union",
    "core_decomp",
    "t0_upper_semilattice",
    "downset_upper_complete",
}


def test_testbed_run_all_dims3_matches_the_oracle():
    from residua.testbed import OrdinalCoframe

    reports = run_all(OrdinalCoframe(3))
    assert len(reports) == len(LawId) == 26
    for r in reports:
        want = "skipped" if r.law in LAWS_FINITE_ONLY else "pass"
        assert r.verdict == want, r.law
        assert r.exhaustive, r.law
    assert sum(r.verdict == "pass" for r in reports) == 16
    checked = {r.law: r.checked for r in reports}
    # 6^3 box vectors: every pair, and every pair z <= x (21 values of
    # z_j >= x_j summed over the 6 values of x_j, per coordinate)
    assert checked["mu_join_hom"] == checked["core_join_hom"] == 216**2
    assert checked["coheyting_join"] == checked["mu_monotone"] == 21**3


def test_testbed_k_lower_semilattice_checks_every_compact_pair_at_dims_4():
    """At dims 4 the box has 6^4 vectors and 1296^2 pairs; the law checks
    every pair of its 5^4 all-finite vectors."""
    from residua.testbed import OrdinalCoframe

    rep = run_law(OrdinalCoframe(4), LawId.K_LOWER_SEMILATTICE)
    assert (rep.verdict, rep.exhaustive, rep.checked) == ("pass", True, 625**2)


def test_testbed_below_is_the_leq_filter(monkeypatch):
    from residua.testbed import OrdinalCoframe

    for dims, bound in ((1, 4), (2, 4), (3, 4), (4, 3)):
        cf = OrdinalCoframe(dims)
        monkeypatch.setattr(residua.laws, "WINDOW_BOUND", bound)
        ctx = _Ctx(cf)
        for x in ctx.elements:
            assert ctx.below(x) == [z for z in ctx.elements if cf.leq(z, x)], x


def _testbed_fault(dims, **overrides):
    """An OrdinalCoframe subclass with the given methods replaced."""
    from residua.testbed import OrdinalCoframe

    return type("FaultyCoframe", (OrdinalCoframe,), overrides)(dims)


def test_testbed_derivative_memo_hides_no_fault(monkeypatch):
    """A wrong closed-form mu at one vector, or a wrong meet on one pair
    (which only the derivative's meet fold reads), fails mu_join_hom with
    the memo-free checker's witness and count."""
    from residua.testbed import INF, OrdinalCoframe

    bad_x = (1, 2, INF)
    real_profile, real_meet2 = OrdinalCoframe.profile, OrdinalCoframe.meet2

    def wrong_mu(self, x):
        p = real_profile(self, x)
        return replace(p, mu=(9, 9, 9)) if x == bad_x else p

    # (1, 1, INF) has maximal subelements (1, 2, INF) and (2, 1, INF)
    bad_pair = {(1, 2, INF), (2, 1, INF)}

    def wrong_meet(self, x, y):
        return (3, 3, INF) if {x, y} == bad_pair else real_meet2(self, x, y)

    def doc(cf):
        return run_law(cf, LawId.MU_JOIN_HOM).to_json_dict()

    lattices = [_testbed_fault(3, profile=wrong_mu), _testbed_fault(3, meet2=wrong_meet)]
    fast = [doc(cf) for cf in lattices]
    monkeypatch.setitem(
        REGISTRY, LawId.MU_JOIN_HOM, replace(REGISTRY[LawId.MU_JOIN_HOM], fn=mu_join_hom_reference)
    )
    assert [doc(cf) for cf in lattices] == fast
    assert [d["verdict"] for d in fast] == ["fail", "fail"]
    assert fast[1]["witness"]["join"] == "1,1,inf" and fast[1]["witness"]["mu"] == "3,3,inf"
    assert 0 < fast[0]["checked"] < 216**2 and 0 < fast[1]["checked"] < 216**2


PAIR_LAWS = [LawId.TYPE_SUBADDITIVE, LawId.MU_JOIN_HOM, LawId.CORE_JOIN_HOM]


def _counting_join2(monkeypatch):
    """Count ``OrdinalCoframe.join2`` calls from now on; returns the list
    that collects them."""
    from residua.testbed import OrdinalCoframe

    calls = []
    real = OrdinalCoframe.join2

    def join2(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(OrdinalCoframe, "join2", join2)
    return calls


def k_lower_testbed_reference(ctx):
    """The testbed's pair loop: every meet of two dually compact vectors
    is dually compact."""
    L = ctx.L
    for x, z in ctx.pairs():
        if L.dually_compact(x) and L.dually_compact(z):
            ctx.checked += 1
            if not L.dually_compact(L.meet2(x, z)):
                return False, ctx.witness(x=x, z=z)
    return True, None


def mu_monotone_reference(ctx):
    L = ctx.L
    for x in ctx.elements:
        mu_x = ctx.profile(x).mu
        for z in ctx.below(x):
            ctx.checked += 1
            if not L.leq(ctx.profile(z).mu, mu_x):
                return False, ctx.witness(x=x, z=z)
    return True, None


# The testbed laws that decide their pairs by rows, and the per-pair
# loops they replay.
TESTBED_ROW_LAWS = [
    LawId.COHEYTING_JOIN,
    LawId.TYPE_SUBADDITIVE,
    LawId.MU_MONOTONE,
    LawId.MU_JOIN_HOM,
    LawId.CORE_JOIN_HOM,
    LawId.K_LOWER_SEMILATTICE,
]
TESTBED_REFERENCES = {
    **{law: REFERENCE_CHECKERS[law] for law in TESTBED_ROW_LAWS if law in REFERENCE_CHECKERS},
    LawId.MU_MONOTONE: mu_monotone_reference,
    LawId.K_LOWER_SEMILATTICE: k_lower_testbed_reference,
}


def _wrong_at(name, args, value):
    """``OrdinalCoframe.<name>`` with one wrong answer: ``value`` at
    ``args``, raised when it is an exception."""
    from residua.testbed import OrdinalCoframe

    real = getattr(OrdinalCoframe, name)

    def method(self, *given):
        if given == args:
            if isinstance(value, Exception):
                raise value
            return value
        return real(self, *given)

    return method


def _profile_at(x, mu):
    """``OrdinalCoframe.profile`` with mu replaced at x, or raising ``mu``
    there when it is an exception."""
    from residua.testbed import OrdinalCoframe

    real = OrdinalCoframe.profile

    def profile(self, v):
        if v == x:
            if isinstance(mu, Exception):
                raise mu
            return replace(real(self, v), mu=mu)
        return real(self, v)

    return profile


def faulty_testbeds() -> list:
    """Dims-2 testbeds with one primitive wrong at one argument:
    ``join2`` at the bottom pair, whose cores every pair joins, or at a
    pair of incomparable vectors, with a value inside the box or outside
    it (the table's -1); ``meet2`` on two compact vectors, leaving the
    compact ones; ``co_heyting_sub`` at one pair; the closed-form mu at
    one vector, wrong or raising; ``dually_compact`` at one vector."""
    from residua.testbed import INF

    bottom = (INF, INF)
    cases = [
        _testbed_fault(2, join2=_wrong_at("join2", pair, value))
        for pair in ((bottom, bottom), ((1, 2), (2, 1)))
        for value in ((0, 0), (9, 9))
    ]
    return cases + [
        _testbed_fault(2, **fault)
        for fault in (
            {"meet2": _wrong_at("meet2", ((1, 3), (3, 1)), (3, INF))},
            {"co_heyting_sub": _wrong_at("co_heyting_sub", ((1, 1), (2, 1)), bottom)},
            {"profile": _profile_at((2, 2), (9, 9))},
            {"profile": _profile_at((3, 1), LatticeIntegrityError("injected", witness={"x": "3,1"}))},
            {"dually_compact": _wrong_at("dually_compact", ((2, 2),), False)},
        )
    ]


def test_testbed_join_table_matches_reference_laws(monkeypatch):
    """The testbed's row laws read the run's join table and report what
    the per-pair reference loops report, byte for byte, on each of
    ``faulty_testbeds`` and on the dims-3 testbed."""
    from residua.testbed import OrdinalCoframe

    cases = [*faulty_testbeds(), OrdinalCoframe(3)]

    def docs():
        return [[json.dumps(r.to_json_dict()) for r in run_all(cf, laws=TESTBED_ROW_LAWS)] for cf in cases]

    fast = docs()
    for law, fn in TESTBED_REFERENCES.items():
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=fn))
    assert docs() == fast
    fast = [[json.loads(doc) for doc in case] for case in fast]
    verdicts = ["".join("F" if d["verdict"] == "fail" else "." for d in case) for case in fast]
    # one column per law, in TESTBED_ROW_LAWS order
    assert verdicts == [
        "FF.FF.",
        "FF.FF.",
        "...F..",
        "...F..",
        ".....F",
        "F.....",
        "..FF..",
        "..FFF.",
        ".....F",
        "......",
    ]
    assert fast[1][1]["witness"] == {"x": "inf,inf", "z": "inf,inf"}
    assert fast[1][3]["witness"]["join"] == "9,9"
    assert fast[3][3]["witness"]["mu_of_parts"] == "9,9"
    assert fast[4][5]["witness"] == {"x": "1,3", "z": "3,1"}
    assert fast[7][2]["reason"] == fast[7][3]["reason"] == fast[7][4]["reason"] == "injected"
    assert fast[8][5]["witness"] == {"x": "0,2", "z": "2,0"}
    # the meet, x - z, mu and compactness faults strike after whole rows
    # of the 36-vector box have passed
    late = [d["checked"] for case in fast[4:7] + fast[8:9] for d in case if d["verdict"] == "fail"]
    assert len(late) == 5 and min(late) > 36


def test_core_join_hom_rows_with_several_cores(monkeypatch):
    """Testbeds whose closed-form cores differ and all lie in the window:
    core(x) = (x_0, inf), a join homomorphism, and the bottom everywhere
    but a core of (1, 1) at the top, which first breaks the law at the
    pair ((0, 1), (1, 0)).  The row pass decides the first alone and
    rejects the second, and ``run_law`` reports what the pair loop
    reports alone: verdict, ``checked`` count and witness, indices
    included."""
    from residua.testbed import INF, OrdinalCoframe

    real = OrdinalCoframe.profile

    def cores(core):
        return _testbed_fault(2, profile=lambda self, x: replace(real(self, x), core=core(x)))

    cases = {
        "pass": cores(lambda x: (x[0], INF)),
        "fail": cores(lambda x: (1, 1) if x == (0, 0) else (INF, INF)),
    }
    law = LawId.CORE_JOIN_HOM
    fast = {}
    for verdict, cf in cases.items():
        ctx = _Ctx(cf)
        core_set = {ctx.profile(x).core for x in ctx.elements}
        assert len(core_set) > 1 and core_set <= set(ctx.elements)
        assert residua.laws._core_join_hom_rows(ctx) is (verdict == "pass")
        fast[verdict] = vars(run_law(cf, law))
    monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=residua.laws._core_join_hom_pairs))
    assert {verdict: vars(run_law(cf, law)) for verdict, cf in cases.items()} == fast
    assert (fast["pass"]["verdict"], fast["pass"]["checked"]) == ("pass", 36**2)
    assert fast["fail"]["verdict"] == "fail"
    assert fast["fail"]["witness"]["indices"] == {
        "x": (0, 1), "z": (1, 0), "got": (1, 1), "expected": (INF, INF)
    }


def test_inconsistent_testbed_instances_fail_laws_instead_of_raising():
    """An instance whose primitives disagree fails some law and raises
    nothing: ``leq`` wrong either way at one pair, and each of
    ``faulty_testbeds``.  In dims 2, (2, 1) <= (1, 1).  A ``leq``
    that denies it makes x - m raise ``NotBelow`` at the maximal
    subelement (2, 1) of (1, 1), which fails the law with the error and
    the elements in hand as the witness.  A ``leq`` that also affirms the
    converse puts (1, 1) below (2, 1) in the pair loops, where z v (x - z)
    misses x."""
    cases = [
        _testbed_fault(2, leq=_wrong_at("leq", ((2, 1), (1, 1)), False)),
        _testbed_fault(2, leq=_wrong_at("leq", ((1, 1), (2, 1)), True)),
        *faulty_testbeds(),
    ]
    failing = [[r.law for r in run_all(cf) if r.verdict == "fail"] for cf in cases]
    assert all(failing), failing
    denied = run_law(cases[0], LawId.RESIDUE_UNIQUE_MAXIMAL)
    assert (denied.verdict, denied.reason) == ("fail", "2,1 is not below 1,1")
    assert denied.to_json_dict()["witness"] == {
        "error": "NotBelow",
        "message": "2,1 is not below 1,1",
        "x": "1,1",
        "z": "2,1",
    }
    assert "coheyting_join" in failing[1]


def test_x_minus_z_errors_name_x_and_z_on_both_paths():
    """x - z raises ``NotBelow`` under the class's own ``leq``, whose
    window has tables, and under an overridden ``leq``, whose window has
    none; either way the witness names the arguments x and z.  Here
    (1, 1) claims (0, 0), which is not below it, as a maximal
    subelement."""
    from residua.testbed import OrdinalCoframe

    real = OrdinalCoframe.maximal_subelements

    def maximals(self, x):
        if x == (1, 1):
            return [(0, 0), (2, 1)]
        return real(self, x)

    def leq(self, x, y):
        return OrdinalCoframe.leq(self, x, y)

    own = _testbed_fault(2, maximal_subelements=maximals)
    overridden = _testbed_fault(2, maximal_subelements=maximals, leq=leq)
    box = own.box(WINDOW_BOUND)
    assert own.window_tables(box) is not None and overridden.window_tables(box) is None
    for cf in (own, overridden):
        rep = run_law(cf, LawId.RESIDUE_UNIQUE_MAXIMAL)
        assert rep.to_json_dict()["witness"] == {
            "x": "1,1",
            "z": "0,0",
            "error": "NotBelow",
            "message": "0,0 is not below 1,1",
        }


def _without_window_tables(cf):
    """A testbed of ``cf``'s class and dims whose ``join2`` calls the
    class's own, so that its ``window_tables`` gives way and a run builds
    the join table and below rows with ``join2`` and ``leq``."""

    class Called(type(cf)):
        def join2(self, x, y):
            return super().join2(x, y)

    return Called(cf.dims)


def test_testbed_window_tables_match_the_called_tables(monkeypatch):
    """``window_tables(box)`` gives the positions of the join table and
    below rows that ``_Ctx`` builds from ``join2`` and ``leq``, and a run
    on the tables gives the same element rows below each x, made of the
    run's own tuples.  The meet rows and x - z rows equal the positions
    of ``meet2`` and ``co_heyting_sub``, and the box's mus, a window of
    the same shape, read the same tables, which equal their ``join2`` and
    ``leq`` positions.  In dims 1-4 at every bound up to 4 (3 in dims 4)."""
    from residua.testbed import OrdinalCoframe

    for dims in (1, 2, 3, 4):
        for bound in range(4 if dims == 4 else 5):
            cf = OrdinalCoframe(dims)
            box = cf.box(bound)
            monkeypatch.setattr(residua.laws, "WINDOW_BOUND", bound)
            ctx = _Ctx(_without_window_tables(cf))
            assert ctx.L.window_tables(box) is None
            join, below = ctx.join_table, {x: ctx.below(x) for x in ctx.elements}
            tables = cf.window_tables(box)
            at = {x: i for i, x in enumerate(box)}
            assert tables.join == join, (dims, bound)
            assert tables.below == [[at[z] for z in below[x]] for x in box], (dims, bound)
            run = _Ctx(cf)
            assert run.window is tables
            assert {x: run.below(x) for x in run.elements} == below, (dims, bound)
            ids = set(map(id, run.elements))
            assert all(id(z) in ids for x in run.elements for z in run.below(x))
            assert list(tables.meet_rows()) == [[at[cf.meet2(x, z)] for z in box] for x in box]
            assert list(tables.sub_rows()) == [
                ([at[z] for z in below[x]], [at[cf.co_heyting_sub(x, z)] for z in below[x]]) for x in box
            ], (dims, bound)
            mus = [cf.profile(x).mu for x in box]
            at = {mu: i for i, mu in enumerate(mus)}
            mu_tables = cf.window_tables(mus)
            assert mu_tables is tables
            assert mu_tables.join == [[at[cf.join2(a, b)] for b in mus] for a in mus], (dims, bound)
            assert mu_tables.below == [[at[b] for b in mus if cf.leq(b, a)] for a in mus], (dims, bound)


def test_testbed_window_tables_give_way(monkeypatch):
    """``window_tables`` returns None when ``join2`` or ``leq`` is not the
    dims kernel (a subclass method, a class patch made after
    construction, an instance attribute) and when the window is not a
    box: shuffled, with one vector dropped, or empty.  Its meet rows give
    way in the same three ways to ``meet2``, and its x - z rows to
    ``co_heyting_sub`` and to a window with no infinite coordinates."""
    from residua.testbed import OrdinalCoframe

    cf = OrdinalCoframe(2)
    box = cf.box(3)
    assert cf.window_tables(box) is not None
    for name in ("join2", "leq"):
        real = getattr(OrdinalCoframe, name)

        def calling(self, x, y):
            return real(self, x, y)

        assert _testbed_fault(2, **{name: calling}).window_tables(box) is None
        with monkeypatch.context() as patch:
            patch.setattr(OrdinalCoframe, name, calling)
            assert cf.window_tables(box) is None
        setattr(cf, name, lambda x, y: real(cf, x, y))
        assert cf.window_tables(box) is None
        delattr(cf, name)
        assert cf.window_tables(box) is not None
    shuffled = list(box)
    random.Random(5).shuffle(shuffled)
    assert cf.window_tables(shuffled) is None
    assert cf.window_tables(box[:7] + box[8:]) is None

    for name, rows in (("meet2", "meet_rows"), ("co_heyting_sub", "sub_rows")):
        real = getattr(OrdinalCoframe, name)

        def calling(self, x, y):
            return real(self, x, y)

        def given_way(lattice):
            tables = lattice.window_tables(box)
            return tables is not None and getattr(tables, rows)() is None

        assert given_way(_testbed_fault(2, **{name: calling}))
        with monkeypatch.context() as patch:
            tables = cf.window_tables(box)
            patch.setattr(OrdinalCoframe, name, calling)
            assert given_way(cf) and getattr(tables, rows)() is None
            assert given_way(OrdinalCoframe(2))
        setattr(cf, name, lambda x, y: real(cf, x, y))
        assert given_way(cf)
        delattr(cf, name)
        assert not given_way(cf)
    finite = list(itertools.product(range(3), repeat=2))
    assert cf.window_tables(finite).sub_rows() is None
    assert cf.window_tables(finite).meet_rows() is not None
    assert cf.window_tables([]) is None


def test_testbed_window_tables_on_unequal_axes():
    """On windows whose axes differ in size, so that the head and tail of
    each product differ too, the join, below, meet and x - z rows are the
    positions of ``join2``, ``leq``, ``meet2`` and ``co_heyting_sub``; a
    window whose axes do not all end at infinity has no x - z rows."""
    from residua.testbed import INF, OrdinalCoframe

    windows = (
        ([0, 1, 2, 3, 4, 5, 6, INF], [2, INF]),
        ([0, 2, INF], [3, INF], [0, 1, 2, INF]),
        ([1, INF], [0, 2, 5, INF], [0, 1, INF], [3, INF]),
        ([0, 2, INF], [1, 3], [0, 1, 2, INF]),
        ([0, 1], [2, 3, 5]),
    )
    for axes in windows:
        cf = OrdinalCoframe(len(axes))
        window = list(itertools.product(*axes))
        at = {x: i for i, x in enumerate(window)}
        tables = cf.window_tables(window)
        assert tables.join == [[at[cf.join2(x, z)] for z in window] for x in window], axes
        below = [[at[z] for z in window if cf.leq(z, x)] for x in window]
        assert tables.below == below, axes
        assert list(tables.meet_rows()) == [[at[cf.meet2(x, z)] for z in window] for x in window], axes
        subs = tables.sub_rows()
        if not all(INF in axis for axis in axes):
            assert subs is None
            continue
        assert list(subs) == [
            (row, [at[cf.co_heyting_sub(x, window[k])] for k in row]) for x, row in zip(window, below)
        ], axes


def test_testbed_run_builds_each_window_table_once(monkeypatch):
    """One dims-3 ``run_all`` builds the join, below, meet and x - z rows
    once each: the box's mus share the box's shape and so its join and
    below rows.  No shape's rows outlive the run, even with the cycle
    collector off."""
    import gc
    from collections import Counter

    import residua.testbed
    from residua.testbed import OrdinalCoframe

    builds = Counter()
    real = residua.testbed._product_rows

    def counting(sizes, chain_row):
        if len(sizes) == 3:  # a whole window, not a head or a tail
            builds[tuple(chain_row(3, 1))] += 1
        return real(sizes, chain_row)

    monkeypatch.setattr(residua.testbed, "_product_rows", counting)
    cf = OrdinalCoframe(3)
    gc.disable()
    try:
        reports = run_all(cf)
        assert not cf._shapes
    finally:
        gc.enable()
    assert sum(r.verdict == "pass" for r in reports) == 16
    # the chain row at 1 on a chain of 3: join, below, meet, x - z
    assert builds == Counter({(0, 1, 1): 1, (1, 2): 1, (1, 1, 2): 1, (2, 1): 1})


def test_testbed_verdicts_do_not_depend_on_the_window_bound(monkeypatch):
    """Raising ``WINDOW_BOUND`` from 4 to 5 and 6 in dims 1-3 changes no
    verdict, reason or witness of a testbed run; only ``checked`` may
    grow.  The boxes of 7 and 8 values per axis are read through their
    window tables, as the default box is."""
    from residua.testbed import OrdinalCoframe

    for dims in (1, 2, 3):
        runs = []
        for bound in (4, 5, 6):
            cf = OrdinalCoframe(dims)
            assert cf.window_tables(cf.box(bound)) is not None
            monkeypatch.setattr(residua.laws, "WINDOW_BOUND", bound)
            runs.append([r.to_json_dict() for r in run_all(cf)])
        for smaller, larger in zip(runs, runs[1:]):
            assert sum(a["checked"] for a in smaller) < sum(b["checked"] for b in larger), dims
            for a, b in zip(smaller, larger):
                assert a["checked"] <= b["checked"], (dims, a["law"])
                assert {**a, "checked": 0} == {**b, "checked": 0}, (dims, a["law"])


def test_testbed_row_passes_read_the_window_tables():
    """With the window's tables, ``coheyting_join`` calls no primitive,
    ``mu_monotone`` no ``leq`` (one per pair z <= x without them),
    ``k_lower_semilattice`` calls ``dually_compact`` once per box vector
    and ``meet2`` never, and ``mu_join_hom`` joins only inside the
    closed-form profiles, not once per pair of mus.  Calls of the methods
    are counted by their code objects with ``sys.setprofile``, as a class
    patch would turn the tables off; a direct call of each counts once."""
    from collections import Counter

    from residua.testbed import INF, OrdinalCoframe

    cf = OrdinalCoframe(3)
    box = cf.box(WINDOW_BOUND)
    names = {
        getattr(OrdinalCoframe, name).__code__: name
        for name in ("leq", "meet2", "join2", "co_heyting_sub", "dually_compact")
    }

    def calls(run):
        seen = Counter()

        def count(frame, event, arg):
            if event == "call" and frame.f_code in names:
                seen[names[frame.f_code]] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            run()
        finally:
            sys.setprofile(previous)
        return seen

    def law(law_id):
        reports = []
        seen = calls(lambda: reports.append(run_law(cf, law_id)))
        assert reports[0].verdict == "pass", law_id
        return seen

    x, z = (1, 2, INF), (2, 2, INF)
    direct = calls(lambda: [cf.leq(z, x), cf.meet2(x, z), cf.join2(x, z), cf.dually_compact(x)])
    assert direct == Counter(leq=1, meet2=1, join2=1, dually_compact=1)
    assert calls(lambda: cf.co_heyting_sub(x, z)) == Counter(co_heyting_sub=1, leq=1)
    assert law(LawId.COHEYTING_JOIN) == Counter()
    assert law(LawId.MU_MONOTONE)["leq"] == 0
    assert law(LawId.K_LOWER_SEMILATTICE) == Counter(dually_compact=len(box))
    assert law(LawId.MU_JOIN_HOM)["join2"] < 2 * len(box)


def _with_one_table_off(cf) -> list:
    """Testbeds of ``cf``'s class and dims that each turn off one table of
    ``window_tables``: the meet rows (``meet2`` calls the class's own),
    the x - z rows (so does ``co_heyting_sub``) and the mus' join table
    (``window_tables`` of any window but the box is None)."""

    class Meet(type(cf)):
        def meet2(self, x, y):
            return super().meet2(x, y)

    class Sub(type(cf)):
        def co_heyting_sub(self, x, z):
            return super().co_heyting_sub(x, z)

    class Mus(type(cf)):
        def window_tables(self, elements):
            return super().window_tables(elements) if elements == self.box(WINDOW_BOUND) else None

    return [Meet(cf.dims), Sub(cf.dims), Mus(cf.dims)]


def test_testbed_reports_match_without_window_tables():
    """``run_all`` gives the same JSON, byte for byte, with the window's
    closed-form tables and with tables built from ``join2`` and ``leq``,
    and with each of the meet, x - z and mus' tables turned off alone, on
    the testbed in dims 1-3 and on each of ``faulty_testbeds``; every case
    whose ``join2`` is the kernel takes the closed form."""
    from residua.testbed import OrdinalCoframe

    cases = [*map(OrdinalCoframe, (1, 2, 3)), *faulty_testbeds()]
    closed = [cf.window_tables(cf.box(WINDOW_BOUND)) is not None for cf in cases]
    assert closed == [True] * 3 + [False] * 4 + [True] * 5

    def doc(cf):
        return json.dumps([r.to_json_dict() for r in run_all(cf)])

    meet, sub, mus = _with_one_table_off(cases[1])
    box = cases[1].box(WINDOW_BOUND)
    assert meet.window_tables(box).meet_rows() is None and sub.window_tables(box).sub_rows() is None
    assert mus.window_tables([mus.profile(x).mu for x in box]) is None
    for cf in cases:
        assert doc(_without_window_tables(cf)) == doc(cf), cf
        for off in _with_one_table_off(cf):
            assert doc(off) == doc(cf), (cf, type(off).__name__)


def test_residua_errors_of_finite_instances_fail_and_others_propagate(b3):
    """A ``ResiduaError`` that a finite instance's primitive raises fails
    the law, an integrity error with its own witness; any other exception
    is a bug of residua or of the instance and propagates."""

    class Raising(FiniteLattice):
        error = None

        def meet2(self, a, b):
            raise self.error

    L = Raising(**{f.name: getattr(b3, f.name) for f in fields(b3)})
    Raising.error = NotBelow("made up")
    rep = run_law(L, LawId.MAXIMALS_MEET_MAXIMAL)
    assert (rep.verdict, rep.reason, rep.witness["error"]) == ("fail", "made up", "NotBelow")
    assert {"a", "b"} <= set(rep.witness["indices"])
    Raising.error = LatticeIntegrityError("integrity", witness={"pair": [1, 2]})
    rep = run_law(L, LawId.MAXIMALS_MEET_MAXIMAL)
    assert (rep.verdict, rep.reason, rep.witness) == ("fail", "integrity", {"pair": [1, 2]})
    Raising.error = ZeroDivisionError("a bug")
    with pytest.raises(ZeroDivisionError):
        run_law(L, LawId.MAXIMALS_MEET_MAXIMAL)


def test_testbed_memo_lasts_one_run(monkeypatch):
    """Each run computes every derivative and every set of maximal
    subelements it needs once, cold, and leaves nothing on the lattice: a
    second run makes the same derivative, maximal-subelement and join
    calls again.  The pair laws of one run share one join table, so
    together they join each ordered box pair at most twice: once for the
    table and once for its mus."""
    from residua.testbed import OrdinalCoframe

    cf = OrdinalCoframe(2)
    before = dict(vars(cf))
    calls, maximal_calls = [], []
    real = residua.laws.residual_derivative
    real_maximals = residua.laws.maximal_subelements

    def counting(L, x, family=None, **rows):
        calls.append(x)
        return real(L, x, family, **rows)

    def counting_maximals(L, x, family=None):
        maximal_calls.append(x)
        return real_maximals(L, x, family)

    monkeypatch.setattr(residua.laws, "residual_derivative", counting)
    monkeypatch.setattr(residua.laws, "maximal_subelements", counting_maximals)
    joins = _counting_join2(monkeypatch)

    def docs():
        return [r.to_json_dict() for r in run_all(cf)]

    first = docs()
    first_calls, calls[:] = list(calls), []
    first_maximal_calls, maximal_calls[:] = list(maximal_calls), []
    first_joins, joins[:] = list(joins), []
    assert docs() == first
    assert calls == first_calls
    assert maximal_calls == first_maximal_calls
    assert joins == first_joins
    assert len(calls) == len(set(calls)) > 0
    assert len(maximal_calls) == len(set(maximal_calls)) > 0
    assert vars(cf) == before

    box = cf.box(WINDOW_BOUND)
    ctx = with_profiles(cf, {x: cf.profile(x) for x in box})
    joins.clear()
    for law in PAIR_LAWS:
        assert run_law(cf, law, _ctx=ctx).verdict == "pass"
    assert len(box) ** 2 <= len(joins) <= 2 * len(box) ** 2


# -- the instance protocol ------------------------------------------------------


class ProtocolOnly:
    """Delegates the law registry's instance protocol, its optional closed
    forms and the facts its fast paths read to a wrapped instance, and
    nothing else.  It is neither a ``FiniteLattice`` nor an
    ``OrdinalCoframe``, so a registry that keyed on either class would
    take the wrong branch for it, or miss an attribute."""

    NAMES = {
        # the protocol
        "box", "name", "describe", "bottom", "top", "coframe", "distributive",
        "leq", "meet2", "join2", "meet_of_set", "join_of_set", "dually_compact",
        # optional closed forms
        "maximal_subelements", "co_heyting_sub", "outcasts", "profile", "window_tables",
        # facts of the fast paths: order rows, stored tables, their faults,
        # and the join fold's error
        "poset", "join", "meet", "join_fault", "meet_fault", "_join_violation",
    }

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name not in self.NAMES:
            raise AttributeError(name)
        return getattr(self.inner, name)


def test_registry_reads_instances_through_the_protocol():
    """run_all on the wrapper gives the wrapped instance's reports byte for
    byte: a finite lattice, with and without a family, one with a
    corrupted join entry that fails 18 laws, and the testbed."""
    from residua.testbed import OrdinalCoframe

    d60 = divisor(60)
    corrupted = mutate_entry(boolean(3), "join", 3, 2, 7)
    family = mask_of([d60.bottom, *random.Random(23).sample(range(d60.n), 6)])
    cases = [(d60, None), (d60, family), (corrupted, None), (OrdinalCoframe(2), None)]
    for L, fam in cases:
        want = [json.dumps(r.to_json_dict()) for r in run_all(L, family=fam)]
        assert [json.dumps(r.to_json_dict()) for r in run_all(ProtocolOnly(L), family=fam)] == want
    failing = [r for r in run_all(ProtocolOnly(corrupted)) if r.verdict == "fail"]
    assert len(failing) == 18


def test_a_family_needs_order_rows():
    """A family is a set of element positions, so an instance without
    order rows refuses one instead of running its laws without it, and
    ``residual_profile`` refuses one with the same message.  On a finite
    lattice the same family, which lacks the bottom, skips."""
    from residua.testbed import OrdinalCoframe

    family = [(0, 0), (1, 1)]
    for run in (
        lambda: run_law(OrdinalCoframe(2), LawId.MU_RESIDUE_DECOMP, family=family),
        lambda: run_all(OrdinalCoframe(2), family=family),
        lambda: residual_profile(OrdinalCoframe(2), (2, 2), [(2, 2), (1, 2)]),
    ):
        with pytest.raises(ValueError, match=r"^testbed\(dims=2\) has no order rows, which a family of positions needs$"):
            run()
    b2 = boolean(2)
    rep = run_law(b2, LawId.MU_RESIDUE_DECOMP, family=[b2.top])
    assert (rep.verdict, rep.reason) == ("skipped", "family does not contain the bottom")
