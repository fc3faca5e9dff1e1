import functools
import itertools
import json
from dataclasses import fields, replace

from residua.bitset import contains
from residua.errors import LatticeIntegrityError
from residua.generators import (
    boolean,
    chain,
    divisor,
    downset_lattice,
    random_distributive,
)
from residua.lattice import FiniteLattice, build_poset, canonical_json
from residua.laws import (
    DEFAULT_BUDGET,
    Budget,
    LawId,
    REGISTRY,
    _Ctx,
    _fold_downset_subsets,
    _sample_chains,
    mutate_entry,
    run_all,
    run_law,
    shrink,
)
from residua.residual import maximal_subelements

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


def test_reports_are_deterministic(div12):
    def strip(reports):
        docs = [r.to_json_dict() for r in reports]
        for d in docs:
            d.pop("elapsed_ms")
        return canonical_json(docs)

    assert strip(run_all(div12, Budget(seed=3))) == strip(run_all(div12, Budget(seed=3)))


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
    # On boolean:3 every entry, and on divisor:60 the join entries [i][j]
    # with i > j, which only sampled subsets fold, so that only the check
    # of the whole join table catches some of them, such as
    # ("join", 5, 4, v) on boolean:3 and ("join", 6, 1, 1) on divisor:60.
    d60 = divisor(60)
    cases = itertools.chain(
        single_entry_mutations(b2),
        single_entry_mutations(b3),
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


def test_downset_count_path_matches_subset_loop(lattice_corpus, b3):
    """Whole reports (verdict, checked, sampled flag, witness) of the
    table-check-and-count path equal those of the subset loop, which folds
    every subset, except where the loop misses a bad join entry: there
    the law fails with the table check's pair."""
    law = LawId.DOWNSET_UPPER_COMPLETE
    wrong_bottom = replace_bottom(b3, b3.top)
    cases = [*lattice_corpus, wrong_bottom, *(m for _, m in single_entry_mutations(b3, ("join",)))]
    caught_by_table = 0
    for L in cases:
        rep = run_law(L, law)
        ctx = _Ctx(L, DEFAULT_BUDGET, law)
        ok, witness = _fold_downset_subsets(ctx)
        assert (rep.checked, rep.exhaustive, rep.sampled_subsets) == (
            ctx.checked,
            ctx.exhaustive,
            ctx.sampled_subsets,
        ), L.provenance
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
    the same pairs and sampled chains: ``(verdict, checked, witness)``."""
    ctx = _Ctx(L, DEFAULT_BUDGET, LawId.MINMAX_BOUND)
    for u, v in ctx.pairs():
        hyp = L.join2(u, v)
        conclusion = L.join2(L.join2(u, u), L.meet2(v, v))
        for z in L.elements():
            if L.leq(z, hyp):
                ctx.checked += 1
                if not L.leq(z, conclusion):
                    return "fail", ctx.checked, ctx.witness(u=u, v=v, z=z)
    for asc in _sample_chains(ctx):
        desc = list(reversed(asc))
        try:
            bound = L.join2(L.join_of_set(asc), L.meet_of_set(desc))
        except LatticeIntegrityError as e:
            return "fail", ctx.checked, e.witness
        for z in L.elements():
            if all(L.leq(z, L.join2(a, d)) for a, d in zip(asc, desc)):
                ctx.checked += 1
                if not L.leq(z, bound):
                    return "fail", ctx.checked, ctx.witness({"chain": [ctx.name(c) for c in asc]}, z=z)
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
    chain half of minmax_bound cannot fail: its bound is the join entry
    of the chain's top and bottom, which its own last term reads too.
    Unverified folds let a corrupted entry reach the bound."""

    def meet_of_set(self, xs):
        return functools.reduce(lambda a, b: self.meet[a][b], xs)

    def join_of_set(self, xs):
        return functools.reduce(lambda a, b: self.join[a][b], xs)


def test_minmax_bound_chain_bit_scan_matches_element_loop(div12):
    chain_failures = 0
    for L in (boolean(3), div12, chain(5)):
        unchecked = UncheckedFolds(**{f.name: getattr(L, f.name) for f in fields(L)})
        for key, mutated in single_entry_mutations(unchecked):
            expected = minmax_reference(mutated)
            rep = run_law(mutated, LawId.MINMAX_BOUND)
            assert (rep.verdict, rep.checked, rep.witness) == expected, key
            chain_failures += expected[0] == "fail" and "chain" in expected[2]
    assert chain_failures >= 20


def test_fault_reports_carry_witness(div12):
    mutated = mutate_entry(div12, "meet", 3, 4, 0)
    reports = run_all(mutated)
    failing = [r for r in reports if r.verdict == "fail"]
    assert failing
    assert all(r.witness is not None or r.reason for r in failing)


def test_shrink_of_passing_law_is_identity(b3):
    rep = run_law(b3, LawId.CORE_RESIDUE_DECOMP)
    lat, out = shrink(b3, LawId.CORE_RESIDUE_DECOMP, rep)
    assert lat is b3 and out is rep


def test_shrink_fault_on_b3_reaches_small_witness(b3):
    # corrupt one meet entry; the integrity-sensitive law fails, then shrinks
    mutated = mutate_entry(b3, "meet", 1, 2, b3.join2(1, 2))
    rep = run_law(mutated, LawId.K_LOWER_SEMILATTICE)
    assert rep.verdict == "fail"
    small, small_rep = shrink(mutated, LawId.K_LOWER_SEMILATTICE, rep)
    assert small_rep.verdict == "fail"
    assert small.n <= 4
    # replaying the law on the shrunk instance still fails
    assert run_law(small, LawId.K_LOWER_SEMILATTICE).verdict == "fail"


def test_shrink_keeps_already_minimal_witness():
    L = chain(3)
    mutated = mutate_entry(L, "join", 0, 1, 2)
    rep = run_law(mutated, LawId.DOWNSET_UPPER_COMPLETE)
    assert rep.verdict == "fail"
    small, small_rep = shrink(mutated, LawId.DOWNSET_UPPER_COMPLETE, rep)
    assert small_rep.verdict == "fail"
    assert small.n <= L.n


def test_law_subset_selection(div12):
    reports = run_all(div12, laws=[LawId.COHEYTING_JOIN, LawId.CORE_UNION])
    assert [r.law for r in reports] == ["coheyting_join", "core_union"]


def test_testbed_instance_supported():
    from residua.testbed import OrdinalCoframe

    cf = OrdinalCoframe(2)
    reports = run_all(cf, Budget(testbed_bound=3))
    verdicts = {r.law: r for r in reports}
    assert verdicts["k_lower_semilattice"].verdict == "pass"
    assert verdicts["maximals_dually_compact"].verdict == "pass"
    assert verdicts["maximals_dually_compact"].checked > 0
    assert verdicts["coheyting_join"].verdict == "pass"
    assert verdicts["strata_ranked"].verdict == "skipped"
    assert not any(r.verdict == "fail" for r in reports)


def test_report_json_schema(div12):
    doc = run_law(div12, LawId.COHEYTING_JOIN).to_json_dict()
    assert {"law", "instance", "verdict", "checked", "exhaustive", "sampled_subsets", "elapsed_ms"} <= set(doc)
    json.dumps(doc)
