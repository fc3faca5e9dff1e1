import functools
import itertools
import json
import random
from dataclasses import fields, replace

import residua.laws
import residua.residual
from residua.bitset import bits, contains, mask_of
from residua.errors import LatticeIntegrityError, NoBottom, NotALattice
from residua.generators import (
    boolean,
    chain,
    divisor,
    downset_lattice,
    generate,
    random_distributive,
)
from residua.lattice import FiniteLattice, as_lattice, build_poset, canonical_json, lattice_from_json
from residua.laws import (
    DEFAULT_BUDGET,
    Budget,
    LawId,
    REGISTRY,
    _Ctx,
    _RunMemo,
    _fold_downset_subsets,
    _sample_chains,
    mutate_entry,
    run_all,
    run_law,
    shrink,
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


def test_reports_are_deterministic(div12):
    def dump(reports):
        return canonical_json([r.to_json_dict() for r in reports])

    assert dump(run_all(div12, Budget(seed=3))) == dump(run_all(div12, Budget(seed=3)))


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
    # entries [i][j] with i > j, which only sampled subsets fold, so that
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
    assert {"law", "instance", "verdict", "checked", "exhaustive", "sampled_subsets"} <= set(doc)
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
    """Fold every removal subset through ``join_of_set``, one by one."""
    L = ctx.L
    budget = ctx.budget
    for x in ctx.elements:
        p = ctx.profile(x)
        delta = list(p.boundary_poset)
        if len(delta) <= budget.subset_exhaustive_bits:
            removals = list(
                itertools.chain.from_iterable(
                    itertools.combinations(delta, k) for k in range(len(delta) + 1)
                )
            )
        else:
            ctx.sampled_subsets = True
            removals = [(), *((s,) for s in delta)]
            for _ in range(budget.max_sampled_subsets):
                k = ctx.rng.randint(0, len(delta))
                removals.append(tuple(ctx.rng.sample(delta, k)))
        for removed in removals:
            ctx.checked += 1
            target = L.join_of_set([p.core, *[s for s in delta if s not in removed]])
            if not L.leq(target, x):
                return False, ctx.witness(
                    {"removed": [ctx.name(s) for s in removed]}, x=x, target=target
                )
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
    boolean:3, where the failures show that each reference is reached."""
    mutations = [m for _, m in single_entry_mutations(b3)]
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


def test_pair_sampler_draws_distinct_pairs():
    L = chain(5)
    ctx = _Ctx(L, Budget(max_pairs=24), LawId.TYPE_SUBADDITIVE)
    pairs = list(ctx.pairs())
    assert len(pairs) == len(set(pairs)) == 24
    assert not ctx.exhaustive
    assert set(pairs) <= set(itertools.product(L.elements(), repeat=2))
    ctx = _Ctx(L, Budget(max_pairs=25), LawId.TYPE_SUBADDITIVE)
    assert len(set(ctx.pairs())) == 25 and ctx.exhaustive


def order_distributive(L) -> bool:
    try:
        return as_lattice(L.poset).distributive
    except (NotALattice, NoBottom):
        return False


def test_shrink_of_corrupted_coframe_law_judges_distributivity_by_the_order(b3):
    """A corrupted join table makes the shrunk tables fail the triple
    scan while their order stays distributive; the flag, which the closed
    form of x - z relies on, follows the order, so the coframe law keeps
    running on the shrunk candidates and the failure shrinks to 2 elements."""
    mutated = mutate_entry(b3, "join", 0, 0, 3)
    law = LawId.COHEYTING_JOIN
    rep = run_law(mutated, law)
    assert rep.verdict == "fail"
    small, small_rep = shrink(mutated, law, rep)
    assert small_rep.verdict == "fail" and run_law(small, law).verdict == "fail"
    assert small.n == 2
    assert small.distributive == order_distributive(small)
    for key, m in single_entry_mutations(b3):
        rep = run_law(m, LawId.MU_JOIN_HOM)
        if rep.verdict == "fail":
            small, _ = shrink(m, LawId.MU_JOIN_HOM, rep)
            assert small.distributive == order_distributive(small), key


def relabeled(L, seed):
    """L with its elements renumbered at random, so that index 0 is
    usually not the bottom."""
    doc = L.to_json_dict()
    random.Random(seed).shuffle(doc["elements"])
    return lattice_from_json(doc, provenance=f"{L.provenance}~{seed}")


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
    fast = [run_law(L, law, _memo=_RunMemo(dict(profiles))).to_json_dict() for L, profiles in cases]
    monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=strata_ranked_reference))
    violated = set()
    for (L, profiles), doc in zip(cases, fast):
        ref = run_law(L, law, _memo=_RunMemo(dict(profiles))).to_json_dict()
        assert doc == ref, L.provenance
        violated.add((doc.get("witness") or {}).get("violated"))
    assert {"antichain", "rank order"} <= violated


def test_pair_laws_reach_a_raising_profile_at_the_same_pair(b3, div12, monkeypatch):
    """With profiles that raise at chosen elements, the hoisted pair loops
    fail at the same pair, with the same witness, as the reference loops.
    The order of the profile calls within a pair shows on relabeled
    lattices, which keep index 0 off the bottom, and on sampled pairs."""
    real = residua.residual.residual_profile

    def raising_at(elements):
        def profile(L, x, family=None, residues_of=None):
            if x in elements:
                raise LatticeIntegrityError("injected", witness={"x": L.names[x]})
            return real(L, x, family, residues_of)

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
            for law, budget in itertools.product(laws, (DEFAULT_BUDGET, Budget(max_pairs=20))):
                out.append(run_law(L, law, budget).to_json_dict())
        return out

    fast = docs()
    for law in laws:
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=REFERENCE_CHECKERS[law]))
    assert docs() == fast
    assert {doc["law"] for doc in fast if doc["verdict"] == "fail"} == {law.value for law in laws}


# The pair laws that decide whole table rows while the pairs of a finite
# lattice run exhaustively, and replay their pair loops on a failing row;
# k_lower_semilattice reads its first witness off ``L.meet_fault``.
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


def test_row_laws_sample_their_pairs_above_the_budget(div12, monkeypatch):
    """Above ``max_pairs`` the row laws draw their pairs and run the pair
    loops, with the references' reports."""
    budget = Budget(max_pairs=20)
    cases = [div12, *late_row_mutations(random.Random(13), [relabeled(div12, 0)], per_table=3)]
    laws = [*ROW_LAWS, LawId.MINMAX_BOUND]
    fast = [[run_law(L, law, budget).to_json_dict() for law in laws] for L in cases]
    assert all(not d["exhaustive"] for docs in fast for d in docs)
    assert [d["checked"] for d in fast[0][:3]] == [20, 20, 20]
    for law in ROW_LAWS:
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=REFERENCE_CHECKERS[law]))
    assert [[run_law(L, law, budget).to_json_dict() for law in laws] for L in cases] == fast


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
        ctx = _Ctx(L, DEFAULT_BUDGET, LawId.SUBELEMENT_DECOMP)
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
    """The fold memo lives on each law's context: after ``run_all`` the
    lattice holds only its derivative row, its two table faults and its
    meet table (built on first read), and the poset its order rows."""
    L = generate("chain:40")
    run_all(L)
    cached = lambda obj: set(vars(obj)) - {f.name for f in fields(obj)}
    assert cached(L) == {"derivatives", "join_fault", "meet_fault", "meet"}
    assert cached(L.poset) <= {"lower_covers", "irreducibles", "coirreducibles"}


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


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the message and witness it raises."""
    try:
        return fn(*args)
    except LatticeIntegrityError as e:
        return str(e), e.witness


def fresh_residues(L, x):
    return {m: co_heyting_sub(L, x, m) for m in bits(L.poset.lower_covers[x])}


def test_element_rows_match_fresh_computation(lattice_corpus):
    """Every entry of the run's rows, read in a random order and read
    twice, equals ``lower_covers``, ``co_heyting_sub`` and ``outcasts``
    computed fresh; the residues come in maximal order, and the profiles
    built on the rows equal those built without them."""
    rng = random.Random(16)
    for L in lattice_corpus:
        ctx = _Ctx(L, DEFAULT_BUDGET, LawId.RESIDUE_UNIQUE_MAXIMAL)
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
        memo = ctx.memo
        assert None not in memo.maximals + memo.residues + memo.outcasts, L.provenance
        for x in L.elements():
            assert residual_profile(L, x, residues_of=ctx.residues) == residual_profile(L, x)


def test_laws_in_a_family_bypass_the_rows(lattice_corpus):
    """A law run in a family reads maximal subelements, outcasts and
    profiles in that family, and the run's rows stay unbuilt."""
    rng = random.Random(17)
    for L in lattice_corpus[::7]:
        family = mask_of([L.bottom, *rng.sample(range(L.n), L.n // 2)])
        memo = _RunMemo()
        ctx = _Ctx(L, DEFAULT_BUDGET, LawId.RESIDUE_UNIQUE_MAXIMAL, family=family, memo=memo)
        for x in L.elements():
            assert ctx.maximals(x) == maximal_subelements(L, x, family)
            assert ctx.outcasts(x) == outcasts(L, x, family)
            assert outcome(ctx.profile, x) == outcome(residual_profile, L, x, family)
        assert memo.maximals is memo.residues is memo.outcasts is None
        assert not memo.profiles


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
        ctx = _Ctx(L, DEFAULT_BUDGET, LawId.RESIDUE_UNIQUE_MAXIMAL)
        memo = ctx.memo
        for x in L.elements():
            maxes = list(bits(L.poset.lower_covers[x]))
            whole = outcome(fresh_residues, L, x)
            outs = outcome(outcasts, L, x)
            for _ in range(2):
                assert ctx.maximals(x) == maxes
                assert outcome(ctx.residues, x) == whole, (L.provenance, x)
                assert (list(memo.residues[x]) == maxes) == isinstance(whole, dict)
                for m in maxes:
                    single = outcome(co_heyting_sub, L, x, m)
                    assert outcome(ctx.residue, x, m) == single
                    assert memo.residues[x].get(m) == (single if isinstance(single, int) else None)
                    failed.add(("residue", L.provenance.split("+")[0], isinstance(single, tuple)))
                assert outcome(ctx.outcasts, x) == outs, (L.provenance, x)
                assert (memo.outcasts[x] is not None) == isinstance(outs, list)
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
        assert r.exhaustive and not r.sampled_subsets, r.law
    assert sum(r.verdict == "pass" for r in reports) == 16
    checked = {r.law: r.checked for r in reports}
    # 6^3 box vectors: every pair, and every pair z <= x (21 values of
    # z_j >= x_j summed over the 6 values of x_j, per coordinate)
    assert checked["mu_join_hom"] == checked["core_join_hom"] == 216**2
    assert checked["coheyting_join"] == checked["mu_monotone"] == 21**3


def test_testbed_below_is_the_leq_filter():
    from residua.testbed import OrdinalCoframe

    for dims, bound in ((1, 4), (2, 4), (3, 4), (4, 3)):
        cf = OrdinalCoframe(dims)
        ctx = _Ctx(cf, Budget(testbed_bound=bound), LawId.COHEYTING_JOIN)
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


def test_testbed_join_table_matches_reference_laws(monkeypatch):
    """The pair laws read the run's join table on the testbed, or join
    each drawn pair when they sample, and report what the per-pair
    reference loops report.  One join is wrong: at the bottom pair, whose
    cores every pair joins, or at a pair of incomparable vectors, with a
    value inside the box or outside it (the table's -1)."""
    from residua.testbed import INF, OrdinalCoframe

    real_join2 = OrdinalCoframe.join2

    def wrong_join(pair, value):
        def join2(self, x, y):
            return value if (x, y) == pair else real_join2(self, x, y)

        return join2

    bottom = (INF, INF)
    cases = [
        (_testbed_fault(2, join2=wrong_join(pair, value)), DEFAULT_BUDGET)
        for pair in ((bottom, bottom), ((1, 2), (2, 1)))
        for value in ((0, 0), (9, 9))
    ]
    cases.append((OrdinalCoframe(2), Budget(max_pairs=20)))

    def docs():
        return [[r.to_json_dict() for r in run_all(cf, budget, laws=PAIR_LAWS)] for cf, budget in cases]

    fast = docs()
    for law in PAIR_LAWS:
        monkeypatch.setitem(REGISTRY, law, replace(REGISTRY[law], fn=REFERENCE_CHECKERS[law]))
    assert docs() == fast
    verdicts = [[d["verdict"] for d in case] for case in fast]
    assert verdicts == [
        ["fail", "fail", "fail"],
        ["fail", "fail", "fail"],
        ["pass", "fail", "pass"],
        ["pass", "fail", "pass"],
        ["pass", "pass", "pass"],
    ]
    assert fast[1][0]["witness"] == {"x": "inf,inf", "z": "inf,inf"}
    assert fast[1][1]["witness"]["join"] == "9,9"
    assert fast[3][1]["witness"]["mu_of_parts"] == "9,9"
    assert all(not d["exhaustive"] and d["checked"] == 20 for d in fast[-1])


def test_sampled_pair_laws_build_no_join_table(monkeypatch):
    """When the pairs are sampled, each law joins each drawn pair once,
    and the homomorphism laws also join its mus or cores; a join table
    would take 36^2 joins."""
    from residua.testbed import OrdinalCoframe

    cf = OrdinalCoframe(2)
    budget = Budget(max_pairs=20)
    # profiles join their residues: compute them before counting
    profiles = {x: cf.profile(x) for x in cf.box(budget.testbed_bound)}
    calls = _counting_join2(monkeypatch)
    counts = []
    for law in PAIR_LAWS:
        calls.clear()
        memo = _RunMemo(dict(profiles))
        assert run_law(cf, law, budget, _memo=memo).verdict == "pass"
        assert memo.joins is None
        counts.append(len(calls))
    assert counts[0] == 20 and max(counts) <= 2 * 20


def test_testbed_memo_lasts_one_run(monkeypatch):
    """Each run computes every derivative it needs once, cold, and leaves
    nothing on the lattice: a second run makes the same derivative and
    join calls again.  The pair laws of one run share one join table, so
    together they join each ordered box pair at most twice: once for the
    table and once for its mus."""
    from residua.testbed import OrdinalCoframe

    cf = OrdinalCoframe(2)
    before = dict(vars(cf))
    calls = []
    real = residua.laws.residual_derivative

    def counting(L, x, family=None):
        calls.append(x)
        return real(L, x, family)

    monkeypatch.setattr(residua.laws, "residual_derivative", counting)
    joins = _counting_join2(monkeypatch)

    def docs():
        return [r.to_json_dict() for r in run_all(cf)]

    first = docs()
    first_calls, calls[:] = list(calls), []
    first_joins, joins[:] = list(joins), []
    assert docs() == first
    assert calls == first_calls
    assert joins == first_joins
    assert len(calls) == len(set(calls)) > 0
    assert vars(cf) == before

    box = cf.box(DEFAULT_BUDGET.testbed_bound)
    memo = _RunMemo({x: cf.profile(x) for x in box})
    joins.clear()
    for law in PAIR_LAWS:
        assert run_law(cf, law, _memo=memo).verdict == "pass"
    assert len(box) ** 2 <= len(joins) <= 2 * len(box) ** 2
