"""The four benchmark workloads: laws, build, testbed and cli.

Each ``setup_<name>(seed, tmpdir)`` builds the workload's inputs and
returns a list of ``Item``s in the seeded order they run in.  An item's
``run`` is the timed call into residua; its ``check`` runs afterwards,
untimed, compares the result with a closed form from ``oracles`` and
returns the canonical output that goes into the output digest.

Every call into residua goes through a module attribute looked up at
call time (``laws.run_all``, never a name bound at import), so the
tracer's wrappers see the benchmark's calls as well as the program's
own.

Seeds change the inputs without changing the amount of work: random
lattices come from a fixed list of generator seeds and the workload
seed relabels their elements, orders the items, picks the corrupted
table entries and draws the CLI's ring moduli from fixed
divisor-count classes.  Drawing the generator seeds themselves from the
workload seed made the item-latency medians move by 15-30 % between
seeds, which would hide any regression smaller than that.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from math import inf as INF
from typing import Any, Callable

import residua.cli as cli
import residua.generators as generators
import residua.lattice as lattice
import residua.laws as laws
import residua.testbed as testbed
import residua.topology as topology

import oracles

NAMED_LAW_SPECS = ("boolean:7", "divisor:5040", "product:chain:8|boolean:4", "chain:64")
NONCYCLIC = ("s3", "d4", "q8", "a4", "z2xz4", "z2xz2xz2")
LAW_RANDOM_SEEDS = range(100)
LAW_CORRUPTED = 4
# Corrupted copies are made of the first random lattices this large, so
# that the seed moves the corrupted entry but not the instance size.
LAW_CORRUPTED_MIN_N = 12

BUILD_SPECS = ("chain:256", "boolean:8", "divisor:720720", "zn:720720", "product:chain:16|chain:16")
BUILD_RANDOM_SEEDS = range(60)
# Exponent signatures of mid-size divisor and ideal lattices (d(N) from 48
# to 128 elements, 8-170 ms each), so that the item p90 falls in a dense
# band of items rather than in a gap.  The seed assigns small primes to
# the exponents; every N of one signature gives the same lattice shape.
BUILD_SIGNATURES = ((2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 1, 1, 1), (4, 1, 1, 1, 1),
                    (3, 2, 1, 1, 1), (2, 2, 2, 1, 1), (4, 2, 1, 1, 1), (3, 3, 1, 1, 1))
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
CLOSED_SET_POINTS = range(1, 9)

TESTBED_DIMS, TESTBED_BOUND = 3, 4
LADDER_SMALL_DIMS, LADDER_SMALL_BOUND = 2, 8


class Mismatch(Exception):
    """An output disagrees with its oracle."""


@dataclass
class Item:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def relabel(doc: dict, rng: random.Random, prefix: str) -> dict:
    """Isomorphic copy of a lattice JSON document: fresh element names,
    shuffled element order and shuffled relation pairs."""
    elements = doc["elements"]
    ids = rng.sample(range(10 * len(elements) + 10), len(elements))
    rename = {old: f"{prefix}{k}" for old, k in zip(elements, ids)}
    new_elements = [rename[e] for e in elements]
    rng.shuffle(new_elements)
    relation = [[rename[a], rename[b]] for a, b in doc["relation"]]
    rng.shuffle(relation)
    return {"elements": new_elements, "relation": relation, "mode": doc["mode"]}


def vec_text(x) -> str:
    return ",".join("inf" if c == INF else str(c) for c in x)


def law_digest(reports) -> list:
    # elapsed_ms is wall-clock data, not an output.
    out = []
    for r in reports:
        d = r.to_json_dict()
        d.pop("elapsed_ms", None)
        out.append(d)
    return out


# -- laws ----------------------------------------------------------------------


def _check_all_pass(reports):
    expect(len(reports) == oracles.LAW_COUNT, f"{len(reports)} reports")
    for r in reports:
        expect(r.verdict == "pass", f"{r.law} on {r.instance}: {r.verdict}")
        expect(r.exhaustive, f"{r.law} on {r.instance} was sampled")
    return law_digest(reports)


def _check_noncoframe(reports):
    expect(len(reports) == oracles.LAW_COUNT, f"{len(reports)} reports")
    for r in reports:
        want = "pass" if r.law in oracles.LAWS_WITHOUT_COFRAME else "skipped"
        expect(r.verdict == want, f"{r.law} on {r.instance}: {r.verdict}, want {want}")
    return law_digest(reports)


def _check_corrupted(reports):
    # k_lower_semilattice checks every meet pair against the order, so a
    # corrupted meet entry must fail it.
    verdicts = {r.law: r.verdict for r in reports}
    expect(verdicts.get("k_lower_semilattice") == "fail", "corrupted meet not caught")
    return law_digest(reports)


def _laws_item(key, L, check):
    return Item(key, lambda: laws.run_all(L), check)


def setup_laws(seed: int, tmpdir: str) -> list:
    rng = random.Random(f"laws:{seed}")
    items = []
    for spec in NAMED_LAW_SPECS:
        L = generators.generate(spec)
        expect(L.n == oracles.spec_size(spec) and L.distributive, f"{spec} built wrong")
        items.append(_laws_item(spec, L, _check_all_pass))
    for name in NONCYCLIC:
        L = generators.generate(f"group:{name}")
        expect(not L.distributive, f"group:{name} reported distributive")
        items.append(_laws_item(f"group:{name}", L, _check_noncoframe))
    randoms = []
    for s in LAW_RANDOM_SEEDS:
        base = generators.generate(f"random:seed={s},size=50")
        doc = relabel(base.to_json_dict(), rng, "v")
        L = lattice.lattice_from_json(doc, provenance=f"random(seed={s},size=50)")
        randoms.append(L)
        items.append(_laws_item(f"random:{s}", L, _check_all_pass))
    bases = [L for L in randoms if L.n >= LAW_CORRUPTED_MIN_N][:LAW_CORRUPTED]
    for k, L in enumerate(bases):
        i, j = rng.randrange(L.n), rng.randrange(L.n)
        value = rng.choice([v for v in range(L.n) if v != L.meet[i][j]])
        bad = laws.mutate_entry(L, "meet", i, j, value)
        items.append(_laws_item(f"corrupted:{k}", bad, _check_corrupted))
    rng.shuffle(items)
    return items


# -- build ---------------------------------------------------------------------


def _check_spec(spec):
    def check(L):
        expect(L.n == oracles.spec_size(spec), f"{spec}: n={L.n}")
        expect(L.distributive == oracles.spec_distributive(spec), f"{spec}: distributive flag")
        return [L.n, L.distributive]

    return check


def _check_random_build(L):
    # Downset lattices are distributive; the generator honours the size cap.
    expect(1 <= L.n <= 200 and L.distributive, f"random lattice n={L.n}")
    return [L.n, L.distributive, L.to_json_dict()]


def _closed_set_item(points):
    def run():
        space = topology.FiniteTopology.from_subbase(points, [1 << i for i in range(points)])
        return topology.residual_equals_cb_closedsets(space)

    def check(report):
        # The closed sets of a discrete space are all 2^points subsets.
        expect(report.checked == 2**points and report.all_match, f"closed sets of {points} points")
        return [report.checked, report.all_match]

    return Item(f"closed_sets:{points}", run, check)


def number_with_signature(signature, rng) -> int:
    """A seeded N <= 10^6 (the zn cap) with the given prime exponents."""
    while True:
        n = 1
        for p, e in zip(rng.sample(SMALL_PRIMES, len(signature)), signature):
            n *= p**e
        if n <= 10**6:
            return n


def setup_build(seed: int, tmpdir: str) -> list:
    rng = random.Random(f"build:{seed}")
    specs = list(BUILD_SPECS) + [f"group:{name}" for name in generators.CATALOG_NAMES]
    for signature in BUILD_SIGNATURES:
        n = number_with_signature(signature, rng)
        specs += [f"divisor:{n}", f"zn:{n}"]
    items = [Item(spec, lambda spec=spec: generators.generate(spec), _check_spec(spec)) for spec in specs]
    for s in BUILD_RANDOM_SEEDS:
        spec = f"random:seed={s},size=200"
        items.append(Item(spec, lambda spec=spec: generators.generate(spec), _check_random_build))
    items.extend(_closed_set_item(p) for p in CLOSED_SET_POINTS)
    rng.shuffle(items)
    return items


# -- testbed -------------------------------------------------------------------


def _max_finite(x):
    return max((c for c in x if c != INF), default=0)


def _isolation_item(cf, x):
    def run():
        return cf.isolated_oracle(x, max(TESTBED_BOUND, _max_finite(x) + 2)), cf.characterization_predicates(x)

    def check(out):
        isolated, preds = out
        want = oracles.all_finite(x)
        expect(isolated == want and preds["corrected"] == want, f"isolation of {x}")
        return [vec_text(x), isolated, preds]

    return Item(f"isolated:{vec_text(x)}", run, check)


def _ladder_item(cf, alpha, bound):
    def member(z):
        return oracles.cb_level(z) >= alpha

    def check(sweep):
        box = itertools.product(list(range(bound + 1)) + [INF], repeat=cf.dims)
        expected_domain = {x for x in box if member(x)}
        expect(set(sweep) == expected_domain, f"ladder domain dims={cf.dims} alpha={alpha}")
        for x, isolated in sweep.items():
            expect(isolated == (oracles.cb_level(x) == alpha), f"ladder {x} alpha={alpha}")
        return sorted((vec_text(x), v) for x, v in sweep.items())

    return Item(f"ladder:{cf.dims}:{bound}:{alpha}", lambda: cf.subspace_isolation_sweep(member, bound), check)


def _s1s2_item():
    cf = testbed.OrdinalCoframe(2)

    def check(report):
        expect(report.all_clauses_pass, "second-layer clauses")
        samples = dict(report.converse_samples)
        # (inf,0) < y <= (0,0) with coordinates <= 8 means y = (k,0).
        expect(samples == {(k, 0): oracles.all_finite((k, 0)) for k in range(9)}, "converse samples")
        return report.to_json_dict()

    return Item("s1s2", lambda: cf.check_s1s2_above((INF, 0), (0, 0), 8), check)


def _testbed_laws_item(dims):
    cf = testbed.OrdinalCoframe(dims)

    def check(reports):
        expect(len(reports) == oracles.LAW_COUNT, f"{len(reports)} reports")
        for r in reports:
            want = "skipped" if r.law in oracles.LAWS_FINITE_ONLY else "pass"
            expect(r.verdict == want, f"{r.law} on testbed dims={dims}: {r.verdict}")
        return law_digest(reports)

    return Item(f"testbed_laws:{dims}", lambda: laws.run_all(cf), check)


def setup_testbed(seed: int, tmpdir: str) -> list:
    rng = random.Random(f"testbed:{seed}")
    cf = testbed.OrdinalCoframe(TESTBED_DIMS)
    items = [_isolation_item(cf, x) for x in cf.box(TESTBED_BOUND)]
    items += [_ladder_item(cf, a, TESTBED_BOUND) for a in range(TESTBED_DIMS + 1)]
    small = testbed.OrdinalCoframe(LADDER_SMALL_DIMS)
    items += [_ladder_item(small, a, LADDER_SMALL_BOUND) for a in range(LADDER_SMALL_DIMS + 1)]
    items.append(_s1s2_item())
    items += [_testbed_laws_item(d) for d in (2, 3)]
    rng.shuffle(items)
    return items


# -- cli -----------------------------------------------------------------------

ANALYZE_DIVISORS = (12, 30, 36, 60, 72, 90, 96, 120, 180, 210)
ANALYZE_CHAINS = range(2, 10)
ANALYZE_BOOLEANS = range(1, 5)
TOPOLOGY_SPECS = ("divisor:12", "divisor:30", "divisor:60", "divisor:72", "divisor:210", "boolean:2",
                  "boolean:3", "chain:3", "chain:5", "chain:8")
CLI_LAW_GEN_SEEDS = range(100, 110)
CLI_LAW_INPUT_SEEDS = range(10)
CLI_ROUNDTRIP_SEEDS = range(20, 30)
RING_DIVISOR_CLASSES = (2, 2, 4, 4, 6, 6, 8, 8, 12, 12, 16, 16, 24, 24, 32, 32, 40, 48, 48, 64)
RING_MAX = 10**4
TESTBED_CLI_BOUND = 6

# Malformed inputs the CLI already maps to exit 2 ("usage or input error").
MALFORMED_ARGV = (
    ["analyze", "--gen", "bogus:3"],
    ["analyze", "--gen", "chain:abc"],
    ["analyze", "--gen", "boolean:13"],
    ["analyze", "--gen", "chain:3", "--format", "dot", "--element", "nope"],
    ["laws", "--gen", "chain:3", "--laws", "no_such_law"],
    ["group", "--name", "z99"],
    ["ring", "--n", "1"],
    ["testbed", "--dims", "7"],
    ["frobnicate"],
    ["analyze"],
)
MALFORMED_FILES = {
    "missing": None,
    "not_json": "{not json",
    "cycle": {"elements": ["a", "b"], "relation": [["a", "b"], ["b", "a"]], "mode": "leq"},
    "two_bottoms": {"elements": ["a", "b", "t"], "relation": [["a", "t"], ["b", "t"]], "mode": "covers"},
    "unknown_element": {"elements": ["a"], "relation": [["a", "z"]], "mode": "covers"},
}

# The exit-code contract says malformed input exits 2.  These five inputs
# break it (the first three with a traceback out of main); they are
# probed once per run and reported as known defects, outside the timed
# items.
DEFECT_FILES = {
    "no_relation": {"elements": ["a", "b"]},
    "not_object": [1, 2, 3],
}


def defect_argvs(tmpdir: str) -> dict:
    return {
        "laws --gen random:seed=1": ["laws", "--gen", "random:seed=1"],
        "lattice JSON without relation": ["analyze", "--input", os.path.join(tmpdir, "no_relation.json")],
        "non-object JSON document": ["analyze", "--input", os.path.join(tmpdir, "not_object.json")],
        "testbed --element=-1,2": ["testbed", "--dims", "2", "--element=-1,2"],
        "testbed --bound -1": ["testbed", "--dims", "2", "--bound", "-1"],
    }


def call_cli(argv):
    """In-process ``residua.cli.main``; returns (exit code, stderr text)."""
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def probe_defects(tmpdir: str) -> list:
    """Names of the known exit-code defects that are still present."""
    present = []
    for name, argv in defect_argvs(tmpdir).items():
        try:
            code, _ = call_cli(argv + ["--report", os.path.join(tmpdir, "defect.out")])
        except Exception:
            code = "traceback"
        if code != 2:
            present.append(name)
    return present


def _write_json(path, doc):
    with open(path, "w") as f:
        f.write(doc if isinstance(doc, str) else json.dumps(doc))


def _read(path):
    with open(path) as f:
        return f.read()


class _Cli:
    """Builds cli items whose reports land in one temp directory."""

    def __init__(self, tmpdir):
        self.tmpdir = tmpdir
        self.items = []

    def add(self, key, argv, check, code=0):
        out = os.path.join(self.tmpdir, f"{len(self.items)}.out")
        full = argv + ["--report", out]

        def run():
            return call_cli(full)[0]

        def checked(got):
            expect(got == code, f"{key}: exit {got}, want {code}")
            if code != 0:
                return got
            text = _read(out).replace(self.tmpdir, "<tmp>")
            return check(text)

        self.items.append(Item(key, run, checked))


def _profiles_by_element(text):
    return {p["element"]: p for p in json.loads(text)["profiles"]}


def setup_cli(seed: int, tmpdir: str) -> list:
    rng = random.Random(f"cli:{seed}")
    c = _Cli(tmpdir)

    def analyze_json(spec, top, want_mu):
        def check(text):
            profiles = _profiles_by_element(text)
            expect(len(profiles) == oracles.spec_size(spec), f"{spec}: profile count")
            expect(profiles[top]["mu"] == want_mu, f"{spec}: mu({top})")
            return text

        c.add(f"analyze:{spec}", ["analyze", "--gen", spec], check)

    for n in ANALYZE_DIVISORS:
        # The maximal divisors of n are n/p; their gcd is n / rad(n).
        analyze_json(f"divisor:{n}", str(n), str(n // oracles.radical(n)))
    for k in ANALYZE_CHAINS:
        analyze_json(f"chain:{k}", str(k - 1), str(k - 2))
    for k in ANALYZE_BOOLEANS:
        # The coatoms of 2^k meet in the empty set.
        top = "{" + ",".join(f"a{i}" for i in range(k)) + "}"
        analyze_json(f"boolean:{k}", top, "{}")

    for n in ANALYZE_DIVISORS:
        spec = f"divisor:{n}"

        def check_text(text, spec=spec):
            lines = text.splitlines()
            expect(lines[0].startswith("instance:") and len(lines) == oracles.spec_size(spec) + 1, f"{spec}: text")
            return text

        c.add(f"analyze_text:{spec}", ["analyze", "--gen", spec, "--format", "text"], check_text)

    for n in ANALYZE_DIVISORS:
        spec = f"divisor:{n}"

        def check_dot(text, spec=spec):
            expect(text.startswith("digraph boundary {") and text.rstrip().endswith("}"), f"{spec}: dot")
            return text

        c.add(f"analyze_dot:{spec}", ["analyze", "--gen", spec, "--format", "dot", "--element", str(n)], check_dot)

    for spec in TOPOLOGY_SPECS:

        def check_topology(text, spec=spec):
            doc = json.loads(text)
            # The dual Lawson topology of a finite lattice is discrete, so
            # one CB step removes every point.
            expect(doc["discrete"] and doc["points"] == oracles.spec_size(spec), f"{spec}: topology")
            expect(doc["cb"]["rank"] == 1, f"{spec}: cb rank")
            return text

        c.add(f"topology:{spec}", ["topology", "--gen", spec], check_topology)

    def check_laws(text):
        reports = json.loads(text)
        expect(len(reports) == oracles.LAW_COUNT, "law count")
        expect(all(r["verdict"] == "pass" for r in reports), "a law failed on a distributive lattice")
        for r in reports:
            r.pop("elapsed_ms", None)
        return reports

    for s in CLI_LAW_GEN_SEEDS:
        c.add(f"laws_gen:{s}", ["laws", "--gen", f"random:seed={s},size=20"], check_laws)
    for s in CLI_LAW_INPUT_SEEDS:
        path = os.path.join(tmpdir, f"laws_{s}.json")
        _write_json(path, relabel(generators.generate(f"random:seed={s},size=20").to_json_dict(), rng, "w"))
        c.add(f"laws_input:{s}", ["laws", "--input", path], check_laws)

    for name in generators.CATALOG_NAMES:

        def check_group(text, name=name):
            doc = json.loads(text)
            expect(doc["subgroups"] == oracles.catalog_subgroup_count(name), f"group {name}: subgroups")
            expect(len(doc["frattini_members"]) == oracles.catalog_frattini_order(name), f"group {name}: Frattini")
            return text

        c.add(f"group:{name}", ["group", "--name", name], check_group)

    by_divisors: dict = {}
    for n, d in enumerate(oracles.divisor_counts(RING_MAX)[2:], start=2):
        by_divisors.setdefault(d, []).append(n)
    for d in RING_DIVISOR_CLASSES:
        n = rng.choice(by_divisors[d])

        def check_ring(text, n=n):
            doc = json.loads(text)
            expect(doc["ideals"] == oracles.divisor_count(n), f"ring {n}: ideals")
            expect(doc["jacobson_radical_generator"] == oracles.radical(n), f"ring {n}: radical")
            return text

        c.add(f"ring:{n}", ["ring", "--n", str(n)], check_ring)

    cf = testbed.OrdinalCoframe(2)
    box = cf.box(TESTBED_CLI_BOUND)

    def check_sweep(text):
        doc = json.loads(text)
        infinite = sorted(vec_text(x) for x in box if not oracles.all_finite(x))
        expect(doc["sweep_size"] == len(box) and doc["oracle_mismatches"] == [], "testbed sweep")
        expect(doc["literal_vs_corrected_discrepancies"] == infinite, "testbed discrepancies")
        return text

    c.add("testbed:sweep", ["testbed", "--dims", "2", "--bound", str(TESTBED_CLI_BOUND)], check_sweep)
    finite = [x for x in box if oracles.all_finite(x)]
    infinite = [x for x in box if not oracles.all_finite(x)]
    for x in rng.sample(finite, 3) + rng.sample(infinite, 3):

        def check_element(text, x=x):
            doc = json.loads(text)
            expect(doc["element"]["isolated"] == oracles.all_finite(x), f"testbed element {x}")
            expect(doc["element"]["cb_level"] == oracles.cb_level(x), f"testbed element {x}: cb level")
            return text

        arg = "--element=" + vec_text(x)
        c.add(f"testbed:{vec_text(x)}", ["testbed", "--dims", "2", "--bound", str(TESTBED_CLI_BOUND), arg],
              check_element)

    for s in CLI_ROUNDTRIP_SEEDS:
        doc = relabel(generators.generate(f"random:seed={s},size=30").to_json_dict(), rng, "r")
        path = os.path.join(tmpdir, f"roundtrip_{s}.json")
        _write_json(path, doc)

        def check_roundtrip(text, doc=doc):
            got = json.loads(text)["lattice"]
            expect(sorted(got["elements"]) == sorted(doc["elements"]), "round trip elements")
            expect(sorted(map(tuple, got["relation"])) == sorted(map(tuple, doc["relation"])), "round trip covers")
            return text

        c.add(f"roundtrip:{s}", ["analyze", "--input", path], check_roundtrip)

    for k, argv in enumerate(MALFORMED_ARGV):
        c.add(f"malformed:{k}", list(argv), None, code=2)
    for name, content in MALFORMED_FILES.items():
        path = os.path.join(tmpdir, f"malformed_{name}.json")
        if content is not None:
            _write_json(path, content)
        c.add(f"malformed:{name}", ["analyze", "--input", path], None, code=2)
    for name, content in DEFECT_FILES.items():
        _write_json(os.path.join(tmpdir, f"{name}.json"), content)

    rng.shuffle(c.items)
    return c.items


SETUP = {"laws": setup_laws, "build": setup_build, "testbed": setup_testbed, "cli": setup_cli}
