import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import residua.generators
import residua.residual
from residua import cli
from residua.bitset import mask_of
from residua.lattice import canonical_json, lattice_from_json
from residua.laws import LawReport
from residua.residual import (
    RankValue,
    ResidualProfile,
    Rows,
    co_heyting_sub,
    maximal_subelements,
    residual_derivative,
    residual_profile,
)
from residua.testbed import INF, OrdinalCoframe


def run_cli(*argv):
    return cli.main(list(argv))


def test_analyze_divisor12(tmp_path):
    out = tmp_path / "out.json"
    assert run_cli("analyze", "--gen", "divisor:12", "--report", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["profiles"]) == 6
    by_element = {p["element"]: p for p in doc["profiles"]}
    assert by_element["12"]["rank"] == {"finite": 2}
    assert by_element["12"]["core"] == "1"
    assert set(doc["grade_stats"]) == set(by_element)


def test_analyze_computes_only_the_profiles_each_format_prints(monkeypatch, capsys):
    """``--format dot`` alone prints the Hasse diagram and asks for no
    profile, ``--format dot --element X`` asks for X's alone, and text and
    json one per element; each prints the bytes that the profiles of
    every element give."""
    real, calls = Rows.profile, []

    def counting(rows, x):
        calls.append(x)
        return real(rows, x)

    L = cli.generate("divisor:12")
    profiles = [residual_profile(L, x) for x in L.elements()]
    monkeypatch.setattr(Rows, "profile", counting)
    docs = [p.to_json_dict(L) for p in profiles]
    stats = {L.names[x]: p.grade_stats(L) for x, p in enumerate(profiles)}
    doc = {"instance": L.describe(), "lattice": L.to_json_dict(), "profiles": docs, "grade_stats": stats}
    rank = lambda p: p["rank"] if p["rank"] == "omega" else p["rank"]["finite"]
    text = f"instance: {L.describe()}\n" + "".join(
        f"  {p['element']}: mu={p['mu']} rank={rank(p)} core={p['core']} boundary={p['boundary']}\n" for p in docs
    )
    twelve = L.poset.index_of("12")
    cases = [
        (["--format", "dot"], [], L.to_dot()),
        (["--format", "dot", "--element", "12"], [twelve], profiles[twelve].boundary_dot(L)),
        (["--format", "text"], list(L.elements()), text),
        (["--format", "json"], list(L.elements()), canonical_json(doc)),
    ]
    for flags, want_calls, want_out in cases:
        calls.clear()
        assert run_cli("analyze", "--gen", "divisor:12", *flags) == 0
        assert (calls, capsys.readouterr().out) == (want_calls, want_out), flags


def test_analyze_asks_for_each_maximal_row_once():
    """One set of rows serves every profile of ``analyze``: on chain:64
    each element's maximal subelements are computed at most twice, once
    for the rows and once by the fixpoint check of its profile."""
    real, calls = residua.residual.maximal_subelements, []

    def counting(L, x, family=None):
        calls.append(x)
        return real(L, x, family)

    sink = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(sink):
        mp.setattr(residua.residual, "maximal_subelements", counting)
        assert cli.main(["analyze", "--gen", "chain:64", "--format", "text"]) == 0
    assert sink.getvalue().count("\n") == 65
    assert 64 <= len(calls) <= 2 * 64


def fresh_profile(L, x, family):
    """x's profile from the definitions, each fact computed anew: the
    derivative chain down to its fixpoint, and one stratum of residues
    per iterate below the core."""
    chain = [x]
    while (mu := residual_derivative(L, chain[-1], family)) != chain[-1]:
        chain.append(mu)
    residues_of = lambda y: {m: co_heyting_sub(L, y, m) for m in maximal_subelements(L, y, family)}
    residues = residues_of(x)
    strata = tuple(tuple(sorted(set(residues_of(y).values()))) for y in chain[:-1])
    rho = {}
    for a, stratum in enumerate(strata):
        for s in stratum:
            rho.setdefault(s, a)
    return ResidualProfile(
        element=x,
        family=family,
        maximal=tuple(residues),
        mu=chain[1] if len(chain) > 1 else x,
        rank=RankValue.of(len(chain) - 1),
        core=chain[-1],
        residues=residues,
        boundary=L.join_of_set(list(residues.values())),
        strata=strata,
        boundary_poset=tuple(sorted(rho)),
        rho=rho,
        iterates=tuple(chain),
    )


def test_analyze_prints_what_fresh_profiles_give(lattice_corpus, tmp_path, capsys):
    """``analyze`` builds its profiles on shared rows, each on those kept
    below it; json, text and ``dot --element`` print byte for byte what
    profiles computed fresh from the definitions give, on relabeled
    corpus lattices, renamed so that a family is a comma list, whose
    index order is rarely a linear extension, in the default family and
    in a random one."""
    rng = random.Random(52)
    bases = lattice_corpus[:60:3] + lattice_corpus[60::40] + [cli.generate("chain:40"), cli.generate("divisor:720")]
    for k, base in enumerate(bases):
        doc = base.to_json_dict()
        rename = dict(zip(doc["elements"], rng.sample([f"v{i}" for i in range(base.n)], base.n)))
        doc["elements"] = sorted(rename.values(), key=lambda _: rng.random())
        doc["relation"] = [[rename[a], rename[b]] for a, b in doc["relation"]]
        path = tmp_path / f"l{k}.json"
        path.write_text(json.dumps(doc))
        L = lattice_from_json(doc, provenance=str(path))
        names = rng.sample(L.names, rng.randint(1, L.n))
        element = rng.choice(L.names)
        for family in (None, names):
            fam = None if family is None else mask_of(map(L.poset.index_of, family))
            profiles = [fresh_profile(L, x, fam) for x in L.elements()]
            docs = [p.to_json_dict(L) for p in profiles]
            stats = {L.names[x]: p.grade_stats(L) for x, p in enumerate(profiles)}
            report = {"instance": L.describe(), "lattice": L.to_json_dict(), "profiles": docs, "grade_stats": stats}
            rank = lambda p: p["rank"] if p["rank"] == "omega" else p["rank"]["finite"]
            text = f"instance: {L.describe()}\n" + "".join(
                f"  {p['element']}: mu={p['mu']} rank={rank(p)} core={p['core']} boundary={p['boundary']}\n"
                for p in docs
            )
            dot = profiles[L.poset.index_of(element)].boundary_dot(L)
            flags = [] if family is None else ["--family", ",".join(family)]
            cases = [(["--format", "json"], canonical_json(report)), (["--format", "text"], text)]
            cases.append((["--format", "dot", "--element", element], dot))
            for more, want in cases:
                assert run_cli("analyze", "--input", str(path), *flags, *more) == 0
                assert capsys.readouterr().out == want, (base.provenance, family, more)


def test_analyze_family_selector(tmp_path):
    out = tmp_path / "out.json"
    assert run_cli("analyze", "--gen", "chain:3", "--family", "t0", "--report", str(out)) == 0
    assert run_cli("analyze", "--gen", "chain:3", "--family", "0,2", "--report", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["profiles"]) == 3


def test_analyze_and_laws_run_in_a_join_closed_family(tmp_path):
    """divisor:60 in a family that holds the bottom and is closed under
    joins: every profile decomposes, and every law passes."""
    out = tmp_path / "out.json"
    family = "1,2,3,5,6,10,15,30,60"
    assert run_cli("analyze", "--gen", "divisor:60", "--family", family, "--report", str(out)) == 0
    assert run_cli("laws", "--gen", "divisor:60", "--family", family, "--report", str(out)) == 0
    verdicts = {d["law"]: d["verdict"] for d in json.loads(out.read_text())}
    assert set(verdicts.values()) == {"pass"} and len(verdicts) == 26


def test_laws_random_all_pass(tmp_path):
    out = tmp_path / "laws.json"
    code = run_cli(
        "laws", "--gen", "random:seed=7,size=50", "--laws", "all", "--report", str(out)
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert [r["law"] for r in reports] == [law.value for law in cli.LawId]
    assert all(r["verdict"] != "fail" for r in reports)


def test_laws_subset_and_text(capsys):
    code = run_cli("laws", "--gen", "divisor:12", "--laws", "coheyting_join", "--format", "text")
    assert code == 0
    assert "coheyting_join: pass" in capsys.readouterr().out


def test_laws_exit_code_on_failure(monkeypatch, tmp_path):
    fake = [LawReport(law="coheyting_join", instance="x", verdict="fail")]
    monkeypatch.setattr(cli, "run_all", lambda *a, **k: fake)
    assert run_cli("laws", "--gen", "chain:2", "--report", str(tmp_path / "r.json")) == 1


def test_laws_unknown_law_is_usage_error(capsys):
    assert run_cli("laws", "--gen", "chain:2", "--laws", "nosuch") == 2
    assert "error" in capsys.readouterr().err


def test_topology_subcommand(tmp_path):
    out = tmp_path / "topo.json"
    assert run_cli("topology", "--gen", "boolean:2", "--report", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["discrete"] is True
    assert doc["order_compatible"]["order_closed"] is True
    assert doc["cb"]["rank"] == 1


def test_testbed_sweep_lists_discrepancies(tmp_path):
    out = tmp_path / "tb.json"
    assert run_cli("testbed", "--dims", "2", "--bound", "4", "--report", str(out)) == 0
    doc = json.loads(out.read_text())
    assert "inf,0" in doc["literal_vs_corrected_discrepancies"]
    assert doc["oracle_mismatches"] == []
    assert doc["sweep_size"] == 36


# Each level's patterns as strings, one letter per coordinate: i = inf,
# a = any; the levels run 0..dims + 1 and the last one is empty.
CB_LEVELS = {
    1: [["a"], ["i"]],
    2: [["aa"], ["ia", "ai"], ["ii"]],
    3: [["aaa"], ["iaa", "aia", "aai"], ["iia", "iai", "aii"], ["iii"]],
    4: [
        ["aaaa"],
        ["iaaa", "aiaa", "aaia", "aaai"],
        ["iiaa", "iaia", "iaai", "aiia", "aiai", "aaii"],
        ["iiia", "iiai", "iaii", "aiii"],
        ["iiii"],
    ],
}


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_testbed_cb_levels(tmp_path, dims):
    out = tmp_path / "tb.json"
    assert run_cli("testbed", "--dims", str(dims), "--bound", "0", "--report", str(out)) == 0
    levels = json.loads(out.read_text())["cb_levels"]
    letters = {"i": "inf", "a": "any"}
    expected = {str(a): [[letters[c] for c in p] for p in pats] for a, pats in enumerate(CB_LEVELS[dims])}
    expected[str(dims + 1)] = "empty"
    assert levels == expected
    # each level's patterns describe the vectors with at least that many
    # infinite coordinates
    cf = OrdinalCoframe(dims)
    for alpha, pats in enumerate(CB_LEVELS[dims] + [[]]):
        for x in cf.box(1):
            matched = any(all(c == "a" or v == INF for c, v in zip(p, x)) for p in pats)
            assert matched == (cf.cb_level(x) >= alpha), (alpha, x)


def test_testbed_cb_flag(tmp_path):
    out = tmp_path / "tb.json"
    assert (
        run_cli("testbed", "--dims", "1", "--bound", "5", "--cb", "--report", str(out)) == 0
    )
    doc = json.loads(out.read_text())
    assert all(level["matches_oracle"] for level in doc["cb_ladder"])


def test_testbed_oracle_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    """An oracle that disagrees with the characterization on one vector
    of the sweep is listed, in JSON and in text, and the command exits 1;
    so is a CB level whose subspace sweep disagrees with ``cb_level``."""
    oracle = OrdinalCoframe.isolated_oracle
    monkeypatch.setattr(OrdinalCoframe, "isolated_oracle", lambda cf, x, b: oracle(cf, x, b) != (x == (1, 0)))
    out = tmp_path / "tb.json"
    assert run_cli("testbed", "--dims", "2", "--bound", "1", "--report", str(out)) == 1
    assert json.loads(out.read_text())["oracle_mismatches"] == ["1,0"]
    assert run_cli("testbed", "--dims", "2", "--bound", "1", "--format", "text") == 1
    assert capsys.readouterr().out.splitlines()[-1] == "oracle mismatches: 1,0"
    monkeypatch.undo()
    sweep = OrdinalCoframe.subspace_isolation_sweep

    def flipped(cf, member, bound):
        return {x: v != (x == (INF,)) for x, v in sweep(cf, member, bound).items()}

    monkeypatch.setattr(OrdinalCoframe, "subspace_isolation_sweep", flipped)
    assert run_cli("testbed", "--dims", "1", "--bound", "5", "--cb", "--report", str(out)) == 1
    doc = json.loads(out.read_text())
    assert doc["oracle_mismatches"] == ["cb_level_0", "cb_level_1"]
    assert [level["matches_oracle"] for level in doc["cb_ladder"]] == [False, False]
    assert run_cli("testbed", "--dims", "1", "--bound", "5", "--cb", "--format", "text") == 1
    assert capsys.readouterr().out.splitlines()[-1] == "oracle mismatches: cb_level_0, cb_level_1"


def test_testbed_single_element(tmp_path):
    out = tmp_path / "el.json"
    assert (
        run_cli("testbed", "--dims", "2", "--bound", "6", "--element", "3,inf", "--report", str(out))
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["element"]["profile"]["rank"] == "omega"
    assert doc["element"]["dually_compact"] is False
    assert doc["element"]["isolated"] is False


@pytest.mark.parametrize(
    "dims, element, isolated",
    [("4", "10,0,0,0", True), ("3", "40,0,0", True), ("2", "99999999,1", True), ("4", "99999999,inf,3,0", False)],
)
def test_testbed_large_element_is_answered(tmp_path, dims, element, isolated):
    # the isolation search enumerates its open instead of building a grid
    out = tmp_path / "el.json"
    assert run_cli("testbed", "--dims", dims, "--element", element, "--report", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["element"]["isolated"] is isolated
    assert doc["oracle_mismatches"] == []


def test_group_and_ring(tmp_path, capsys):
    assert run_cli("group", "--name", "q8", "--format", "text") == 0
    assert "6 subgroups" in capsys.readouterr().out
    out = tmp_path / "ring.json"
    assert run_cli("ring", "--n", "12", "--report", str(out)) == 0
    assert json.loads(out.read_text())["jacobson_radical_generator"] == 6


@pytest.mark.parametrize(
    "argv, oracle",
    [
        (["group", "--name", "q8"], "maximal-subgroup intersection"),
        (["ring", "--n", "12"], "radical arithmetic"),
    ],
)
def test_group_and_ring_exit_1_when_the_derivative_disagrees(argv, oracle, monkeypatch, capsys):
    """A derivative route that disagrees with its oracle is a
    characterization mismatch: exit 1, one ``error:`` line naming it."""
    monkeypatch.setattr(residua.generators, "residual_derivative", lambda L, x, family=None: L.bottom)
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("error: ") and oracle in lines[0]


def test_group_from_file(tmp_path):
    doc = {"order": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "g.json"
    assert run_cli("group", "--input", str(path), "--report", str(out)) == 0
    assert json.loads(out.read_text())["subgroups"] == 2


def test_text_outputs(capsys):
    """The text format of analyze, topology, testbed and ring: one line per
    fact, each value plain, a rank as a number rather than its JSON
    object."""
    assert run_cli("analyze", "--gen", "divisor:12", "--format", "text") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instance: divisor(12) (n=6)"
    assert lines[1] == "  1: mu=1 rank=0 core=1 boundary=1"
    assert lines[-1] == "  12: mu=2 rank=2 core=1 boundary=12"
    assert len(lines) == 7
    assert run_cli("topology", "--gen", "boolean:2", "--format", "text") == 0
    assert capsys.readouterr().out == (
        "instance: boolean(2) (n=4)\ndiscrete: True\norder compatible: True\ncb rank: 1\n"
    )
    assert run_cli("testbed", "--dims", "2", "--bound", "1", "--format", "text") == 0
    assert capsys.readouterr().out == (
        "dims=2 bound=1\n"
        "discrepancies (literal vs corrected): 0,inf, 1,inf, inf,0, inf,1, inf,inf\n"
        "oracle mismatches: none\n"
    )
    assert run_cli("ring", "--n", "12", "--format", "text") == 0
    assert capsys.readouterr().out == "Z/12: 6 ideals, radical (6)\n"


@pytest.mark.parametrize(
    "table, message",
    [([[0, 1], [1]], "table is not 2x2"), ([[0, 1], [1, 2]], "table entry out of range")],
)
def test_group_input_guards_exit_2(table, message, tmp_path, capsys):
    """A ragged Cayley table, or one with an entry outside the group,
    exits 2 with one error line that names the fault."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 2, "identity": 0, "table": table}))
    assert run_cli("group", "--input", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message), err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert run_cli("group", "--name", "q8") == 0
    alone = capsys.readouterr().out
    for before, code in ((["group", "--nosuch"], 2), (["--help"], 0), (["group", "--help"], 0)):
        assert run_cli(*before) == code
        capsys.readouterr()
        assert run_cli("group", "--name", "q8") == 0
        assert capsys.readouterr().out == alone, before


def test_usage_errors():
    assert run_cli("analyze") == 2  # missing input source
    assert run_cli("nosuch") == 2
    assert run_cli("analyze", "--gen", "nosuch:5") == 2
    assert run_cli("analyze", "--input", "/nonexistent.json") == 2


def test_inputs_above_the_caps_exit_2_naming_the_cap(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"elements": [f"e{i}" for i in range(4097)], "relation": []}))
    assert run_cli("analyze", "--input", str(path)) == 2
    assert "size cap 4096" in capsys.readouterr().err
    assert run_cli("laws", "--gen", "divisor:1000001") == 2
    assert "at most 1000000" in capsys.readouterr().err


MALFORMED_INPUTS = {
    "random spec without size": (["laws", "--gen", "random:seed=1"], None),
    "random spec with an unknown key": (["laws", "--gen", "random:seed=1,size=5,extra"], None),
    "random spec with a repeated key": (["analyze", "--gen", "random:seed=1,size=5,seed=2"], None),
    "laws --seed, which the registry does not take": (["laws", "--gen", "chain:3", "--seed", "5"], None),
    "lattice JSON without relation": (["analyze", "--input", "{file}"], {"elements": ["a", "b"]}),
    "non-object JSON document": (["analyze", "--input", "{file}"], [1, 2, 3]),
    "negative testbed coordinate": (["testbed", "--dims", "2", "--element=-1,2"], None),
    "negative testbed bound": (["testbed", "--dims", "2", "--bound", "-1"], None),
    "testbed bound beyond the grid cap": (["testbed", "--dims", "4", "--bound", "99999999"], None),
    "testbed dims below 1": (["testbed", "--dims", "0"], None),
    "empty generator spec, analyze": (["analyze", "--gen", ""], None),
    "empty generator spec, laws": (["laws", "--gen", ""], None),
    "empty generator spec, topology": (["topology", "--gen", ""], None),
    "empty catalog group name": (["group", "--name", ""], None),
    "empty testbed vector": (["testbed", "--dims", "2", "--element", ""], None),
    "testbed --element with --cb": (["testbed", "--dims", "2", "--element", "3,inf", "--cb"], None),
    "empty coordinate in a testbed vector": (["testbed", "--dims", "2", "--element", "3,"], None),
    "empty element name for DOT output": (["analyze", "--gen", "chain:3", "--format", "dot", "--element", ""], None),
    "unknown element name, JSON output": (["analyze", "--gen", "chain:3", "--element", "nope"], None),
    "unknown element name, text output": (["analyze", "--gen", "chain:3", "--format", "text", "--element", "nope"], None),
    "element name without DOT output, JSON": (["analyze", "--gen", "chain:3", "--element", "2"], None),
    "element name without DOT output, text": (["analyze", "--gen", "chain:3", "--format", "text", "--element", "2"], None),
    "non-object Cayley JSON": (["group", "--input", "{file}"], [1, 2]),
    "Cayley JSON without order": (["group", "--input", "{file}"], {"elements": ["e"]}),
    "Cayley JSON with non-list table": (
        ["group", "--input", "{file}"],
        {"order": 1, "identity": 0, "table": "e"},
    ),
    "Cayley JSON with identity out of range": (
        ["group", "--input", "{file}"],
        {"order": 2, "identity": 5, "table": [[0, 1], [1, 0]]},
    ),
    "Cayley JSON above the order cap": (
        ["group", "--input", "{file}"],
        {"order": 100, "identity": 0, "table": [[(a + b) % 100 for b in range(100)] for a in range(100)]},
    ),
    "group spec file without identity": (
        ["analyze", "--gen", "group:@{file}"],
        {"order": 1, "table": [[0]]},
    ),
    "lattice JSON with integer names, DOT output": (
        ["analyze", "--input", "{file}", "--format", "dot"],
        {"elements": [1, 2], "relation": [[1, 2]]},
    ),
    "lattice JSON with list names": (
        ["analyze", "--input", "{file}"],
        {"elements": [[1], [2]], "relation": []},
    ),
    "downset spec file with integer names": (
        ["analyze", "--gen", "downset:@{file}"],
        {"elements": [1, 2], "relation": [[1, 2]]},
    ),
    "product above the size cap": (["analyze", "--gen", "product:chain:100|chain:100"], None),
    "random spec above the size cap": (["analyze", "--gen", "random:seed=1,size=5000"], None),
    "downset spec file of a 13-point antichain": (
        ["analyze", "--gen", "downset:@{file}"],
        {"elements": [f"p{i}" for i in range(13)], "relation": []},
    ),
    "poset JSON with an unknown mode": (
        ["analyze", "--input", "{file}"],
        {"elements": ["a", "b"], "relation": [["a", "b"]], "mode": "x"},
    ),
    "poset JSON with a repeated element": (
        ["analyze", "--input", "{file}"],
        {"elements": ["a", "b", "a"], "relation": []},
    ),
    "lattice JSON relation with an unknown first element": (
        ["analyze", "--input", "{file}"],
        {"elements": ["a", "b"], "relation": [["z", "b"]]},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    argv, doc = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = [a.replace("{file}", str(path)) for a in argv]
    assert run_cli(*argv, "--report", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in err


# -- fuzzing the exit-code contract --------------------------------------------
#
# Sizes stay at most 6, far under the generator caps, so an example takes
# milliseconds; the documents are near-valid often enough to get past the
# first field check.

SMALL = st.integers(-2, 6)
JUNK = st.text(alphabet="abz:|,=@-", max_size=6)
JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
NAME = st.sampled_from(["a", "b", "c", 1, 2, [1], None])
POSET_DOCS = st.fixed_dictionaries(
    {
        "elements": st.lists(NAME, max_size=4) | JSON,
        "relation": st.lists(st.lists(NAME, min_size=2, max_size=2) | JSON, max_size=4) | JSON,
    },
    optional={"mode": st.sampled_from(["covers", "leq"]) | JSON},
)
CAYLEY_DOCS = st.fixed_dictionaries(
    {
        "order": SMALL | JSON,
        "identity": SMALL | JSON,
        "table": st.lists(st.lists(SMALL, max_size=4), max_size=4) | JSON,
    }
)
FILE_COMMANDS = [
    ["analyze", "--input", "{file}"],
    ["analyze", "--input", "{file}", "--format", "dot"],
    ["analyze", "--input", "{file}", "--format", "text"],
    ["laws", "--input", "{file}"],
    ["topology", "--input", "{file}"],
    ["group", "--input", "{file}"],
    ["analyze", "--gen", "downset:@{file}"],
    ["analyze", "--gen", "group:@{file}"],
]
SPEC = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["chain", "boolean", "divisor", "zn", "group", "nosuch", ""]), SMALL | JUNK),
    st.builds("random:seed={},size={}".format, SMALL, SMALL),
    st.builds("product:{}:{}|{}:{}".format, st.sampled_from(["chain", "divisor", "x"]), SMALL, st.sampled_from(["boolean", "zn"]), SMALL),
    st.builds("{}:{}".format, st.sampled_from(["group", "downset", "random", "product"]), JUNK),
)
SPEC_COMMANDS = ["analyze", "laws", "topology"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.one_of(
        st.tuples(st.sampled_from(FILE_COMMANDS), JSON | POSET_DOCS | CAYLEY_DOCS),
        st.tuples(st.sampled_from(SPEC_COMMANDS), SPEC),
    )
)
def test_fuzzed_inputs_keep_the_exit_code_contract(fuzz_dir, case):
    command, data = case
    path = fuzz_dir / "input.json"
    report = str(fuzz_dir / "out")
    if isinstance(command, list):
        path.write_text(json.dumps(data))
        argv = [a.replace("{file}", str(path)) for a in command]
    else:
        argv = [command, "--gen", data]
    code, err = run_quietly(argv + ["--report", report])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err


def test_lattice_json_round_trip_via_cli_schema(tmp_path):
    lattice_doc = {
        "elements": ["0", "a", "b", "1"],
        "relation": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
        "mode": "covers",
    }
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice_doc))
    loaded = lattice_from_json(json.loads(path.read_text()))
    first = canonical_json(loaded.to_json_dict())
    second = canonical_json(lattice_from_json(json.loads(first)).to_json_dict())
    assert first == second
    assert run_cli("analyze", "--input", str(path), "--report", str(tmp_path / "o.json")) == 0


def test_dot_outputs(tmp_path, capsys):
    assert run_cli("analyze", "--gen", "boolean:2", "--format", "dot") == 0
    dot = capsys.readouterr().out
    assert dot.count("label=") == 4 and dot.count("->") == 4
    assert (
        run_cli("analyze", "--gen", "chain:3", "--format", "dot", "--element", "2") == 0
    )
    dot = capsys.readouterr().out
    assert "cluster_stratum_0" in dot and "cluster_stratum_1" in dot
    assert dot.count("->") == 1


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("laws", "--gen", "divisor:30", "--report", str(path)) == 0

    assert a.read_text() == b.read_text()
