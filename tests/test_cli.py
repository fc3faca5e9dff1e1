import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from residua import cli
from residua.lattice import canonical_json, lattice_from_json
from residua.laws import LawReport
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


def test_analyze_family_selector(tmp_path):
    out = tmp_path / "out.json"
    assert run_cli("analyze", "--gen", "chain:3", "--family", "t0", "--report", str(out)) == 0
    assert run_cli("analyze", "--gen", "chain:3", "--family", "0,2", "--report", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["profiles"]) == 3


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


def test_group_from_file(tmp_path):
    doc = {"order": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "g.json"
    assert run_cli("group", "--input", str(path), "--report", str(out)) == 0
    assert json.loads(out.read_text())["subgroups"] == 2


def test_usage_errors():
    assert run_cli("analyze") == 2  # missing input source
    assert run_cli("nosuch") == 2
    assert run_cli("analyze", "--gen", "nosuch:5") == 2
    assert run_cli("analyze", "--input", "/nonexistent.json") == 2


MALFORMED_INPUTS = {
    "random spec without size": (["laws", "--gen", "random:seed=1"], None),
    "lattice JSON without relation": (["analyze", "--input", "{file}"], {"elements": ["a", "b"]}),
    "non-object JSON document": (["analyze", "--input", "{file}"], [1, 2, 3]),
    "negative testbed coordinate": (["testbed", "--dims", "2", "--element=-1,2"], None),
    "negative testbed bound": (["testbed", "--dims", "2", "--bound", "-1"], None),
    "testbed bound beyond the grid cap": (["testbed", "--dims", "4", "--bound", "99999999"], None),
    "testbed dims below 1": (["testbed", "--dims", "0"], None),
    "empty testbed vector": (["testbed", "--dims", "2", "--element", ""], None),
    "empty coordinate in a testbed vector": (["testbed", "--dims", "2", "--element", "3,"], None),
    "empty element name for DOT output": (["analyze", "--gen", "chain:3", "--format", "dot", "--element", ""], None),
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
        assert run_cli("laws", "--gen", "divisor:30", "--seed", "5", "--report", str(path)) == 0

    assert a.read_text() == b.read_text()
