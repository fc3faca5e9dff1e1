"""Cross-cutting report contracts: canonical JSON, no floats, stable keys."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from residua import cli
from residua.generators import divisor, random_distributive
from residua.lattice import canonical_json
from residua.laws import run_all
from residua.residual import residual_profile
from residua.testbed import OrdinalCoframe, parse_vec
from residua.topology import FiniteTopology, cb_sequence, dual_lawson


def walk(value):
    yield value
    if isinstance(value, dict):
        for k, v in value.items():
            yield k
            yield from walk(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from walk(v)


def assert_no_floats(doc):
    for v in walk(doc):
        assert not isinstance(v, float), f"float leaked into a report: {v!r}"


def test_no_floats_in_any_report(tmp_path):
    L = divisor(60)
    assert_no_floats([r.to_json_dict() for r in run_all(L)])
    assert_no_floats([residual_profile(L, x).to_json_dict(L) for x in L.elements()])
    assert_no_floats(cb_sequence(dual_lawson(L)).to_json_dict())
    cf = OrdinalCoframe(2)
    assert_no_floats(cf.profile(parse_vec("3,inf")).to_json_dict())
    assert_no_floats(cf.check_s1s2_above(parse_vec("inf,0"), (0, 0), 6).to_json_dict())
    out = tmp_path / "tb.json"
    assert cli.main(["testbed", "--dims", "2", "--bound", "4", "--report", str(out)]) == 0
    assert_no_floats(json.loads(out.read_text()))


def test_canonical_json_is_sorted_and_stable():
    doc = {"b": 1, "a": {"d": 2, "c": [3, 1]}}
    text = canonical_json(doc)
    assert text == '{"a":{"c":[3,1],"d":2},"b":1}\n'
    assert canonical_json(json.loads(text)) == text


def test_topology_json_round_trip():
    t = FiniteTopology.from_subbase(4, [[0, 1], [2]])
    doc = t.to_json_dict()
    again = FiniteTopology.from_subbase(doc["points"], doc["subbase"])
    assert again.min_nbhd == t.min_nbhd
    assert again.to_json_dict() == doc


def test_law_reports_stable_under_profile_sharing(div12):
    solo = [run_all(div12)[i].to_json_dict() for i in range(3)]
    batch = [r.to_json_dict() for r in run_all(div12)[:3]]
    assert solo == batch


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_lattice_reports_serialize(seed):
    L = random_distributive(seed, 20)
    docs = [r.to_json_dict() for r in run_all(L)]
    text = canonical_json(docs)
    assert json.loads(text) == json.loads(canonical_json(json.loads(text)))
    assert_no_floats(docs)
