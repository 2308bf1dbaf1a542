import json

import pytest

from blamescope.data import bundled_path
from blamescope.errors import MalformedRow, SchemaViolation
from blamescope.hitl import Case
from blamescope.io import (
    canonical_dumps,
    dump_cases,
    load_cases,
    load_ratings,
    load_scm_bundle,
)
from blamescope.scm import event_probability
from blamescope.synthetic import gen_synthetic


def test_load_bundled_xor():
    bundle = load_scm_bundle(bundled_path("xor.json"))
    assert {v.id for v in bundle.scm.exogenous} == {"E1", "E2"}
    assert event_probability(bundle.scm, bundle.outcomes["y1"]) == pytest.approx(0.5)


def test_load_bundled_blame_scenario():
    bundle = load_scm_bundle(bundled_path("xor_blame.json"))
    assert set(bundle.actions) == {"auto", "manual"}
    assert set(bundle.costs) == {"review_cost"}
    assert bundle.discount.kind == "cost_ratio"


def test_load_scm_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nope", "exogenous": [], "endogenous": []}))
    with pytest.raises(SchemaViolation, match="schema"):
        load_scm_bundle(path)


def test_load_scm_unknown_discount_kind(tmp_path):
    doc = json.loads(bundled_path("xor_blame.json").read_text())
    doc["discount"]["kind"] = "bogus"
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="bogus"):
        load_scm_bundle(path)


def test_load_cases_roundtrip(tmp_path):
    cases = gen_synthetic(seed=8, n_cases=50, ai_accuracy=0.8, human_accuracy=0.9)
    path = tmp_path / "cases.csv"
    path.write_text(dump_cases(cases))
    assert load_cases(path) == cases


def test_load_cases_missing_column(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text("case_id,ai_confidence,ai_decision,human_decision\nc0,0.5,pos,neg\n")
    with pytest.raises(MalformedRow, match="truth"):
        load_cases(path)


def test_load_cases_bad_confidence(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(
        "case_id,ai_confidence,ai_decision,human_decision,truth\n"
        "c0,0.5,pos,neg,pos\n"
        "c1,high,pos,neg,pos\n"
    )
    with pytest.raises(MalformedRow, match="line 3"):
        load_cases(path)


def test_load_cases_confidence_out_of_range(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(
        "case_id,ai_confidence,ai_decision,human_decision,truth\nc0,1.5,pos,neg,pos\n"
    )
    with pytest.raises(MalformedRow, match="line 2"):
        load_cases(path)


def test_load_bundled_case_log():
    cases = load_cases(bundled_path("cases_200.csv"))
    assert len(cases) == 200
    assert all(isinstance(c, Case) for c in cases)


def test_load_ratings(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,2\nc1,3,3\n")
    assert load_ratings(path) == [(1, 2), (3, 3)]


def test_load_ratings_non_integer(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,x\n")
    with pytest.raises(MalformedRow, match="line 2"):
        load_ratings(path)


def test_canonical_dumps_sorted_and_stable():
    a = canonical_dumps({"b": 1, "a": [1.0, 0.25, None, True]})
    b = canonical_dumps({"a": [1.0, 0.25, None, True], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert json.loads(a) == {"a": [1.0, 0.25, None, True], "b": 1}


def test_canonical_dumps_float_format():
    text = canonical_dumps({"x": 1 / 3})
    assert "0.333333333333" in text
