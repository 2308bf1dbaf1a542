import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamescope import cli
from blamescope.cli import main
from blamescope.data import bundled_path
from blamescope.hitl import Case
from blamescope.io import CASE_COLUMNS, dump_cases

CYCLIC_SCM = {
    "schema": "blamescope/scm/1",
    "exogenous": [{"id": "E", "values": ["0", "1"], "probs": [0.5, 0.5]}],
    "endogenous": [
        {"id": "X", "values": ["0", "1"], "parents": ["Y"], "table": {"0": "0", "1": "1"}},
        {"id": "Y", "values": ["0", "1"], "parents": ["X"], "table": {"0": "0", "1": "1"}},
    ],
}


@pytest.fixture
def xor_path(tmp_path):
    dst = tmp_path / "xor.json"
    shutil.copy(bundled_path("xor.json"), dst)
    return str(dst)


@pytest.fixture
def blame_path(tmp_path):
    dst = tmp_path / "xor_blame.json"
    shutil.copy(bundled_path("xor_blame.json"), dst)
    return str(dst)


@pytest.fixture
def log_path(tmp_path):
    dst = tmp_path / "cases.csv"
    shutil.copy(bundled_path("cases_200.csv"), dst)
    return str(dst)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, xor_path):
    code, out, _ = run_cli(capsys, "validate", "--scm", xor_path)
    assert code == 0
    report = json.loads(out)
    assert report["files"][xor_path]["status"] == "ok"
    assert report["files"][xor_path]["outcomes"] == ["any_x", "x1", "y0", "y1"]


def test_validate_missing_column(capsys, tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text("case_id,ai_confidence,ai_decision,human_decision\nc0,0.5,a,b\n")
    code, _, err = run_cli(capsys, "validate", "--cases", str(path))
    assert code == 3
    assert "truth" in json.loads(err)["message"]


def test_validate_cyclic_scm(capsys, tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(CYCLIC_SCM))
    code, _, err = run_cli(capsys, "validate", "--scm", str(path))
    assert code == 4
    assert json.loads(err)["error"] == "CyclicGraph"


def test_prob_exact(capsys, xor_path):
    code, out, _ = run_cli(capsys, "prob", "--scm", xor_path, "--outcome", "y1")
    assert code == 0
    report = json.loads(out)
    assert report["probability"] == 0.5
    assert report["method"] == "exact"


def test_prob_mc(capsys, xor_path):
    code, out, _ = run_cli(
        capsys, "prob", "--scm", xor_path, "--outcome", "y1",
        "--samples", "100000", "--seed", "7",
    )
    assert code == 0
    assert abs(json.loads(out)["probability"] - 0.5) <= 0.01


def test_prob_with_do(capsys, xor_path):
    code, out, _ = run_cli(
        capsys, "prob", "--scm", xor_path, "--outcome", "x1", "--do", "X=1"
    )
    assert code == 0
    assert json.loads(out)["probability"] == 1.0


def test_prob_unknown_outcome(capsys, xor_path):
    code, _, err = run_cli(capsys, "prob", "--scm", xor_path, "--outcome", "nope")
    assert code == 2
    assert json.loads(err)["error"] == "UnknownOutcome"


def test_counterfactual_worked_example(capsys, xor_path):
    code, out, _ = run_cli(
        capsys, "counterfactual", "--scm", xor_path, "--outcome", "y1",
        "--observe", "X=1", "--observe", "Y=0", "--do", "X=0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["probability"] == 1.0
    assert report["posterior_support_size"] == 1


def test_counterfactual_impossible_observation(capsys, xor_path):
    code, _, err = run_cli(
        capsys, "counterfactual", "--scm", xor_path, "--outcome", "y1",
        "--observe", "X=1", "--observe", "Y=1", "--do", "X=0",
        # X=1,Y=1 needs E2=0... that's possible; use an inconsistent pair instead
    )
    assert code == 0  # sanity: that observation is possible
    code, _, err = run_cli(
        capsys, "counterfactual", "--scm", xor_path, "--outcome", "y1",
        "--observe", "X=2",
    )
    assert code == 4


def test_counterfactual_collapse_matches_prob(capsys, xor_path):
    code, out1, _ = run_cli(capsys, "counterfactual", "--scm", xor_path, "--outcome", "y1")
    code2, out2, _ = run_cli(capsys, "prob", "--scm", xor_path, "--outcome", "y1")
    assert code == code2 == 0
    assert json.loads(out1)["probability"] == json.loads(out2)["probability"]


def test_blame_scenario(capsys, blame_path):
    code, out, _ = run_cli(
        capsys, "blame", "--scm", blame_path, "--outcome", "y1",
        "--action", "auto", "--baseline", "manual", "--cost", "review_cost",
    )
    assert code == 0
    blame = json.loads(out)["blame"]
    assert blame["delta"] == 0.2
    assert blame["gamma"] == 0.25
    assert blame["db"] == 0.05


def test_blame_self_comparison(capsys, blame_path):
    code, out, _ = run_cli(
        capsys, "blame", "--scm", blame_path, "--outcome", "y1",
        "--action", "auto", "--baseline", "auto", "--cost", "review_cost",
    )
    assert code == 0
    blame = json.loads(out)["blame"]
    assert blame["delta"] == 0.0
    assert blame["db"] == 0.0


def test_blame_cost_ratio_requires_cost(capsys, blame_path):
    code, _, err = run_cli(
        capsys, "blame", "--scm", blame_path, "--outcome", "y1",
        "--action", "auto", "--baseline", "manual", "--discount", "cost_ratio",
    )
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def _edited_model(tmp_path, name, edit):
    doc = json.loads(bundled_path(name).read_text())
    edit(doc)
    path = tmp_path / f"edited_{name}"
    path.write_text(json.dumps(doc))
    return str(path)


BLAME_ARGS = ("--outcome", "y1", "--action", "auto", "--baseline", "manual",
              "--cost", "review_cost")


@pytest.mark.parametrize(
    "where, error",
    [
        ({"REVEIW": "1"}, "UnknownVariable"),
        ({"E1": "1"}, "UnknownVariable"),
        ({"REVIEW": "yes"}, "ValueOutOfDomain"),
    ],
)
def test_blame_cost_term_checked_against_model(capsys, tmp_path, where, error):
    def edit(doc):
        doc["costs"]["review_cost"][0]["where"] = where

    path = _edited_model(tmp_path, "xor_blame.json", edit)
    code, _, err = run_cli(capsys, "blame", "--scm", path, *BLAME_ARGS)
    assert code == 4
    assert json.loads(err)["error"] == error


def test_blame_infinite_cost_rejected(capsys, tmp_path):
    def edit(doc):
        doc["costs"]["review_cost"][1]["cost"] = float("inf")

    path = _edited_model(tmp_path, "xor_blame.json", edit)
    code, out, err = run_cli(capsys, "blame", "--scm", path, *BLAME_ARGS)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SchemaViolation"


@pytest.mark.parametrize("extra", [(), ("--samples", "100")])
def test_prob_nan_distribution_rejected(capsys, tmp_path, extra):
    def edit(doc):
        doc["exogenous"][0]["probs"] = [float("nan"), float("nan")]

    path = _edited_model(tmp_path, "xor.json", edit)
    code, out, err = run_cli(capsys, "prob", "--scm", path, "--outcome", "y1", *extra)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "NonNormalizedDistribution"


def test_counterfactual_unknown_outcome_variable(capsys, tmp_path):
    def edit(doc):
        doc["outcomes"]["z1"] = [[["Z", "eq", "1"]]]

    path = _edited_model(tmp_path, "xor.json", edit)
    code, _, err = run_cli(capsys, "counterfactual", "--scm", path, "--outcome", "z1")
    assert code == 4
    assert json.loads(err)["error"] == "UnknownVariable"


def test_hitl_report(capsys, log_path):
    code, out, _ = run_cli(capsys, "hitl", "--cases", log_path, "--l", "0.2", "--u", "0.8")
    assert code == 0
    report = json.loads(out)
    summary = report["attribution"]["summary"]
    assert summary["total_cases"] == 200
    assert (
        summary["avoidable"] + summary["inevitable_flagged"] + summary["inevitable_unflagged"]
        == summary["total_errors"]
    )
    assert report["blame"]["method"] == "empirical"


def test_hitl_bad_thresholds(capsys, log_path):
    code, _, err = run_cli(capsys, "hitl", "--cases", log_path, "--l", "0.8", "--u", "0.2")
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_metrics_identical_raters(capsys, tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "case_id,rater_a,rater_b\n" + "".join(f"c{i},{1 + i % 3},{1 + i % 3}\n" for i in range(9))
    )
    code, out, _ = run_cli(capsys, "metrics", "--ratings", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["qwk"] == 1.0
    assert report["blame"] == 0.0


def test_metrics_f1_mode(capsys, log_path):
    code, out, _ = run_cli(
        capsys, "metrics", "--cases", log_path, "--l", "0.2", "--u", "0.8",
        "--positive", "pos",
    )
    assert code == 0
    report = json.loads(out)
    assert 0.0 <= report["hitl"]["f1"] <= 1.0
    assert report["blame"] == max(0.0, report["human_only"]["f1"] - report["hitl"]["f1"])


def test_gen_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for dst in (a, b):
        code = main([
            "gen", "--seed", "42", "--n-cases", "200", "--out", str(dst),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_perfect_ai(capsys, tmp_path):
    from blamescope.io import load_cases

    dst = tmp_path / "log.csv"
    code = main([
        "gen", "--seed", "1", "--n-cases", "100", "--ai-accuracy", "1.0",
        "--out", str(dst),
    ])
    assert code == 0
    log = load_cases(dst)
    assert (log.ai_decision == log.truth).all()


def test_gen_perfect_human_means_no_inevitable(capsys, tmp_path):
    from blamescope.attribution import CLASSES, OutcomeClass, annotate
    from blamescope.hitl import FlagPolicy, run
    from blamescope.io import load_cases

    dst = tmp_path / "log.csv"
    assert main([
        "gen", "--seed", "2", "--n-cases", "200", "--ai-accuracy", "0.6",
        "--human-accuracy", "1.0", "--out", str(dst),
    ]) == 0
    attribution = annotate(run(load_cases(dst), FlagPolicy(l=0.2, u=0.8)))
    assert len(attribution), "expected at least one HITL error with a weak AI"
    assert all(CLASSES[c] is OutcomeClass.AVOIDABLE for c in attribution.classes)


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "prob", "--scm", "/no/such.json", "--outcome", "y1")
    assert code == 3


def test_hitl_directory_as_cases(capsys, tmp_path):
    code, out, err = run_cli(capsys, "hitl", "--cases", str(tmp_path), "--l", "0.2", "--u", "0.8")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "UnreadableFile"


def test_hitl_cases_not_utf8(capsys, tmp_path):
    path = tmp_path / "cases.csv"
    path.write_bytes(
        b"case_id,ai_confidence,ai_decision,human_decision,truth\n"
        b"c0,0.5,pos,neg,pos\nc1,0.5,pos,neg,\xff\n"
    )
    code, out, err = run_cli(capsys, "hitl", "--cases", str(path), "--l", "0.2", "--u", "0.8")
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "MalformedRow"
    assert "line 3" in error["message"]


def test_validate_scm_missing_table(capsys, tmp_path):
    def edit(doc):
        del doc["endogenous"][1]["table"]

    path = _edited_model(tmp_path, "xor.json", edit)
    code, out, err = run_cli(capsys, "validate", "--scm", path)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SchemaViolation"


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["outcomes"].update(z1=[[["Z", "eq", "1"]]]),
        lambda doc: doc["costs"]["review_cost"][0].update(where={"NOPE": "1"}),
    ],
    ids=["outcome", "cost_term"],
)
def test_validate_scm_unknown_variable(capsys, tmp_path, edit):
    path = _edited_model(tmp_path, "xor_blame.json", edit)
    code, out, err = run_cli(capsys, "validate", "--scm", path)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "UnknownVariable"


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "2"])
def test_blame_bad_epsilon(capsys, blame_path, value):
    code, out, err = run_cli(
        capsys, "blame", "--scm", blame_path, *BLAME_ARGS,
        "--discount", "cost_ratio", "--epsilon", value,
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"


def test_blame_epsilon_without_discount(capsys, blame_path):
    """--epsilon sets the epsilon of the model file's cost_ratio discount."""
    code, out, _ = run_cli(capsys, "blame", "--scm", blame_path, *BLAME_ARGS, "--epsilon", "0.5")
    blame = json.loads(out)["blame"]
    assert (code, blame["gamma"], blame["db"]) == (0, 0.5, 0.1)


@pytest.mark.parametrize("value", ["7", "nan"])
def test_blame_bad_epsilon_without_discount(capsys, blame_path, value):
    code, out, err = run_cli(capsys, "blame", "--scm", blame_path, *BLAME_ARGS, "--epsilon", value)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"


def test_blame_epsilon_default_keeps_model_discount(capsys, tmp_path):
    path = _edited_model(tmp_path, "xor_blame.json", _set(["discount", "epsilon"], 0.5))
    code, out, _ = run_cli(capsys, "blame", "--scm", path, *BLAME_ARGS)
    assert (code, json.loads(out)["blame"]["gamma"]) == (0, 0.5)


def test_non_finite_report_not_written(capsys, monkeypatch, xor_path, tmp_path):
    monkeypatch.setitem(cli._HANDLERS, "prob", lambda args: {"probability": math.inf})
    report = tmp_path / "report.json"
    for out_args in ([], ["--out", str(report)]):
        code, out, err = run_cli(
            capsys, "prob", "--scm", xor_path, "--outcome", "y1", *out_args
        )
        assert (code, out, report.exists()) == (3, "", False)
        assert json.loads(err)["error"] == "NonFiniteNumber"


def test_ratings_oversized_field(capsys, tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,2\n" + "x" * 200_000 + ",1,2\n")
    for argv in (["metrics", "--ratings", str(path)], ["validate", "--ratings", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "MalformedRow"
        assert "line 3" in json.loads(err)["message"]


def test_validate_ratings_below_one(capsys, tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,2\nc1,0,2\n")
    code, out, err = run_cli(capsys, "validate", "--ratings", str(path))
    assert (code, out) == (3, "")
    assert "line 3: rating 0 below 1" in json.loads(err)["message"]


def test_hitl_nan_epsilon(capsys, log_path):
    code, out, err = run_cli(
        capsys, "hitl", "--cases", log_path, "--l", "0.2", "--u", "0.8",
        "--discount", "cost_ratio", "--epsilon", "nan",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"


def test_blame_model_nan_epsilon(capsys, tmp_path):
    def edit(doc):
        doc["discount"]["epsilon"] = float("nan")

    path = _edited_model(tmp_path, "xor_blame.json", edit)
    code, out, err = run_cli(capsys, "blame", "--scm", path, *BLAME_ARGS)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SchemaViolation"


def _set(path, value):
    """An edit that puts `value` at the key path `path` of a model file."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set(["outcomes"], [1]),
        _set(["actions"], []),
        _set(["costs"], [{"where": {}, "cost": 1}]),
        _set(["outcomes"], 3),
        _set(["costs"], 3),
        _set(["exogenous"], 3),
        _set(["outcomes", "y1"], 3),
        _set(["outcomes", "y1"], [3]),
        _set(["actions", "auto"], 3),
        _set(["endogenous", 1, "parents"], 3),
        _set(["actions", "auto", 0, "parents"], 3),
        _set(["costs", "review_cost", 0, "where"], [1]),
        _set(["discount", "epsilon"], 2),
        _set(["discount", "epsilon"], 0),
    ],
    ids=[
        "outcomes_list", "actions_list", "costs_list", "outcomes_int", "costs_int",
        "exogenous_int", "outcome_int", "clause_int", "action_int", "endogenous_parents_int",
        "override_parents_int", "where_list", "epsilon_2", "epsilon_0",
    ],
)
def test_validate_scm_bad_section_type(capsys, tmp_path, edit):
    path = _edited_model(tmp_path, "xor_blame.json", edit)
    code, out, err = run_cli(capsys, "validate", "--scm", path)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SchemaViolation"


LABELS = ("pos", "neg", "maybe")


@st.composite
def small_logs(draw):
    """A policy and a small case log whose confidences often sit on or next
    to the thresholds, with ids that need CSV quoting."""
    l, u = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    ids = draw(st.lists(st.text("ab,\"\n\r ", min_size=1, max_size=4),
                        min_size=1, max_size=25, unique=True))
    conf = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [l, u, math.nextafter(l, 0.0), math.nextafter(u, 1.0), 0.0, 1.0]))
    label = st.sampled_from(LABELS)
    cases = [
        Case(id=i, ai_confidence=draw(conf), ai_decision=draw(label),
             human_decision=draw(label), truth=draw(label))
        for i in ids
    ]
    return l, u, cases


@settings(max_examples=60, deadline=None)
@given(small_logs())
def test_hitl_report_matches_recount(drawn):
    from oracles import recount_log

    l, u, cases = drawn
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "cases.csv"
        out = Path(tmp) / "report.json"
        log.write_text(dump_cases(cases), encoding="utf-8", newline="")
        assert main(["hitl", "--cases", str(log), "--l", repr(l), "--u", repr(u),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
    counts = recount_log(cases, l, u)
    n = counts["n"]
    summary = report["attribution"]["summary"]
    assert summary["total_cases"] == n
    assert summary["total_errors"] == counts["hitl_errors"]
    assert summary["avoidable"] == counts["avoidable"]
    assert summary["inevitable_flagged"] == counts["inevitable_flagged"]
    assert summary["inevitable_unflagged"] == counts["inevitable_unflagged"]
    assert [(r["id"], r["class"]) for r in report["attribution"]["per_case"]] == counts["per_case"]
    blame = report["blame"]
    assert abs(blame["p_a"] - counts["hitl_errors"] / n) <= 1e-12
    assert abs(blame["p_aprime"] - counts["human_only_errors"] / n) <= 1e-12
    assert abs(blame["flagged_fraction"] - counts["flagged"] / n) <= 1e-12


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


_LOG = str(bundled_path("cases_200.csv"))
_XOR = str(bundled_path("xor.json"))
_BLAME_SCM = str(bundled_path("xor_blame.json"))
_RATINGS = str(Path(__file__).parent / "golden" / "ratings.csv")
_HITL = ("hitl", "--cases", _LOG, "--l", "0.3", "--u", "0.7", "--discount", "cost_ratio")
_PROB = ("prob", "--scm", _XOR, "--outcome", "y1")
# Each numeric flag, after the arguments that make the rest of the run valid.
GATED_FLAGS = {
    "hitl --ai-cost": (*_HITL, "--ai-cost"),
    "hitl --review-cost": (*_HITL, "--review-cost"),
    "hitl --epsilon": (*_HITL, "--epsilon"),
    "hitl --l": (*_HITL, "--l"),
    "hitl --u": (*_HITL, "--u"),
    "blame --epsilon": ("blame", "--scm", _BLAME_SCM, *BLAME_ARGS, "--epsilon"),
    "blame --discount --epsilon": (
        "blame", "--scm", _BLAME_SCM, *BLAME_ARGS, "--discount", "cost_ratio", "--epsilon"
    ),
    "metrics --cases --l": (
        "metrics", "--cases", _LOG, "--u", "0.7", "--positive", "pos", "--l"
    ),
    "metrics --ratings --k": ("metrics", "--ratings", _RATINGS, "--k"),
    "prob --samples": (*_PROB, "--samples"),
    "prob --seed": (*_PROB, "--samples", "10", "--seed"),
}
GATED_VALUES = ["nan", "inf", "-inf", "-1", "0", "0.5", "1", "2", "x"]


@pytest.mark.parametrize("value", GATED_VALUES)
@pytest.mark.parametrize("flag", sorted(GATED_FLAGS))
def test_numeric_flag_gate(capsys, flag, value):
    """Every value of a numeric flag gives a report or a typed error, and
    what is written is strict JSON: no traceback, no NaN or Infinity."""
    *argv, option = GATED_FLAGS[flag]
    # "--opt=value", so that "-inf" is not read as an option.
    code, out, err = run_cli(capsys, *argv, f"{option}={value}")
    assert code in (0, 2, 3, 4)
    if code == 0:
        _strict_json(out)
    else:
        assert out == ""
        assert _strict_json(err)["error"]


@pytest.mark.parametrize("value", GATED_VALUES)
def test_gen_seed_gate(capsys, value):
    """gen writes CSV, so its --seed gets its own gate: a case log or a
    usage error, and never a traceback."""
    code, out, err = run_cli(capsys, "gen", "--n-cases", "2", f"--seed={value}")
    if value in ("0", "1", "2"):
        assert (code, out.splitlines()[0], err) == (0, ",".join(CASE_COLUMNS), "")
    else:
        assert (code, out) == (2, "")
        error = _strict_json(err)
        assert error["error"] == "ConfigError"
        assert "--seed: must be an integer >= 0" in error["message"]


@pytest.mark.parametrize(
    "argv, bound",
    [
        ((*_PROB, "--samples", "0"), "--samples: must be an integer >= 1"),
        ((*_PROB, "--samples", "10", "--seed=-1"), "--seed: must be an integer >= 0"),
        (("metrics", "--ratings", _RATINGS, "--k=-1"), "--k: must be an integer >= 2"),
        (("metrics", "--ratings", _RATINGS, "--k", "1"), "--k: must be an integer >= 2"),
    ],
    ids=["samples_0", "seed_negative", "k_negative", "k_1"],
)
def test_integer_flag_bounds_named(capsys, argv, bound):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert bound in _strict_json(err)["message"]


@pytest.mark.parametrize(
    "argv, error",
    [
        ((), "ConfigError"),
        (("nope",), "ConfigError"),
        ((*_PROB, "--bogus"), "ConfigError"),
        (("prob", "--scm", _XOR), "ConfigError"),
        (("hitl", "--cases", _LOG, "--l", "x", "--u", "0.8"), "ConfigError"),
        (("blame", "--scm", _BLAME_SCM, *BLAME_ARGS, "--discount", "bad"), "ConfigError"),
        ((*_PROB, "--do", "X"), "ConfigError"),
        (("counterfactual", "--scm", _XOR, "--outcome", "y1", "--observe", "X"), "ConfigError"),
        (("validate",), "ConfigError"),
        (("metrics",), "ConfigError"),
        (("metrics", "--ratings", _RATINGS, "--cases", _LOG), "ConfigError"),
        (("metrics", "--cases", _LOG, "--l", "0.2", "--u", "0.8"), "ConfigError"),
        (("prob", "--scm", _BLAME_SCM, "--outcome", "y1", "--action", "nope"), "UnknownAction"),
        ((*_PROB, "--do", "Y=0", "--do", "Y=1"), "ConfigError"),
        (("counterfactual", "--scm", _XOR, "--outcome", "y1", "--observe", "Y=1",
          "--observe", "Y=0"), "ConfigError"),
        (("metrics", "--cases", _LOG, "--l", "0.2", "--u", "0.8", "--positive", "pos",
          "--k", "5"), "ConfigError"),
        (("metrics", "--ratings", _RATINGS, "--l", "0.2"), "ConfigError"),
        (("metrics", "--ratings", _RATINGS, "--u", "0.9"), "ConfigError"),
        (("metrics", "--ratings", _RATINGS, "--positive", "pos"), "ConfigError"),
    ],
    ids=[
        "no_command", "unknown_command", "unknown_flag", "missing_required", "bad_float",
        "bad_choice", "do_without_equals", "observe_without_equals", "validate_no_file",
        "metrics_no_source", "metrics_both_sources", "metrics_cases_no_positive",
        "prob_unknown_action", "do_twice", "observe_twice", "metrics_cases_k",
        "metrics_ratings_l", "metrics_ratings_u", "metrics_ratings_positive",
    ],
)
def test_usage_and_config_errors_are_json(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert _strict_json(err)["error"] == error


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*_PROB, "--do", "Y=0", "--do", "Y=1"), "--do names 'Y' twice"),
        (("counterfactual", "--scm", _XOR, "--outcome", "y1", "--observe", "Y=1",
          "--observe", "Y=0"), "--observe names 'Y' twice"),
        (("metrics", "--cases", _LOG, "--l", "0.2", "--u", "0.8", "--positive", "pos",
          "--k", "5"), "--k does not apply to metrics --cases"),
        (("metrics", "--ratings", _RATINGS, "--l", "0.2", "--u", "0.9", "--positive", "pos"),
         "--l does not apply to metrics --ratings"),
    ],
    ids=["do_twice", "observe_twice", "metrics_cases_k", "metrics_ratings_l_u_positive"],
)
def test_repeated_or_foreign_flag_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, _strict_json(err)["message"]) == (2, "", message)


def _xor_with(edit) -> bytes:
    doc = json.loads(bundled_path("xor.json").read_text())
    edit(doc)
    return json.dumps(doc).encode()


_PARENTLESS_KEYED = {"id": "X", "values": ["0", "1"], "parents": [], "table": {"1": "1"}}
_RATINGS_HEADER = b"case_id,rater_a,rater_b\n"
# name -> (file bytes, or None for a missing file; command before the path;
# exit code; error; a part of the message)
BAD_INPUTS = {
    "scm_missing": (None, ("prob", "--outcome", "y1", "--scm"), 3, "FileNotFound",
                    "No such file or directory"),
    "scm_key_parts": (_xor_with(_set(["endogenous", 1, "table"], {"0": "0", "1": "1"})),
                      ("validate", "--scm"), 3, "SchemaViolation", "1 parts for 2 parents"),
    "scm_parentless_key": (_xor_with(_set(["endogenous", 0], _PARENTLESS_KEYED)),
                           ("validate", "--scm"), 3, "SchemaViolation",
                           "parentless mechanism key must be empty"),
    "scm_bad_literal": (_xor_with(_set(["outcomes", "y1"], [[["Y", "is", "1"]]])),
                        ("validate", "--scm"), 3, "SchemaViolation", "bad outcome literal"),
    "scm_invalid_json": (b'{"schema": ', ("validate", "--scm"), 3, "SchemaViolation",
                         "invalid JSON"),
    "scm_not_utf8": (b'{"schema": "blamescope/scm/1",\n"x": "\xff"}', ("validate", "--scm"),
                     3, "SchemaViolation", "line 2: not UTF-8"),
    "cases_missing": (None, ("hitl", "--l", "0.2", "--u", "0.8", "--cases"), 3,
                      "FileNotFound", "No such file or directory"),
    "cases_empty": (b"", ("validate", "--cases"), 3, "MalformedRow", "empty file"),
    **{
        f"cases_header_only_{name}": (
            ",".join(CASE_COLUMNS).encode() + b"\n", command, 3, "EmptyCaseList",
            "case log is empty",
        )
        for name, command in (
            ("validate", ("validate", "--cases")),
            ("hitl", ("hitl", "--l", "0.2", "--u", "0.8", "--cases")),
            ("metrics", ("metrics", "--l", "0.2", "--u", "0.8", "--positive", "pos", "--cases")),
        )
    },
    "scm_int_past_float_range": (_xor_with(_set(["exogenous", 0, "probs", 0], 10**400)),
                                 ("validate", "--scm"), 3, "SchemaViolation", "not a number"),
    "scm_bool_probability": (_xor_with(_set(["exogenous", 0, "probs"], [True, False])),
                             ("prob", "--outcome", "y1", "--scm"), 3, "SchemaViolation",
                             "not a number: True"),
    "scm_string_probability": (_xor_with(_set(["exogenous", 0, "probs"], ["0.7", "0.3"])),
                               ("prob", "--outcome", "y1", "--scm"), 3, "SchemaViolation",
                               "not a number: '0.7'"),
    "scm_int_over_digit_limit": (b'{"schema": "blamescope/scm/1", "x": ' + b"7" * 4301 + b"}",
                                 ("validate", "--scm"), 3, "SchemaViolation",
                                 "invalid JSON: Exceeds the limit (4300 digits)"),
    "ratings_missing": (None, ("metrics", "--ratings"), 3, "FileNotFound",
                        "No such file or directory"),
    "ratings_empty": (b"", ("metrics", "--ratings"), 3, "MalformedRow", "empty file"),
    "ratings_no_column": (b"case_id,rater_a\nc0,1\n", ("validate", "--ratings"), 3,
                          "MalformedRow", "missing column(s) rater_b"),
    "ratings_not_utf8": (_RATINGS_HEADER + b"c0,1,2\nc1,2,\xfe\n", ("metrics", "--ratings"), 3,
                         "MalformedRow", "line 3: not UTF-8"),
    "ratings_header_only": (_RATINGS_HEADER, ("validate", "--ratings"), 3, "DataError",
                            "no rating rows"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_file(capsys, tmp_path, name):
    data, command, code, error, part = BAD_INPUTS[name]
    path = tmp_path / "input"
    if data is not None:
        path.write_bytes(data)
    got, out, err = run_cli(capsys, *command, str(path))
    assert (got, out) == (code, "")
    report = _strict_json(err)
    assert report["error"] == error
    assert part in report["message"]


@pytest.mark.parametrize(
    "argv", [_PROB, ("gen", "--seed", "1", "--n-cases", "2")], ids=["prob", "gen"]
)
def test_out_unwritable(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, out) == (3, "")
    assert _strict_json(err) == {"error": "UnwritableFile",
                                 "message": f"{tmp_path}: Is a directory"}
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(missing))
    assert (code, out) == (3, "")
    assert err == ('{"error":"FileNotFound","message":"[Errno 2] No such file or directory: '
                   f"'{missing}'\"}}\n")


def test_prob_action(capsys):
    code, out, err = run_cli(capsys, "prob", "--scm", _BLAME_SCM, "--outcome", "y1",
                             "--action", "manual")
    report = _strict_json(out)
    assert (code, err, report["probability"], report["config"]["action"]) == (
        0, "", 0.3, "manual")


def test_validate_cases_and_ratings(capsys):
    code, out, _ = run_cli(capsys, "validate", "--cases", _LOG, "--ratings", _RATINGS)
    files = _strict_json(out)["files"]
    assert code == 0
    assert files[_LOG] == {"kind": "cases", "status": "ok", "rows": 200}
    assert files[_RATINGS] == {"kind": "ratings", "status": "ok", "rows": 16}


def test_blame_unit_discount_without_cost(capsys):
    code, out, _ = run_cli(capsys, "blame", "--scm", _BLAME_SCM, "--outcome", "y1",
                           "--action", "auto", "--baseline", "manual", "--discount", "unit")
    blame = _strict_json(out)["blame"]
    assert (code, blame["cost_a"], blame["gamma"], blame["db"]) == (0, 0, 1, 0.2)


def test_gen_stdout(capsys, tmp_path):
    from blamescope.io import load_cases

    code, out, err = run_cli(capsys, "gen", "--seed", "1", "--n-cases", "3")
    path = tmp_path / "log.csv"
    path.write_text(out, encoding="utf-8", newline="")
    assert (code, err, len(load_cases(path))) == (0, "", 3)
