import json
import shutil

import pytest

from blamescope.cli import main
from blamescope.data import bundled_path

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
    cases = load_cases(dst)
    assert all(c.ai_decision == c.truth for c in cases)


def test_gen_perfect_human_means_no_inevitable(capsys, tmp_path):
    from blamescope.attribution import OutcomeClass, annotate
    from blamescope.hitl import FlagPolicy, run
    from blamescope.io import load_cases

    dst = tmp_path / "log.csv"
    assert main([
        "gen", "--seed", "2", "--n-cases", "200", "--ai-accuracy", "0.6",
        "--human-accuracy", "1.0", "--out", str(dst),
    ]) == 0
    cases = load_cases(dst)
    traces = run(cases, "hitl", FlagPolicy(l=0.2, u=0.8))
    records = annotate(traces, cases)
    assert records, "expected at least one HITL error with a weak AI"
    assert all(r.outcome_class is OutcomeClass.AVOIDABLE for r in records)


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "prob", "--scm", "/no/such.json", "--outcome", "y1")
    assert code == 3
