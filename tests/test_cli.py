import csv
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blamescope import attribution as attr_mod
from blamescope import cli
from blamescope import hitl as hitl_mod
from blamescope import io as io_mod
from blamescope.cli import main
from blamescope.data import bundled_path
from blamescope.hitl import Case
from blamescope.errors import ConfigError
from blamescope.io import CASE_COLUMNS, dump_cases
from blamescope.synthetic import MAX_CASES, gen_synthetic

from conftest import lookup_out_of_memory, pairwise_xor_scm

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


@pytest.mark.parametrize("command", ["prob", "counterfactual"])
@pytest.mark.parametrize(
    "do, error, message",
    [
        (("Z=0", "X=2"), "UnknownVariable",
         "intervention references unknown endogenous variable 'Z'"),
        (("X=2", "Z=0"), "ValueOutOfDomain", "intervention value '2' not in domain of 'X'"),
    ],
    ids=["unknown_first", "out_of_domain_first"],
)
def test_first_bad_do_binding_named(capsys, xor_path, command, do, error, message):
    """With several bad `--do` bindings, the first on the command line is
    the one reported."""
    argv = [command, "--scm", xor_path, "--outcome", "y1"]
    for binding in do:
        argv += ["--do", binding]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert _strict_json(err) == {"error": error, "message": message}


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


def test_counterfactual_support_size_is_an_exact_integer(capsys, tmp_path, workloads):
    """On a 70-bit chain the posterior support holds 2^69 settings, past
    any float's integers, and the probability is the closed form's."""
    prepared = workloads.prepare_counterfactual(70, tmp_path, 70)
    code, out, err = run_cli(capsys, *prepared.argv)
    assert (code, err) == (0, "")
    assert '"posterior_support_size":590295810358705651712,' in out
    report = _strict_json(out)
    assert report["posterior_support_size"] == 2**69
    assert abs(report["probability"] - prepared.ref["probability"]) <= 1e-12
    assert prepared.check(report) == []


def test_counterfactual_underflowing_observation(capsys, tmp_path):
    """Every setting that gives X = 1 has weight 1e-200 * 1e-200, which is
    0.0 in floating point but not impossible: a typed error that says the
    figure underflowed, not a division by zero nor "impossible"."""
    tiny = {"values": ["0", "1"], "probs": [1.0, 1e-200]}
    doc = {
        "schema": "blamescope/scm/1",
        "exogenous": [{"id": "E1", **tiny}, {"id": "E2", **tiny}],
        "endogenous": [{"id": "X", "values": ["0", "1"], "parents": ["E1", "E2"],
                        "table": {"0|0": "0", "0|1": "0", "1|0": "0", "1|1": "1"}}],
        "outcomes": {"x1": [[["X", "eq", "1"]]]},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "counterfactual", "--scm", str(path), "--outcome", "x1",
                             "--observe", "X=1", "--do", "X=0")
    assert (code, out) == (4, "")
    assert _strict_json(err)["error"] == "FloatUnderflow"


def _fair_bits_model(n, endogenous, outcomes) -> dict:
    """A model document with n fair noise bits E0 ... E(n-1)."""
    return {
        "schema": "blamescope/scm/1",
        "exogenous": [{"id": f"E{i}", "values": ["0", "1"], "probs": [0.5, 0.5]}
                      for i in range(n)],
        "endogenous": endogenous,
        "outcomes": outcomes,
    }


def test_count_past_the_int_digit_limit_is_refused(capsys, tmp_path, int_digit_limit):
    """On 15,000 fair bits with Y := E0, Y = 1 has 2^14999 settings, past
    the decimal digits Python writes an integer in: the counterfactual
    report, which holds that count, is refused with a typed error that
    names its size, not a ValueError from the serializer."""
    doc = _fair_bits_model(
        15_000, [{"id": "Y", "values": ["0", "1"], "parents": ["E0"],
                  "table": {"0": "0", "1": "1"}}], {"y1": [[["Y", "eq", "1"]]]},
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "counterfactual", "--scm", str(path), "--outcome", "y1",
                             "--observe", "Y=1")
    assert (code, out) == (3, "")
    assert _strict_json(err) == {
        "error": "IntegerTooLong",
        "message": "cannot write an integer of 15000 bits as JSON, past Python's limit "
                   f"of {int_digit_limit} decimal digits",
    }


def test_piece_bound_past_the_int_digit_limit_is_refused(capsys, tmp_path, int_digit_limit):
    """16,000 two-literal clauses over 60 fair bits X_i := E_i: the bound on
    the disjoint pieces, 120 * (2^16000 - 1), is past the decimal digits
    Python writes an integer in, so the refusal names it by its power of
    two; the bound is a running product, found in linear time."""
    clauses = [[[f"X{i % 60}", "eq", "1"], [f"X{(i + 1 + i // 60 % 59) % 60}", "eq", "0"]]
               for i in range(16_000)]
    doc = _fair_bits_model(
        60, [{"id": f"X{i}", "values": ["0", "1"], "parents": [f"E{i}"],
              "table": {"0": "0", "1": "1"}} for i in range(60)], {"many": clauses},
    )
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "prob", "--scm", str(path), "--outcome", "many")
    assert time.perf_counter() - start < 5
    assert (code, out) == (4, "")
    assert _strict_json(err) == {
        "error": "StateSpaceTooLarge",
        "message": "exact query needs a factor of more than 2^16006 entries (cap 16777216); "
                   "estimate an outcome probability with `prob --samples N` instead",
    }


def _chain_zeros(tmp_path, workloads, ps, observed):
    """The XOR chain S_i := S_{i-1} xor E_i with P(E_i = 1) = ps[i], with
    the outcome `all0`, every S_i = 0, and the flags that observe S_i = 0
    for i < `observed`: the model path and those flags."""
    doc = workloads.chain_model(ps, len(ps))
    doc["outcomes"]["all0"] = [[[f"S{i}", "eq", "0"] for i in range(len(ps))]]
    path = tmp_path / "chain.json"
    workloads._write_model(path, doc)
    return str(path), [f for i in range(observed) for f in ("--observe", f"S{i}=0")]


@pytest.mark.parametrize(
    "ps, command, observed, figure",
    [
        # P(observation) = 2^-1100 was reported impossible.
        ([0.5] * 1100, ("counterfactual", "--outcome", "y1"), 1100, "P(observation)"),
        # P(observation) is the subnormal 9e-323; the answer 0.3 came out as 0.2777...
        ([0.3] * 2080, ("counterfactual", "--outcome", "y1"), 2079, "P(observation)"),
        # ... and at 2040 bits as 0.3000000069168931.
        ([0.3] * 2040, ("counterfactual", "--outcome", "y1"), 2039, "P(observation)"),
        # 2^-1100 came out as 0.0.
        ([0.5] * 1100, ("prob", "--outcome", "all0"), 0,
         "the expected sum of outcome values"),
        # 1.0000037511e-316 came out as 1.00000374e-316, 1.1e-8 off.
        ([0.3] * 2040, ("prob", "--outcome", "all0"), 0,
         "the expected sum of outcome values"),
    ],
    ids=["fair_1100_counterfactual", "flip_2080_counterfactual", "flip_2040_counterfactual",
         "fair_1100_prob", "flip_2040_prob"],
)
def test_figure_below_the_normal_float_range_is_refused(
    capsys, tmp_path, workloads, ps, command, observed, figure
):
    """A positive probability below the normal float range is refused
    with a typed error that names it, not reported with no bound on its
    error."""
    path, seen = _chain_zeros(tmp_path, workloads, ps, observed)
    code, out, err = run_cli(capsys, *command, "--scm", path, *seen)
    assert (code, out) == (4, "")
    report = _strict_json(err)
    assert report["error"] == "FloatUnderflow"
    assert report["message"].startswith(f"{figure} is positive but ")


def test_true_zero_below_the_normal_float_range_is_kept(capsys, tmp_path, workloads):
    """On the 1100-bit chain of fair bits but one that never flips, S5 = 1
    with every other S_i = 0 is impossible: the probability is a true 0,
    and as an observation it is still `ZeroProbabilityObservation`."""
    ps = [0.5] * 1100
    ps[5] = 0.0
    path, seen = _chain_zeros(tmp_path, workloads, ps, 1100)
    seen[seen.index("S5=0")] = "S5=1"
    code, out, err = run_cli(capsys, "counterfactual", "--scm", path, "--outcome", "y1", *seen)
    assert (code, out) == (4, "")
    assert _strict_json(err)["error"] == "ZeroProbabilityObservation"
    doc = json.loads(Path(path).read_text())
    doc["outcomes"]["all0"][0][5][2] = "1"
    Path(path).write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "prob", "--scm", path, "--outcome", "all0")
    assert (code, err) == (0, "")
    assert _strict_json(out)["probability"] == 0


def _costly_model(tmp_path, terms, probs=(0.5, 0.5)):
    """The bundled blame model with the cost model `costly` of `terms`,
    (where, cost) pairs, and E1's probabilities `probs`."""

    def edit(doc):
        doc["exogenous"][0]["probs"] = list(probs)
        doc["costs"]["costly"] = [{"where": where, "cost": cost} for where, cost in terms]

    return _edited_model(tmp_path, "xor_blame.json", edit)


@pytest.mark.parametrize(
    "terms, probs",
    [
        ([({}, 1e308), ({}, 1e308)], (0.5, 0.5)),
        # Priors that sum to 1 + 1e-10 make an always-true cost past the
        # largest float.
        ([({}, 1.7976931348623157e308)], (0.5, 0.5000000001)),
    ],
    ids=["two_terms", "priors_past_one"],
)
def test_expected_cost_past_the_float_range(capsys, tmp_path, terms, probs):
    """An expected cost past the largest float is a typed error that names
    the cost terms, not a traceback nor a numpy warning."""
    path = _costly_model(tmp_path, terms, probs)
    code, out, err = run_cli(capsys, "blame", "--scm", path, *BLAME_ARGS[:-1], "costly")
    assert (code, out) == (3, "")
    assert _strict_json(err) == {
        "error": "NonFiniteNumber",
        "message": "the expected sum of cost term values is past the float range",
    }


def test_expected_cost_near_the_float_range(capsys, tmp_path):
    """Two costs of 1.7e308 on exclusive events sum to a finite expected
    cost: the loader does not check the sum of the costs."""
    path = _costly_model(tmp_path, [({"REVIEW": "0"}, 1.7e308), ({"REVIEW": "1"}, 1.7e308)])
    code, out, err = run_cli(capsys, "blame", "--scm", path, *BLAME_ARGS[:-1], "costly")
    assert (code, err) == (0, "")
    blame = _strict_json(out)["blame"]
    assert (blame["cost_a"], blame["cost_aprime"], blame["db"]) == (1.7e308, 1.7e308, 0.2)


def test_more_parents_than_array_dimensions(capsys, tmp_path):
    """Y reads 65 one-valued parents and a bit, 66 in all, more than a numpy
    array has dimensions: a one-valued parent gets no table axis, so every
    query works."""
    key = "|".join(["only"] * 65)
    doc = {
        "schema": "blamescope/scm/1",
        "exogenous": [{"id": f"O{i}", "values": ["only"], "probs": [1.0]} for i in range(65)]
        + [{"id": "E", "values": ["0", "1"], "probs": [0.3, 0.7]}],
        "endogenous": [{"id": "Y", "values": ["0", "1"],
                        "parents": [f"O{i}" for i in range(65)] + ["E"],
                        "table": {key + "|0": "0", key + "|1": "1"}}],
        "outcomes": {"y1": [[["Y", "eq", "1"]]]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    model = ("--scm", str(path), "--outcome", "y1")
    for argv, field, want in [
        (("prob", *model), "probability", 0.7),
        (("prob", *model, "--samples", "100000", "--seed", "3"), "probability", 0.7),
        (("counterfactual", *model, "--observe", "Y=0", "--do", "Y=1"), "probability", 1),
        (("counterfactual", *model, "--observe", "Y=0"), "posterior_support_size", 1),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert abs(_strict_json(out)[field] - want) <= 0.01


def test_exact_queries_scale_with_chain_length(capsys, tmp_path, workloads):
    """prob, blame and counterfactual on 1000-bit XOR chains match the
    closed forms, in well under a second on one core. A greedy order that
    costs every variable of the model at each step took minutes here."""
    chain = 1000
    ps = workloads.draw_flip_probs(5, chain)
    path = tmp_path / "chain.json"
    workloads._write_model(path, workloads.chain_model(ps, chain))
    blame = workloads.prepare_blame(5, tmp_path, chain, 2)
    counterfactual = workloads.prepare_counterfactual(5, tmp_path, chain)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "prob", "--scm", str(path), "--outcome", "y1")
    assert (code, err) == (0, "")
    want = (1.0 - workloads.q(ps, 0, chain)) / 2.0
    assert abs(_strict_json(out)["probability"] - want) <= 1e-12
    for prepared in (blame, counterfactual):
        code, out, err = run_cli(capsys, *prepared.argv)
        assert (code, err) == (0, "")
        assert prepared.check(_strict_json(out)) == []
    assert time.perf_counter() - start < 10


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


def test_metrics_empty_positive_is_an_absent_label(capsys, log_path):
    """`--positive ''` is given, so it is no usage error: it is a label the
    log does not hold, and matches no case, like any other absent label."""
    reports = {}
    for positive in ("", "absent"):
        code, out, err = run_cli(
            capsys, "metrics", "--cases", log_path, "--l", "0.2", "--u", "0.8",
            "--positive", positive,
        )
        assert (code, err) == (0, "")
        reports[positive] = json.loads(out)
    assert reports[""]["config"].pop("positive") == ""
    assert reports["absent"]["config"].pop("positive") == "absent"
    assert reports[""] == reports["absent"]
    assert reports[""]["hitl"]["tp"] == reports[""]["hitl"]["fp"] == 0


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


# Ids with characters JSON escapes or leaves as they are: quotes,
# backslashes, control characters, non-ASCII and U+2028.
RECORD_IDS = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "\u2028",
                     "\u2029", "\U0001f600"]),
    st.characters(),
), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(RECORD_IDS, st.integers(0, len(attr_mod.CLASSES) - 1)),
                max_size=30))
def test_per_case_text_is_canonical_json_of_the_records(records):
    """The per-case text built in one join is `_canon` of the same records
    as dicts, and `canonical_dumps` writes it as it is."""
    attribution = attr_mod.Attribution(
        case_ids=[case_id for case_id, _ in records],
        classes=np.array([c for _, c in records], dtype=np.int64),
        total_cases=len(records),
    )
    dicts = [
        {"id": case_id, "class": attr_mod.CLASSES[c].value,
         "parties": sorted(p.value for p in attr_mod.ATTRIBUTION_TABLE[attr_mod.CLASSES[c]])}
        for case_id, c in records
    ]
    want = []
    io_mod._canon(dicts, want)
    got = attr_mod.per_case(attribution)
    assert got == "".join(want)
    assert json.loads(got) == dicts
    assert io_mod.canonical_dumps({"per_case": got}) == io_mod.canonical_dumps(
        {"per_case": dicts})


def test_per_case_text_of_a_log_without_errors():
    cases = [Case(id=f"c{i}", ai_confidence=i / 4, ai_decision="pos",
                  human_decision="pos", truth="pos") for i in range(5)]
    log = hitl_mod.CaseLog.from_cases(cases)
    attribution = attr_mod.annotate(hitl_mod.run(log, hitl_mod.FlagPolicy(l=0.2, u=0.8)))
    assert len(attribution) == 0
    assert attr_mod.per_case(attribution) == "[]"


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
        (("metrics", "--ratings", _RATINGS, "--k", "10000000"),
         "--k: must be an integer >= 2 and <= 1000, got '10000000'"),
    ],
    ids=["samples_0", "seed_negative", "k_negative", "k_1", "k_10_7"],
)
def test_integer_flag_bounds_named(capsys, argv, bound):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert bound in _strict_json(err)["message"]


def test_gen_synthetic_case_cap(monkeypatch):
    """The library refuses more than MAX_CASES cases, as `gen` does, before
    it builds a generator; MAX_CASES itself passes the check."""

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(np.random, "default_rng", reached)
    for n in (0, MAX_CASES + 1):
        with pytest.raises(ConfigError, match=f"^n_cases must be >= 1 and <= {MAX_CASES}, got {n}$"):
            gen_synthetic(1, n, 0.8, 0.9)
    with pytest.raises(Reached):
        gen_synthetic(1, MAX_CASES, 0.8, 0.9)


def test_gen_synthetic_unknown_confidence_profile():
    with pytest.raises(ConfigError, match="^unknown confidence profile 'x'$"):
        gen_synthetic(1, 2, 0.8, 0.9, confidence_profile="x")


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
        (("blame", "--scm", _BLAME_SCM, *BLAME_ARGS[:-1], "nope"), "UnknownCostModel"),
        # The model's discount is cost_ratio, which requires --cost.
        (("blame", "--scm", _BLAME_SCM, *BLAME_ARGS[:-2]), "ConfigError"),
    ],
    ids=[
        "no_command", "unknown_command", "unknown_flag", "missing_required", "bad_float",
        "bad_choice", "do_without_equals", "observe_without_equals", "validate_no_file",
        "metrics_no_source", "metrics_both_sources", "metrics_cases_no_positive",
        "prob_unknown_action", "do_twice", "observe_twice", "metrics_cases_k",
        "metrics_ratings_l", "metrics_ratings_u", "metrics_ratings_positive",
        "blame_unknown_cost", "blame_cost_ratio_without_cost",
    ],
)
def test_usage_and_config_errors_are_json(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert _strict_json(err)["error"] == error


def test_prob_samples_beyond_memory(capsys):
    """10^12 samples, over `scm.MAX_SAMPLES`, fail before any is drawn."""
    code, out, err = run_cli(capsys, *_PROB, "--samples", str(10**12))
    assert (code, out) == (2, "")
    error = _strict_json(err)
    assert error["error"] == "SampleCountTooLarge"
    assert "1000000000000 samples" in error["message"]


def test_prob_out_of_memory_mid_estimate(capsys, monkeypatch):
    """A MemoryError after the first block of an estimate exits 2 with
    `SampleCountTooLarge` as JSON on stderr."""
    lookup_out_of_memory(monkeypatch, after=4)
    code, out, err = run_cli(capsys, *_PROB, "--samples", "200000")
    assert (code, out) == (2, "")
    error = _strict_json(err)
    assert error["error"] == "SampleCountTooLarge"
    assert error["message"].startswith("not enough memory")


def test_exact_prob_past_the_cap_exits_4(capsys, tmp_path):
    """Exact `prob` on the 26-bit pairwise-XOR clique, whose elimination
    needs a factor of 2^25 entries, is refused with a JSON error."""
    scm = pairwise_xor_scm(26)
    path = tmp_path / "clique.json"
    path.write_text(json.dumps({
        "schema": "blamescope/scm/1",
        "exogenous": [
            {"id": ex.id, "values": list(ex.domain.values), "probs": list(ex.dist)}
            for ex in scm.exogenous
        ],
        "endogenous": [
            {"id": v.id, "values": list(v.domain.values), "parents": list(v.parents),
             "table": {"|".join(key): x for key, x in v.mechanism.items()}}
            for v in scm.endogenous
        ],
        "outcomes": {"all_zero": [[[v.id, "eq", "0"] for v in scm.endogenous]]},
    }))
    code, out, err = run_cli(capsys, "prob", "--scm", str(path), "--outcome", "all_zero")
    assert (code, out) == (4, "")
    error = _strict_json(err)
    assert error["error"] == "StateSpaceTooLarge"
    assert "factor of 33554432 entries" in error["message"]


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


def test_repeated_domain_value_named(capsys, tmp_path):
    """A wide domain with one value repeated is refused in a short message
    that names the value, not in one that lists the domain."""
    values = [str(i) for i in range(100_000)] + ["5"]
    path = tmp_path / "wide.json"
    path.write_bytes(_xor_with(_set(["exogenous", 0, "values"], values)))
    code, out, err = run_cli(capsys, "validate", "--scm", str(path))
    assert (code, out) == (4, "")
    assert _strict_json(err) == {"error": "ValueOutOfDomain",
                                 "message": "domain value '5' is not unique"}
    assert len(err.encode()) < 1024


def _xor_with(edit) -> bytes:
    doc = json.loads(bundled_path("xor.json").read_text())
    edit(doc)
    return json.dumps(doc).encode()


def _override(var, parents, table) -> dict:
    return {"var": var, "parents": parents, "table": table}


def _with_action(*overrides) -> bytes:
    """xor.json with one action, 'broken', made of `overrides`."""
    return _xor_with(_set(["actions"], {"broken": list(overrides)}))


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
                        ("validate", "--scm"), 3, "SchemaViolation",
                        "outcome 'y1': bad outcome literal"),
    # The loader builds every action's model, so each command that reads
    # the file refuses a bad action alike, whether it uses the action or not.
    **{
        f"scm_action_{fault}{suffix}": (data, command, 4, error, message)
        for fault, data, error, message in (
            ("unknown_variable", _with_action(_override("Nope", [], {"": "0"})),
             "UnknownVariable", "action 'broken' overrides unknown variable 'Nope'"),
            ("cycle", _with_action(_override("X", ["Y"], {"0": "0", "1": "1"})),
             "CyclicGraph", "cycle among endogenous variables: X -> Y -> X"),
            ("partial_table", _with_action(_override("Y", ["E2"], {"0": "1"})),
             "PartialMechanism", "Y: mechanism has 1 entries, expected 2"),
            ("overrides_twice",
             _with_action(_override("Y", [], {"": "1"}), _override("Y", [], {"": "0"})),
             "DuplicateVariable", "action 'broken' overrides 'Y' twice"),
        )
        for suffix, command in (
            ("", ("validate", "--scm")),
            ("_prob", ("prob", "--outcome", "y1", "--scm")),
            ("_counterfactual", ("counterfactual", "--outcome", "y1", "--scm")),
            ("_blame", ("blame", "--outcome", "y1", "--action", "broken", "--baseline",
                        "broken", "--scm")),
        )
    },
    "scm_empty_domain": (_xor_with(_set(["endogenous", 0, "values"], [])),
                         ("validate", "--scm"), 4, "ValueOutOfDomain",
                         "domain must be non-empty"),
    # As many entries as E1 has values, but one keyed by a value E1 lacks.
    "scm_key_outside_parent_values": (_xor_with(_set(["endogenous", 0, "table"],
                                                     {"0": "0", "2": "1"})),
                                      ("validate", "--scm"), 4, "PartialMechanism",
                                      "X: missing mechanism entry for ('1',)"),
    "scm_probs_for_too_many_values": (_xor_with(_set(["exogenous", 0, "probs"],
                                                     [0.5, 0.25, 0.25])),
                                      ("validate", "--scm"), 4, "NonNormalizedDistribution",
                                      "E1: 3 probabilities for 2 values"),
    "scm_output_outside_domain": (_xor_with(_set(["endogenous", 0, "table"],
                                                 {"0": "0", "1": "2"})),
                                  ("validate", "--scm"), 4, "PartialMechanism",
                                  "X: mechanism output '2' outside domain"),
    "scm_exogenous_entry_int": (_xor_with(_set(["exogenous"], [1])), ("validate", "--scm"), 3,
                                "SchemaViolation", "exogenous[0]: expected an object, got int"),
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
    "ratings_category_too_large": (_RATINGS_HEADER + b"c0,1,2\nc1,10000000,1\n",
                                   ("metrics", "--ratings"), 3, "DataError",
                                   "rating 10000000 above the 1000-category limit"),
    "ratings_one_category": (_RATINGS_HEADER + b"c0,1,1\nc1,1,1\n", ("metrics", "--ratings"),
                             3, "DataError", "need at least 2 ordinal categories"),
    # The path is gen's --out, which nothing is written to.
    "gen_n_cases_past_cap": (None, ("gen", "--seed", "1", "--n-cases", f"{MAX_CASES + 1}", "--out"),
                             2, "ConfigError",
                             f"--n-cases: must be an integer >= 1 and <= {MAX_CASES}, "
                             f"got '{MAX_CASES + 1}'"),
    "gen_ai_accuracy_past_one": (None, ("gen", "--seed", "1", "--n-cases", "2",
                                        "--ai-accuracy", "2", "--out"),
                                 2, "ConfigError", "ai_accuracy must be in [0,1], got 2.0"),
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


def test_same_report_whatever_the_line_endings_or_quoting(capsys, tmp_path):
    """The bundled case log with LF endings is split in bulk; with CRLF
    endings it is too, and fully quoted it goes to csv.reader. All three
    give byte-identical reports."""
    with bundled_path("cases_200.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    path = tmp_path / "cases.csv"
    writers = {
        "lf": {"lineterminator": "\n"},
        "crlf": {"lineterminator": "\r\n"},
        "quote_all": {"lineterminator": "\n", "quoting": csv.QUOTE_ALL},
    }
    commands = (("validate", "--cases"), ("hitl", "--l", "0.2", "--u", "0.8", "--cases"))
    reports = {}
    for name, options in writers.items():
        with path.open("w", newline="") as fh:
            csv.writer(fh, **options).writerows(rows)
        reports[name] = [run_cli(capsys, *command, str(path)) for command in commands]
        if name == "lf":
            assert path.read_bytes() == bundled_path("cases_200.csv").read_bytes()
    assert [code for code, _, _ in reports["lf"]] == [0, 0]
    assert reports["lf"] == reports["crlf"] == reports["quote_all"]
