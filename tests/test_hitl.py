import json
import random
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from blamescope.blame import DiscountSpec, apply_action
from blamescope.cli import main
from blamescope.data import bundled_path
from blamescope.errors import (
    ConfigError,
    DataError,
    DuplicateCaseId,
    EmptyCaseList,
    NonNormalizedDistribution,
)
from blamescope.hitl import (
    HITL_OUTCOME,
    Case,
    CaseLog,
    FlagPolicy,
    build_hitl_scm,
    empirical_joint,
    flag,
    hitl_blame,
    human_only_action,
    run,
)
from blamescope.synthetic import gen_synthetic

from conftest import exact_and_empirical_delta, unit_delta

POLICY = FlagPolicy(l=0.2, u=0.8)


def case(id="c0", conf=0.5, ai="pos", human="pos", truth="pos"):
    return Case(id=id, ai_confidence=conf, ai_decision=ai, human_decision=human, truth=truth)


def decide(c):
    """The run of a one-case log, read back as plain values."""
    d = run(CaseLog.from_cases([c]), POLICY)
    return SimpleNamespace(
        flagged=int(d.flagged[0]),
        final_decision=d.log.labels[d.final[0]],
        error=int(d.error[0]),
        human_error=int(d.human_error[0]),
    )


def blame_input(cases, policy=POLICY, review_cost=1.0, kind="unit"):
    """The arguments of hitl_blame for a log decided under the policy."""
    return run(CaseLog.from_cases(cases), policy), 1.0, review_cost, DiscountSpec(kind)


def test_flag_band():
    assert flag(POLICY, 0.5) == 1
    assert flag(POLICY, 0.9) == 0
    assert flag(POLICY, 0.1) == 0


def test_flag_inclusive_boundaries():
    assert flag(POLICY, 0.2) == 1
    assert flag(POLICY, 0.8) == 1


def test_flag_policy_validation():
    with pytest.raises(ConfigError):
        FlagPolicy(l=0.8, u=0.2)
    with pytest.raises(ConfigError):
        FlagPolicy(l=0.5, u=0.5)


def test_decide_hitl_flagged_human_correct():
    t = decide(case(conf=0.5, ai="neg", human="pos", truth="pos"))
    assert t.flagged == 1
    assert t.final_decision == "pos"
    assert t.error == 0


def test_decide_hitl_unflagged_ai_correct():
    t = decide(case(conf=0.95, ai="pos", human="neg", truth="pos"))
    assert t.flagged == 0
    assert t.error == 0


def test_decide_hitl_avoidable_shape():
    # Unflagged, AI wrong, human would have been right.
    t = decide(case(conf=0.95, ai="pos", human="neg", truth="neg"))
    assert t.flagged == 0
    assert t.error == 1
    assert t.human_error == 0


def test_decide_human_only():
    assert decide(case(human="pos", truth="pos")).human_error == 0
    assert decide(case(human="neg", truth="pos")).human_error == 1


def test_run_preserves_order_and_ids():
    log = CaseLog.from_cases([case(id=f"c{i}", conf=0.5) for i in range(3)])
    d = run(log, POLICY)
    assert d.log.ids == ["c0", "c1", "c2"]
    again = run(log, POLICY)
    for field in ("flagged", "final", "error", "human_error"):
        assert np.array_equal(getattr(again, field), getattr(d, field))
    assert len(d.human_error) == 3


def test_from_cases_of_no_cases_refused():
    with pytest.raises(EmptyCaseList, match="^case log is empty$"):
        CaseLog.from_cases([])


def test_run_duplicate_ids():
    with pytest.raises(DuplicateCaseId, match="'dup'"):
        CaseLog.from_cases([case(id="dup"), case(id="other"), case(id="dup")])


def test_hitl_blame_flag_everything():
    cases = gen_synthetic(seed=3, n_cases=50, ai_accuracy=0.7, human_accuracy=0.9)
    inp = blame_input(
        cases, policy=FlagPolicy(l=0.0, u=1.0), review_cost=4.0, kind="cost_ratio"
    )
    rep = hitl_blame(*inp)
    assert rep.delta == 0.0
    assert rep.flagged_fraction == 1.0
    assert rep.cost_a == rep.cost_aprime
    assert rep.gamma == 1.0


def test_hitl_blame_clamped_at_zero():
    # AI always right and never flagged; human always wrong.
    cases = [
        case(id=f"c{i}", conf=0.95, ai="pos", human="neg", truth="pos") for i in range(5)
    ]
    rep = hitl_blame(*blame_input(cases, review_cost=2.0))
    assert rep.p_a == 0.0
    assert rep.p_aprime == 1.0
    assert rep.delta == 0.0
    assert rep.db == 0.0


@pytest.mark.parametrize(
    "ai_cost, review_cost",
    [(float("inf"), 1.0), (float("nan"), 1.0), (1.0, float("inf")), (1.0, float("nan"))],
)
def test_hitl_blame_input_rejects_non_finite_costs(ai_cost, review_cost):
    decisions = run(CaseLog.from_cases([case()]), POLICY)
    with pytest.raises(ConfigError, match="decision costs must be finite"):
        hitl_blame(decisions, ai_cost, review_cost, DiscountSpec("cost_ratio"))


@pytest.mark.parametrize("ai_cost, review_cost", [(-1.0, 1.0), (1.0, -1.0)])
def test_hitl_blame_rejects_negative_costs(ai_cost, review_cost):
    decisions = run(CaseLog.from_cases([case()]), POLICY)
    with pytest.raises(ConfigError, match="decision costs must be finite and non-negative"):
        hitl_blame(decisions, ai_cost, review_cost, DiscountSpec("cost_ratio"))


def test_hitl_blame_accepts_negative_zero_costs():
    rep = hitl_blame(run(CaseLog.from_cases([case()]), POLICY), -0.0, -0.0, DiscountSpec("unit"))
    assert (rep.cost_a, rep.cost_aprime) == (0.0, 0.0)


@pytest.mark.parametrize("option", ["--ai-cost", "--review-cost"])
def test_hitl_negative_cost_refused(capsys, option):
    code = main(["hitl", "--cases", str(bundled_path("cases_200.csv")), "--l", "0.2",
                 "--u", "0.8", f"{option}=-1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert error["message"].startswith("decision costs must be finite and non-negative")


@pytest.mark.parametrize("discount", ["unit", "cost_ratio"])
@pytest.mark.parametrize("cost", [1e308, sys.float_info.max], ids=["1e308", "float_max"])
def test_hitl_accepts_finite_costs_whose_sum_overflows(capsys, discount, cost):
    """cost + cost overflows, but each cost is finite, and so is the
    expected cost, which lies between them: the report is strict JSON."""
    code = main([
        "hitl", "--cases", str(bundled_path("cases_200.csv")), "--l", "0.2", "--u", "0.8",
        "--ai-cost", repr(cost), "--review-cost", repr(cost), "--discount", discount,
    ])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")

    def reject(constant):
        raise AssertionError(f"{constant} in the report")

    blame = json.loads(out, parse_constant=reject)["blame"]
    written = float(format(cost, ".12g"))
    assert (blame["cost_a"], blame["cost_aprime"], blame["gamma"]) == (written, written, 1.0)


@pytest.mark.parametrize("flagged, n", [(1, 3), (2, 3), (999, 1999), (1000, 1999), (1, 2001)])
def test_expected_cost_at_the_largest_float_is_finite(flagged, n):
    """Both costs at the largest float, flagged fractions just either side
    of 1/2 and near 0: the two rounded terms of the expected cost never sum
    past the largest float, which is why no check follows the sum."""
    log = CaseLog([str(i) for i in range(n)], [0.5] * flagged + [0.9] * (n - flagged),
                  ["neg", "pos"], [0] * n, [0] * n, [0] * n)
    cost = sys.float_info.max
    rep = hitl_blame(run(log, POLICY), cost, cost, DiscountSpec("cost_ratio"))
    assert rep.cost_a <= cost


def test_hitl_blame_matches_recount():
    from oracles import recount_log

    cases = gen_synthetic(seed=11, n_cases=200, ai_accuracy=0.75, human_accuracy=0.85)
    rep = hitl_blame(*blame_input(cases, review_cost=3.0))
    counts = recount_log(cases, POLICY.l, POLICY.u)
    assert rep.p_a == counts["hitl_errors"] / counts["n"]
    assert rep.p_aprime == counts["human_only_errors"] / counts["n"]
    assert rep.flagged_fraction == counts["flagged"] / counts["n"]


def test_build_hitl_scm_degenerate_atom():
    # Single atom: AI correct and not flagged.
    joint = {("pos", "pos", 0, "neg"): 1.0}
    scm = build_hitl_scm(("neg", "pos"), joint)
    from blamescope.scm import event_probability

    assert event_probability(scm, HITL_OUTCOME) == 0.0


def test_build_hitl_scm_nonnormalized():
    with pytest.raises(NonNormalizedDistribution):
        build_hitl_scm(("neg", "pos"), {("pos", "pos", 0, "neg"): 0.7})


def test_build_hitl_scm_flag_everything_delta_zero():
    cases = gen_synthetic(seed=5, n_cases=100, ai_accuracy=0.7, human_accuracy=0.9)
    labels, joint = empirical_joint(run(CaseLog.from_cases(cases), FlagPolicy(l=0.0, u=1.0)))
    scm = build_hitl_scm(labels, joint)
    m_aprime = apply_action(scm, human_only_action(labels), "human_only")
    assert unit_delta(scm, m_aprime, HITL_OUTCOME) == 0.0


@pytest.mark.parametrize("seed,ai_acc,human_acc", [(1, 0.6, 0.95), (2, 0.8, 0.8), (3, 0.9, 0.7)])
def test_dual_path_agreement(seed, ai_acc, human_acc):
    cases = gen_synthetic(seed=seed, n_cases=200, ai_accuracy=ai_acc, human_accuracy=human_acc)
    exact, empirical = exact_and_empirical_delta(cases, POLICY)
    assert abs(exact - empirical) <= 1e-12


def test_dual_path_agreement_off_grid():
    # Continuous confidences and thresholds off the 10-bin grid: a model
    # that flagged by bin midpoint gave 0.0700 here against 0.0667.
    cases = gen_synthetic(0, 300, 0.6, 0.85, "uniform")
    exact, empirical = exact_and_empirical_delta(cases, FlagPolicy(l=0.3, u=0.73))
    assert empirical == pytest.approx(0.0667, abs=1e-4)
    assert abs(exact - empirical) <= 1e-12


def test_dual_path_agreement_many_labels():
    """40 labels and about 7300 distinct (truth, ai, flag, human) atoms in
    one exogenous variable U that TRUTH, AI, PSI and H all read. Reading
    them off U one at a time would need a factor of 2 * 40^2 * |U| entries,
    over the cap; substituted together they need |U|."""
    rng = random.Random(40)
    labels = [f"c{i}" for i in range(40)]
    cases = []
    for i in range(10000):
        truth = rng.choice(labels)
        human = truth if rng.random() < 0.5 else rng.choice(labels)
        cases.append(case(id=f"k{i}", conf=rng.random(), ai=rng.choice(labels), human=human,
                          truth=truth))
    exact, empirical = exact_and_empirical_delta(cases, POLICY)
    assert empirical > 0
    assert abs(exact - empirical) <= 1e-12


def test_labels_with_the_separator_get_distinct_atoms():
    """Labels are free text: ("a|b", "c", 0, "d") and ("a", "b|c", 0, "d")
    are two atoms of the built model, and its exact delta is the log's."""
    cases = [
        case(id="k0", conf=0.9, truth="a|b", ai="c", human="d"),
        case(id="k1", conf=0.9, truth="a", ai="b|c", human="d"),
        case(id="k2", conf=0.95, truth="a|b", ai="c", human="a|b"),
        case(id="k3", conf=0.5, truth="d", ai="a", human="d"),
    ]
    exact, empirical = exact_and_empirical_delta(cases, POLICY)
    assert empirical == 0.25
    assert abs(exact - empirical) <= 1e-12


def test_empirical_joint_keys_on_flag_bit():
    cases = [case(id="a", conf=0.2), case(id="b", conf=0.25), case(id="c", conf=0.9)]
    labels, joint = empirical_joint(run(CaseLog.from_cases(cases), POLICY))
    assert labels == ["pos"]
    assert joint == {("pos", "pos", 1, "pos"): 2 / 3, ("pos", "pos", 0, "pos"): 1 / 3}


@pytest.mark.parametrize("conf", [-0.1, 1.5, float("nan")])
def test_case_confidence_outside_unit_interval_refused(conf):
    with pytest.raises(ConfigError, match=rf"^case 'c0': confidence {conf} outside \[0,1\]$"):
        CaseLog.from_cases([case(conf=conf)])


def _columns(**edits) -> dict:
    """CaseLog's arguments for a three-case log, with some replaced."""
    return {"ids": ["a", "b", "c"], "ai_confidence": [0.1, 0.5, 0.9], "labels": ["neg", "pos"],
            "ai_decision": [0, 1, 0], "human_decision": [1, 1, 0], "truth": [1, 0, 0], **edits}


@pytest.mark.parametrize(
    "edits, error, message",
    [
        ({"ids": []}, EmptyCaseList, "case log is empty"),
        ({"ids": ["a", "", "c"]}, DataError, "case log has an empty case id"),
        ({"ids": ["a", "b", "a"]}, DuplicateCaseId, "duplicate case id 'a'"),
        # Two confidences for one id: hitl_blame read p_a = 2.0 from this.
        ({"ids": ["a"], "ai_confidence": [0.9, 0.9], "ai_decision": [0], "human_decision": [1],
          "truth": [1]}, DataError, "ai_confidence: 2 entries for 1 case ids"),
        ({"truth": [1, 0]}, DataError, "truth: 2 entries for 3 case ids"),
        ({"labels": ["", "pos"]}, DataError, "case log has an empty label"),
        ({"human_decision": [1, -1, 0]}, DataError,
         "human_decision: label code -1 outside the 2 labels"),
        ({"ai_decision": [0, 2, 0]}, DataError, "ai_decision: label code 2 outside the 2 labels"),
        ({"ai_confidence": [0.1, float("nan"), 0.9]}, ConfigError,
         "case 'b': confidence nan outside [0,1]"),
        ({"ai_confidence": [0.1, 0.5, 1.7]}, ConfigError,
         "case 'c': confidence 1.7 outside [0,1]"),
    ],
    ids=["empty", "empty_id", "duplicate", "confidence_column_long", "truth_column_short",
         "empty_label", "code_minus_one", "code_past_labels", "nan_confidence",
         "confidence_past_one"],
)
def test_caselog_refuses_a_bad_log(edits, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        CaseLog(**_columns(**edits))
    assert type(refused.value) is error


def test_caselog_sorts_labels_and_maps_codes():
    log = CaseLog(["a", "b"], [0.25, 1.0], ["pos", "neg", "maybe"], [0, 1], [2, 0], [1, 1])
    assert log.labels == ("maybe", "neg", "pos")
    assert [[log.labels[c] for c in column]
            for column in (log.ai_decision, log.human_decision, log.truth)] == [
        ["pos", "neg"], ["maybe", "pos"], ["neg", "neg"]]
    assert log.ai_confidence.dtype == np.float64
