from types import SimpleNamespace

import numpy as np
import pytest

from blamescope.blame import Action, DiscountSpec, delta
from blamescope.errors import (
    ConfigError,
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

from conftest import exact_and_empirical_delta

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


def test_run_empty():
    d = run(CaseLog.from_cases([]), POLICY)
    assert len(d.log) == 0
    assert d.error.size == d.human_error.size == 0


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


def test_hitl_blame_empty():
    with pytest.raises(EmptyCaseList):
        hitl_blame(*blame_input([]))


@pytest.mark.parametrize(
    "ai_cost, review_cost",
    [(float("inf"), 1.0), (float("nan"), 1.0), (1.0, float("inf")), (1.0, float("nan"))],
)
def test_hitl_blame_input_rejects_non_finite_costs(ai_cost, review_cost):
    decisions = run(CaseLog.from_cases([case()]), POLICY)
    with pytest.raises(ConfigError, match="decision costs must be finite"):
        hitl_blame(decisions, ai_cost, review_cost, DiscountSpec("cost_ratio"))


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
    assert delta(scm, Action("hitl"), human_only_action(labels), HITL_OUTCOME) == 0.0


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


def test_empirical_joint_keys_on_flag_bit():
    cases = [case(id="a", conf=0.2), case(id="b", conf=0.25), case(id="c", conf=0.9)]
    labels, joint = empirical_joint(run(CaseLog.from_cases(cases), POLICY))
    assert labels == ["pos"]
    assert joint == {("pos", "pos", 1, "pos"): 2 / 3, ("pos", "pos", 0, "pos"): 1 / 3}
