import numpy as np

from blamescope.attribution import (
    ATTRIBUTION_TABLE,
    CLASSES,
    Attribution,
    OutcomeClass,
    Party,
    annotate,
    summarize,
)
from blamescope.hitl import Case, CaseLog, FlagPolicy, run

POLICY = FlagPolicy(l=0.2, u=0.8)


def case(id="c0", conf=0.5, ai="pos", human="pos", truth="pos"):
    return Case(id=id, ai_confidence=conf, ai_decision=ai, human_decision=human, truth=truth)


def classify_case(c):
    """Outcome class of a one-case log, or None when it is not an error."""
    attribution = annotate(run(CaseLog.from_cases([c]), POLICY))
    return CLASSES[attribution.classes[0]] if len(attribution) else None


def attribution_of(classes, total_cases):
    return Attribution(
        case_ids=[f"c{i}" for i in range(len(classes))],
        classes=np.array(classes, dtype=np.intp),
        total_cases=total_cases,
    )


def test_not_an_error():
    assert classify_case(case(conf=0.9, ai="pos", truth="pos")) is None


def test_inevitable_flagged():
    c = case(conf=0.5, ai="pos", human="neg", truth="pos")
    assert classify_case(c) is OutcomeClass.INEVITABLE_FLAGGED


def test_avoidable():
    c = case(conf=0.9, ai="pos", human="neg", truth="neg")
    assert classify_case(c) is OutcomeClass.AVOIDABLE


def test_inevitable_unflagged():
    c = case(conf=0.9, ai="pos", human="pos", truth="neg")
    assert classify_case(c) is OutcomeClass.INEVITABLE_UNFLAGGED


def test_classify_deterministic():
    c = case(conf=0.9, ai="pos", human="neg", truth="neg")
    assert classify_case(c) == classify_case(c)


def test_attribution_table():
    assert ATTRIBUTION_TABLE[OutcomeClass.INEVITABLE_FLAGGED] == {Party.HUMAN}
    assert ATTRIBUTION_TABLE[OutcomeClass.INEVITABLE_UNFLAGGED] == {Party.AI, Party.FLAG_DESIGNER}
    assert ATTRIBUTION_TABLE[OutcomeClass.AVOIDABLE] == {Party.AI, Party.FLAG_DESIGNER}


def test_summarize_empty():
    assert summarize(attribution_of([], total_cases=10)) == {
        "avoidable": 0,
        "inevitable_flagged": 0,
        "inevitable_unflagged": 0,
        "party_counts": {"AI": 0, "FlagDesigner": 0, "Human": 0},
        "total_errors": 0,
        "total_cases": 10,
    }


def test_summarize_one_per_class():
    s = summarize(attribution_of([CLASSES.index(cls) for cls in OutcomeClass], total_cases=3))
    assert s["avoidable"] == s["inevitable_flagged"] == s["inevitable_unflagged"] == 1
    assert s["party_counts"] == {"AI": 2, "FlagDesigner": 2, "Human": 1}
    assert s["total_errors"] == s["total_cases"] == 3


def test_annotate_keeps_log_order_and_ids():
    cases = [
        case(id="ok", conf=0.9, ai="pos", truth="pos"),
        case(id="unflagged", conf=0.9, ai="pos", human="pos", truth="neg"),
        case(id="flagged", conf=0.5, ai="pos", human="neg", truth="pos"),
        case(id="avoidable", conf=0.1, ai="pos", human="neg", truth="neg"),
    ]
    attribution = annotate(run(CaseLog.from_cases(cases), POLICY))
    assert attribution.case_ids == ["unflagged", "flagged", "avoidable"]
    assert [CLASSES[c] for c in attribution.classes] == [
        OutcomeClass.INEVITABLE_UNFLAGGED,
        OutcomeClass.INEVITABLE_FLAGGED,
        OutcomeClass.AVOIDABLE,
    ]
    assert attribution.total_cases == 4


def test_partition_and_recount_on_synthetic_log():
    from blamescope.synthetic import gen_synthetic
    from oracles import recount_log

    cases = gen_synthetic(seed=21, n_cases=200, ai_accuracy=0.7, human_accuracy=0.85)
    decisions = run(CaseLog.from_cases(cases), POLICY)
    attribution = annotate(decisions)
    s = summarize(attribution)
    counts = recount_log(cases, POLICY.l, POLICY.u)
    assert s["avoidable"] == counts["avoidable"]
    assert s["inevitable_flagged"] == counts["inevitable_flagged"]
    assert s["inevitable_unflagged"] == counts["inevitable_unflagged"]
    assert s["total_errors"] == counts["hitl_errors"]
    records = list(zip(attribution.case_ids, (CLASSES[c] for c in attribution.classes)))
    # No avoidable record may come from a flagged case.
    flagged = {cid for cid, f in zip(decisions.log.ids, decisions.flagged) if f}
    for case_id, cls in records:
        if cls is OutcomeClass.AVOIDABLE:
            assert case_id not in flagged
    # Human appears in the party set iff the error was flagged-inevitable.
    for _, cls in records:
        assert (Party.HUMAN in ATTRIBUTION_TABLE[cls]) == (cls is OutcomeClass.INEVITABLE_FLAGGED)
