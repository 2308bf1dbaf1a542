import pytest

from blamescope.attribution import (
    AttributionRecord,
    OutcomeClass,
    Party,
    annotate,
    attribute,
    classify,
    summarize,
)
from blamescope.errors import TraceCaseMismatch
from blamescope.hitl import Case, FlagPolicy, decide_hitl, run

POLICY = FlagPolicy(l=0.2, u=0.8)


def case(id="c0", conf=0.5, ai="pos", human="pos", truth="pos"):
    return Case(id=id, ai_confidence=conf, ai_decision=ai, human_decision=human, truth=truth)


def classify_case(c):
    return classify(decide_hitl(c, POLICY), c)


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


def test_classify_mismatch():
    c1 = case(id="a")
    c2 = case(id="b")
    with pytest.raises(TraceCaseMismatch):
        classify(decide_hitl(c1, POLICY), c2)


def test_classify_deterministic():
    c = case(conf=0.9, ai="pos", human="neg", truth="neg")
    assert classify_case(c) == classify_case(c)


def test_attribution_table():
    assert attribute(OutcomeClass.INEVITABLE_FLAGGED) == {Party.HUMAN}
    assert attribute(OutcomeClass.INEVITABLE_UNFLAGGED) == {Party.AI, Party.FLAG_DESIGNER}
    assert attribute(OutcomeClass.AVOIDABLE) == {Party.AI, Party.FLAG_DESIGNER}


def test_summarize_empty():
    s = summarize([], total_cases=10)
    assert s.total_errors == 0
    assert all(v == 0 for v in s.class_counts.values())
    assert all(v == 0 for v in s.party_counts.values())
    assert s.total_cases == 10


def test_summarize_one_per_class():
    records = [
        AttributionRecord("a", cls, attribute(cls)) for cls in OutcomeClass
    ]
    s = summarize(records, total_cases=3)
    assert all(v == 1 for v in s.class_counts.values())
    assert s.party_counts[Party.HUMAN] == 1
    assert s.party_counts[Party.AI] == 2
    assert s.party_counts[Party.FLAG_DESIGNER] == 2
    assert sum(s.class_counts.values()) == s.total_errors == 3


def test_annotate_length_mismatch():
    from blamescope.synthetic import gen_synthetic

    cases = gen_synthetic(seed=3, n_cases=50, ai_accuracy=0.5, human_accuracy=0.5)
    traces = run(cases[:10], "hitl", POLICY)
    with pytest.raises(TraceCaseMismatch, match="10 traces for 50 cases"):
        annotate(traces, cases)


def test_partition_and_recount_on_synthetic_log():
    from blamescope.synthetic import gen_synthetic
    from oracles import recount_log

    cases = gen_synthetic(seed=21, n_cases=200, ai_accuracy=0.7, human_accuracy=0.85)
    traces = run(cases, "hitl", POLICY)
    records = annotate(traces, cases)
    s = summarize(records, total_cases=len(cases))
    counts = recount_log(cases, POLICY.l, POLICY.u)
    assert s.class_counts[OutcomeClass.AVOIDABLE] == counts["avoidable"]
    assert s.class_counts[OutcomeClass.INEVITABLE_FLAGGED] == counts["inevitable_flagged"]
    assert s.class_counts[OutcomeClass.INEVITABLE_UNFLAGGED] == counts["inevitable_unflagged"]
    assert s.total_errors == counts["hitl_errors"]
    # No avoidable record may come from a flagged trace.
    flagged = {t.case_id for t in traces if t.flagged}
    for r in records:
        if r.outcome_class is OutcomeClass.AVOIDABLE:
            assert r.case_id not in flagged
    # Human appears in the party set iff the error was flagged-inevitable.
    for r in records:
        assert (Party.HUMAN in r.parties) == (
            r.outcome_class is OutcomeClass.INEVITABLE_FLAGGED
        )
