"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import shutil
import subprocess
import sys
import time

import pytest

from blamescope.attribution import CLASSES, OutcomeClass, annotate, summarize
from blamescope.blame import DiscountSpec, apply_action, discount, discounted_blame
from blamescope.data import bundled_path
from blamescope.hitl import CaseLog, FlagPolicy, run
from blamescope.metrics import (
    BinaryCounts,
    OrdinalConfusion,
    binary_counts,
    blame_from_agreement,
    blame_from_f1_drop,
    precision_recall_f1,
    qwk,
)
from blamescope.scm import (
    OutcomeSpec,
    counterfactual_probability,
    event_probability,
    event_probability_mc,
)
from blamescope.errors import ZeroProbabilityObservation
from blamescope.synthetic import gen_synthetic

from conftest import (
    cost_model,
    exact_and_empirical_delta,
    random_action,
    random_outcome,
    random_scm,
    unit_delta,
    xor_scm,
)
from oracles import brute_event_probability, brute_prf1, brute_qwk, recount_log

POLICY = FlagPolicy(l=0.2, u=0.8)
Y1 = OutcomeSpec(((("Y", "eq", "1"),),))


def _report(n, label, started):
    elapsed = time.monotonic() - started
    print(f"[acceptance] criterion {n} ({label}): PASS in {elapsed:.1f}s")


def test_criterion_1_metric_conversion_arithmetic():
    started = time.monotonic()
    assert abs(blame_from_agreement(0.478) - 0.522) <= 1e-12
    assert abs(blame_from_f1_drop(0.831, 0.896) - 0.065) <= 1e-12
    _report(1, "published-number conversions", started)


def test_criterion_2_scm_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20240824)
    for _ in range(500):
        scm = random_scm(rng)
        phi = random_outcome(rng, scm)
        assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12
    xor = xor_scm()
    exact = event_probability(xor, Y1)
    for seed in range(10):
        est = event_probability_mc(xor, Y1, samples=100_000, seed=seed)
        assert abs(est - exact) <= 0.01
    assert time.monotonic() - started < 60
    _report(2, "exact enumeration vs oracle + MC convergence", started)


def test_criterion_3_counterfactual_laws():
    started = time.monotonic()
    rng = random.Random(99)
    for _ in range(25):
        scm = random_scm(rng)
        phi = random_outcome(rng, scm)
        collapsed = counterfactual_probability(scm, {}, [], phi)
        assert abs(collapsed - event_probability(scm, phi)) <= 1e-12
    xor = xor_scm()
    assert counterfactual_probability(xor, {"X": "1", "Y": "0"}, [("X", "0")], Y1) == 1.0
    impossible = xor_scm(p_e1=0.0)
    with pytest.raises(ZeroProbabilityObservation):
        counterfactual_probability(impossible, {"X": "1"}, [], Y1)
    assert time.monotonic() - started < 5
    _report(3, "counterfactual law suite", started)


def test_criterion_4_blame_laws():
    started = time.monotonic()
    rng = random.Random(4242)
    cost = cost_model(((("V0", "1"),), 2.0))
    for i in range(500):
        scm = random_scm(rng)
        m_a = apply_action(scm, random_action(rng, scm), "a")
        m_aprime = apply_action(scm, random_action(rng, scm), "a_prime")
        phi = random_outcome(rng, scm)
        d_fwd = unit_delta(m_a, m_aprime, phi)
        d_rev = unit_delta(m_aprime, m_a, phi)
        assert 0.0 <= d_fwd <= 1.0
        assert unit_delta(m_a, m_a, phi) == 0.0
        assert not (d_fwd > 1e-12 and d_rev > 1e-12)
        rep_unit = discounted_blame(m_a, m_aprime, phi, cost, DiscountSpec("unit"))
        assert rep_unit.db == rep_unit.delta
        rep_ratio = discounted_blame(m_a, m_aprime, phi, cost, DiscountSpec("cost_ratio"))
        assert 0.0 < rep_ratio.gamma <= 1.0
        assert rep_ratio.db <= rep_ratio.delta + 1e-15
    assert time.monotonic() - started < 60
    _report(4, "blame laws on random instances", started)


def test_criterion_5_partition_law():
    started = time.monotonic()
    for seed in range(100):
        ai_acc = 0.55 + 0.4 * (seed % 7) / 6
        human_acc = 0.6 + 0.35 * (seed % 5) / 4
        cases = gen_synthetic(
            seed=seed, n_cases=200, ai_accuracy=ai_acc, human_accuracy=human_acc
        )
        decisions = run(CaseLog.from_cases(cases), POLICY)
        attribution = annotate(decisions)
        summary = summarize(attribution)
        counts = recount_log(cases, POLICY.l, POLICY.u)
        n_hitl_errors = int(decisions.error.sum())
        assert (
            summary["avoidable"]
            + summary["inevitable_flagged"]
            + summary["inevitable_unflagged"]
            == n_hitl_errors
        )
        assert counts["flagged_avoidable"] == 0
        flagged = {cid for cid, f in zip(decisions.log.ids, decisions.flagged) if f}
        assert not any(
            case_id in flagged
            for case_id, c in zip(attribution.case_ids, attribution.classes)
            if CLASSES[c] is OutcomeClass.AVOIDABLE
        )
        assert summary["avoidable"] == counts["avoidable"]
        assert summary["inevitable_flagged"] == counts["inevitable_flagged"]
        assert summary["inevitable_unflagged"] == counts["inevitable_unflagged"]
    assert time.monotonic() - started < 30
    _report(5, "partition law on 100 seeded logs", started)


def test_criterion_6_dual_path_agreement():
    started = time.monotonic()
    saw_positive_delta = False
    for seed in range(20):
        ai_acc = 0.55 + 0.4 * (seed % 4) / 3
        human_acc = 0.7 + 0.25 * (seed % 3) / 2
        cases = gen_synthetic(
            seed=1000 + seed, n_cases=200, ai_accuracy=ai_acc, human_accuracy=human_acc
        )
        exact, empirical = exact_and_empirical_delta(cases, POLICY)
        assert abs(exact - empirical) <= 1e-12
        saw_positive_delta = saw_positive_delta or exact > 0
    assert saw_positive_delta, "all sampled logs had delta 0; comparison is vacuous"
    # Extra cases: continuous confidences, thresholds off the 10-bin grid.
    off_grid = FlagPolicy(l=0.3, u=0.73)
    saw_positive_delta = False
    for seed in range(20):
        ai_acc = 0.55 + 0.4 * (seed % 4) / 3
        human_acc = 0.7 + 0.25 * (seed % 3) / 2
        cases = gen_synthetic(2000 + seed, 300, ai_acc, human_acc, "uniform")
        exact, empirical = exact_and_empirical_delta(cases, off_grid)
        assert abs(exact - empirical) <= 1e-12
        saw_positive_delta = saw_positive_delta or exact > 0
    assert saw_positive_delta, "all off-grid logs had delta 0; comparison is vacuous"
    assert time.monotonic() - started < 30
    _report(6, "empirical vs exact delta on 20 logs + 20 off-grid logs", started)


def test_criterion_7_qwk():
    started = time.monotonic()
    diag = OrdinalConfusion(k=3, counts=((3, 0, 0), (0, 4, 0), (0, 0, 5)))
    assert qwk(diag) == 1.0
    anti = OrdinalConfusion(k=2, counts=((0, 5), (5, 0)))
    assert abs(qwk(anti) - (-1.0)) <= 1e-12
    rng = random.Random(77)
    checked = 0
    while checked < 1000:
        k = rng.randint(2, 6)
        rows = [[rng.randint(0, 6) for _ in range(k)] for _ in range(k)]
        if sum(map(sum, rows)) == 0:
            continue
        counts = tuple(tuple(r) for r in rows)
        try:
            expected = brute_qwk(rows)
        except ZeroDivisionError:
            continue
        got = qwk(OrdinalConfusion(k=k, counts=counts))
        assert abs(got - expected) <= 1e-9
        reversed_counts = tuple(tuple(r[::-1]) for r in rows[::-1])
        assert abs(qwk(OrdinalConfusion(k=k, counts=reversed_counts)) - got) <= 1e-12
        checked += 1
    assert time.monotonic() - started < 10
    _report(7, "QWK oracle + invariances", started)


def test_criterion_8_f1():
    started = time.monotonic()
    rng = random.Random(88)
    for _ in range(1000):
        n = rng.randint(1, 60)
        preds = [rng.choice("pn") for _ in range(n)]
        trues = [rng.choice("pn") for _ in range(n)]
        got = precision_recall_f1(binary_counts(preds, trues, positive="p"))
        expected = brute_prf1(preds, trues, "p")
        assert all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))
    assert precision_recall_f1(BinaryCounts(tp=0, fp=5, fn=5, tn=0)) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(BinaryCounts(tp=0, fp=0, fn=0, tn=3)) == (0.0, 0.0, 0.0)
    assert time.monotonic() - started < 5
    _report(8, "F1 counting oracle + conventions", started)


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "blamescope", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    started = time.monotonic()
    log = tmp_path / "cases.csv"
    shutil.copy(bundled_path("cases_200.csv"), log)
    scm = tmp_path / "xor_blame.json"
    shutil.copy(bundled_path("xor_blame.json"), scm)

    hitl_runs = [
        _cli("hitl", "--cases", str(log), "--l", "0.2", "--u", "0.8",
             "--review-cost", "3.0", "--discount", "cost_ratio")
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in hitl_runs)
    assert hitl_runs[0].stdout == hitl_runs[1].stdout

    blame_runs = [
        _cli("blame", "--scm", str(scm), "--outcome", "y1",
             "--action", "auto", "--baseline", "manual", "--cost", "review_cost")
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in blame_runs)
    assert blame_runs[0].stdout == blame_runs[1].stdout
    assert json.loads(blame_runs[0].stdout)["blame"]["db"] == 0.05

    # Error fixture 1: configuration error (inverted thresholds) -> 2.
    r = _cli("hitl", "--cases", str(log), "--l", "0.8", "--u", "0.2")
    assert r.returncode == 2
    # Error fixture 2: data error (missing column) -> 3.
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("case_id,ai_confidence,ai_decision,human_decision\nc0,0.5,a,b\n")
    r = _cli("hitl", "--cases", str(bad_csv), "--l", "0.2", "--u", "0.8")
    assert r.returncode == 3
    # Error fixture 3: model error (cyclic SCM) -> 4.
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({
        "schema": "blamescope/scm/1",
        "exogenous": [{"id": "E", "values": ["0", "1"], "probs": [0.5, 0.5]}],
        "endogenous": [
            {"id": "X", "values": ["0", "1"], "parents": ["Y"],
             "table": {"0": "0", "1": "1"}},
            {"id": "Y", "values": ["0", "1"], "parents": ["X"],
             "table": {"0": "0", "1": "1"}},
        ],
    }))
    r = _cli("prob", "--scm", str(cyclic), "--outcome", "y1")
    assert r.returncode == 4
    assert time.monotonic() - started < 10
    _report(9, "CLI determinism + exit codes", started)
