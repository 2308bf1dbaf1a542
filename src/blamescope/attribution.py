"""Per-case outcome classification and responsible-party attribution.

Each error under the pipeline is classified by the human-only counterfactual:
if the logged human decision is also wrong the error was inevitable (split by
whether it was flagged), otherwise it was avoidable. Parties are then read
off a fixed attribution table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import TraceCaseMismatch
from .hitl import Case, Trace


class OutcomeClass(Enum):
    AVOIDABLE = "Avoidable"
    INEVITABLE_FLAGGED = "InevitableFlagged"
    INEVITABLE_UNFLAGGED = "InevitableUnflagged"


class Party(Enum):
    HUMAN = "Human"
    AI = "AI"
    FLAG_DESIGNER = "FlagDesigner"


ATTRIBUTION_TABLE = {
    OutcomeClass.INEVITABLE_FLAGGED: frozenset({Party.HUMAN}),
    OutcomeClass.INEVITABLE_UNFLAGGED: frozenset({Party.AI, Party.FLAG_DESIGNER}),
    OutcomeClass.AVOIDABLE: frozenset({Party.AI, Party.FLAG_DESIGNER}),
}


@dataclass(frozen=True)
class AttributionRecord:
    case_id: str
    outcome_class: OutcomeClass
    parties: frozenset


@dataclass(frozen=True)
class AttributionSummary:
    class_counts: dict  # OutcomeClass -> int
    party_counts: dict  # Party -> int
    total_errors: int
    total_cases: int


def classify(hitl_trace: Trace, case: Case) -> OutcomeClass | None:
    """Outcome class of one pipeline trace, or None when it is not an error.

    The human-only counterfactual is read from the logged human decision:
    the human's input is fixed per case, so the decision they would have
    made is the one on record.
    """
    if hitl_trace.case_id != case.id:
        raise TraceCaseMismatch(
            f"trace for {hitl_trace.case_id!r} paired with case {case.id!r}"
        )
    if hitl_trace.error == 0:
        return None
    human_errs = case.human_decision != case.truth
    if human_errs:
        return (
            OutcomeClass.INEVITABLE_FLAGGED
            if hitl_trace.flagged
            else OutcomeClass.INEVITABLE_UNFLAGGED
        )
    return OutcomeClass.AVOIDABLE


def attribute(outcome_class: OutcomeClass) -> frozenset:
    return ATTRIBUTION_TABLE[outcome_class]


def annotate(traces, cases):
    """Attribution records for every error trace, order preserving."""
    if len(traces) != len(cases):
        raise TraceCaseMismatch(f"{len(traces)} traces for {len(cases)} cases")
    records = []
    for trace, case in zip(traces, cases):
        cls = classify(trace, case)
        if cls is not None:
            records.append(
                AttributionRecord(case_id=case.id, outcome_class=cls, parties=attribute(cls))
            )
    return records


def summarize(records, total_cases: int) -> AttributionSummary:
    class_counts = Counter(r.outcome_class for r in records)
    party_counts = Counter(p for r in records for p in r.parties)
    return AttributionSummary(
        class_counts={cls: class_counts.get(cls, 0) for cls in OutcomeClass},
        party_counts={p: party_counts.get(p, 0) for p in Party},
        total_errors=len(records),
        total_cases=total_cases,
    )
