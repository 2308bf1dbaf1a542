"""Per-case outcome classification and responsible-party attribution.

Each error under the pipeline is classified by the human-only counterfactual:
if the logged human decision is also wrong the error was inevitable (split by
whether it was flagged), otherwise it was avoidable. Parties are then read
off a fixed attribution table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hitl import Decisions


class OutcomeClass(Enum):
    AVOIDABLE = "Avoidable"
    INEVITABLE_FLAGGED = "InevitableFlagged"
    INEVITABLE_UNFLAGGED = "InevitableUnflagged"


# The codes in Attribution.classes index this tuple.
CLASSES = tuple(OutcomeClass)


class Party(Enum):
    HUMAN = "Human"
    AI = "AI"
    FLAG_DESIGNER = "FlagDesigner"


ATTRIBUTION_TABLE = {
    OutcomeClass.INEVITABLE_FLAGGED: frozenset({Party.HUMAN}),
    OutcomeClass.INEVITABLE_UNFLAGGED: frozenset({Party.AI, Party.FLAG_DESIGNER}),
    OutcomeClass.AVOIDABLE: frozenset({Party.AI, Party.FLAG_DESIGNER}),
}


@dataclass(frozen=True, eq=False)
class Attribution:
    """The errors of one decided log, in log order: each error's row in the
    log, its case id and its outcome class (a code into CLASSES)."""

    rows: np.ndarray
    case_ids: list
    classes: np.ndarray
    total_cases: int

    def __len__(self) -> int:
        return len(self.case_ids)


@dataclass(frozen=True)
class AttributionSummary:
    class_counts: dict  # OutcomeClass -> int
    party_counts: dict  # Party -> int
    total_errors: int
    total_cases: int


def attribute(outcome_class: OutcomeClass) -> frozenset:
    return ATTRIBUTION_TABLE[outcome_class]


def annotate(decisions: Decisions) -> Attribution:
    """Classify every error of a decided log.

    The human-only counterfactual is read from the logged human decision:
    the human's input is fixed per case, so the decision they would have
    made is the one on record.
    """
    rows = np.flatnonzero(decisions.error)
    flagged = decisions.flagged[rows]
    classes = np.where(
        decisions.human_error[rows],
        np.where(
            flagged,
            CLASSES.index(OutcomeClass.INEVITABLE_FLAGGED),
            CLASSES.index(OutcomeClass.INEVITABLE_UNFLAGGED),
        ),
        CLASSES.index(OutcomeClass.AVOIDABLE),
    )
    ids = decisions.log.ids
    return Attribution(
        rows=rows,
        case_ids=[ids[i] for i in rows.tolist()],
        classes=classes,
        total_cases=len(decisions.log),
    )


def summarize(attribution: Attribution) -> AttributionSummary:
    counts = np.bincount(attribution.classes, minlength=len(CLASSES)).tolist()
    class_counts = dict(zip(CLASSES, counts))
    return AttributionSummary(
        class_counts=class_counts,
        party_counts={
            p: sum(n for cls, n in class_counts.items() if p in attribute(cls)) for p in Party
        },
        total_errors=len(attribution),
        total_cases=attribution.total_cases,
    )
