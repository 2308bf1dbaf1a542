"""Per-case outcome classification and responsible-party attribution.

Each error under the pipeline is classified by the human-only counterfactual:
if the logged human decision is also wrong the error was inevitable (split by
whether it was flagged), otherwise it was avoidable. Parties are then read
off a fixed attribution table. This module also lays out the report's
attribution section: `per_case` writes the per-error records and
`summarize` the counts.
"""

from __future__ import annotations

from enum import Enum
from json.encoder import encode_basestring

import numpy as np

from .hitl import Decisions
from .io import JsonText
from .record import Record


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


class Attribution(Record):
    """The errors of one decided log, in log order: each error's case id
    and its outcome class (a code into CLASSES), and the cases in the log."""

    __slots__ = _fields = ("case_ids", "classes", "total_cases")

    def __init__(self, case_ids: list, classes, total_cases: int):
        self._init(case_ids, classes, total_cases)

    def __len__(self) -> int:
        return len(self.case_ids)


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
        case_ids=[ids[i] for i in rows.tolist()],
        classes=classes,
        total_cases=len(decisions.log),
    )


def per_case(attribution: Attribution) -> JsonText:
    """The per-case records {"class", "id", "parties"}, one per error in
    log order, as canonical JSON text built in one join. Keys sort as
    class, id, parties, so a record is its class's text before the id,
    the id, and its class's text after it."""
    ends = []
    for cls in CLASSES:
        parties = sorted(p.value for p in ATTRIBUTION_TABLE[cls])
        ends.append((
            f'{{"class":{encode_basestring(cls.value)},"id":',
            f',"parties":[{",".join(map(encode_basestring, parties))}]}}',
        ))
    return JsonText("[" + ",".join([
        ends[c][0] + encode_basestring(case_id) + ends[c][1]
        for case_id, c in zip(attribution.case_ids, attribution.classes.tolist())
    ]) + "]")


def summarize(attribution: Attribution) -> dict:
    """The report's attribution summary: the errors of each outcome class
    (keyed by its lower-case name) and of each party (keyed by its value),
    the errors in all and the cases in the log."""
    counts = np.bincount(attribution.classes, minlength=len(CLASSES)).tolist()
    return {
        **{cls.name.lower(): n for cls, n in zip(CLASSES, counts)},
        "party_counts": {
            p.value: sum(n for cls, n in zip(CLASSES, counts) if p in ATTRIBUTION_TABLE[cls])
            for p in Party
        },
        "total_errors": len(attribution),
        "total_cases": attribution.total_cases,
    }
