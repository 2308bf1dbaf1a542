"""Human-in-the-loop decision pipeline over recorded case logs.

The AI decides autonomously when its confidence is outside the uncertainty
band [l, u]; inside the band the case is flagged and the logged human
decision is used instead. Deploying this pipeline is compared against the
human-only policy, both empirically over a log and exactly through a small
causal model built from the log's joint frequencies.

A log is held in columns (CaseLog) and decided once, as arrays, by `run`;
the blame, the attribution and the F1 metrics all read that one result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blame import Action, BlameReport, DiscountSpec, Override
from .errors import ConfigError, DuplicateCaseId, EmptyCaseList
from .scm import Domain, EndogenousVar, ExogenousVar, OutcomeSpec, Scm

# Outcome over the built model: final decision disagrees with the truth.
HITL_OUTCOME = OutcomeSpec(clauses=((("ERR", "eq", "1"),),))


@dataclass(frozen=True)
class Case:
    """One row of a case log."""

    id: str
    ai_confidence: float
    ai_decision: str
    human_decision: str
    truth: str

    def __post_init__(self):
        if not 0.0 <= self.ai_confidence <= 1.0:
            raise ConfigError(
                f"case {self.id!r}: confidence {self.ai_confidence} outside [0,1]"
            )


@dataclass(frozen=True)
class FlagPolicy:
    l: float
    u: float

    def __post_init__(self):
        if not (0.0 <= self.l < self.u <= 1.0):
            raise ConfigError(f"flag thresholds need 0 <= l < u <= 1, got l={self.l}, u={self.u}")


@dataclass(frozen=True, eq=False)
class CaseLog:
    """A case log in columns, one entry per case in log order.

    The three label columns hold codes into `labels`, the sorted set of
    every label that appears in any of them.
    """

    ids: list
    ai_confidence: np.ndarray  # float64
    labels: tuple
    ai_decision: np.ndarray
    human_decision: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_columns(cls, ids, confidence, ai, human, truth) -> CaseLog:
        """Encode already checked columns: ids, confidences in [0, 1] and
        the three label columns as strings. Ids are not checked here."""
        labels = tuple(sorted(set(ai) | set(human) | set(truth)))
        code = {label: i for i, label in enumerate(labels)}.__getitem__
        n = len(ids)
        return cls(
            ids=list(ids),
            ai_confidence=np.asarray(confidence, dtype=np.float64),
            labels=labels,
            ai_decision=np.fromiter(map(code, ai), dtype=np.intp, count=n),
            human_decision=np.fromiter(map(code, human), dtype=np.intp, count=n),
            truth=np.fromiter(map(code, truth), dtype=np.intp, count=n),
        )

    @classmethod
    def from_cases(cls, cases) -> CaseLog:
        """Columns of a sequence of Case rows; a repeated id is an error."""
        ids = [c.id for c in cases]
        dup = first_duplicate(ids)
        if dup is not None:
            raise DuplicateCaseId(f"duplicate case id {ids[dup]!r}")
        return cls.from_columns(
            ids,
            [c.ai_confidence for c in cases],
            [c.ai_decision for c in cases],
            [c.human_decision for c in cases],
            [c.truth for c in cases],
        )


def first_duplicate(ids) -> int | None:
    """Index of the first id that repeats an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for i, case_id in enumerate(ids):
        if case_id in seen:
            return i
        seen.add(case_id)


@dataclass(frozen=True, eq=False)
class Decisions:
    """The pipeline run once over a whole log. Each array has one entry per
    case in log order: whether the case was flagged, the final decision (a
    code into log.labels), and whether the pipeline and the human alone
    got the case wrong."""

    log: CaseLog
    flagged: np.ndarray
    final: np.ndarray
    error: np.ndarray
    human_error: np.ndarray


def flag(policy: FlagPolicy, p):
    """Whether a confidence, or each of an array of them, falls in the
    closed uncertainty band [l, u]. Confidences are range-checked where a
    Case or a CaseLog is built."""
    return (policy.l <= p) & (p <= policy.u)


def run(log: CaseLog, policy: FlagPolicy) -> Decisions:
    """Decide every case of the log: the human's decision where it is
    flagged, the AI's elsewhere."""
    flagged = flag(policy, log.ai_confidence)
    final = np.where(flagged, log.human_decision, log.ai_decision)
    return Decisions(
        log=log,
        flagged=flagged,
        final=final,
        error=final != log.truth,
        human_error=log.human_decision != log.truth,
    )


def hitl_blame(
    decisions: Decisions, ai_cost: float, review_cost: float, discount: DiscountSpec
) -> BlameReport:
    """Empirical blame for deploying the HITL pipeline instead of the
    human-only policy, with the two-rate cost model: a flagged case costs
    review_cost, any other ai_cost."""
    if ai_cost < 0 or review_cost < 0:
        raise ConfigError("decision costs must be non-negative")
    # A NaN passes the check above; an infinite or NaN cost would make
    # the report's costs and discount non-finite.
    if not math.isfinite(ai_cost + review_cost):
        raise ConfigError(
            f"decision costs must be finite, got ai_cost={ai_cost}, "
            f"review_cost={review_cost}"
        )
    n = len(decisions.log)
    if not n:
        raise EmptyCaseList("case log is empty")
    frac = int(np.count_nonzero(decisions.flagged)) / n
    return BlameReport.of(
        int(np.count_nonzero(decisions.error)) / n,
        int(np.count_nonzero(decisions.human_error)) / n,
        review_cost * frac + ai_cost * (1.0 - frac),
        review_cost,
        discount,
        method="empirical",
        flagged_fraction=frac,
    )


def empirical_joint(decisions: Decisions):
    """Frequency joint over (truth, ai_decision, flag bit, human_decision)
    of a decided log; returns (label_domain, joint). The flag bit is the
    one `run` took from the raw confidence, so the joint holds for any
    thresholds."""
    log = decisions.log
    n = len(log)
    if not n:
        raise EmptyCaseList("case log is empty")
    columns = np.stack(
        [log.truth, log.ai_decision, decisions.flagged, log.human_decision], axis=1
    )
    atoms, counts = np.unique(columns, axis=0, return_counts=True)
    labels = log.labels
    joint = {
        (labels[t], labels[a], f, labels[h]): count / n
        for (t, a, f, h), count in zip(atoms.tolist(), counts.tolist())
    }
    return list(labels), joint


def build_hitl_scm(label_domain, joint_distribution: dict) -> Scm:
    """Discrete causal model of the pipeline.

    One exogenous variable carries the joint over (truth, ai decision, flag
    bit, human decision); endogenous variables project it out, route the
    final decision by the flag, and mark the error. The pipeline as built
    is the identity action Action("hitl"); the human-only comparison is
    the action returned by human_only_action.
    """
    atoms = sorted(joint_distribution)
    labels = tuple(label_domain)
    atom_ids = tuple("|".join((t, a, str(f), h)) for t, a, f, h in atoms)

    exo = ExogenousVar(
        id="U",
        domain=Domain(values=atom_ids),
        dist=tuple(joint_distribution[atom] for atom in atoms),
    )

    def project(pos):
        return {(_id,): str(atom[pos]) for _id, atom in zip(atom_ids, atoms)}

    label_dom = Domain(values=labels)
    endogenous = [
        EndogenousVar("TRUTH", label_dom, ("U",), project(0)),
        EndogenousVar("AI", label_dom, ("U",), project(1)),
        EndogenousVar("PSI", Domain(values=("0", "1")), ("U",), project(2)),
        EndogenousVar("H", label_dom, ("U",), project(3)),
        EndogenousVar(
            "Y",
            label_dom,
            ("PSI", "AI", "H"),
            {
                (psi, a, h): h if psi == "1" else a
                for psi in ("0", "1")
                for a in labels
                for h in labels
            },
        ),
        EndogenousVar(
            "ERR",
            Domain(values=("0", "1")),
            ("Y", "TRUTH"),
            {(y, t): "1" if y != t else "0" for y in labels for t in labels},
        ),
    ]
    return Scm(exogenous=(exo,), endogenous=tuple(endogenous))


def human_only_action(label_domain) -> Action:
    """Route the final decision straight to the human, ignoring the flag."""
    labels = tuple(label_domain)
    return Action(
        label="human_only",
        overrides=(
            Override(var="Y", parents=("H",), table={(h,): h for h in labels}),
        ),
    )
