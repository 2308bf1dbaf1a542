"""Human-in-the-loop decision pipeline over recorded case logs.

The AI decides autonomously when its confidence is outside the uncertainty
band [l, u]; inside the band the case is flagged and the logged human
decision is used instead. Deploying this pipeline is compared against the
human-only policy, both empirically over a log and exactly through a small
causal model built from the log's joint frequencies.

A log is held in columns (CaseLog) and decided once, as arrays, by `run`;
the blame, the attribution and the F1 metrics all read that one result.
A log is checked once, by the CaseLog constructor that the loader and
`CaseLog.from_cases` both call, so nothing that reads a log checks it again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .blame import BlameReport, DiscountSpec
from .errors import ConfigError, DataError, DuplicateCaseId, EmptyCaseList
from .record import Record, Value
from .scm import Domain, EndogenousVar, ExogenousVar, OutcomeSpec, Scm

# Outcome over the built model: final decision disagrees with the truth.
HITL_OUTCOME = OutcomeSpec(clauses=((("ERR", "eq", "1"),),))


class Case(NamedTuple):
    """One row of a case log. A row is checked where it enters a log, by
    `CaseLog`."""

    id: str
    ai_confidence: float
    ai_decision: str
    human_decision: str
    truth: str


class FlagPolicy(Value):
    __slots__ = _fields = ("l", "u")

    def __init__(self, l: float, u: float):
        if not (0.0 <= l < u <= 1.0):
            raise ConfigError(f"flag thresholds need 0 <= l < u <= 1, got l={l}, u={u}")
        self._init(l, u)


class CaseLog(Record):
    """A case log in columns, one entry per case in log order.

    Built from a list of ids, the confidences, a list of distinct labels
    in any order (as `encode_labels` gives them) and the three label
    columns as codes into it. Every log is checked here: an empty log, an
    empty id or label, a repeated id, a column unlike the ids in length, a
    code outside the labels and a confidence outside [0, 1] are refused.
    The log keeps the labels sorted, the codes mapped to them, and
    confidences as float64.
    """

    __slots__ = _fields = (
        "ids", "ai_confidence", "labels", "ai_decision", "human_decision", "truth"
    )

    def __init__(self, ids: list, ai_confidence, labels, ai_decision, human_decision, truth):
        n = len(ids)
        if not n:
            raise EmptyCaseList("case log is empty")
        if not all(ids):
            raise DataError("case log has an empty case id")
        dup = first_duplicate(ids)
        if dup is not None:
            raise DuplicateCaseId(f"duplicate case id {ids[dup]!r}")
        conf = np.asarray(ai_confidence, dtype=np.float64)
        codes = [np.asarray(column) for column in (ai_decision, human_decision, truth)]
        for name, column in zip(("ai_confidence", *self._fields[3:]), [conf, *codes]):
            if len(column) != n:
                raise DataError(f"{name}: {len(column)} entries for {n} case ids")
        if "" in labels:
            raise DataError("case log has an empty label")
        for name, column in zip(self._fields[3:], codes):
            low = column.min()
            code = low if low < 0 else column.max()
            if not 0 <= code < len(labels):
                raise DataError(f"{name}: label code {code} outside the {len(labels)} labels")
        ok = (0.0 <= conf) & (conf <= 1.0)  # NaN fails both
        if not ok.all():
            i = int(ok.argmin())
            raise ConfigError(f"case {ids[i]!r}: confidence {conf[i]} outside [0,1]")
        order = sorted(range(len(labels)), key=labels.__getitem__)
        remap = np.empty(len(labels), dtype=np.intp)
        remap[order] = np.arange(len(labels))
        self._init(ids, conf, tuple(labels[i] for i in order), *(remap[c] for c in codes))

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_cases(cls, cases) -> CaseLog:
        """Columns of a sequence of Case rows, with the labels coded by
        `encode_labels` as `io.load_cases` codes them."""
        codes = {}
        ai = encode_labels([c.ai_decision for c in cases], codes)
        human = encode_labels([c.human_decision for c in cases], codes)
        truth = encode_labels([c.truth for c in cases], codes)
        ids, conf = [c.id for c in cases], [c.ai_confidence for c in cases]
        return cls(ids, conf, list(codes), ai, human, truth)


def encode_labels(labels, codes: dict) -> np.ndarray:
    """The codes of a list of labels under `codes`, a dict from label to
    code that this call extends: each label not in it gets the next code.
    So list(codes) is every label seen so far, in the order of its code."""
    try:  # most often every label has its code already
        return np.fromiter(map(codes.__getitem__, labels), dtype=np.intp, count=len(labels))
    except KeyError:
        pass
    for label in sorted(set(labels).difference(codes)):
        codes[label] = len(codes)
    return np.fromiter(map(codes.__getitem__, labels), dtype=np.intp, count=len(labels))


def first_duplicate(ids) -> int | None:
    """Index of the first id that repeats an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for i, case_id in enumerate(ids):
        if case_id in seen:
            return i
        seen.add(case_id)


class Decisions(Record):
    """The pipeline run once over a whole log. Each array has one entry per
    case in log order: whether the case was flagged, the final decision (a
    code into log.labels), and whether the pipeline and the human alone
    got the case wrong."""

    __slots__ = _fields = ("log", "flagged", "final", "error", "human_error")

    def __init__(self, log: CaseLog, flagged, final, error, human_error):
        self._init(log, flagged, final, error, human_error)


def flag(policy: FlagPolicy, p):
    """Whether a confidence, or each of an array of them, falls in the
    closed uncertainty band [l, u]. A log's confidences are range-checked
    where the CaseLog is built."""
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
    # NaN fails too: an infinite or NaN cost would make the report non-finite.
    if not (0 <= ai_cost < math.inf and 0 <= review_cost < math.inf):
        raise ConfigError(
            f"decision costs must be finite and non-negative, got ai_cost={ai_cost}, "
            f"review_cost={review_cost}"
        )
    n = len(decisions.log)
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
    bit, human decision), each atom named by its index, as labels are free
    text; endogenous variables project it out, route the final decision by
    the flag, and mark the error. The model as built is the pipeline's
    M^a; the human-only comparison M^a' is
    `apply_action(scm, human_only_action(labels), "human_only")`.
    """
    atoms = sorted(joint_distribution)
    labels = tuple(label_domain)
    atom_ids = tuple(str(i) for i in range(len(atoms)))

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


def human_only_action(label_domain) -> dict:
    """Route the final decision straight to the human, ignoring the flag:
    the override {"Y": (("H",), table)} that `apply_action` reads."""
    return {"Y": (("H",), {(h,): h for h in label_domain})}
