"""File formats: SCM description JSON, case-log CSV, ratings CSV, and
canonical JSON report emission.

Reports are serialized with sorted keys and floats at 12 significant
digits so identical runs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from dataclasses import dataclass

from .blame import Action, CostModel, CostTerm, DiscountSpec, Override
from .errors import DataError, MalformedRow, SchemaViolation
from .hitl import Case
from .scm import Domain, EndogenousVar, ExogenousVar, OutcomeSpec, Scm, validate

SCM_SCHEMA = "blamescope/scm/1"
REPORT_SCHEMA = "blamescope/report/1"
ATTR_SCHEMA = "blamescope/attr/1"

CASE_COLUMNS = ["case_id", "ai_confidence", "ai_decision", "human_decision", "truth"]
RATING_COLUMNS = ["case_id", "rater_a", "rater_b"]


@dataclass
class ScmBundle:
    """A model file's contents: the model plus named outcomes, actions,
    cost models and the discount choice."""

    scm: Scm
    outcomes: dict
    actions: dict
    costs: dict
    discount: DiscountSpec | None


def _split_key(key: str, n_parents: int) -> tuple:
    if n_parents == 0:
        if key not in ("", "()"):
            raise SchemaViolation(f"parentless mechanism key must be empty, got {key!r}")
        return ()
    parts = key.split("|")
    if len(parts) != n_parents:
        raise SchemaViolation(
            f"mechanism key {key!r} has {len(parts)} parts for {n_parents} parents"
        )
    return tuple(parts)


def _parse_outcome(raw) -> OutcomeSpec:
    clauses = []
    for clause in raw:
        lits = []
        for lit in clause:
            if len(lit) != 3 or lit[1] not in ("eq", "neq"):
                raise SchemaViolation(f"bad outcome literal {lit!r}")
            lits.append((str(lit[0]), lit[1], str(lit[2])))
        clauses.append(tuple(lits))
    return OutcomeSpec(clauses=tuple(clauses))


def load_scm_bundle(path) -> ScmBundle:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"{path}: invalid JSON: {exc}") from None
    if doc.get("schema") != SCM_SCHEMA:
        raise SchemaViolation(f"{path}: expected schema {SCM_SCHEMA!r}, got {doc.get('schema')!r}")

    exogenous = []
    for raw in doc.get("exogenous", []):
        exogenous.append(
            ExogenousVar(
                id=str(raw["id"]),
                domain=Domain(values=tuple(str(v) for v in raw["values"])),
                dist=tuple(float(p) for p in raw["probs"]),
            )
        )
    endogenous = []
    for raw in doc.get("endogenous", []):
        parents = tuple(str(p) for p in raw.get("parents", []))
        table = {
            _split_key(key, len(parents)): str(value)
            for key, value in raw["table"].items()
        }
        endogenous.append(
            EndogenousVar(
                id=str(raw["id"]),
                domain=Domain(values=tuple(str(v) for v in raw["values"])),
                parents=parents,
                mechanism=table,
            )
        )
    scm = Scm(exogenous=tuple(exogenous), endogenous=tuple(endogenous))
    validate(scm)

    outcomes = {name: _parse_outcome(raw) for name, raw in doc.get("outcomes", {}).items()}

    actions = {}
    for name, raw_overrides in doc.get("actions", {}).items():
        overrides = []
        for raw in raw_overrides:
            parents = tuple(str(p) for p in raw.get("parents", []))
            table = {
                _split_key(key, len(parents)): str(value)
                for key, value in raw["table"].items()
            }
            overrides.append(Override(var=str(raw["var"]), parents=parents, table=table))
        actions[name] = Action(label=name, overrides=tuple(overrides))

    costs = {}
    for name, raw_terms in doc.get("costs", {}).items():
        terms = []
        for raw in raw_terms:
            cost = float(raw["cost"])
            if not 0 <= cost < math.inf:
                raise SchemaViolation(
                    f"cost model {name!r}: cost must be finite and >= 0, got {cost}"
                )
            where = tuple(sorted((str(k), str(v)) for k, v in raw.get("where", {}).items()))
            terms.append(CostTerm(where=where, cost=cost))
        costs[name] = CostModel(terms=tuple(terms))

    disc = None
    if "discount" in doc:
        raw = doc["discount"]
        if raw.get("kind") not in ("unit", "cost_ratio"):
            raise SchemaViolation(f"{path}: unknown discount kind {raw.get('kind')!r}")
        disc = DiscountSpec(kind=raw["kind"], epsilon=float(raw.get("epsilon", 1e-9)))

    return ScmBundle(scm=scm, outcomes=outcomes, actions=actions, costs=costs, discount=disc)


def load_cases(path):
    """Parse a case-log CSV; malformed rows are hard errors with line
    numbers."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedRow(f"{path}: empty file")
        missing = [c for c in CASE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
        cases = []
        for row in reader:
            line = reader.line_num
            if any(row.get(c) in (None, "") for c in CASE_COLUMNS):
                raise MalformedRow(f"{path}: line {line}: incomplete row")
            try:
                conf = float(row["ai_confidence"])
            except ValueError:
                raise MalformedRow(
                    f"{path}: line {line}: bad confidence {row['ai_confidence']!r}"
                ) from None
            if not 0.0 <= conf <= 1.0:
                raise MalformedRow(f"{path}: line {line}: confidence {conf} outside [0,1]")
            cases.append(
                Case(
                    id=row["case_id"],
                    ai_confidence=conf,
                    ai_decision=row["ai_decision"],
                    human_decision=row["human_decision"],
                    truth=row["truth"],
                )
            )
    return cases


def dump_cases(cases) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CASE_COLUMNS)
    for c in cases:
        writer.writerow([c.id, repr(c.ai_confidence), c.ai_decision, c.human_decision, c.truth])
    return buf.getvalue()


def load_ratings(path, k: int | None = None):
    """Parse a ratings CSV into (rater_a, rater_b) integer pairs."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedRow(f"{path}: empty file")
        missing = [c for c in RATING_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
        pairs = []
        for row in reader:
            line = reader.line_num
            try:
                pairs.append((int(row["rater_a"]), int(row["rater_b"])))
            except (TypeError, ValueError):
                raise MalformedRow(f"{path}: line {line}: non-integer rating") from None
    if not pairs:
        raise DataError(f"{path}: no rating rows")
    return pairs


def _canon(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format(obj, ".12g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 12-significant-digit floats."""
    out = []
    _canon(obj, out)
    out.append("\n")
    return "".join(out)
