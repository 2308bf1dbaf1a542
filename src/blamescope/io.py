"""File formats: SCM description JSON, case-log CSV, ratings CSV, and
canonical JSON report emission.

Every text file is read or written through `open_text`, which turns a
path that cannot be opened into a typed error. Case logs and ratings share
one reader, `_read_csv`: it alone turns bytes that are not UTF-8 and CSV
syntax errors into line-numbered MalformedRow errors and checks the
header. Each loader then checks whole columns, and only when a check fails
rescans the file with a per-row check (`_bad_row`) to name the first bad
row's line. Reports are serialized with sorted keys and floats at 12
significant digits so identical runs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring

import numpy as np

from .blame import Action, CostModel, CostTerm, DiscountSpec, Override
from .errors import (
    ConfigError,
    DataError,
    DuplicateCaseId,
    EmptyCaseList,
    FileNotFound,
    MalformedRow,
    NonFiniteNumber,
    SchemaViolation,
    UnreadableFile,
    UnwritableFile,
)
from .hitl import CaseLog, first_duplicate
from .scm import (
    Domain,
    EndogenousVar,
    ExogenousVar,
    OutcomeSpec,
    Scm,
    _encode,
)

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


def _parse_outcome(raw: list, where: str) -> OutcomeSpec:
    clauses = []
    for clause in raw:
        if not isinstance(clause, list):
            raise SchemaViolation(f"{where}: clause {clause!r} is not a list")
        lits = []
        for lit in clause:
            if not isinstance(lit, list) or len(lit) != 3 or lit[1] not in ("eq", "neq"):
                raise SchemaViolation(f"bad outcome literal {lit!r}")
            lits.append((str(lit[0]), lit[1], str(lit[2])))
        clauses.append(tuple(lits))
    return OutcomeSpec(clauses=tuple(clauses))


def open_text(path, mode="r"):
    """Open a UTF-8 text file to read (mode "r") or write (mode "w"), with
    no newline translation. A missing file, or a missing directory to write
    in, is a FileNotFound error; a path that exists but cannot be opened (a
    directory, no permission) is UnreadableFile, or UnwritableFile when
    writing."""
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise FileNotFound(exc.errno, exc.strerror, exc.filename) from None
    except OSError as exc:
        error = UnwritableFile if mode == "w" else UnreadableFile
        raise error(f"{path}: {exc.strerror or exc}") from None


def _undecodable_line(path) -> int:
    """Line number, counted as csv.reader counts lines, of the first byte
    of the file that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    # Lines end at \n, \r or \r\n, as in a file opened with newline="";
    # the appended character makes the line the bad byte starts count too.
    return sum(1 for _ in _io.StringIO(data.decode("utf-8") + "x", newline=""))


_REQUIRED = object()


def _get(raw, key: str, where: str, kind=object, default=_REQUIRED):
    """raw[key] of a JSON object, of the given type; `default` when the key
    is absent, which is an error if no default is given."""
    if not isinstance(raw, dict):
        raise SchemaViolation(f"{where}: expected an object, got {type(raw).__name__}")
    if key not in raw:
        if default is not _REQUIRED:
            return default
        raise SchemaViolation(f"{where}: missing {key!r}")
    if not isinstance(raw[key], kind):
        raise SchemaViolation(f"{where}: {key!r} has the wrong type {type(raw[key]).__name__}")
    return raw[key]


def _number(value, where: str) -> float:
    """A JSON number as a float. Booleans and strings are not numbers, even
    where float() would take them."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past float range
            pass
    raise SchemaViolation(f"{where}: not a number: {value!r}")


def _table(raw, n_parents: int, where: str) -> dict:
    return {
        _split_key(key, n_parents): str(value)
        for key, value in _get(raw, "table", where, dict).items()
    }


def load_scm_bundle(path) -> ScmBundle:
    """Read and check a model file: the model itself, and every outcome
    and cost term against the model's variables and domains."""
    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except UnicodeDecodeError:  # a ValueError too, so caught first
        raise SchemaViolation(f"{path}: line {_undecodable_line(path)}: not UTF-8") from None
    # JSONDecodeError, an integer literal over 4300 digits, or nesting past
    # the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise SchemaViolation(f"{path}: invalid JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCM_SCHEMA:
        raise SchemaViolation(f"{path}: expected schema {SCM_SCHEMA!r}, got {schema!r}")

    exogenous = []
    for i, raw in enumerate(_get(doc, "exogenous", path, list, [])):
        where = f"{path}: exogenous[{i}]"
        exogenous.append(
            ExogenousVar(
                id=str(_get(raw, "id", where)),
                domain=Domain(values=tuple(str(v) for v in _get(raw, "values", where, list))),
                dist=tuple(_number(p, where) for p in _get(raw, "probs", where, list)),
            )
        )
    endogenous = []
    for i, raw in enumerate(_get(doc, "endogenous", path, list, [])):
        where = f"{path}: endogenous[{i}]"
        vid = str(_get(raw, "id", where))
        parents = tuple(str(p) for p in _get(raw, "parents", where, list, []))
        endogenous.append(
            EndogenousVar(
                id=vid,
                domain=Domain(values=tuple(str(v) for v in _get(raw, "values", where, list))),
                parents=parents,
                mechanism=_table(raw, len(parents), where),
            )
        )
    scm = Scm(exogenous=tuple(exogenous), endogenous=tuple(endogenous))

    outcomes = {}
    raw_outcomes = _get(doc, "outcomes", path, dict, {})
    for name in raw_outcomes:
        raw = _get(raw_outcomes, name, f"{path}: outcomes", list)
        outcomes[name] = _parse_outcome(raw, f"{path}: outcome {name!r}")
        _encode(scm, outcomes[name], f"outcome {name!r}")

    actions = {}
    raw_actions = _get(doc, "actions", path, dict, {})
    for name in raw_actions:
        overrides = []
        for i, raw in enumerate(_get(raw_actions, name, f"{path}: actions", list)):
            where = f"{path}: action {name!r}[{i}]"
            var = str(_get(raw, "var", where))
            parents = tuple(str(p) for p in _get(raw, "parents", where, list, []))
            overrides.append(
                Override(
                    var=var,
                    parents=parents,
                    table=_table(raw, len(parents), where),
                )
            )
        actions[name] = Action(label=name, overrides=tuple(overrides))

    costs = {}
    raw_costs = _get(doc, "costs", path, dict, {})
    for name in raw_costs:
        terms = []
        for i, raw in enumerate(_get(raw_costs, name, f"{path}: costs", list)):
            where = f"{path}: cost model {name!r}[{i}]"
            cost = _number(_get(raw, "cost", where), where)
            if not 0 <= cost < math.inf:
                raise SchemaViolation(
                    f"cost model {name!r}: cost must be finite and >= 0, got {cost}"
                )
            raw_where = _get(raw, "where", where, dict, {})
            term = CostTerm(
                where=tuple(sorted((str(k), str(v)) for k, v in raw_where.items())),
                cost=cost,
            )
            _encode(scm, OutcomeSpec.conjunction(term.where), f"cost model {name!r}")
            terms.append(term)
        costs[name] = CostModel(terms=tuple(terms))

    disc = None
    raw_discount = _get(doc, "discount", path, dict, None)
    if raw_discount is not None:
        where = f"{path}: discount"
        try:
            disc = DiscountSpec(
                kind=_get(raw_discount, "kind", where),
                epsilon=_number(_get(raw_discount, "epsilon", where, default=1e-9), where),
            )
        except ConfigError as exc:
            raise SchemaViolation(f"{where}: {exc}") from None

    return ScmBundle(scm=scm, outcomes=outcomes, actions=actions, costs=costs, discount=disc)


def _read_csv(path, columns):
    """The rows after the header of a CSV file, blank lines skipped, and
    the position of each of `columns` in the header. This is the only code
    that reads a CSV file whole: bytes that are not UTF-8 and CSV syntax
    errors are MalformedRow errors with the line number, as are an empty
    file and a header without one of the columns."""
    try:
        with open_text(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(filter(None, reader))
    except UnicodeDecodeError:
        raise MalformedRow(f"{path}: line {_undecodable_line(path)}: not UTF-8") from None
    except csv.Error as exc:
        raise MalformedRow(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise MalformedRow(f"{path}: empty file")
    # A repeated column name means its last occurrence, as in csv.DictReader.
    position = {name: i for i, name in enumerate(header)}
    missing = [c for c in columns if c not in position]
    if missing:
        raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
    return rows, [position[c] for c in columns]


def _numbered_rows(path):
    """Yield (line number, row) for each non-blank row after the header,
    with the line number as csv.reader counts it."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                yield reader.line_num, row


def _bad_row(path, positions, problem) -> MalformedRow:
    """The error for the first row whose fields at `positions` (empty when
    the row is short) fail `problem`, which returns what is wrong or None.
    Called only after a check over whole columns has failed, to find the
    row's line."""
    for line, row in _numbered_rows(path):
        message = problem([row[i] if i < len(row) else "" for i in positions])
        if message:
            return MalformedRow(f"{path}: line {line}: {message}")
    raise AssertionError(f"{path}: no row fails the checks")


def _case_problem(fields):
    if "" in fields:
        return "incomplete row"
    conf_text = fields[CASE_COLUMNS.index("ai_confidence")]
    try:
        conf = float(conf_text)
    except ValueError:
        return f"bad confidence {conf_text!r}"
    if not 0.0 <= conf <= 1.0:
        return f"confidence {conf} outside [0,1]"
    return None


def load_cases(path) -> CaseLog:
    """Parse a case-log CSV into columns. Short or incomplete rows, bad or
    out-of-range confidences, repeated ids and bytes that are not UTF-8
    are hard errors with line numbers; a header without rows is
    EmptyCaseList."""
    rows, positions = _read_csv(path, CASE_COLUMNS)
    if not rows:
        raise EmptyCaseList(f"{path}: case log is empty")
    # Checks over whole columns; a row that fails one is found by a rescan.
    try:
        ids, conf_text, ai, human, truth = ([row[i] for row in rows] for i in positions)
        del rows
        conf = np.fromiter(map(float, conf_text), dtype=np.float64, count=len(ids))
    except (IndexError, ValueError):  # a short row, or a bad confidence
        raise _bad_row(path, positions, _case_problem) from None
    in_range = ((0.0 <= conf) & (conf <= 1.0)).all()  # NaN fails too
    if not in_range or any("" in col for col in (ids, ai, human, truth)):
        raise _bad_row(path, positions, _case_problem)
    dup = first_duplicate(ids)
    if dup is not None:
        line = next(itertools.islice(_numbered_rows(path), dup, None))[0]
        raise DuplicateCaseId(f"{path}: line {line}: duplicate case id {ids[dup]!r}")
    return CaseLog.from_columns(ids, conf, ai, human, truth)


def dump_cases(cases) -> str:
    """A case log as CSV text that load_cases reads back."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # With a "\n" terminator csv quotes only fields holding "\n", so a row
    # with a bare "\r" is written fully quoted, or a reader would split it.
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CASE_COLUMNS)
    for c in cases:
        row = [c.id, repr(c.ai_confidence), c.ai_decision, c.human_decision, c.truth]
        (quoted if any("\r" in field for field in row) else writer).writerow(row)
    return buf.getvalue()


def _rating_problem(fields):
    try:
        low = min(map(int, fields))
    except ValueError:
        return "non-integer rating"
    return f"rating {low} below 1" if low < 1 else None


def load_ratings(path):
    """Parse a ratings CSV into (rater_a, rater_b) integer pairs. Short rows,
    non-integer ratings, ratings below 1, CSV syntax errors and bytes that
    are not UTF-8 are hard errors with line numbers."""
    rows, (_, a, b) = _read_csv(path, RATING_COLUMNS)
    if not rows:
        raise DataError(f"{path}: no rating rows")
    try:
        pairs = [(int(row[a]), int(row[b])) for row in rows]
    except (IndexError, ValueError):  # a short row, or a non-integer rating
        raise _bad_row(path, (a, b), _rating_problem) from None
    if min(map(min, pairs)) < 1:
        raise _bad_row(path, (a, b), _rating_problem)
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
        if not math.isfinite(obj):
            raise NonFiniteNumber(f"cannot write {obj} as JSON")
        out.append(format(obj, ".12g"))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(encode_basestring(str(key)))
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
    """Deterministic JSON: sorted keys, 12-significant-digit floats. A NaN
    or infinite float raises NonFiniteNumber, as JSON has no such number."""
    out = []
    _canon(obj, out)
    out.append("\n")
    return "".join(out)
