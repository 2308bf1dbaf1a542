"""File formats: SCM description JSON, case-log CSV, ratings CSV, and
canonical JSON report emission.

Every text file is read or written through `open_text`, which turns a
path that cannot be opened into a typed error. Case logs and ratings share
one reader, `_read_csv`, which splits the text in blocks of `_BLOCK`
characters, cut at line ends, and hands each block's columns to the
loader's `parse` before the next block is split, so the loader holds typed
columns, never every field string of the file at once. `parse` is the one
rule for a row: it types a block or refuses it, and a refused block is
halved until `parse` names the first bad row's fault. Bytes that are not
UTF-8 and CSV syntax errors anywhere in the file are reported before a bad
row, and every error names its line as csv.reader counts lines.

Reports are serialized with sorted keys and floats at 12 significant
digits so identical runs produce byte-identical output; a `JsonText` value
is text a caller has already put in that form, and is written as it is.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
import sys
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np

from .blame import DiscountSpec, apply_action
from .errors import (
    ConfigError,
    DataError,
    DuplicateCaseId,
    DuplicateVariable,
    EmptyCaseList,
    FileNotFound,
    IntegerTooLong,
    MalformedRow,
    NonFiniteNumber,
    SchemaViolation,
    UnreadableFile,
    UnwritableFile,
)
from .hitl import CaseLog, encode_labels, first_duplicate
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


class ScmBundle(NamedTuple):
    """A model file's contents: the model plus named outcomes, cost models
    (each a tuple of (OutcomeSpec, value) terms, the form `expected_cost`
    reads) and the discount choice, and each named action's model M^a,
    built and checked when the file is loaded."""

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
                raise SchemaViolation(f"{where}: bad outcome literal {lit!r}")
            lits.append((str(lit[0]), lit[1], str(lit[2])))
        clauses.append(tuple(lits))
    return OutcomeSpec(clauses=tuple(clauses))


def open_text(path, mode="r"):
    """Open a UTF-8 text file to read (mode "r") or write (mode "w"), with
    no newline translation. A byte-order mark at the start of a file read,
    as spreadsheet programs write one, is skipped, also after a seek to the
    start; a file written has none. A missing file, or a missing directory
    to write in, is a FileNotFound error; a path that exists but cannot be
    opened (a directory, no permission) is UnreadableFile, or
    UnwritableFile when writing."""
    encoding = "utf-8" if mode == "w" else "utf-8-sig"
    try:
        return open(path, mode, encoding=encoding, newline="")
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
    """Read and check a model file: the model itself, every outcome and
    cost term against the model's variables and domains, and every action,
    by building its model from the map {var: (parent ids, table)} of its
    overrides. An action that overrides one variable twice raises
    DuplicateVariable."""
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
        overrides, dup = {}, None
        for i, raw in enumerate(_get(raw_actions, name, f"{path}: actions", list)):
            where = f"{path}: action {name!r}[{i}]"
            var = str(_get(raw, "var", where))
            parents = tuple(str(p) for p in _get(raw, "parents", where, list, []))
            if var in overrides and dup is None:
                dup = var
            overrides[var] = (parents, _table(raw, len(parents), where))
        # Raised once every entry is parsed, so a malformed later entry is
        # reported first.
        if dup is not None:
            raise DuplicateVariable(f"action {name!r} overrides {dup!r} twice")
        actions[name] = apply_action(scm, overrides, name)

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
            event = OutcomeSpec.conjunction(sorted((str(k), str(v)) for k, v in raw_where.items()))
            _encode(scm, event, f"cost model {name!r}")
            terms.append((event, cost))
        costs[name] = tuple(terms)

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


# Characters of CSV text split at once: a block is the shortest run of
# whole lines this long, and the loader turns its fields into typed columns
# before the next block is split, so one block's field strings are alive at
# a time. The numpy line check costs a few calls per block, which larger
# blocks share out: on a 100k-case log (4.2 MB, 2-vCPU host), 2^18 loaded
# it 2-4% faster than 2^16 in medians of 60 alternating in-process loads
# (2^18 won 32 and 41 of them, with either size first), at a traced peak
# of 17.5 MB against 17.1 MB and a process peak RSS of 50.9 MB against
# 47.6 MB. 2^19 and 2^20 raised the traced peak to 20.9 and 27.8 MB.
_BLOCK = 1 << 18


class _NotPlain(Exception):
    r"""Raised at a block that splitting at "\n" and "," might read
    otherwise than csv.reader does."""


def _plain_blocks(text, start, commas):
    r"""Yield, for each block of whole lines of text[start:], the fields of
    its non-blank lines in one flat list, commas + 1 fields to a line.
    Raise _NotPlain at the first block with a non-blank line with another
    number of commas, or a line whose UTF-8 form is longer than the field
    limit.

    The lines are checked with numpy on the block's UTF-8 bytes. The field
    limit counts characters, and a line's UTF-8 form is never shorter than
    its characters, so a line over the limit is never split here; a line of
    multi-byte text within it may send its block to csv.reader, which reads
    it the same."""
    limit = csv.field_size_limit()
    while start < len(text):
        end = text.find("\n", start + _BLOCK - 1)
        end = len(text) if end < 0 else end + 1
        block = text[start:end]
        start = end
        data = np.frombuffer(block.encode(), dtype=np.uint8)
        # Each line ends at a "\n", or at the end of a last block without one.
        ends = np.flatnonzero(data == ord("\n"))
        if block[-1] != "\n":
            ends = np.append(ends, len(data))
        lengths = np.diff(ends, prepend=-1) - 1
        # Commas before each line's end, less those before the previous one's.
        line_commas = np.diff(np.searchsorted(np.flatnonzero(data == ord(",")), ends), prepend=0)
        del data
        if lengths.max() > limit or ((line_commas != commas) & (lengths > 0)).any():
            raise _NotPlain
        if not lengths.all():  # csv.reader skips blank lines
            block = "\n".join(filter(None, block.split("\n")))
        block = block.replace("\n", ",")
        fields = block.split(",")
        del block
        # Drops the empty field after a final "\n", or the one of "".split.
        del fields[np.count_nonzero(lengths) * (commas + 1) :]
        yield fields


def _plain(text):
    r"""(header, blocks) of CSV text that csv.reader would read as its lines
    split at "\n" and ",": text with no quote character, no NUL and no "\r"
    but in "\r\n", whose first line is not blank and not longer than the
    field limit. `blocks` is `_plain_blocks`, which checks the other lines
    as it reaches them. None for any other text."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\0" in text or "\r" in text:
        return None
    end = text.find("\n")
    header = text if end < 0 else text[:end]
    if not header or len(header) > csv.field_size_limit():
        return None
    return header.split(","), _plain_blocks(text, len(header) + 1, header.count(","))


def _positions(header, columns):
    """The position of each of `columns` in the header, the last for a
    repeated name as in csv.DictReader; None if one is missing."""
    position = {name: i for i, name in enumerate(header or ())}
    return [position[c] for c in columns] if all(c in position for c in columns) else None


def _bad_row(parse, values, lo, hi):
    """(i, error) for the first of rows lo to hi of a block's `values` that
    `parse` refuses alone, with the ValueError it raises; None if it takes
    them all. A refused range is halved, so the row is found in two `parse`
    calls a step, over about twice the block's rows in all."""
    try:
        parse(*(column[lo:hi] for column in values))
    except ValueError as error:
        if hi - lo == 1:
            return lo, error
        mid = (lo + hi) // 2
        return _bad_row(parse, values, lo, mid) or _bad_row(parse, values, mid, hi)
    return None


def _parse_blocks(blocks, positions, take, parse):
    """(results, refused): `parse`'s result for each block that has rows,
    and `_bad_row` of the first block it refuses, i counted from the file's
    first row, or None. Blocks after a refusal, or with no `positions`, are
    read but not parsed, so that the reader's own errors come first."""
    results, refused, done = [], None, 0
    for block in blocks:
        if block and positions is not None and refused is None:
            values = [take(block, i) for i in positions]
            del block  # free the rows before parse builds typed columns
            try:
                results.append(parse(*values))
            except ValueError:
                i, error = _bad_row(parse, values, 0, len(values[0]))
                refused = done + i, error
            done += len(values[0])
            del values
    return results, refused


def _read_csv(path, columns, parse) -> list:
    r"""Read a CSV file block by block: `parse(*values)` gets, for each block
    of non-blank rows after the header, the values of each of `columns` as
    a list of strings ("" where a row is too short), and returns them typed.
    It is the file's only row rule: it raises ValueError for a block when
    it would for one of the block's rows alone, with what is wrong with
    that row as the message. Returns the list of its results.

    This is the only code that reads a CSV file whole. Bytes that are not
    UTF-8 and CSV syntax errors are MalformedRow errors with the line
    number, as are an empty file and a header without one of the columns;
    then a refused block's first bad row (`_bad_row`) is one too. Text that
    `_plain` accepts is split at "\n" and "," one block at a time, in one
    `str.split` call once `_plain_blocks` has checked the block's lines. A
    file that is not UTF-8, text that `_plain` rejects, and a block that
    `_plain_blocks` rejects make the whole file be read again through
    csv.reader, as one block of all its rows, which gives the same values
    wherever both apply.
    """
    with open_text(path) as fh:
        try:
            plain = _plain(fh.read())
        except UnicodeDecodeError:
            plain = None
        if plain is not None:
            header, blocks = plain
            positions = _positions(header, columns)
            width = len(header)
            try:
                results, refused = _parse_blocks(
                    blocks, positions, lambda fields, i: fields[i::width], parse
                )
            except _NotPlain:
                plain = None
        if plain is None:
            # Read from the start, so that the first fault is reported where
            # csv.reader meets it: a bad byte, or a CSV syntax error in an
            # earlier chunk of the file.
            fh.seek(0)
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                positions = _positions(header, columns)
                results, refused = _parse_blocks(
                    # One block, made as the loop reaches it, so that the
                    # loop alone holds the rows.
                    map(list, [filter(None, reader)]),
                    positions,
                    lambda rows, i: [row[i] if i < len(row) else "" for row in rows],
                    parse,
                )
            except UnicodeDecodeError:
                raise MalformedRow(f"{path}: line {_undecodable_line(path)}: not UTF-8") from None
            except csv.Error as exc:
                raise MalformedRow(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise MalformedRow(f"{path}: empty file")
    if positions is None:
        missing = [c for c in columns if c not in header]
        raise MalformedRow(f"{path}: missing column(s) {', '.join(missing)}")
    if refused is not None:
        i, error = refused
        raise MalformedRow(f"{path}: line {_line(path, i)}: {error}")
    return results


def _line(path, i) -> int:
    """The line number, as csv.reader counts lines, of the i-th non-blank
    row after the header (from 0)."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        next(itertools.islice(filter(None, reader), i, None))
        return reader.line_num


def load_cases(path) -> CaseLog:
    """Parse a case-log CSV into columns. Short or incomplete rows, bad or
    out-of-range confidences, repeated ids and bytes that are not UTF-8
    are hard errors with line numbers; a header without rows is
    EmptyCaseList."""
    # Label codes in order of first appearance, over all three label
    # columns and every block. When `_read_csv` restarts on csv.reader, the
    # blocks it parsed before are rows of the log read as csv.reader reads
    # them, so every label in `codes` is in the log.
    codes = {}

    def parse(ids, conf_text, ai, human, truth):
        n = len(ids)
        try:
            conf = np.fromiter(map(float, conf_text), dtype=np.float64, count=n)
        except ValueError:  # an empty or a bad confidence, told apart below
            conf = None
        labels = encode_labels(ai + human + truth, codes)
        # `codes` keeps the labels of earlier blocks too, so an empty label
        # in it is looked for in these rows.
        empty = "" in ids or "" in codes and "" in ai + human + truth
        if empty or conf is None and "" in conf_text:
            raise ValueError("incomplete row")
        if conf is None:
            for text in conf_text:
                try:
                    float(text)
                except ValueError:
                    raise ValueError(f"bad confidence {text!r}") from None
        ok = (0.0 <= conf) & (conf <= 1.0)  # NaN fails both
        if not ok.all():
            raise ValueError(f"confidence {float(conf[ok.argmin()])} outside [0,1]")
        return ids, conf, labels[:n], labels[n : 2 * n], labels[2 * n :]

    blocks = _read_csv(path, CASE_COLUMNS, parse)
    if not blocks:
        raise EmptyCaseList(f"{path}: case log is empty")
    ids = []
    for block in blocks:
        ids.extend(block[0])
    conf, ai, human, truth = (np.concatenate([block[i] for block in blocks]) for i in range(1, 5))
    try:
        return CaseLog(ids, conf, list(codes), ai, human, truth)
    except DuplicateCaseId:
        dup = first_duplicate(ids)
        line = _line(path, dup)
        raise DuplicateCaseId(f"{path}: line {line}: duplicate case id {ids[dup]!r}") from None


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


def _ratings(_, rater_a, rater_b):
    try:
        pairs = list(zip(map(int, rater_a), map(int, rater_b)))
    except ValueError:
        raise ValueError("non-integer rating") from None
    low = min(map(min, pairs))
    if low < 1:
        raise ValueError(f"rating {low} below 1")
    return pairs


def load_ratings(path):
    """Parse a ratings CSV into (rater_a, rater_b) integer pairs. Short rows,
    non-integer ratings, ratings below 1, CSV syntax errors and bytes that
    are not UTF-8 are hard errors with line numbers."""
    blocks = _read_csv(path, RATING_COLUMNS, _ratings)
    pairs = [pair for block in blocks for pair in block]
    if not pairs:
        raise DataError(f"{path}: no rating rows")
    return pairs


class JsonText(str):
    """Text that is already canonical JSON: `canonical_dumps` writes it
    as it is, where any other string becomes a JSON string."""


def _canon(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        try:
            out.append(str(obj))
        except ValueError:  # past the digits Python writes an integer in
            raise IntegerTooLong(
                f"cannot write an integer of {obj.bit_length()} bits as JSON, past "
                f"Python's limit of {sys.get_int_max_str_digits()} decimal digits"
            ) from None
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteNumber(f"cannot write {obj} as JSON")
        out.append(format(obj, ".12g"))
    elif type(obj) is JsonText:
        out.append(obj)
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
    or infinite float raises NonFiniteNumber, as JSON has no such number,
    and an integer past the decimal digits Python writes raises
    IntegerTooLong."""
    out = []
    _canon(obj, out)
    out.append("\n")
    return "".join(out)
