"""The package's immutable record classes: each refuses assignment, shows
its constructor's arguments and no derived field in `repr`, compares by its
fields (a value record) or by identity (a record that holds arrays), and
the model records survive copy and pickle. Importing the CLI does not load
`dataclasses`."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blamescope
from blamescope import attribution, hitl
from blamescope.blame import DiscountSpec
from blamescope.metrics import BinaryCounts, OrdinalConfusion
from blamescope.scm import (
    Domain,
    EndogenousVar,
    ExogenousVar,
    NoisePosterior,
    OutcomeSpec,
    Scm,
    validate,
)

SRC = Path(blamescope.__file__).resolve().parents[1]
BITS = ("0", "1")


def _scm():
    return Scm(
        (ExogenousVar("E", Domain(BITS), (0.25, 0.75)),),
        (EndogenousVar("X", Domain(BITS), ("E",), {("0",): "1", ("1",): "0"}),),
    )


def _log():
    return hitl.CaseLog(
        ["a", "b", "c"], [0.1, 0.5, 0.9], ["1", "0"],
        np.array([0, 1, 0]), np.array([1, 1, 0]), np.array([1, 0, 0]),
    )


def _decisions():
    return hitl.run(_log(), hitl.FlagPolicy(0.3, 0.7))


# Each class the package declares immutable, with a factory that builds a
# new instance from new arguments equal to those of the last call.
FROZEN = {
    Domain: lambda: Domain(("b", "a")),
    ExogenousVar: lambda: ExogenousVar("E", Domain(BITS), (0.5, 0.5)),
    EndogenousVar: lambda: EndogenousVar("X", Domain(BITS), ("E",), {("0",): "0", ("1",): "1"}),
    Scm: _scm,
    OutcomeSpec: lambda: OutcomeSpec(((("X", "eq", "1"), ("Y", "neq", "0")),)),
    NoisePosterior: lambda: NoisePosterior(((("0", "1"), 0.25), (("1", "1"), 0.75))),
    DiscountSpec: lambda: DiscountSpec("cost_ratio", 0.01),
    hitl.Case: lambda: hitl.Case("c1", 0.5, "0", "1", "0"),
    hitl.FlagPolicy: lambda: hitl.FlagPolicy(0.2, 0.8),
    hitl.CaseLog: _log,
    hitl.Decisions: _decisions,
    attribution.Attribution: lambda: attribution.annotate(_decisions()),
    OrdinalConfusion: lambda: OrdinalConfusion(2, [[3, 1], [0, 2]]),
    BinaryCounts: lambda: BinaryCounts(1, 2, 3, 4),
}
# Records that hold arrays are equal only to themselves.
BY_IDENTITY = {hitl.CaseLog, hitl.Decisions, attribution.Attribution, OrdinalConfusion}
# A mechanism is a dict, so neither it nor a model that holds one hashes.
UNHASHABLE = {EndogenousVar, Scm}
DERIVED = {Domain: ["codes"], Scm: ["tables"]}


def _fields(cls) -> list:
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_record_refuses_assignment(cls):
    record = FROZEN[cls]()
    for name in _fields(cls) + DERIVED.get(cls, []) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_record_equality(cls):
    a, b = FROZEN[cls](), FROZEN[cls]()
    assert a == a
    if cls in BY_IDENTITY:
        assert a != b and hash(a) != hash(b)
        return
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_repr_shows_the_arguments_only(cls):
    record = FROZEN[cls]()
    args = ", ".join(f"{name}={getattr(record, name)!r}" for name in _fields(cls))
    assert repr(record) == f"{cls.__name__}({args})"


@pytest.mark.parametrize("cls", [Scm, Domain, OutcomeSpec, DiscountSpec],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_model_records_survive_copy_and_pickle(cls, clone):
    record = FROZEN[cls]()
    twin = clone(record)
    assert twin == record and twin is not record
    if cls is Domain:
        assert twin.codes == record.codes == {"b": 0, "a": 1}
    if cls is Scm:
        assert validate(twin) == validate(record)
        for (vid, parents, lut), (vid2, parents2, lut2) in zip(twin.tables, record.tables):
            assert (vid, parents) == (vid2, parents2) and np.array_equal(lut, lut2)


def test_cli_import_leaves_dataclasses_out():
    """The record classes are written out, not generated, so importing the
    CLI in a fresh interpreter does not load `dataclasses`."""
    code = "import sys, blamescope.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
