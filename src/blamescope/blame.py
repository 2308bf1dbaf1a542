"""Blameworthiness of one policy choice against a reference.

An action replaces some mechanisms of a decision system: it is the map
{variable: (parent ids, table)} of the ones it overrides, `apply_action`
builds M^a from it, and the model loader builds each action's model once,
when it reads the file. A cost model is a tuple of (OutcomeSpec, value)
terms. Blame compares M^a with the baseline's M^a': delta is the clamped
increase in the probability of the undesired outcome, optionally
discounted by the ratio of expected decision costs. Each query reads the
model it is given, so `discounted_blame` builds no model.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigError, UnknownVariable
from .record import Value
from .scm import OutcomeSpec, Scm, _query, _rewire, event_probability


class DiscountSpec(Value):
    __slots__ = _fields = ("kind", "epsilon")

    def __init__(self, kind: str = "unit", epsilon: float = 1e-9):
        if kind not in ("unit", "cost_ratio"):
            raise ConfigError(f"unknown discount kind {kind!r}")
        # Written so that NaN fails too: it would pass through max/min as
        # gamma = 1.
        if not 0 < epsilon <= 1:
            raise ConfigError(f"discount epsilon must be in (0, 1], got {epsilon}")
        self._init(kind, epsilon)


class BlameReport(NamedTuple):
    p_a: float
    p_aprime: float
    delta: float
    cost_a: float
    cost_aprime: float
    gamma: float
    db: float
    method: str = "exact"
    flagged_fraction: float | None = None

    @classmethod
    def of(
        cls, p_a, p_aprime, cost_a, cost_aprime, spec, method="exact", flagged_fraction=None
    ) -> BlameReport:
        """The report for the outcome probabilities and expected costs under
        the action and the baseline: delta = max{0, p_a - p_aprime}, gamma =
        discount(spec, cost_a, cost_aprime) and db = gamma * delta. This is
        the only place blame is computed."""
        d = max(0.0, p_a - p_aprime)
        gamma = discount(spec, cost_a, cost_aprime)
        return cls(
            p_a, p_aprime, d, cost_a, cost_aprime, gamma, gamma * d, method, flagged_fraction
        )


def apply_action(scm: Scm, overrides: dict, name: str) -> Scm:
    """Build the modified system M^a: `overrides` maps each variable the
    action `name` replaces to its new (parent ids, table), as `_rewire`
    reads it, after checking that each id is endogenous. The input model
    is untouched."""
    known = {v.id for v in scm.endogenous}
    for var in overrides:
        if var not in known:
            raise UnknownVariable(f"action {name!r} overrides unknown variable {var!r}")
    return _rewire(scm, overrides)


def expected_cost(scm: Scm, cost: tuple) -> float:
    """Expected decision cost of the model it is given. `cost` is a tuple
    of (OutcomeSpec, value) terms, and a setting's cost is the sum, in term
    order, of the values of the terms whose event holds."""
    return _query(scm, cost, "cost term")[0]


def discount(spec: DiscountSpec, cost_a: float, cost_aprime: float) -> float:
    """Discount factor in (0, 1].

    unit: always 1. cost_ratio: cost_a / cost_aprime clamped to
    [epsilon, 1], with gamma = 1 when the reference cost is zero.
    """
    if spec.kind == "unit" or cost_aprime == 0:
        return 1.0
    return min(1.0, max(spec.epsilon, cost_a / cost_aprime))


def discounted_blame(
    m_a: Scm, m_aprime: Scm, phi: OutcomeSpec, cost: tuple, spec: DiscountSpec
) -> BlameReport:
    """Full report for the model under the action, M^a, against the model
    under the baseline, M^a': outcome probabilities, expected costs,
    discount and the discounted blame score. Each model is read for P(phi)
    and the expected cost."""
    return BlameReport.of(
        event_probability(m_a, phi),
        event_probability(m_aprime, phi),
        expected_cost(m_a, cost),
        expected_cost(m_aprime, cost),
        spec,
    )
