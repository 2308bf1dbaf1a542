"""Blameworthiness of one policy choice against a reference.

An action rewires part of a decision system; blame is the clamped increase
in the probability of the undesired outcome, optionally discounted by the
ratio of expected decision costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnknownVariable
from .scm import (
    DEFAULT_MAX_STATES,
    EndogenousVar,
    OutcomeSpec,
    Scm,
    _compile,
    _encode,
    _fsum,
    _grid,
    _holds,
    _solve_codes,
    event_probability,
    validate,
)


@dataclass(frozen=True)
class Override:
    """Replacement mechanism for one endogenous variable."""

    var: str
    parents: tuple
    table: dict  # parent-value tuple -> value

    def __hash__(self):
        return hash((self.var, self.parents))


@dataclass(frozen=True)
class Action:
    label: str
    overrides: tuple = ()


@dataclass(frozen=True)
class CostTerm:
    where: tuple  # conjunction of (var, value) pairs; empty matches everything
    cost: float


@dataclass(frozen=True)
class CostModel:
    terms: tuple = ()


@dataclass(frozen=True)
class DiscountSpec:
    kind: str = "unit"  # "unit" or "cost_ratio"
    epsilon: float = 1e-9

    def __post_init__(self):
        # A NaN epsilon would pass through max/min as gamma = 1.
        if not math.isfinite(self.epsilon):
            raise ConfigError(f"discount epsilon must be finite, got {self.epsilon}")


@dataclass
class BlameReport:
    p_a: float
    p_aprime: float
    delta: float
    cost_a: float
    cost_aprime: float
    gamma: float
    db: float
    method: str = "exact"
    flagged_fraction: float | None = None


def apply_action(scm: Scm, action: Action) -> Scm:
    """Build the modified system: replace each overridden variable's
    mechanism and parent list. The input model is untouched."""
    endo = scm.endogenous_by_id()
    for ov in action.overrides:
        if ov.var not in endo:
            raise UnknownVariable(f"action {action.label!r} overrides unknown variable {ov.var!r}")
    replaced = {
        ov.var: EndogenousVar(
            id=ov.var,
            domain=endo[ov.var].domain,
            parents=tuple(ov.parents),
            mechanism=dict(ov.table),
        )
        for ov in action.overrides
    }
    new_endo = tuple(replaced.get(v.id, v) for v in scm.endogenous)
    out = Scm(exogenous=scm.exogenous, endogenous=new_endo)
    validate(out)
    return out


def delta(
    scm: Scm,
    a: Action,
    a_prime: Action,
    phi: OutcomeSpec,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """max{0, P(phi | M^a) - P(phi | M^a')} with exact probabilities."""
    p_a = event_probability(apply_action(scm, a), phi, max_states=max_states)
    p_ap = event_probability(apply_action(scm, a_prime), phi, max_states=max_states)
    return max(0.0, p_a - p_ap)


def expected_cost(
    scm: Scm, action: Action, cost: CostModel, max_states: int = DEFAULT_MAX_STATES
) -> float:
    """Expected decision cost under the modified system. A setting's cost is
    the sum, in term order, of the terms whose `where` holds."""
    modified = apply_action(scm, action)
    tables, domains = _compile(modified)
    terms = [
        (_encode(domains, (tuple((v, "eq", x) for v, x in term.where),), "cost term"), term.cost)
        for term in cost.terms
    ]

    def weighted_costs():
        for codes, weights in _grid(modified, max_states):
            endo = _solve_codes(tables, codes)
            per_state = np.zeros(weights.shape)
            for where, value in terms:
                per_state[_holds(where, endo, weights.shape)] += value
            yield weights * per_state

    return _fsum(weighted_costs())


def discount(spec: DiscountSpec, cost_a: float, cost_aprime: float) -> float:
    """Discount factor in (0, 1].

    unit: always 1. cost_ratio: cost_a / cost_aprime clamped to
    [epsilon, 1], with gamma = 1 when the reference cost is zero.
    """
    if spec.kind == "unit":
        return 1.0
    if spec.kind == "cost_ratio":
        if cost_aprime == 0:
            return 1.0
        ratio = cost_a / cost_aprime
        return min(1.0, max(spec.epsilon, ratio))
    raise ValueError(f"unknown discount kind {spec.kind!r}")


def discounted_blame(
    scm: Scm,
    a: Action,
    a_prime: Action,
    phi: OutcomeSpec,
    cost: CostModel,
    spec: DiscountSpec,
    max_states: int = DEFAULT_MAX_STATES,
) -> BlameReport:
    """Full report: outcome probabilities, expected costs, discount and the
    discounted blame score."""
    p_a = event_probability(apply_action(scm, a), phi, max_states=max_states)
    p_ap = event_probability(apply_action(scm, a_prime), phi, max_states=max_states)
    d = max(0.0, p_a - p_ap)
    cost_a = expected_cost(scm, a, cost, max_states=max_states)
    cost_ap = expected_cost(scm, a_prime, cost, max_states=max_states)
    gamma = discount(spec, cost_a, cost_ap)
    return BlameReport(
        p_a=p_a,
        p_aprime=p_ap,
        delta=d,
        cost_a=cost_a,
        cost_aprime=cost_ap,
        gamma=gamma,
        db=gamma * d,
    )
