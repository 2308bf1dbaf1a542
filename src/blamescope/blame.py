"""Blameworthiness of one policy choice against a reference.

An action rewires part of a decision system; blame is the clamped increase
in the probability of the undesired outcome, optionally discounted by the
ratio of expected decision costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scm import (
    OutcomeSpec,
    Scm,
    _compile,
    _encode,
    _fsum,
    _grid,
    _holds,
    _rewire,
    _solve_codes,
    event_probability,
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
        if self.kind not in ("unit", "cost_ratio"):
            raise ConfigError(f"unknown discount kind {self.kind!r}")
        # Written so that NaN fails too: it would pass through max/min as
        # gamma = 1.
        if not 0 < self.epsilon <= 1:
            raise ConfigError(f"discount epsilon must be in (0, 1], got {self.epsilon}")


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
    return _rewire(
        scm,
        {ov.var: (ov.parents, ov.table) for ov in action.overrides},
        f"action {action.label!r} overrides unknown variable",
    )


def _probabilities(scm: Scm, a: Action, a_prime: Action, phi: OutcomeSpec) -> tuple:
    """(P(phi | M^a), P(phi | M^a'), delta), with delta clamped at 0."""
    p_a = event_probability(apply_action(scm, a), phi)
    p_ap = event_probability(apply_action(scm, a_prime), phi)
    return p_a, p_ap, max(0.0, p_a - p_ap)


def delta(scm: Scm, a: Action, a_prime: Action, phi: OutcomeSpec) -> float:
    """max{0, P(phi | M^a) - P(phi | M^a')} with exact probabilities."""
    return _probabilities(scm, a, a_prime, phi)[2]


def expected_cost(scm: Scm, action: Action, cost: CostModel) -> float:
    """Expected decision cost under the modified system. A setting's cost is
    the sum, in term order, of the terms whose `where` holds."""
    modified = apply_action(scm, action)
    tables, domains = _compile(modified)
    terms = [
        (_encode(domains, (tuple((v, "eq", x) for v, x in term.where),), "cost term"), term.cost)
        for term in cost.terms
    ]

    def weighted_costs():
        for codes, weights in _grid(modified):
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
    if spec.kind == "unit" or cost_aprime == 0:
        return 1.0
    return min(1.0, max(spec.epsilon, cost_a / cost_aprime))


def discounted_blame(
    scm: Scm,
    a: Action,
    a_prime: Action,
    phi: OutcomeSpec,
    cost: CostModel,
    spec: DiscountSpec,
) -> BlameReport:
    """Full report: outcome probabilities, expected costs, discount and the
    discounted blame score."""
    p_a, p_ap, d = _probabilities(scm, a, a_prime, phi)
    cost_a = expected_cost(scm, a, cost)
    cost_ap = expected_cost(scm, a_prime, cost)
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
