import random

import pytest

from blamescope.blame import (
    BlameReport,
    DiscountSpec,
    apply_action,
    discount,
    discounted_blame,
    expected_cost,
)
from blamescope.errors import ConfigError, CyclicGraph, UnknownVariable
from blamescope.scm import OutcomeSpec, event_probability, solve

from conftest import cost_model, oracle_models, random_action, random_outcome, unit_delta
from oracles import brute_event_probability, brute_expected_cost

BITS = ("0", "1")
Y1 = OutcomeSpec(((("Y", "eq", "1"),),))

# Y := X xor E2 (same as the base model).
XOR_Y = {
    "Y": (("X", "E2"), {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"})
}
# Y := E2.
NOISE_Y = {"Y": (("E2",), {("0",): "0", ("1",): "1"})}
CONST_Y0 = {"Y": ((), {(): "0"})}


def test_apply_action_identity(xor):
    same = apply_action(xor, {}, "keep")
    for e1 in BITS:
        for e2 in BITS:
            e = {"E1": e1, "E2": e2}
            assert solve(same, e) == solve(xor, e)


def test_apply_action_forces_outcome(xor):
    assert event_probability(apply_action(xor, CONST_Y0, "y0"), Y1) == 0.0


def test_apply_action_cycle(xor):
    with pytest.raises(CyclicGraph):
        apply_action(xor, {"X": (("Y",), {("0",): "0", ("1",): "1"})}, "loop")


def test_apply_action_unknown_variable(xor):
    with pytest.raises(UnknownVariable, match="^action 'bad' overrides unknown variable 'Z'$"):
        apply_action(xor, {"Z": ((), {(): "0"})}, "bad")


def test_delta_self_comparison(xor):
    m_xor = apply_action(xor, XOR_Y, "xor")
    assert unit_delta(m_xor, m_xor, Y1) == 0.0


def test_delta_extremes(xor):
    force = apply_action(xor, {"Y": ((), {(): "1"})}, "y1")
    assert unit_delta(force, apply_action(xor, CONST_Y0, "y0"), Y1) == 1.0


def test_delta_xor_vs_noise(xor):
    # P(Y=1 | xor) = 0.5, P(Y=1 | noise only) = P(E2=1) = 0.3.
    m_xor, m_noise = apply_action(xor, XOR_Y, "xor"), apply_action(xor, NOISE_Y, "noise_only")
    assert unit_delta(m_xor, m_noise, Y1) == pytest.approx(0.2, abs=1e-12)
    assert unit_delta(m_noise, m_xor, Y1) == 0.0


def test_expected_cost_empty(xor):
    assert expected_cost(xor, ()) == 0.0


def test_expected_cost_constant(xor):
    cost = cost_model(((), 3.5))
    assert expected_cost(xor, cost) == pytest.approx(3.5, abs=1e-12)


def test_expected_cost_y1(xor):
    cost = cost_model(((("Y", "1"),), 2.0))
    assert expected_cost(apply_action(xor, XOR_Y, "xor"), cost) == pytest.approx(1.0, abs=1e-12)


def test_expected_cost_linear(xor):
    cost = cost_model(((("Y", "1"),), 2.0))
    scaled = cost_model(((("Y", "1"),), 6.0))
    model = apply_action(xor, XOR_Y, "xor")
    assert expected_cost(model, scaled) == pytest.approx(
        3 * expected_cost(model, cost), abs=1e-12
    )


def _random_cost(rng: random.Random, scm) -> tuple:
    """Three cost terms, each matching 0 to 2 random (variable, value) pairs."""
    terms = []
    for _ in range(3):
        matched = rng.sample(scm.endogenous, rng.randint(0, min(2, len(scm.endogenous))))
        where = tuple((v.id, rng.choice(v.domain.values)) for v in matched)
        terms.append((where, rng.choice((0.5, 2.0, 7.25))))
    return cost_model(*terms)


def test_expected_cost_matches_oracle():
    rng = random.Random(11)
    for scm in oracle_models(rng):
        model = apply_action(scm, random_action(rng, scm), "a")
        cost = _random_cost(rng, scm)
        assert abs(expected_cost(model, cost) - brute_expected_cost(model, cost)) <= 1e-12


def test_discounted_blame_matches_oracle():
    """Each of the four numbers comes from its own action's model: a swap of
    a and a' would show as soon as the two models differ."""
    rng = random.Random(23)
    spec = DiscountSpec("cost_ratio")
    for scm in oracle_models(rng):
        m_a = apply_action(scm, random_action(rng, scm), "a")
        m_ap = apply_action(scm, random_action(rng, scm), "a_prime")
        phi, cost = random_outcome(rng, scm), _random_cost(rng, scm)
        rep = discounted_blame(m_a, m_ap, phi, cost, spec)
        want = (brute_event_probability(m_a, phi), brute_event_probability(m_ap, phi),
                brute_expected_cost(m_a, cost), brute_expected_cost(m_ap, cost))
        got = (rep.p_a, rep.p_aprime, rep.cost_a, rep.cost_aprime)
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want)), (got, want)
        assert rep == BlameReport.of(*got, spec)


def test_discount_unit():
    assert discount(DiscountSpec("unit"), 123.0, 0.001) == 1.0


def test_discount_ratio_equal():
    assert discount(DiscountSpec("cost_ratio"), 5.0, 5.0) == 1.0


def test_discount_ratio():
    assert discount(DiscountSpec("cost_ratio"), 2.0, 8.0) == pytest.approx(0.25, abs=1e-12)


def test_discount_zero_reference():
    assert discount(DiscountSpec("cost_ratio"), 1.0, 0.0) == 1.0


def test_discount_clamps():
    spec = DiscountSpec("cost_ratio", epsilon=1e-9)
    assert discount(spec, 0.0, 10.0) == 1e-9
    assert discount(spec, 100.0, 1.0) == 1.0


@pytest.mark.parametrize(
    "kind, epsilon",
    [("bogus", 0.5), ("cost_ratio", 0.0), ("cost_ratio", -1.0), ("cost_ratio", 2.0),
     ("unit", float("nan"))],
)
def test_discount_spec_rejects_bad_fields(kind, epsilon):
    with pytest.raises(ConfigError):
        DiscountSpec(kind, epsilon)


@pytest.mark.parametrize(
    "p_a, p_aprime, kind, want_delta, want_gamma",
    [(0.5, 0.3, "cost_ratio", 0.2, 0.25), (0.3, 0.5, "cost_ratio", 0.0, 0.25),
     (0.5, 0.3, "unit", 0.2, 1.0)],
)
def test_blame_report_of(p_a, p_aprime, kind, want_delta, want_gamma):
    rep = BlameReport.of(p_a, p_aprime, 2.0, 8.0, DiscountSpec(kind), method="empirical")
    assert (rep.p_a, rep.p_aprime, rep.cost_a, rep.cost_aprime) == (p_a, p_aprime, 2.0, 8.0)
    assert rep.delta == pytest.approx(want_delta, abs=1e-15)
    assert rep.gamma == want_gamma
    assert rep.db == rep.gamma * rep.delta
    assert (rep.method, rep.flagged_fraction) == ("empirical", None)


def test_discounted_blame_zero_delta(xor):
    m_xor = apply_action(xor, XOR_Y, "xor")
    rep = discounted_blame(m_xor, m_xor, Y1, (), DiscountSpec("unit"))
    assert rep.delta == 0.0
    assert rep.db == 0.0


def test_discounted_blame_unit_equals_delta(xor):
    m_xor, m_noise = apply_action(xor, XOR_Y, "xor"), apply_action(xor, NOISE_Y, "noise_only")
    rep = discounted_blame(m_xor, m_noise, Y1, (), DiscountSpec("unit"))
    assert rep.gamma == 1.0
    assert rep.db == rep.delta


def test_discounted_blame_xor_scenario(xor):
    # Cost channel: 2 per AI-style decision, 8 per reviewed one.
    auto = XOR_Y | {"REVIEW": ((), {(): "0"})}
    manual = NOISE_Y | {"REVIEW": ((), {(): "1"})}
    from blamescope.scm import Domain, EndogenousVar, Scm, validate

    base = Scm(
        exogenous=xor.exogenous,
        endogenous=xor.endogenous
        + (EndogenousVar("REVIEW", Domain(BITS), (), {(): "0"}),),
    )
    validate(base)
    cost = cost_model(((("REVIEW", "0"),), 2.0), ((("REVIEW", "1"),), 8.0))
    rep = discounted_blame(
        apply_action(base, auto, "auto"), apply_action(base, manual, "manual"), Y1, cost,
        DiscountSpec("cost_ratio"),
    )
    assert rep.delta == pytest.approx(0.2, abs=1e-12)
    assert rep.gamma == pytest.approx(0.25, abs=1e-12)
    assert rep.db == pytest.approx(0.05, abs=1e-12)
