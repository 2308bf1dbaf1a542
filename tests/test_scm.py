import copy
import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from blamescope import scm as scm_mod
from blamescope.blame import (
    Action,
    CostModel,
    CostTerm,
    DiscountSpec,
    Override,
    apply_action,
    discounted_blame,
    expected_cost,
)
from blamescope.errors import (
    CyclicGraph,
    DanglingParent,
    DuplicateVariable,
    IncompleteExogenousAssignment,
    NonNormalizedDistribution,
    PartialMechanism,
    StateSpaceTooLarge,
    UnknownVariable,
    ValueOutOfDomain,
    ZeroProbabilityObservation,
)
from blamescope.scm import (
    Domain,
    EndogenousVar,
    ExogenousVar,
    OutcomeSpec,
    Scm,
    abduct,
    counterfactual_probability,
    event_probability,
    event_probability_mc,
    intervene,
    solve,
    validate,
)

from conftest import (
    WIDE_DOMAIN_SIZES,
    oracle_models,
    random_noise,
    random_outcome,
    wide_domain_scm,
    xor_scm,
)
from oracles import (
    brute_counterfactual_probability,
    brute_event_probability,
    brute_posterior,
    brute_solve,
)

BITS = ("0", "1")
Y1 = OutcomeSpec(((("Y", "eq", "1"),),))


def test_validate_xor_ok(xor):
    assert validate(xor) == ("X", "Y")


def test_scm_is_frozen(xor):
    with pytest.raises(dataclasses.FrozenInstanceError):
        xor.exogenous = ()


def test_validate_cycle():
    with pytest.raises(CyclicGraph, match="X"):
        Scm(
            exogenous=(ExogenousVar("E", Domain(BITS), (0.5, 0.5)),),
            endogenous=(
                EndogenousVar("X", Domain(BITS), ("Y",), {("0",): "0", ("1",): "1"}),
                EndogenousVar("Y", Domain(BITS), ("X",), {("0",): "0", ("1",): "1"}),
            ),
        )


def test_validate_nonnormalized():
    with pytest.raises(NonNormalizedDistribution, match="E"):
        Scm(
            exogenous=(ExogenousVar("E", Domain(BITS), (0.5, 0.6)),),
            endogenous=(),
        )


def test_validate_dangling_parent():
    with pytest.raises(DanglingParent, match="NOPE"):
        Scm(
            exogenous=(),
            endogenous=(
                EndogenousVar("X", Domain(BITS), ("NOPE",), {("0",): "0", ("1",): "1"}),
            ),
        )


def test_validate_duplicate_ids():
    with pytest.raises(DuplicateVariable, match=r"duplicate variable ids: \['X'\]"):
        Scm(
            exogenous=(ExogenousVar("X", Domain(BITS), (0.5, 0.5)),),
            endogenous=(EndogenousVar("X", Domain(BITS), (), {(): "0"}),),
        )


def test_validate_partial_mechanism():
    with pytest.raises(PartialMechanism, match="X"):
        Scm(
            exogenous=(ExogenousVar("E", Domain(BITS), (0.5, 0.5)),),
            endogenous=(EndogenousVar("X", Domain(BITS), ("E",), {("0",): "0"}),),
        )


def test_replace_checks_again(xor):
    with pytest.raises(DanglingParent, match="NOPE"):
        dataclasses.replace(
            xor, endogenous=(EndogenousVar("X", Domain(BITS), ("NOPE",), {("0",): "0"}),)
        )


def test_tables_not_compared_or_shown(xor):
    assert xor == scm_mod.Scm(xor.exogenous, xor.endogenous)
    assert "tables" not in repr(xor)
    assert [f.name for f in dataclasses.fields(xor) if f.init] == ["exogenous", "endogenous"]


@pytest.mark.parametrize(
    "query, compiles",
    [
        (lambda scm: event_probability(scm, Y1), 0),
        (lambda scm: event_probability_mc(scm, Y1, samples=10, seed=0), 0),
        (lambda scm: solve(scm, {"E1": "1", "E2": "0"}), 0),
        (lambda scm: abduct(scm, {"Y": "1"}), 0),
        (lambda scm: counterfactual_probability(scm, {"Y": "1"}, [], Y1), 0),
        (lambda scm: intervene(scm, "X", "1"), 1),
        (lambda scm: apply_action(scm, Action("keep")), 1),
        (
            lambda scm: discounted_blame(
                scm,
                Action("a", (Override("Y", ("E2",), {("0",): "0", ("1",): "1"}),)),
                Action("b"),
                Y1,
                CostModel((CostTerm((("X", "1"),), 2.0),)),
                DiscountSpec("cost_ratio"),
            ),
            4,
        ),
    ],
    ids=["event_probability", "event_probability_mc", "solve", "abduct",
         "counterfactual_probability", "intervene", "apply_action", "discounted_blame"],
)
def test_model_compiled_once_when_built(monkeypatch, xor, query, compiles):
    calls = []
    compile_ = scm_mod._compile
    monkeypatch.setattr(scm_mod, "_compile", lambda scm: calls.append(1) or compile_(scm))
    query(xor)
    assert len(calls) == compiles


def test_solve_xor(xor):
    assert solve(xor, {"E1": "1", "E2": "1"}) == {"X": "1", "Y": "0"}
    assert solve(xor, {"E1": "0", "E2": "0"}) == {"X": "0", "Y": "0"}


def test_solve_chain():
    scm = Scm(
        exogenous=(ExogenousVar("E1", Domain(BITS), (0.5, 0.5)),),
        endogenous=(
            EndogenousVar("A", Domain(BITS), ("E1",), {("0",): "0", ("1",): "1"}),
            EndogenousVar("B", Domain(BITS), ("A",), {("0",): "0", ("1",): "1"}),
            EndogenousVar("C", Domain(BITS), ("B",), {("0",): "0", ("1",): "1"}),
        ),
    )
    validate(scm)
    assert solve(scm, {"E1": "1"}) == {"A": "1", "B": "1", "C": "1"}


def test_solve_incomplete_noise(xor):
    with pytest.raises(IncompleteExogenousAssignment):
        solve(xor, {"E1": "1"})


def test_solve_deterministic(xor):
    e = {"E1": "1", "E2": "0"}
    assert solve(xor, e) == solve(xor, e)


def test_event_probability_xor(xor):
    # P(Y=1) = P(E1=1)P(E2=0) + P(E1=0)P(E2=1) = 0.35 + 0.15
    assert event_probability(xor, Y1) == pytest.approx(0.5, abs=1e-12)


def test_event_probability_empty_clause_list(xor):
    assert event_probability(xor, OutcomeSpec(())) == 0.0


def test_event_probability_exhaustive(xor):
    phi = OutcomeSpec(((("X", "eq", "0"),), (("X", "eq", "1"),)))
    assert event_probability(xor, phi) == pytest.approx(1.0, abs=1e-12)


def _over_the_cap():
    """25 binary exogenous variables: 2^25 joint states, over the 2^24 cap."""
    exogenous = tuple(ExogenousVar(f"E{i}", Domain(BITS), (0.5, 0.5)) for i in range(25))
    return Scm(
        exogenous=exogenous,
        endogenous=(EndogenousVar("Y", Domain(BITS), ("E0",), {("0",): "0", ("1",): "1"}),),
    )


@pytest.mark.parametrize(
    "query",
    [
        lambda scm: event_probability(scm, Y1),
        lambda scm: abduct(scm, {"Y": "1"}),
        lambda scm: counterfactual_probability(scm, {"Y": "1"}, [("Y", "0")], Y1),
        lambda scm: expected_cost(scm, Action(label="keep"), CostModel()),
    ],
    ids=["event_probability", "abduct", "counterfactual_probability", "expected_cost"],
)
def test_exact_query_state_cap(query):
    with pytest.raises(StateSpaceTooLarge, match="33554432 states"):
        query(_over_the_cap())


def test_mc_converges(xor):
    est = event_probability_mc(xor, Y1, samples=100000, seed=0)
    assert abs(est - 0.5) <= 0.01


def test_mc_deterministic(xor):
    a = event_probability_mc(xor, Y1, samples=1000, seed=9)
    b = event_probability_mc(xor, Y1, samples=1000, seed=9)
    assert a == b


def test_mc_unsatisfiable(xor):
    assert event_probability_mc(xor, OutcomeSpec(()), samples=100, seed=3) == 0.0


def test_mc_single_sample(xor):
    assert event_probability_mc(xor, Y1, samples=1, seed=5) in (0.0, 1.0)


def _xor_chain(bits: int) -> Scm:
    """X0 := E0, X_i := X_{i-1} xor E_i on `bits` fair noise bits."""
    xor = {(a, b): str(int(a != b)) for a in BITS for b in BITS}
    return Scm(
        exogenous=tuple(ExogenousVar(f"E{i}", Domain(BITS), (0.5, 0.5)) for i in range(bits)),
        endogenous=(EndogenousVar("X0", Domain(BITS), ("E0",), {("0",): "0", ("1",): "1"}),)
        + tuple(
            EndogenousVar(f"X{i}", Domain(BITS), (f"X{i - 1}", f"E{i}"), xor)
            for i in range(1, bits)
        ),
    )


def test_mc_memory_per_sample():
    """Binary codes are held as one byte each: the traced peak stays under
    two bytes per sample per variable (int64 codes need over eight)."""
    scm = _xor_chain(24)
    samples = 200_000
    phi = OutcomeSpec(((("X23", "eq", "1"),),))
    tracemalloc.start()
    try:
        event_probability_mc(scm, phi, samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * samples * (len(scm.exogenous) + len(scm.endogenous))


def test_mc_matches_oracle_within_standard_errors():
    rng = random.Random(12)
    n = 20_000
    for seed, scm in enumerate(oracle_models(rng)):
        phi = random_outcome(rng, scm)
        p = brute_event_probability(scm, phi)
        est = event_probability_mc(scm, phi, samples=n, seed=seed)
        # The 1e-12 absorbs the oracle's rounding where p is 0 or 1.
        assert abs(est - p) <= 5 * math.sqrt(max(p * (1 - p), 0.0) / n) + 1e-12


def test_intervene_forces_value(xor):
    fixed = intervene(xor, "X", "1")
    phi = OutcomeSpec(((("X", "eq", "1"),),))
    assert event_probability(fixed, phi) == 1.0


def test_intervene_does_not_mutate(xor):
    snapshot = copy.deepcopy(xor)
    intervene(xor, "X", "0")
    assert xor == snapshot


def test_intervene_idempotent_on_constant(xor):
    once = intervene(xor, "X", "0")
    twice = intervene(once, "X", "0")
    for e1 in BITS:
        for e2 in BITS:
            e = {"E1": e1, "E2": e2}
            assert solve(once, e) == solve(twice, e)


def test_intervene_errors(xor):
    with pytest.raises(UnknownVariable):
        intervene(xor, "Z", "0")
    with pytest.raises(ValueOutOfDomain):
        intervene(xor, "X", "2")


def test_abduct_point_posterior(xor):
    post = abduct(xor, {"X": "1", "Y": "0"})
    assert len(post.support) == 1
    e, p = post.support[0]
    assert e == {"E1": "1", "E2": "1"}
    assert p == pytest.approx(1.0, abs=1e-12)


def test_abduct_empty_observation_is_prior(xor):
    post = abduct(xor, {})
    probs = {tuple(sorted(e.items())): p for e, p in post.support}
    assert probs[(("E1", "0"), ("E2", "0"))] == pytest.approx(0.35, abs=1e-12)
    assert probs[(("E1", "1"), ("E2", "1"))] == pytest.approx(0.15, abs=1e-12)
    assert sum(p for _, p in post.support) == pytest.approx(1.0, abs=1e-9)


def test_abduct_impossible_observation():
    scm = xor_scm(p_e1=0.0)
    with pytest.raises(ZeroProbabilityObservation):
        abduct(scm, {"X": "1"})


def test_abduct_support_consistency(xor):
    post = abduct(xor, {"Y": "1"})
    for e, p in post.support:
        assert p > 0
        assert solve(xor, e)["Y"] == "1"


def test_counterfactual_worked_example(xor):
    # Observing X=1, Y=0 forces E2=1; under do(X=0), Y = 0 xor 1 = 1.
    assert counterfactual_probability(xor, {"X": "1", "Y": "0"}, [("X", "0")], Y1) == 1.0


def test_counterfactual_factual_collapse(xor):
    phi = OutcomeSpec(((("Y", "eq", "0"),),))
    p = counterfactual_probability(xor, {"X": "1", "Y": "0"}, [], phi)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_counterfactual_matching_intervention(xor):
    phi = OutcomeSpec(((("Y", "eq", "0"),),))
    p = counterfactual_probability(xor, {"X": "1", "Y": "0"}, [("X", "1")], phi)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_counterfactual_collapse_law(xor):
    p = counterfactual_probability(xor, {}, [], Y1)
    assert abs(p - event_probability(xor, Y1)) <= 1e-12


def _observe(rng, scm):
    """A non-empty, possible observation of some endogenous variables."""
    x = brute_solve(scm, random_noise(rng, scm))
    return {var: x[var] for var in rng.sample(sorted(x), rng.randint(1, len(x)))}


def test_solve_matches_oracle():
    rng = random.Random(7)
    for scm in oracle_models(rng):
        for _ in range(3):
            noise = random_noise(rng, scm)
            assert solve(scm, noise) == brute_solve(scm, noise)


def test_event_probability_matches_oracle_beyond_one_block():
    rng = random.Random(8)
    for scm in oracle_models(rng, n_random=0):
        for _ in range(3):
            phi = random_outcome(rng, scm)
            assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12


def test_abduct_matches_oracle():
    rng = random.Random(9)
    for scm in oracle_models(rng):
        observation = _observe(rng, scm)
        got = {tuple(sorted(e.items())): p for e, p in abduct(scm, observation).support}
        want = {tuple(sorted(e.items())): p for e, p in brute_posterior(scm, observation)}
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 for k in want)


def test_counterfactual_matches_oracle():
    rng = random.Random(10)
    for scm in oracle_models(rng):
        for _ in range(3):
            observation = _observe(rng, scm)
            targets = rng.sample(scm.endogenous, rng.randint(1, min(2, len(scm.endogenous))))
            interventions = [(v.id, rng.choice(v.domain.values)) for v in targets]
            phi = random_outcome(rng, scm)
            got = counterfactual_probability(scm, observation, interventions, phi)
            want = brute_counterfactual_probability(scm, observation, interventions, phi)
            assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("size", WIDE_DOMAIN_SIZES)
def test_wide_domains_match_oracle(size):
    rng = random.Random(size)
    scm = wide_domain_scm(rng, size)
    domains = {v.id: v.domain for v in scm.endogenous}
    dtypes = {vid: lut.dtype for vid, _, lut in scm.tables}
    assert dtypes == {vid: np.min_scalar_type(len(domains[vid]) - 1) for vid in domains}
    assert dtypes["W"] == {2: np.uint8, 255: np.uint8, 256: np.uint8, 257: np.uint16,
                           65_537: np.uint32}[size]
    for _ in range(3):
        noise = random_noise(rng, scm)
        assert solve(scm, noise) == brute_solve(scm, noise)
    phi = random_outcome(rng, scm)
    assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12
    observation = _observe(rng, scm)
    target = rng.choice(scm.endogenous)
    interventions = [(target.id, rng.choice(target.domain.values))]
    phi = random_outcome(rng, scm)
    got = counterfactual_probability(scm, observation, interventions, phi)
    want = brute_counterfactual_probability(scm, observation, interventions, phi)
    assert abs(got - want) <= 1e-12
