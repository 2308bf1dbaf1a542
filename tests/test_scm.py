import copy
import inspect
import itertools
import math
import operator
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blamescope import scm as scm_mod
from blamescope.blame import DiscountSpec, apply_action, discounted_blame, expected_cost
from blamescope.data import bundled_path
from blamescope.errors import (
    CyclicGraph,
    DanglingParent,
    DuplicateVariable,
    FloatUnderflow,
    IncompleteExogenousAssignment,
    NonNormalizedDistribution,
    PartialMechanism,
    SampleCountTooLarge,
    StateSpaceTooLarge,
    UnknownVariable,
    ValueOutOfDomain,
    ZeroProbabilityObservation,
)
from blamescope.io import load_scm_bundle
from blamescope.scm import (
    PROB_TOL,
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
    posterior_support_size,
    solve,
    validate,
)

from conftest import (
    WIDE_DOMAIN_SIZES,
    cost_model,
    lookup_out_of_memory,
    oracle_models,
    pairwise_xor_scm,
    random_noise,
    random_outcome,
    random_scm,
    wide_domain_scm,
    xor_scm,
)
from oracles import (
    brute_columns,
    brute_counterfactual_probability,
    brute_event_probability,
    brute_expected_cost,
    brute_mc,
    brute_posterior,
    brute_satisfied,
    brute_skips,
    brute_solve,
    frozen_disjoint,
    frozen_plan,
)

BITS = ("0", "1")
Y1 = OutcomeSpec(((("Y", "eq", "1"),),))


def test_validate_xor_ok(xor):
    assert validate(xor) == ("X", "Y")


def test_scm_is_frozen(xor):
    with pytest.raises(AttributeError):
        xor.exogenous = ()


def test_domain_codes_are_positions_and_not_compared():
    domain = Domain(("b", "a", "c"))
    assert domain.codes == {"b": 0, "a": 1, "c": 2}
    assert [domain.index(v) for v in domain.values] == [0, 1, 2]
    assert domain == Domain(("b", "a", "c")) and hash(domain) == hash(Domain(("b", "a", "c")))
    assert "codes" not in repr(domain)
    assert list(inspect.signature(Domain).parameters) == ["values"]


def test_domain_errors_name_the_value_not_the_domain():
    values = tuple(str(i) for i in range(100_000))
    with pytest.raises(ValueOutOfDomain) as exc:
        Domain(values + ("5",))
    assert str(exc.value) == "domain value '5' is not unique"
    with pytest.raises(ValueOutOfDomain) as exc:
        Domain(values).index("x")
    assert str(exc.value) == "value 'x' not in a domain of 100000 values"


def test_unhashable_value_is_in_no_domain(xor):
    """Neither a lookup nor a check raises TypeError on an unhashable value."""
    domain = Domain(BITS)
    assert ["1"] not in domain
    with pytest.raises(ValueOutOfDomain):
        domain.index(["1"])
    with pytest.raises(ValueOutOfDomain, match=r"outcome value \['1'\] not in domain of 'Y'"):
        event_probability(xor, OutcomeSpec(((("Y", "eq", ["1"]),),)))
    with pytest.raises(ValueOutOfDomain, match=r"value \['1'\] not in domain of 'Y'"):
        intervene(xor, {"Y": ["1"]})


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


def test_repeated_id_among_many_is_refused_in_linear_time():
    """One repeated id among 30,001 is named in one pass over the ids: a
    count per id took 13.5 s here on a 2-vCPU host."""
    exogenous = [ExogenousVar(f"E{i}", Domain(BITS), (0.5, 0.5)) for i in range(30_000)]
    exogenous.insert(20_000, ExogenousVar("E17", Domain(BITS), (0.5, 0.5)))
    start = time.perf_counter()
    with pytest.raises(DuplicateVariable, match=r"^duplicate variable ids: \['E17'\]$"):
        Scm(exogenous=tuple(exogenous), endogenous=())
    assert time.perf_counter() - start < 2


def test_validate_partial_mechanism():
    with pytest.raises(PartialMechanism, match="X"):
        Scm(
            exogenous=(ExogenousVar("E", Domain(BITS), (0.5, 0.5)),),
            endogenous=(EndogenousVar("X", Domain(BITS), ("E",), {("0",): "0"}),),
        )


def test_replace_checks_again(xor):
    with pytest.raises(DanglingParent, match="NOPE"):
        apply_action(xor, {"X": (("NOPE",), {("0",): "0"})}, "bad")


def test_tables_not_compared_or_shown(xor):
    assert xor == scm_mod.Scm(xor.exogenous, xor.endogenous)
    assert "tables" not in repr(xor)
    assert list(inspect.signature(Scm).parameters) == ["exogenous", "endogenous"]


@pytest.mark.parametrize(
    "query, compiles",
    [
        (lambda scm: event_probability(scm, Y1), 0),
        (lambda scm: event_probability_mc(scm, Y1, samples=10, seed=0), 0),
        (lambda scm: solve(scm, {"E1": "1", "E2": "0"}), 0),
        (lambda scm: abduct(scm, {"Y": "1"}), 0),
        (lambda scm: counterfactual_probability(scm, {"Y": "1"}, [], Y1), 0),
        (lambda scm: intervene(scm, {"X": "1", "Y": "0"}), 1),
        (lambda scm: apply_action(scm, {}, "keep"), 1),
        (
            lambda scm: discounted_blame(
                scm, scm, Y1, cost_model(((("X", "1"),), 2.0)), DiscountSpec("cost_ratio")
            ),
            0,
        ),
        (lambda scm: expected_cost(scm, cost_model(((("X", "1"),), 2.0))), 0),
        # The model and the models of its two actions, `auto` and `manual`.
        (lambda scm: load_scm_bundle(bundled_path("xor_blame.json")), 3),
    ],
    ids=["event_probability", "event_probability_mc", "solve", "abduct",
         "counterfactual_probability", "intervene", "apply_action", "discounted_blame",
         "expected_cost", "load_scm_bundle"],
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


def _over_the_cap(n=25):
    """n fair binary exogenous variables: 2^n joint states, over the 2^24
    cap from n = 25 on. Each X_i copies E_i, and Y copies E0."""
    exogenous = tuple(ExogenousVar(f"E{i}", Domain(BITS), (0.5, 0.5)) for i in range(n))
    return Scm(
        exogenous=exogenous,
        endogenous=(EndogenousVar("Y", Domain(BITS), ("E0",), {("0",): "0", ("1",): "1"}),)
        + tuple(
            EndogenousVar(f"X{i}", Domain(BITS), (f"E{i}",), {("0",): "0", ("1",): "1"})
            for i in range(n)
        ),
    )


def _past_the_cap_at_step_two(n=4100):
    """U and V uniform over n values, M := U mod 2, P := f(U, M) and
    Q := g(V, M). The plan for P = 1 and Q = 1 substitutes P, over (U, M),
    then Q, over (U, M, V): n^2 * 2 entries, over the 2^24 cap at 4,100."""
    values = tuple(str(i) for i in range(n))
    uniform = (1 / n,) * n
    return Scm(
        exogenous=(
            ExogenousVar("U", Domain(values), uniform),
            ExogenousVar("V", Domain(values), uniform),
        ),
        endogenous=(
            EndogenousVar("M", Domain(BITS), ("U",), {(u,): str(int(u) % 2) for u in values}),
            EndogenousVar("P", Domain(BITS), ("U", "M"), {
                (u, m): str((int(u) // 2 + int(m)) % 2) for u in values for m in BITS
            }),
            EndogenousVar("Q", Domain(BITS), ("V", "M"), {
                (v, m): str((int(v) // 3 + int(m)) % 2) for v in values for m in BITS
            }),
        ),
    )


# Two clauses that together read all 25 X_i.
_WIDE_TERMS = (
    tuple((f"X{i}", "1") for i in range(13)),
    tuple((f"X{i}", "1") for i in range(13, 25)),
)
_WIDE_EVENT = OutcomeSpec(tuple(tuple((v, "eq", x) for v, x in t) for t in _WIDE_TERMS))
_PQ = (("P", "1"), ("Q", "1"))


def _factor_cap(entries):
    return re.escape(f"factor of {entries} entries (cap 16777216)")


@pytest.mark.parametrize(
    "model, query, message",
    [
        (_past_the_cap_at_step_two,
         lambda scm: event_probability(scm, OutcomeSpec.conjunction(_PQ)),
         _factor_cap(4100**2 * 2)),
        (_over_the_cap, lambda scm: abduct(scm, {"Y": "1"}), re.escape("33554432 states")),
        # P's copy reads M's copy, so substituting Q builds a factor over
        # (U, M, M's copy, V).
        (_past_the_cap_at_step_two,
         lambda scm: counterfactual_probability(
             scm, dict(_PQ), [("M", "0")], OutcomeSpec.conjunction(_PQ)
         ), _factor_cap(4100**2 * 4)),
        (_past_the_cap_at_step_two,
         lambda scm: expected_cost(scm, cost_model((_PQ, 1.0))),
         _factor_cap(4100**2 * 2)),
        # Every XOR is read, so the plan's factors grow to span the 26 bits.
        (lambda: pairwise_xor_scm(26),
         lambda scm: event_probability(
             scm, OutcomeSpec.conjunction((v.id, "0") for v in scm.endogenous)
         ), _factor_cap(2**25)),
    ],
    ids=["event_probability", "abduct", "counterfactual_probability", "expected_cost",
         "pairwise_xor_clique"],
)
def test_exact_query_state_cap(monkeypatch, model, query, message):
    """The error names the cap, and the command that can still answer. An
    exact query is refused by its plan, before any factor is built: no
    elimination step runs, though the first factor of each plan fits."""

    def built(*args):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(scm_mod, "_substitute", built)
    with pytest.raises(StateSpaceTooLarge, match=message) as got:
        query(model())
    assert str(got.value).endswith(
        "estimate an outcome probability with `prob --samples N` instead"
    )


def test_batches_split_to_fit_the_cap(monkeypatch):
    """Rows whose weights or factors together pass the cap are eliminated
    in chunks whose own do not, and give the same sums: three cost terms on
    `_past_the_cap_at_step_two(8)`, whose plan's second factor passes the
    cap, and a three-clause counterfactual on `wide_domain_scm`'s 64-valued
    W and Z, whose stacked weights pass it. Each query is planned once,
    however many chunks its rows are eliminated in."""
    wide = wide_domain_scm(random.Random(4), 64)
    phi = OutcomeSpec(
        ((("W", "eq", "27"),), (("Z", "neq", "41"), ("W", "neq", "4")), (("Z", "eq", "33"),))
    )
    cost = cost_model((_PQ, 1.3), ((("P", "1"), ("Q", "0")), 2.7), ((("P", "0"),), 0.1))
    queries = [
        lambda: expected_cost(_past_the_cap_at_step_two(8), cost),
        lambda: counterfactual_probability(wide, {"V": "z"}, [("V", "x")], phi),
    ]
    sizes, calls = [], []
    real_plan, real_eliminate, real_substitute = (
        scm_mod._plan, scm_mod._eliminate, scm_mod._substitute
    )

    def plan(*args):
        calls.append("plan")
        return real_plan(*args)

    def eliminate(plan, mechanisms, unary, table):
        calls.append("eliminate")
        sizes.extend(w.size for w in unary.values())
        return real_eliminate(plan, mechanisms, unary, table)

    def substitute(*args):
        table = real_substitute(*args)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(scm_mod, "_plan", plan)
    monkeypatch.setattr(scm_mod, "_eliminate", eliminate)
    monkeypatch.setattr(scm_mod, "_substitute", substitute)
    for query in queries:
        monkeypatch.setattr(scm_mod, "MAX_STATES", 1 << 24)
        sizes.clear()
        want = query()
        assert max(sizes) > 200
        monkeypatch.setattr(scm_mod, "MAX_STATES", 200)
        sizes.clear()
        calls.clear()
        assert query() == want
        assert max(sizes) <= 200
        assert calls.count("plan") == 1 and calls.count("eliminate") > 1


def test_two_clauses_over_25_bits_match_closed_forms():
    """Two clauses that together read 25 independent fair bits are 14
    disjoint conjunctions, not one factor of 2^25 entries. Each one's
    probability is a power of two, so the sums are exact."""
    scm = _over_the_cap()
    assert event_probability(scm, _WIDE_EVENT) == 2**-13 + 2**-12 - 2**-25
    cost = cost_model(*((t, 1.0) for t in _WIDE_TERMS))
    assert expected_cost(scm, cost) == 2**-13 + 2**-12
    # Y copies E0, so Y = 1 fixes X0 = 1, and do(Y = 0) changes no X_i.
    got = counterfactual_probability(scm, {"Y": "1"}, [("Y", "0")], _WIDE_EVENT)
    assert got == 2**-11 - 2**-24


@pytest.mark.parametrize("clauses, literals", [(12, 12), (24, 2), (40, 2)])
def test_dnf_past_the_cap_raises_before_any_piece(monkeypatch, clauses, literals):
    """A DNF of `clauses` clauses of `literals` literals over distinct bits
    has more disjoint pieces than the cap allows, and raises before any
    clause is joined or piece built."""

    def built(*args):
        raise AssertionError("a clause was joined or a piece built")

    monkeypatch.setattr(scm_mod, "_minus", built)
    monkeypatch.setattr(scm_mod, "_merge", built)
    bit = iter(range(clauses * literals))
    phi = OutcomeSpec(tuple(
        tuple((f"X{next(bit)}", "eq", "1") for _ in range(literals)) for _ in range(clauses)
    ))
    # The bound: the sum over i of literals^i pieces, times the weights a
    # piece can hold, two for each bit read.
    bound = sum(literals**i for i in range(clauses)) * 2 * clauses * literals
    with pytest.raises(StateSpaceTooLarge, match=_factor_cap(bound)):
        event_probability(_over_the_cap(clauses * literals), phi)


_PIECE_SIZES = {"A": 2, "B": 3, "C": 1, "D": 4}
_ENCODED_LITERAL = st.sampled_from(sorted(_PIECE_SIZES)).flatmap(
    lambda var: st.tuples(
        st.just(var), st.sampled_from(("eq", "neq")), st.integers(0, _PIECE_SIZES[var] - 1)
    )
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_ENCODED_LITERAL, max_size=4).map(tuple), max_size=5).map(tuple))
@example(((("A", "eq", 0),), (("A", "eq", 1),)))  # two clauses that `_merge` joins
def test_disjoint_pieces_equal_the_frozen_copy(clauses):
    """`_disjoint` gives the same pieces, in the same order and with the
    same weights, as the copy in `tests/oracles.py` of the functions before
    `_unary` grouped literals in one pass and `_merge` returned fewer than
    two boxes at once; so every sum over the pieces rounds as before."""
    got, want = scm_mod._disjoint(clauses, _PIECE_SIZES), frozen_disjoint(clauses, _PIECE_SIZES)
    assert [list(piece) for piece in got] == [list(piece) for piece in want]
    for piece, frozen in zip(got, want):
        for var, weights in piece.items():
            assert weights.dtype == frozen[var].dtype
            assert np.array_equal(weights, frozen[var])


def test_random_dnfs_match_oracles():
    """Outcomes of 1 to 6 clauses of 1 to 3 literals, as probabilities,
    counterfactuals and cost models with one term per clause."""
    rng = random.Random(17)
    for scm in oracle_models(rng):
        for _ in range(2):
            phi = random_outcome(rng, scm, clauses=6, literals=3)
            assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12
            cost = cost_model(*(
                (tuple((var, value) for var, _, value in clause), rng.uniform(0, 5))
                for clause in phi.clauses
            ))
            got = expected_cost(scm, cost)
            assert abs(got - brute_expected_cost(scm, cost)) <= 1e-12
            observation = _observe(rng, scm)
            targets = rng.sample(scm.endogenous, rng.randint(1, min(2, len(scm.endogenous))))
            interventions = [(v.id, rng.choice(v.domain.values)) for v in targets]
            phi = random_outcome(rng, scm, clauses=6, literals=3)
            got = counterfactual_probability(scm, observation, interventions, phi)
            want = brute_counterfactual_probability(scm, observation, interventions, phi)
            assert abs(got - want) <= 1e-12


def test_one_conjunction_over_many_variables_matches_oracle():
    """25 copies X_i := E of one bit: the one-clause outcome X0 = 1 and ...
    and X24 = 1, and a cost term on the same conjunction, read 25 binary
    variables, one unary indicator each, so no 2^25-entry factor is built.
    On a model with a one-valued C, a literal on C is kept or, for "neq",
    never holds, and two literals on one variable multiply."""
    p = 0.3
    copy = {("0",): "0", ("1",): "1"}
    scm = Scm(
        exogenous=(ExogenousVar("E", Domain(BITS), (1 - p, p)),),
        endogenous=tuple(EndogenousVar(f"X{i}", Domain(BITS), ("E",), copy) for i in range(25)),
    )
    pairs = tuple((f"X{i}", "1") for i in range(25))
    phi = OutcomeSpec.conjunction(pairs)
    got = event_probability(scm, phi)
    assert abs(got - p) <= 1e-12
    assert abs(got - brute_event_probability(scm, phi)) <= 1e-12
    cost = cost_model((pairs, 3.0))
    assert abs(expected_cost(scm, cost) - 3 * p) <= 1e-12

    one = Domain(("only",))
    scm = Scm(
        exogenous=(ExogenousVar("O", one, (1.0,)), ExogenousVar("E", Domain(BITS), (1 - p, p))),
        endogenous=(
            EndogenousVar("C", one, ("O",), {("only",): "only"}),
            EndogenousVar("X", Domain(BITS), ("E",), copy),
            EndogenousVar("Y", Domain(("a", "b", "c")), ("X",), {("0",): "a", ("1",): "c"}),
        ),
    )
    for clause in [
        (("C", "eq", "only"), ("X", "eq", "1")),
        (("C", "neq", "only"), ("X", "eq", "1")),
        (("Y", "neq", "a"), ("Y", "neq", "b")),
        (("Y", "neq", "c"), ("X", "eq", "0"), ("Y", "neq", "b")),
        (("Y", "eq", "b"),),
        (),
    ]:
        phi = OutcomeSpec((clause,))
        assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12


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


def _xor_chain(bits: int, flips=None) -> Scm:
    """X0 := E0, X_i := X_{i-1} xor E_i on `bits` noise bits, where
    P(E_i = 1) is flips[i], or one half without `flips`."""
    xor = {(a, b): str(int(a != b)) for a in BITS for b in BITS}
    flips = flips or [0.5] * bits
    return Scm(
        exogenous=tuple(
            ExogenousVar(f"E{i}", Domain(BITS), (1 - p, p)) for i, p in enumerate(flips)
        ),
        endogenous=(EndogenousVar("X0", Domain(BITS), ("E0",), {("0",): "0", ("1",): "1"}),)
        + tuple(
            EndogenousVar(f"X{i}", Domain(BITS), (f"X{i - 1}", f"E{i}"), xor)
            for i in range(1, bits)
        ),
    )


def _skewed_chain() -> Scm:
    """The 24-bit chain with P(E_i = 1) = 0.03, where every noise variable
    skips to its exceptions."""
    return _xor_chain(24, flips=[0.03] * 24)


def _mc_peak(scm: Scm, samples: int) -> int:
    """The traced peak of one estimate of P(last bit = 1) on a chain,
    after an untraced estimate has made numpy's first-use allocations."""
    phi = OutcomeSpec((((scm.endogenous[-1].id, "eq", "1"),),))
    event_probability_mc(scm, phi, samples=1_000, seed=1)
    tracemalloc.start()
    try:
        event_probability_mc(scm, phi, samples=samples, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_per_sample():
    """Binary codes are held as one byte each: the traced peak stays under
    two bytes per sample per variable (int64 codes need over eight)."""
    scm = _xor_chain(24)
    samples = 200_000
    peak = _mc_peak(scm, samples)
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


def test_mc_memory_live_columns():
    """Each column is drawn when its first reader runs and dropped after
    its last, and no column keeps a block it has handed out, so on the
    24-bit chain the traced peak stays under one block of one-byte codes
    per exogenous column plus 16 blocks. It measures about 13 blocks: the
    uniforms of the column being drawn (8 of them), the shift amounts of a
    packed table read and a few live columns. Drawing every column at the
    top of each block made it about 35, and one block more per column
    about 59."""
    scm = _xor_chain(24)
    assert _mc_peak(scm, 200_000) <= (len(scm.exogenous) + 16) * scm_mod._BLOCK


def test_mc_memory_does_not_grow_with_width():
    """A column lives only from its first reader to its last, so on a
    chain, where each column has one reader, the traced peak of P(last
    bit = 1) on 48 fair bits is within 10% of that on 24 (about 13.5
    against 12.8 blocks). Drawing every column at the top of each block
    made them about 60 and 35."""
    peaks = [_mc_peak(_xor_chain(bits), 200_000) for bits in (24, 48)]
    assert peaks[1] <= 1.1 * peaks[0]


def test_mc_out_of_memory_is_sample_count_too_large(monkeypatch):
    """A MemoryError in the middle of an estimate, after a whole block has
    been solved, is refused as SampleCountTooLarge, with no traceback."""
    scm = _xor_chain(24)
    phi = OutcomeSpec(((("X23", "eq", "1"),),))
    lookup_out_of_memory(monkeypatch, after=30)
    with pytest.raises(SampleCountTooLarge, match=f"^not enough memory .* {scm_mod._BLOCK} "):
        event_probability_mc(scm, phi, samples=4 * scm_mod._BLOCK, seed=1)


def test_mc_memory_live_columns_when_skipping():
    """The same bound on the chain whose noise skips to its exceptions:
    each variable keeps one buffer of `_REFILL` exceptions, and no
    uniforms."""
    scm = _skewed_chain()
    assert _mc_peak(scm, 200_000) <= (len(scm.exogenous) + 16) * scm_mod._BLOCK


def test_mc_memory_does_not_grow_with_samples():
    """Samples are drawn and solved a block at a time, so on the 24-bit
    chain the traced peak at 40 blocks is within 10% of that at 4."""
    scm = _xor_chain(24)
    peaks = [_mc_peak(scm, blocks * scm_mod._BLOCK) for blocks in (4, 40)]
    assert peaks[1] <= 1.1 * peaks[0]


def test_mc_memory_does_not_grow_with_samples_when_skipping():
    """The same on the chain whose noise skips: the exceptions are drawn
    `_REFILL` at a time into a buffer each variable keeps from block to
    block, so no buffer grows with the sample count."""
    scm = _skewed_chain()
    peaks = [_mc_peak(scm, blocks * scm_mod._BLOCK) for blocks in (4, 40)]
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("dist", [(0.97, 0.03), (0.96, 0.02, 0.02)])
def test_mc_memory_skipping_column_holds_one_refill(dist):
    """Between blocks, a skipping column holds one refill of `_REFILL`
    positions and codes, and no view of a refill it has used up, though
    each block here reaches past one refill."""
    ex = ExogenousVar("U", Domain(tuple("abc"[: len(dist)])), dist)
    list(scm_mod._column(ex, 0, 1, 3 * scm_mod._BLOCK))  # numpy's first-use allocations
    column = scm_mod._column(ex, 0, 1, 8 * scm_mod._BLOCK)
    tracemalloc.start()
    try:
        held = []
        for _ in range(8):
            next(column)
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(held) <= scm_mod._REFILL * (8 + 1) + 8192


def _one_valued_noise():
    """The XOR model with a one-valued noise variable O between its two
    bits, read by C: O's draws sit between theirs in the generator's
    stream."""
    one = Domain(("only",))
    xor = {(a, b): str(int(a != b)) for a in BITS for b in BITS}
    return Scm(
        exogenous=(
            ExogenousVar("E1", Domain(BITS), (0.3, 0.7)),
            ExogenousVar("O", one, (1.0,)),
            ExogenousVar("E2", Domain(BITS), (0.6, 0.4)),
        ),
        endogenous=(
            EndogenousVar("X", Domain(BITS), ("E1",), {("0",): "0", ("1",): "1"}),
            EndogenousVar("C", one, ("O",), {("only",): "only"}),
            EndogenousVar("Y", Domain(BITS), ("X", "E2"), xor),
        ),
    )


def _packing_edges(rng):
    """Random tables with 3- and 5-valued outputs around the packing limit:
    P (3 values, 2 bits) reads 4 x 8 = 32 entries, exactly `_PACK_BITS`
    bits; Q (3 values) reads P and an 11-valued D, 33 entries, just past
    it; R (5 values, 3 bits) reads Q and C; S (binary) reads R and P."""
    def noise(id, size):
        raw = [rng.random() if rng.random() > 0.2 else 0.0 for _ in range(size)]
        raw[0] += 1e-3
        return ExogenousVar(id, Domain(tuple(f"{id}{i}" for i in range(size))),
                            tuple(r / sum(raw) for r in raw))

    def mechanism(id, size, parents):
        domain = Domain(tuple(f"{id}{i}" for i in range(size)))
        table = {combo: rng.choice(domain.values)
                 for combo in itertools.product(*(p.domain.values for p in parents))}
        return EndogenousVar(id, domain, tuple(p.id for p in parents), table)

    a, b, c, d = noise("A", 4), noise("B", 8), noise("C", 3), noise("D", 11)
    p = mechanism("P", 3, (a, b))
    q = mechanism("Q", 3, (p, d))
    r = mechanism("R", 5, (q, c))
    s = mechanism("S", 2, (r, p))
    return Scm(exogenous=(a, b, c, d), endogenous=(p, q, r, s))


@pytest.mark.parametrize("block", [1, 3, 64])
def test_mc_blocks_match_one_stream(monkeypatch, block):
    """Whatever the block size, the estimate is exactly that of one
    generator drawing each column whole with `Generator.choice`, and each
    skipping column whole from its own generator, at sample counts around
    one and two blocks; also on tables of 2- to 3-bit codes packed at the
    limit, and just past it, where they are read by index, and on the
    24-bit chain whose noise all skips."""
    monkeypatch.setattr(scm_mod, "_BLOCK", block)
    rng = random.Random(block)
    models = oracle_models(rng) + [_one_valued_noise()]
    cases = [(scm, random_outcome(rng, scm)) for scm in models]
    edges = _packing_edges(rng)
    sizes = {v.id: len(v.domain) for v in edges.endogenous}
    packed = {vid: scm_mod._pack(lut, sizes[vid]) for vid, _, lut in edges.tables}
    assert {vid: lut.size * (sizes[vid] - 1).bit_length() for vid, _, lut in edges.tables} == {
        "P": scm_mod._PACK_BITS, "Q": 66, "R": 27, "S": 15}
    assert [vid for vid in packed if packed[vid] is None] == ["Q"]
    for clauses in (((("S", "eq", "S1"),),),
                    ((("R", "neq", "R4"), ("P", "eq", "P2")), (("Q", "eq", "Q1"),))):
        cases.append((edges, OutcomeSpec(clauses)))
    cases.append((_skewed_chain(), OutcomeSpec(((("X23", "eq", "1"),),))))
    for seed, (scm, phi) in enumerate(cases):
        for samples in (block - 1, block, block + 1, 2 * block + 1):
            if samples >= 1:
                assert event_probability_mc(scm, phi, samples, seed) == brute_mc(
                    scm, phi, samples, seed
                )


def test_mc_blocks_match_one_stream_on_the_chain():
    """One more sample than a default block on the 24-bit chain gives the
    estimate of one generator drawing each column whole with
    `Generator.choice`, where X23 is the XOR of E0 ... E23."""
    scm = _xor_chain(24)
    samples = scm_mod._BLOCK + 1
    rng = np.random.default_rng(11)
    columns = [rng.choice(2, samples, p=ex.dist) for ex in scm.exogenous]
    want = np.count_nonzero(np.bitwise_xor.reduce(columns)) / samples
    phi = OutcomeSpec(((("X23", "eq", "1"),),))
    assert event_probability_mc(scm, phi, samples, seed=11) == want


def _unread_noise():
    """The XOR model with noise that its X and Y do not read: N1
    (three-valued) drives only Z, and N2 drives nothing. The unread
    variables come first, between and last in model order."""
    tri = Domain(("a", "b", "c"))
    xor = {(a, b): str(int(a != b)) for a in BITS for b in BITS}
    return Scm(
        exogenous=(
            ExogenousVar("N1", tri, (0.2, 0.3, 0.5)),
            ExogenousVar("E1", Domain(BITS), (0.3, 0.7)),
            ExogenousVar("N2", Domain(BITS), (0.5, 0.5)),
            ExogenousVar("E2", Domain(BITS), (0.6, 0.4)),
            ExogenousVar("N3", tri, (0.1, 0.1, 0.8)),
        ),
        endogenous=(
            EndogenousVar("Z", tri, ("N1",), {(v,): v for v in tri.values}),
            EndogenousVar("X", Domain(BITS), ("E1",), {("0",): "0", ("1",): "1"}),
            EndogenousVar("Y", Domain(BITS), ("X", "E2"), xor),
        ),
    )


def _exogenous_ancestors(scm, phi) -> set:
    """The exogenous variables the outcome's variables depend on, found by
    walking the model's parent lists."""
    parents = {v.id: v.parents for v in scm.endogenous}
    seen, todo = set(), [var for clause in phi.clauses for var, _, _ in clause]
    while todo:
        var = todo.pop()
        if var not in seen:
            seen.add(var)
            todo.extend(parents.get(var, ()))
    return seen & {ex.id for ex in scm.exogenous}


def _watch_columns(monkeypatch, seen):
    """Patches `_column` to call `seen(ex, codes)` on each block it yields."""
    column = scm_mod._column

    def watched(ex, j, seed, samples):
        for codes in column(ex, j, seed, samples):
            seen(ex, codes)
            yield codes

    monkeypatch.setattr(scm_mod, "_column", watched)


@pytest.mark.parametrize("clauses, ancestors", [
    (((("Y", "eq", "1"),),), {"E1", "E2"}),
    (((("X", "neq", "1"),),), {"E1"}),
    (((("Z", "eq", "b"),),), {"N1"}),
    (((("Y", "eq", "1"),), (("Z", "eq", "c"),)), {"E1", "E2", "N1"}),
    ((), set()),
    (((),), set()),
])
def test_mc_draws_only_what_it_reads(monkeypatch, clauses, ancestors):
    """Only the exogenous ancestors of the outcome's variables are drawn,
    and the estimate is still exactly that of one generator drawing every
    column whole with `Generator.choice`, over one block and several."""
    scm, phi = _unread_noise(), OutcomeSpec(clauses)
    assert _exogenous_ancestors(scm, phi) == ancestors
    drawn = []
    _watch_columns(monkeypatch, lambda ex, codes: drawn.append(ex.id))
    for block, samples in ((scm_mod._BLOCK, 500), (3, 8), (4, 8)):
        monkeypatch.setattr(scm_mod, "_BLOCK", block)
        for seed in (0, 5):
            drawn.clear()
            assert event_probability_mc(scm, phi, samples, seed) == brute_mc(
                scm, phi, samples, seed
            )
            assert set(drawn) == ancestors
            assert len(drawn) == len(ancestors) * -(-samples // block)


def test_mc_draws_only_ancestors_on_random_models(monkeypatch):
    rng = random.Random(14)
    drawn = set()
    _watch_columns(monkeypatch, lambda ex, codes: drawn.add(ex.id))
    for seed, scm in enumerate(oracle_models(rng)):
        phi = random_outcome(rng, scm)
        drawn.clear()
        assert event_probability_mc(scm, phi, 50, seed) == brute_mc(scm, phi, 50, seed)
        assert drawn == _exogenous_ancestors(scm, phi)


def test_mc_sample_cap(monkeypatch, xor):
    """More than MAX_SAMPLES samples fail before any column or stream is
    built; MAX_SAMPLES itself passes the check and builds a stream."""

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(np.random, "PCG64", reached)
    cap = scm_mod.MAX_SAMPLES
    with monkeypatch.context() as patch:
        patch.setattr(scm_mod, "_column", reached)
        with pytest.raises(SampleCountTooLarge, match=f"^{cap + 1} samples .* {cap}$"):
            event_probability_mc(xor, Y1, cap + 1, seed=0)
    with pytest.raises(Reached):
        event_probability_mc(xor, Y1, cap, seed=0)


@pytest.mark.parametrize("samples", [0, -1])
def test_mc_needs_a_sample(xor, samples):
    with pytest.raises(ValueOutOfDomain, match="^samples must be >= 1$"):
        event_probability_mc(xor, Y1, samples, seed=0)


@pytest.mark.parametrize(
    "query",
    [event_probability, lambda scm, phi: event_probability_mc(scm, phi, 10, seed=0)],
    ids=["exact", "mc"],
)
def test_unknown_comparator_refused(xor, query):
    """A literal compares with "eq" or "neq"; any other comparator is
    refused, not read as one of them."""
    phi = OutcomeSpec(((("Y", "lt", "1"),),))
    with pytest.raises(ValueOutOfDomain, match="^unknown comparator 'lt'$"):
        query(xor, phi)


@pytest.mark.parametrize("values, count, size", [(2, 15_000, "2^15000"),
                                                 (3, 9_100, "more than 2^14423")])
def test_joint_space_past_the_int_digit_limit_named_by_its_power_of_two(
    int_digit_limit, values, count, size
):
    """`abduct` refuses a joint space of values^count settings, past the
    decimal digits Python writes an integer in, with its size as a power of
    two, not with a ValueError from formatting it."""
    domain = Domain(tuple(str(v) for v in range(values)))
    scm = Scm(
        exogenous=tuple(ExogenousVar(f"E{i}", domain, (1 / values,) * values)
                        for i in range(count)),
        endogenous=(EndogenousVar("Y", domain, ("E0",), {(v,): v for v in domain.values}),),
    )
    with pytest.raises(StateSpaceTooLarge,
                       match=re.escape(f"exogenous joint space has {size} states (cap 16777216)")):
        abduct(scm, {"Y": "1"})


# Domain widths at each edge of the draw: one value, the comparison
# cutoff, and the code dtypes' limits.
DRAW_WIDTHS = (1, 2, 3, scm_mod._COMPARE_MAX - 1, scm_mod._COMPARE_MAX,
               scm_mod._COMPARE_MAX + 1, 255, 256, 257, 65_537)


@pytest.mark.parametrize("width", DRAW_WIDTHS)
def test_draw_pins_the_choice_stream(width):
    """`_draw` returns `Generator.choice`'s codes, narrowed, and leaves the
    generator where choice does, with zero probabilities first, in the
    middle or last and totals up to PROB_TOL away from 1."""
    rng = random.Random(width)
    domain = Domain(tuple(range(width)))
    dtype = scm_mod._code_dtype(domain)
    samples = 500 if width < 1000 else 100
    for zero in (None, 0, width // 2, width - 1) if width > 1 else (None,):
        for total in (1.0, 1 + 0.9 * PROB_TOL, 1 - 0.9 * PROB_TOL):
            raw = [rng.random() for _ in range(width)]
            if zero is not None:
                raw[zero] = 0.0
            scale = total / sum(raw)
            ex = ExogenousVar("U", domain, tuple(r * scale for r in raw))
            for seed in range(6):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = scm_mod._draw(got_rng, ex, samples)
                want = want_rng.choice(width, size=samples, p=np.asarray(ex.dist)).astype(dtype)
                assert got.dtype == dtype
                assert np.array_equal(got, want)
                assert got_rng.random() == want_rng.random()


class _Uniforms:
    """A generator stub whose `random(n)` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


@pytest.mark.parametrize(
    "width", [3, scm_mod._COMPARE_MAX, scm_mod._COMPARE_MAX + 1, 300], ids=lambda w: f"w{w}"
)
def test_draw_at_cdf_steps(width):
    """A uniform exactly at a CDF step takes the value after the step, as
    `cdf.searchsorted(u, side="right")` does, whether `_draw` compares (up
    to `_COMPARE_MAX` values) or searches; so do 0, the step just below
    each, and two equal steps, around a zero probability."""
    rng = random.Random(width)
    raw = [rng.random() for _ in range(width)]
    raw[width // 2] = 0.0
    ex = ExogenousVar("U", Domain(tuple(range(width))), tuple(r / sum(raw) for r in raw))
    cdf = np.asarray(ex.dist, dtype=float).cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
    got = scm_mod._draw(_Uniforms(u), ex, len(u))
    assert np.array_equal(got, cdf.searchsorted(u, side="right"))


def _skewed_noise():
    """One noise variable of each kind of draw, each read by its own
    variable, which W reads: A (five values, one of probability 0) and B
    (r exactly `_SKIP_MAX`) skip; C (fair) and F (r = 0.07) compare; D (r = 0) and the one-valued O skip and never draw."""
    five = Domain(tuple("abcde"))
    copy = {(v,): v for v in five.values}
    xor = {(a, b): str(int(a != b)) for a in BITS for b in BITS}
    return Scm(
        exogenous=(
            ExogenousVar("A", five, (0.01, 0.94, 0.0, 0.03, 0.02)),
            ExogenousVar("B", Domain(BITS), (1 - scm_mod._SKIP_MAX, scm_mod._SKIP_MAX)),
            ExogenousVar("C", Domain(BITS), (0.5, 0.5)),
            ExogenousVar("D", Domain(BITS), (0.0, 1.0)),
            ExogenousVar("F", Domain(BITS), (0.93, 0.07)),
            ExogenousVar("O", Domain(("only",)), (1.0,)),
        ),
        endogenous=(
            EndogenousVar("X", five, ("A",), copy),
            EndogenousVar("Y", Domain(BITS), ("B", "C"), xor),
            EndogenousVar("Z", Domain(BITS), ("D", "F"), xor),
            EndogenousVar("K", Domain(("only",)), ("O",), {("only",): "only"}),
            EndogenousVar("W", Domain(BITS), ("X", "Y", "Z"), {
                (x, y, z): str(int((x in "ad") != (y == z))) for x in five.values
                for y in BITS for z in BITS}),
        ),
    )


def _drawn_columns(monkeypatch, scm, phi, samples, seed) -> dict:
    """Each exogenous column one estimate draws, its blocks joined."""
    blocks = {}
    with monkeypatch.context() as patch:
        _watch_columns(patch, lambda ex, codes: blocks.setdefault(ex.id, []).append(codes.copy()))
        event_probability_mc(scm, phi, samples, seed)
    return {vid: np.concatenate(codes) for vid, codes in blocks.items()}


def _run_column(monkeypatch, ex, samples, seed):
    """`_column` of `ex` as variable 0, run to its end: (its blocks joined,
    the state of its bit generator when built, that state after the last
    block, and after each block the positions of the exceptions it holds
    and has not used, or None when it does not skip)."""
    made, generator = [], np.random.Generator

    def build(bits):
        made.append((bits.state, generator(bits)))
        return made[-1][1]

    blocks, buffers = [], []
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Generator", build)
        column = scm_mod._column(ex, 0, seed, samples)
        for codes in column:
            blocks.append(codes)
            held = column.gi_frame.f_locals
            buffers.append(held["pos"][held["i"]:] if "pos" in held else None)
    (first, rng), = made
    return np.concatenate(blocks), first, rng.bit_generator.state, buffers


def _skipping(monkeypatch, ex) -> bool:
    """Whether `_column` draws `ex` by skipping: from the seed's stream
    jumped once, not the seed's own."""
    first = _run_column(monkeypatch, ex, 1, seed=0)[1]
    assert first in (np.random.PCG64(0).state, np.random.PCG64(0).jumped(1).state)
    return first == np.random.PCG64(0).jumped(1).state


@pytest.mark.parametrize("refill", [1, 3, scm_mod._REFILL])
def test_mc_skipping_columns_match_one_stream(monkeypatch, refill):
    """Every drawn column is the oracle's, whatever the block size and
    with refills that end inside a block and across blocks: a skipping
    column from its own generator, any other from `Generator.choice` on
    the one generator. O, whose one value no table reads, is not drawn.
    The zero-probability value never appears, D is always 1, and A and B
    do take values other than their modes."""
    monkeypatch.setattr(scm_mod, "_REFILL", refill)
    scm = _skewed_noise()
    phi = OutcomeSpec(((("W", "eq", "1"),), (("K", "eq", "only"), ("Z", "eq", "0"))))
    assert [ex.id for ex in scm.exogenous if _skipping(monkeypatch, ex)] == ["A", "B", "D", "O"]
    for block in (1, 7, scm_mod._BLOCK):
        monkeypatch.setattr(scm_mod, "_BLOCK", block)
        for samples in (1, 6, 400):
            for seed in (0, 3):
                got = _drawn_columns(monkeypatch, scm, phi, samples, seed)
                want = brute_columns(scm, samples, seed)
                assert set(got) == {"A", "B", "C", "D", "F"}
                assert all(got[v].tolist() == want[v] for v in got)
                assert event_probability_mc(scm, phi, samples, seed) == brute_mc(
                    scm, phi, samples, seed)
    assert 2 not in want["A"] and set(want["D"]) == {1}
    assert set(want["A"]) == {0, 1, 3, 4} and set(want["B"]) == {0, 1}


def test_skip_rule_at_its_bound(monkeypatch):
    """A variable skips when the values other than its mode hold at most
    `_SKIP_MAX`, whichever value the mode is: its column is the oracle's
    skipping column. One ulp more compares: its column is
    `Generator.choice`'s. A one-valued variable, or one whose other values
    all have probability 0, skips with r = 0: every sample takes the mode,
    and its stream is left as it was built."""
    bound, samples = scm_mod._SKIP_MAX, 3000
    for dist, mode in (((1 - bound, bound), 0), ((bound, 1 - bound), 1)):
        ex = ExogenousVar("B", Domain(BITS), dist)
        column = _run_column(monkeypatch, ex, samples, seed=0)[0]
        own = np.random.Generator(np.random.PCG64(0).jumped(1))
        want = brute_skips(ex, samples, own, bound, scm_mod._REFILL)
        assert _skipping(monkeypatch, ex) and column.tolist() == want
        assert 0 < np.count_nonzero(column != mode) < samples / 8
    past = np.nextafter(bound, 1.0)
    ex = ExogenousVar("B", Domain(BITS), (1 - past, past))
    assert not _skipping(monkeypatch, ex)
    column = _run_column(monkeypatch, ex, samples, seed=0)[0]
    assert column.tolist() == np.random.default_rng(0).choice(2, samples, p=ex.dist).tolist()
    for ex, mode in ((ExogenousVar("O", Domain(("only",)), (1.0,)), 0),
                     (ExogenousVar("D", Domain(("a", "b", "c")), (0.0, 1.0, 0.0)), 1)):
        column, first, last, _ = _run_column(monkeypatch, ex, samples, seed=0)
        assert _skipping(monkeypatch, ex) and set(column.tolist()) == {mode} and first == last


@pytest.mark.parametrize("rate", [5e-324, 1e-300, 1e-20, 0.0])
def test_skip_gaps_past_the_int64_range(monkeypatch, rate):
    """numpy's `geometric` saturates at 2^63 - 1 as r nears 0; the gaps are
    clamped before they are summed, so no position wraps to a negative
    index, and over three blocks every sample takes the mode. At r = 0
    nothing is drawn."""
    if rate in (5e-324, 1e-300):
        assert set(np.random.default_rng(0).geometric(rate, 64).tolist()) == {2**63 - 1}
    ex = ExogenousVar("E", Domain(BITS), (1.0, rate))
    assert _skipping(monkeypatch, ex)
    column, first, last, buffers = _run_column(monkeypatch, ex, 2 * scm_mod._BLOCK + 5, seed=4)
    assert len(buffers) == 3 and not column.any()
    assert all((pos >= 0).all() for pos in buffers)
    assert (last == first) == (rate == 0)


@pytest.mark.parametrize("dist", [(0.97, 0.03), (0.01, 0.0, 0.955, 0.02, 0.015)])
def test_skipped_draws_follow_the_distribution(dist):
    """Checked from the distribution alone, not from how it is drawn: over
    10^6 skipped samples, drawn a block at a time, each value's count is
    within 5 SE of n p, so a value of probability 0 never appears, and the
    mean gap between exceptions (values other than the mode) is within 5
    SE of 1/r, r their probability."""
    n = 10**6
    ex = ExogenousVar("U", Domain(tuple("abcde"[: len(dist)])), dist)
    column = np.concatenate(list(scm_mod._column(ex, 0, 2, n)))
    for count, p in zip(np.bincount(column, minlength=len(dist)).tolist(), dist):
        assert abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p))
    r = 1 - max(dist)
    gaps = np.diff(np.flatnonzero(column != dist.index(max(dist))), prepend=-1)
    assert abs(gaps.mean() - 1 / r) <= 5 * math.sqrt((1 - r) / r**2 / len(gaps))


def test_skipping_column_is_common_to_every_estimate(monkeypatch):
    """The common random numbers of two estimates: a skipping variable's
    column is the same whether the variables before it in model order are
    drawn or left undrawn, and whatever the block size."""
    scm, samples = _skewed_noise(), 3000
    alone = OutcomeSpec(((("Z", "eq", "1"),),))
    after = OutcomeSpec(((("Z", "eq", "1"),), (("X", "eq", "a"), ("Y", "eq", "1"))))
    columns = [_drawn_columns(monkeypatch, scm, alone, samples, 8)]
    columns.append(_drawn_columns(monkeypatch, scm, after, samples, 8))
    monkeypatch.setattr(scm_mod, "_BLOCK", 100)
    columns.append(_drawn_columns(monkeypatch, scm, after, samples, 8))
    assert set(columns[0]) == {"D", "F"} and set(columns[1]) == {"A", "B", "C", "D", "F"}
    a = columns[1]["A"]
    assert np.array_equal(a, columns[2]["A"]) and (a != 1).any()
    for column in columns[1:]:
        assert np.array_equal(column["D"], columns[0]["D"])
        assert np.array_equal(column["F"], columns[0]["F"])


def test_intervene_forces_value(xor):
    fixed = intervene(xor, {"X": "1"})
    phi = OutcomeSpec(((("X", "eq", "1"),),))
    assert event_probability(fixed, phi) == 1.0
    both = intervene(xor, {"X": "1", "Y": "0"})
    assert solve(both, {"E1": "0", "E2": "1"}) == {"X": "1", "Y": "0"}


def test_intervene_does_not_mutate(xor):
    snapshot = copy.deepcopy(xor)
    intervene(xor, {"X": "0"})
    assert xor == snapshot


def test_intervene_idempotent_on_constant(xor):
    once = intervene(xor, {"X": "0"})
    twice = intervene(once, {"X": "0"})
    for e1 in BITS:
        for e2 in BITS:
            e = {"E1": e1, "E2": e2}
            assert solve(once, e) == solve(twice, e)


def test_intervene_errors(xor):
    """The first bad binding, in order, is the one named."""
    with pytest.raises(UnknownVariable):
        intervene(xor, {"Z": "0"})
    with pytest.raises(ValueOutOfDomain):
        intervene(xor, {"X": "2"})
    with pytest.raises(UnknownVariable, match="'Z'"):
        intervene(xor, {"Z": "0", "X": "2"})
    with pytest.raises(ValueOutOfDomain, match="'X'"):
        intervene(xor, {"X": "2", "Z": "0"})


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


def _two_rare_bits(p1, p2) -> Scm:
    """E1 and E2 with P(1) = p1 and p2, and X := E1 and E2."""
    return Scm(
        exogenous=(ExogenousVar("E1", Domain(BITS), (1 - p1, p1)),
                   ExogenousVar("E2", Domain(BITS), (1 - p2, p2))),
        endogenous=(EndogenousVar("X", Domain(BITS), ("E1", "E2"),
                                  {("0", "0"): "0", ("0", "1"): "0",
                                   ("1", "0"): "0", ("1", "1"): "1"}),),
    )


@pytest.mark.parametrize("p, shown", [(1e-200, "0.0"), (1e-160, "1e-320")])
def test_abduct_underflowing_observation(p, shown):
    """X = 1 has prior weight p^2, which is 0 or subnormal in floats but
    not impossible: `abduct` refuses it as every exact query does, and an
    observation no setting of positive prior gives stays impossible."""
    scm = _two_rare_bits(p, p)
    assert posterior_support_size(scm, {"X": "1"}) == 1
    with pytest.raises(FloatUnderflow, match=re.escape(f"P(observation) is positive but {shown} ")):
        abduct(scm, {"X": "1"})
    with pytest.raises(FloatUnderflow):
        counterfactual_probability(scm, {"X": "1"}, {}, OutcomeSpec.conjunction([("X", "1")]))
    with pytest.raises(ZeroProbabilityObservation):
        abduct(_two_rare_bits(p, 0.0), {"X": "1"})


def test_abduct_listed_sum_below_the_range_of_its_query():
    """P(X = 1) is the smallest normal float, but `abduct` lists it as two
    products that round down and sum one ulp below it: `abduct` names that
    sum, where `_query` finds the observation in range."""
    scm = Scm(
        exogenous=(ExogenousVar("A", Domain(BITS), (1.0, 2.0**-1022)),
                   ExogenousVar("B", Domain(BITS),
                                (0.0044513498030894555, 0.9955486501969105))),
        endogenous=(EndogenousVar("X", Domain(BITS), ("A",), {("0",): "0", ("1",): "1"}),),
    )
    x1 = OutcomeSpec.conjunction([("X", "1")])
    assert counterfactual_probability(scm, {"X": "1"}, {}, x1) == 1.0
    listed = re.escape(f"P(observation) is positive but {math.nextafter(sys.float_info.min, 0)!r} ")
    with pytest.raises(FloatUnderflow, match=listed):
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


def _uncertain_outcome(rng, scm, tries=20):
    """(phi, P(phi) by the oracle) for the first of up to `tries` random
    outcomes with 0 < P(phi) < 1. Each literal's value is one its variable
    takes: the value it has in the solution of random noise of positive
    probability. An outcome that holds nowhere or everywhere would match
    the oracle whatever the elimination did with the weights."""
    def taken(var):
        return brute_solve(scm, random_noise(rng, scm))[var.id]

    for _ in range(tries):
        phi = random_outcome(rng, scm, value=taken)
        want = brute_event_probability(scm, phi)
        if 0 < want < 1:
            return phi, want
    raise AssertionError(f"none of {tries} outcomes has a probability strictly between 0 and 1")


def _uncertain_counterfactual(rng, scm, tries=20, outcomes=10):
    """(observation, interventions, phi, worlds) for the first of up to
    `tries` random observations and single interventions whose posterior
    reaches `worlds` >= 2 distinct counterfactual worlds, with the first of
    up to `outcomes` random outcomes that holds in some of those worlds and
    not in others, so that 0 < P < 1. Each literal's value is one its
    variable takes in a world. A query with one world, or an outcome that
    holds in all or none, would match the oracle whatever the twin-network
    elimination did with the weights."""
    for _ in range(tries):
        observation = _observe(rng, scm)
        target = rng.choice(scm.endogenous)
        interventions = [(target.id, rng.choice(target.domain.values))]
        solved = [(brute_solve(scm, noise, interventions), p)
                  for noise, p in brute_posterior(scm, observation)]
        worlds = list({tuple((v.id, x[v.id]) for v in scm.endogenous): None for x, _ in solved})
        if len(worlds) < 2:
            continue
        for _ in range(outcomes):
            phi = random_outcome(rng, scm, value=lambda var: dict(rng.choice(worlds))[var.id])
            held = [brute_satisfied(phi.clauses, x) for x, _ in solved]
            if 0 < sum(held) < len(held):
                return observation, interventions, phi, len(worlds)
    raise AssertionError(f"no counterfactual in {tries} tries reaches two worlds with 0 < P < 1")


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


def _copies(n: int, p: float) -> Scm:
    """n copies X_i := E of one bit E with P(E = 1) = p."""
    copy = {("0",): "0", ("1",): "1"}
    return Scm(
        exogenous=(ExogenousVar("E", Domain(BITS), (1 - p, p)),),
        endogenous=tuple(EndogenousVar(f"X{i}", Domain(BITS), ("E",), copy) for i in range(n)),
    )


def test_counterfactual_without_evidence_is_event_probability():
    """With no observation and no intervention a counterfactual is P(phi),
    on random outcomes and on one conjunction over 25 variables, which
    needs no 2^25-entry factor on either path."""
    rng = random.Random(12)
    for scm in oracle_models(rng):
        for _ in range(3):
            phi = random_outcome(rng, scm)
            got = counterfactual_probability(scm, {}, [], phi)
            assert abs(got - event_probability(scm, phi)) <= 1e-12
    scm = _copies(25, 0.5)
    phi = OutcomeSpec.conjunction((f"X{i}", "1") for i in range(25))
    got = counterfactual_probability(scm, {}, [], phi)
    assert abs(got - event_probability(scm, phi)) <= 1e-12


def test_counterfactual_of_one_conjunction_over_many_variables():
    scm = _copies(25, 0.5)
    phi = OutcomeSpec.conjunction((f"X{i}", "1") for i in range(25))
    assert counterfactual_probability(scm, {}, [], phi) == 0.5
    assert counterfactual_probability(scm, {"X0": "1"}, [("X1", "1")], phi) == 1.0
    assert counterfactual_probability(scm, {"X0": "0"}, [("X1", "1")], phi) == 0.0


def test_posterior_support_size_matches_oracle():
    rng = random.Random(13)
    for scm in oracle_models(rng):
        for observation in ({}, _observe(rng, scm)):
            want = len(brute_posterior(scm, observation))
            assert posterior_support_size(scm, observation) == want
    assert posterior_support_size(_copies(25, 0.5), {"X0": "1", "X7": "1"}) == 1
    assert posterior_support_size(_copies(25, 0.5), {"X0": "1", "X7": "0"}) == 0
    assert posterior_support_size(_copies(25, 1.0), {}) == 1


def _rational(scm, terms, observation=None, interventions=()):
    """`_query` over `Fraction`: (E, P(observation)) with exact sums."""
    return scm_mod._query(scm, terms, "outcome", observation, interventions, weight=Fraction)


def test_rational_engine_equals_brute_force():
    """Over `Fraction`, the engine and the oracles both sum the binary
    values the model holds exactly, so they are equal with no tolerance:
    P(phi) and E[cost] on random DNFs, a counterfactual with an observation
    and do(), P(observation) and the support size."""
    rng = random.Random(17)
    for scm in oracle_models(rng, n_random=20):
        phi = random_outcome(rng, scm, clauses=6, literals=3)
        assert _rational(scm, ((phi, 1),))[0] == brute_event_probability(scm, phi, Fraction)
        cost = cost_model(*(
            (tuple((var, value) for var, _, value in clause), rng.uniform(0, 5))
            for clause in phi.clauses
        ))
        assert _rational(scm, cost)[0] == brute_expected_cost(scm, cost, Fraction)
        observation = _observe(rng, scm)
        targets = rng.sample(scm.endogenous, rng.randint(1, min(2, len(scm.endogenous))))
        interventions = [(v.id, rng.choice(v.domain.values)) for v in targets]
        phi = random_outcome(rng, scm, clauses=6, literals=3)
        both, total = _rational(scm, ((phi, 1),), observation, interventions)
        seen = OutcomeSpec.conjunction(observation.items())
        assert total == brute_event_probability(scm, seen, Fraction) > 0
        want = brute_counterfactual_probability(scm, observation, interventions, phi, Fraction)
        assert both / total == want
        support = posterior_support_size(scm, observation)
        assert type(support) is int
        assert support == len(brute_posterior(scm, observation, Fraction))


def _float_bound(scm, ratio=False) -> Fraction:
    """The README's bound on the float engine's relative error against the
    same query over `Fraction`: gamma(k) = k u / (1 - k u), u = 2^-53, where
    k is 2 plus the values of all exogenous variables, and 2k + 1 for a
    counterfactual, a ratio of two such sums."""
    k = 2 + sum(len(ex.domain) for ex in scm.exogenous)
    k = 2 * k + 1 if ratio else k
    return Fraction(k, 2**53 - k)


def _noisy_chain(bits):
    rng = random.Random(bits)
    return _xor_chain(bits, [rng.uniform(0.01, 0.05) for _ in range(bits)])


def _last(bits):
    return OutcomeSpec.conjunction([(f"X{bits - 1}", "1")])


@pytest.mark.parametrize("bits", [500, 1000, 4000])
def test_outcome_on_every_variable_of_a_long_chain_matches_closed_form(bits):
    """P(every X_i = 0) on the noisy chain, one clause that reads every
    variable, is the product of P(E_i = 0) within 1e-12 relative: every X_i
    is 0 exactly when every E_i is."""
    scm = _noisy_chain(bits)
    phi = OutcomeSpec.conjunction((v.id, "0") for v in scm.endogenous)
    want = math.prod(ex.dist[0] for ex in scm.exogenous)
    assert abs(event_probability(scm, phi) - want) <= 1e-12 * want


def test_plans_equal_the_frozen_copy(monkeypatch):
    """Every plan `_query` makes, (steps, unread, largest), equals the plan
    of the copy in `tests/oracles.py` of `_plan` before it kept only reader
    counts, and every refusal reads the same: on `oracle_models` and on 50-
    and 300-bit chains, with random outcomes, an outcome on every variable,
    observations and interventions, at the default cap and at a cap of 16
    entries that refuses some plans."""
    plan, seen = scm_mod._plan, []

    def spy(mechanisms, sizes):
        both = []
        for planner in (frozen_plan, plan):
            try:
                both.append(planner(mechanisms, sizes))
            except StateSpaceTooLarge as exc:
                both.append(str(exc))
        assert both[1] == both[0]
        seen.append(both[1])
        if isinstance(both[1], str):
            raise StateSpaceTooLarge(both[1])
        return both[1]

    monkeypatch.setattr(scm_mod, "_plan", spy)
    rng = random.Random(28)
    models = oracle_models(rng, n_random=30) + [_noisy_chain(50), _noisy_chain(300)]
    for cap in (scm_mod.MAX_STATES, 16):
        monkeypatch.setattr(scm_mod, "MAX_STATES", cap)
        for scm in models:
            x = brute_solve(scm, random_noise(rng, scm))
            targets = rng.sample(scm.endogenous, rng.randint(1, min(2, len(scm.endogenous))))
            interventions = [(v.id, rng.choice(v.domain.values)) for v in targets]
            observation = _observe(rng, scm)
            for query in (
                lambda: event_probability(scm, random_outcome(rng, scm, 3, 3)),
                lambda: event_probability(scm, OutcomeSpec.conjunction(x.items())),
                lambda: counterfactual_probability(
                    scm, observation, interventions, random_outcome(rng, scm, 3, 3)
                ),
                lambda: posterior_support_size(scm, observation),
            ):
                try:
                    query()
                except StateSpaceTooLarge:
                    pass
    refused = sum(isinstance(got, str) for got in seen)
    assert refused >= 2 and len(seen) - refused >= 200


_CHAIN_COST = cost_model(((("X149", "1"),), 3.7), ((("X75", "0"), ("X149", "0")), 1.3))
_ALL_ZERO = OutcomeSpec.conjunction((v.id, "0") for v in pairwise_xor_scm(14).endogenous)
_WIDE_PHI = OutcomeSpec(((("W", "neq", "7"), ("V", "eq", "x")),))


@pytest.mark.parametrize(
    "model, query, rational, ratio, closed",
    [
        (lambda: _noisy_chain(300), lambda scm: event_probability(scm, _last(300)),
         lambda scm: _rational(scm, ((_last(300), 1),))[0], False, None),
        (lambda: _noisy_chain(150), lambda scm: expected_cost(scm, _CHAIN_COST),
         lambda scm: _rational(scm, _CHAIN_COST)[0], False, None),
        (lambda: _noisy_chain(150), lambda scm: counterfactual_probability(
            scm, {"X149": "1"}, [("X74", "0")], _last(150)
        ), lambda scm: operator.truediv(*_rational(
            scm, ((_last(150), 1),), {"X149": "1"}, [("X74", "0")]
        )), True, None),
        (lambda: pairwise_xor_scm(14), lambda scm: event_probability(scm, _ALL_ZERO),
         lambda scm: _rational(scm, ((_ALL_ZERO, 1),))[0], False, Fraction(1, 2**13)),
        (lambda: wide_domain_scm(random.Random(65_537), 65_537),
         lambda scm: event_probability(scm, _WIDE_PHI),
         lambda scm: _rational(scm, ((_WIDE_PHI, 1),))[0], False, None),
    ],
    ids=["chain_300", "chain_150_cost", "chain_150_counterfactual", "clique_14",
         "wide_65537"],
)
def test_float_engine_within_its_bound(model, query, rational, ratio, closed):
    """On models past brute force, the float engine users get is held to a
    relative bound of the same query over `Fraction`. A relative bound is
    sound because every term is non-negative, so no sum cancels. The
    clique's XORs are all 0 when its 14 fair bits are equal, so its
    rational answer is also the closed form 2^-13."""
    scm = model()
    got, want = query(scm), rational(scm)
    assert want > 0
    assert abs(Fraction(got) - want) <= _float_bound(scm, ratio) * want
    assert closed is None or want == closed


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
    phi, want = _uncertain_outcome(rng, scm)
    assert abs(event_probability(scm, phi) - want) <= 1e-12
    observation, interventions, phi, worlds = _uncertain_counterfactual(rng, scm)
    want = brute_counterfactual_probability(scm, observation, interventions, phi)
    assert worlds >= 2 and 0 < want < 1
    got = counterfactual_probability(scm, observation, interventions, phi)
    assert abs(got - want) <= 1e-12


def test_flat_index_wider_than_parent_codes_matches_oracle():
    """W reads two 17-valued parents: its 289 entries need a uint16 flat
    index while each parent's codes are uint8."""
    rng = random.Random(17)
    values = tuple(str(i) for i in range(17))
    wide = Domain(values)

    def dist():
        raw = [rng.random() if rng.random() > 0.2 else 0.0 for _ in values]
        raw[0] += 1e-3
        return tuple(r / sum(raw) for r in raw)

    scm = Scm(
        exogenous=(ExogenousVar("U", wide, dist()), ExogenousVar("V", wide, dist())),
        endogenous=(
            EndogenousVar("W", wide, ("U", "V"),
                          {(u, v): rng.choice(values) for u in values for v in values}),
            EndogenousVar("Y", Domain(BITS), ("V", "W"),
                          {(v, w): rng.choice(BITS) for v in values for w in values}),
        ),
    )
    lut = {vid: table for vid, _, table in scm.tables}["W"]
    assert (lut.size, lut.dtype, np.min_scalar_type(lut.size - 1)) == (289, np.uint8, np.uint16)
    for _ in range(10):
        noise = random_noise(rng, scm)
        assert solve(scm, noise) == brute_solve(scm, noise)
    for _ in range(5):
        phi = random_outcome(rng, scm)
        assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12
        observation = _observe(rng, scm)
        target = rng.choice(scm.endogenous)
        interventions = [(target.id, rng.choice(target.domain.values))]
        got = counterfactual_probability(scm, observation, interventions, phi)
        want = brute_counterfactual_probability(scm, observation, interventions, phi)
        assert abs(got - want) <= 1e-12


def test_pruned_exogenous_mass_matches_oracle(xor):
    """N is no ancestor of any query, so elimination never reads it, but
    its weights still scale every sum, as in enumeration. They total
    1 + 0.9 PROB_TOL, which moves P(Y = 1) = 0.5 by 4.5e-10."""
    total = 1 + 0.9 * PROB_TOL
    scm = Scm(xor.exogenous + (ExogenousVar("N", Domain(BITS), (0.25 * total, 0.75 * total)),),
              xor.endogenous)
    assert abs(event_probability(scm, Y1) - brute_event_probability(scm, Y1)) <= 1e-12
    assert abs(event_probability(scm, Y1) - 0.5 * total) <= 1e-12
    cost = cost_model(((("X", "1"),), 2.0), ((), 1.0))
    got = expected_cost(scm, cost)
    assert abs(got - brute_expected_cost(scm, cost)) <= 1e-12
    got = counterfactual_probability(scm, {"X": "1"}, [("X", "0")], Y1)
    want = brute_counterfactual_probability(scm, {"X": "1"}, [("X", "0")], Y1)
    assert abs(got - want) <= 1e-12


def test_many_one_valued_variables_match_oracle():
    """X reads 30 one-valued exogenous and 30 one-valued endogenous
    parents and a bit, Y those and three more, and the events read some of
    the one-valued ones: more one-valued variables in one bucket than
    einsum has labels (52)."""
    one = Domain(("only",))
    rng = random.Random(60)
    exogenous = tuple(ExogenousVar(f"O{i}", one, (1.0,)) for i in range(30)) + tuple(
        ExogenousVar(f"E{i}", Domain(BITS), (1 - p, p)) for i, p in enumerate((0.2, 0.35))
    )
    consts = tuple(EndogenousVar(f"C{i}", one, (f"O{i}",), {("only",): "only"}) for i in range(30))
    parents = tuple(f"O{i}" for i in range(30)) + tuple(f"C{i}" for i in range(30)) + ("E0",)
    lead = ("only",) * 60
    scm = Scm(
        exogenous=exogenous,
        endogenous=consts + (
            EndogenousVar("X", Domain(BITS), parents, {lead + (b,): b for b in BITS}),
            EndogenousVar("Y", Domain(BITS), ("X", "E1", "C3") + parents,
                          {(x, e) + ("only",) + lead + (b,): rng.choice(BITS)
                           for x in BITS for e in BITS for b in BITS}),
        ),
    )
    phi = OutcomeSpec(((("Y", "eq", "1"), ("C0", "eq", "only")), (("X", "neq", "1"),)))
    assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12
    cost = cost_model(((("C7", "only"), ("Y", "0")), 3.0))
    got = expected_cost(scm, cost)
    assert abs(got - brute_expected_cost(scm, cost)) <= 1e-12
    for observation, interventions in [({"Y": "1", "C1": "only"}, [("X", "1")]),
                                       ({"X": "0"}, [("C2", "only"), ("Y", "0")])]:
        got = counterfactual_probability(scm, observation, interventions, phi)
        want = brute_counterfactual_probability(scm, observation, interventions, phi)
        assert abs(got - want) <= 1e-12


def test_parent_listed_twice_matches_oracle():
    """W lists U twice, with a one-valued parent between: its table keeps
    the diagonal, one axis for U, and the entries off the diagonal, which no
    setting reaches, are never read."""
    rng = random.Random(2)
    values = ("a", "b", "c")
    scm = Scm(
        exogenous=(ExogenousVar("U", Domain(values), (0.2, 0.5, 0.3)),
                   ExogenousVar("O", Domain(("only",)), (1.0,)),
                   ExogenousVar("B", Domain(BITS), (0.6, 0.4))),
        endogenous=(
            EndogenousVar("W", Domain(values), ("U", "O", "U"),
                          {(u, "only", v): rng.choice(values) for u in values for v in values}),
            EndogenousVar("Y", Domain(BITS), ("W", "B", "W"),
                          {(w, b, x): rng.choice(BITS)
                           for w in values for b in BITS for x in values}),
        ),
    )
    assert [(vid, parents, lut.shape) for vid, parents, lut in scm.tables] == [
        ("W", ("U",), (3,)), ("Y", ("W", "B"), (3, 2))]
    for u in values:
        for b in BITS:
            noise = {"U": u, "O": "only", "B": b}
            assert solve(scm, noise) == brute_solve(scm, noise)
    for _ in range(5):
        phi = random_outcome(rng, scm)
        assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12
        observation = _observe(rng, scm)
        target = rng.choice(scm.endogenous)
        interventions = [(target.id, rng.choice(target.domain.values))]
        got = counterfactual_probability(scm, observation, interventions, phi)
        want = brute_counterfactual_probability(scm, observation, interventions, phi)
        assert abs(got - want) <= 1e-12


def test_outcome_on_two_widest_variables_matches_oracle():
    """W and Z take 65,537 values each. Each disjoint conjunction of the
    outcome weighs W and Z by one vector of 65,537 entries each, so no
    factor spans both, which would hold 65,537^2 entries, over the cap."""
    rng = random.Random(3)
    scm = wide_domain_scm(rng, 65_537)
    x, y = (brute_solve(scm, random_noise(rng, scm)) for _ in range(2))
    for phi in [
        # Values that W and Z take, from two solutions.
        OutcomeSpec(((("W", "eq", x["W"]), ("Z", "neq", y["Z"])), (("Z", "eq", x["Z"]),))),
        # Z takes six values in this model; the targets are among them.
        OutcomeSpec((
            (("W", "eq", "4"), ("Z", "neq", "10825")),
            (("Z", "eq", "13390"),),
            (("Z", "eq", "40062"), ("W", "neq", "4")),
            (("Z", "neq", "13390"), ("Z", "eq", "10825")),
        )),
    ]:
        want = brute_event_probability(scm, phi)
        assert 0 < want < 1
        assert abs(event_probability(scm, phi) - want) <= 1e-12


def test_many_clauses_on_one_wide_variable_match_oracle(monkeypatch):
    """W = a_1 or ... or W = a_256, over 256 values that the 65,537-valued W
    takes: the clauses differ in W's weights only, so they join into one
    conjunction, one row of one weight vector, not 256 rows that together
    pass the cap."""
    scm = wide_domain_scm(random.Random(3), 65_537)
    (w,) = (v for v in scm.endogenous if v.id == "W")
    taken = sorted(set(w.mechanism.values()))[:256]
    phi = OutcomeSpec(tuple((("W", "eq", value),) for value in taken))
    rows, real = [], scm_mod._eliminate

    def eliminate(plan, mechanisms, unary, table):
        rows.append(len(table))
        return real(plan, mechanisms, unary, table)

    monkeypatch.setattr(scm_mod, "_eliminate", eliminate)
    got = event_probability(scm, phi)
    assert rows == [1]
    assert abs(got - brute_event_probability(scm, phi)) <= 1e-12


def test_counterfactual_of_a_tautology_is_at_most_one():
    """X = a, or Y = b, or X != a and Y != b, holds everywhere, but its
    disjoint conjunctions are rounded apart from P(observation), so their
    ratio can come out one ulp above 1 (it does for seeds 5, 8 and 10)."""
    for seed in range(11):
        rng = random.Random(seed)
        for scm in oracle_models(rng):
            if len(scm.endogenous) < 2:
                continue
            x, y = rng.sample(scm.endogenous, 2)
            a, b = rng.choice(x.domain.values), rng.choice(y.domain.values)
            phi = OutcomeSpec(
                (((x.id, "eq", a),), ((y.id, "eq", b),), ((x.id, "neq", a), (y.id, "neq", b)))
            )
            observation = _observe(rng, scm)
            target = rng.choice(scm.endogenous)
            interventions = [(target.id, rng.choice(target.domain.values))]
            got = counterfactual_probability(scm, observation, interventions, phi)
            assert 1 - 1e-12 <= got <= 1.0


def test_probability_of_a_near_sure_outcome_is_at_most_one():
    """The 65,537 priors of U sum to 1 + 4.3e-15 in binary, within
    `PROB_TOL`, and W != 7 and Z != 3 holds on almost every setting, so the
    sum the query returns is past 1; the probability reported is at most
    1, and still within 1e-12 of brute force."""
    scm = wide_domain_scm(random.Random(65_537), 65_537)
    phi = OutcomeSpec(((("W", "neq", "7"), ("Z", "neq", "3")),))
    assert scm_mod._query(scm, ((phi, 1.0),), "outcome")[0] > 1
    got = event_probability(scm, phi)
    assert got <= 1.0
    assert abs(got - brute_event_probability(scm, phi)) <= 1e-12


def test_solve_plan_keeps_only_what_is_read():
    """Solving for a subset of the endogenous variables gives the full
    solve's codes on exactly that subset, and leaves the caller's codes
    untouched."""
    rng = random.Random(21)
    gen = np.random.default_rng(21)

    def solved(scm, codes, keep):
        return scm_mod._solve_planned(scm_mod._plan_solve(scm, keep), codes.__getitem__)

    for _ in range(200):
        scm = random_scm(rng, max_exo=8, max_endo=6)
        codes = {
            ex.id: gen.integers(0, len(ex.domain), 32).astype(scm_mod._code_dtype(ex.domain))
            for ex in scm.exogenous
        }
        given = dict(codes)
        ids = [vid for vid, _, _ in scm.tables]
        full = solved(scm, codes, ids)
        for _ in range(3):
            keep = set(rng.sample(ids, rng.randint(1, len(ids))))
            got = solved(scm, codes, keep)
            assert set(got) == keep
            for var in keep:
                assert np.array_equal(got[var], full[var])
            assert codes == given


# (values, parent sizes): tables on each side of the packing limit for
# their output's code width, 64 and 65 one-bit entries, 32 and 33 two-bit,
# 21 and 22 three-bit, 16 and 17 four-bit.
LOOKUP_TABLES = [(2, (8, 8)), (2, (5, 13)), (3, (4, 8)), (3, (3, 11)),
                 (5, (3, 7)), (5, (2, 11)), (16, (16,)), (16, (17,))]


@pytest.mark.parametrize("values, shape", LOOKUP_TABLES)
def test_lookup_matches_take(values, shape):
    """`_lookup` reads what `np.take` reads at the flat C-order index, in
    value and dtype, on random tables packed or past the packing limit,
    compiled from a mechanism with a one-valued parent, which is dropped,
    and a parent listed twice; at array codes, broadcast ones as `abduct`
    passes them, and at scalar codes, as `solve` passes them."""
    rng = random.Random(values * len(shape) + math.prod(shape))
    parents = [ExogenousVar(f"U{i}", Domain(tuple(range(size))), (1 / size,) * size)
               for i, size in enumerate(shape)]
    one = ExogenousVar("O", Domain(("only",)), (1.0,))
    listed = ["U0", "O"] + [p.id for p in parents[1:]] + ["U0"]
    domains = {v.id: v.domain for v in parents + [one]}
    out = Domain(tuple(range(values)))
    table = {combo: rng.choice(out.values)
             for combo in itertools.product(*(domains[p].values for p in listed))}
    table[next(iter(table))] = values - 1  # the widest code, on the diagonal
    scm = Scm(exogenous=(*parents, one), endogenous=(EndogenousVar("T", out, tuple(listed), table),))
    [(_, axes, lut)] = scm.tables
    assert axes == tuple(p.id for p in parents) and lut.shape == shape
    packed = scm_mod._pack(lut, values)
    assert (packed is None) == (lut.size * (values - 1).bit_length() > scm_mod._PACK_BITS)
    grid = np.indices(shape, dtype=np.uint8).reshape(len(shape), -1)
    order = np.random.default_rng(values).permutation(lut.size)
    for codes in ([c[order] for c in grid], list(np.indices(shape, np.uint8, sparse=True))):
        got = scm_mod._lookup(lut, packed, codes)
        want = np.take(lut.ravel(), np.ravel_multi_index(codes, shape))
        assert got.dtype == want.dtype == lut.dtype
        assert np.array_equal(got, want)
    for flat in range(lut.size):
        codes = [int(c) for c in np.unravel_index(flat, shape)]
        got = scm_mod._lookup(lut, packed, codes)
        want = np.take(lut.ravel(), flat)
        assert got.dtype == want.dtype and got == want


def test_one_valued_parent_in_a_full_uint8_index():
    """W's table has 256 entries, a full uint8 flat index; its one-valued
    parent A has stride 256 but code 0 and is left out of the index."""
    rng = random.Random(256)
    values = tuple(str(i) for i in range(256))
    raw = [rng.random() for _ in values]
    scm = Scm(
        exogenous=(
            ExogenousVar("A", Domain(("a",)), (1.0,)),
            ExogenousVar("U", Domain(values), tuple(r / sum(raw) for r in raw)),
        ),
        endogenous=(
            EndogenousVar("W", Domain(values), ("A", "U"),
                          {("a", u): rng.choice(values) for u in values}),
        ),
    )
    for _ in range(5):
        noise = random_noise(rng, scm)
        assert solve(scm, noise) == brute_solve(scm, noise)
        phi = random_outcome(rng, scm)
        assert abs(event_probability(scm, phi) - brute_event_probability(scm, phi)) <= 1e-12
