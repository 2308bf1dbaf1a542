import importlib.util
import random
import sys
from pathlib import Path

import pytest

from blamescope.blame import DiscountSpec, apply_action, discounted_blame
from blamescope.hitl import (
    HITL_OUTCOME,
    CaseLog,
    build_hitl_scm,
    empirical_joint,
    hitl_blame,
    human_only_action,
    run,
)
from blamescope import scm as scm_mod
from blamescope.scm import Domain, EndogenousVar, ExogenousVar, OutcomeSpec, Scm, validate

BITS = ("0", "1")


def xor_scm(p_e1=0.5, p_e2=0.3):
    """E1, E2 binary noise; X := E1; Y := X xor E2."""
    scm = Scm(
        exogenous=(
            ExogenousVar("E1", Domain(BITS), (1 - p_e1, p_e1)),
            ExogenousVar("E2", Domain(BITS), (1 - p_e2, p_e2)),
        ),
        endogenous=(
            EndogenousVar("X", Domain(BITS), ("E1",), {("0",): "0", ("1",): "1"}),
            EndogenousVar(
                "Y",
                Domain(BITS),
                ("X", "E2"),
                {
                    ("0", "0"): "0",
                    ("0", "1"): "1",
                    ("1", "0"): "1",
                    ("1", "1"): "0",
                },
            ),
        ),
    )
    validate(scm)
    return scm


@pytest.fixture
def xor():
    return xor_scm()


@pytest.fixture
def int_digit_limit():
    """Python's default limit on the decimal digits of an integer it writes,
    4300, held for one test whatever the interpreter was started with."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def random_scm(rng: random.Random, max_exo=6, max_endo=4):
    """Random acyclic binary SCM: parents are drawn only from earlier
    variables, so acyclicity holds by construction."""
    n_exo = rng.randint(1, max_exo)
    n_endo = rng.randint(1, max_endo)
    exogenous = []
    for i in range(n_exo):
        p1 = rng.random()
        exogenous.append(ExogenousVar(f"E{i}", Domain(BITS), (1 - p1, p1)))
    available = [ex.id for ex in exogenous]
    endogenous = []
    for i in range(n_endo):
        k = rng.randint(0, min(3, len(available)))
        parents = tuple(rng.sample(available, k))
        import itertools

        table = {
            combo: rng.choice(BITS)
            for combo in itertools.product(BITS, repeat=len(parents))
        }
        endogenous.append(EndogenousVar(f"V{i}", Domain(BITS), parents, table))
        available.append(f"V{i}")
    scm = Scm(exogenous=tuple(exogenous), endogenous=tuple(endogenous))
    validate(scm)
    return scm


def random_action(rng: random.Random, scm: Scm) -> dict:
    """Random override of one endogenous variable, as the map
    {var: (parents, table)} that `apply_action` reads. Parents are drawn
    from variables that precede it in construction order, so the result
    stays acyclic."""
    import itertools

    target = rng.choice(scm.endogenous)
    earlier = [ex.id for ex in scm.exogenous]
    for v in scm.endogenous:
        if v.id == target.id:
            break
        earlier.append(v.id)
    k = rng.randint(0, min(2, len(earlier)))
    parents = tuple(rng.sample(earlier, k))
    domains = {v.id: v.domain for v in scm.exogenous + scm.endogenous}
    table = {
        combo: rng.choice(target.domain.values)
        for combo in itertools.product(*(domains[p].values for p in parents))
    }
    return {target.id: (parents, table)}


def cost_model(*terms) -> tuple:
    """The cost model of (where pairs, value) terms, as the tuple of
    (OutcomeSpec, value) terms that `expected_cost` reads."""
    return tuple((OutcomeSpec.conjunction(where), value) for where, value in terms)


def random_outcome(rng: random.Random, scm: Scm, clauses=2, literals=2, value=None):
    """Random DNF outcome over the endogenous variables: 1 to `clauses`
    clauses of 1 to `literals` literals each. A literal's value is
    `value(var)` for its variable, or drawn from the variable's domain."""
    from blamescope.scm import OutcomeSpec

    def literal():
        var = rng.choice(scm.endogenous)
        op = rng.choice(("eq", "neq"))
        return (var.id, op, value(var) if value else rng.choice(var.domain.values))

    n_clauses = rng.randint(1, clauses)
    drawn = []
    for _ in range(n_clauses):
        n_lits = rng.randint(1, literals)
        drawn.append(tuple(literal() for _ in range(n_lits)))
    return OutcomeSpec(clauses=tuple(drawn))


def wide_scm(rng: random.Random):
    """Random acyclic SCM with 2-4 valued variables whose exogenous joint
    space has more than 1024 states, the evaluator's block size; some
    exogenous values have probability zero."""
    import itertools

    exogenous = []
    n_states = 1
    while n_states <= 1024:
        values = tuple("abcd"[: rng.randint(2, 4)])
        raw = [rng.random() if rng.random() > 0.1 else 0.0 for _ in values]
        raw[0] += 1e-3
        exogenous.append(
            ExogenousVar(f"E{len(exogenous)}", Domain(values), tuple(r / sum(raw) for r in raw))
        )
        n_states *= len(values)
    available = [(ex.id, ex.domain) for ex in exogenous]
    endogenous = []
    for i in range(5):
        domain = Domain(tuple("xyz"[: rng.randint(2, 3)]))
        parents = rng.sample(available, rng.randint(0, 3))
        table = {
            combo: rng.choice(domain.values)
            for combo in itertools.product(*(d.values for _, d in parents))
        }
        endogenous.append(EndogenousVar(f"V{i}", domain, tuple(p for p, _ in parents), table))
        available.append((f"V{i}", domain))
    scm = Scm(exogenous=tuple(exogenous), endogenous=tuple(endogenous))
    validate(scm)
    return scm


# Domain sizes at each edge of the code dtypes: the largest uint8 domain,
# the smallest uint16 one, and one past uint16.
WIDE_DOMAIN_SIZES = (2, 255, 256, 257, 65_537)


def wide_domain_scm(rng: random.Random, size: int):
    """Random SCM around one `size`-valued noise variable U and a binary B:
    W := f(U) and Z := h(V, B) take `size` values, V := g(W) three. Some
    values of U have probability zero."""
    values = tuple(str(i) for i in range(size))
    raw = [rng.random() if rng.random() > 0.1 else 0.0 for _ in values]
    raw[0] += 1e-3
    total = sum(raw)
    wide = Domain(values)
    small = Domain(("x", "y", "z"))
    p1 = rng.random()
    scm = Scm(
        exogenous=(
            ExogenousVar("U", wide, tuple(r / total for r in raw)),
            ExogenousVar("B", Domain(BITS), (1 - p1, p1)),
        ),
        endogenous=(
            EndogenousVar("W", wide, ("U",), {(u,): rng.choice(values) for u in values}),
            EndogenousVar("V", small, ("W",), {(w,): rng.choice(small.values) for w in values}),
            EndogenousVar(
                "Z",
                wide,
                ("V", "B"),
                {(v, b): rng.choice(values) for v in small.values for b in BITS},
            ),
        ),
    )
    validate(scm)
    return scm


def constant_scm():
    """No exogenous variables: A := 1, B := not A, C := A and B."""
    scm = Scm(
        exogenous=(),
        endogenous=(
            EndogenousVar("A", Domain(BITS), (), {(): "1"}),
            EndogenousVar("B", Domain(BITS), ("A",), {("0",): "1", ("1",): "0"}),
            EndogenousVar(
                "C",
                Domain(BITS),
                ("A", "B"),
                {(a, b): str(int(a == b == "1")) for a in BITS for b in BITS},
            ),
        ),
    )
    validate(scm)
    return scm


def pairwise_xor_scm(n: int):
    """n fair bits B0..B(n-1) and one XOR per pair, X{i}_{j} := Bi xor Bj.
    An outcome that reads every XOR makes the bits a clique: at n = 26 its
    elimination needs a factor of 2^25 entries, past the 2^24 cap."""
    import itertools

    return Scm(
        exogenous=tuple(ExogenousVar(f"B{i}", Domain(BITS), (0.5, 0.5)) for i in range(n)),
        endogenous=tuple(
            EndogenousVar(f"X{i}_{j}", Domain(BITS), (f"B{i}", f"B{j}"),
                          {(a, b): str(int(a != b)) for a in BITS for b in BITS})
            for i, j in itertools.combinations(range(n), 2)
        ),
    )


def lookup_out_of_memory(monkeypatch, after: int):
    """Makes every `scm._lookup` past the first `after` raise MemoryError,
    as an allocation that does not fit would."""
    lookup, calls = scm_mod._lookup, []

    def failing(*args):
        calls.append(None)
        if len(calls) > after:
            raise MemoryError
        return lookup(*args)

    monkeypatch.setattr(scm_mod, "_lookup", failing)


def oracle_models(rng: random.Random, n_random=60):
    """Models for oracle comparisons: small random binary ones, two larger
    than one evaluator block with non-binary domains, and one with no
    exogenous variables."""
    return [random_scm(rng) for _ in range(n_random)] + [
        wide_scm(rng),
        wide_scm(rng),
        constant_scm(),
    ]


def random_noise(rng: random.Random, scm: Scm):
    """A random exogenous setting of positive probability."""
    return {
        ex.id: rng.choice([v for v, p in zip(ex.domain.values, ex.dist) if p > 0])
        for ex in scm.exogenous
    }


def unit_delta(m_a, m_aprime, phi) -> float:
    """The exact blameworthiness max{0, P(phi | M^a) - P(phi | M^a')}: the
    delta of the blame report with no cost and the unit discount."""
    return discounted_blame(m_a, m_aprime, phi, (), DiscountSpec()).delta


def exact_and_empirical_delta(cases, policy):
    """(exact, empirical) blameworthiness of the HITL pipeline over a log:
    from the model built on the decided log's joint, and from the log."""
    decisions = run(CaseLog.from_cases(cases), policy)
    empirical = hitl_blame(
        decisions, ai_cost=1.0, review_cost=1.0, discount=DiscountSpec("unit")
    )
    labels, joint = empirical_joint(decisions)
    scm = build_hitl_scm(labels, joint)
    m_aprime = apply_action(scm, human_only_action(labels), "human_only")
    exact = unit_delta(scm, m_aprime, HITL_OUTCOME)
    return exact, empirical.delta


@pytest.fixture(scope="session")
def workloads():
    """`perfbench/workloads.py`, which writes the benchmark's XOR-chain
    models and holds their closed forms, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module
