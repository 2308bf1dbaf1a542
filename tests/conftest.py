import random

import pytest

from blamescope.blame import Action, DiscountSpec, Override, delta
from blamescope.hitl import (
    HITL_OUTCOME,
    CaseLog,
    build_hitl_scm,
    empirical_joint,
    hitl_blame,
    human_only_action,
    run,
)
from blamescope.scm import Domain, EndogenousVar, ExogenousVar, Scm, validate

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


def random_action(rng: random.Random, scm: Scm, label: str) -> Action:
    """Random override of one endogenous variable. Parents are drawn from
    variables that precede it in construction order, so the result stays
    acyclic."""
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
    return Action(label=label, overrides=(Override(target.id, parents, table),))


def random_outcome(rng: random.Random, scm: Scm):
    """Random DNF outcome over the endogenous variables."""
    from blamescope.scm import OutcomeSpec

    def literal():
        var = rng.choice(scm.endogenous)
        return (var.id, rng.choice(("eq", "neq")), rng.choice(var.domain.values))

    n_clauses = rng.randint(1, 2)
    clauses = []
    for _ in range(n_clauses):
        n_lits = rng.randint(1, 2)
        clauses.append(tuple(literal() for _ in range(n_lits)))
    return OutcomeSpec(clauses=tuple(clauses))


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


def exact_and_empirical_delta(cases, policy):
    """(exact, empirical) blameworthiness of the HITL pipeline over a log:
    from the model built on the decided log's joint, and from the log."""
    decisions = run(CaseLog.from_cases(cases), policy)
    empirical = hitl_blame(
        decisions, ai_cost=1.0, review_cost=1.0, discount=DiscountSpec("unit")
    )
    labels, joint = empirical_joint(decisions)
    scm = build_hitl_scm(labels, joint)
    exact = delta(scm, Action("hitl"), human_only_action(labels), HITL_OUTCOME)
    return exact, empirical.delta
