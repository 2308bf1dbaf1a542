"""Finite discrete acyclic structural causal models.

Variables take values in small symbolic domains. Endogenous mechanisms are
explicit lookup tables, so a model is fully serializable and every query is
a weighted sum over the exogenous joint space.

Every query runs on one compiled evaluator. A model is checked and compiled
once, when it is built: `Scm.__post_init__` runs `_compile`, which validates
the model and turns each mechanism into an index-coded lookup table in the
same pass, and keeps the tables on the instance, so any `Scm` that exists is
valid and no query checks it again. `_states` is the only walk over the
exogenous joint space: it yields blocks of weights and the codes of the
variables its caller reads, which `_solve_codes` derives from the exogenous
codes (scalars or arrays). `_solve_codes` solves only the ancestors of those
variables and drops every other column, exogenous ones included, after its
last reader. `_lookup` reads a table through one flat index held in the
smallest unsigned dtype that reaches every entry. A variable's codes are
stored in the smallest unsigned dtype that holds its domain (`uint8` up to
256 values), in the lookup tables, the enumerated states and the Monte Carlo
draws alike. `_holds` evaluates outcome, observation and cost literals as
one DNF mask. `_expectation` is the one exact expectation: an outcome
probability is the expectation of its indicator, an expected cost that of
the weighted cost terms. Expectations, abduction and counterfactuals add up
weights with `math.fsum`, so each sum is correctly rounded and does not
depend on the block size. A counterfactual is read off the twin network: one
exogenous setting drives the factual model, which must reproduce the
observation, and the intervened model, which is checked against the outcome.
The Monte Carlo estimator draws exogenous codes instead of enumerating them,
for spaces too large to enumerate. `_draw` consumes the same uniforms and
returns the same codes as `Generator.choice`, so an estimate depends only on
(seed, samples): a code is the number of CDF steps at or below its uniform,
counted by comparison, or found by binary search in a domain wider than
`_COMPARE_MAX` values. An intervention do(X = x) and an action's overrides
are the same rewrite, `_rewire`: do(X = x) gives X no parents and the
constant mechanism x.
"""

from __future__ import annotations

import graphlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CyclicGraph,
    DanglingParent,
    DuplicateVariable,
    IncompleteExogenousAssignment,
    NonNormalizedDistribution,
    PartialMechanism,
    SampleCountTooLarge,
    StateSpaceTooLarge,
    UnknownVariable,
    ValueOutOfDomain,
    ZeroProbabilityObservation,
)

Assignment = dict  # variable id -> value

PROB_TOL = 1e-9
# Largest exogenous joint space an exact query enumerates.
MAX_STATES = 1 << 24
# Exogenous states per grid block: bounds the evaluator's working memory.
_BLOCK = 1024
# Widest domain whose Monte Carlo draws compare each sample with every CDF
# step; wider ones binary-search the CDF. Set by measurement: at 10^6
# samples on one x86-64 Xeon core, comparing took 0.5x the search's time
# at 64 values, 0.8x at 128 and 1.5x at 256.
_COMPARE_MAX = 128


@dataclass(frozen=True)
class Domain:
    """Ordered finite set of distinct symbolic values."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueOutOfDomain("domain must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise ValueOutOfDomain(f"domain values not unique: {self.values!r}")

    def index(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueOutOfDomain(f"value {value!r} not in domain {self.values!r}") from None

    def __contains__(self, value) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ExogenousVar:
    id: str
    domain: Domain
    dist: tuple  # probabilities aligned with domain.values


@dataclass(frozen=True)
class EndogenousVar:
    id: str
    domain: Domain
    parents: tuple  # parent variable ids, endogenous or exogenous
    mechanism: dict  # parent-value tuple -> value in domain

    def __hash__(self):
        return hash(self.id)


@dataclass(frozen=True)
class Scm:
    """A finite discrete acyclic SCM, checked and compiled when it is built.

    Construction raises CyclicGraph, DanglingParent, DuplicateVariable,
    NonNormalizedDistribution or PartialMechanism naming the offending
    variable. `tables` holds (id, parent ids, lookup table) for each
    endogenous variable in topological order; it is derived, so it is not
    an argument and is neither compared nor shown.
    """

    exogenous: tuple
    endogenous: tuple
    tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tables", _compile(self))


@dataclass(frozen=True)
class OutcomeSpec:
    """Disjunction of conjunctions of (var, comparator, value) literals.

    comparator is "eq" or "neq". An empty clause list is unsatisfiable.
    """

    clauses: tuple  # tuple of clauses; each clause a tuple of (var, cmp, value)

    @classmethod
    def conjunction(cls, pairs) -> OutcomeSpec:
        """The event that every (var, value) pair holds."""
        return cls(clauses=(tuple((var, "eq", value) for var, value in pairs),))


@dataclass(frozen=True)
class NoisePosterior:
    """Posterior over exogenous joint assignments; support holds only
    positive-weight settings as (assignment, probability) pairs."""

    support: tuple


def validate(scm: Scm) -> tuple:
    """The endogenous ids in topological order. The model was checked when
    it was built, so this raises nothing."""
    return tuple(vid for vid, _, _ in scm.tables)


def _code_dtype(domain: Domain) -> np.dtype:
    """The smallest unsigned dtype that holds every code of the domain."""
    return np.min_scalar_type(len(domain) - 1)


def _compile(scm: Scm):
    """Validate the model while building one index-coded lookup table per
    endogenous variable; this is the only walk over mechanism entries, run
    once by Scm construction. Returns (id, parent ids, table) for each
    endogenous variable in topological order, where the table maps parent
    codes to the variable's code."""
    ids = [v.id for v in scm.exogenous] + [v.id for v in scm.endogenous]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateVariable(f"duplicate variable ids: {dupes}")

    for ex in scm.exogenous:
        if len(ex.dist) != len(ex.domain.values):
            raise NonNormalizedDistribution(
                f"{ex.id}: {len(ex.dist)} probabilities for {len(ex.domain.values)} values"
            )
        # Written so that NaN fails both checks.
        if any(not 0 <= p <= 1 for p in ex.dist):
            raise NonNormalizedDistribution(f"{ex.id}: probability outside [0,1]")
        total = math.fsum(ex.dist)
        if not abs(total - 1.0) <= PROB_TOL:
            raise NonNormalizedDistribution(f"{ex.id}: probabilities sum to {total}")

    by_id = {v.id: v for v in itertools.chain(scm.exogenous, scm.endogenous)}
    luts = {}
    for en in scm.endogenous:
        for p in en.parents:
            if p not in by_id:
                raise DanglingParent(f"{en.id}: unknown parent {p!r}")
        parent_domains = [by_id[p].domain for p in en.parents]
        shape = tuple(len(d) for d in parent_domains)
        if len(en.mechanism) != math.prod(shape):
            raise PartialMechanism(
                f"{en.id}: mechanism has {len(en.mechanism)} entries, expected {math.prod(shape)}"
            )
        # A dict, not Domain.index, so that a wide domain compiles in
        # linear time; itertools.product runs in the table's C order.
        code_of = {value: code for code, value in enumerate(en.domain.values)}
        codes = []
        for combo in itertools.product(*(d.values for d in parent_domains)):
            if combo not in en.mechanism:
                raise PartialMechanism(f"{en.id}: missing mechanism entry for {combo!r}")
            try:
                codes.append(code_of[en.mechanism[combo]])
            except (KeyError, TypeError):  # TypeError: an unhashable output
                raise PartialMechanism(
                    f"{en.id}: mechanism output {en.mechanism[combo]!r} outside domain"
                ) from None
        luts[en.id] = np.array(codes, dtype=_code_dtype(en.domain)).reshape(shape)

    # Every id first, in declaration order, so that ties keep that order;
    # exogenous parents are not nodes.
    graph = graphlib.TopologicalSorter(dict.fromkeys(luts, ()))
    for en in scm.endogenous:
        graph.add(en.id, *(p for p in en.parents if p in luts))
    try:
        order = list(graph.static_order())
    except graphlib.CycleError as exc:
        cycle = " -> ".join(exc.args[1])
        raise CyclicGraph(f"cycle among endogenous variables: {cycle}") from None
    return tuple((vid, by_id[vid].parents, luts[vid]) for vid in order)


def _lookup(lut: np.ndarray, parent_codes):
    """`lut` at the parent codes, read through one flat C-order index held
    in the smallest unsigned dtype that reaches every entry, so that the
    index cannot wrap. A one-valued parent always has code 0, so it is left
    out: its stride need not fit that dtype."""
    itype = np.min_scalar_type(lut.size - 1)
    idx, stride = 0, lut.size
    for code, size in zip(parent_codes, lut.shape):
        stride //= size
        if size > 1:
            idx = idx + np.multiply(code, stride, dtype=itype)
    return np.take(lut.ravel(), idx)


def _solve_codes(scm: Scm, codes: dict, keep) -> dict:
    """The codes of the variables in `keep`, from exogenous codes (scalars
    or equal-length arrays). Only their ancestors are solved, and every
    other column, exogenous ones included, is dropped after its last
    reader; the caller's dict is left as it is. This is the only place
    mechanisms are applied."""
    needed = set(keep)
    steps = []
    for vid, parents, lut in reversed(scm.tables):
        if vid in needed:
            needed.update(parents)
            steps.append((vid, parents, lut))
    steps.reverse()
    last = {p: i for i, (_, parents, _) in enumerate(steps) for p in parents}
    codes = {v: c for v, c in codes.items() if v in keep or v in last}
    for i, (vid, parents, lut) in enumerate(steps):
        codes[vid] = _lookup(lut, [codes[p] for p in parents])
        for p in parents:
            if last[p] == i and p not in keep:
                codes.pop(p, None)  # a parent may be listed twice
    return codes


def _holds(clauses, env, shape=()) -> np.ndarray:
    """DNF mask of shape `shape`: where `env` (id -> value or code, scalar
    or array) satisfies at least one clause of (var, "eq"|"neq", target)
    literals. An empty clause list never holds; an empty clause always does."""
    hit = np.zeros(shape, dtype=bool)
    for clause in clauses:
        ok = np.ones(shape, dtype=bool)
        for var, cmp, target in clause:
            if cmp == "eq":
                ok &= env[var] == target
            elif cmp == "neq":
                ok &= env[var] != target
            else:
                raise ValueOutOfDomain(f"unknown comparator {cmp!r}")
        hit |= ok
    return hit


def _encode(scm: Scm, event: OutcomeSpec, what: str) -> tuple:
    """The event's clauses with each literal's value replaced by its code,
    after checking the literals against the model's endogenous domains."""
    domains = {v.id: v.domain for v in scm.endogenous}

    def code(var, value):
        if var not in domains:
            raise UnknownVariable(f"{what} references unknown endogenous variable {var!r}")
        if value not in domains[var]:
            raise ValueOutOfDomain(f"{what} value {value!r} not in domain of {var!r}")
        return domains[var].index(value)

    return tuple(
        tuple((var, cmp, code(var, value)) for var, cmp, value in clause)
        for clause in event.clauses
    )


def _variables(clauses) -> set:
    """The ids a DNF's literals read."""
    return {var for clause in clauses for var, _, _ in clause}


def _states(scm: Scm, keep):
    """Yield (weights, codes) blocks that cover the exogenous joint space in
    itertools.product order; codes holds the variables in `keep`, the
    endogenous ones solved with the model's tables. A state's weight is
    1.0 * p_0[c_0] * p_1[c_1] * ... in axis order."""
    sizes = [len(ex.domain) for ex in scm.exogenous]
    n_states = math.prod(sizes)
    if n_states > MAX_STATES:
        raise StateSpaceTooLarge(
            f"exogenous joint space has {n_states} states (cap {MAX_STATES}); "
            "use the Monte Carlo estimator"
        )
    dists = [np.asarray(ex.dist, dtype=float) for ex in scm.exogenous]
    for start in range(0, n_states, _BLOCK):
        index = np.arange(start, min(start + _BLOCK, n_states))
        weights = np.ones(len(index))
        codes = {}
        for ex, size in zip(reversed(scm.exogenous), reversed(sizes)):
            index, codes[ex.id] = np.divmod(index, size)
        for ex, dist in zip(scm.exogenous, dists):
            # Narrowed after the weight is read: numpy indexes with intp
            # codes faster than with narrow ones, but `_lookup` sums codes
            # into an index no wider than its table needs.
            weights *= dist[codes[ex.id]]
            codes[ex.id] = codes[ex.id].astype(_code_dtype(ex.domain))
        yield weights, _solve_codes(scm, codes, keep)


def _fsum(blocks) -> float:
    """Exact sum of every value in a stream of arrays."""
    return math.fsum(itertools.chain.from_iterable(b.tolist() for b in blocks))


def solve(scm: Scm, e: Assignment) -> Assignment:
    """Evaluate mechanisms in topological order for a total exogenous
    setting; returns the unique total endogenous assignment."""
    for ex in scm.exogenous:
        if ex.id not in e:
            raise IncompleteExogenousAssignment(f"missing exogenous value for {ex.id!r}")
    domains = {v.id: v.domain for v in scm.endogenous}
    codes = _solve_codes(
        scm, {ex.id: ex.domain.index(e[ex.id]) for ex in scm.exogenous}, domains
    )
    return {vid: domains[vid].values[codes[vid]] for vid, _, _ in scm.tables}


def _expectation(scm: Scm, terms, what: str) -> float:
    """Exact expectation over the exogenous joint space of the sum, in term
    order, of the values of the (OutcomeSpec, value) terms whose event
    holds; `what` names the terms in errors."""
    terms = [(_encode(scm, event, what), value) for event, value in terms]
    keep = set().union(*(_variables(clauses) for clauses, _ in terms))

    def weighted():
        for weights, codes in _states(scm, keep):
            per_state = np.zeros(weights.shape)
            for clauses, value in terms:
                per_state[_holds(clauses, codes, weights.shape)] += value
            yield weights * per_state

    return _fsum(weighted())


def event_probability(scm: Scm, phi: OutcomeSpec) -> float:
    """Exact probability of the outcome: the expectation of its indicator."""
    return _expectation(scm, ((phi, 1.0),), "outcome")


def _draw(rng: np.random.Generator, ex: ExogenousVar, samples: int) -> np.ndarray:
    """`samples` codes of `ex` in its code dtype: the values, and the draws
    taken from `rng`, of `rng.choice(len(ex.domain), samples, p=ex.dist)`,
    whose CDF this builds in the same way."""
    cdf = np.asarray(ex.dist, dtype=float).cumsum()
    cdf /= cdf[-1]
    u = rng.random(samples)
    dtype = _code_dtype(ex.domain)
    if len(cdf) > _COMPARE_MAX:
        return cdf.searchsorted(u, side="right").astype(dtype)
    # The number of CDF steps at or below u is searchsorted(side="right"),
    # and the last step, exactly 1, is above every u.
    codes = np.zeros(samples, dtype)
    reached = np.empty(samples, dtype=bool)
    for step in cdf[:-1]:
        np.greater_equal(u, step, out=reached)
        codes += reached.view(np.uint8)
    return codes


def event_probability_mc(
    scm: Scm, phi: OutcomeSpec, samples: int, seed: int
) -> float:
    """Monte Carlo estimate of event_probability; deterministic in
    (seed, samples)."""
    if samples < 1:
        raise ValueOutOfDomain("samples must be >= 1")
    clauses = _encode(scm, phi, "outcome")
    rng = np.random.default_rng(seed)
    try:
        # No name holds the draws, so each column is freed after its
        # last reader.
        codes = _solve_codes(
            scm, {ex.id: _draw(rng, ex, samples) for ex in scm.exogenous}, _variables(clauses)
        )
        hit = _holds(clauses, codes, (samples,))
    except MemoryError:
        raise SampleCountTooLarge(f"not enough memory for {samples} samples") from None
    return float(np.count_nonzero(hit)) / samples


def _rewire(scm: Scm, mechanisms: dict, unknown: str) -> Scm:
    """The model with each variable in `mechanisms` (id -> (parents,
    table)) given that parent list and mechanism, checked as it is built. An
    id that is not endogenous raises UnknownVariable, with the message
    `unknown` followed by the id. The input model is untouched."""
    known = {v.id for v in scm.endogenous}
    for var in mechanisms:
        if var not in known:
            raise UnknownVariable(f"{unknown} {var!r}")
    endogenous = []
    for v in scm.endogenous:
        if v.id in mechanisms:
            parents, table = mechanisms[v.id]
            v = EndogenousVar(v.id, v.domain, tuple(parents), dict(table))
        endogenous.append(v)
    return Scm(exogenous=scm.exogenous, endogenous=tuple(endogenous))


def intervene(scm: Scm, var: str, value) -> Scm:
    """do(var = value): the variable becomes a parentless constant. Returns
    a new model; the input is untouched."""
    for v in scm.endogenous:
        if v.id == var and value not in v.domain:
            raise ValueOutOfDomain(f"value {value!r} not in domain of {var!r}")
    return _rewire(
        scm, {var: ((), {(): value})}, "cannot intervene on unknown endogenous variable"
    )


def _consistent(scm: Scm, observation: Assignment):
    """Yield (weights, exogenous codes) blocks restricted to the
    positive-weight settings under which the model reproduces the
    (possibly partial) endogenous observation."""
    seen = _encode(scm, OutcomeSpec.conjunction(observation.items()), "observation")
    read = _variables(seen) | {ex.id for ex in scm.exogenous}
    for weights, codes in _states(scm, read):
        keep = _holds(seen, codes, weights.shape) & (weights > 0)
        yield weights[keep], {ex.id: codes[ex.id][keep] for ex in scm.exogenous}


def abduct(scm: Scm, observation: Assignment) -> NoisePosterior:
    """Posterior over exogenous joint settings consistent with a (possibly
    partial) endogenous observation."""
    support = []
    for weights, codes in _consistent(scm, observation):
        columns = [(ex, codes[ex.id].tolist()) for ex in scm.exogenous]
        for i, p in enumerate(weights.tolist()):
            support.append(({ex.id: ex.domain.values[col[i]] for ex, col in columns}, p))
    total = math.fsum(p for _, p in support)
    if total == 0:
        raise ZeroProbabilityObservation(
            f"observation {observation!r} is impossible under the model"
        )
    return NoisePosterior(support=tuple((e, p / total) for e, p in support))


def _counterfactual(scm: Scm, observation: Assignment, interventions, phi: OutcomeSpec):
    """(counterfactual probability, posterior support size) on the twin
    network: every exogenous setting consistent with the observation in
    `scm` carries its posterior weight to the intervened model, where the
    outcome is evaluated on the same setting."""
    twin = scm
    for var, value in interventions:
        twin = intervene(twin, var, value)
    clauses = _encode(twin, phi, "outcome")
    read = _variables(clauses)
    kept, hits = [], []
    for weights, codes in _consistent(scm, observation):
        kept.append(weights)
        codes = _solve_codes(twin, codes, read)
        hits.append(weights[_holds(clauses, codes, weights.shape)])
    total = _fsum(kept)
    if total == 0:
        raise ZeroProbabilityObservation(
            f"observation {observation!r} is impossible under the model"
        )
    return _fsum(h / total for h in hits), sum(len(w) for w in kept)


def counterfactual_probability(
    scm: Scm, observation: Assignment, interventions, phi: OutcomeSpec
) -> float:
    """Abduct noise from the observation, apply the interventions, and
    evaluate the outcome probability under the posterior."""
    return _counterfactual(scm, observation, interventions, phi)[0]
