"""Finite discrete acyclic structural causal models.

Variables take values in small symbolic domains. Endogenous mechanisms are
explicit lookup tables, so a model is fully serializable and every exact
query is a sum-product over the exogenous joint space.

A model is checked and compiled once, when it is built: `Scm.__init__`
runs `_compile`, which validates the model and turns each mechanism into an
index-coded lookup table in the same pass, and keeps the tables on the
instance, so any `Scm` that exists is valid and no query checks it again. A
table has one axis per distinct parent with more than one value; a
one-valued variable always has code 0. A variable's codes are stored in the
smallest unsigned dtype that holds its domain (`uint8` up to 256 values), in
the lookup tables and the Monte Carlo draws alike.

Exact queries run by bucket elimination (`_eliminate`), never by walking the
joint space, so their cost grows with the largest factor, not with the
number of exogenous states. The factors are a prior per exogenous variable,
the compiled tables, and 0/1 weights over the codes of one variable
(`_unary`): one vector per observed variable, and one per variable that a
conjunction of the outcome or of a cost term reads. An outcome's DNF is
first split into pairwise disjoint conjunctions (`_disjoint`), each a row
of one batch that the elimination carries, so no factor spans the
variables an outcome reads, in a counterfactual as in a plain query. A
mechanism is a function, so it is never turned into a factor of its own:
once no other mechanism left reads a variable, each factor over it is
indexed with its table (`_substitute`). An exogenous variable is then
summed out with its prior. The order and each factor's size are planned
from scopes alone (`_plan`), and the chunk size from the plan, before any
factor is built: a factor of more than `MAX_STATES` entries in one row is
refused, and a batch whose rows together pass the cap, in a factor or in
the stacked weights, is eliminated in chunks of rows that do not. `_query`
is the one exact query: an outcome probability is the sum of the
probabilities of its disjoint conjunctions, an expected cost the sum of
each cost term's probability times its cost, and a counterfactual the
ratio of two sums of one query on the twin network, where only the
intervened variables and their descendants get copies: P(phi* and
observation) and P(observation). It runs over the number type of its
weights: floats for every report, and 0/1 Python integers for
`posterior_support_size`, P(observation) counted exactly at any size;
that count also tells a float figure below the normal range that is a
true 0 from one that underflowed, which is refused (`FloatUnderflow`).
`_query` is also the one place that refuses an observation: impossible
(`ZeroProbabilityObservation`) when P(observation) is a true 0, and
`FloatUnderflow` when it is positive but below the normal range.
The float sums are not correctly rounded; the tests hold the same query
over `fractions.Fraction` equal to brute-force enumeration.

Mechanisms are applied to exogenous codes (scalars or arrays) in two parts:
a plan (`_plan_solve`), which reads only the ancestors of the variables its
caller reads, and its runner (`_solve_planned`), which takes each exogenous
column just before its first reader and drops every other column,
exogenous ones included, after its last reader.
`_lookup` reads a table at array codes as shifts of one packed integer
when its entries times the bits of one output code fit `_PACK_BITS`
(`_pack`), and otherwise, and at scalar codes, through one flat index held
in the smallest unsigned dtype that reaches every entry. `_holds` evaluates
outcome, observation and cost literals as one DNF mask. The Monte Carlo
estimator plans its solve once, draws the codes of the exogenous variables
the outcome depends on, and no others, and solves them in blocks of
`_BLOCK` samples, so its memory does not grow with the sample count, which
`MAX_SAMPLES` caps. In each block a column is drawn when its first reader
runs and held until its last, so the memory follows the columns live at
one step, not the model's width: on a chain of fair bits the arrays peak
at about 13 blocks at 24 bits and 13.5 at 48, against 35 and 60 when
every column was drawn before the solve. Each variable's codes come from
its own column (`_column`), which fixes how they are drawn and from which
stream of the seed: by skipping to the rare values of skewed noise, or by
`_draw`, with the uniforms and codes of `Generator.choice`. `abduct` lists
the posterior over a grid of the whole exogenous joint space, of at most
`MAX_STATES` settings, and leaves the refusal of its observation to
`_query`. An intervention do(X = x) and an action's overrides are the same
rewrite, `_rewire`: do(X = x) gives X no parents and the constant
mechanism x. `intervene` checks its bindings with `_encode`,
`blame.apply_action` its override ids, and `_rewire` only rewrites.
"""

from __future__ import annotations

import collections
import graphlib
import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import (
    CyclicGraph,
    DanglingParent,
    DuplicateVariable,
    FloatUnderflow,
    IncompleteExogenousAssignment,
    NonFiniteNumber,
    NonNormalizedDistribution,
    PartialMechanism,
    SampleCountTooLarge,
    StateSpaceTooLarge,
    UnknownVariable,
    ValueOutOfDomain,
    ZeroProbabilityObservation,
)
from .record import Value

PROB_TOL = 1e-9
# Largest factor an exact query builds, in entries, and largest exogenous
# joint space `abduct` lists.
MAX_STATES = 1 << 24
# Most samples one Monte Carlo estimate draws: a fixed cap, not a parameter.
MAX_SAMPLES = 1 << 32
# Samples the Monte Carlo estimator draws and solves at once, so its memory
# does not grow with the sample count. Set by measurement, with each column
# drawn at its first reader: at 10^6 samples on 24-bit binary chains on one
# x86-64 Xeon core (the better of two medians of 9), blocks of 2^12, 2^14,
# 2^15 and 2^18 took 2.0x, 1.2x, 1.06x and 1.06x the time of 2^16 on fair
# bits, and 3.2x, 1.5x, 1.1x and 1.4x on bits that skip (P(1) in
# [0.01, 0.05]); 2^17 took 0.94-0.99x but raised the peak resident set by
# 0.2-0.5 MB.
_BLOCK = 1 << 16
# Widest domain whose Monte Carlo draws compare each sample with every CDF
# step; wider ones binary-search the CDF. Set by measurement: at 10^6
# samples on one x86-64 Xeon core, comparing took 0.5x the search's time
# at 64 values, 0.8x at 128 and 1.5x at 256.
_COMPARE_MAX = 128
# Most probability r that the values other than the mode may hold for a
# variable's Monte Carlo draws to skip to its exceptions, r geometric gaps
# apart, instead of comparing a uniform per sample. Set by measurement: per
# 10^6 draws on one x86-64 Xeon core, comparing took 1.8 ms for a binary
# variable and 2.1 ms for five values, and skipping took 0.5 and 0.9 ms at
# r = 0.03, 0.9 and 1.8 ms at 1/16, 1.4 and 2.8 ms at 0.1, and 10 and 17 ms
# at 1/2: up to 1/16 neither kind loses.
_SKIP_MAX = 1 / 16
# Exceptions a skipping variable draws at once, into a buffer it keeps, so
# its draws depend on neither the block size nor the sample count. Set by
# measurement: at 10^6 samples of the 24-bit chain at r = 0.03 on one
# x86-64 Xeon core, refills of 2^10, 2^11, 2^12 and 2^13 took 27.7, 24.0,
# 22.4 and 22.9 ms, and the arrays peaked at 2.1, 2.3, 2.7 and 3.5 MB,
# against 2.3 MB when every variable compares.
_REFILL = 1 << 11
# Most bits a packed table holds (`_pack`): entries times the bits of one
# output code. Set by measurement: on 2^16 codes on one x86-64 Xeon core, a
# packed read took 0.2-0.3x the time of a flat-index read at 2 to 16 bits,
# 0.4-0.65x at 32 and 0.7-1.0x from 33 to 64, so no width up to 64 loses.
_PACK_BITS = 64


class Domain(Value):
    """Ordered finite set of distinct symbolic values. `codes` maps each
    value to its position; it is derived, so it is not an argument and is
    neither compared nor shown. An unhashable value is in no domain."""

    __slots__ = ("values", "codes")
    _fields = ("values",)

    def __init__(self, values: tuple):
        if len(values) == 0:
            raise ValueOutOfDomain("domain must be non-empty")
        codes = {value: code for code, value in enumerate(values)}
        if len(codes) != len(values):
            # A repeated value's code is its last position, not its first.
            value = next(v for code, v in enumerate(values) if codes[v] != code)
            raise ValueOutOfDomain(f"domain value {value!r} is not unique")
        self._init(values, codes)

    def index(self, value) -> int:
        if value not in self:
            raise ValueOutOfDomain(f"value {value!r} not in a domain of {len(self)} values")
        return self.codes[value]

    def __contains__(self, value) -> bool:
        try:
            return value in self.codes
        except TypeError:
            return False

    def __len__(self) -> int:
        return len(self.values)


class ExogenousVar(NamedTuple):
    id: str
    domain: Domain
    dist: tuple  # probabilities aligned with domain.values


class EndogenousVar(NamedTuple):
    id: str
    domain: Domain
    parents: tuple  # parent variable ids, endogenous or exogenous
    mechanism: dict  # parent-value tuple -> value in domain


class Scm(Value):
    """A finite discrete acyclic SCM, checked and compiled when it is built.

    Construction raises CyclicGraph, DanglingParent, DuplicateVariable,
    NonNormalizedDistribution or PartialMechanism naming the offending
    variable. `tables` holds (id, parent ids, lookup table) for each
    endogenous variable in topological order, over its distinct parents
    with more than one value; it is derived, so it is not an argument and
    is neither compared nor shown.
    """

    __slots__ = ("exogenous", "endogenous", "tables")
    _fields = ("exogenous", "endogenous")

    def __init__(self, exogenous: tuple, endogenous: tuple):
        self._init(exogenous, endogenous)
        object.__setattr__(self, "tables", _compile(self))


class OutcomeSpec(NamedTuple):
    """Disjunction of conjunctions of (var, comparator, value) literals.

    comparator is "eq" or "neq". An empty clause list is unsatisfiable.
    """

    clauses: tuple  # tuple of clauses; each clause a tuple of (var, cmp, value)

    @classmethod
    def conjunction(cls, pairs) -> OutcomeSpec:
        """The event that every (var, value) pair holds."""
        return cls(clauses=(tuple((var, "eq", value) for var, value in pairs),))


class NoisePosterior(NamedTuple):
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
    codes to the variable's code. The parent ids are the distinct parents
    with more than one value, one table axis each."""
    ids = collections.Counter(v.id for v in itertools.chain(scm.exogenous, scm.endogenous))
    if ids.total() != len(ids):
        dupes = sorted(i for i, n in ids.items() if n > 1)
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
        # itertools.product runs in the table's C order.
        code_of = en.domain.codes
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
        # A one-valued parent always has code 0, so its axis is dropped: a
        # table may then read more parents than an array has dimensions.
        multi = [p for p, d in zip(en.parents, parent_domains) if len(d) > 1]
        lut = np.array(codes, dtype=_code_dtype(en.domain)).reshape(
            [len(d) for d in parent_domains if len(d) > 1]
        )
        # A parent listed twice reads one code: keep the diagonal.
        distinct = list(dict.fromkeys(multi))
        if len(distinct) < len(multi):
            lut = np.einsum(lut, [distinct.index(p) for p in multi], range(len(distinct))).copy()
        luts[en.id] = (tuple(distinct), lut)

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
    return tuple((vid, *luts[vid]) for vid in order)


def _pack(lut: np.ndarray, size: int):
    """`lut`, the table of a variable with `size` values, packed for
    `_lookup` as (mask, low, width): each entry's code takes `width` =
    (size - 1).bit_length() bits of the integer `mask`, in flat C order from
    the lowest bits, and `low` is 2^width - 1; both are held in the smallest
    unsigned dtype that holds every entry's bits. None when the table has
    no axis, or its entries need no bits or more than `_PACK_BITS`."""
    width = (size - 1).bit_length()
    bits = lut.size * width
    if lut.ndim == 0 or not 0 < bits <= _PACK_BITS:
        return None
    mask = 0
    for i, code in enumerate(lut.ravel().tolist()):
        mask |= code << (i * width)
    dtype = np.min_scalar_type((1 << bits) - 1)
    return dtype.type(mask), dtype.type((1 << width) - 1), width


def _lookup(lut: np.ndarray, packed, parent_codes):
    """`lut` at the parent codes, in the table's dtype; `packed` is
    `_pack`'s form of it, or None. Array codes of a packed table read
    `(mask >> (index * width)) & low` at the flat C-order index, a shift of
    at most 63 bits held in `uint8`, as no packed table has more than 64
    entries; every step names its unsigned dtype, so numpy's promotion
    rules do not change the result. Scalar codes, and tables not packed,
    read the table through the flat index held in the smallest unsigned
    dtype that reaches every entry, so that the index cannot wrap."""
    if packed is not None and any(np.ndim(code) for code in parent_codes):
        mask, low, width = packed
        shift, stride = None, lut.size
        for code, size in zip(parent_codes, lut.shape):
            stride //= size
            term = np.multiply(code, stride * width, dtype=np.uint8)
            shift = term if shift is None else np.add(shift, term, dtype=np.uint8)
        codes = np.right_shift(mask, shift, dtype=mask.dtype)
        np.bitwise_and(codes, low, out=codes)
        return codes.astype(lut.dtype, copy=False)
    itype = np.min_scalar_type(lut.size - 1)
    idx, stride = 0, lut.size
    for code, size in zip(parent_codes, lut.shape):
        stride //= size
        idx = idx + np.multiply(code, stride, dtype=itype)
    return np.take(lut.ravel(), idx)


def _plan_solve(scm: Scm, keep) -> list:
    """The steps by which `_solve_planned` finds the codes of the variables
    in `keep`, which are endogenous ids. A step (id, parents, table, packed
    table, first, dropped) solves one variable in `keep` or one of their
    endogenous ancestors, in model order; `first` lists the exogenous
    parents that no earlier step reads, and `dropped` the parents that no
    later step reads and `keep` leaves out."""
    needed = set(keep)
    steps = []
    for vid, parents, lut in reversed(scm.tables):
        if vid in needed:
            needed.update(parents)
            steps.append((vid, parents, lut))
    steps.reverse()
    solved, first, last = {vid for vid, _, _ in steps}, {}, {}
    for i, (_, parents, _) in enumerate(steps):
        for p in parents:
            first.setdefault(p, i)
            last[p] = i
    sizes = {v.id: len(v.domain) for v in scm.endogenous}
    return [
        (vid, parents, lut, _pack(lut, sizes[vid]),
         [p for p in parents if first[p] == i and p not in solved],
         [p for p in parents if last[p] == i and p not in keep])
        for i, (vid, parents, lut) in enumerate(steps)
    ]


def _solve_planned(plan: list, code) -> dict:
    """The codes of the variables a plan (`_plan_solve`) keeps. `code(v)`
    gives exogenous variable v's codes (scalars or arrays that broadcast
    together); it is called once for each exogenous variable the plan
    reads, just before the first step that reads it, so a column is held
    only from its first reader to its last, after which it is dropped, as
    is every other column `keep` leaves out. This is the only place
    mechanisms are applied to codes."""
    codes = {}
    for vid, parents, lut, packed, first, dropped in plan:
        for p in first:
            codes[p] = code(p)
        codes[vid] = _lookup(lut, packed, [codes[p] for p in parents])
        for p in dropped:
            del codes[p]
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


def _encode(scm: Scm, event: OutcomeSpec, what: str, name=lambda v: v) -> tuple:
    """The event's clauses with each literal's value replaced by its code,
    after checking the literals against the model's endogenous domains, and
    each literal's variable replaced by `name(variable)`."""
    codes = {v.id: v.domain.codes for v in scm.endogenous}

    def code(var, value):
        if var not in codes:
            raise UnknownVariable(f"{what} references unknown endogenous variable {var!r}")
        try:
            return codes[var][value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueOutOfDomain(f"{what} value {value!r} not in domain of {var!r}") from None

    return tuple(
        tuple((name(var), cmp, code(var, value)) for var, cmp, value in clause)
        for clause in event.clauses
    )


def _variables(clauses) -> set:
    """The ids a DNF's literals read."""
    return {var for clause in clauses for var, _, _ in clause}


def solve(scm: Scm, e: dict) -> dict:
    """Evaluate mechanisms in topological order for a total exogenous
    setting; returns the unique total endogenous assignment."""
    for ex in scm.exogenous:
        if ex.id not in e:
            raise IncompleteExogenousAssignment(f"missing exogenous value for {ex.id!r}")
    domains = {v.id: v.domain for v in scm.endogenous}
    codes = {ex.id: ex.domain.index(e[ex.id]) for ex in scm.exogenous}
    codes = _solve_planned(_plan_solve(scm, domains), codes.__getitem__)
    return {vid: domains[vid].values[codes[vid]] for vid, _, _ in scm.tables}


def _count(n: int) -> str:
    """The positive integer n in decimal, or, past the digits Python writes
    an integer in (`sys.get_int_max_str_digits`), by its power of two."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() - 1
        return f"2^{k}" if n == 1 << k else f"more than 2^{k}"


def _check_factor(entries: int, needs="exact query needs a factor of {} entries"):
    if entries > MAX_STATES:
        raise StateSpaceTooLarge(
            f"{needs.format(_count(entries))} (cap {MAX_STATES}); "
            "estimate an outcome probability with `prob --samples N` instead"
        )


def _substitute(table, scope: list, group: list, out: list, mechanisms: dict, unary: dict):
    """The factor over `out`, its scope in the plan (`_plan`), with each
    variable in `group` replaced by its mechanism: each entry reads `table`
    at the codes the lookup tables give for the parents' codes, times each
    variable's unary weights at its code (weights with a leading batch axis
    weigh each batch entry apart). A parent already in `scope` shares its
    axis, so no factor wider than the result is built."""
    ndim = 1 + len(out)

    def along(axis, size):
        return np.arange(size).reshape([-1 if a == axis else 1 for a in range(ndim)])

    codes = {}
    for v in group:
        parents, lut = mechanisms[v]
        axes = [1 + out.index(p) for p in parents]
        shape = [dict(zip(axes, lut.shape)).get(axis, 1) for axis in range(ndim)]
        codes[v] = lut.transpose(sorted(range(len(axes)), key=axes.__getitem__)).reshape(shape)
    index = [along(0, table.shape[0])] + [
        codes[v] if v in codes else along(1 + out.index(v), size)
        for v, size in zip(scope, table.shape[1:])
    ]
    table = table[tuple(index)]
    for v in group:
        if v in unary:
            table = table * np.take(unary[v], codes[v][0], axis=-1)
    return table


def _plan(mechanisms: dict, sizes: dict) -> tuple:
    """The steps of bucket elimination, from scopes alone: (steps, unread,
    largest). `mechanisms` maps each endogenous id to (parent ids, lookup
    table), as in `Scm.tables`, every id after its parents; `sizes` maps
    each variable with unary weights, every exogenous one included, to its
    number of values. One reverse pass counts the readers of each of their
    ancestors; a root is a variable with unary weights that none reads.

    A variable is eliminated once no mechanism still to be eliminated reads
    it. A step is (id, None), an exogenous variable summed out with its
    prior, or (group, out): the endogenous variables with the same parents,
    substituted by their mechanisms at once, and the scope of the factor
    that builds. Exogenous variables go first, as that only shrinks the
    factor; otherwise the group that grows it least. The candidates are the
    factor's own variables and the roots not yet substituted, so no step
    scans the whole model. `unread` lists the exogenous variables no step
    reads; `largest` is the most entries in one row of a factor, and each
    factor is checked against `MAX_STATES` before the next is planned."""
    sizes, pending = dict(sizes), {}  # readers not yet eliminated
    for v in reversed(mechanisms):
        if v in sizes or v in pending:
            parents, lut = mechanisms[v]
            for p, size in zip(parents, lut.shape):
                pending[p], sizes[p] = pending.get(p, 0) + 1, size
    roots = dict.fromkeys(v for v in sizes if v in mechanisms and v not in pending)
    unread = [v for v in sizes if v not in pending and v not in mechanisms]

    def growth(group):
        # A variable with a unary factor and no axis counts as if it had
        # one: otherwise every step on a twin chain would tie with the first
        # step on the factual chain that shares its noise.
        new = {p for v in group for p in mechanisms[v][0] if p not in scope}
        return math.prod(sizes[p] for p in new) / math.prod(sizes[v] for v in group)

    scope, steps, largest = [], [], 1
    while scope or roots:
        ready = [v for v in scope if not pending[v]] + list(roots)
        exogenous = [v for v in ready if v not in mechanisms]
        if exogenous:
            scope = [v for v in scope if v != exogenous[0]]
            steps.append((exogenous[0], None))
            continue
        groups = {}
        for v in ready:
            groups.setdefault(frozenset(mechanisms[v][0]), []).append(v)
        group = min(groups.values(), key=growth)
        new = dict.fromkeys(p for v in group for p in mechanisms[v][0] if p not in scope)
        scope = [v for v in scope if v not in group] + list(new)
        largest = max(largest, math.prod(sizes[v] for v in scope))
        _check_factor(largest)
        steps.append((group, scope))
        for v in group:
            roots.pop(v, None)
            for p in mechanisms[v][0]:
                pending[p] -= 1
    return steps, unread, largest


def _eliminate(plan: tuple, mechanisms: dict, unary: dict, table: np.ndarray):
    """Runs `plan` (`_plan`): the sum over the exogenous joint space of the
    product of the unary factors and of `table`, a batch of one axis.
    `unary` maps every exogenous id to its prior, and any endogenous id to
    weights over its codes, such as the indicator of an observed value, or
    to a row of such weights per batch entry. Each sum is a multiply and a
    reduction, so every row is rounded alike; an exogenous variable that no
    step reads multiplies the result by the sum of its weights."""
    steps, unread, _ = plan
    scope = []
    for step, out in steps:
        if out is None:  # an exogenous variable, summed out with its prior
            k = scope.index(step)
            scope = scope[:k] + scope[k + 1 :]
            table = (table * unary[step].reshape((-1,) + (1,) * (len(scope) - k))).sum(axis=1 + k)
        else:
            table, scope = _substitute(table, scope, step, out, mechanisms, unary), out
    return table * math.prod(unary[v].sum() for v in unread)


def _unary(clause, sizes: dict) -> dict:
    """One 0/1 weight vector per variable a conjunction of encoded literals
    reads, over the variable's codes; two literals on one variable
    multiply."""
    literals = {}
    for literal in clause:
        literals.setdefault(literal[0], []).append(literal)
    return {
        var: _holds((group,), {var: np.arange(sizes[var])}, sizes[var])
        for var, group in literals.items()
    }


def _minus(box: dict, clause: dict) -> list:
    """`box` and not `clause`, two conjunctions as 0/1 weights per variable
    (`_unary`), as disjoint conjunctions: the k-th holds `box`, `clause` on
    the variables of `clause` before its k-th, and not `clause` on its k-th,
    and is left out when no code satisfies it. A box that `clause` cannot
    meet is kept whole."""
    if any(not (box[v] & w).any() for v, w in clause.items() if v in box):
        return [box]
    pieces = []
    for v, w in clause.items():
        have = box.get(v, True)
        if (have & ~w).any():
            pieces.append(box | {v: have & ~w})
        box = box | {v: have & w}
    return pieces


def _merge(boxes: list) -> list:
    """Conjunctions as 0/1 weights per variable (`_unary`), with any that
    read the same variables and differ in one variable's weights only
    replaced by one conjunction, the union of their weights on it. Fewer
    than two boxes are returned as they are."""
    if len(boxes) < 2:
        return boxes
    for var in dict.fromkeys(v for box in boxes for v in box):
        merged = {}
        for box in boxes:
            key = var in box, frozenset((v, w.tobytes()) for v, w in box.items() if v != var)
            if key in merged and var in box:
                box = box | {var: merged[key][var] | box[var]}
            merged[key] = box
        boxes = list(merged.values())
    return boxes


def _disjoint(clauses, sizes: dict) -> list:
    """A DNF of encoded literals C1 or ... or Ck as the pairwise disjoint
    conjunctions C1, C2 and not C1, ..., Ck and not C1 ... not Ck-1, each as
    0/1 weights per variable it reads (`_unary`), without those no code
    satisfies: the sum of disjoint products (Abraham 1979). Clauses that
    differ in one variable's literals only are first joined (`_merge`), so
    W = a1 or ... or W = a256 is one conjunction.

    The pieces are disjoint boxes over the classes of codes the literals
    tell apart, so there are never more pieces than classes. When the
    classes are more than `MAX_STATES`, a bound on the pieces, the sum over
    i of the product of the variable counts of C1 ... Ci-1, times the
    weights one piece can hold, is checked against `MAX_STATES` before any
    clause is joined or piece built."""
    targets = {}
    for var, _, code in (literal for clause in clauses for literal in clause):
        targets.setdefault(var, set()).add(code)
    boxes = [_unary(clause, sizes) for clause in clauses]
    boxes = [box for box in boxes if all(w.any() for w in box.values())]
    if math.prod(min(sizes[v], len(codes) + 1) for v, codes in targets.items()) > MAX_STATES:
        pieces, before = 0, 1  # before: the product of the counts of C1 ... Ci-1
        for box in boxes:
            pieces, before = pieces + before, before * len(box)
        _check_factor(pieces * sum(sizes[v] for v in targets))
    boxes, pieces = _merge(boxes), []
    for i, box in enumerate(boxes):
        parts = [box]
        for clause in boxes[:i]:
            parts = [piece for part in parts for piece in _minus(part, clause)]
        pieces += parts
    return pieces


def _query(scm: Scm, terms, what: str, observation=None, interventions=(), weight=float) -> tuple:
    """The one exact query: (E, P(observation)). E is the expectation over
    the exogenous joint space of the sum of the values of the
    (OutcomeSpec, value) terms whose event holds after the interventions,
    where the observation holds; `what` names the terms in errors. Without
    an observation, P(observation) is None.

    The terms are read on the twin network: the intervened variables and
    their descendants get twin copies, computed by the intervened model's
    mechanisms; every other variable, exogenous ones included, is shared by
    both worlds. Each term's DNF is split into disjoint conjunctions
    (`_disjoint`), and each of them is one row of the batch that
    `_eliminate` carries, as a unary weight vector per variable it reads;
    given an observation, one more row reads no term and gives
    P(observation). The observation is one unary indicator per observed
    variable, on every row. It is planned once (`_plan`), and the rows are
    eliminated in chunks of as many as fit `MAX_STATES` in its largest
    factor and in a weight vector of the widest variable they read. Each
    prior and term value is read as `weight` of it. With `float`, E is the
    `math.fsum` of each row's probability times its term's value; any other
    type, such as 0/1 ints or `Fraction`, sums exactly in object arrays.

    A float E past the float range raises NonFiniteNumber. A float figure
    below the normal range, where the README's bound fails, is checked by
    the same query over 0/1 integers: it raises FloatUnderflow unless it is
    0 and no setting of positive weight counts towards it. A P(observation)
    still 0 after that count is a true 0: no setting reproduces the
    observation, which raises ZeroProbabilityObservation. No other function
    refuses an observation."""
    done = dict(interventions)
    twin = intervene(scm, done) if done else scm
    mechanisms = {vid: (parents, lut) for vid, parents, lut in scm.tables}
    sizes, star = {v.id: len(v.domain) for v in scm.endogenous}, {}
    for vid, parents, lut in twin.tables:
        if vid in done or any(p in star for p in parents):
            star[vid] = ("twin", vid)
            sizes[star[vid]] = sizes[vid]
            mechanisms[star[vid]] = (tuple(star.get(p, p) for p in parents), lut)
    coded = [(_encode(twin, e, what, lambda v: star.get(v, v)), x) for e, x in terms]
    dtype = float if weight is float else object
    unary = {ex.id: np.array([weight(p) for p in ex.dist], dtype) for ex in scm.exogenous}
    seen = _encode(scm, OutcomeSpec.conjunction((observation or {}).items()), "observation")
    unary |= _unary(seen[0], sizes)
    rows = [(piece, value) for clauses, value in coded for piece in _disjoint(clauses, sizes)]
    rows += [] if observation is None else [({}, 0.0)]
    read = dict.fromkeys(v for row, _ in rows for v in row)
    read = {v: np.ones(sizes[v], dtype=bool) for v in read}
    plan = _plan(mechanisms, {v: len(w) for v, w in (unary | read).items()})
    fit = max(1, MAX_STATES // max([plan[2], *map(len, read.values())]))
    p = [np.zeros(0, dtype)]
    for chunk in (rows[i : i + fit] for i in range(0, len(rows), fit)):
        weights = unary | {
            v: unary.get(v, True) * np.stack([row.get(v, ones) for row, _ in chunk])
            for v, ones in read.items()
        }
        p.append(_eliminate(plan, mechanisms, weights, np.ones(len(chunk), dtype)))
    p = np.concatenate(p)
    if dtype is not float:
        return sum(p * [weight(x) for _, x in rows]), None if observation is None else p[-1]
    figure = f"the expected sum of {what} values"
    try:
        with np.errstate(over="raise"):
            e = math.fsum(p * [x for _, x in rows])
    except (OverflowError, FloatingPointError):
        raise NonFiniteNumber(f"{figure} is past the float range") from None
    total = None if observation is None else float(p[-1])
    if min(e, 1.0 if total is None else total) < sys.float_info.min:
        count, support = _query(scm, terms, what, observation, interventions, lambda x: int(x > 0))
        for name, x, n in (("P(observation)", total, support), (figure, e, count)):
            if x is not None and x < sys.float_info.min and (x or n):
                raise _underflow(name, x)
        if total == 0:
            raise ZeroProbabilityObservation(
                f"observation {observation!r} is impossible under the model"
            )
    return e, total


def _underflow(name: str, x: float) -> FloatUnderflow:
    return FloatUnderflow(
        f"{name} is positive but {x!r} in floats, below the normal range "
        f"(from {sys.float_info.min!r}), where the float result has no bound"
    )


def event_probability(scm: Scm, phi: OutcomeSpec) -> float:
    """Exact probability of the outcome: the expectation of its indicator.
    A model's priors may sum to 1 within `PROB_TOL`, and the sum is
    rounded, so a probability past 1 is read as 1."""
    return min(_query(scm, ((phi, 1.0),), "outcome")[0], 1.0)


def _draw(rng: np.random.Generator, ex: ExogenousVar, samples: int) -> np.ndarray:
    """The values, in `ex`'s code dtype, and the draws taken from `rng`, of
    `rng.choice(len(ex.domain), samples, p=ex.dist)`, whose CDF this builds
    in the same way. Up to `_COMPARE_MAX` values, the codes start as the
    first CDF comparison and add one comparison per further step, so a
    binary column is one `>=` over its uniforms."""
    cdf = np.asarray(ex.dist, dtype=float).cumsum()
    cdf /= cdf[-1]
    u = rng.random(samples)
    if len(cdf) > _COMPARE_MAX:
        return cdf.searchsorted(u, side="right").astype(_code_dtype(ex.domain))
    # The number of CDF steps at or below u is searchsorted(side="right"),
    # and the last step, exactly 1, is above every u. A domain this narrow
    # has `uint8` codes.
    codes = np.greater_equal(u, cdf[0]).view(np.uint8)
    reached = np.empty(samples, dtype=bool)
    for step in cdf[1:-1]:
        np.greater_equal(u, step, out=reached)
        codes += reached.view(np.uint8)
    return codes


def _fill(samples: int, mode, exceptions: list) -> np.ndarray:
    """`samples` codes, each `mode` but at the (positions, codes) pairs it
    takes off `exceptions`, so its caller keeps no view of a spent refill."""
    column = np.full(samples, mode)
    while exceptions:
        at, codes = exceptions.pop()
        column[at] = codes
    return column


def _column(ex: ExogenousVar, j: int, seed: int, samples: int):
    """`ex`'s `samples` codes, `_BLOCK` at a time, each block a fresh array
    the generator does not keep; j is `ex`'s index in model order. The
    stream rules are here, and an estimate depends only on (seed, samples):
    not on the block size, nor on which variables are drawn.

    The mode is the first most likely value; r, the other values'
    probability under `_draw`'s normalisation, is summed apart from it, so
    that a tiny r is not lost. If r > `_SKIP_MAX`, the blocks are `_draw`'s
    on the seed's PCG64 stream advanced j * samples draws: the column of one
    `default_rng(seed)` drawing each variable's whole, in model order, with
    `Generator.choice`. Otherwise the column skips (Devroye 1986, ch. 10):
    every sample takes the mode but the exceptions, geometric(r) gaps
    apart, none when r is 0, on the seed's stream jumped j + 1 times (about
    2^127 draws each), as its draw count varies. Exceptions are drawn
    `_REFILL` at a time into a buffer kept from block to block: the gaps,
    then, with more than two values, one uniform each on the other values'
    CDF, renormalised. A gap is clamped past `MAX_SAMPLES` before it is
    summed, as numpy's `geometric` saturates at 2^63 - 1 for r below about
    1e-19."""
    p = np.asarray(ex.dist, dtype=float)
    mode = int(p.argmax())
    rest = np.delete(p, mode).cumsum()
    rate = rest[-1] / p.cumsum()[-1] if rest.size else 0.0
    blocks = range(0, samples, _BLOCK)
    if rate > _SKIP_MAX:
        rng = np.random.Generator(np.random.PCG64(seed).advance(j * samples))
        for start in blocks:
            yield _draw(rng, ex, min(_BLOCK, samples - start))
        return
    rng = np.random.Generator(np.random.PCG64(seed).jumped(j + 1))
    others = np.delete(np.arange(len(p)), mode).astype(_code_dtype(ex.domain))
    cdf = rest / rest[-1] if rate else rest
    # The last refill: positions from the block's first sample, codes
    # (unread if there is one other value) and the first index not used.
    pos, codes, i = np.empty(0, np.int64), others[:0], 0
    for start in blocks:
        block = min(_BLOCK, samples - start)
        exceptions = []
        while rate:
            k = i + pos[i:].searchsorted(block)
            exceptions.append((pos[i:k], codes[i:k] if len(others) > 1 else others[0]))
            if k < len(pos):
                i = k
                break
            last = pos[-1] if len(pos) else -1
            pos = np.minimum(rng.geometric(rate, _REFILL), MAX_SAMPLES + 1).cumsum()
            pos += last
            if len(others) > 1:
                codes = others[cdf.searchsorted(rng.random(_REFILL), side="right")]
            i = 0
        yield _fill(block, others.dtype.type(mode), exceptions)
        pos -= block


def event_probability_mc(
    scm: Scm, phi: OutcomeSpec, samples: int, seed: int
) -> float:
    """Monte Carlo estimate of event_probability; deterministic in (seed,
    samples). The solve is planned once (`_plan_solve`), then samples are
    drawn and solved `_BLOCK` at a time, and only the exogenous variables
    the outcome's variables depend on are drawn, each from its own column
    (`_column`). The solve draws each column's block when its first reader
    runs and drops it after its last, so the memory held at once follows
    the columns live at one step, not the model's width."""
    if samples < 1:
        raise ValueOutOfDomain("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise SampleCountTooLarge(f"{samples} samples exceed the cap of {MAX_SAMPLES}")
    clauses = _encode(scm, phi, "outcome")
    plan = _plan_solve(scm, _variables(clauses))
    read = {p for *_, first, _ in plan for p in first}
    columns = {ex.id: _column(ex, j, seed, samples)
               for j, ex in enumerate(scm.exogenous) if ex.id in read}
    hits = 0
    try:
        for start in range(0, samples, _BLOCK):
            block = min(_BLOCK, samples - start)
            codes = _solve_planned(plan, lambda v: next(columns[v]))
            hits += int(np.count_nonzero(_holds(clauses, codes, (block,))))
    except MemoryError:
        raise SampleCountTooLarge(
            f"not enough memory to hold a block of {_BLOCK} samples of each "
            "column live at one step of the solve"
        ) from None
    return hits / samples


def _rewire(scm: Scm, mechanisms: dict) -> Scm:
    """The model with each variable in `mechanisms` (id -> (parents,
    table)) given that parent list and mechanism, checked as it is built.
    The caller passes endogenous ids: `intervene` and `apply_action` check
    theirs. The input model is untouched."""
    endogenous = []
    for v in scm.endogenous:
        if v.id in mechanisms:
            parents, table = mechanisms[v.id]
            v = EndogenousVar(v.id, v.domain, tuple(parents), dict(table))
        endogenous.append(v)
    return Scm(exogenous=scm.exogenous, endogenous=tuple(endogenous))


def intervene(scm: Scm, bindings: dict) -> Scm:
    """do(var = value) for each pair of `bindings`, in one rewrite: each
    variable becomes a parentless constant. The bindings are checked by
    `_encode`, as an observation is, so the first bad one, in order,
    raises. Returns a new model; the input is untouched."""
    _encode(scm, OutcomeSpec.conjunction(bindings.items()), "intervention")
    return _rewire(scm, {var: ((), {(): value}) for var, value in bindings.items()})


def abduct(scm: Scm, observation: dict) -> NoisePosterior:
    """Posterior over exogenous joint settings consistent with a (possibly
    partial) endogenous observation, over a grid of the whole exogenous
    joint space: at most MAX_STATES settings. When the listed weights sum
    below the normal float range, `_query` refuses the observation, as in
    every exact query: ZeroProbabilityObservation if it is impossible,
    FloatUnderflow if it is possible. If `_query` finds P(observation) in
    range, the listed sum is still below it, and FloatUnderflow names that
    sum."""
    seen = _encode(scm, OutcomeSpec.conjunction(observation.items()), "observation")
    multi = [ex for ex in scm.exogenous if len(ex.domain) > 1]
    sizes = tuple(len(ex.domain) for ex in multi)
    _check_factor(math.prod(sizes), "exogenous joint space has {} states")
    grid = dict(zip((ex.id for ex in multi), np.indices(sizes, sparse=True)))
    weights, codes = np.ones(sizes), {}
    for ex in scm.exogenous:
        code = grid.get(ex.id, 0)
        weights = weights * np.asarray(ex.dist, dtype=float)[code]
        codes[ex.id] = np.asarray(code).astype(_code_dtype(ex.domain))
    plan = _plan_solve(scm, _variables(seen))
    held = _holds(seen, _solve_planned(plan, codes.__getitem__), sizes)
    listed = held & (weights > 0)
    support = []
    for row, p in zip(np.argwhere(listed).tolist(), weights[listed].tolist()):
        row = dict(zip(grid, row))
        support.append(
            ({ex.id: ex.domain.values[row.get(ex.id, 0)] for ex in scm.exogenous}, p)
        )
    total = math.fsum(p for _, p in support)
    if total < sys.float_info.min:
        _query(scm, (), "observation", observation)
        raise _underflow("P(observation)", total)
    return NoisePosterior(support=tuple((e, p / total) for e, p in support))


def counterfactual_probability(
    scm: Scm, observation: dict, interventions, phi: OutcomeSpec
) -> float:
    """P(phi after the interventions | observation): abduct the noise from
    the observation, apply the interventions, and evaluate the outcome
    under the posterior, as P(phi on the twins and the observation) /
    P(observation), both from one elimination (`_query`), which refuses an
    impossible or underflowing observation. The two are rounded apart, so
    a ratio past 1 by an ulp is read as 1."""
    both, total = _query(scm, ((phi, 1.0),), "outcome", observation, interventions)
    return min(both / total, 1.0)


def posterior_support_size(scm: Scm, observation: dict) -> int:
    """The number of exogenous settings of positive prior weight that
    reproduce the observation: P(observation) with each prior read as 0 or
    1 in Python integers, so it is exact at any size."""
    return _query(scm, (), "observation", observation, weight=lambda p: int(p > 0))[1]
