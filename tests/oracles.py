"""Independent brute-force oracles.

Everything here is written from the definitions with plain loops and no
calls into the library's computation paths, so that library results can be
checked against a second, independent implementation. The oracles that sum
probabilities take `number`, the type each probability and cost is read as
and summed in: float by default, or `fractions.Fraction` for exact sums of
the binary values the model holds.
"""

import csv
import io
import itertools
import math

import numpy as np

from blamescope import scm as scm_module
from blamescope.errors import MalformedRow


def brute_solve(scm, noise, do=()):
    """Fixpoint sweep: repeatedly evaluate any variable whose parents are
    all known. No topological order is computed. `do` holds
    (variable, value) interventions that replace those mechanisms."""
    forced = dict(do)
    env = dict(noise)
    pending = list(scm.endogenous)
    while pending:
        progressed = False
        remaining = []
        for var in pending:
            if var.id in forced:
                env[var.id] = forced[var.id]
                progressed = True
            elif all(p in env for p in var.parents):
                env[var.id] = var.mechanism[tuple(env[p] for p in var.parents)]
                progressed = True
            else:
                remaining.append(var)
        if not progressed:
            raise RuntimeError("no progress; model is cyclic")
        pending = remaining
    return {v.id: env[v.id] for v in scm.endogenous}


def brute_satisfied(clauses, x):
    """DNF of (var, "eq"|"neq", value) literals against an assignment."""
    for clause in clauses:
        ok = True
        for var, cmp, value in clause:
            if (x[var] == value) != (cmp == "eq"):
                ok = False
        if ok:
            return True
    return False


def brute_noise(scm, number=float):
    """Yield (exogenous assignment, probability) over the joint space."""
    dists = [[number(p) for p in ex.dist] for ex in scm.exogenous]
    for combo in itertools.product(*(range(len(ex.domain.values)) for ex in scm.exogenous)):
        prob = number(1)
        noise = {}
        for ex, dist, idx in zip(scm.exogenous, dists, combo):
            prob *= dist[idx]
            noise[ex.id] = ex.domain.values[idx]
        yield noise, prob


def brute_event_probability(scm, phi, number=float):
    """Enumerate the exogenous joint space directly."""
    total = number(0)
    for noise, prob in brute_noise(scm, number):
        if prob > 0 and brute_satisfied(phi.clauses, brute_solve(scm, noise)):
            total += prob
    return total


def brute_skips(ex, samples, rng, skip_max, refill):
    """The column of `samples` codes of `ex` by geometric skipping, or None
    when `ex` does not skip: it skips when the values other than its mode
    (the first most likely value) have probability r <= `skip_max`, each
    probability divided by their running total. Every sample takes the
    mode but the exceptions, at -1 + g1, -1 + g1 + g2, ..., where the gaps
    are drawn `refill` at a time by `rng.geometric(r)`. With more than two
    values, each refill of gaps is followed by `refill` uniforms, and the
    k-th picks the k-th exception's value by the other values' running
    totals, divided by their sum. Positions are Python integers, so
    nothing wraps."""
    total = 0.0
    for p in ex.dist:
        total += p
    mode = max(range(len(ex.dist)), key=lambda i: (ex.dist[i], -i))
    others = [i for i in range(len(ex.dist)) if i != mode]
    steps, rest = [], 0.0
    for i in others:
        rest += ex.dist[i]
        steps.append(rest)
    rate = rest / total
    if rate > skip_max:
        return None
    column, position = [mode] * samples, -1
    while rate and position < samples:
        gaps = rng.geometric(rate, refill)
        picks = rng.random(refill) if len(others) > 1 else [0.0] * refill
        for gap, u in zip(gaps.tolist(), picks):
            position += gap
            if position < samples:
                column[position] = others[sum(u >= step / rest for step in steps[:-1])]
    return column


def brute_columns(scm, samples, seed):
    """Each exogenous variable's column of `samples` codes, drawn whole in
    model order with `Generator.choice` from one generator of `seed`. A
    variable that skips (`brute_skips`, by the estimator's `_SKIP_MAX` and
    `_REFILL` as they are when this is called) draws its column from its
    own generator, the seed's PCG64 jumped once per variable up to and
    including it, and the `samples` uniforms it would have read from the
    one generator go unread."""
    rng = np.random.default_rng(seed)
    columns = {}
    for j, ex in enumerate(scm.exogenous):
        own = np.random.Generator(np.random.PCG64(seed).jumped(j + 1))
        column = brute_skips(ex, samples, own, scm_module._SKIP_MAX, scm_module._REFILL)
        if column is None:
            column = rng.choice(len(ex.domain.values), samples, p=ex.dist).tolist()
        else:
            rng.random(samples)
        columns[ex.id] = column
    return columns


def brute_mc(scm, phi, samples, seed):
    """Monte Carlo estimate of P(phi) on the columns of `brute_columns`:
    every sample is solved and checked on its own."""
    columns = brute_columns(scm, samples, seed)
    hits = 0
    for i in range(samples):
        noise = {ex.id: ex.domain.values[columns[ex.id][i]] for ex in scm.exogenous}
        hits += brute_satisfied(phi.clauses, brute_solve(scm, noise))
    return hits / samples


def brute_expected_cost(scm, cost, number=float):
    """Expected cost of a model that already has the action applied: each
    setting pays every (event, cost) term whose event holds."""
    total = number(0)
    for noise, prob in brute_noise(scm, number):
        x = brute_solve(scm, noise)
        for event, value in cost:
            if brute_satisfied(event.clauses, x):
                total += prob * number(value)
    return total


def brute_posterior(scm, observation, number=float):
    """(noise, posterior probability) for every positive-weight setting that
    reproduces the observation; empty when the observation is impossible."""
    support = []
    for noise, prob in brute_noise(scm, number):
        x = brute_solve(scm, noise)
        if prob > 0 and all(x[var] == value for var, value in observation.items()):
            support.append((noise, prob))
    total = sum(p for _, p in support)
    return [(noise, p / total) for noise, p in support]


def brute_counterfactual_probability(scm, observation, interventions, phi, number=float):
    """Abduct, intervene, predict: re-solve each posterior setting with the
    interventions forced. None when the observation is impossible."""
    posterior = brute_posterior(scm, observation, number)
    if not posterior:
        return None
    return sum(
        p
        for noise, p in posterior
        if brute_satisfied(phi.clauses, brute_solve(scm, noise, interventions))
    )


def brute_qwk(counts):
    """Quadratic weighted kappa straight from the formula, pure loops."""
    k = len(counts)
    n = sum(sum(row) for row in counts)
    observed = [[counts[i][j] / n for j in range(k)] for i in range(k)]
    row_marg = [sum(observed[i]) for i in range(k)]
    col_marg = [sum(observed[i][j] for i in range(k)) for j in range(k)]
    num = 0.0
    den = 0.0
    for i in range(k):
        for j in range(k):
            w = (i - j) ** 2 / (k - 1) ** 2
            num += w * observed[i][j]
            den += w * row_marg[i] * col_marg[j]
    if den == 0.0:
        raise ZeroDivisionError("degenerate marginals")
    return 1.0 - num / den


def brute_prf1(preds, trues, positive):
    """Precision/recall/F1 by direct counting."""
    tp = sum(1 for p, t in zip(preds, trues) if p == positive and t == positive)
    fp = sum(1 for p, t in zip(preds, trues) if p == positive and t != positive)
    fn = sum(1 for p, t in zip(preds, trues) if p != positive and t == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def recount_log(cases, l, u):
    """Re-derive flags, errors and outcome classes for a case log from
    first principles. Returns a dict of counts, plus `per_case`: the
    (case id, outcome class name) of every error in log order."""
    n_flagged = 0
    n_errors = 0
    human_errors = 0
    avoidable = 0
    inevitable_flagged = 0
    inevitable_unflagged = 0
    flagged_avoidable = 0
    per_case = []
    for c in cases:
        flagged = l <= c.ai_confidence <= u
        final = c.human_decision if flagged else c.ai_decision
        if flagged:
            n_flagged += 1
        if c.human_decision != c.truth:
            human_errors += 1
        if final != c.truth:
            n_errors += 1
            if c.human_decision != c.truth:
                if flagged:
                    inevitable_flagged += 1
                    per_case.append((c.id, "InevitableFlagged"))
                else:
                    inevitable_unflagged += 1
                    per_case.append((c.id, "InevitableUnflagged"))
            else:
                avoidable += 1
                per_case.append((c.id, "Avoidable"))
                if flagged:
                    flagged_avoidable += 1
    return {
        "n": len(cases),
        "flagged": n_flagged,
        "hitl_errors": n_errors,
        "human_only_errors": human_errors,
        "avoidable": avoidable,
        "inevitable_flagged": inevitable_flagged,
        "inevitable_unflagged": inevitable_unflagged,
        "flagged_avoidable": flagged_avoidable,
        "per_case": per_case,
    }


def csv_columns(text, columns):
    """The reference for `io._read_csv` on a file holding `text`: plain
    csv.reader over all of it, then the requested columns of the non-blank
    rows after the header ("" where a row is too short) and each column's
    position in the header (its last, for a repeated name). Raises
    MalformedRow with the message `_read_csv` gives after the path."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise MalformedRow("empty file")
    header = rows[0]
    missing = [name for name in columns if name not in header]
    if missing:
        raise MalformedRow(f"missing column(s) {', '.join(missing)}")
    positions = [max(i for i, name in enumerate(header) if name == c) for c in columns]
    body = [row for row in rows[1:] if row]
    return [[row[p] if p < len(row) else "" for row in body] for p in positions], positions


def frozen_unary(clause, sizes):
    """`scm._unary` as it was before it grouped literals in one pass: one
    0/1 weight vector per variable the encoded conjunction reads, built by
    filtering the whole clause once per variable."""
    weights = {}
    for var in dict.fromkeys(var for var, _, _ in clause):
        codes, ok = np.arange(sizes[var]), np.ones(sizes[var], dtype=bool)
        for _, cmp, target in [x for x in clause if x[0] == var]:
            ok &= (codes == target) if cmp == "eq" else (codes != target)
        weights[var] = ok
    return weights


def frozen_minus(box, clause):
    """`scm._minus`: `box` and not `clause` as disjoint boxes."""
    if any(not (box[v] & w).any() for v, w in clause.items() if v in box):
        return [box]
    pieces = []
    for v, w in clause.items():
        have = box.get(v, True)
        if (have & ~w).any():
            pieces.append(box | {v: have & ~w})
        box = box | {v: have & w}
    return pieces


def frozen_merge(boxes):
    """`scm._merge` as it was before it returned fewer than two boxes at
    once: boxes over the same variables that differ in one variable's
    weights only are joined, one variable at a time."""
    for var in dict.fromkeys(v for box in boxes for v in box):
        merged = {}
        for box in boxes:
            key = var in box, frozenset((v, w.tobytes()) for v, w in box.items() if v != var)
            if key in merged and var in box:
                box = box | {var: merged[key][var] | box[var]}
            merged[key] = box
        boxes = list(merged.values())
    return boxes


def frozen_disjoint(clauses, sizes):
    """`scm._disjoint` as it was before the two functions above changed,
    less its size check, which only raises: the pieces of the sum of
    disjoint products of a DNF of encoded literals, in order."""
    boxes = [frozen_unary(clause, sizes) for clause in clauses]
    boxes = frozen_merge([box for box in boxes if all(w.any() for w in box.values())])
    pieces = []
    for i, box in enumerate(boxes):
        parts = [box]
        for clause in boxes[:i]:
            parts = [piece for part in parts for piece in frozen_minus(part, clause)]
        pieces += parts
    return pieces


def frozen_plan(mechanisms, sizes):
    """`scm._plan` as it was before it kept only reader counts: a search
    stack finds the ancestors of the variables with unary weights, and every
    step lists its candidates afresh from the scope and a waiting list of
    the endogenous variables with unary weights not yet substituted. Each
    factor is checked with the library's own `_check_factor`, so a refusal
    reads the same."""
    sizes = dict(sizes)
    waiting = [v for v in sizes if v in mechanisms]
    pending = dict.fromkeys(waiting, 0)
    stack = list(waiting)
    while stack:
        parents, lut = mechanisms[stack.pop()]
        for p, size in zip(parents, lut.shape):
            if p not in pending and p in mechanisms:
                stack.append(p)
            pending[p], sizes[p] = pending.get(p, 0) + 1, size
    unread = [v for v in sizes if v not in pending]

    def growth(group):
        new = {p for v in group for p in mechanisms[v][0] if p not in scope}
        return math.prod(sizes[p] for p in new) / math.prod(sizes[v] for v in group)

    scope, steps, largest = [], [], 1
    while scope or waiting:
        ready = [v for v in scope + [v for v in waiting if v not in scope] if pending[v] == 0]
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
        scm_module._check_factor(largest)
        steps.append((group, scope))
        for v in group:
            if v in waiting:
                waiting.remove(v)
            for p in mechanisms[v][0]:
                pending[p] -= 1
    return steps, unread, largest
