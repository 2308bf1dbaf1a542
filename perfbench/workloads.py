"""Seeded workload inputs and the reference checks for their reports.

Each workload writes its input files from a seed, names the `blamescope`
command line that runs on them, and checks a report against a reference
computed here from the generator parameters alone. The references use
closed forms for the XOR chains and a plain recount of the case log; none
of them calls into the library. The case log itself is made by the
library's `gen_synthetic`, because that log is the input the workload is
defined on; the recount reads it back from the CSV file the program sees.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

EXACT_TOL = 1e-12
MC_SIGMAS = 5.0
BITS = ["0", "1"]

# Thresholds of the hitl workload: off the 10-bin grid on purpose.
HITL_L, HITL_U = 0.3, 0.73
HITL_AI_COST, HITL_REVIEW_COST = 1.0, 5.0
HITL_EPSILON = 1e-9


@dataclass
class Prepared:
    """Everything one run needs about its inputs."""

    argv: list  # CLI arguments after `python -m blamescope`, without --out
    input_path: Path  # the file the setup probe loads
    loader: str  # "load_cases" or "load_scm_bundle"
    inputs: list  # [{"file", "sha256", "bytes", "generator"}]
    check: object  # report dict -> list of mismatch strings
    ref: dict  # reference values, for the record


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _record(path: Path, generator: dict) -> dict:
    return {
        "file": path.name,
        "sha256": _sha256(path),
        "bytes": path.stat().st_size,
        "generator": generator,
    }


def strict_loads(text: str):
    """json.loads that rejects NaN and +/-Infinity."""

    def reject(token):
        raise ValueError(f"non-finite number {token} in report")

    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------- XOR chains


def draw_flip_probs(seed: int, n: int) -> list:
    """P(E_i = 1) for i < n, each uniform in [0.01, 0.05]."""
    rng = random.Random(seed)
    return [rng.uniform(0.01, 0.05) for _ in range(n)]


def q(ps, a: int, b: int) -> float:
    """prod_{a <= i < b} (1 - 2 p_i); P(S_k = 1) = (1 - q(0, k + 1)) / 2."""
    out = 1.0
    for p in ps[a:b]:
        out *= 1.0 - 2.0 * p
    return out


def _xor_table(parents: int) -> dict:
    if parents == 1:
        return {"0": "0", "1": "1"}
    return {"0|0": "0", "0|1": "1", "1|0": "1", "1|1": "0"}


def chain_model(ps, chain: int, side: int = 0, blame_parts: bool = False) -> dict:
    """Model JSON for the chain S0 := E0, S_i := S_{i-1} xor E_i, Y := S_{chain-1}.

    `side` extra noise bits E_chain.. feed an AUDIT variable that no
    outcome or cost reads. `blame_parts` adds REVIEW, the `auto`/`manual`
    actions and the `review_cost` model with a cost_ratio discount.
    """
    n = chain + side
    exo = [
        {"id": f"E{i}", "values": BITS, "probs": [1.0 - ps[i], ps[i]]} for i in range(n)
    ]
    endo = [{"id": "S0", "values": BITS, "parents": ["E0"], "table": _xor_table(1)}]
    for i in range(1, chain):
        endo.append(
            {"id": f"S{i}", "values": BITS, "parents": [f"S{i - 1}", f"E{i}"],
             "table": _xor_table(2)}
        )
    last = f"S{chain - 1}"
    endo.append({"id": "Y", "values": BITS, "parents": [last], "table": _xor_table(1)})
    if side:
        endo.append(
            {"id": "AUDIT", "values": BITS,
             "parents": [f"E{i}" for i in range(chain, n)],
             "table": _parity_table(side)}
        )
    doc = {
        "schema": "blamescope/scm/1",
        "exogenous": exo,
        "endogenous": endo,
        "outcomes": {"y1": [[["Y", "eq", "1"]]]},
    }
    if blame_parts:
        endo.append({"id": "REVIEW", "values": BITS, "parents": [], "table": {"": "0"}})
        prev = f"S{chain - 2}"
        doc["actions"] = {
            "auto": [
                {"var": "Y", "parents": [last], "table": _xor_table(1)},
                {"var": "REVIEW", "parents": [], "table": {"": "0"}},
            ],
            "manual": [
                {"var": "Y", "parents": [prev], "table": _xor_table(1)},
                {"var": "REVIEW", "parents": [], "table": {"": "1"}},
            ],
        }
        doc["costs"] = {
            "review_cost": [
                {"where": {"REVIEW": "0"}, "cost": 2.0},
                {"where": {"REVIEW": "1"}, "cost": 8.0},
            ]
        }
        doc["discount"] = {"kind": "cost_ratio", "epsilon": 1e-9}
    return doc


def _parity_table(k: int) -> dict:
    table = {}
    for code in range(1 << k):
        bits = [str((code >> (k - 1 - j)) & 1) for j in range(k)]
        table["|".join(bits)] = str(bits.count("1") % 2)
    return table


def _write_model(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _close(report: dict, key: str, want: float, tol: float, where: str = "") -> list:
    got = report.get(key)
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return [f"{where}{key}: missing or not a number ({got!r})"]
    if abs(got - want) > tol:
        return [f"{where}{key}: got {got!r}, want {want!r} (tol {tol:g})"]
    return []


def _perturbed(ps: list, perturb: bool) -> list:
    """The reference's copy of the flip probabilities; with `perturb`, p_0
    is moved by 0.1, far outside the Monte Carlo tolerance, so that a
    correct report must fail the check."""
    ref = list(ps)
    if perturb:
        ref[0] += 0.1
    return ref


def prepare_blame(seed: int, work: Path, chain: int, side: int, perturb=False) -> Prepared:
    n = chain + side
    ps = draw_flip_probs(seed, n)
    model = work / "blame_chain.json"
    _write_model(model, chain_model(ps, chain, side, blame_parts=True))
    rp = _perturbed(ps, perturb)
    delta = q(rp, 0, chain - 1) * rp[chain - 1]
    ref = {
        "p_a": (1.0 - q(rp, 0, chain)) / 2.0,
        "p_aprime": (1.0 - q(rp, 0, chain - 1)) / 2.0,
        "delta": delta,
        "cost_a": 2.0,
        "cost_aprime": 8.0,
        "gamma": 0.25,
        "db": 0.25 * delta,
    }

    def check(report):
        blame = report.get("blame")
        if not isinstance(blame, dict):
            return ["report has no blame object"]
        errs = []
        for key, want in ref.items():
            errs += _close(blame, key, want, EXACT_TOL, "blame.")
        return errs

    argv = ["blame", "--scm", str(model), "--outcome", "y1",
            "--action", "auto", "--baseline", "manual", "--cost", "review_cost"]
    gen = {"kind": "xor_chain_blame", "seed": seed, "chain_bits": chain,
           "side_bits": side, "flip_probs": ps}
    return Prepared(argv, model, "load_scm_bundle", [_record(model, gen)], check, ref)


def prepare_counterfactual(seed: int, work: Path, chain: int, perturb=False) -> Prepared:
    ps = draw_flip_probs(seed, chain)
    model = work / "cf_chain.json"
    _write_model(model, chain_model(ps, chain))
    half = chain // 2
    rp = _perturbed(ps, perturb)
    # do(S_{half-1} = 0): Y' is the parity of E_half.., observed Y = 1.
    want = (
        (1.0 - q(rp, half, chain)) / 2.0
        * (1.0 + q(rp, 0, half)) / 2.0
        / ((1.0 - q(rp, 0, chain)) / 2.0)
    )
    support = 1 << (chain - 1)

    def check(report):
        errs = _close(report, "probability", want, EXACT_TOL)
        if "posterior_support_size" in report and report["posterior_support_size"] != support:
            errs.append(
                f"posterior_support_size: got {report['posterior_support_size']!r}, "
                f"want {support}"
            )
        return errs

    argv = ["counterfactual", "--scm", str(model), "--outcome", "y1",
            "--observe", "Y=1", "--do", f"S{half - 1}=0"]
    gen = {"kind": "xor_chain", "seed": seed, "chain_bits": chain, "flip_probs": ps}
    return Prepared(argv, model, "load_scm_bundle", [_record(model, gen)], check,
                    {"probability": want, "posterior_support_size": support})


def prepare_mc(seed: int, work: Path, chain: int, samples: int, perturb=False) -> Prepared:
    ps = draw_flip_probs(seed, chain)
    model = work / "mc_chain.json"
    _write_model(model, chain_model(ps, chain))
    rp = _perturbed(ps, perturb)
    want = (1.0 - q(rp, 0, chain)) / 2.0
    tol = MC_SIGMAS * math.sqrt(want * (1.0 - want) / samples)

    def check(report):
        return _close(report, "probability", want, tol)

    argv = ["prob", "--scm", str(model), "--outcome", "y1",
            "--samples", str(samples), "--seed", str(seed)]
    gen = {"kind": "xor_chain", "seed": seed, "chain_bits": chain, "flip_probs": ps,
           "mc_samples": samples}
    return Prepared(argv, model, "load_scm_bundle", [_record(model, gen)], check,
                    {"probability": want, "tolerance": tol})


# ------------------------------------------------------------------ case log


def write_case_log(path: Path, cases) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["case_id", "ai_confidence", "ai_decision", "human_decision", "truth"])
        for c in cases:
            w.writerow([c.id, repr(c.ai_confidence), c.ai_decision, c.human_decision, c.truth])


def recount_hitl(rows, l: float, u: float) -> dict:
    """The hitl report as derived from the rules in tests/oracles.py's
    recount_log: flag iff l <= confidence <= u; the final decision is the
    human's when flagged, else the AI's; an error is classified by whether
    the human alone was also wrong."""
    n = len(rows)
    flagged = hitl_errors = human_errors = 0
    avoidable = inev_flagged = inev_unflagged = 0
    per_case = []
    for case_id, conf, ai, human, truth in rows:
        is_flagged = l <= conf <= u
        final = human if is_flagged else ai
        flagged += is_flagged
        human_wrong = human != truth
        human_errors += human_wrong
        if final != truth:
            hitl_errors += 1
            if human_wrong and is_flagged:
                inev_flagged += 1
                per_case.append({"id": case_id, "class": "InevitableFlagged",
                                 "parties": ["Human"]})
            elif human_wrong:
                inev_unflagged += 1
                per_case.append({"id": case_id, "class": "InevitableUnflagged",
                                 "parties": ["AI", "FlagDesigner"]})
            else:
                avoidable += 1
                per_case.append({"id": case_id, "class": "Avoidable",
                                 "parties": ["AI", "FlagDesigner"]})
    p_a, p_ap, frac = hitl_errors / n, human_errors / n, flagged / n
    delta = max(0.0, p_a - p_ap)
    cost_a = HITL_REVIEW_COST * frac + HITL_AI_COST * (1.0 - frac)
    cost_ap = HITL_REVIEW_COST
    gamma = 1.0 if cost_ap == 0 else min(1.0, max(HITL_EPSILON, cost_a / cost_ap))
    return {
        "blame": {"p_a": p_a, "p_aprime": p_ap, "delta": delta, "cost_a": cost_a,
                  "cost_aprime": cost_ap, "gamma": gamma, "db": gamma * delta,
                  "flagged_fraction": frac},
        "summary": {
            "avoidable": avoidable,
            "inevitable_flagged": inev_flagged,
            "inevitable_unflagged": inev_unflagged,
            "party_counts": {"Human": inev_flagged,
                             "AI": avoidable + inev_unflagged,
                             "FlagDesigner": avoidable + inev_unflagged},
            "total_errors": hitl_errors,
            "total_cases": n,
        },
        "per_case": per_case,
    }


def read_case_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(r[0], float(r[1]), r[2], r[3], r[4]) for r in reader]


def prepare_hitl(seed: int, work: Path, n_cases: int, perturb=False) -> Prepared:
    from blamescope.synthetic import gen_synthetic

    gen = {"kind": "gen_synthetic", "seed": seed, "n_cases": n_cases,
           "ai_accuracy": 0.8, "human_accuracy": 0.9, "confidence_profile": "uniform"}
    cases = gen_synthetic(seed, n_cases, 0.8, 0.9, "uniform")
    path = work / "cases.csv"
    write_case_log(path, cases)
    del cases
    rows = read_case_rows(path)
    if perturb:
        # Flip one logged human decision in the reference's view only.
        cid, conf, ai, human, truth = rows[0]
        rows[0] = (cid, conf, ai, "neg" if human == "pos" else "pos", truth)
    ref = recount_hitl(rows, HITL_L, HITL_U)
    del rows

    def check(report):
        blame = report.get("blame")
        attr = report.get("attribution")
        if not isinstance(blame, dict) or not isinstance(attr, dict):
            return ["report lacks blame or attribution"]
        errs = []
        for key, want in ref["blame"].items():
            errs += _close(blame, key, want, EXACT_TOL, "blame.")
        if attr.get("summary") != ref["summary"]:
            errs.append(f"attribution.summary: got {attr.get('summary')!r}, "
                        f"want {ref['summary']!r}")
        if attr.get("per_case") != ref["per_case"]:
            errs.append("attribution.per_case differs from the recount")
        return errs

    argv = ["hitl", "--cases", str(path), "--l", str(HITL_L), "--u", str(HITL_U),
            "--ai-cost", "1", "--review-cost", "5", "--discount", "cost_ratio"]
    return Prepared(argv, path, "load_cases", [_record(path, gen)], check,
                    {"blame": ref["blame"], "summary": ref["summary"]})


# ------------------------------------------------------------------ registry

# name -> (one-line reason, full-size inputs, toy-size inputs): each a function
# (seed, work dir, perturb=False) -> Prepared
WORKLOADS = {
    "hitl_log_100k": (
        "100k-case log, off-grid thresholds: io, hitl, attribution and a large "
        "report; no SCM work",
        lambda seed, work, perturb=False: prepare_hitl(seed, work, 100_000, perturb),
        lambda seed, work, perturb=False: prepare_hitl(seed, work, 500, perturb),
    ),
    "blame_chain_2p14": (
        "exact blame on 2^14 states, a quarter of them relevant: enumeration, "
        "expected cost and validate",
        lambda seed, work, perturb=False: prepare_blame(seed, work, 12, 2, perturb),
        lambda seed, work, perturb=False: prepare_blame(seed, work, 4, 2, perturb),
    ),
    "counterfactual_chain_2p16": (
        "abduction over 2^16 states, every bit relevant: stored posterior and "
        "cli re-solve loop",
        lambda seed, work, perturb=False: prepare_counterfactual(seed, work, 16, perturb),
        lambda seed, work, perturb=False: prepare_counterfactual(seed, work, 6, perturb),
    ),
    "prob_mc_chain24": (
        "Monte Carlo with 1e6 samples on a 24-bit chain: the vectorized, "
        "memory-bound numpy path",
        lambda seed, work, perturb=False: prepare_mc(seed, work, 24, 1_000_000, perturb),
        lambda seed, work, perturb=False: prepare_mc(seed, work, 6, 20_000, perturb),
    ),
}
