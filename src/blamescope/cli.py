"""Command-line front end.

One binary, subcommand style: validate | prob | counterfactual | blame |
hitl | metrics | gen. Each handler returns its payload; `main` adds the
report's `schema` and `command`, writes it as canonical JSON (gen writes
CSV) to stdout or `--out`, so identical inputs and seeds produce
byte-identical reports. Every error, usage errors included, is a
BlamescopeError written as JSON to stderr. Exit codes: 0 success,
2 configuration error, 3 data error, 4 model error. `run`, the process
entry, is `main` on UTF-8 streams followed by `gc.freeze()`.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from . import attribution as attr_mod
from . import hitl as hitl_mod
from . import metrics as metrics_mod
from . import scm as scm_mod
from .blame import BlameReport, DiscountSpec, discounted_blame
from .errors import (
    BlamescopeError,
    ConfigError,
    UnknownAction,
    UnknownCostModel,
    UnknownOutcome,
)
from .io import (
    REPORT_SCHEMA,
    ATTR_SCHEMA,
    canonical_dumps,
    dump_cases,
    load_cases,
    load_ratings,
    load_scm_bundle,
    open_text,
)
from .synthetic import MAX_CASES, gen_synthetic


def _parse_bindings(pairs, what: str) -> dict:
    """VAR=VALUE pairs as {VAR: VALUE}; a variable named twice is an error."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"{what} must look like VAR=VALUE, got {pair!r}")
        var, _, value = pair.partition("=")
        if var in out:
            raise ConfigError(f"{what} names {var!r} twice")
        out[var] = value
    return out


def _write(text: str, out_path: str | None):
    """The one writer: `text` to `out_path`, or to stdout without one."""
    if not out_path:
        sys.stdout.write(text)
        return
    with open_text(out_path, "w") as fh:
        fh.write(text)


def _blame_report_dict(report: BlameReport) -> dict:
    """The report's fields; flagged_fraction is left out when it is None."""
    return {k: v for k, v in report._asdict().items() if v is not None}


def _discount_spec(args, model_discount: DiscountSpec | None = None) -> DiscountSpec:
    """The discount a command uses: --discount, else the model file's, else
    unit. --epsilon, when given, sets the epsilon of whichever applies."""
    spec = DiscountSpec(kind=args.discount) if args.discount else model_discount or DiscountSpec()
    if args.epsilon is None:
        return spec
    return DiscountSpec(spec.kind, args.epsilon)


def _lookup(mapping: dict, name: str, what: str, exc):
    if name not in mapping:
        raise exc(f"unknown {what} {name!r}; available: {sorted(mapping) or 'none'}")
    return mapping[name]


def cmd_validate(args) -> dict:
    if not (args.scm or args.cases or args.ratings):
        raise ConfigError("validate needs at least one of --scm, --cases, --ratings")
    files = {}
    if args.scm:
        bundle = load_scm_bundle(args.scm)
        files[args.scm] = {
            "kind": "scm",
            "status": "ok",
            "exogenous": len(bundle.scm.exogenous),
            "endogenous": len(bundle.scm.endogenous),
            "outcomes": sorted(bundle.outcomes),
            "actions": sorted(bundle.actions),
        }
    if args.cases:
        cases = load_cases(args.cases)
        files[args.cases] = {"kind": "cases", "status": "ok", "rows": len(cases)}
    if args.ratings:
        pairs = load_ratings(args.ratings)
        files[args.ratings] = {"kind": "ratings", "status": "ok", "rows": len(pairs)}
    return {"files": files}


def _load_outcome(args):
    bundle = load_scm_bundle(args.scm)
    phi = _lookup(bundle.outcomes, args.outcome, "outcome", UnknownOutcome)
    return bundle, phi


def cmd_prob(args) -> dict:
    bundle, phi = _load_outcome(args)
    model = bundle.scm
    if args.action:
        model = _lookup(bundle.actions, args.action, "action", UnknownAction)
    if args.do:
        model = scm_mod.intervene(model, _parse_bindings(args.do, "--do"))
    if args.samples is not None:
        prob = scm_mod.event_probability_mc(model, phi, args.samples, args.seed)
        method = "mc"
    else:
        prob = scm_mod.event_probability(model, phi)
        method = "exact"
    return {
        "config": {
            "outcome": args.outcome,
            "action": args.action,
            "do": args.do or [],
            "samples": args.samples,
            "seed": args.seed,
        },
        "probability": prob,
        "method": method,
    }


def cmd_counterfactual(args) -> dict:
    bundle, phi = _load_outcome(args)
    observation = _parse_bindings(args.observe, "--observe")
    interventions = _parse_bindings(args.do, "--do").items()
    prob = scm_mod.counterfactual_probability(bundle.scm, observation, interventions, phi)
    return {
        "config": {
            "outcome": args.outcome,
            "observe": sorted(f"{k}={v}" for k, v in observation.items()),
            "do": args.do or [],
        },
        "probability": prob,
        "posterior_support_size": scm_mod.posterior_support_size(bundle.scm, observation),
    }


def cmd_blame(args) -> dict:
    bundle, phi = _load_outcome(args)
    m_a = _lookup(bundle.actions, args.action, "action", UnknownAction)
    m_aprime = _lookup(bundle.actions, args.baseline, "action", UnknownAction)
    spec = _discount_spec(args, bundle.discount)
    if args.cost:
        cost = _lookup(bundle.costs, args.cost, "cost model", UnknownCostModel)
    elif spec.kind == "cost_ratio":
        raise ConfigError("cost_ratio discount requires --cost")
    else:
        cost = ()
    report = discounted_blame(m_a, m_aprime, phi, cost, spec)
    return {
        "config": {
            "outcome": args.outcome,
            "action": args.action,
            "baseline": args.baseline,
            "cost": args.cost,
            "discount": spec.kind,
        },
        "blame": _blame_report_dict(report),
    }


def cmd_hitl(args) -> dict:
    policy = hitl_mod.FlagPolicy(l=args.l, u=args.u)
    spec = _discount_spec(args)
    decisions = hitl_mod.run(load_cases(args.cases), policy)
    report = hitl_mod.hitl_blame(decisions, args.ai_cost, args.review_cost, spec)
    attribution = attr_mod.annotate(decisions)
    return {
        "config": {
            "l": args.l,
            "u": args.u,
            "ai_cost": args.ai_cost,
            "review_cost": args.review_cost,
            "discount": args.discount or "unit",
        },
        "blame": _blame_report_dict(report),
        "attribution": {
            "schema": ATTR_SCHEMA,
            "per_case": attr_mod.per_case(attribution),
            "summary": attr_mod.summarize(attribution),
        },
    }


def cmd_metrics(args) -> dict:
    # A flag of the other mode is an error rather than silently ignored.
    ratings = args.ratings is not None
    mode, other = ("--ratings", ("l", "u", "positive")) if ratings else ("--cases", ("k",))
    for name in other:
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name} does not apply to metrics {mode}")
    if ratings:
        pairs = load_ratings(args.ratings)
        confusion = metrics_mod.OrdinalConfusion.from_pairs(pairs, k=args.k)
        kappa = metrics_mod.qwk(confusion)
        return {
            "config": {"mode": "agreement", "k": confusion.k},
            "qwk": kappa,
            "raw_one_minus_kappa": 1.0 - kappa,
            "blame": metrics_mod.blame_from_agreement(kappa),
        }
    if args.l is None or args.u is None or args.positive is None:
        raise ConfigError("case-log metrics need --l, --u and --positive")
    policy = hitl_mod.FlagPolicy(l=args.l, u=args.u)
    decisions = hitl_mod.run(load_cases(args.cases), policy)
    log = decisions.log
    # Compare label codes; a label absent from the log matches no case.
    positive = log.labels.index(args.positive) if args.positive in log.labels else -1
    scores = {}
    for mode, final in (("hitl", decisions.final), ("human_only", log.human_decision)):
        counts = metrics_mod.binary_counts(final, log.truth, positive)
        precision, recall, f1 = metrics_mod.precision_recall_f1(counts)
        scores[mode] = {
            **{name: getattr(counts, name) for name in counts._fields},
            "precision": precision,
            "recall": recall,
            "f1": f1,
        }
    return {
        "config": {
            "mode": "f1_drop",
            "l": args.l,
            "u": args.u,
            "positive": args.positive,
        },
        "hitl": scores["hitl"],
        "human_only": scores["human_only"],
        "blame": metrics_mod.blame_from_f1_drop(
            scores["hitl"]["f1"], scores["human_only"]["f1"]
        ),
    }


def cmd_gen(args) -> str:
    """The case log as CSV text, not a report."""
    cases = gen_synthetic(
        seed=args.seed,
        n_cases=args.n_cases,
        ai_accuracy=args.ai_accuracy,
        human_accuracy=args.human_accuracy,
        confidence_profile=args.profile,
    )
    return dump_cases(cases)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _int_at_least(low: int, high: float = math.inf):
    """An argparse type: an integer >= low, and <= high."""
    bound = f">= {low}" if high == math.inf else f">= {low} and <= {high}"

    def parse(text):
        try:
            if low <= int(text) <= high:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blamescope",
        description="Causal blameworthiness and responsibility attribution "
        "for human-AI decision systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--scm", required=True)
        p.add_argument("--outcome", required=True)

    def add_discount(p):
        p.add_argument("--discount", choices=["unit", "cost_ratio"])
        p.add_argument(
            "--epsilon", type=float,
            help="discount epsilon in (0, 1] (default: the model file's, else 1e-9)",
        )

    p = sub.add_parser("validate", help="validate model, case-log and ratings files")
    p.add_argument("--scm")
    p.add_argument("--cases")
    p.add_argument("--ratings")

    p = sub.add_parser("prob", help="probability of a named outcome")
    add_model(p)
    p.add_argument("--action")
    p.add_argument("--do", action="append", metavar="VAR=VALUE")
    p.add_argument("--samples", type=_int_at_least(1))
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("counterfactual", help="counterfactual outcome probability")
    add_model(p)
    p.add_argument("--observe", action="append", metavar="VAR=VALUE")
    p.add_argument("--do", action="append", metavar="VAR=VALUE")

    p = sub.add_parser("blame", help="discounted blameworthiness of one action vs a baseline")
    add_model(p)
    p.add_argument("--action", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--cost")
    add_discount(p)

    p = sub.add_parser("hitl", help="blame and attribution over a recorded case log")
    p.add_argument("--cases", required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--ai-cost", type=float, default=1.0)
    p.add_argument("--review-cost", type=float, default=1.0)
    add_discount(p)

    p = sub.add_parser("metrics", help="agreement (QWK) or F1-drop metrics")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ratings")
    source.add_argument("--cases")
    p.add_argument("--k", type=_int_at_least(2, metrics_mod.MAX_CATEGORIES))
    p.add_argument("--l", type=float)
    p.add_argument("--u", type=float)
    p.add_argument("--positive")

    p = sub.add_parser("gen", help="generate a seeded synthetic case log")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--n-cases", type=_int_at_least(1, MAX_CASES), required=True)
    p.add_argument("--ai-accuracy", type=float, default=0.8)
    p.add_argument("--human-accuracy", type=float, default=0.9)
    p.add_argument("--profile", choices=["binned", "uniform"], default="binned")

    for p in sub.choices.values():
        p.add_argument("--out", help="write to this file instead of stdout")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "prob": cmd_prob,
    "counterfactual": cmd_counterfactual,
    "blame": cmd_blame,
    "hitl": cmd_hitl,
    "metrics": cmd_metrics,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = _HANDLERS[args.command](args)
        if isinstance(out, dict):
            out = canonical_dumps({"schema": REPORT_SCHEMA, "command": args.command, **out})
        _write(out, args.out)
    except BlamescopeError as exc:
        sys.stderr.write(
            canonical_dumps({"error": type(exc).__name__, "message": str(exc)})
        )
        return exc.exit_code
    return 0


def run() -> int:
    """The process entry, for `python -m blamescope` and the `blamescope`
    script: `main` on the command line, writing UTF-8 whatever the locale,
    then `gc.freeze()`, which moves every object left to the permanent
    generation, so the collections at interpreter exit do not walk a heap
    that is about to be freed whole. Returns `main`'s exit code."""
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    code = main()
    gc.freeze()
    return code
