"""Command-line front end.

One binary, subcommand style: validate | prob | counterfactual | blame |
hitl | metrics | gen. All output is canonical JSON (or CSV for gen), so
identical inputs and seeds produce byte-identical reports. Exit codes:
0 success, 2 configuration error, 3 data error, 4 model error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import attribution as attr_mod
from . import hitl as hitl_mod
from . import metrics as metrics_mod
from . import scm as scm_mod
from .blame import BlameReport, CostModel, DiscountSpec, apply_action, discounted_blame
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
)
from .synthetic import gen_synthetic


def _parse_bindings(pairs, what: str):
    out = []
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"{what} must look like VAR=VALUE, got {pair!r}")
        var, _, value = pair.partition("=")
        out.append((var, value))
    return out


def _emit(report: dict, out_path: str | None):
    text = canonical_dumps(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _blame_report_dict(report: BlameReport) -> dict:
    """The report's fields; flagged_fraction is left out when it is None."""
    return {k: v for k, v in dataclasses.asdict(report).items() if v is not None}


def _discount_spec(args, model_discount: DiscountSpec | None = None) -> DiscountSpec:
    """The discount a command uses: --discount, else the model file's, else
    unit. --epsilon, when given, sets the epsilon of whichever applies."""
    spec = DiscountSpec(kind=args.discount) if args.discount else model_discount or DiscountSpec()
    if args.epsilon is None:
        return spec
    return dataclasses.replace(spec, epsilon=args.epsilon)


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
    return {"schema": REPORT_SCHEMA, "command": "validate", "files": files}


def _load_outcome(args):
    bundle = load_scm_bundle(args.scm)
    phi = _lookup(bundle.outcomes, args.outcome, "outcome", UnknownOutcome)
    return bundle, phi


def cmd_prob(args) -> dict:
    bundle, phi = _load_outcome(args)
    model = bundle.scm
    if args.action:
        action = _lookup(bundle.actions, args.action, "action", UnknownAction)
        model = apply_action(model, action)
    for var, value in _parse_bindings(args.do, "--do"):
        model = scm_mod.intervene(model, var, value)
    if args.samples is not None:
        if args.samples < 1:
            raise ConfigError("--samples must be >= 1")
        prob = scm_mod.event_probability_mc(model, phi, args.samples, args.seed)
        method = "mc"
    else:
        prob = scm_mod.event_probability(model, phi)
        method = "exact"
    return {
        "schema": REPORT_SCHEMA,
        "command": "prob",
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
    observation = dict(_parse_bindings(args.observe, "--observe"))
    interventions = _parse_bindings(args.do, "--do")
    prob, support_size = scm_mod._counterfactual(bundle.scm, observation, interventions, phi)
    return {
        "schema": REPORT_SCHEMA,
        "command": "counterfactual",
        "config": {
            "outcome": args.outcome,
            "observe": sorted(f"{k}={v}" for k, v in observation.items()),
            "do": args.do or [],
        },
        "probability": prob,
        "posterior_support_size": support_size,
    }


def cmd_blame(args) -> dict:
    bundle, phi = _load_outcome(args)
    a = _lookup(bundle.actions, args.action, "action", UnknownAction)
    a_prime = _lookup(bundle.actions, args.baseline, "action", UnknownAction)
    spec = _discount_spec(args, bundle.discount)
    if args.cost:
        cost = _lookup(bundle.costs, args.cost, "cost model", UnknownCostModel)
    elif spec.kind == "cost_ratio":
        raise ConfigError("cost_ratio discount requires --cost")
    else:
        cost = CostModel()
    report = discounted_blame(bundle.scm, a, a_prime, phi, cost, spec)
    return {
        "schema": REPORT_SCHEMA,
        "command": "blame",
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
    report = hitl_mod.hitl_blame(
        hitl_mod.HitlBlameInput(
            decisions=decisions,
            ai_cost=args.ai_cost,
            review_cost=args.review_cost,
            discount=spec,
        )
    )
    attribution = attr_mod.annotate(decisions)
    summary = attr_mod.summarize(attribution)
    # Per outcome class code: the class name and its sorted party names.
    shown = [
        (cls.value, sorted(p.value for p in attr_mod.attribute(cls)))
        for cls in attr_mod.CLASSES
    ]
    return {
        "schema": REPORT_SCHEMA,
        "command": "hitl",
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
            "per_case": [
                {"id": case_id, "class": shown[c][0], "parties": shown[c][1]}
                for case_id, c in zip(attribution.case_ids, attribution.classes.tolist())
            ],
            "summary": {
                "avoidable": summary.class_counts[attr_mod.OutcomeClass.AVOIDABLE],
                "inevitable_flagged": summary.class_counts[
                    attr_mod.OutcomeClass.INEVITABLE_FLAGGED
                ],
                "inevitable_unflagged": summary.class_counts[
                    attr_mod.OutcomeClass.INEVITABLE_UNFLAGGED
                ],
                "party_counts": {
                    p.value: summary.party_counts[p] for p in attr_mod.Party
                },
                "total_errors": summary.total_errors,
                "total_cases": summary.total_cases,
            },
        },
    }


def cmd_metrics(args) -> dict:
    if args.ratings and args.cases:
        raise ConfigError("metrics takes either --ratings or --cases, not both")
    if args.ratings:
        pairs = load_ratings(args.ratings)
        confusion = metrics_mod.OrdinalConfusion.from_pairs(pairs, k=args.k)
        kappa = metrics_mod.qwk(confusion)
        return {
            "schema": REPORT_SCHEMA,
            "command": "metrics",
            "config": {"mode": "agreement", "k": confusion.k},
            "qwk": kappa,
            "raw_one_minus_kappa": 1.0 - kappa,
            "blame": metrics_mod.blame_from_agreement(kappa),
        }
    if args.cases:
        if args.l is None or args.u is None or not args.positive:
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
                "tp": counts.tp,
                "fp": counts.fp,
                "fn": counts.fn,
                "tn": counts.tn,
                "precision": precision,
                "recall": recall,
                "f1": f1,
            }
        return {
            "schema": REPORT_SCHEMA,
            "command": "metrics",
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
    raise ConfigError("metrics needs --ratings or --cases")


def cmd_gen(args) -> None:
    cases = gen_synthetic(
        seed=args.seed,
        n_cases=args.n_cases,
        ai_accuracy=args.ai_accuracy,
        human_accuracy=args.human_accuracy,
        confidence_profile=args.profile,
    )
    text = dump_cases(cases)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blamescope",
        description="Causal blameworthiness and responsibility attribution "
        "for human-AI decision systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("validate", help="validate model, case-log and ratings files")
    p.add_argument("--scm")
    p.add_argument("--cases")
    p.add_argument("--ratings")
    add_out(p)

    p = sub.add_parser("prob", help="probability of a named outcome")
    p.add_argument("--scm", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--action")
    p.add_argument("--do", action="append", metavar="VAR=VALUE")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    p = sub.add_parser("counterfactual", help="counterfactual outcome probability")
    p.add_argument("--scm", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--observe", action="append", metavar="VAR=VALUE")
    p.add_argument("--do", action="append", metavar="VAR=VALUE")
    add_out(p)

    p = sub.add_parser("blame", help="discounted blameworthiness of one action vs a baseline")
    p.add_argument("--scm", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--cost")
    p.add_argument("--discount", choices=["unit", "cost_ratio"])
    p.add_argument(
        "--epsilon", type=float, help="discount epsilon (default: the model file's, else 1e-9)"
    )
    add_out(p)

    p = sub.add_parser("hitl", help="blame and attribution over a recorded case log")
    p.add_argument("--cases", required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--ai-cost", type=float, default=1.0)
    p.add_argument("--review-cost", type=float, default=1.0)
    p.add_argument("--discount", choices=["unit", "cost_ratio"])
    p.add_argument("--epsilon", type=float, help="discount epsilon (default 1e-9)")
    add_out(p)

    p = sub.add_parser("metrics", help="agreement (QWK) or F1-drop metrics")
    p.add_argument("--ratings")
    p.add_argument("--k", type=int)
    p.add_argument("--cases")
    p.add_argument("--l", type=float)
    p.add_argument("--u", type=float)
    p.add_argument("--positive")
    add_out(p)

    p = sub.add_parser("gen", help="generate a seeded synthetic case log")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-cases", type=int, required=True)
    p.add_argument("--ai-accuracy", type=float, default=0.8)
    p.add_argument("--human-accuracy", type=float, default=0.9)
    p.add_argument("--profile", choices=["binned", "uniform"], default="binned")
    p.add_argument("--out")

    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "prob": cmd_prob,
    "counterfactual": cmd_counterfactual,
    "blame": cmd_blame,
    "hitl": cmd_hitl,
    "metrics": cmd_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            cmd_gen(args)
        else:
            report = _HANDLERS[args.command](args)
            _emit(report, args.out)
    except BlamescopeError as exc:
        sys.stderr.write(
            canonical_dumps({"error": type(exc).__name__, "message": str(exc)})
        )
        return exc.exit_code
    except FileNotFoundError as exc:
        sys.stderr.write(
            canonical_dumps({"error": "FileNotFound", "message": str(exc)})
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
