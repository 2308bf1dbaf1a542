"""Causal blameworthiness and responsibility attribution for human-AI
decision systems."""

from .attribution import (
    Attribution,
    AttributionSummary,
    OutcomeClass,
    Party,
    annotate,
    attribute,
    summarize,
)
from .blame import (
    Action,
    BlameReport,
    CostModel,
    CostTerm,
    DiscountSpec,
    Override,
    apply_action,
    delta,
    discount,
    discounted_blame,
    expected_cost,
)
from .hitl import (
    Case,
    CaseLog,
    Decisions,
    FlagPolicy,
    build_hitl_scm,
    empirical_joint,
    flag,
    hitl_blame,
    human_only_action,
    run,
    HITL_OUTCOME,
)
from .metrics import (
    BinaryCounts,
    OrdinalConfusion,
    binary_counts,
    blame_from_agreement,
    blame_from_f1_drop,
    precision_recall_f1,
    qwk,
)
from .scm import (
    Assignment,
    Domain,
    EndogenousVar,
    ExogenousVar,
    NoisePosterior,
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
from .synthetic import gen_synthetic

__version__ = "0.1.0"
