"""Agreement and classification metrics, plus their blame conversions.

Quadratic weighted kappa uses weights w[i,j] = (i-j)^2 / (k-1)^2, the
observed matrix normalized to total 1, and the expected matrix as the outer
product of the observed marginals.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, DegenerateMarginals
from .record import Record, Value

# The most ordinal categories a confusion matrix may have. Its k x k counts
# are allocated in full before any is read, so a larger k would ask for
# gigabytes or more.
MAX_CATEGORIES = 1000


class OrdinalConfusion(Record):
    """k x k count matrix; rows are rater 1, columns rater 2. `counts` holds
    non-negative integers; nested sequences are converted to an array."""

    __slots__ = _fields = ("k", "counts")

    def __init__(self, k: int, counts):
        if k < 2:
            raise DataError("need at least 2 ordinal categories")
        m = np.asarray(counts)
        if m.shape != (k, k):
            raise DataError(f"count matrix must be {k}x{k}, got {m.shape}")
        if (m < 0).any():
            raise DataError("confusion counts must be non-negative")
        if m.sum() < 1:
            raise DataError("confusion matrix is empty")
        self._init(k, m)

    @classmethod
    def from_pairs(cls, pairs, k: int | None = None) -> "OrdinalConfusion":
        """Build from (rater_1, rater_2) integer rating pairs in [1, k]. A k
        above MAX_CATEGORIES is a ConfigError; without k, a rating above it
        is a DataError."""
        pairs = list(pairs)
        if not pairs:
            raise DataError("no rating pairs")
        if k is None:
            k = max(max(a, b) for a, b in pairs)
            if k > MAX_CATEGORIES:
                raise DataError(f"rating {k} above the {MAX_CATEGORIES}-category limit")
        elif k > MAX_CATEGORIES:
            raise ConfigError(f"k = {k} above the {MAX_CATEGORIES}-category limit")
        m = np.zeros((k, k), dtype=int)
        for a, b in pairs:
            if not (1 <= a <= k and 1 <= b <= k):
                raise DataError(f"rating pair ({a}, {b}) outside [1, {k}]")
            m[a - 1, b - 1] += 1
        return cls(k=k, counts=m)


class BinaryCounts(Value):
    __slots__ = _fields = ("tp", "fp", "fn", "tn")

    def __init__(self, tp: int, fp: int, fn: int, tn: int):
        if min(tp, fp, fn, tn) < 0:
            raise DataError("binary counts must be non-negative")
        if tp + fp + fn + tn < 1:
            raise DataError("binary counts are all zero")
        self._init(tp, fp, fn, tn)


def qwk(m: OrdinalConfusion) -> float:
    """Quadratic weighted kappa in [-1, 1].

    Raises DegenerateMarginals when the chance-agreement denominator is
    zero (both raters constant on the same category).
    """
    observed = m.counts / m.counts.sum()
    rows = observed.sum(axis=1)
    cols = observed.sum(axis=0)
    expected = np.outer(rows, cols)
    idx = np.arange(m.k)
    weights = (idx[:, None] - idx[None, :]) ** 2 / (m.k - 1) ** 2
    denom = float((weights * expected).sum())
    if denom == 0.0:
        raise DegenerateMarginals("both raters constant on one category; agreement undefined")
    return 1.0 - float((weights * observed).sum()) / denom


def blame_from_agreement(kappa: float) -> float:
    """Metric-based blame 1 - kappa, clamped into [0, 1]."""
    return min(1.0, max(0.0, 1.0 - kappa))


def precision_recall_f1(c: BinaryCounts):
    """(precision, recall, f1) with zero conventions for empty denominators."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def blame_from_f1_drop(f1_hitl: float, f1_human_only: float) -> float:
    """Clamped F1 drop caused by deploying the pipeline."""
    return max(0.0, f1_human_only - f1_hitl)


def binary_counts(predictions, truths, positive) -> BinaryCounts:
    """Tally TP/FP/FN/TN for one positive label over paired sequences of
    labels (or of label codes, with the positive label's code)."""
    pred = np.asarray(predictions) == positive
    true = np.asarray(truths) == positive
    if pred.shape != true.shape:
        raise DataError("prediction and truth lists differ in length")
    tp = int(np.count_nonzero(pred & true))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(true)) - tp
    return BinaryCounts(tp=tp, fp=fp, fn=fn, tn=len(pred) - tp - fp - fn)
