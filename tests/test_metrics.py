import random
import re

import numpy as np
import pytest

from blamescope.errors import ConfigError, DataError, DegenerateMarginals
from blamescope.metrics import (
    MAX_CATEGORIES,
    BinaryCounts,
    OrdinalConfusion,
    binary_counts,
    blame_from_agreement,
    blame_from_f1_drop,
    precision_recall_f1,
    qwk,
)
from oracles import brute_prf1, brute_qwk


def confusion(rows):
    return OrdinalConfusion(k=len(rows), counts=tuple(tuple(r) for r in rows))


@pytest.mark.parametrize(
    "k, counts, message",
    [
        (1, [[4]], "need at least 2 ordinal categories"),
        (3, [[1, 0], [0, 1]], "count matrix must be 3x3, got (2, 2)"),
        (2, [[2, -1], [0, 1]], "confusion counts must be non-negative"),
        (2, [[0, 0], [0, 0]], "confusion matrix is empty"),
    ],
    ids=["one_category", "wrong_shape", "negative", "empty"],
)
def test_ordinal_confusion_refuses_bad_counts(k, counts, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        OrdinalConfusion(k=k, counts=counts)


@pytest.mark.parametrize(
    "counts, message",
    [((1, -1, 0, 2), "binary counts must be non-negative"),
     ((0, 0, 0, 0), "binary counts are all zero")],
    ids=["negative", "all_zero"],
)
def test_binary_counts_refuse_bad_counts(counts, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        BinaryCounts(*counts)


def test_binary_counts_refuse_lists_of_different_lengths():
    with pytest.raises(DataError, match="^prediction and truth lists differ in length$"):
        binary_counts(["a", "b"], ["a", "b", "a"], positive="a")


def test_qwk_perfect_agreement():
    assert qwk(confusion([[3, 0, 0], [0, 5, 0], [0, 0, 2]])) == 1.0


def test_qwk_complete_disagreement():
    assert qwk(confusion([[0, 5], [5, 0]])) == pytest.approx(-1.0, abs=1e-12)


def test_qwk_3x3_matches_oracle():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 2]]
    assert qwk(confusion(rows)) == pytest.approx(brute_qwk(rows), abs=1e-9)


def test_qwk_degenerate():
    with pytest.raises(DegenerateMarginals):
        qwk(confusion([[4, 0], [0, 0]]))


def test_qwk_random_matches_oracle():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(2, 6)
        rows = [[rng.randint(0, 5) for _ in range(k)] for _ in range(k)]
        if sum(map(sum, rows)) == 0:
            continue
        try:
            expected = brute_qwk(rows)
        except ZeroDivisionError:
            with pytest.raises(DegenerateMarginals):
                qwk(confusion(rows))
            continue
        assert qwk(confusion(rows)) == pytest.approx(expected, abs=1e-9)


def test_qwk_scale_reversal_invariance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        m = rng.integers(0, 6, size=(k, k))
        if m.sum() == 0 or (m.sum() - np.trace(m) == 0 and np.count_nonzero(np.diag(m)) <= 1):
            continue
        rows = tuple(tuple(int(x) for x in row) for row in m)
        reversed_rows = tuple(tuple(int(x) for x in row[::-1]) for row in m[::-1])
        try:
            a = qwk(OrdinalConfusion(k=k, counts=rows))
        except DegenerateMarginals:
            continue
        b = qwk(OrdinalConfusion(k=k, counts=reversed_rows))
        assert a == pytest.approx(b, abs=1e-12)


def test_confusion_from_pairs():
    m = OrdinalConfusion.from_pairs([(1, 1), (1, 2), (3, 3)], k=3)
    assert m.counts[0][0] == 1
    assert m.counts[0][1] == 1
    assert m.counts[2][2] == 1
    rng = random.Random(11)
    for k in (2, 3, 17, 64):
        pairs = [(rng.randint(1, k), rng.randint(1, k)) for _ in range(300)]
        tally = [[0] * k for _ in range(k)]
        for a, b in pairs:
            tally[a - 1][b - 1] += 1
        m = OrdinalConfusion.from_pairs(pairs, k=k)
        assert isinstance(m.counts, np.ndarray)
        assert m.counts.dtype.kind == "i"
        assert m.counts.tolist() == tally
        assert abs(qwk(m) - brute_qwk(tally)) <= 1e-12


def test_confusion_from_pairs_out_of_range():
    with pytest.raises(DataError):
        OrdinalConfusion.from_pairs([(0, 1)], k=3)


def test_confusion_from_pairs_refuses_no_pairs():
    with pytest.raises(DataError, match="^no rating pairs$"):
        OrdinalConfusion.from_pairs([])


def test_confusion_from_pairs_category_limit():
    """k x k counts past MAX_CATEGORIES are refused before they are
    allocated: a k argument is a ConfigError, an inferred one a DataError."""
    top = MAX_CATEGORIES
    assert OrdinalConfusion.from_pairs([(1, top)]).k == top
    assert OrdinalConfusion.from_pairs([(1, 2)], k=top).k == top
    with pytest.raises(DataError, match=f"rating {10**7} above the {top}-category limit"):
        OrdinalConfusion.from_pairs([(1, 2), (10**7, 1)])
    for k in (top + 1, 10**7):
        with pytest.raises(ConfigError, match=f"k = {k} above the {top}-category limit"):
            OrdinalConfusion.from_pairs([(1, 2)], k=k)


def test_blame_from_agreement_paper_value():
    assert blame_from_agreement(0.478) == pytest.approx(0.522, abs=1e-12)


def test_blame_from_agreement_clamps():
    assert blame_from_agreement(1.0) == 0.0
    assert blame_from_agreement(-0.5) == 1.0


def test_prf1_perfect():
    assert precision_recall_f1(BinaryCounts(tp=10, fp=0, fn=0, tn=0)) == (1.0, 1.0, 1.0)


def test_prf1_balanced():
    p, r, f1 = precision_recall_f1(BinaryCounts(tp=2, fp=1, fn=1, tn=3))
    assert p == pytest.approx(2 / 3, abs=1e-12)
    assert r == pytest.approx(2 / 3, abs=1e-12)
    assert f1 == pytest.approx(2 / 3, abs=1e-12)


def test_prf1_degenerate_conventions():
    assert precision_recall_f1(BinaryCounts(tp=0, fp=5, fn=5, tn=0)) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(BinaryCounts(tp=0, fp=0, fn=0, tn=4)) == (0.0, 0.0, 0.0)


def test_prf1_random_matches_oracle():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 40)
        preds = [rng.choice("ab") for _ in range(n)]
        trues = [rng.choice("ab") for _ in range(n)]
        counts = binary_counts(preds, trues, positive="a")
        assert precision_recall_f1(counts) == pytest.approx(
            brute_prf1(preds, trues, "a"), abs=1e-12
        )


def test_f1_between_precision_and_recall():
    rng = random.Random(5)
    for _ in range(200):
        c = BinaryCounts(
            tp=rng.randint(0, 10), fp=rng.randint(0, 10), fn=rng.randint(0, 10), tn=1
        )
        p, r, f1 = precision_recall_f1(c)
        if p + r > 0:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
            assert f1 <= 2 * min(p, r) + 1e-12


def test_blame_from_f1_drop_paper_value():
    assert blame_from_f1_drop(0.831, 0.896) == pytest.approx(0.065, abs=1e-12)


def test_blame_from_f1_drop_clamps():
    assert blame_from_f1_drop(0.5, 0.5) == 0.0
    assert blame_from_f1_drop(0.9, 0.4) == 0.0
