import numpy as np
import pytest
from scipy.stats import rankdata

from mbrl.metrics import ate_error, auc, pehe_root, rmse


def _auc_brute_force(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_ate_error_examples():
    assert ate_error(1.0, 1.0) == 0.0
    assert ate_error(1.0, 0.8) == pytest.approx(0.2)
    assert ate_error(0.3, 0.9) == ate_error(0.9, 0.3)


def test_ate_error_triangle_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tau, tau_hat, x = rng.normal(size=3)
        assert ate_error(tau, tau_hat) <= ate_error(tau, x) + ate_error(x, tau_hat) + 1e-12


def test_pehe_examples():
    assert pehe_root([1, 2], [0, 1], [1, 2], [0, 1]) == 0.0
    assert pehe_root([1, 1], [0, 0], [0, 0], [0, 0]) == pytest.approx(1.0)


def test_pehe_shift_invariance():
    rng = np.random.default_rng(1)
    y1, y0, h1, h0 = rng.normal(size=(4, 20))
    base = pehe_root(y1, y0, h1, h0)
    assert pehe_root(y1, y0, h1 + 3.7, h0 + 3.7) == pytest.approx(base)


def test_pehe_missing_ground_truth():
    with pytest.raises(ValueError, match="ground truth"):
        pehe_root(None, None, [1.0], [0.0])


def test_auc_examples():
    assert auc([1, 0], [0.9, 0.1]) == 1.0
    assert auc([1, 0], [0.5, 0.5]) == 0.5
    assert auc([1, 0, 1, 0], [0.8, 0.7, 0.6, 0.5]) == pytest.approx(0.75)


def test_auc_single_class_rejected():
    with pytest.raises(ValueError, match="single-class"):
        auc([1, 1], [0.2, 0.3])


@pytest.mark.parametrize("seed", range(8))
def test_auc_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 50))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() in (0, n):
        labels[0], labels[1] = 0, 1
    scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
    assert auc(labels, scores) == pytest.approx(_auc_brute_force(labels, scores))


def _auc_from_rankdata(labels, scores):
    """The Mann-Whitney form over scipy's average ranks: the reference that
    ``auc``'s numpy ranks must reproduce to the last bit."""
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(np.asarray(scores, dtype=float))
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _auc_case(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 400))
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    if kind == "untied":
        scores = rng.normal(size=n)
    elif kind == "tied-integers":
        scores = rng.integers(0, 4, size=n).astype(float)
    elif kind == "all-equal":
        scores = np.full(n, 0.25)
    elif kind == "signed-zeros":
        scores = rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    else:  # one positive among tied negatives
        labels = np.zeros(n, dtype=int)
        labels[int(rng.integers(n))] = 1
        scores = rng.integers(0, 3, size=n).astype(float)
    return labels, scores


@pytest.mark.parametrize("kind", ["untied", "tied-integers", "all-equal",
                                  "signed-zeros", "single-positive"])
@pytest.mark.parametrize("seed", range(5))
def test_auc_equals_the_rankdata_form_bitwise(kind, seed):
    labels, scores = _auc_case(kind, seed)
    assert auc(labels, scores) == _auc_from_rankdata(labels, scores)


def test_auc_of_a_nan_score_is_nan():
    labels, scores = [1, 0, 1, 0], [0.3, np.nan, 0.9, 0.1]
    assert np.isnan(auc(labels, scores))
    assert np.isnan(_auc_from_rankdata(labels, scores))


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2.0))


def test_rmse_homogeneity():
    rng = np.random.default_rng(2)
    y, yhat = rng.normal(size=(2, 15))
    c = -2.5
    assert rmse(c * y, c * yhat) == pytest.approx(abs(c) * rmse(y, yhat))

