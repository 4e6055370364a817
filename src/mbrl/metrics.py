"""Evaluation metrics for ATE and ITE quality."""

from __future__ import annotations

import numpy as np


def ate_error(tau_true: float, tau_hat: float) -> float:
    """Absolute error |tau - tau_hat|."""
    if not (np.isfinite(tau_true) and np.isfinite(tau_hat)):
        raise ValueError("ATE inputs must be finite")
    return abs(float(tau_true) - float(tau_hat))


def pehe_root(y1, y0, yhat1, yhat0) -> float:
    """Root mean squared error of predicted individual treatment effects.

    Callers pass noiseless means for y1/y0 when the dataset provides them.
    """
    if y1 is None or y0 is None:
        raise ValueError("ground truth missing")
    y1, y0, yhat1, yhat0 = (np.asarray(v, dtype=float) for v in (y1, y0, yhat1, yhat0))
    if not (y1.shape == y0.shape == yhat1.shape == yhat0.shape):
        raise ValueError("length mismatch")
    diff = (y1 - y0) - (yhat1 - yhat0)
    return float(np.sqrt(np.mean(diff ** 2)))


def auc(labels, scores) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2.

    Mann-Whitney form computed from average ranks; requires both classes.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError("labels and scores must be equal-length vectors")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0/1")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("single-class input")
    # Average ranks: a tie run sorted into 0-based positions [start, end)
    # shares the midpoint rank (start + end + 1) / 2. A nan score leaves
    # every rank undefined, so the AUC is nan.
    if np.isnan(scores).any():
        return float("nan")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rmse(y, yhat) -> float:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise ValueError("length mismatch")
    return float(np.sqrt(np.mean((y - yhat) ** 2)))

