"""Ranking metrics and a small PCA used for embedding analysis.

AUROC uses the rank statistic with tied scores contributing 1/2.
AUPRC is average precision: the precision sweep over the descending
score order, summing P_k at each recall step (not trapezoidal).  The
lift metric subtracts the positive base rate of the query set, so 0
means "no better than random scoring".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricError",
    "auroc",
    "auprc",
    "delta_auprc",
    "EvalResult",
    "aggregate",
    "pca_project",
]

TIED_SCORES = "tied scores across classes: average precision depends on input order"


class MetricError(ValueError):
    """Scores and labels unusable for the requested metric."""


def _check_inputs(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise MetricError(f"scores and labels differ in length: {s.shape[0]} vs {y.shape[0]}")
    if s.size == 0:
        raise MetricError("empty score list")
    if not np.all(np.isfinite(s)):
        raise MetricError("scores must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise MetricError("labels must be 0 or 1")
    return s, y.astype(np.int64)


def _average_ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank: a run of
    ``count`` equal scores ending at rank ``end`` shares
    ``end - (count - 1) / 2``, an exact half-integer."""
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2)[inverse]


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties 1/2."""
    s, y = _check_inputs(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC needs at least one positive and one negative label")
    ranks = _average_ranks(s)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision over the descending-score sweep.

    Ties are broken by stable original order; a warning is emitted when
    tied scores cross a class boundary, since the result then depends
    on input order.
    """
    s, y = _check_inputs(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("AUPRC needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    sorted_labels = y[order]
    dup = sorted_scores[1:] == sorted_scores[:-1]
    if np.any(dup & (sorted_labels[1:] != sorted_labels[:-1])):
        warnings.warn(TIED_SCORES, RuntimeWarning, stacklevel=2)
    tp = np.cumsum(sorted_labels)
    k = np.arange(1, y.size + 1)
    precision = tp / k
    return float(precision[sorted_labels == 1].sum() / n_pos)


def delta_auprc(scores, labels) -> float:
    """Average precision minus the positive base rate of the inputs."""
    s, y = _check_inputs(scores, labels)
    return auprc(s, y) - float(y.sum()) / y.size


@dataclass
class EvalResult:
    mean: float
    std: float | None  # sample standard deviation (n-1), None for single runs
    stderr: float | None


def aggregate(values) -> EvalResult:
    """Mean with spread over repeated runs; single runs carry no spread."""
    vals = [float(v) for v in values]
    if not vals:
        raise MetricError("aggregate: no values")
    mean = float(np.mean(vals))
    if len(vals) < 2:
        return EvalResult(mean, None, None)
    std = float(np.std(vals, ddof=1))
    return EvalResult(mean, std, std / np.sqrt(len(vals)))


def pca_project(data, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Project rows onto the top-k principal components.

    Components are the leading eigenvectors of the sample covariance,
    from its symmetric eigendecomposition.  Component signs are fixed so
    each vector's largest magnitude coordinate is positive.  Returns
    (projections [n, k], explained-variance ratios [k]).
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise MetricError(f"pca_project: expected a 2-d array, got shape {x.shape}")
    n, d = x.shape
    if not 1 <= k <= min(n, d):
        raise MetricError(f"pca_project: k={k} out of range for data {x.shape}")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(n - 1, 1)
    total_var = float(np.trace(cov))

    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    comps = eigvecs[:, ::-1][:, :k].T.copy()
    pivot = comps[np.arange(k), np.argmax(np.abs(comps), axis=1)]
    comps[pivot < 0] *= -1.0
    eigs = np.maximum(eigvals[::-1][:k], 0.0)

    ratios = eigs / total_var if total_var > 0 else np.zeros(k)
    return centered @ comps.T, ratios
