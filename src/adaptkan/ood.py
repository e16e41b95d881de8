"""Post-hoc out-of-distribution scoring from per-feature histograms.

A scorer holds one fixed histogram per input feature.  The score of a query
is the mean over features of the log normalised bin value at that feature's
coordinate; coordinates outside a feature's fitted range, or in empty bins,
contribute the floored probability.  Lower scores mean more likely OOD.
The score can optionally be fused with the log maximum softmax probability
of a classifier's logits.
"""

from __future__ import annotations

import json

import numpy as np

from .histogram import PROB_FLOOR

DEFAULT_BINS_HIST = 200      # histogram-only scoring
DEFAULT_BINS_HIST_MSP = 50   # histogram + max-softmax fusion
DEFAULT_MSP_LAMBDA = 0.1


class OodScorer:
    """Immutable per-feature histogram scorer."""

    def __init__(self, lo, hi, counts, msp_lambda: float = DEFAULT_MSP_LAMBDA,
                 bounds_from_data: bool = False):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.msp_lambda = float(msp_lambda)
        # True when the feature ranges were taken from the fit data itself
        # rather than supplied externally.
        self.bounds_from_data = bounds_from_data
        if self.counts.ndim != 2:
            raise ValueError("counts must be (n_features, n_bins)")
        if np.any(self.counts.sum(axis=1) <= 0):
            raise ValueError("every feature histogram needs positive total count")
        if self.lo.shape != (self.n_features,) or self.hi.shape != (self.n_features,):
            raise ValueError(f"lo and hi need one bound per feature ({self.n_features})")

    def save(self, path) -> None:
        """Write the scorer as JSON; :meth:`load` reads it back bitwise."""
        doc = {
            "bins": self.n_bins,
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "counts": self.counts.tolist(),
            "msp_lambda": self.msp_lambda,
            "bounds_from_data": self.bounds_from_data,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "OodScorer":
        """Read a scorer written by :meth:`save`."""
        with open(path) as fh:
            doc = json.load(fh)
        return cls(doc["lo"], doc["hi"], doc["counts"],
                   msp_lambda=doc.get("msp_lambda", DEFAULT_MSP_LAMBDA),
                   bounds_from_data=doc.get("bounds_from_data", False))

    @property
    def n_features(self) -> int:
        return self.counts.shape[0]

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

    @classmethod
    def fit(cls, features, bins: int = DEFAULT_BINS_HIST, bounds=None,
            msp_lambda: float = DEFAULT_MSP_LAMBDA) -> "OodScorer":
        """One-pass histograms over a (N, n_features) matrix.

        Bounds default to each feature's min/max over the fit data; a
        degenerate (constant) feature is widened by 1e-6 on each side.
        ``bounds`` may supply explicit (lo, hi) arrays instead.
        """
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite values in fit features")
        if bounds is None:
            lo, hi = X.min(axis=0), X.max(axis=0)
            degenerate = lo == hi
            lo = np.where(degenerate, lo - 1e-6, lo)
            hi = np.where(degenerate, hi + 1e-6, hi)
            from_data = True
        else:
            lo, hi = (np.asarray(b, dtype=float) for b in bounds)
            from_data = False
        counts = np.stack([
            np.histogram(X[:, j], bins=bins, range=(lo[j], hi[j]))[0].astype(float)
            for j in range(X.shape[1])
        ])
        return cls(lo, hi, counts, msp_lambda=msp_lambda, bounds_from_data=from_data)

    def feature_probs(self, X) -> np.ndarray:
        """Normalised bin values per (sample, feature), floored at PROB_FLOOR."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError(f"{X.shape[1]} features for a scorer of {self.n_features}")
        width = (self.hi - self.lo) / self.n_bins
        idx = np.clip(np.floor((X - self.lo) / width), 0, self.n_bins - 1).astype(int)
        totals = self.counts.sum(axis=1)
        p = self.counts[np.arange(self.n_features), idx] / totals
        inside = (X >= self.lo) & (X <= self.hi)
        return np.where(inside, np.maximum(p, PROB_FLOOR), PROB_FLOOR)

    def score_hist(self, X) -> np.ndarray:
        """Mean log marginal bin probability per sample; lower = more OOD."""
        scalar = np.asarray(X).ndim == 1
        scores = np.log(self.feature_probs(X)).mean(axis=1)
        return float(scores[0]) if scalar else scores

    def score_hist_msp(self, X, logits, msp_lambda: float | None = None) -> np.ndarray:
        """Histogram score plus lambda * log(max softmax of the logits)."""
        lam = self.msp_lambda if msp_lambda is None else msp_lambda
        logits = np.atleast_2d(np.asarray(logits, dtype=float))
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_msp = shifted.max(axis=1) - np.log(np.exp(shifted).sum(axis=1))
        scalar = np.asarray(X).ndim == 1
        scores = np.log(self.feature_probs(X)).mean(axis=1) + lam * log_msp
        return float(scores[0]) if scalar else scores


def auroc(id_scores, ood_scores) -> float:
    """Probability a random in-distribution score exceeds a random OOD score.

    Rank (Mann-Whitney) formulation; ties count one half.
    """
    id_scores = np.asarray(id_scores, dtype=float).ravel()
    ood_scores = np.asarray(ood_scores, dtype=float).ravel()
    if len(id_scores) == 0 or len(ood_scores) == 0:
        raise ValueError("both score sets must be non-empty")
    combined = np.concatenate([id_scores, ood_scores])
    _, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    # average 1-based rank of each tie group
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    n_id, n_ood = len(id_scores), len(ood_scores)
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return float(u / (n_id * n_ood))
