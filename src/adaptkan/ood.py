"""Post-hoc out-of-distribution scoring from per-feature histograms.

A scorer holds one fixed histogram per input feature, counted and read with
the training histograms' bin rule (:func:`histogram.histogram_bin`).  The
score of a query is the mean over features of the log normalised bin value
at that feature's coordinate; coordinates outside a feature's fitted range,
or in empty bins, contribute the floored probability.  Lower scores mean more likely OOD.
The score can optionally be fused with the log maximum softmax probability
of a classifier's logits.
"""

from __future__ import annotations

import json

import numpy as np

from .histogram import floored_prob, histogram_bin
from .optim import require_count

DEFAULT_BINS_HIST = 200      # histogram-only scoring
DEFAULT_MSP_LAMBDA = 0.1


class OodScorer:
    """Immutable per-feature histogram scorer."""

    def __init__(self, lo, hi, counts, msp_lambda: float = DEFAULT_MSP_LAMBDA):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.msp_lambda = float(msp_lambda)
        if self.counts.ndim != 2:
            raise ValueError("counts must be (n_features, n_bins)")
        if not (np.isfinite(self.counts).all() and (self.counts >= 0.0).all()):
            raise ValueError("counts must be finite and non-negative")
        if np.any(self.counts.sum(axis=1) <= 0):
            raise ValueError("every feature histogram needs positive total count")
        if self.lo.shape != (self.n_features,) or self.hi.shape != (self.n_features,):
            raise ValueError(f"lo and hi need one bound per feature ({self.n_features})")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()
                and np.all(self.lo < self.hi)):
            raise ValueError("every feature needs finite lo < hi")

    def save(self, path) -> None:
        """Write the scorer as JSON; :meth:`load` reads it back bitwise."""
        doc = {
            "bins": self.n_bins,
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "counts": self.counts.tolist(),
            "msp_lambda": self.msp_lambda,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "OodScorer":
        """Read a scorer written by :meth:`save` (older files' extra keys are ignored)."""
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"scorer file {path} does not hold a JSON object")
        return cls(doc["lo"], doc["hi"], doc["counts"],
                   msp_lambda=doc.get("msp_lambda", DEFAULT_MSP_LAMBDA))

    @property
    def n_features(self) -> int:
        return self.counts.shape[0]

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

    @classmethod
    def fit(cls, features, bins: int = DEFAULT_BINS_HIST,
            msp_lambda: float = DEFAULT_MSP_LAMBDA) -> "OodScorer":
        """One-pass histograms over a (N, n_features) matrix.

        Bounds are each feature's min/max over the fit data; a degenerate
        (constant) feature is widened by 1e-6 on each side.  ``bins`` must be
        an integer >= 1.
        """
        require_count("bins", bins)
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite values in fit features")
        lo, hi = X.min(axis=0), X.max(axis=0)
        degenerate = lo == hi
        lo = np.where(degenerate, lo - 1e-6, lo)
        hi = np.where(degenerate, hi + 1e-6, hi)
        if not np.all(lo < hi):  # beyond about 1.7e10, 1e-6 is below half an ulp
            raise ValueError("a constant feature is too large to widen by 1e-6")
        n = X.shape[1]
        idx = histogram_bin(X, lo, hi, bins) + bins * np.arange(n)
        counts = np.bincount(idx.ravel(), minlength=n * bins).reshape(n, bins)
        return cls(lo, hi, counts, msp_lambda=msp_lambda)

    def feature_probs(self, X) -> np.ndarray:
        """Normalised bin values per (sample, feature), floored at PROB_FLOOR."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError(f"{X.shape[1]} features for a scorer of {self.n_features}")
        return floored_prob(X, self.counts, self.lo, self.hi)

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
        scores = self.score_hist(np.atleast_2d(X)) + lam * log_msp
        return float(scores[0]) if np.asarray(X).ndim == 1 else scores


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
