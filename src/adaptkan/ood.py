"""Post-hoc out-of-distribution scoring from per-feature histograms.

A scorer holds one fixed :class:`histogram.FeatureHistogram`, the training
layers' histogram type, built from its fit data alone.  The score of a query
is the mean over features of the log normalised bin value at that feature's
coordinate; coordinates outside a feature's fitted range, or in empty bins,
contribute the floored probability.  Lower scores mean more likely OOD.  The
score can optionally be fused with the log maximum softmax probability of a
classifier's logits.
"""

from __future__ import annotations

import json

import numpy as np

from .adapt import require_count, require_real
from .histogram import FeatureHistogram

DEFAULT_BINS_HIST = 200      # histogram-only scoring
DEFAULT_MSP_LAMBDA = 0.1


class OodScorer:
    """Immutable scorer: a :class:`FeatureHistogram` ``hist``, each feature with a
    positive in-domain count, and a finite fusion weight ``msp_lambda``."""

    def __init__(self, hist: FeatureHistogram, msp_lambda: float = DEFAULT_MSP_LAMBDA):
        require_real("msp_lambda", msp_lambda)
        self.hist = hist
        self.msp_lambda = float(msp_lambda)
        if (hist.hist.sum(axis=1) <= 0.0).any():
            raise ValueError("every feature histogram needs positive total count")

    def save(self, path) -> None:
        """Write the scorer as JSON; :meth:`load` reads it back bitwise."""
        doc = {
            "bins": self.hist.omega,
            "lo": self.hist.a.tolist(),
            "hi": self.hist.b.tolist(),
            "counts": self.hist.hist.tolist(),
            "msp_lambda": self.msp_lambda,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    @classmethod
    def load(cls, path) -> "OodScorer":
        """Read a scorer written by :meth:`save` (older files' extra keys are
        ignored); a value of the wrong JSON type in it raises ValueError."""
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"scorer file {path} does not hold a JSON object")
        try:
            counts = np.array(doc["counts"], dtype=float)
            if counts.ndim != 2:
                raise ValueError("counts must be (n_features, n_bins)")
            # zero tallies below lo and above hi: a scorer counts only its fit data
            hist = FeatureHistogram(doc["lo"], doc["hi"], counts.shape[1],
                                    np.pad(counts, ((0, 0), (1, 1))))
            return cls(hist, msp_lambda=doc.get("msp_lambda", DEFAULT_MSP_LAMBDA))
        except TypeError as exc:
            raise ValueError(f"malformed scorer file: {exc}") from None

    @classmethod
    def fit(cls, features, bins: int = DEFAULT_BINS_HIST,
            msp_lambda: float = DEFAULT_MSP_LAMBDA) -> "OodScorer":
        """The :meth:`FeatureHistogram.from_batch` histogram of a (N, n_features)
        matrix, with ``bins`` (an integer >= 1) bins per feature."""
        require_count("bins", bins)
        return cls(FeatureHistogram.from_batch(np.atleast_2d(features), bins), msp_lambda)

    def feature_probs(self, X) -> np.ndarray:
        """Normalised bin values per (sample, feature), floored at PROB_FLOOR."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.hist.a.size:
            raise ValueError(f"{X.shape[1]} features for a scorer of {self.hist.a.size}")
        return self.hist.probs(X)

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
