"""Histogram out-of-distribution scoring on synthetic features.

Fits one histogram per feature on in-distribution data and scores queries
by their mean log marginal bin probability.  Demonstrates both the plain
histogram score and its fusion with a classifier's max-softmax probability.

Run: python demos/ood_detection.py
"""

import numpy as np

from adaptkan import OodScorer, auroc

rng = np.random.default_rng(0)
n_features = 8

# in-distribution: standard normal features; OOD: mean shifted by 3
fit = rng.normal(0.0, 1.0, size=(10_000, n_features))
id_query = rng.normal(0.0, 1.0, size=(1000, n_features))
ood_query = rng.normal(3.0, 1.0, size=(1000, n_features))

scorer = OodScorer.fit(fit, bins=200)
id_scores = scorer.score_hist(id_query)
ood_scores = scorer.score_hist(ood_query)

print(f"fitted {scorer.hist.a.size} histograms x {scorer.hist.omega} bins "
      f"on each feature's min/max over the fit data")
print(f"mean ID score : {id_scores.mean():+.3f}")
print(f"mean OOD score: {ood_scores.mean():+.3f}   (lower = more OOD)")
print(f"AUROC         : {auroc(id_scores, ood_scores):.4f}")

# fusing with max-softmax probability: fake logits where the classifier is
# confident in distribution and uncertain out of distribution
scorer50 = OodScorer.fit(fit, bins=50, msp_lambda=0.1)
id_logits = np.zeros((1000, 10))
id_logits[:, 0] = 4.0
ood_logits = np.zeros((1000, 10))
fused_id = scorer50.score_hist_msp(id_query, id_logits)
fused_ood = scorer50.score_hist_msp(ood_query, ood_logits)
print(f"\nwith max-softmax fusion (50 bins, lambda=0.1):")
print(f"AUROC         : {auroc(fused_id, fused_ood):.4f}")

# a borderline case: small shift, where the fused variant helps
near = rng.normal(0.6, 1.0, size=(1000, n_features))
print(f"\nnear-OOD (mean 0.6) histogram-only AUROC: "
      f"{auroc(id_scores, scorer.score_hist(near)):.4f}")

print("\nsame pipeline via the CLI:")
print("  adaptkan ood fit   --features fit.csv --bins 200 --out scorer.json")
print("  adaptkan ood score --scorer scorer.json --features query.csv --out scores.csv")
print("  adaptkan ood auroc --id id_scores.csv --ood ood_scores.csv")
