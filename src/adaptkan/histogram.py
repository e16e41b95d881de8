"""Per-feature streaming histograms with out-of-domain tracking.

Each grid domain carries a histogram with one bin per grid interval plus two
out-of-domain tallies (below a / above b) and the running extremes ever seen
outside the domain.  Batches update the bins as an exponential moving
average of raw counts, so a single outlier's contribution decays
geometrically once it stops appearing.
"""

from __future__ import annotations

import numpy as np

from .spline import GridDomain

# Probability floor for empty bins; keeps log-scores finite without
# reordering them.
PROB_FLOOR = 1e-12


def create_histogram(samples, dom: GridDomain) -> np.ndarray:
    """Uniform-width bin counts of in-domain samples; b lands in the last bin."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return np.zeros(dom.omega)
    idx = (samples - dom.a) * (dom.omega / (dom.b - dom.a))
    # ufunc clamps: np.clip on an integer array builds two np.iinfo per call
    idx = idx.astype(np.int64)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, dom.omega - 1, out=idx)
    return np.bincount(idx, minlength=dom.omega).astype(float)


class FeatureHistogram:
    """EMA bin counts over one feature's grid domain.

    Attributes
    ----------
    hist : (omega,) EMA counts over the in-domain bins.
    ood_hist : (2,) EMA counts of data below a / above b.
    ood_a, ood_b : running min below a / max above b ever seen (initialised
        to a and b, so an untouched side never moves the domain).
    alpha : EMA rate in (0, 1]; alpha=1 keeps no memory.
    """

    def __init__(self, dom: GridDomain, alpha: float, hist=None, ood_hist=None,
                 ood_a=None, ood_b=None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"need 0 < alpha <= 1, got {alpha}")
        self.dom = dom
        self.alpha = float(alpha)
        self.hist = np.zeros(dom.omega) if hist is None else np.asarray(hist, dtype=float).copy()
        self.ood_hist = np.zeros(2) if ood_hist is None else np.asarray(ood_hist, dtype=float).copy()
        self.ood_a = dom.a if ood_a is None else float(ood_a)
        self.ood_b = dom.b if ood_b is None else float(ood_b)
        if self.hist.shape != (dom.omega,):
            raise ValueError(f"hist shape {self.hist.shape} != ({dom.omega},)")
        if self.ood_hist.shape != (2,):
            raise ValueError(f"ood_hist shape {self.ood_hist.shape} != (2,)")

    def total(self) -> float:
        """Total EMA count including the out-of-domain tallies."""
        return float(self.hist.sum() + self.ood_hist.sum())

    def update(self, batch) -> "FeatureHistogram":
        """Blend one batch into the EMA state (in place).

        Splits the batch into below-a / in-domain / above-b, updates the
        running extremes, and applies hist <- (1-alpha)*hist + alpha*counts
        to both the in-domain bins and the two out-of-domain tallies.
        """
        batch = np.asarray(batch, dtype=float)
        if not np.all(np.isfinite(batch)):
            raise ValueError("non-finite values in histogram batch")
        a, b = self.dom.a, self.dom.b
        below = batch[batch < a]
        above = batch[batch > b]
        batch_ood = np.array([float(len(below)), float(len(above))])
        if len(below):
            self.ood_a = min(self.ood_a, float(below.min()))
        if len(above):
            self.ood_b = max(self.ood_b, float(above.max()))
        inside = batch[(batch >= a) & (batch <= b)]
        batch_hist = create_histogram(inside, self.dom)
        self.hist = (1.0 - self.alpha) * self.hist + self.alpha * batch_hist
        self.ood_hist = (1.0 - self.alpha) * self.ood_hist + self.alpha * batch_ood
        return self

    def refit(self, new_dom: GridDomain) -> "FeatureHistogram":
        """Transfer the EMA state onto a new domain, conserving total count.

        New bin values come from piecewise-linear interpolation of the old
        values (nodes at old bin centers, zero beyond them).  Per side:
        stretching deposits the out-of-domain tally into the new bin holding
        the recorded extreme and zeroes it; shrinking folds the old in-domain
        mass now outside the bounds into the tally.  Everything is then
        rescaled so the grand total matches the pre-refit total.
        """
        old_total = self.total()
        new_hist = np.interp(new_dom.centers(), self.dom.centers(),
                             self.hist, left=0.0, right=0.0)
        new_ood = self.ood_hist.copy()
        old_centers = self.dom.centers()

        def bin_of(value: float) -> int:
            return int(np.clip(np.floor((value - new_dom.a) / new_dom.d),
                               0, new_dom.omega - 1))

        # left side
        if new_dom.a < self.dom.a:  # stretched
            new_hist[bin_of(self.ood_a)] += new_ood[0]
            new_ood[0] = 0.0
        elif new_dom.a > self.dom.a:  # shrunk
            new_ood[0] += self.hist[old_centers < new_dom.a].sum()
        # right side
        if new_dom.b > self.dom.b:  # stretched
            new_hist[bin_of(self.ood_b)] += new_ood[1]
            new_ood[1] = 0.0
        elif new_dom.b < self.dom.b:  # shrunk
            new_ood[1] += self.hist[old_centers > new_dom.b].sum()

        current = new_hist.sum() + new_ood.sum()
        if current > 0.0:
            scale = old_total / current
            new_hist *= scale
            new_ood *= scale
        return FeatureHistogram(
            new_dom, self.alpha, hist=new_hist, ood_hist=new_ood,
            ood_a=min(self.ood_a, new_dom.a), ood_b=max(self.ood_b, new_dom.b),
        )

    def marginal_prob(self, x):
        """Normalised bin value at x, floored at PROB_FLOOR; floor outside [a, b]."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        total = self.hist.sum()
        idx = np.clip(np.floor((x - self.dom.a) / self.dom.d), 0, self.dom.omega - 1)
        p = np.full(x.shape, PROB_FLOOR)
        if total > 0.0:
            inside = (x >= self.dom.a) & (x <= self.dom.b)
            p[inside] = np.maximum(self.hist[idx[inside].astype(int)] / total, PROB_FLOOR)
        return float(p[0]) if scalar else p

    def copy(self) -> "FeatureHistogram":
        return FeatureHistogram(self.dom, self.alpha, hist=self.hist,
                                ood_hist=self.ood_hist, ood_a=self.ood_a, ood_b=self.ood_b)
