"""Per-feature streaming histograms with out-of-domain tracking.

Each grid domain carries a histogram with one bin per grid interval plus two
out-of-domain tallies (below a / above b) and the running extremes ever seen
outside the domain.  Batches update the bins as an exponential moving
average of raw counts, so a single outlier's contribution decays
geometrically once it stops appearing.

Training and OOD histograms alike count and read bins by one rule,
:func:`histogram_bin`, so a value is read back from the bin it was counted in.
"""

from __future__ import annotations

import numpy as np

from .spline import GridDomain

# Probability floor for empty bins; keeps log-scores finite without
# reordering them.
PROB_FLOOR = 1e-12


def histogram_bin(x, a, b, omega: int):
    """Bin of x among ``omega`` uniform bins over [a, b]: (x - a) * (omega /
    (b - a)) truncated to an integer and clamped to [0, omega - 1], so b
    lands in the last bin.  ``a``/``b`` may be (n,) arrays, one domain per
    feature along the last axis of x; x must be finite.
    """
    idx = ((np.asarray(x, dtype=float) - a) * (omega / (b - a))).astype(np.int64)
    return np.clip(idx, 0, omega - 1)


def floored_prob(x, counts, a, b) -> np.ndarray:
    """Share of its histogram's count in the bin holding each query, floored
    at PROB_FLOOR, which queries outside [a, b] (+-inf too) and queries of an
    empty histogram get.  ``counts`` (n, omega) holds n histograms over [a, b]
    (scalars or (n,) arrays) for the last axis of ``x`` (..., n).  A NaN query
    raises ValueError."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("NaN in histogram query")
    n, omega = counts.shape
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.divide(counts, totals, out=np.zeros(counts.shape), where=totals > 0.0)
    idx = histogram_bin(np.clip(x, a, b), a, b, omega) + omega * np.arange(n)
    p = np.maximum(probs.ravel()[idx], PROB_FLOOR)
    return np.where((x >= a) & (x <= b), p, PROB_FLOOR)


def create_histogram(samples, dom: GridDomain) -> np.ndarray:
    """Uniform-width bin counts of in-domain samples, binned by histogram_bin."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return np.zeros(dom.omega)
    # histogram_bin inlined: this runs per feature per training step
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

        def bin_of(value: float):
            return histogram_bin(value, new_dom.a, new_dom.b, new_dom.omega)

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
        """Normalised bin value at x (see :func:`floored_prob`)."""
        p = floored_prob(np.asarray(x, dtype=float)[..., None], self.hist[None],
                         self.dom.a, self.dom.b)[..., 0]
        return float(p) if p.ndim == 0 else p
