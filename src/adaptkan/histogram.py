"""Streaming histograms with out-of-domain tracking for a layer's n features.

Each grid domain carries a histogram with one bin per grid interval plus two
out-of-domain tallies (below a / above b) and the running extremes ever seen
outside the domain.  Batches update the bins as an exponential moving
average of raw counts, so a single outlier's contribution decays
geometrically once it stops appearing.

A :class:`FeatureHistogram` holds this state as arrays over the n >= 1 input
features of a layer:

    a, b      (n,)           domain bounds, each split into ``omega`` intervals
    counts    (n, omega+2)   column 0 tallies data below a, columns
                             1..omega are the in-domain bins, column
                             omega+1 tallies data above b
    extremes  (n, 2)         running min below a / max above b

so a layer counts a whole (B, n) batch with one offset ``bincount`` and one
EMA at the rate its caller passes (``AdaptConfig.alpha`` in a network), and
moves the domain of any of its features with one
:meth:`FeatureHistogram.refit`.  A single feature is the n = 1 layer.

OOD scorers hold this type too, built by :meth:`FeatureHistogram.from_batch`
and read by :meth:`FeatureHistogram.probs`.  All count and read bins by one
rule, :func:`histogram_bin`, so a value is read back from the bin it was counted in.
"""

from __future__ import annotations

import numpy as np

# Probability floor for empty bins; keeps log-scores finite without
# reordering them.
PROB_FLOOR = 1e-12


def histogram_bin(x, a, b, omega: int):
    """Bin of x among ``omega`` uniform bins over [a, b]: (x - a) * (omega /
    (b - a)) clamped to [0, omega - 1] and truncated to an integer, so b
    lands in the last bin and values far outside [a, b] (+-inf too) in the
    edge bins.  ``a``/``b`` may be (n,) arrays, one domain per feature along
    the last axis of x; x must not be NaN.
    """
    # clamped before the integer cast, which would overflow for large |u|;
    # in place, on an array even when x is a scalar
    u = np.asarray((np.asarray(x, dtype=float) - a) * (omega / (b - a)))
    np.maximum(u, 0.0, out=u)
    np.minimum(u, omega - 1, out=u)
    return u.astype(np.int64)


class FeatureHistogram:
    """EMA bin counts over the grid domain of each of a layer's n input features.

    ``FeatureHistogram(a, b, omega, counts, extremes)`` copies its state
    arrays, described in the module docstring.  By default the counts are
    zero and the extremes sit at the bounds, so an untouched side never
    moves the domain.  The bounds must be finite with a < b, omega >= 1, the
    counts finite and non-negative, the extremes finite, and the extremes
    must bracket the bounds (extremes[:, 0] <= a, extremes[:, 1] >= b).

    hist : (n, omega) view of the EMA counts over the in-domain bins.
    ood_hist : (n, 2) view of the EMA counts of data below a / above b.
    """

    def __init__(self, a, b, omega: int, counts=None, extremes=None):
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float)
        self.omega = int(omega)
        n = self.a.shape
        if self.a.ndim != 1 or self.a.size == 0 or self.b.shape != n:
            raise ValueError(f"need bounds of one shape (n,), n >= 1, got {self.a.shape} "
                             f"and {self.b.shape}")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()
                and (self.a < self.b).all()):
            raise ValueError("domain bounds must be finite with a < b")
        if self.omega < 1:
            raise ValueError(f"need omega >= 1, got {omega}")
        self.counts = (np.zeros(n + (self.omega + 2,)) if counts is None
                       else np.array(counts, dtype=float))
        self.extremes = (np.stack([self.a, self.b], axis=-1) if extremes is None
                         else np.array(extremes, dtype=float))
        for name, shape in (("counts", n + (self.omega + 2,)), ("extremes", n + (2,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {shape}")
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite {name}")
        if (self.counts < 0.0).any():
            raise ValueError("negative counts")
        if not ((self.extremes[:, 0] <= self.a).all() and (self.extremes[:, 1] >= self.b).all()):
            raise ValueError("extremes must bracket the domain bounds")

    @classmethod
    def from_batch(cls, batch, omega: int) -> "FeatureHistogram":
        """Histogram of one finite batch (B, n) alone: each feature's bounds are its
        min/max (a constant feature's widened by 1e-6 a side), counts the batch's."""
        Z = np.asarray(batch, dtype=float)
        if not np.isfinite(Z).all():
            raise ValueError("non-finite values in histogram batch")
        lo, hi = Z.min(axis=0), Z.max(axis=0)
        flat = lo == hi
        lo, hi = np.where(flat, lo - 1e-6, lo), np.where(flat, hi + 1e-6, hi)
        if not (lo < hi).all():  # beyond about 1.7e10, 1e-6 is below half an ulp
            raise ValueError("a constant feature is too large to widen by 1e-6")
        h = cls(lo, hi, omega)
        h.counts[...] = h.batch_counts(Z)
        return h

    @property
    def d(self) -> np.ndarray:
        """Width of one grid interval, per feature."""
        return (self.b - self.a) / self.omega

    @property
    def hist(self) -> np.ndarray:
        return self.counts[:, 1:-1]

    @property
    def ood_hist(self) -> np.ndarray:
        return self.counts[:, ::self.omega + 1]

    def probs(self, x) -> np.ndarray:
        """Share of each feature's in-domain count in the bin holding each query
        x (..., n), floored at PROB_FLOOR, which queries outside [a, b] (+-inf
        too) and features with no count get.  A NaN query raises ValueError."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("NaN in histogram query")
        hist, a, b, omega = self.hist, self.a, self.b, self.omega
        totals = hist.sum(axis=1, keepdims=True)
        probs = np.divide(hist, totals, out=np.zeros(hist.shape), where=totals > 0.0)
        idx = histogram_bin(x, a, b, omega) + omega * np.arange(a.size)
        p = np.maximum(probs.ravel()[idx], PROB_FLOOR)
        return np.where((x >= a) & (x <= b), p, PROB_FLOOR)

    def batch_counts(self, batch) -> np.ndarray:
        """Raw counts (n, omega+2) of a finite batch (B, n), laid out like
        ``counts``.

        In-domain values are binned by :func:`histogram_bin`.
        """
        Z = np.asarray(batch, dtype=float)
        col = histogram_bin(Z, self.a, self.b, self.omega)
        col[Z < self.a] = -1
        col[Z > self.b] = self.omega
        col += (self.omega + 2) * np.arange(self.a.size) + 1
        return np.bincount(col.ravel(), minlength=self.counts.size).reshape(self.counts.shape)

    def update(self, batch, alpha: float) -> "FeatureHistogram":
        """Blend one batch (B, n) into the EMA state at rate ``alpha`` (in place).

        Counts each feature's values below a / in each bin / above b, updates
        the running extremes, and applies counts <- (1-alpha)*counts +
        alpha*batch_counts to the bins and both tallies alike.  A non-finite
        batch raises ValueError before any state changes.
        """
        Z = np.asarray(batch, dtype=float)
        if not np.isfinite(Z).all():
            raise ValueError("non-finite values in histogram batch")
        counts = self.batch_counts(Z)
        self.counts *= 1.0 - alpha
        self.counts += alpha * counts
        # a feature with values below a has its batch min among them, so
        # its extreme moves to that min (the tally masks keep signed zeros)
        below, above = counts[:, 0] > 0, counts[:, -1] > 0
        if below.any():
            np.minimum(self.extremes[:, 0], Z.min(axis=0), out=self.extremes[:, 0], where=below)
        if above.any():
            np.maximum(self.extremes[:, 1], Z.max(axis=0), out=self.extremes[:, 1], where=above)
        return self

    def refit(self, a, b, omega: int) -> "FeatureHistogram":
        """Transfer the EMA state onto the bounds [a, b] (n,) with ``omega``
        intervals, conserving each feature's total count.

        New bin values come from piecewise-linear interpolation of the old
        values (nodes at old bin centers, zero beyond them).  Per side:
        stretching deposits the out-of-domain tally into the new bin holding
        the recorded extreme and zeroes it; shrinking folds the old in-domain
        mass now outside the bounds into the tally.  Everything is then
        rescaled so the grand total matches the pre-refit total.  The
        extremes widen to the new bounds.  A feature whose bounds and omega
        stay the same keeps its counts bitwise: only the others are moved.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        counts = self.counts.copy() if omega == self.omega else np.empty((a.size, omega + 2))
        # np.interp takes one feature at a time
        for j in np.flatnonzero((a != self.a) | (b != self.b) | (omega != self.omega)).tolist():
            counts[j] = _transfer(self.a[j], self.b[j], self.counts[j], self.extremes[j],
                                  a[j], b[j], omega)
        extremes = np.stack([np.minimum(self.extremes[:, 0], a),
                             np.maximum(self.extremes[:, 1], b)], axis=-1)
        return FeatureHistogram(a, b, omega, counts, extremes)


def _centers(a, b, omega: int) -> np.ndarray:
    """Centers of the omega uniform bins of [a, b]."""
    return a + (np.arange(omega) + 0.5) * ((b - a) / omega)


def _transfer(a, b, counts, ext, new_a, new_b, omega: int) -> np.ndarray:
    """One feature's counts (omega_old + 2,) on [a, b] moved to [new_a, new_b]
    with omega bins; see :meth:`FeatureHistogram.refit`."""
    hist = counts[1:-1]
    ood = counts[::len(counts) - 1].copy()
    old_total = hist.sum() + ood.sum()
    old_centers = _centers(a, b, len(hist))
    new_hist = np.interp(_centers(new_a, new_b, omega), old_centers, hist, left=0.0, right=0.0)
    if new_a < a:  # stretched
        new_hist[histogram_bin(ext[0], new_a, new_b, omega)] += ood[0]
        ood[0] = 0.0
    elif new_a > a:  # shrunk
        ood[0] += hist[old_centers < new_a].sum()
    if new_b > b:  # stretched
        new_hist[histogram_bin(ext[1], new_a, new_b, omega)] += ood[1]
        ood[1] = 0.0
    elif new_b < b:  # shrunk
        ood[1] += hist[old_centers > new_b].sum()
    current = new_hist.sum() + ood.sum()
    if current > 0.0:
        scale = old_total / current
        new_hist *= scale
        ood *= scale
    return np.concatenate([ood[:1], new_hist, ood[1:]])
