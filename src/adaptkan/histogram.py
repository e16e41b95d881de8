"""Streaming histograms with out-of-domain tracking, one feature or a layer's n.

Each grid domain carries a histogram with one bin per grid interval plus two
out-of-domain tallies (below a / above b) and the running extremes ever seen
outside the domain.  Batches update the bins as an exponential moving
average of raw counts, so a single outlier's contribution decays
geometrically once it stops appearing.

A :class:`FeatureHistogram` holds this state as arrays whose leading shape S
is () for one feature or (n,) for the n input features of a layer:

    a, b      S              domain bounds, each split into ``omega`` intervals
    counts    S + (omega+2,)  column 0 tallies data below a, columns
                              1..omega are the in-domain bins, column
                              omega+1 tallies data above b
    extremes  S + (2,)        running min below a / max above b
    alpha     S              EMA rate per feature

so a layer counts a whole (B, n) batch with one offset ``bincount`` and one
EMA.  The one-feature histogram, ``FeatureHistogram(GridDomain, alpha)``,
is the n = 1 case of the same code, and ``h[j]`` / ``h[j] = g`` move one
feature of a layer in and out of that form.

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
    return np.bincount(histogram_bin(samples, dom.a, dom.b, dom.omega).ravel(),
                       minlength=dom.omega).astype(float)


class FeatureHistogram:
    """EMA bin counts over the grid domains of one feature or of a layer.

    ``FeatureHistogram(dom, alpha, hist, ood_hist, ood_a, ood_b)`` builds the
    one-feature histogram; :meth:`stack` joins n of them into a layer's.
    The state arrays are described in the module docstring.  The names of
    the one-feature form read the same columns for any n:

    hist : S + (omega,) EMA counts over the in-domain bins.
    ood_hist : S + (2,) EMA counts of data below a / above b.
    ood_a, ood_b : running min below a / max above b ever seen (initialised
        to a and b, so an untouched side never moves the domain).
    alpha : EMA rate in (0, 1]; alpha=1 keeps no memory.
    """

    def __init__(self, dom: GridDomain, alpha: float, hist=None, ood_hist=None,
                 ood_a=None, ood_b=None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"need 0 < alpha <= 1, got {alpha}")
        hist = np.zeros(dom.omega) if hist is None else np.asarray(hist, dtype=float)
        ood_hist = np.zeros(2) if ood_hist is None else np.asarray(ood_hist, dtype=float)
        if hist.shape != (dom.omega,):
            raise ValueError(f"hist shape {hist.shape} != ({dom.omega},)")
        if ood_hist.shape != (2,):
            raise ValueError(f"ood_hist shape {ood_hist.shape} != (2,)")
        self._set(dom.a, dom.b, dom.omega, dom.k, alpha,
                  np.concatenate([ood_hist[:1], hist, ood_hist[1:]]),
                  [dom.a if ood_a is None else ood_a, dom.b if ood_b is None else ood_b])

    def _set(self, a, b, omega, k, alpha, counts, extremes) -> None:
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float)
        self.omega = int(omega)
        self.k = int(k)
        self.alpha = np.array(alpha, dtype=float)
        self.counts = np.array(counts, dtype=float)
        self.extremes = np.array(extremes, dtype=float)

    @classmethod
    def from_arrays(cls, a, b, omega: int, k: int, alpha, counts=None,
                    extremes=None) -> "FeatureHistogram":
        """Histogram over the domains [a, b] (shape S) from its state arrays
        (copied); by default no counts and extremes at the bounds."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        h = cls.__new__(cls)
        h._set(a, b, omega, k, alpha,
               np.zeros(a.shape + (omega + 2,)) if counts is None else counts,
               np.stack([a, b], axis=-1) if extremes is None else extremes)
        return h

    @classmethod
    def stack(cls, hists) -> "FeatureHistogram":
        """One layer histogram from n one-feature histograms (copied)."""
        hists = list(hists)
        if len({(h.omega, h.k) for h in hists}) != 1:
            raise ValueError("a layer needs one or more features, all with the same omega and k")
        state = {key: np.stack([getattr(h, key) for h in hists])
                 for key in ("a", "b", "alpha", "counts", "extremes")}
        return cls.from_arrays(omega=hists[0].omega, k=hists[0].k, **state)

    def __getitem__(self, j) -> "FeatureHistogram":
        """Feature j of a layer histogram, as a one-feature histogram (a copy)."""
        return self.from_arrays(self.a[j], self.b[j], self.omega, self.k, self.alpha[j],
                                self.counts[j], self.extremes[j])

    def __setitem__(self, j, h: "FeatureHistogram") -> None:
        """Overwrite feature j of a layer histogram with a one-feature histogram."""
        if (h.omega, h.k) != (self.omega, self.k):
            raise ValueError(f"feature grid ({h.omega}, {h.k}) != layer grid ({self.omega}, {self.k})")
        self.a[j], self.b[j], self.alpha[j] = h.a, h.b, h.alpha
        self.counts[j] = h.counts
        self.extremes[j] = h.extremes

    @property
    def d(self) -> np.ndarray:
        """Width of one grid interval, per feature."""
        return (self.b - self.a) / self.omega

    @property
    def domains(self) -> list:
        """One GridDomain per feature."""
        return [GridDomain(a, b, self.omega, self.k)
                for a, b in zip(self.a.reshape(-1).tolist(), self.b.reshape(-1).tolist())]

    @property
    def dom(self) -> GridDomain:
        """Grid domain of a one-feature histogram."""
        return self.domains[0]

    @property
    def hist(self) -> np.ndarray:
        return self.counts[..., 1:-1]

    @property
    def ood_hist(self) -> np.ndarray:
        return self.counts[..., ::self.omega + 1]

    @property
    def ood_a(self):
        return self.extremes[..., 0][()]

    @property
    def ood_b(self):
        return self.extremes[..., 1][()]

    def total(self):
        """Total EMA count including the out-of-domain tallies, per feature."""
        return self.hist.sum(axis=-1) + self.ood_hist.sum(axis=-1)

    def batch_counts(self, batch):
        """Raw counts S + (omega+2,) of a finite batch (B,) + S, laid out like
        ``counts``, and the masks of its values below a and above b.

        In-domain values are binned by :func:`histogram_bin`.
        """
        Z = np.asarray(batch, dtype=float)
        omega = self.omega
        below, above = Z < self.a, Z > self.b
        # histogram_bin inlined, clamped before the integer cast so that
        # values far outside [a, b] cannot overflow it
        u = (Z - self.a) * (omega / (self.b - self.a))
        np.maximum(u, 0.0, out=u)
        np.minimum(u, omega - 1, out=u)
        col = u.astype(np.int64)
        col[below] = -1
        col[above] = omega
        col += (omega + 2) * np.arange(self.a.size) + 1
        counts = np.bincount(col.ravel(), minlength=self.counts.size)
        return counts.reshape(self.counts.shape), below, above

    def update(self, batch) -> "FeatureHistogram":
        """Blend one batch, (B,) + S, into the EMA state (in place).

        Counts each feature's values below a / in each bin / above b, updates
        the running extremes, and applies counts <- (1-alpha)*counts +
        alpha*batch_counts to the bins and both tallies alike.
        """
        Z = np.asarray(batch, dtype=float)
        if not np.isfinite(Z).all():
            raise ValueError("non-finite values in histogram batch")
        counts, below, above = self.batch_counts(Z)
        alpha = self.alpha[..., None]
        self.counts *= 1.0 - alpha
        self.counts += alpha * counts
        if below.any():
            np.minimum(self.extremes[..., 0], np.where(below, Z, np.inf).min(axis=0),
                       out=self.extremes[..., 0])
        if above.any():
            np.maximum(self.extremes[..., 1], np.where(above, Z, -np.inf).max(axis=0),
                       out=self.extremes[..., 1])
        return self

    def refit(self, a, b, omega: int) -> "FeatureHistogram":
        """Transfer the EMA state onto the domains [a, b] (shape S) with
        ``omega`` intervals, conserving each feature's total count.

        New bin values come from piecewise-linear interpolation of the old
        values (nodes at old bin centers, zero beyond them).  Per side:
        stretching deposits the out-of-domain tally into the new bin holding
        the recorded extreme and zeroes it; shrinking folds the old in-domain
        mass now outside the bounds into the tally.  Everything is then
        rescaled so the grand total matches the pre-refit total.  The
        extremes widen to the new bounds.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        # np.interp takes one feature at a time
        counts = [_transfer(*row, omega) for row in zip(
            self.a.reshape(-1), self.b.reshape(-1), self.counts.reshape(-1, self.omega + 2),
            self.extremes.reshape(-1, 2), a.reshape(-1), b.reshape(-1))]
        extremes = np.stack([np.minimum(self.extremes[..., 0], a),
                             np.maximum(self.extremes[..., 1], b)], axis=-1)
        return self.from_arrays(a, b, omega, self.k, self.alpha,
                                np.reshape(counts, a.shape + (omega + 2,)), extremes)

    def marginal_prob(self, x):
        """Normalised bin value at x (see :func:`floored_prob`), one feature."""
        p = floored_prob(np.asarray(x, dtype=float)[..., None], self.hist[None],
                         self.a, self.b)[..., 0]
        return float(p) if p.ndim == 0 else p


def _centers(a, b, omega: int) -> np.ndarray:
    """Bin centers of [a, b] split into omega bins, as GridDomain.centers."""
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
