"""Stretch/shrink decision logic and domain updates for one layer feature.

At every training step each feature's histogram is inspected: if an edge bin
and its out-of-domain tally have both decayed to (or below) the shrink
threshold, the domain contracts to the span of bins still above it; if an
out-of-domain tally has grown past the configured stretch threshold, the
domain expands to the running extremes instead (the stretch check runs last
and wins).  Weights and histogram are then refit onto the new interval,
keeping the number of grid intervals fixed.

A manual baseline is also provided that simply snaps the domain to the
min/max of a single batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .histogram import FeatureHistogram, create_histogram
from .spline import GridDomain, refit_greville, refit_least_squares

STRETCH_MODES = ("max", "half_max", "mean", "edge")
SHRINK_RULES = ("fixed", "relative")
REFIT_MODES = ("exact_lsq", "greville")


@dataclass
class AdaptConfig:
    """Knobs for the automatic domain adaptation.

    ``alpha`` is the histogram EMA rate, ``prune_patience`` the number of
    clean batches an outlier bin must survive before it counts as stale, and
    ``outlier_count`` scales the fixed shrink threshold for scenarios where
    several outliers may share a bin.
    """

    alpha: float = 1e-3
    prune_patience: int = 1
    stretch_mode: str = "half_max"
    shrink_rule: str = "fixed"
    refit_mode: str = "exact_lsq"
    outlier_count: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"need 0 < alpha <= 1, got {self.alpha}")
        if self.prune_patience < 1:
            raise ValueError(f"need prune_patience >= 1, got {self.prune_patience}")
        if self.stretch_mode not in STRETCH_MODES:
            raise ValueError(f"stretch_mode must be one of {STRETCH_MODES}")
        if self.shrink_rule not in SHRINK_RULES:
            raise ValueError(f"shrink_rule must be one of {SHRINK_RULES}")
        if self.refit_mode not in REFIT_MODES:
            raise ValueError(f"refit_mode must be one of {REFIT_MODES}")

    @classmethod
    def from_dict(cls, fields) -> "AdaptConfig":
        """Build from a JSON ``adapt`` object; a malformed one raises ValueError."""
        try:
            return cls(**fields)
        except TypeError as exc:  # not a mapping, unknown key, or a mistyped value
            raise ValueError(f"malformed adapt block: {exc}") from None


@dataclass
class Decision:
    """Outcome of one adaptation check: kind is 'none', 'shrink' or 'stretch'."""

    kind: str
    a: float | None = None
    b: float | None = None
    note: str = ""


def shrink_threshold(cfg: AdaptConfig, hist: np.ndarray | None = None) -> float:
    """Stale-bin threshold.

    Fixed rule: N * (1-alpha)^p * alpha, built by repeated multiplication so
    it matches, operation for operation, the value an initial alpha count
    decays to after p clean EMA updates.  Relative rule: max(hist) * alpha.
    """
    if cfg.shrink_rule == "relative":
        if hist is None:
            raise ValueError("relative shrink rule needs the current histogram")
        return float(np.max(hist) * cfg.alpha)
    tau = cfg.alpha
    for _ in range(cfg.prune_patience):
        tau = tau * (1.0 - cfg.alpha)
    return cfg.outlier_count * tau


def _stretch_triggers(h: FeatureHistogram, cfg: AdaptConfig) -> bool:
    hist, ood = h.hist, h.ood_hist
    if cfg.stretch_mode == "max":
        thr = hist.max()
        return ood[0] > thr or ood[1] > thr
    if cfg.stretch_mode == "half_max":
        thr = hist.max() / 2.0
        return ood[0] > thr or ood[1] > thr
    if cfg.stretch_mode == "mean":
        thr = hist.mean()
        return ood[0] > thr or ood[1] > thr
    # edge: each tally is compared against its adjacent edge bin
    return ood[0] > hist[0] or ood[1] > hist[-1]


def decide(h: FeatureHistogram, cfg: AdaptConfig) -> Decision:
    """Pure adaptation decision for one feature histogram.

    Shrink fires when an edge bin and its out-of-domain tally are both at or
    below the shrink threshold; the new bounds are the outermost bin edges
    whose bins still exceed it.  The stretch check is evaluated afterwards
    and overrides a shrink, expanding to the recorded extremes on both sides.
    """
    dom = h.dom
    tau = shrink_threshold(cfg, h.hist)
    decision = Decision("none")

    left_stale = h.ood_hist[0] <= tau and h.hist[0] <= tau
    right_stale = h.ood_hist[1] <= tau and h.hist[-1] <= tau
    if left_stale or right_stale:
        keep = np.flatnonzero(h.hist > tau)
        if len(keep) == 0:
            decision = Decision("none", note="no bin above shrink threshold; domain would collapse")
        else:
            edges = dom.edges()
            new_a = edges[keep[0]] if left_stale else dom.a
            new_b = edges[keep[-1] + 1] if right_stale else dom.b
            if new_a != dom.a or new_b != dom.b:
                decision = Decision("shrink", float(new_a), float(new_b))

    if _stretch_triggers(h, cfg):
        decision = Decision("stretch", float(h.ood_a), float(h.ood_b))
    return decision


def _refit_weights(coef, dom: GridDomain, new_dom: GridDomain, cfg: AdaptConfig):
    """Weight rows of one feature re-expressed on new_dom by cfg.refit_mode."""
    if cfg.refit_mode == "exact_lsq":
        return refit_least_squares(coef, dom, new_dom)[0]
    return refit_greville(coef, dom, new_dom)


def apply_adapt(dom: GridDomain, coef: np.ndarray, hist: FeatureHistogram,
                decision: Decision, cfg: AdaptConfig):
    """Apply a decision to one feature's (domain, weight rows, histogram).

    The interval count stays fixed; every weight row touching this feature is
    refit onto the new bounds and the histogram is transferred.  After a
    stretch the recorded extremes are reset to the new bounds.  Returns the
    (possibly unchanged) triple.
    """
    if decision.kind == "none":
        return dom, coef, hist
    new_dom = GridDomain(decision.a, decision.b, dom.omega, dom.k)
    new_coef = _refit_weights(coef, dom, new_dom, cfg)
    new_hist = hist.refit(new_dom)
    if decision.kind == "stretch":
        new_hist.ood_a = new_dom.a
        new_hist.ood_b = new_dom.b
    return new_dom, new_coef, new_hist


def manual_adapt(dom: GridDomain, coef: np.ndarray, hist: FeatureHistogram,
                 batch, cfg: AdaptConfig):
    """Force the domain to the min/max of a single batch and refit.

    The histogram is rebuilt from the batch alone (no memory).  A degenerate
    batch (max == min) is widened symmetrically by 1e-6.
    """
    batch = np.asarray(batch, dtype=float)
    if not np.all(np.isfinite(batch)):
        raise ValueError("non-finite values in manual-adapt batch")
    lo, hi = float(batch.min()), float(batch.max())
    if lo == hi:
        lo, hi = lo - 1e-6, hi + 1e-6
    new_dom = GridDomain(lo, hi, dom.omega, dom.k)
    new_coef = _refit_weights(coef, dom, new_dom, cfg)
    new_hist = FeatureHistogram(new_dom, hist.alpha,
                                hist=create_histogram(batch[(batch >= lo) & (batch <= hi)], new_dom))
    return new_dom, new_coef, new_hist
