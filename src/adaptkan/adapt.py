"""Stretch/shrink decisions and domain updates for a layer's features.

At every training step each feature of a layer's histogram is inspected: if
an edge bin and its out-of-domain tally have both decayed to (or below) the
shrink threshold, built from the EMA rate ``AdaptConfig.alpha``, the domain
contracts to the span of bins still above it; if an out-of-domain tally has
grown past the configured stretch threshold, the domain expands to the
running extremes instead (the stretch check runs last and wins).
:func:`decide` returns the bounds every feature should have, and
:func:`apply_adapt` refits the weight rows of the features whose bounds
differ and moves the layer's histogram with one refit, keeping the number of
grid intervals fixed.

A manual baseline is also provided that simply snaps every domain to the
min/max of a single batch, with the histogram of that batch alone.

It also holds the config rules every config object uses: the number checks
:func:`require_count` and :func:`require_real`, and the builder :func:`from_json`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .histogram import FeatureHistogram
from .spline import refit_greville, refit_least_squares

STRETCH_MODES = ("max", "half_max", "mean", "edge")
SHRINK_RULES = ("fixed", "relative")
REFIT_MODES = ("exact_lsq", "greville")


def require_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def from_json(fn, fields, what: str):
    """``fn(**fields)``; a block not an object, or an unknown or repeated key, is a ValueError."""
    try:
        return fn(**fields)
    except TypeError as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


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
        require_real("alpha", self.alpha)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"need 0 < alpha <= 1, got {self.alpha}")
        require_count("prune_patience", self.prune_patience)
        require_count("outlier_count", self.outlier_count)
        for name, allowed in (("stretch_mode", STRETCH_MODES), ("shrink_rule", SHRINK_RULES),
                              ("refit_mode", REFIT_MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")


def shrink_threshold(cfg: AdaptConfig, hist: np.ndarray | None = None):
    """Stale-bin threshold, from the EMA rate ``cfg.alpha``.

    Fixed rule: N * (1-alpha)^p * alpha, built by repeated multiplication so
    it matches, operation for operation, the value an initial alpha count
    decays to after p clean EMA updates.  Relative rule: max(hist) * alpha
    along the last axis of ``hist``, so one threshold per feature.
    """
    if cfg.shrink_rule == "relative":
        if hist is None:
            raise ValueError("relative shrink rule needs the current histogram")
        return np.max(hist, axis=-1) * cfg.alpha
    tau = cfg.alpha
    for _ in range(cfg.prune_patience):
        tau = tau * (1.0 - cfg.alpha)
    return cfg.outlier_count * tau


def _stretch_triggers(hist: np.ndarray, ood: np.ndarray, edges: np.ndarray,
                      cfg: AdaptConfig) -> np.ndarray:
    """Mask, per feature and side, of out-of-domain tallies past the stretch
    threshold; ``edges`` holds each side's edge bin."""
    if cfg.stretch_mode == "edge":
        # each tally is compared against its adjacent edge bin
        return ood > edges
    if cfg.stretch_mode == "max":
        thr = hist.max(axis=-1)
    elif cfg.stretch_mode == "half_max":
        thr = hist.max(axis=-1) / 2.0
    else:  # mean
        thr = hist.mean(axis=-1)
    return ood > thr[..., None]


def decide(h: FeatureHistogram, cfg: AdaptConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pure adaptation decision for every feature of a layer's histogram: the
    bounds (a, b), each (n,), the features should have.

    Shrink fires on a side whose edge bin and out-of-domain tally are both at
    or below the shrink threshold tau; that side moves to the outer edge
    ``k * h.d + h.a`` of the outermost bin still above tau, the value
    ``np.linspace(a, b, omega + 1)[k]`` gives.  A feature with no bin above
    tau keeps its bounds.  The stretch check is evaluated afterwards and
    overrides a shrink, expanding to the recorded extremes on both sides.
    A feature that neither shrinks nor stretches keeps its bounds bitwise.
    """
    hist, ood = h.hist, h.ood_hist
    # (1,) under the fixed rule, (n, 1) under the relative one
    tau = np.asarray(shrink_threshold(cfg, hist))[..., None]
    edges = hist[:, ::max(h.omega - 1, 1)]  # first and last bin (one bin if omega = 1)
    # [left, right] per feature
    stale = np.maximum(ood, edges) <= tau
    stretch = _stretch_triggers(hist, ood, edges, cfg)
    if not (stale | stretch).any():
        return h.a.copy(), h.b.copy()
    above = hist > tau
    # edge indices before the first and after the last bin above tau; a stale
    # side's edge bin is not above tau, so its index lies inside (0, omega)
    k = np.stack([above.argmax(axis=1), h.omega - above[:, ::-1].argmax(axis=1)], axis=-1)
    stale &= above.any(axis=1, keepdims=True)
    bounds = np.stack([h.a, h.b], axis=-1)
    shrunk = np.where(stale, k * h.d[:, None] + h.a[:, None], bounds)
    a, b = np.where(stretch.any(axis=1, keepdims=True), h.extremes, shrunk).T
    return a, b


def _refit_weights(coef, a, b, new_a, new_b, omega: int, cfg: AdaptConfig):
    """Weight rows (J, m, P) of J features re-expressed on the bounds
    [new_a, new_b] (J,) by cfg.refit_mode, keeping omega intervals."""
    if cfg.refit_mode == "exact_lsq":
        return refit_least_squares(coef, a, b, new_a, new_b, omega, omega)[0]
    return refit_greville(coef, a, b, new_a, new_b, omega, omega)


def apply_adapt(hist: FeatureHistogram, coef: np.ndarray, a, b, cfg: AdaptConfig):
    """Move a layer's histogram and weights (n, m, P) onto the bounds a, b (n,).

    The interval count stays fixed.  The features that move are those whose
    bounds differ from ``hist.a``/``hist.b``: their weight rows are refit
    onto the new bounds with one refit, and the histogram is transferred with
    one refit, which widens the extremes to the new bounds: after a stretch
    to the extremes they equal them.  Returns (coef, hist, events), events
    being the number of features that move; with none, the given coef and
    hist come back as they are.
    """
    J = np.flatnonzero((a != hist.a) | (b != hist.b))
    if not J.size:
        return coef, hist, 0
    new_coef = coef.copy()
    new_coef[J] = _refit_weights(coef[J], hist.a[J], hist.b[J], a[J], b[J], hist.omega, cfg)
    return new_coef, hist.refit(a, b, hist.omega), J.size


def manual_adapt(hist: FeatureHistogram, coef: np.ndarray, batch, cfg: AdaptConfig):
    """Force every feature's domain to the min/max of one batch and refit.

    ``batch`` is a layer's (B, n) inputs and ``coef`` (n, m, P) the weight
    rows of its n features.  The histogram is rebuilt from the batch alone
    (no memory) by :meth:`FeatureHistogram.from_batch`, which widens a
    degenerate feature (max == min) by 1e-6 on each side.  Returns (coef, hist).
    """
    new_hist = FeatureHistogram.from_batch(batch, hist.omega)
    new_coef = _refit_weights(coef, hist.a, hist.b, new_hist.a, new_hist.b, hist.omega, cfg)
    return new_coef, new_hist
