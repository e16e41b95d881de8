"""How the streaming histograms drive domain stretches and shrinks.

A feature histogram tracks each layer input with an exponential moving
average of batch counts, at the rate ``AdaptConfig.alpha``, plus two
out-of-domain tallies.  When the tallies
grow, the domain stretches to the recorded extremes; when an edge bin and
its tally decay below the shrink threshold, the domain contracts.

Run: python demos/grid_adaptation.py
"""

import numpy as np

from adaptkan import AdaptConfig, FeatureHistogram, apply_adapt, decide, shrink_threshold

rng = np.random.default_rng(1)
cfg = AdaptConfig(alpha=0.05, prune_patience=1, stretch_mode="half_max")
# a layer with one input feature and one output: domain [-1, 1], 8 intervals
hist = FeatureHistogram([-1.0], [1.0], omega=8)
coef = rng.standard_normal((1, 1, hist.omega + 3))

print(f"shrink threshold tau = {shrink_threshold(cfg):.4f}")
print(f"start: domain [{hist.a[0]:+.3f}, {hist.b[0]:+.3f}]")


def observe(step, hist, coef, batch):
    """One histogram update, then the move to the decided bounds, if any."""
    hist.update(batch, cfg.alpha)
    a, b = decide(hist, cfg)
    # a stretch moves a bound out to the extremes, a shrink moves one in
    kind = "stretch" if a[0] < hist.a[0] or b[0] > hist.b[0] else "shrink"
    coef, hist, events = apply_adapt(hist, coef, a, b, cfg)
    if events:
        print(f"step {step:3d}: {kind:7s} -> [{hist.a[0]:+.3f}, {hist.b[0]:+.3f}]")
    return hist, coef


# Phase 1: the data slowly drifts right, out of the initial domain.
print("\n-- drifting stream --")
for step in range(60):
    hist, coef = observe(step, hist, coef, rng.normal(0.5 + 0.05 * step, 0.4, size=(64, 1)))

# Phase 2: the data settles in a narrow band; stale edges get pruned.
print("\n-- settled stream --")
for step in range(200):
    hist, coef = observe(step, hist, coef, rng.normal(2.0, 0.3, size=(64, 1)))

print(f"\nfinal domain [{hist.a[0]:+.3f}, {hist.b[0]:+.3f}] "
      f"around data mean 2.0 +/- 0.3")
print("final histogram (EMA counts per bin):")
print(np.round(hist.hist[0], 2), " ood:", np.round(hist.ood_hist[0], 4))
