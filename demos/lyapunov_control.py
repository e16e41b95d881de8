"""Certify and exercise a control-Lyapunov candidate on the cubic system.

The plant is x1' = x2^3 + u, x2' = -x1^3.  A closed-form candidate
V = (x1^2 + x2^2 + (x1 - x2)^2) / 2 is checked numerically, turned into a
universal (Sontag) feedback, rolled out with RK4 from random starts, and
summarised with conformal confidence levels.  A spline network is then
trained on the same losses and evaluated the same way.

Run: python demos/lyapunov_control.py          (about a minute)
"""

import numpy as np

from adaptkan import (
    AdaptConfig,
    ClfLossConfig,
    ConformalReport,
    analytical_clf,
    clf_losses,
    final_distances,
    init_network,
    make_network_clf,
    make_sontag_controller,
    simulate,
    train_clf,
)
from adaptkan.clf import dynamics_f, lie_derivatives

rng = np.random.default_rng(0)

# --- the analytical candidate -------------------------------------------
x1 = np.linspace(-3, 3, 100_000)
x1 = x1[np.abs(x1) > 1e-12]
line = np.stack([x1, 2 * x1], axis=1)          # where the control vanishes
_, grad = analytical_clf(line)
LfV, LgV = lie_derivatives(dynamics_f(line), grad)
print("analytical candidate on the zero-control line x2 = 2 x1:")
print(f"  max |LgV| = {np.abs(LgV).max():.1e}   max LfV = {LfV.max():.3e}  (< 0)")

# --- closed-loop statistics ----------------------------------------------
controller = make_sontag_controller(analytical_clf)
dists = []
for seed in range(5):
    r = np.random.default_rng(seed)
    x0 = r.uniform(-3, 3, size=(200, 2))
    finals, ok = simulate(x0, controller, horizon=10.0, dt=0.01)
    dists.append(final_distances(finals, ok))
report = ConformalReport(np.concatenate(dists))
print("\nanalytical candidate, 1000 trajectories, 10 s horizon:")
for c in (0.5, 0.25, 0.1):
    print(f"  confidence of ending within {c:>4}: {report.confidence(c):.3f}")
print(f"  95%-coverage distance bound: {report.quantile(0.05):.3f}")

# --- train a spline-network candidate ------------------------------------
print("\ntraining a spline-network candidate (squared-norm output) ...")
cfg = ClfLossConfig(output_mode="squared_norm", lam_f=1.0, tau=0.1)
net = init_network([2, 10], mode="linear", noise=0.1, seed=0,
                   domain=(-3.0, 3.0), cfg=AdaptConfig(alpha=0.01, stretch_mode="max"))
X_train = rng.uniform(-3, 3, size=(8000, 2))
history = train_clf(net, X_train, cfg, epochs=400, lr=0.1, batch_size=500, seed=0)
print(f"  loss: {history[0]['loss']:.4f} -> {history[-1]['loss']:.4f}")

provider = make_network_clf(net, cfg.output_mode)
terms = clf_losses(rng.uniform(-3, 3, size=(2000, 2)), provider, cfg)
print("  loss terms on fresh points:",
      {k: round(v, 4) for k, v in terms.items()})

finals, ok = simulate(rng.uniform(-3, 3, size=(500, 2)),
                      make_sontag_controller(provider), horizon=10.0, dt=0.01)
net_report = ConformalReport(final_distances(finals, ok))
print("\nnetwork candidate, 500 trajectories:")
for c in (0.5, 0.25, 0.1):
    print(f"  confidence of ending within {c:>4}: {net_report.confidence(c):.3f}")
print("(the learned candidate typically beats the analytical one at C=0.25)")

print("\nsame pipeline via the CLI:")
print("  adaptkan clf train    --config demos/configs/clf_train.json --out-dir out/")
print("  adaptkan clf simulate --analytical --trajectories 1000 --out report.csv")
print("  adaptkan clf conformal --report report.csv --C 0.5")
