"""Learn a physics formula with a self-adapting spline network.

Trains a depth-2 network on the product formula a*b with the usual recipe:
rounds of Adam steps, each round refining the grid, the domains adapting to
the layer inputs at every step.

Run: python demos/feynman_regression.py            (about half a minute)
"""

from adaptkan import TrainPlan, generate, get_task, init_network, train

task = get_task("II.38.3")
print(f"task {task.name}: arity {task.arity}, "
      f"{task.train_n} train / {task.test_n} test samples")
(X_tr, y_tr), (X_te, y_te) = generate(task, seed=0)

net = init_network([task.arity, 5, 1], mode="kan", noise=0.5, seed=0)
plan = TrainPlan(
    rounds=[
        {"lr": 1e-2, "steps": 2000, "omega": 3},
        {"lr": 5e-3, "steps": 2000, "omega": 5},
        {"lr": 1e-3, "steps": 2000, "omega": 10},
        {"lr": 5e-4, "steps": 2000, "omega": 20},
        {"lr": 1e-4, "steps": 2000, "omega": 50},
    ],
    optimizer="adam",
    poly_decay=True,
    batch_size=128,
    seed=0,
)

history = train(net, (X_tr, y_tr, X_te, y_te), plan)

print(f"\n{'round':>5} {'omega':>5} {'lr':>8} {'train rmse':>12} {'test rmse':>12} {'adapts':>7}")
for h in history:
    print(f"{h['round']:>5} {h['omega']:>5} {h['lr']:>8.0e} "
          f"{h['train_rmse']:>12.3e} {h['test_rmse']:>12.3e} {h['adapt_events']:>7}")

best = min(h["test_rmse"] for h in history)
print(f"\nbest test RMSE over rounds: {best:.3e}")

print("\nlearned layer-1 domains (initialised at [-1, 1]):")
hist = net.layers[0].hist
for j, (a, b) in enumerate(zip(hist.a, hist.b)):
    print(f"  input {j}: [{a:+.3f}, {b:+.3f}] with {hist.omega} intervals")

print("\nsame run via the CLI:")
print("  adaptkan train --config demos/configs/feynman_ab.json --out-dir out/")
