"""One-off cross-check of the harness against the ROADMAP baseline figures.

Usage (from the root of a checkout): python3 perfbench/crosscheck.py

Times, with the same BLAS thread cap as run.py, the three cases the
baseline quotes: a training step (forward with recording, backward, Adam)
of [2,5,1] and of [2,32,32,1] at B=128 and grid 3, and network-controller
simulation of a [2,10] network, 1000 trajectories x 100 RK4 steps.  Prints
the best of REPS blocks of each as JSON.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import CLF_CONFIG, adaptkan, np  # noqa: E402

REPS = 5


def step_ms(shape, batch=128, steps=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(batch * 8, shape[0]))
    y = (X[:, :1] * X[:, 1:2])
    net = adaptkan.init_network(shape, seed=seed)
    opt = adaptkan.Adam(lr=1e-3)
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        for t in range(steps):
            rows = slice((t % 8) * batch, (t % 8 + 1) * batch)
            Y, caches = net.forward(X[rows], record=True)
            grads, _ = net.backward(caches, 2.0 * (Y - y[rows]) / batch)
            opt.step(net.parameters(), net.gradient_list(grads))
        best = min(best, (time.perf_counter() - start) / steps * 1e3)
    return best


def simulate_s(trajectories=1000, steps=100, seed=0):
    init = CLF_CONFIG["init"]
    net = adaptkan.init_network(CLF_CONFIG["shape"], mode=init["mode"], noise=init["noise"],
                                omega=init["omega"], domain=tuple(init["domain"]), seed=seed)
    controller = adaptkan.make_sontag_controller(adaptkan.make_network_clf(net))
    x0 = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(trajectories, 2))
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        adaptkan.simulate(x0, controller, horizon=steps * 0.01, dt=0.01)
        best = min(best, time.perf_counter() - start)
    return best


if __name__ == "__main__":
    print(json.dumps({
        "step_ms_[2,5,1]_B128": step_ms([2, 5, 1]),
        "step_ms_[2,32,32,1]_B128": step_ms([2, 32, 32, 1], steps=40),
        "simulate_s_[2,10]_1000x100": simulate_s(),
        "roadmap_baseline": {"step_ms_[2,5,1]_B128": "1.1-1.5",
                             "step_ms_[2,32,32,1]_B128": "14-21",
                             "simulate_s_[2,10]_1000x100": 1.26},
        "numpy": np.__version__, "python": sys.version.split()[0],
    }, indent=1))
