"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from adaptkan.adapt import AdaptConfig, decide, shrink_threshold
from adaptkan.clf import (
    ConformalReport,
    analytical_clf,
    final_distances,
    make_sontag_controller,
    simulate,
)
from adaptkan.histogram import FeatureHistogram
from adaptkan.model_io import load_model, save_model
from adaptkan.network import init_network
from adaptkan.ood import OodScorer, auroc
from adaptkan.optim import TrainPlan, train
from adaptkan.spline import GridDomain, M_CUBIC, eval_activation, greville_abscissae
from adaptkan.tasks import PoisonPlan, generate, get_task, poison_hook


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_spline_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    pou_worst = 0.0
    for _ in range(100):
        a = rng.uniform(-5, 2)
        dom = GridDomain(a, a + rng.uniform(0.2, 7.0), int(rng.integers(1, 16)))
        c = rng.uniform(-5, 5)
        z = rng.uniform(dom.a, dom.b, size=100)
        w = np.full(dom.n_coef, c)
        pou_worst = max(pou_worst, np.abs(eval_activation(z, w, dom) - c).max())
    cont_worst = 0.0
    for _ in range(50):
        a = rng.uniform(-3, 1)
        dom = GridDomain(a, a + rng.uniform(0.5, 4.0), int(rng.integers(2, 10)))
        w = rng.standard_normal(dom.n_coef)
        for p in range(1, dom.omega):
            left = w[p - 1:p + 3] @ M_CUBIC @ np.ones(4)
            cont_worst = max(cont_worst, abs(eval_activation(dom.a + p * dom.d, w, dom) - left))
    lin_worst = 0.0
    for _ in range(50):
        a = rng.uniform(-3, 1)
        dom = GridDomain(a, a + rng.uniform(0.5, 4.0), int(rng.integers(1, 12)))
        slope, icept = rng.uniform(-3, 3, size=2)
        w = slope * greville_abscissae(dom.a, dom.b, dom.omega) + icept
        z = np.linspace(dom.a, dom.b, 200)
        lin_worst = max(lin_worst, np.abs(eval_activation(z, w, dom) - (slope * z + icept)).max())
    elapsed = time.monotonic() - start
    ok = pou_worst <= 1e-12 and cont_worst <= 1e-12 and lin_worst <= 1e-9 and elapsed < 1.0
    _report(1, "spline correctness", ok,
            f"(pou {pou_worst:.1e}, continuity {cont_worst:.1e}, "
            f"linear {lin_worst:.1e}, {elapsed:.2f}s)")


def test_criterion_02_gradient_suite():
    start = time.monotonic()
    h = 1e-5
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        shape = [int(rng.integers(1, 9)) for _ in range(3)]
        net = init_network(shape, mode="kan", noise=0.5, seed=seed)
        X = rng.uniform(-0.9, 0.9, size=(2, shape[0]))
        R = rng.standard_normal((2, shape[-1]))

        def loss():
            Y, _ = net.forward(X)
            return float((Y * R).sum())

        _, caches = net.forward(X)
        grads, gX = net.backward(caches, R)
        for p, g in zip(net.parameters(), net.gradient_list(grads)):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for i in range(flat_p.size):
                old = flat_p[i]
                flat_p[i] = old + h
                lp = loss()
                flat_p[i] = old - h
                lm = loss()
                flat_p[i] = old
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(flat_g[i] - fd) / max(abs(fd), abs(flat_g[i]), 1.0))
        for b in range(X.shape[0]):
            for j in range(X.shape[1]):
                old = X[b, j]
                X[b, j] = old + h
                lp = loss()
                X[b, j] = old - h
                lm = loss()
                X[b, j] = old
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(gX[b, j] - fd) / max(abs(fd), abs(gX[b, j]), 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    _report(2, "gradient suite", ok, f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def _one_feature(hist=None):
    """Histogram of one feature on [0, 1] with 4 bins, empty tallies."""
    return FeatureHistogram([0.0], [1.0], 4, None if hist is None else [[0.0, *hist, 0.0]])


def test_criterion_03_ema_exactness():
    # alpha = 0.5 with integer counts: every EMA operation is exact in
    # binary floats, so the geometric identity holds bitwise
    h = _one_feature([8.0, 0.0, 4.0, 2.0])
    batch = np.array([[0.1], [0.3], [0.6], [0.9]])
    target = h.batch_counts(batch)
    diff0 = h.counts - target
    exact = True
    for t in range(1, 51):
        h.update(batch, 0.5)
        exact = exact and np.array_equal(h.counts - target, 0.5**t * diff0)
    # generic alpha: closed form reproduced within 1e-12 relative
    alpha = 1e-3
    h2 = _one_feature([5.0, 1.0, 0.0, 2.0])
    diff0 = np.linalg.norm(h2.counts - target)
    rel = 0.0
    for t in range(1, 51):
        h2.update(batch, alpha)
        got = np.linalg.norm(h2.counts - target)
        expected = (1 - alpha) ** t * diff0
        rel = max(rel, abs(got - expected) / expected)
    ok = exact and rel <= 1e-12
    _report(3, "EMA update exactness", ok, f"(bitwise {exact}, rel {rel:.1e})")


def test_criterion_04_shrink_timing():
    clean = np.array([[0.1], [0.3], [0.6]])
    ok = True
    detail = []
    for alpha, p in [(1e-3, 10), (0.5, 2)]:
        cfg = AdaptConfig(alpha=alpha, prune_patience=p)
        h = _one_feature()
        h.update(np.vstack([clean, [[0.9]]]), alpha)  # the single outlier, bin 3
        a, b = decide(h, cfg)
        early = a[0] != h.a[0] or b[0] != h.b[0]
        fired_at = None
        for step in range(1, p + 1):
            h.update(clean, alpha)
            a, b = decide(h, cfg)
            if a[0] > h.a[0] or b[0] < h.b[0]:  # a shrink moves a bound in
                fired_at = step
                break
        bit_match = h.hist[0, 3] == shrink_threshold(cfg)
        ok = ok and not early and fired_at == p and bit_match
        detail.append(f"alpha={alpha} p={p} fired_at={fired_at} bitwise={bit_match}")
    _report(4, "shrink-threshold timing", ok, f"({'; '.join(detail)})")


FEYNMAN_ROUNDS = [
    {"lr": 1e-2, "steps": 2000, "omega": 3},
    {"lr": 5e-3, "steps": 2000, "omega": 5},
    {"lr": 1e-3, "steps": 2000, "omega": 10},
    {"lr": 5e-4, "steps": 2000, "omega": 20},
    {"lr": 1e-4, "steps": 2000, "omega": 50},
]


def test_criterion_05_feynman_desk_scale():
    start = time.monotonic()
    targets = {"II.38.3": 1e-2, "I.6.2": 5e-2}
    fails = 0
    worst = {}
    for name, target in targets.items():
        task = get_task(name)
        best = []
        for seed in range(5):
            (Xtr, ytr), (Xte, yte) = generate(task, seed=seed)
            net = init_network([task.arity, 5, 1], mode="kan", noise=0.5, seed=seed)
            plan = TrainPlan(rounds=FEYNMAN_ROUNDS, optimizer="adam",
                             poly_decay=True, batch_size=128, seed=seed)
            history = train(net, (Xtr, ytr, Xte, yte), plan)
            fails += sum(h["fail"] for h in history)
            best.append(min(h["test_rmse"] for h in history))
        worst[name] = max(best)
        assert worst[name] <= target, f"{name}: worst-of-5 {worst[name]:.3e} > {target}"
    elapsed = time.monotonic() - start
    ok = fails == 0 and elapsed < 300.0
    _report(5, "desk-scale symbolic regression", ok,
            f"(II.38.3 worst {worst['II.38.3']:.1e}, I.6.2 worst {worst['I.6.2']:.1e}, "
            f"fails {fails}, {elapsed:.0f}s)")


def test_criterion_06_poisoning_robustness():
    def run(seed: int, adapt_mode: str):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (256, 1))
        y = np.sin(2.0 * np.pi * X[:, 0])
        Xv = rng.uniform(-1, 1, (128, 1))
        yv = np.sin(2.0 * np.pi * Xv[:, 0])
        net = init_network([1, 5, 1], mode="kan", noise=0.5, seed=seed,
                           cfg=AdaptConfig(alpha=1e-3, stretch_mode="half_max"))
        # 256 samples / batch 64 = 4 steps per epoch; 1000 epochs
        plan = TrainPlan(rounds=[{"lr": 1e-2, "steps": 4000, "omega": 5}],
                         batch_size=64, seed=seed)
        hook = poison_hook(PoisonPlan(epochs=1000, seed=seed))
        train(net, (X, y, Xv, yv), plan, adapt_mode=adapt_mode,
              manual_every=1 if adapt_mode == "manual" else None, batch_hook=hook)
        pred, _ = net.forward(Xv)
        return float(np.mean((pred[:, 0] - yv) ** 2))

    auto = [run(seed, "auto") for seed in range(3)]
    manual = [run(seed, "manual") for seed in range(3)]
    ok = np.median(auto) <= np.median(manual)
    _report(6, "auto vs manual adaptation under poisoning", ok,
            f"(auto median {np.median(auto):.2e}, manual median {np.median(manual):.2e})")


def test_criterion_07_ood_detection():
    rng = np.random.default_rng(7)
    fit = rng.normal(0.0, 1.0, size=(10_000, 8))
    scorer = OodScorer.fit(fit, bins=200)
    id_scores = scorer.score_hist(rng.normal(0.0, 1.0, size=(1000, 8)))
    ood_scores = scorer.score_hist(rng.normal(3.0, 1.0, size=(1000, 8)))
    gauss_auroc = auroc(id_scores, ood_scores)

    hand = (auroc([-1.0, -1.0], [-5.0, -5.0]) == 1.0
            and auroc([-1.0, -3.0], [-2.0, -4.0]) == 0.75
            and auroc([1.0, 2.0], [1.0, 2.0]) == 0.5)

    X = rng.normal(size=(400, 4))
    Q = rng.normal(size=(60, 4))
    base = OodScorer.fit(X, bins=64).score_hist(Q)
    scale = np.array([3.0, 0.25, 1.5, 10.0])
    shift = np.array([1.0, -2.0, 0.0, 5.0])
    rescaled = OodScorer.fit(X * scale + shift, bins=64).score_hist(Q * scale + shift)
    invariant = np.array_equal(base, rescaled)

    ok = gauss_auroc >= 0.95 and hand and invariant
    _report(7, "OOD scoring", ok,
            f"(gaussians auroc {gauss_auroc:.4f}, hand-cases {hand}, invariance {invariant})")


def test_criterion_08_clf_analytical_confidence():
    start = time.monotonic()
    controller = make_sontag_controller(analytical_clf)
    dists = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-3.0, 3.0, size=(200, 2))
        fin, okm = simulate(x0, controller, horizon=10.0, dt=0.01)
        dists.append(final_distances(fin, okm))
    report = ConformalReport(np.concatenate(dists))
    c050 = report.confidence(0.5)
    c025 = report.confidence(0.25)
    elapsed = time.monotonic() - start
    ok = abs(c050 - 0.999) <= 0.01 and abs(c025 - 0.252) <= 0.10 and elapsed < 120.0
    _report(8, "analytical Lyapunov confidence levels", ok,
            f"(C=0.5 -> {c050:.3f}, C=0.25 -> {c025:.3f}, {elapsed:.0f}s)")


def test_criterion_09_integrator_quality():
    # conservation is pinned at the unit-scale start (1, 0); dt = 0.01 was
    # chosen to hold 1e-6 relative drift there
    worst_drift = 0.0
    for x0 in ([1.0, 0.0], [0.0, 1.0], [0.5, -0.5]):
        fin, okm = simulate(np.array([x0]), None, horizon=10.0, dt=0.01)
        q0 = x0[0] ** 4 + x0[1] ** 4
        q1 = fin[0, 0] ** 4 + fin[0, 1] ** 4
        worst_drift = max(worst_drift, abs(q1 - q0) / q0)
    rng = np.random.default_rng(9)
    x0 = rng.uniform(-3, 3, size=(100, 2))
    _, okm, path = simulate(x0, make_sontag_controller(analytical_clf),
                            horizon=10.0, dt=0.01, return_path=True)
    V = np.stack([analytical_clf(p)[0] for p in path])
    max_rise = float(np.diff(V, axis=0).max())
    ok = worst_drift <= 1e-6 and okm.all() and max_rise <= 1e-8
    _report(9, "integrator conservation and V decrease", ok,
            f"(drift {worst_drift:.1e}, max V rise {max_rise:.1e})")


def test_criterion_10_persistence_and_determinism(tmp_path):
    task = get_task("II.38.3")
    (Xtr, ytr), (Xte, yte) = generate(task, seed=3)
    net = init_network([2, 5, 1], mode="kan", noise=0.5, seed=3)
    plan = TrainPlan(rounds=[{"lr": 1e-2, "steps": 200, "omega": 3},
                             {"lr": 5e-3, "steps": 100, "omega": 5}],
                     batch_size=64, seed=3)
    train(net, (Xtr, ytr, Xte, yte), plan)
    path = tmp_path / "model.json"
    save_model(net, path)
    net2 = load_model(path)
    Y1, _ = net.forward(Xte)
    Y2, _ = net2.forward(Xte)
    roundtrip = np.array_equal(Y1, Y2)

    from adaptkan.cli import main
    import json
    cfg = {"task": "II.38.3", "shape": [2, 5, 1],
           "rounds": [{"lr": 1e-2, "steps": 50, "omega": 3}],
           "batch_size": 64, "train_n": 200, "test_n": 100}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        out.mkdir()
        assert main(["train", "--config", str(cfg_path), "--seed", "11",
                     "--out-dir", str(out)]) == 0
        outs.append((out / "model.json").read_bytes() + (out / "metrics.csv").read_bytes())
    deterministic = outs[0] == outs[1]
    ok = roundtrip and deterministic
    _report(10, "persistence round-trip and CLI determinism", ok,
            f"(bitwise round-trip {roundtrip}, deterministic {deterministic})")
