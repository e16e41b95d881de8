"""Lyapunov candidates, Sontag control, RK4 simulation, conformal statistics."""

import warnings

import numpy as np
import pytest

from adaptkan.clf import (
    ClfLossConfig,
    ConformalReport,
    analytical_clf,
    clf_loss_and_grads,
    clf_losses,
    dynamics_f,
    final_distances,
    lie_derivatives,
    lyapunov_value_and_grad,
    make_network_clf,
    make_sontag_controller,
    simulate,
    sontag_control,
    train_clf,
)
from adaptkan.network import NonFiniteError, init_network
from adaptkan.optim import TrainPlan, train
from adaptkan.spline import greville_abscissae


def test_analytical_clf_values():
    V, grad = analytical_clf(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert V[0] == 0.0
    LfV, LgV = lie_derivatives(dynamics_f([[1.0, 2.0]]), grad[1:])
    assert LgV[0] == 0.0
    assert LfV[0] == -3.0


def test_analytical_clf_positive_definite():
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(1000, 2))
    X = X[np.linalg.norm(X, axis=1) > 1e-9]
    V, _ = analytical_clf(X)
    assert (V > 0).all()


def test_lgv_zero_line_has_negative_drift():
    # Lie drift on the LgV = 0 line is -3 x1^4 < 0 away from the origin
    x1 = np.linspace(-3, 3, 100_000)
    x1 = x1[np.abs(x1) > 1e-12]
    X = np.stack([x1, 2 * x1], axis=1)
    V, grad = analytical_clf(X)
    LfV, LgV = lie_derivatives(dynamics_f(X), grad)
    np.testing.assert_allclose(LgV, 0.0, atol=1e-12)
    assert (LfV < 0).all()
    np.testing.assert_allclose(LfV, -3 * x1**4, rtol=1e-12)


def test_sontag_formula_cases():
    assert sontag_control(5.0, 0.0) == 0.0
    assert sontag_control(0.0, 1.0) == -1.0
    assert sontag_control(1.0, 1.0) == pytest.approx(-(1 + np.sqrt(2)))


def test_dynamics_drift():
    np.testing.assert_array_equal(dynamics_f([[1.0, 2.0]]), [[8.0, -1.0]])
    assert dynamics_f([1.0, 2.0]).shape == (1, 2)


def test_dynamics_drift_matches_pow():
    # two roundings of x * x * x against pow's one: at most 2 eps relative
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20_000, 2)) * 10.0 ** rng.uniform(-5, 100, (20_000, 2))
    F = dynamics_f(X)
    assert F.shape == X.shape
    np.testing.assert_allclose(F, np.stack([X[:, 1] ** 3, -X[:, 0] ** 3], axis=1),
                               rtol=2 * np.finfo(float).eps, atol=0.0)


def test_sontag_zero_where_lgv_vanishes():
    eps = 1e-8
    rng = np.random.default_rng(4)
    LgV = np.concatenate([[0.0, -0.0, eps, -eps, np.nextafter(eps, 1.0), -2 * eps],
                          rng.standard_normal(1000) * 10.0 ** rng.uniform(-10, 3, 1000)])
    LfV = rng.standard_normal(len(LgV)) * 10.0 ** rng.uniform(-3, 3, len(LgV))
    u = sontag_control(LfV, LgV, eps)
    active = np.abs(LgV) > eps
    assert not active[:4].any() and active[4:6].all()
    assert (u[~active] == 0.0).all()
    # LgV^4 as (LgV^2)^2: against pow's LgV**4 the two differ by up to 2 eps,
    # which LfV < 0 amplifies where LfV + sqrt(LfV^2 + LgV^4) nearly cancels
    f, g = LfV[active], LgV[active]
    np.testing.assert_allclose(u[active], -(f + np.sqrt(f**2 + (g**2) ** 2)) / g,
                               rtol=1e-15, atol=0.0)
    assert type(sontag_control(1.0, 2.0)) is float
    assert type(sontag_control(np.float64(1.0), 0.0)) is float


def test_sontag_nonfinite_drift_where_lgv_vanishes_is_silent():
    LfV = np.array([np.inf, -np.inf, np.nan, 1.0])
    LgV = np.array([0.0, 0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = sontag_control(LfV, LgV)
        assert sontag_control(-np.inf, 0.0) == 0.0
    np.testing.assert_array_equal(u, [0.0, 0.0, 0.0, -(1.0 + np.sqrt(2.0))])


def test_uncontrolled_conservation():
    fin, ok = simulate(np.array([[1.0, 0.0]]), None, horizon=10.0, dt=0.01)
    assert ok.all()
    q = fin[0, 0] ** 4 + fin[0, 1] ** 4
    assert abs(q - 1.0) <= 1e-6


def test_origin_is_fixed_point():
    fin, ok = simulate(np.zeros((1, 2)), make_sontag_controller(analytical_clf))
    np.testing.assert_array_equal(fin, 0.0)
    assert ok.all()


def test_drift_is_evaluated_once_per_rk4_stage(monkeypatch):
    # the controller reads the drift its stage already computed
    import adaptkan.clf

    calls = []

    def counted(X):
        calls.append(len(X))
        return dynamics_f(X)

    monkeypatch.setattr(adaptkan.clf, "dynamics_f", counted)
    simulate(np.ones((5, 2)), make_sontag_controller(analytical_clf), horizon=0.03, dt=0.01)
    assert calls == [5] * 4 * 3


def test_nonfinite_trajectory_is_flagged():
    def exploding(X, f):
        return np.full(len(X), 1e155)

    fin, ok = simulate(np.array([[1.0, 1.0]]), exploding, horizon=0.1, dt=0.01)
    assert not ok[0]
    assert final_distances(fin, ok)[0] == np.inf


def test_v_non_increasing_along_closed_loop():
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-3, 3, size=(50, 2))
    ctrl = make_sontag_controller(analytical_clf)
    _, ok, path = simulate(x0, ctrl, horizon=5.0, dt=0.01, return_path=True)
    assert ok.all()
    V = np.stack([analytical_clf(p)[0] for p in path])
    assert (np.diff(V, axis=0) <= 1e-8).all()


def test_conformal_quantile_examples():
    rng = np.random.default_rng(2)
    r = ConformalReport(rng.uniform(0, 1, size=19))
    assert r.quantile(0.05) == r.samples.max()   # ceil(20 * 0.95) = 19
    assert r.quantile(0.04) == np.inf            # p = K + 1
    samples = np.arange(1.0, 10.0)               # K = 9
    assert ConformalReport(samples).confidence(8.0) == pytest.approx(0.8)


def test_conformal_monotonicity():
    rng = np.random.default_rng(3)
    r = ConformalReport(rng.uniform(0, 2, size=40))
    deltas = np.linspace(0.01, 0.5, 20)
    qs = [r.quantile(d) for d in deltas]
    assert all(b <= a for a, b in zip(qs, qs[1:]))
    cs = [r.confidence(c) for c in np.linspace(0, 2, 20)]
    assert all(b >= a for a, b in zip(cs, cs[1:]))


def test_conformal_handles_failures_as_infinite():
    r = ConformalReport([0.1, 0.2, np.inf, np.inf])
    assert r.confidence(0.5) == pytest.approx(2 / 5)


def test_clf_losses_zero_candidate():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, size=(100, 2))

    def zero(Q):
        Q = np.atleast_2d(Q)
        return np.zeros(len(Q)), np.zeros((len(Q), 2))

    cfg = ClfLossConfig()
    terms = clf_losses(X, zero, cfg)
    assert terms["origin"] == 0.0
    assert terms["pos"] == 0.0
    assert terms["bowl"] == pytest.approx(np.mean(cfg.k1 * np.linalg.norm(X, axis=1)))


def test_clf_losses_on_boundary_of_bowl():
    cfg = ClfLossConfig()
    X = np.array([[1.0, 1.0]])

    def boundary(Q):
        Q = np.atleast_2d(Q)
        return cfg.k2 * np.linalg.norm(Q, axis=1), np.zeros((len(Q), 2))

    assert clf_losses(X, boundary, cfg)["bowl"] == 0.0


def test_clf_losses_analytical_on_zero_lgv_line():
    # on the LgV = 0 line the mask is 0 everywhere and LfV < 0, so the
    # drift loss term vanishes for the analytical candidate
    x1 = np.linspace(0.1, 2.0, 50)
    X = np.stack([x1, 2 * x1], axis=1)
    terms = clf_losses(X, analytical_clf, ClfLossConfig(tau=0.1))
    assert terms["f"] == 0.0


def test_lyapunov_value_and_grad_zero_net():
    net = init_network([2, 3], mode="linear", noise=0.0, slope=0.0, seed=0)
    V, grad = lyapunov_value_and_grad(net, np.array([[0.4, -0.2]]), "squared_norm")
    assert V[0] == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_lyapunov_identity_net_squared_norm():
    # a 2 -> 2 identity network gives V = |x|^2 / 2 and grad = x
    net = init_network([2, 2], mode="linear", noise=0.0, slope=0.0, seed=0)
    hist = net.layers[0].hist
    g = greville_abscissae(hist.a[0], hist.b[0], hist.omega)
    for j in range(2):
        net.layers[0].coef[j, j, :] = g
    X = np.array([[0.3, -0.5], [0.8, 0.1]])
    V, grad = lyapunov_value_and_grad(net, X, "squared_norm")
    np.testing.assert_allclose(V, 0.5 * (X**2).sum(axis=1), atol=1e-9)
    np.testing.assert_allclose(grad, X, atol=1e-9)


def test_lyapunov_grad_matches_finite_difference():
    net = init_network([2, 4, 3], mode="kan", noise=0.4, seed=5)
    rng = np.random.default_rng(6)
    X = rng.uniform(-0.8, 0.8, size=(5, 2))
    for mode in ("direct", "squared_norm"):
        V, grad = lyapunov_value_and_grad(net, X, mode)
        h = 1e-5
        for j in range(2):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            fd = (lyapunov_value_and_grad(net, Xp, mode)[0]
                  - lyapunov_value_and_grad(net, Xm, mode)[0]) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("mode,shape,lam_pos", [
    ("squared_norm", [2, 5, 3], 0.0),
    ("direct", [2, 4, 1], 1.0),
])
def test_clf_loss_gradients_match_finite_differences(mode, shape, lam_pos):
    cfg = ClfLossConfig(output_mode=mode, lam_pos=lam_pos)
    net = init_network(shape, mode="linear", noise=0.1, seed=7)
    rng = np.random.default_rng(8)
    X = rng.uniform(-2.5, 2.5, size=(6, 2))
    terms, grads = clf_loss_and_grads(net, X, cfg)

    def total():
        return clf_losses(X, make_network_clf(net, mode), cfg)["total"]

    assert terms["total"] == pytest.approx(total(), rel=1e-12)
    h = 1e-5
    worst = 0.0
    for p, g in zip(net.parameters(), net.gradient_list(grads)):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + h
            lp = total()
            p[ix] = old - h
            lm = total()
            p[ix] = old
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(g[ix] - fd) / max(abs(fd), abs(g[ix]), 1.0))
    assert worst <= 2e-5, f"clf gradient mismatch {worst:.3e}"


def test_train_clf_reduces_loss():
    cfg = ClfLossConfig(output_mode="squared_norm", lam_f=0.1, tau=0.1)
    net = init_network([2, 6, 2], mode="linear", noise=0.1, seed=9,
                       domain=(-3.0, 3.0))
    rng = np.random.default_rng(10)
    X = rng.uniform(-3, 3, size=(512, 2))
    history = train_clf(net, X, cfg, epochs=30, lr=0.02, batch_size=256, seed=10,
                        adapt_mode="none")
    assert history[-1]["loss"] < history[0]["loss"]


def test_analytical_confidence_near_reported_values():
    # small version of the closed-loop statistics (full size in acceptance)
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-3, 3, size=(200, 2))
    fin, ok = simulate(x0, make_sontag_controller(analytical_clf))
    rep = ConformalReport(final_distances(fin, ok))
    assert rep.confidence(0.5) > 0.97
    assert 0.1 < rep.confidence(0.25) < 0.5


def _clf_net(seed=9):
    return init_network([2, 4, 2], mode="linear", noise=0.1, seed=seed, domain=(-3.0, 3.0))


def test_train_clf_manual_mode_adapts_domains_to_batches():
    X = np.random.default_rng(13).uniform(3.0, 5.0, (128, 2))
    net = _clf_net(13)
    train_clf(net, X, ClfLossConfig(), epochs=2, lr=1e-3, batch_size=64, seed=13,
              adapt_mode="manual", manual_every=1)
    hist = net.layers[0].hist
    assert hist.a[0] >= 2.9 and hist.b[0] <= 5.1
    with pytest.raises(ValueError):
        train_clf(net, X, ClfLossConfig(), epochs=1, adapt_mode="manual")


def test_train_clf_batch_hook_sees_every_batch_with_its_epoch():
    seen = []

    def hook(epoch, X, y):
        seen.append((epoch, len(X), y))
        return X, y

    X = np.random.default_rng(17).uniform(-3, 3, (100, 2))
    history = train_clf(_clf_net(17), X, ClfLossConfig(), epochs=3, lr=1e-3, batch_size=32,
                        seed=17, batch_hook=hook)
    assert seen == [(e, 32, None) for e in range(3) for _ in range(3)]
    assert [h["fail"] for h in history] == [0, 0, 0]


def test_both_trainers_hand_the_hook_the_same_batches():
    def recorder(seen):
        def hook(epoch, X, y):
            seen.append((epoch, X.copy()))
            return X, y
        return hook

    X = np.random.default_rng(21).uniform(-1, 1, (100, 2))
    regress, lyapunov = [], []
    plan = TrainPlan(rounds=[{"lr": 1e-3, "steps": 4, "omega": 3},
                             {"lr": 1e-3, "steps": 5, "omega": 3}], batch_size=32, seed=21)
    train(init_network([2, 3, 1], seed=21), (X, X[:, 0], X, X[:, 0]), plan,
          batch_hook=recorder(regress))
    train_clf(_clf_net(21), X, ClfLossConfig(), epochs=3, lr=1e-3, batch_size=32, seed=21,
              batch_hook=recorder(lyapunov))
    assert [e for e, _ in regress] == [e for e, _ in lyapunov] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for (_, a), (_, b) in zip(regress, lyapunov):
        np.testing.assert_array_equal(a, b)


def test_train_clf_nan_epoch_is_flagged_not_raised():
    # as in the regression trainer: the epoch fails with NaN losses, the
    # next epoch draws a fresh permutation and trains
    X = np.random.default_rng(19).uniform(-3, 3, (128, 2))
    for mode in ("auto", "manual", "none"):
        def hook(epoch, Xb, y):
            return (Xb * np.nan if epoch == 0 else Xb), y

        history = train_clf(_clf_net(19), X, ClfLossConfig(), epochs=2, lr=1e-3,
                            batch_size=32, seed=19, adapt_mode=mode, batch_hook=hook,
                            manual_every=1 if mode == "manual" else None,
                            X_val=X, eval_every=1)
        assert [h["fail"] for h in history] == [1, 0], mode
        assert np.isnan(history[0]["loss"]) and np.isnan(history[0]["val_loss"])
        assert np.isfinite(history[1]["loss"]) and np.isfinite(history[1]["val_loss"])


def test_clf_losses_past_the_float_range_fail_without_warnings():
    # outputs ~1e200: their squares and the seeded reverse pass overflow,
    # and the non-finite total raises (a RuntimeWarning is an error here)
    net = init_network([2, 2], mode="linear", noise=0.0, slope=0.0, seed=0)
    net.parameters()[0][:] = 1e200
    X = np.random.default_rng(0).uniform(-1, 1, (64, 2))
    cfg = ClfLossConfig(output_mode="squared_norm")
    with pytest.raises(NonFiniteError):
        clf_losses(X, make_network_clf(net, "squared_norm"), cfg)
    with pytest.raises(NonFiniteError):
        clf_loss_and_grads(net, X, cfg)


def test_train_clf_overflowing_origin_term_fails_the_epoch():
    # V0 ~ 1e200 squares past the float range: a failed epoch, not an OverflowError
    net = init_network([2, 1], mode="linear", noise=0.0, slope=0.0, seed=0)
    net.parameters()[0][:] = 1e200
    X = np.random.default_rng(0).uniform(-1, 1, (64, 2))
    cfg = ClfLossConfig(output_mode="direct")
    with pytest.raises(NonFiniteError):
        clf_losses(X, make_network_clf(net, "direct"), cfg)
    history = train_clf(net, X, cfg, epochs=2, lr=1e-3, batch_size=32, adapt_mode="none")
    assert [h["fail"] for h in history] == [1, 1]
    assert all(np.isnan(h["loss"]) for h in history)
