"""Optimiser updates, learning-rate schedule, and the round-based trainer."""

import numpy as np
import pytest

from adaptkan.network import NonFiniteError, init_network
from adaptkan.optim import Adam, Round, TrainPlan, lr_at, minibatches, train
from adaptkan.tasks import generate, get_task


def test_adam_first_step_magnitude():
    # bias correction makes m-hat = g and v-hat = g^2 on the first step
    p = [np.array([0.0])]
    opt = Adam(lr=0.1, eps=1e-8)
    opt.step(p, [np.array([1.0])])
    assert p[0][0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_zero_gradient_no_move():
    p = [np.array([3.0])]
    Adam(lr=0.1).step(p, [np.array([0.0])])
    assert p[0][0] == 3.0


@pytest.mark.parametrize("seed", [0, 1])
def test_wide_recipe_keeps_its_accuracy_across_stretches(seed):
    # [2, 32, 32, 1] at batch 1024, omega 10 then 50: over a hundred
    # stretches per run.  Refitting the edge cubics' extrapolation ended
    # these runs at test RMSE 2.4e3 and 1.3e4.
    (X_tr, y_tr), (X_te, y_te) = generate(get_task("II.38.3"), seed=seed)
    net = init_network([2, 32, 32, 1], mode="kan", noise=0.5, seed=seed)
    plan = TrainPlan(rounds=[{"lr": 0.01, "steps": 10, "omega": 10},
                             {"lr": 0.005, "steps": 10, "omega": 50}],
                     batch_size=1024, seed=seed)
    history = train(net, (X_tr, y_tr, X_te, y_te), plan)
    assert net.adapt_events > 100
    assert history[-1]["test_rmse"] < 200.0


def test_adam_non_finite_moment_raises_before_moving():
    # a gradient whose square overflows, or an infinite one, fails the step
    for g in (np.array([1.0, 1e200]), np.array([1.0, np.inf])):
        p = np.array([0.5, -0.5])
        opt = Adam(lr=0.1)
        with pytest.raises(NonFiniteError):
            opt.step([p], [g])
        np.testing.assert_array_equal(p, [0.5, -0.5])
        # the failed step leaves no moments behind: the next one is a first step
        opt.step([p], [np.array([2.0, -3.0])])
        np.testing.assert_allclose(p, [0.5 - 0.1, -0.5 + 0.1], rtol=1e-6)


def test_adamw_decoupled_decay():
    p = [np.array([1.0])]
    opt = Adam(lr=0.1, weight_decay=0.01, decoupled=True)
    opt.step(p, [np.array([0.0])])
    assert p[0][0] == pytest.approx(0.999, abs=1e-15)


def test_adam_coupled_decay_differs():
    # non-decoupled decay folds into the gradient, so a zero gradient with
    # nonzero parameter still produces an Adam-normalised step
    p = [np.array([1.0])]
    opt = Adam(lr=0.1, weight_decay=0.01, decoupled=False)
    opt.step(p, [np.array([0.0])])
    assert p[0][0] != pytest.approx(0.999, abs=1e-6)


def test_lr_schedule_endpoints():
    assert lr_at(0.01, 0, 2000) == 0.01
    assert lr_at(0.01, 2000, 2000) == pytest.approx(0.001, abs=1e-15)
    assert lr_at(0.01, 1234, 2000, poly_decay=False) == 0.01


def test_lr_schedule_is_quadratic_in_step():
    lr0, S = 0.02, 100
    mid = lr_at(lr0, 50, S)
    assert mid == pytest.approx(lr0 * (1 - 0.9 * 0.25), abs=1e-15)


def test_plan_validation():
    with pytest.raises(ValueError):
        TrainPlan(rounds=[{"lr": 1e-2, "steps": 10, "omega": 5},
                          {"lr": 1e-2, "steps": 10, "omega": 3}])
    for steps in (0, "x", 2.5):
        with pytest.raises(ValueError):
            TrainPlan(rounds=[{"lr": 1e-2, "steps": steps, "omega": 3}])
    with pytest.raises(ValueError):
        TrainPlan(rounds=[{"lr": 1e-2, "steps": 10, "omega": 3}], optimizer="sgd")


def make_data(seed=0, n=256):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = X[:, 0] * X[:, 1]
    return X[: n // 2], y[: n // 2], X[n // 2:], y[n // 2:]


def test_lr_zero_is_noop_on_parameters():
    net = init_network([2, 3, 1], mode="kan", seed=0)
    before = [p.copy() for p in net.parameters()]
    plan = TrainPlan(rounds=[{"lr": 0.0, "steps": 20, "omega": 3}], batch_size=32, seed=0)
    hist = train(net, make_data(), plan, adapt_mode="none")
    for b, a in zip(before, net.parameters()):
        np.testing.assert_array_equal(b, a)
    assert hist[0]["fail"] == 0


def test_linear_target_zero_rmse_at_init():
    # a noiseless linear-init network with slope 1 already represents the
    # target sum(x); round-0 RMSE is the refit/evaluation noise only
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.9, 0.9, (200, 2))
    y = X.sum(axis=1)
    net = init_network([2, 1], mode="linear", noise=0.0, slope=1.0, seed=0)
    plan = TrainPlan(rounds=[{"lr": 0.0, "steps": 1, "omega": 3}], batch_size=64, seed=0)
    hist = train(net, (X[:100], y[:100], X[100:], y[100:]), plan, adapt_mode="none")
    assert hist[0]["test_rmse"] <= 1e-6


def test_training_reduces_loss():
    net = init_network([2, 5, 1], mode="kan", seed=1)
    plan = TrainPlan(rounds=[{"lr": 1e-2, "steps": 300, "omega": 3}], batch_size=64, seed=1)
    hist = train(net, make_data(1), plan)
    assert hist[0]["test_rmse"] < 0.2
    assert hist[0]["fail"] == 0


def test_seed_determinism():
    histories = []
    params = []
    for _ in range(2):
        net = init_network([2, 4, 1], mode="kan", seed=3)
        plan = TrainPlan(rounds=[{"lr": 5e-3, "steps": 100, "omega": 3},
                                 {"lr": 1e-3, "steps": 50, "omega": 5}],
                         batch_size=32, seed=3)
        histories.append(train(net, make_data(3), plan))
        params.append([p.copy() for p in net.parameters()])
    assert histories[0] == histories[1]
    for a, b in zip(*params):
        np.testing.assert_array_equal(a, b)


def test_loss_non_increasing_on_constant_fit():
    # convex toy: fit a constant with a plain linear-mode net; sanity only
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (64, 1))
    y = np.full(64, 0.7)
    net = init_network([1, 1], mode="linear", noise=0.0, slope=0.0, seed=9)
    from adaptkan.optim import Adam
    opt = Adam(lr=1e-2)
    losses = []
    for _ in range(50):
        Y, caches = net.forward(X)
        losses.append(float(np.mean((Y[:, 0] - y) ** 2)))
        grads, _ = net.backward(caches, 2 * (Y - y[:, None]) / Y.size)
        opt.step(net.parameters(), net.gradient_list(grads))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_grid_refinement_happens_between_rounds():
    net = init_network([2, 3, 1], mode="kan", seed=11)
    plan = TrainPlan(rounds=[{"lr": 1e-3, "steps": 10, "omega": 3},
                             {"lr": 1e-3, "steps": 10, "omega": 8}],
                     batch_size=32, seed=11)
    hist = train(net, make_data(11), plan)
    assert net.omega == 8
    assert [h["omega"] for h in hist] == [3, 8]


def test_manual_mode_requires_frequency():
    net = init_network([2, 3, 1], seed=0)
    plan = TrainPlan(rounds=[{"lr": 1e-3, "steps": 5, "omega": 3}], seed=0)
    with pytest.raises(ValueError):
        train(net, make_data(), plan, adapt_mode="manual")


def test_manual_mode_adapts_domains_to_batches():
    net = init_network([2, 3, 1], seed=13)
    rng = np.random.default_rng(13)
    X = rng.uniform(3.0, 5.0, (128, 2))
    y = X[:, 0]
    plan = TrainPlan(rounds=[{"lr": 1e-3, "steps": 8, "omega": 3}], batch_size=64, seed=13)
    train(net, (X, y, X, y), plan, adapt_mode="manual", manual_every=1)
    hist = net.layers[0].hist
    assert hist.a[0] >= 2.9 and hist.b[0] <= 5.1


def test_batch_hook_is_applied():
    seen = []

    def hook(epoch, X, y):
        seen.append(epoch)
        return X, y

    net = init_network([2, 3, 1], seed=17)
    plan = TrainPlan(rounds=[{"lr": 1e-3, "steps": 6, "omega": 3}], batch_size=64, seed=17)
    train(net, make_data(17), plan, batch_hook=hook)
    assert len(seen) == 6


def test_nan_round_is_flagged_not_raised():
    # in every mode: the manual snap, the recording forward and the plain
    # forward all refuse a NaN batch, and the next round still runs
    for mode in ("auto", "manual", "none"):
        seen = []

        def hook(epoch, X, y):
            seen.append(epoch)
            return (X * np.nan if len(seen) == 1 else X), y

        net = init_network([2, 3, 1], seed=19)
        plan = TrainPlan(rounds=[{"lr": 1e-3, "steps": 5, "omega": 3},
                                 {"lr": 1e-3, "steps": 5, "omega": 3}], batch_size=32, seed=19)
        hist = train(net, make_data(19), plan, adapt_mode=mode, batch_hook=hook,
                     manual_every=1 if mode == "manual" else None)
        assert [h["fail"] for h in hist] == [1, 0], mode
        assert np.isnan(hist[0]["test_rmse"]) and np.isnan(hist[0]["train_rmse"])
        assert np.isfinite(hist[1]["test_rmse"])


def test_minibatches_checks_settings_before_the_first_batch():
    X = np.zeros((10, 2))
    for kwargs in ({"batch_size": 0}, {"batch_size": -5}, {"batch_size": "x"},
                   {"batch_size": 4, "adapt_mode": "sometimes"},
                   {"batch_size": 4, "adapt_mode": "manual"}):
        with pytest.raises(ValueError):
            minibatches(X, None, seed=0, **kwargs)


def test_minibatches_epochs_drop_the_remainder_and_mark_snaps():
    X = np.arange(10.0).reshape(10, 1)
    stream = minibatches(X, X[:, 0] * 2, 4, seed=0, adapt_mode="manual", manual_every=2)
    for e in range(4):
        batches = list(next(stream))
        assert len(batches) == 2
        rows = np.concatenate([Xb[:, 0] for Xb, _, _ in batches])
        assert len(set(rows)) == 8
        for Xb, yb, _ in batches:
            np.testing.assert_array_equal(yb, Xb[:, 0] * 2)
        assert [snap for _, _, snap in batches] == [e % 2 == 0, False]
