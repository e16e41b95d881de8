"""Layer stacking, analytic gradients, initialisation, and adaptation hooks."""

import numpy as np
import pytest

from adaptkan.adapt import AdaptConfig
from adaptkan.network import (
    AdaptKanNet,
    NonFiniteError,
    init_network,
    silu,
    silu_d1,
    silu_d2,
    sparsity_penalty,
)
from adaptkan.spline import greville_abscissae


def constant_net(n=3, m=2, c=1.5):
    """Single layer whose every activation is the constant c (no base term)."""
    net = init_network([n, m], mode="linear", noise=0.0, slope=0.0, seed=0)
    net.layers[0].coef[:] = c
    return net


def test_forward_sums_constant_activations():
    net = constant_net(n=3, m=2, c=1.5)
    Y, _ = net.forward(np.zeros((5, 3)))
    np.testing.assert_allclose(Y, 3 * 1.5, atol=1e-12)


def test_zero_network_outputs_zero():
    net = init_network([2, 4, 1], mode="linear", noise=0.0, slope=0.0, seed=0)
    Y, _ = net.forward(np.random.default_rng(0).uniform(-1, 1, (8, 2)))
    np.testing.assert_allclose(Y, 0.0, atol=1e-12)


def test_forward_without_record_is_pure():
    net = init_network([2, 3, 1], mode="kan", noise=0.5, seed=1)
    X = np.random.default_rng(2).uniform(-1, 1, (16, 2))
    h_before = [ly.hist.counts.copy() for ly in net.layers]
    Y1, _ = net.forward(X, record=False)
    Y2, _ = net.forward(X, record=False)
    np.testing.assert_array_equal(Y1, Y2)
    h_after = [ly.hist.counts for ly in net.layers]
    for b, a in zip(h_before, h_after):
        np.testing.assert_array_equal(b, a)


def test_width_mismatch_raises():
    net = init_network([2, 3], seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        net.forward_jvp(np.zeros((4, 5)), np.zeros((4, 5, 1)))


def test_non_finite_error_carries_layer_index():
    # NaN is refused at the entry of every pass, recording or not, and by the
    # manual snap, which also refuses ±inf as the recording pass does
    net = init_network([2, 3, 1], seed=0)
    X = np.array([[np.nan, 0.0]])
    for call in (lambda: net.forward(X, record=True), lambda: net.forward(X),
                 lambda: net.forward_jvp(X, np.ones((1, 2, 1))),
                 lambda: net.manual_adapt_all(X),
                 lambda: net.manual_adapt_all(np.array([[np.inf, 0.0]]))):
        with pytest.raises(NonFiniteError) as err:
            call()
        assert err.value.layer == 0 and "inputs" in str(err.value)


def test_linear_network_maps_infinite_inputs_to_finite_values():
    # splines are constant outside their domains; closed-loop simulation
    # feeds ±inf stage states of diverging trajectories through the network
    net = init_network([2, 3, 1], mode="linear", noise=0.1, seed=0)
    X = np.array([[np.inf, 0.0], [-np.inf, 0.5], [0.2, 0.3]])
    Y, caches = net.forward(X)
    _, G = net.backward(caches, np.ones_like(Y))
    assert np.isfinite(Y).all() and np.isfinite(G).all()


def test_linear_init_slope_one_sums_inputs():
    net = init_network([3, 2], mode="linear", noise=0.0, slope=1.0, seed=0)
    X = np.random.default_rng(3).uniform(-0.9, 0.9, (40, 3))
    Y, _ = net.forward(X)
    expected = np.broadcast_to(X.sum(axis=1, keepdims=True), Y.shape)
    np.testing.assert_allclose(Y, expected, atol=1e-9)


def test_init_deterministic_under_seed():
    a = init_network([2, 5, 1], mode="kan", noise=0.5, seed=7)
    b = init_network([2, 5, 1], mode="kan", noise=0.5, seed=7)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa, pb)


def test_init_shape():
    net = init_network([2, 5, 1], seed=0)
    assert net.shape == [2, 5, 1]
    assert net.layers[0].coef.shape == (2, 5, 3 + 3)
    assert net.layers[1].coef.shape == (5, 1, 3 + 3)


def test_additivity_weight_perturbation_is_local():
    # touching the weights of activation (i, j) may move output i only
    net = init_network([3, 4], mode="kan", noise=0.3, seed=5)
    X = np.random.default_rng(6).uniform(-1, 1, (10, 3))
    Y0, _ = net.forward(X)
    net.layers[0].coef[1, 2, :] += 0.5
    Y1, _ = net.forward(X)
    delta = np.abs(Y1 - Y0).max(axis=0)
    assert delta[2] > 1e-3
    np.testing.assert_array_equal(np.delete(delta, 2), 0.0)


def grad_check(net, X, rtol=1e-5, h=1e-5):
    rng = np.random.default_rng(99)
    R = rng.standard_normal((len(X), net.layers[-1].m))

    def loss():
        Y, _ = net.forward(X)
        return float((Y * R).sum())

    Y, caches = net.forward(X)
    grads, gX = net.backward(caches, R)
    worst = 0.0
    for p, g in zip(net.parameters(), net.gradient_list(grads)):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + h
            lp = loss()
            p[ix] = old - h
            lm = loss()
            p[ix] = old
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(g[ix] - fd) / max(abs(fd), abs(g[ix]), 1.0))
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
    assert worst <= rtol, f"gradient mismatch {worst:.3e}"


def test_gradients_match_finite_differences_kan():
    net = init_network([2, 4, 3], mode="kan", noise=0.5, seed=11)
    X = np.random.default_rng(12).uniform(-0.9, 0.9, (3, 2))
    grad_check(net, X)


def test_gradients_match_finite_differences_linear():
    net = init_network([3, 5, 2], mode="linear", noise=0.2, seed=13)
    X = np.random.default_rng(14).uniform(-0.9, 0.9, (3, 3))
    grad_check(net, X)


def test_input_gradient_of_linear_net_is_slope():
    net = init_network([2, 1], mode="linear", noise=0.0, slope=2.0, seed=0)
    X = np.array([[0.3, -0.4]])
    Y, caches = net.forward(X)
    _, gX = net.backward(caches, np.ones((1, 1)))
    np.testing.assert_allclose(gX, 2.0, atol=1e-9)


def test_zero_output_gradient_gives_zero_gradients():
    net = init_network([2, 3, 2], mode="kan", seed=3)
    X = np.random.default_rng(4).uniform(-1, 1, (6, 2))
    _, caches = net.forward(X)
    grads, gX = net.backward(caches, np.zeros((6, 2)))
    for g in net.gradient_list(grads):
        np.testing.assert_array_equal(g, 0.0)
    np.testing.assert_array_equal(gX, 0.0)


def test_silu_derivatives():
    z = np.linspace(-4, 4, 41)
    h = 1e-6
    np.testing.assert_allclose(silu_d1(z), (silu(z + h) - silu(z - h)) / (2 * h), atol=1e-8)
    np.testing.assert_allclose(silu_d2(z), (silu_d1(z + h) - silu_d1(z - h)) / (2 * h), atol=1e-7)


def test_jvp_matches_directional_difference():
    net = init_network([2, 4, 2], mode="kan", noise=0.4, seed=21)
    rng = np.random.default_rng(22)
    X = rng.uniform(-0.8, 0.8, (5, 2))
    T = rng.standard_normal((5, 2, 3))
    Y, Ydot, _ = net.forward_jvp(X, T)
    Y0, _ = net.forward(X)
    np.testing.assert_array_equal(Y, Y0)
    h = 1e-6
    for t in range(3):
        Yp, _ = net.forward(X + h * T[:, :, t])
        Ym, _ = net.forward(X - h * T[:, :, t])
        np.testing.assert_allclose(Ydot[:, :, t], (Yp - Ym) / (2 * h), atol=1e-7)


def test_backward_jvp_matches_finite_differences():
    # scalar objective mixing outputs and tangent outputs; exercises the
    # curvature terms of both the splines and the SiLU base
    net = init_network([2, 3, 2], mode="kan", noise=0.4, seed=31)
    rng = np.random.default_rng(32)
    X = rng.uniform(-0.8, 0.8, (4, 2))
    T = rng.standard_normal((4, 2, 2))
    R = rng.standard_normal((4, 2))
    Rdot = rng.standard_normal((4, 2, 2))

    def objective():
        Y, Ydot, _ = net.forward_jvp(X, T)
        return float((Y * R).sum() + (Ydot * Rdot).sum())

    _, _, caches = net.forward_jvp(X, T)
    grads, _, _ = net.backward_jvp(caches, R, Rdot)
    h = 1e-5
    worst = 0.0
    for p, g in zip(net.parameters(), net.gradient_list(grads)):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + h
            lp = objective()
            p[ix] = old - h
            lm = objective()
            p[ix] = old
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(g[ix] - fd) / max(abs(fd), abs(g[ix]), 1.0))
    assert worst <= 1e-5, f"jvp gradient mismatch {worst:.3e}"


def test_sparsity_penalty_values():
    net = init_network([2, 3], mode="linear", noise=0.0, slope=0.0, seed=0)
    X = np.random.default_rng(7).uniform(-1, 1, (10, 2))
    _, caches = net.forward(X)
    val, _ = sparsity_penalty(net, caches, lam=0.1)
    assert val == 0.0
    val, extras = sparsity_penalty(net, caches, lam=0.0)
    assert val == 0.0 and extras is None
    cnet = constant_net(n=2, m=3, c=-0.8)
    _, caches = cnet.forward(X)
    val, _ = sparsity_penalty(cnet, caches, lam=0.1)
    assert val == pytest.approx(0.1 * 0.8, abs=1e-12)


def test_sparsity_gradient_via_extras():
    net = init_network([2, 3, 2], mode="kan", noise=0.4, seed=41)
    X = np.random.default_rng(42).uniform(-0.8, 0.8, (5, 2))
    lam = 0.05

    def total():
        Y, caches = net.forward(X)
        pen, _ = sparsity_penalty(net, caches, lam)
        return float(Y.sum()) + pen

    Y, caches = net.forward(X)
    _, extras = sparsity_penalty(net, caches, lam)
    grads, _ = net.backward(caches, np.ones_like(Y), extras)
    h = 1e-6
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
            worst = max(worst, abs(g[ix] - fd) / max(abs(fd), 1.0))
    assert worst <= 1e-4, f"sparsity gradient mismatch {worst:.3e}"


def test_refine_all_preserves_constant_network():
    net = constant_net(n=2, m=2, c=0.9)
    X = np.random.default_rng(8).uniform(-1, 1, (20, 2))
    Y0, _ = net.forward(X)
    resid = net.refine_all(10)
    Y1, _ = net.forward(X)
    np.testing.assert_allclose(Y1, Y0, atol=1e-9)
    assert resid <= 1e-10
    assert net.omega == 10
    assert all(ly.hist.hist.shape == (ly.n, 10) for ly in net.layers)


def test_refine_all_rmse_bounded_by_residual():
    net = init_network([2, 3, 1], mode="kan", noise=0.5, seed=51)
    rng = np.random.default_rng(52)
    X = rng.uniform(-1, 1, (200, 2))
    y = (X.prod(axis=1))[:, None]
    Y0, _ = net.forward(X)
    rmse0 = float(np.sqrt(np.mean((Y0 - y) ** 2)))
    resid = net.refine_all(5)
    Y1, _ = net.forward(X)
    rmse1 = float(np.sqrt(np.mean((Y1 - y) ** 2)))
    # each output moved by at most (width * per-layer residual) compounded;
    # a generous linear bound in the reported residual
    layers_gain = sum(ly.n for ly in net.layers)
    assert rmse1 <= rmse0 + layers_gain * resid + 1e-12


def test_record_forward_noop_on_healthy_histograms():
    net = init_network([2, 3], mode="kan", seed=61, cfg=AdaptConfig(alpha=0.5))
    for ly in net.layers:
        ly.hist.hist[:] = 5.0  # healthy everywhere, empty ood
    bounds = [(ly.hist.a.copy(), ly.hist.b.copy()) for ly in net.layers]
    # one sample in every bin keeps the histograms healthy
    hist = net.layers[0].hist
    centers = hist.a[0] + (np.arange(hist.omega) + 0.5) * hist.d[0]
    X = np.repeat(centers[:, None], 2, axis=1)
    net.forward(X, record=True)
    assert net.adapt_events == 0
    for ly, (a, b) in zip(net.layers, bounds):
        np.testing.assert_array_equal(ly.hist.a, a)
        np.testing.assert_array_equal(ly.hist.b, b)


def test_record_forward_stretches_to_cover_data():
    cfg = AdaptConfig(alpha=0.5, stretch_mode="half_max")
    net = init_network([1, 2], mode="kan", noise=0.1, seed=71, cfg=cfg)
    rng = np.random.default_rng(72)
    for _ in range(10):
        net.forward(rng.uniform(2.0, 4.0, (64, 1)), record=True)
    assert net.layers[0].hist.b[0] >= 3.9  # stretched to cover the data
    assert net.adapt_events > 0


def test_record_forward_shrinks_away_from_empty_edges():
    cfg = AdaptConfig(alpha=0.5, stretch_mode="half_max", prune_patience=1)
    net = init_network([1, 2], mode="kan", noise=0.1, seed=81, cfg=cfg,
                       domain=(-10.0, 10.0))
    rng = np.random.default_rng(82)
    for _ in range(10):
        net.forward(rng.uniform(-0.5, 0.5, (64, 1)), record=True)
    hist = net.layers[0].hist
    assert hist.b[0] - hist.a[0] < 5.0


def _assert_parameters_view_layers(net):
    (flat,) = net.parameters()
    arrays = [getattr(ly, name) for ly in net.layers for name in ly.trainable()]
    np.testing.assert_array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
    for arr in arrays:
        assert np.shares_memory(arr, flat)
    flat[0] += 1.0  # an optimiser step moves the layer's own weights
    assert net.layers[0].coef.flat[0] == flat[0]


def test_backward_gradients_do_not_alias():
    net = init_network([2, 3, 1], mode="kan", noise=0.5, seed=4)
    X = np.random.default_rng(5).uniform(-1, 1, (8, 2))
    _, caches = net.forward(X)
    g1 = net.gradient_list(net.backward(caches, np.ones((8, 1)))[0])
    g2 = net.gradient_list(net.backward(caches, np.ones((8, 1)))[0])
    (p,) = net.parameters()
    assert len(g1) == len(g2) == 1 and g1[0].shape == p.shape
    assert not np.shares_memory(g1[0], g2[0])
    np.testing.assert_array_equal(g1[0], g2[0])
    g1[0] += 1.0
    assert not np.array_equal(g1[0], g2[0])


@pytest.mark.parametrize("mode", ["kan", "linear"])
def test_backward_reads_the_weights_and_domains_of_its_forward(mode):
    # an optimiser step and a stretch after the forward must not reach a
    # reverse pass over its caches; the linear one-output layer's folded
    # weights used to be a view of the parameter buffer
    net = init_network([2, 3, 1], mode=mode, noise=0.5, seed=4, cfg=AdaptConfig(alpha=0.5))
    rng = np.random.default_rng(5)
    X, G = rng.uniform(-1, 1, (8, 2)), rng.normal(size=(8, 1))
    _, caches = net.forward(X)
    grads, gX = net.backward(caches, G)
    net.parameters()[0][...] += 0.5
    b = net.layers[0].hist.b.copy()
    net.forward(rng.uniform(3.0, 4.0, (64, 2)), record=True)
    assert (net.layers[0].hist.b > b).any()
    grads_after, gX_after = net.backward(caches, G)
    np.testing.assert_array_equal(gX_after, gX)
    np.testing.assert_array_equal(net.gradient_list(grads_after)[0], net.gradient_list(grads)[0])


def test_parameters_follow_refine_adaptation_and_load(tmp_path):
    from adaptkan.model_io import load_model, save_model
    net = init_network([2, 3, 1], mode="kan", noise=0.5, seed=6,
                       cfg=AdaptConfig(alpha=0.5, stretch_mode="max"))
    _assert_parameters_view_layers(net)
    net.refine_all(5)
    _assert_parameters_view_layers(net)
    net.forward(np.random.default_rng(7).uniform(2.0, 3.0, (16, 2)), record=True)
    assert net.adapt_events > 0
    _assert_parameters_view_layers(net)
    save_model(net, tmp_path / "m.json")
    _assert_parameters_view_layers(load_model(tmp_path / "m.json"))


def test_save_load_save_is_byte_identical(tmp_path):
    from adaptkan.model_io import load_model, save_model
    from adaptkan.optim import TrainPlan, train
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.5, 1.5, (128, 2))
    y = X[:, 0] * X[:, 1]
    net = init_network([2, 3, 1], mode="kan", noise=0.5, seed=8,
                       cfg=AdaptConfig(alpha=0.05, stretch_mode="max"))
    train(net, (X, y, X, y), TrainPlan(rounds=[{"lr": 1e-2, "steps": 20, "omega": 3},
                                              {"lr": 1e-2, "steps": 20, "omega": 5}],
                                      batch_size=32, seed=8))
    assert net.adapt_events > 0
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(net, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_saved_adapt_block_is_the_config(tmp_path):
    import json
    from dataclasses import asdict

    from adaptkan.model_io import save_model
    cfg = AdaptConfig(alpha=0.25, prune_patience=3, stretch_mode="edge", shrink_rule="relative",
                      refit_mode="greville", outlier_count=2)
    save_model(init_network([2, 1], cfg=cfg), tmp_path / "m.json")
    adapt = json.loads((tmp_path / "m.json").read_text())["adapt"]
    assert adapt == asdict(cfg) and list(adapt) == list(asdict(cfg))
